import re

import numpy as np
import pytest

from capsloc import simkit as sk
from capsloc.geometry import Pose, Trajectory, apply_relative, resample_trajectory

MU0_OVER_4PI = 1e-7


def zero_actuator():
    return sk.ActuatorFieldModel(uniform=(0.0, 0.0, 0.0), gradient=(0.0, 0.0, 0.0))


def test_generate_trajectory_deterministic():
    cfg = sk.SimConfig(duration=5.0, seed=42)
    a = sk.generate_trajectory(cfg)
    b = sk.generate_trajectory(cfg)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.poses, b.poses)


def test_generate_trajectory_seed_sensitivity():
    a = sk.generate_trajectory(sk.SimConfig(duration=5.0, seed=1))
    b = sk.generate_trajectory(sk.SimConfig(duration=5.0, seed=2))
    assert not np.allclose(a.poses, b.poses)


def test_slow_profile_speed_cap():
    cfg = sk.SimConfig(duration=10.0, seed=3, motion_profile="slow_incremental")
    traj = sk.generate_trajectory(cfg)
    dense = resample_trajectory(traj, np.linspace(0, traj.times[-1], 4001))
    v = np.diff(dense.poses[:, :3], axis=0) / np.diff(dense.times)[:, None]
    assert np.max(np.linalg.norm(v, axis=1)) < 0.005 + 1e-9


def test_sample_count_10s_50hz():
    cfg = sk.SimConfig(duration=10.0, seed=4)
    traj = sk.generate_trajectory(cfg)
    assert len(traj.times) == 500
    assert np.allclose(traj.times, np.arange(500) / 50.0)


def test_trajectory_inside_workspace_and_pitch_bound():
    for seed in range(5):
        for profile in ("slow_incremental", "comprehensive_scan", "fast_complex"):
            cfg = sk.SimConfig(duration=10.0, seed=seed, motion_profile=profile)
            traj = sk.generate_trajectory(cfg)
            c = np.asarray(cfg.workspace_center)
            h = cfg.workspace_half_extent
            assert np.all(np.abs(traj.poses[:, :3] - c) <= h + 1e-12)
            assert np.max(np.abs(traj.poses[:, 4])) <= 1.2 + 1e-12


def test_dipole_on_axis_closed_form():
    pose = Pose([0, 0, 0], [0, 0, 0])
    dip = sk.DipoleParams(moment_magnitude=1.0, moment_axis=(0, 0, 1))
    B = sk.dipole_field(pose, dip, np.array([0.0, 0.0, 0.1]))
    assert np.allclose(B, [0, 0, 2e-4], atol=1e-18)


def test_dipole_equatorial_closed_form():
    pose = Pose([0, 0, 0], [0, 0, 0])
    dip = sk.DipoleParams(moment_magnitude=1.0, moment_axis=(0, 0, 1))
    B = sk.dipole_field(pose, dip, np.array([0.1, 0.0, 0.0]))
    assert np.allclose(B, [0, 0, -1e-4], atol=1e-18)
    assert abs(np.linalg.norm(B) - 1e-4) < 1e-18


def test_dipole_inverse_cube():
    pose = Pose([0, 0, 0], [0.3, 0.2, 0.1])
    dip = sk.DipoleParams(moment_magnitude=2.0, moment_axis=(1, 0, 0))
    q = np.array([0.03, 0.04, 0.05])
    near = np.linalg.norm(sk.dipole_field(pose, dip, q))
    far = np.linalg.norm(sk.dipole_field(pose, dip, 2 * q))
    assert abs(near / far - 8.0) < 1e-9


def test_dipole_rotates_with_capsule():
    dip = sk.DipoleParams(moment_magnitude=1.0, moment_axis=(0, 0, 1))
    # Rolling the capsule by pi/2 sends the body z-axis to world -y.
    pose = Pose([0, 0, 0], [np.pi / 2, 0, 0])
    B = sk.dipole_field(pose, dip, np.array([0.0, -0.1, 0.0]))
    assert np.allclose(B, [0, -2e-4, 0], atol=1e-18)


def test_dipole_exclusion_radius():
    pose = Pose([0, 0, 0], [0, 0, 0])
    dip = sk.DipoleParams(moment_magnitude=1.0, moment_axis=(0, 0, 1))
    with pytest.raises(ValueError):
        sk.dipole_field(pose, dip, np.array([0.0, 0.0, 5e-4]))


def test_dipole_params_validation():
    with pytest.raises(ValueError):
        sk.DipoleParams(moment_magnitude=1.0, moment_axis=(1, 1, 0))
    with pytest.raises(ValueError):
        sk.DipoleParams(moment_magnitude=-1.0, moment_axis=(0, 0, 1))


def test_sensor_positions_geometry():
    pos = sk.sensor_positions()
    assert pos.shape == (8, 8, 3)
    assert np.allclose(pos[..., 2], 0.0)
    assert np.allclose(pos.reshape(-1, 3).mean(axis=0), 0.0, atol=1e-15)
    assert abs((pos[0, 1, 1] - pos[0, 0, 1]) - 0.02) < 1e-15
    assert abs((pos[1, 0, 0] - pos[0, 0, 0]) - 0.02) < 1e-15


def test_hall_array_noiseless_matches_dipole():
    pose = Pose([0.01, -0.02, -0.08], [0.2, 0.1, -0.3])
    dip = sk.DipoleParams(moment_magnitude=2.5e-3, moment_axis=(1, 0, 0))
    reading = sk.sample_hall_array(
        pose, dip, zero_actuator(), t=0.5, noise_sd=0.0, rng=np.random.default_rng(0)
    )
    assert reading.values.shape == (8, 8)
    pos = sk.sensor_positions()
    for i in (0, 3, 7):
        for j in (0, 4, 7):
            Bz = sk.dipole_field(pose, dip, pos[i, j])[2]
            assert abs(reading.values[i, j] - Bz) < 1e-18


def test_mag_stream_matches_per_frame_sampling():
    # One batched field over all frames equals sample_hall_array frame by
    # frame, noise included; some Euler angles lie outside (-pi, pi], which
    # Pose wraps.
    rng = np.random.default_rng(8)
    n = 40
    poses = np.column_stack([
        rng.uniform(-0.03, 0.03, (n, 2)), rng.uniform(-0.1, -0.05, n),
        rng.uniform(-7.0, 7.0, (n, 3)),
    ])
    gt = Trajectory(np.arange(n) / 50.0, poses)
    cfg = sk.SimConfig(actuator_uniform=(1e-4, -2e-4, 3e-4),
                       actuator_gradient=(1e-3, 2e-3, -3e-3))
    dip = sk.DipoleParams(moment_magnitude=2.5e-3, moment_axis=(0, 1, 0))
    act = sk.ActuatorFieldModel.from_config(cfg)
    got = sk.simulate_mag_stream(gt, cfg, dip, np.random.default_rng(3))
    ref_rng = np.random.default_rng(3)
    for k, reading in enumerate(got):
        ref = sk.sample_hall_array(
            Pose(poses[k, :3], poses[k, 3:]), dip, act, gt.times[k], cfg.mag_noise_sd, ref_rng
        )
        assert reading.timestamp == ref.timestamp
        assert np.array_equal(reading.values, ref.values)
    poses[17, :3] = sk.sensor_positions()[2, 5] + [0.0, 0.0, -5e-4]
    with pytest.raises(ValueError):
        sk.simulate_mag_stream(gt, cfg, dip, np.random.default_rng(3))


def test_hall_array_actuator_only():
    pose = Pose([0, 0, -0.08], [0, 0, 0])
    dip = sk.DipoleParams(moment_magnitude=1e-12, moment_axis=(0, 0, 1))
    act = sk.ActuatorFieldModel(uniform=(0.0, 0.0, 3e-4), gradient=(0.0, 0.0, 0.0))
    reading = sk.sample_hall_array(
        pose, dip, act, t=0.0, noise_sd=0.0, rng=np.random.default_rng(0)
    )
    # Dipole contribution at 8 cm with 1e-12 A.m^2 is ~1e-16 T.
    assert np.allclose(reading.values, 3e-4, atol=1e-15)


def test_hall_array_superposition():
    dip_a = sk.DipoleParams(moment_magnitude=1e-3, moment_axis=(1, 0, 0))
    dip_b = sk.DipoleParams(moment_magnitude=2e-3, moment_axis=(0, 0, 1))
    dip_sum = sk.DipoleParams(moment_magnitude=1.0, moment_axis=(1, 0, 0))
    pose = Pose([0.02, 0.0, -0.07], [0, 0, 0])
    act = zero_actuator()
    rng = np.random.default_rng(0)
    ra = sk.sample_hall_array(pose, dip_a, act, 0.0, 0.0, rng).values
    rb = sk.sample_hall_array(pose, dip_b, act, 0.0, 0.0, rng).values
    pos = sk.sensor_positions()
    combined = np.empty((8, 8))
    for i in range(8):
        for j in range(8):
            combined[i, j] = (
                sk.dipole_field(pose, dip_a, pos[i, j])[2]
                + sk.dipole_field(pose, dip_b, pos[i, j])[2]
            )
    assert np.allclose(ra + rb, combined, atol=1e-20)


def test_hall_array_noise_statistics():
    pose = Pose([0, 0, -0.08], [0, 0, 0])
    dip = sk.DipoleParams(moment_magnitude=2.5e-3, moment_axis=(1, 0, 0))
    act = zero_actuator()
    rng = np.random.default_rng(10)
    samples = np.array(
        [
            sk.sample_hall_array(pose, dip, act, 0.0, 1e-6, rng).values[3, 3]
            for _ in range(10_000)
        ]
    )
    assert abs(samples.std(ddof=1) - 1e-6) / 1e-6 < 0.05


def test_evo_zero_noise_integrates_to_gt():
    cfg = sk.SimConfig(
        duration=4.0,
        seed=5,
        vis_trans_noise_sd=0.0,
        vis_rot_noise_sd=0.0,
        vis_drift_rate=0.0,
        vis_rot_drift_rate=0.0,
        vis_trans_bias_rate=0.0, vis_rot_bias_rate=0.0,
    )
    gt = sk.generate_trajectory(cfg)
    vis = sk.emulate_evo_stream(gt, cfg, np.random.default_rng(0))
    pose = gt.pose(0).as_vector()
    qs = np.minimum([m.timestamp for m in vis], gt.times[-1])
    on_gt = resample_trajectory(gt, qs)
    for m, true_pose in zip(vis, on_gt.poses):
        pose = apply_relative(pose, m.delta.as_vector())
        assert np.linalg.norm(pose[:3] - true_pose[:3]) < 1e-9
        assert np.allclose(pose[3:], true_pose[3:], atol=1e-9)


def test_evo_count_10s_25hz():
    cfg = sk.SimConfig(duration=10.0, seed=6)
    gt = sk.generate_trajectory(cfg)
    vis = sk.emulate_evo_stream(gt, cfg, np.random.default_rng(1))
    assert len(vis) == 250
    assert np.allclose([m.timestamp for m in vis], np.arange(1, 251) / 25.0)


def test_evo_pure_drift_grows_with_path_length():
    cfg = sk.SimConfig(
        duration=20.0,
        seed=7,
        vis_trans_noise_sd=0.0,
        vis_rot_noise_sd=0.0,
        vis_drift_rate=0.05,
        vis_rot_drift_rate=0.0,
        vis_trans_bias_rate=0.0, vis_rot_bias_rate=0.0,
    )
    gt = sk.generate_trajectory(cfg)
    vis = sk.emulate_evo_stream(gt, cfg, np.random.default_rng(2))
    pose = gt.pose(0).as_vector()
    errs, lengths = [], []
    qs = np.minimum([m.timestamp for m in vis], gt.times[-1])
    on_gt = resample_trajectory(gt, qs)
    arc = 0.0
    prev = gt.poses[0][:3]
    for m, true_pose in zip(vis, on_gt.poses):
        pose = apply_relative(pose, m.delta.as_vector())
        arc += np.linalg.norm(true_pose[:3] - prev)
        prev = true_pose[:3]
        errs.append(np.linalg.norm(pose[:3] - true_pose[:3]))
        lengths.append(arc)
    errs, lengths = np.array(errs), np.array(lengths)
    # Drift error accumulates roughly in proportion to distance traveled.
    half = len(errs) // 2
    assert errs[-1] > errs[half] > errs[half // 2] > 0
    ratio = errs[-1] / lengths[-1]
    assert 0.005 < ratio < 0.15


def test_stream_rate_contract():
    cfg = sk.SimConfig(duration=2.0, seed=8)
    ds = sk.simulate_dataset(cfg)
    mts = np.array([m.timestamp for m in ds.mag])
    vts = np.array([v.timestamp for v in ds.vis])
    assert np.allclose(mts, np.arange(len(mts)) / cfg.mag_rate)
    assert np.allclose(vts, np.arange(1, len(vts) + 1) / cfg.vis_rate)
    prev = vts[0] - 1.0 / cfg.vis_rate
    for t in vts[:-1]:
        inside = np.sum((mts > prev + 1e-12) & (mts <= t + 1e-12))
        assert inside == cfg.rate_ratio
        prev = t


def test_dataset_roundtrip_byte_identical(tmp_path):
    cfg = sk.SimConfig(duration=1.0, seed=9)
    ds = sk.simulate_dataset(cfg)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    sk.write_dataset(p1, ds)
    back = sk.read_dataset(p1)
    sk.write_dataset(p2, back)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(back.gt.poses, ds.gt.poses)
    assert len(back.mag) == len(ds.mag)
    assert np.array_equal(back.mag[7].values, ds.mag[7].values)
    assert len(back.vis) == len(ds.vis)
    assert np.array_equal(back.vis[3].delta.as_vector(), ds.vis[3].delta.as_vector())


def test_dataset_empty_mag_stream(tmp_path):
    cfg = sk.SimConfig(duration=1.0, seed=10)
    ds = sk.simulate_dataset(cfg)
    empty = sk.Dataset(config=ds.config, dipole=ds.dipole, gt=ds.gt, mag=[], vis=ds.vis)
    path = tmp_path / "empty_mag.txt"
    sk.write_dataset(path, empty)
    back = sk.read_dataset(path)
    assert back.mag == []
    assert len(back.vis) == len(ds.vis)


def test_dataset_without_gt_records_is_named(tmp_path):
    # Magnetic and visual records alone give no trajectory to read.
    ds = sk.simulate_dataset(sk.SimConfig(duration=1.0, seed=10))
    path = tmp_path / "no_gt.txt"
    sk.write_dataset(path, ds)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(l for l in lines if not l.startswith("GT ")) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: dataset has no GT record$"):
        sk.read_dataset(path)


@pytest.mark.parametrize("kind, fields", [("GT", 7), ("MAG", 65), ("VIS", 7)])
def test_dataset_truncated_file_reports_line(tmp_path, kind, fields):
    cfg = sk.SimConfig(duration=1.0, seed=11)
    ds = sk.simulate_dataset(cfg)
    path = tmp_path / "trunc.txt"
    sk.write_dataset(path, ds)
    lines = path.read_text().splitlines()
    # Chop the first record of the kind down to its kind and four values.
    idx = next(i for i, l in enumerate(lines) if l.startswith(kind + " "))
    lines[idx] = " ".join(lines[idx].split()[:5])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError,
                       match=rf"trunc\.txt:{idx + 1}: {kind} record needs {fields} fields$"):
        sk.read_dataset(path)


_HEADER_ERROR = "1: expected a '# capsloc-dataset v1' header, got "


@pytest.mark.parametrize("edit, message", [
    (lambda ls: ls[:-1] + ["IMU" + ls[-1][3:]], "{n}: unknown record kind 'IMU'"),
    (lambda ls: [ls[0].replace("v1", "v9", 1)] + ls[1:], _HEADER_ERROR + "'# capsloc-dataset v9'"),
    (lambda ls: [""] + ls[1:], _HEADER_ERROR + "''"),
    # Line 1 must be the header: one that follows the records is refused,
    # and so is v10, whose name starts with v1's.
    (lambda ls: ls[1:] + ls[:1], _HEADER_ERROR + "{first!r}"),
    (lambda ls: [ls[0].replace("v1", "v10", 1)] + ls[1:], _HEADER_ERROR + "'# capsloc-dataset v10'"),
], ids=["unknown-kind", "unrecognized-header", "missing-header", "late-header", "v10-header"])
def test_dataset_bad_header_or_record_kind_reports_line(tmp_path, edit, message):
    path = tmp_path / "ds.txt"
    sk.write_dataset(path, sk.simulate_dataset(sk.SimConfig(duration=1.0, seed=12)))
    lines = edit(path.read_text().splitlines())
    path.write_text("\n".join(lines) + "\n")
    message = message.format(n=len(lines), first=" ".join(lines[0].split()[:3]))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:{message}')}$"):
        sk.read_dataset(path)


@pytest.mark.parametrize("kind", ["GT", "MAG", "VIS"])
@pytest.mark.parametrize("field, value", [(1, "nan"), (3, "inf"), (0, "-inf")])
def test_dataset_non_finite_record_reports_line(tmp_path, kind, field, value):
    # field 0 is the timestamp; the others are pose or reading values.
    path = tmp_path / "ds.txt"
    sk.write_dataset(path, sk.simulate_dataset(sk.SimConfig(duration=1.0, seed=12)))
    lines = path.read_text().splitlines()
    idx = next(i for i, l in enumerate(lines) if l.startswith(kind + " "))
    tokens = lines[idx].split()
    tokens[1 + field] = value
    lines[idx] = " ".join(tokens)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"ds\.txt:{idx + 1}: {kind} record has a non-finite"):
        sk.read_dataset(path)


@pytest.mark.parametrize("kind", ["GT", "MAG", "VIS"])
def test_dataset_out_of_order_record_reports_line(tmp_path, kind):
    # With the first two records of a kind swapped, the second is earlier.
    path = tmp_path / "ds.txt"
    sk.write_dataset(path, sk.simulate_dataset(sk.SimConfig(duration=1.0, seed=12)))
    lines = path.read_text().splitlines()
    idx = next(i for i, l in enumerate(lines) if l.startswith(kind + " "))
    assert lines[idx + 1].startswith(kind + " ")
    lines[idx], lines[idx + 1] = lines[idx + 1], lines[idx]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"ds\.txt:{idx + 2}: {kind} record at t="):
        sk.read_dataset(path)


def test_dataset_header_roundtrips_every_config_field(tmp_path):
    cfg = sk.SimConfig(duration=1.0, seed=13, motion_profile="slow_incremental",
                       workspace_center=(0.01, -0.02, -0.07),
                       actuator_uniform=(1e-6, 0.0, 2.5e-6))
    dipole = sk.DipoleParams(0.01, (0.0, 0.6, 0.8))
    path = tmp_path / "ds.txt"
    sk.write_dataset(path, sk.simulate_dataset(cfg, dipole))
    back = sk.read_dataset(path)
    assert back.config == cfg
    assert back.dipole == dipole


def _edit_header(path, edit):
    lines = path.read_text().splitlines()
    lines[0] = edit(lines[0])
    path.write_text("\n".join(lines) + "\n")


def test_dataset_header_missing_key_is_named(tmp_path):
    path = tmp_path / "ds.txt"
    sk.write_dataset(path, sk.simulate_dataset(sk.SimConfig(duration=1.0, seed=14)))
    _edit_header(path, lambda h: " ".join(
        tok for tok in h.split() if not tok.startswith("duration=")))
    with pytest.raises(ValueError, match=r"ds\.txt:1: missing config key 'duration'"):
        sk.read_dataset(path)


def test_dataset_header_unknown_key_is_rejected(tmp_path):
    path = tmp_path / "ds.txt"
    sk.write_dataset(path, sk.simulate_dataset(sk.SimConfig(duration=1.0, seed=15)))
    _edit_header(path, lambda h: h + " bogus=1")
    with pytest.raises(ValueError, match=r"ds\.txt:1: unknown config key 'bogus'"):
        sk.read_dataset(path)


def test_dataset_header_token_without_equals_is_named(tmp_path):
    path = tmp_path / "ds.txt"
    sk.write_dataset(path, sk.simulate_dataset(sk.SimConfig(duration=1.0, seed=15)))
    _edit_header(path, lambda h: h.replace("duration=", "duration "))
    with pytest.raises(ValueError, match=r"ds\.txt:1: expected key=value, got 'duration'$"):
        sk.read_dataset(path)


def test_simulate_dataset_deterministic():
    cfg = sk.SimConfig(duration=1.0, seed=12)
    a = sk.simulate_dataset(cfg)
    b = sk.simulate_dataset(cfg)
    assert np.array_equal(a.gt.poses, b.gt.poses)
    assert all(
        np.array_equal(x.values, y.values) for x, y in zip(a.mag, b.mag)
    )
    assert all(
        np.array_equal(x.delta.as_vector(), y.delta.as_vector())
        for x, y in zip(a.vis, b.vis)
    )


def test_config_validation():
    with pytest.raises(ValueError):
        sk.SimConfig(duration=0.0, seed=0)
    # nan passes every `<= 0` check, and inf overflows the frame count.
    for kwargs, message in [
        (dict(duration=np.inf), "duration must be finite, got inf"),
        (dict(duration=np.nan), "duration must be finite, got nan"),
        (dict(jitter_scale=np.nan), "jitter_scale must be finite, got nan"),
        (dict(workspace_center=(0.0, np.nan, -0.08)),
         "workspace_center must be finite, got (0.0, nan, -0.08)"),
        (dict(actuator_gradient=(0.0, 0.0, -np.inf)),
         "actuator_gradient must be finite, got (0.0, 0.0, -inf)"),
        (dict(mag_noise_sd=-1e-7), "mag_noise_sd must be >= 0, got -1e-07"),
        (dict(vis_rot_noise_sd=-0.5), "vis_rot_noise_sd must be >= 0, got -0.5"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sk.SimConfig(**kwargs)
    for kwargs, message in [
        (dict(moment_magnitude=np.nan), "moment_magnitude must be finite, got nan"),
        (dict(moment_axis=(np.nan, 0.0, 0.0)), "moment_axis must be finite, got (nan, 0.0, 0.0)"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sk.DipoleParams(**kwargs)
    with pytest.raises(ValueError):
        sk.SimConfig(duration=1.0, seed=0, mag_rate=50, vis_rate=30)
    # At a rate ratio of 1 the last two visual frames would share one
    # ground-truth time.
    for kwargs in (dict(mag_rate=25.0), dict(mag_rate=30.0, vis_rate=30.0)):
        message = (f"mag_rate {kwargs['mag_rate']!r} Hz must be at least twice vis_rate "
                   f"{kwargs.get('vis_rate', 25.0)!r} Hz: the ground truth ends one magnetic "
                   "period before the last visual frame")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sk.SimConfig(duration=1.0, **kwargs)
    with pytest.raises(ValueError):
        sk.SimConfig(duration=1.0, seed=0, motion_profile="sprint")
