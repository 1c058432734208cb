import numpy as np
import pytest

from capsloc import evalbench as eb
from capsloc.geometry import (
    Pose,
    Trajectory,
    apply_relative,
    euler_to_matrix,
    matrix_to_euler,
    pose_error,
    relative_pose,
    resample_trajectory,
    wrap_angle,
)
from capsloc.magloc import MagMeasurement5DoF
from capsloc.simkit import VisMeasurement


def straight_line_traj(n=301, speed=0.05, dt=0.02):
    """Constant-velocity straight line along +x (0.3 m over 6 s by default)."""
    times = np.arange(n) * dt
    poses = np.zeros((n, 6))
    poses[:, 0] = speed * times
    return Trajectory(times, poses)


def test_perfect_estimate_zero_rmse():
    gt = straight_line_traj()
    out = eb.rmse_by_length(gt, gt, (0.05, 0.1))
    for L, val in out.items():
        tr, rr = val
        assert tr < 1e-12 and rr < 1e-12


def test_constant_shift_absorbed_by_start_alignment():
    gt = straight_line_traj()
    shifted = Trajectory(gt.times, gt.poses + np.array([0.3, -0.2, 0.1, 0, 0, 0]))
    out = eb.rmse_by_length(shifted, gt, (0.05, 0.1))
    for tr, rr in out.values():
        assert tr < 1e-12 and rr < 1e-12


def test_scale_drift_rmse_proportional_to_length():
    # Estimate with a scale bias b on a straight line: segment endpoint error
    # is exactly b * L for every start, so RMSE(L) = b * L.
    b = 0.02
    gt = straight_line_traj()
    est = Trajectory(gt.times, gt.poses * np.array([1 + b, 1, 1, 1, 1, 1]))
    out = eb.rmse_by_length(est, gt, (0.05, 0.1, 0.2))
    for L, (tr, rr) in out.items():
        assert abs(tr - b * L) / (b * L) < 0.05
        assert rr < 1e-12


def test_rigid_transform_invariance():
    # Moving both trajectories by the same world-frame rigid transform must
    # leave the relative segment errors unchanged.
    rng = np.random.default_rng(0)
    gt = straight_line_traj(n=101)
    noise = rng.normal(0, 1e-3, gt.poses.shape)
    est = Trajectory(gt.times, gt.poses + noise)

    T = np.array([0.2, -0.1, 0.3, 0.4, -0.5, 0.6])

    def moved(traj):
        return Trajectory(traj.times, apply_relative(T, traj.poses))

    # Bucket lengths not commensurate with the 1 mm step, so the arc-length
    # crossing never lands exactly on a knot (a knot tie could resolve
    # differently after the transform's last-bit rounding).
    base = eb.rmse_by_length(est, gt, (0.0213, 0.0517))
    mov = eb.rmse_by_length(moved(est), moved(gt), (0.0213, 0.0517))
    for L in base:
        assert np.allclose(base[L], mov[L], rtol=1e-8, atol=1e-12)


def test_empty_bucket_returns_none():
    gt = straight_line_traj(n=21)  # total arc 0.004 m
    out = eb.rmse_by_length(gt, gt, (0.05,))
    assert out[0.05] is None


def test_segment_count_matches_crossings():
    gt = straight_line_traj(n=101, speed=0.01, dt=0.02)  # 0.0002 m per step
    buckets = eb.segment_errors(gt, gt, (0.01,))
    # L = 0.01 m needs 50 steps; starts 0..50 have an endpoint in range.
    assert len(buckets[0.01]) == 51


def test_segment_errors_match_per_segment_oracle():
    # A noisy random walk whose yaw crosses the +/-pi seam, estimated at
    # other timestamps; the oracle scores one segment at a time with
    # single-pose toolkit calls, in the order of the pose algebra.
    rng = np.random.default_rng(11)
    times = np.arange(300) * 0.02
    steps = np.concatenate(
        [rng.normal(0, 1e-3, (300, 3)), rng.normal(0, 0.02, (300, 3))], axis=1
    )
    poses = np.cumsum(steps, axis=0) + np.array([0, 0, -0.08, 0.1, -0.2, 3.0])
    poses[:, 3:] = wrap_angle(poses[:, 3:])
    gt = Trajectory(times, poses)
    est_times = times[1:-1:2] + 0.007
    on_gt = resample_trajectory(gt, est_times).poses
    est = Trajectory(est_times, on_gt + rng.normal(0, 1e-3, on_gt.shape))
    arc = Trajectory(est_times, on_gt).arc_length()
    buckets = (0.005, 0.012, 0.03)
    got = eb.segment_errors(est, gt, buckets)
    n = len(est)
    for L in buckets:
        expected = []
        for s in range(n):
            e = next((e for e in range(s, n) if arc[e] >= arc[s] + L), None)
            if e is None:
                continue
            a, b, g = est.poses[s], est.poses[e], on_gt[s]
            Ra, Rb, Rg = (euler_to_matrix(wrap_angle(p[3:])) for p in (a, b, g))
            R_rel = Ra.T @ Rb
            t_rel = Ra.T @ b[:3] + (-Ra.T) @ a[:3]
            predicted = np.concatenate([Rg @ t_rel + g[:3], matrix_to_euler(Rg @ R_rel)])
            expected.append(pose_error(predicted, on_gt[e]))
        assert len(expected) > 20
        assert np.array_equal(got[L], np.array(expected))


def test_evo_only_baseline_integrates_deltas():
    deltas = [np.array([0.001 * k, 0.0, 0.0, 0.0, 0.0, 0.01]) for k in range(1, 6)]
    vis = [VisMeasurement(0.04 * k, Pose(d[:3], d[3:])) for k, d in enumerate(deltas, 1)]
    start = Pose([0.1, 0.0, -0.08], [0.0, 0.0, 0.0])
    traj = eb.evo_only_baseline(vis, start)
    pose = start.as_vector()
    for k, d in enumerate(deltas):
        pose = apply_relative(pose, d)
        assert np.allclose(traj.poses[k], pose, atol=1e-12)


def test_magnetic_only_baseline_positions_passthrough():
    rng = np.random.default_rng(1)
    mag = []
    for k in range(10):
        pos = rng.normal(0, 0.02, 3)
        h = rng.normal(0, 1, 3)
        h /= np.linalg.norm(h)
        mag.append(MagMeasurement5DoF(k * 0.02, pos, h, True, 0.0, 1))
    start = Pose([0, 0, -0.08], [0.1, 0.2, 0.3])
    traj = eb.magnetic_only_baseline(mag, start, (1.0, 0.0, 0.0))
    for k, m in enumerate(mag):
        assert np.allclose(traj.poses[k][:3], m.position, atol=1e-12)
        # Completed attitude must map the dipole axis onto the heading.
        R = euler_to_matrix(traj.poses[k][3:])
        assert np.allclose(R @ np.array([1.0, 0, 0]), m.heading, atol=1e-10)


def test_magnetic_only_hold_initial_identity_when_heading_fixed():
    start = Pose([0, 0, -0.08], [0.3, -0.2, 0.5])
    R0 = euler_to_matrix(start.r)
    h0 = R0 @ np.array([1.0, 0.0, 0.0])
    mag = [MagMeasurement5DoF(k * 0.02, np.zeros(3), h0, True, 0.0, 1) for k in range(5)]
    traj = eb.magnetic_only_baseline(mag, start, (1.0, 0.0, 0.0))
    for k in range(5):
        assert np.allclose(traj.poses[k][3:], start.r, atol=1e-10)


def test_magnetic_only_empty_or_bad_rule():
    start = Pose([0, 0, 0], [0, 0, 0])
    with pytest.raises(ValueError):
        eb.magnetic_only_baseline([], start, (1.0, 0.0, 0.0))


def test_pooled_rmse_oracle():
    # Pooling two datasets must equal the RMSE over the concatenated segment
    # errors, not the mean of per-dataset RMSEs.
    rng = np.random.default_rng(2)
    L = (0.02,)
    sets = []
    pooled = []
    for n, sd in ((101, 1e-3), (61, 3e-3)):
        gt = straight_line_traj(n=n)
        vis = []
        for k in range(1, n):
            noisy = relative_pose(gt.poses[k - 1], gt.poses[k])
            noisy = Pose(noisy[:3] + rng.normal(0, sd, 3), noisy[3:] + rng.normal(0, sd, 3))
            vis.append(VisMeasurement(gt.times[k], noisy))
        mag = [MagMeasurement5DoF(t, p[:3] + rng.normal(0, sd, 3),
                                  np.array([1.0, 0, 0]), True, 0.0, 1)
               for t, p in zip(gt.times, gt.poses)]
        sets.append({"gt": gt, "vis": vis, "mag_estimates": mag,
                     "dipole_axis": (1.0, 0.0, 0.0)})
        evo = eb.evo_only_baseline(vis, gt.pose(0))
        pooled.extend(eb.segment_errors(evo, gt, L)[0.02])
    reports = eb.compare_methods(sets, None, bucket_lengths=L)
    evo_rep = next(r for r in reports if r.method == "evo_only")
    _, tr, rr, count = evo_rep.buckets[0]
    assert count == len(pooled)
    a = np.asarray(pooled)
    assert abs(tr - np.sqrt(np.mean(a[:, 0] ** 2))) < 1e-12
    assert abs(rr - np.sqrt(np.mean(a[:, 1] ** 2))) < 1e-12
    # A naive mean of per-dataset RMSEs differs, confirming the pooling rule
    # is observable with unequal noise levels.
    assert len({r.method for r in reports}) == 2


def test_compare_methods_requires_datasets():
    with pytest.raises(ValueError):
        eb.compare_methods([], None)


def test_rmse_report_validation():
    with pytest.raises(ValueError):
        eb.RmseReport("kalman", [(0.05, 0.0, 0.0, 1)])
    with pytest.raises(ValueError):
        eb.RmseReport("fusion", [(0.1, 0.0, 0.0, 1), (0.05, 0.0, 0.0, 1)])


def test_write_report_format(tmp_path):
    reports = [
        eb.RmseReport("evo_only", [(0.05, 0.001, 0.01, 42), (0.1, None, None, 0)]),
        eb.RmseReport("magnetic_only", [(0.05, 0.002, 0.02, 42), (0.1, 0.0021, 0.019, 7)]),
    ]
    path = tmp_path / "report.txt"
    eb.write_report(path, reports, header_lines=("seed=3",))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# protocol=")
    assert "# seed=3" in lines
    data = [l for l in lines if not l.startswith("#")]
    assert len(data) == 4
    for line in data:
        L, method, tr, rr, n = line.split()
        float(L)
        assert method in ("fusion", "evo_only", "magnetic_only")
        float(tr)  # nan parses too
        float(rr)
        int(n)
    # Full-precision round trip of a representative value.
    first = data[0].split()
    assert float(first[2]) == 0.001


def test_default_buckets():
    assert eb.DEFAULT_BUCKETS == (0.05, 0.1, 0.2, 0.4, 0.8)
