from dataclasses import replace

import numpy as np
import pytest

from capsloc import magloc as ml
from capsloc import simkit as sk
from capsloc.geometry import Pose, euler_to_matrix

ZERO_ACT = sk.ActuatorFieldModel(uniform=(0.0, 0.0, 0.0), gradient=(0.0, 0.0, 0.0))
DESK_DIPOLE = sk.DipoleParams(moment_magnitude=2.5e-3, moment_axis=(1, 0, 0))
# The simulator's default workspace: (centre, half-extent).
_SIM = sk.SimConfig()
WORKSPACE = (_SIM.workspace_center, _SIM.workspace_half_extent)


def make_reading(pose, dipole, actuator=ZERO_ACT, noise_sd=0.0, seed=0, t=0.0):
    return sk.sample_hall_array(
        pose, dipole, actuator, t, noise_sd, np.random.default_rng(seed)
    )


def truth_heading(pose, dipole):
    return euler_to_matrix(pose.r) @ np.asarray(dipole.moment_axis, dtype=float)


def init_from(pose, dipole, dpos=(0, 0, 0), dr=(0, 0, 0)):
    h = euler_to_matrix(np.asarray(dr)) @ truth_heading(pose, dipole)
    return ml.MagMeasurement5DoF(
        timestamp=0.0,
        position=np.asarray(pose.t) + np.asarray(dpos, dtype=float),
        heading=h / np.linalg.norm(h),
        converged=True,
        residual=0.0,
        iterations=0,
    )


def converged_estimate(reading, actuator, dipole, init):
    """estimate_pose_5dof, whose fit must converge."""
    est = ml.estimate_pose_5dof(reading, actuator, dipole, init)
    assert est.converged
    return est


def test_measurement_heading_validation():
    with pytest.raises(ValueError):
        ml.MagMeasurement5DoF(0.0, np.zeros(3), np.array([1.0, 1.0, 0.0]), True, 0.0, 0)
    for bad in ([np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [1.0, np.nan, np.nan]):
        with pytest.raises(ValueError, match="heading"):
            ml.MagMeasurement5DoF(0.0, np.zeros(3), bad)
    for bad in ([np.nan, 0.0, 0.0], [0.0, -np.inf, 0.0]):
        with pytest.raises(ValueError, match="position"):
            ml.MagMeasurement5DoF(0.0, bad, [0.0, 0.0, 1.0])


def test_subtract_actuator_zero_field_identity():
    pose = Pose([0.01, 0.0, -0.07], [0.1, 0.2, 0.3])
    reading = make_reading(pose, DESK_DIPOLE)
    out = ml.subtract_actuator_field(reading, ZERO_ACT)
    assert np.array_equal(out.values, reading.values)
    assert out.timestamp == reading.timestamp


def test_subtract_actuator_removes_actuator_exactly():
    pose = Pose([0.0, 0.02, -0.08], [0.0, 0.3, -0.2])
    act = sk.ActuatorFieldModel(uniform=(1e-4, -2e-4, 3e-4), gradient=(1e-3, 2e-3, -3e-3))
    with_act = make_reading(pose, DESK_DIPOLE, actuator=act)
    pure = make_reading(pose, DESK_DIPOLE, actuator=ZERO_ACT)
    out = ml.subtract_actuator_field(with_act, act)
    assert np.allclose(out.values, pure.values, atol=1e-15)


def test_subtract_actuator_zero_dipole_residual_zero():
    pose = Pose([0.0, 0.0, -0.08], [0, 0, 0])
    tiny = sk.DipoleParams(moment_magnitude=1e-15, moment_axis=(0, 0, 1))
    act = sk.ActuatorFieldModel(uniform=(0.0, 0.0, 2e-4), gradient=(0.0, 1e-3, 0.0))
    reading = make_reading(pose, tiny, actuator=act)
    out = ml.subtract_actuator_field(reading, act)
    assert np.max(np.abs(out.values)) < 1e-15


def test_second_difference_constant_zero():
    out = ml.directional_second_difference(np.full((8, 8), 3.7))
    assert np.allclose(out, 0.0, atol=1e-18)


def test_second_difference_affine_zero():
    i, j = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    out = ml.directional_second_difference(2.0 * i - 3.0 * j + 1.0)
    assert np.allclose(out, 0.0, atol=1e-12)


def test_second_difference_quadratic_rows():
    i, _ = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    out = ml.directional_second_difference(i.astype(float) ** 2)
    # Interior: row-direction second difference of i^2 is exactly 2.
    assert np.allclose(out[1:-1, 1:-1], 2.0, atol=1e-12)


def test_heading_unobservability():
    # Spinning the capsule about its own dipole axis leaves the field fixed.
    dipole = sk.DipoleParams(moment_magnitude=2.5e-3, moment_axis=(1, 0, 0))
    base = Pose([0.01, -0.01, -0.07], [0.0, 0.4, 0.2])
    r0 = make_reading(base, dipole).values
    for spin in (0.3, 1.0, 2.5):
        # moment_axis = x, so a body-frame roll is a spin about the axis.
        R_spun = euler_to_matrix(base.r) @ euler_to_matrix([spin, 0.0, 0.0])
        from capsloc.geometry import matrix_to_euler

        spun = Pose(base.t, matrix_to_euler(R_spun))
        r1 = make_reading(spun, dipole).values
        assert np.max(np.abs(r1 - r0)) < 1e-15


def test_estimate_truth_init_noiseless():
    pose = Pose([0.015, -0.02, -0.065], [0.3, -0.2, 0.5])
    reading = make_reading(pose, DESK_DIPOLE)
    est = converged_estimate(reading, ZERO_ACT, DESK_DIPOLE, init_from(pose, DESK_DIPOLE))
    assert np.linalg.norm(est.position - pose.t) < 1e-9
    assert est.residual < 1e-18
    assert est.converged


def test_estimate_perturbed_init_noiseless():
    pose = Pose([0.01, 0.02, -0.07], [0.2, 0.3, -0.4])
    reading = make_reading(pose, DESK_DIPOLE)
    init = init_from(pose, DESK_DIPOLE, dpos=(0.013, -0.01, 0.011), dr=(0.0, 0.25, 0.25))
    est = converged_estimate(reading, ZERO_ACT, DESK_DIPOLE, init)
    assert np.linalg.norm(est.position - pose.t) < 1e-6
    h_true = truth_heading(pose, DESK_DIPOLE)
    ang = np.arccos(np.clip(np.dot(est.heading, h_true), -1, 1))
    assert ang < 1e-5


def test_estimate_residual_not_worse_than_init():
    rng = np.random.default_rng(3)
    for seed in range(10):
        pose = Pose(
            np.array([*rng.uniform(-0.03, 0.03, 2), rng.uniform(-0.09, -0.05)]),
            rng.uniform(-0.4, 0.4, 3),
        )
        reading = make_reading(pose, DESK_DIPOLE, noise_sd=5e-7, seed=seed)
        init = init_from(pose, DESK_DIPOLE, dpos=rng.normal(0, 0.005, 3))
        target = ml.subtract_actuator_field(reading, ZERO_ACT).values.ravel()
        r0 = ml.predict_normal_components(init.position, init.heading, DESK_DIPOLE) - target
        cost0 = float(r0 @ r0)
        est = converged_estimate(reading, ZERO_ACT, DESK_DIPOLE, init)
        assert est.residual**2 <= cost0 + 1e-30


def test_estimate_noisy_monte_carlo():
    # Oracle run (500 seeded frames, 6 cm standoff, realistic 0.05 A.m^2
    # magnet, 5e-7 T noise) recorded p95 = 0.88 mm, max = 1.3 mm.
    dipole = sk.DipoleParams(moment_magnitude=0.05, moment_axis=(1, 0, 0))
    errs = []
    for seed in range(60):
        rng = np.random.default_rng(np.random.SeedSequence([777, seed]))
        pos = rng.uniform(-0.04, 0.04, 3)
        pos[2] = -0.06
        r = rng.uniform(-0.5, 0.5, 3)
        pose = Pose(pos, r)
        reading = sk.sample_hall_array(pose, dipole, ZERO_ACT, 0.0, 5e-7, rng)
        init = ml.MagMeasurement5DoF(
            0.0, pos + rng.normal(0, 0.002, 3), truth_heading(pose, dipole), True, 0.0, 0
        )
        est = converged_estimate(reading, ZERO_ACT, dipole, init)
        errs.append(np.linalg.norm(est.position - pos))
    assert np.mean(np.asarray(errs) < 0.002) >= 0.95


def test_scale_consistency():
    pose = Pose([0.005, 0.01, -0.075], [0.1, -0.3, 0.2])
    results = []
    for scale in (1.0, 2.0):
        dip = sk.DipoleParams(
            moment_magnitude=scale * DESK_DIPOLE.moment_magnitude,
            moment_axis=DESK_DIPOLE.moment_axis,
        )
        reading = make_reading(pose, dip)
        init = init_from(pose, dip, dpos=(0.005, -0.005, 0.004))
        results.append(converged_estimate(reading, ZERO_ACT, dip, init))
    assert np.allclose(results[0].position, results[1].position, atol=1e-9)
    assert np.allclose(results[0].heading, results[1].heading, atol=1e-9)


def test_grid_search_init_close_to_truth():
    pose = Pose([0.02, -0.03, -0.09], [0.0, 0.5, -0.7])
    reading = make_reading(pose, DESK_DIPOLE)
    init = ml.grid_search_init(reading, ZERO_ACT, DESK_DIPOLE, *WORKSPACE)
    est = converged_estimate(reading, ZERO_ACT, DESK_DIPOLE, init)
    assert np.linalg.norm(est.position - pose.t) < 1e-6


def test_localize_stream_empty():
    assert ml.localize_stream([], ZERO_ACT, DESK_DIPOLE, *WORKSPACE) == []


def test_localize_stream_single_frame_equals_grid_init_estimate():
    pose = Pose([0.01, 0.01, -0.08], [0.2, 0.1, 0.3])
    reading = make_reading(pose, DESK_DIPOLE)
    stream_out = ml.localize_stream([reading], ZERO_ACT, DESK_DIPOLE, *WORKSPACE)
    init = ml.grid_search_init(reading, ZERO_ACT, DESK_DIPOLE, *WORKSPACE)
    single = converged_estimate(reading, ZERO_ACT, DESK_DIPOLE, init)
    assert len(stream_out) == 1
    assert np.allclose(stream_out[0].position, single.position, atol=1e-12)
    assert np.allclose(stream_out[0].heading, single.heading, atol=1e-12)


def test_localize_stream_constant_pose_noiseless():
    pose = Pose([0.0, 0.015, -0.07], [0.1, -0.2, 0.4])
    readings = [make_reading(pose, DESK_DIPOLE, t=k / 50.0) for k in range(6)]
    out = ml.localize_stream(readings, ZERO_ACT, DESK_DIPOLE, *WORKSPACE)
    assert len(out) == 6
    for est in out:
        assert np.linalg.norm(est.position - pose.t) < 1e-6
        assert est.converged
    for est in out[1:]:
        assert est.iterations <= 3


def test_localize_stream_tracks_moving_capsule():
    cfg = sk.SimConfig(duration=2.0, seed=21, mag_noise_sd=0.0)
    ds = sk.simulate_dataset(cfg, DESK_DIPOLE)
    act = sk.ActuatorFieldModel.from_config(cfg)
    out = ml.localize_stream(
        ds.mag, act, DESK_DIPOLE, cfg.workspace_center, cfg.workspace_half_extent
    )
    assert len(out) == len(ds.mag)
    errs = [
        np.linalg.norm(est.position - gt_pose[:3])
        for est, gt_pose in zip(out, ds.gt.poses)
    ]
    assert max(errs) < 1e-5


def test_localize_stream_filter_beats_per_frame_fits_at_depth():
    # Stationary capsule at 10.5 cm depth with the default magnet and noise:
    # one frame fixes the position only to centimetres, so the streamed
    # (filtered) positions must beat per-frame fits, even ones started at
    # the true pose.
    dipole = sk.DipoleParams()
    pose = Pose([0.005, -0.01, -0.105], [0.0, 0.1, -0.2])
    readings = [
        make_reading(pose, dipole, noise_sd=5e-7, seed=k, t=k / 50.0)
        for k in range(30)
    ]
    streamed = ml.localize_stream(readings, ZERO_ACT, dipole, *WORKSPACE)
    truth = init_from(pose, dipole)
    per_frame = [ml.estimate_pose_5dof(r, ZERO_ACT, dipole, truth) for r in readings]

    def rms(ests):
        return np.sqrt(np.mean([np.sum((e.position - pose.t) ** 2) for e in ests]))

    assert rms(streamed) < 0.85 * rms(per_frame)


def test_localize_stream_keeps_per_frame_fields():
    # The filter replaces positions only: heading, residual, iterations and
    # the converged flag are each frame's own fit.
    dipole = sk.DipoleParams()
    pose = Pose([0.0, 0.01, -0.09], [0.0, -0.1, 0.2])
    readings = [
        make_reading(pose, dipole, noise_sd=5e-7, seed=100 + k, t=k / 50.0)
        for k in range(5)
    ]
    streamed = ml.localize_stream(readings, ZERO_ACT, dipole, *WORKSPACE)
    prev = ml.grid_search_init(readings[0], ZERO_ACT, dipole, *WORKSPACE)
    for reading, est in zip(readings, streamed):
        fit = converged_estimate(reading, ZERO_ACT, dipole, prev)
        assert np.array_equal(est.heading, fit.heading)
        assert est.residual == fit.residual
        assert est.iterations == fit.iterations
        assert est.converged
        prev = fit
    assert not np.array_equal(streamed[-1].position, prev.position)


def test_localize_stream_singular_covariance_only_predicts(monkeypatch):
    # A converged frame whose J^T J cannot be inverted keeps its own fit's
    # heading, residual, iterations and flag, but does not update the
    # filter: its position is the previous filtered one.
    dipole = sk.DipoleParams()
    pose = Pose([0.0, 0.01, -0.09], [0.0, -0.1, 0.2])
    readings = [
        make_reading(pose, dipole, noise_sd=5e-7, seed=100 + k, t=k / 50.0)
        for k in range(5)
    ]
    plain = ml.localize_stream(readings, ZERO_ACT, dipole, *WORKSPACE)
    fit_covariance, calls = ml._fit_covariance, []

    def singular_on_third_call(*args):
        calls.append(args)
        if len(calls) == 3:
            raise np.linalg.LinAlgError("singular matrix")
        return fit_covariance(*args)

    monkeypatch.setattr(ml, "_fit_covariance", singular_on_third_call)
    out = ml.localize_stream(readings, ZERO_ACT, dipole, *WORKSPACE)
    assert len(calls) == len(readings)
    for est, ref in zip(out, plain):
        assert np.array_equal(est.heading, ref.heading)
        assert (est.residual, est.iterations, est.converged) == (
            ref.residual, ref.iterations, True)
    assert np.array_equal(out[1].position, plain[1].position)
    assert np.array_equal(out[2].position, out[1].position)
    assert not np.array_equal(out[3].position, out[2].position)
    assert not np.array_equal(out[4].position, out[3].position)


def test_position_covariance_matches_per_frame_scatter():
    # sigma^2 (J^T J)^-1 predicts the scatter of repeated noisy fits.
    dipole = sk.DipoleParams()
    pose = Pose([0.01, 0.0, -0.07], [0.0, 0.2, 0.1])
    init = init_from(pose, dipole)
    errs, traces = [], []
    for seed in range(200, 240):
        reading = make_reading(pose, dipole, noise_sd=5e-7, seed=seed)
        est = converged_estimate(reading, ZERO_ACT, dipole, init)
        cov = ml.position_covariance(est, reading.values.ravel(), dipole)
        errs.append(np.sum((est.position - pose.t) ** 2))
        traces.append(np.trace(cov))
    assert 0.5 < np.mean(errs) / np.mean(traces) < 2.0


def test_localize_stream_outputs_own_their_positions():
    # A gated frame only advances the filter's prediction, so its position
    # equals the previous output's; the two must still be separate arrays.
    dipole = sk.DipoleParams()
    pose = Pose([0.0, 0.0, -0.08], [0.0, 0.1, 0.1])
    readings = [
        make_reading(pose, dipole, noise_sd=5e-7, seed=300 + k, t=k / 50.0)
        for k in range(14)
    ]
    spiked = readings[12].values.copy()
    spiked[3, 4] += 1e-4
    readings[12] = sk.HallArrayReading(readings[12].timestamp, spiked)
    streamed = ml.localize_stream(readings, ZERO_ACT, dipole, *WORKSPACE)
    assert not streamed[12].converged
    assert np.array_equal(streamed[12].position, streamed[11].position)
    streamed[12].position[0] += 1.0
    assert streamed[11].position[0] < 0.5


def _test_headings(rng, n):
    """n random unit headings, a third of them within 1e-3 rad of the +z
    pole and a third within 1e-3 rad of the -z pole."""
    hs = []
    for k in range(n):
        polar = rng.uniform(0.1, np.pi - 0.1)
        if k % 3 == 1:
            polar = rng.uniform(1e-4, 1e-3)
        elif k % 3 == 2:
            polar = np.pi - rng.uniform(1e-4, 1e-3)
        az = rng.uniform(-np.pi, np.pi)
        hs.append([np.sin(polar) * np.cos(az), np.sin(polar) * np.sin(az), np.cos(polar)])
    return np.array(hs)


def test_tangent_basis_orthonormal_and_retract_stays_unit():
    rng = np.random.default_rng(23)
    random = rng.normal(0.0, 1.0, (1000, 3))
    random /= np.linalg.norm(random, axis=1, keepdims=True)
    axes = np.array([
        [0, 0, 1], [0, 0, -1], [1, 0, 0], [1, 0, -0.0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
    ], dtype=float)
    for h in np.concatenate([axes, random]):
        B = ml._tangent_basis(h)
        frame = np.vstack([B, h])
        assert np.max(np.abs(frame @ frame.T - np.eye(3))) <= 1e-15, h
        for scale in (1e-8, 1e-3, 0.15, 3.0):
            moved = ml._retract(h, B, rng.normal(0.0, scale, 2))
            assert abs(np.linalg.norm(moved) - 1.0) <= 1e-15, (h, scale)


def _central_difference_jacobian(position, heading, dipole):
    # Steps of 1e-7 m and 1e-5 along the heading's tangent basis; the
    # retraction is even in the step, so the central difference has no
    # first-order error from it.
    basis = ml._tangent_basis(heading)
    J = np.empty((sk.SENSOR_GRID_N**2, 5))
    for i in range(3):
        dp = np.zeros(3)
        dp[i] = 1e-7
        J[:, i] = (
            ml.predict_normal_components(position + dp, heading, dipole)
            - ml.predict_normal_components(position - dp, heading, dipole)
        ) / 2e-7
    for i in range(2):
        ab = np.zeros(2)
        ab[i] = 1e-5
        J[:, 3 + i] = (
            ml.predict_normal_components(position, ml._retract(heading, basis, ab), dipole)
            - ml.predict_normal_components(position, ml._retract(heading, basis, -ab), dipole)
        ) / 2e-5
    return J


def test_jacobian_matches_central_differences():
    # Random poses, a third of them with the heading within 1e-3 rad of
    # each pole: the tangent step has no singular heading.
    dipole = sk.DipoleParams()
    rng = np.random.default_rng(11)
    for k, heading in enumerate(_test_headings(rng, 60)):
        position = np.array([*rng.uniform(-0.05, 0.05, 2), rng.uniform(-0.15, -0.03)])
        # The Jacobian Levenberg-Marquardt reads: rows 0-4 of its kernel.
        A, _ = ml._lm_rows(
            position, heading, ml._tangent_basis(heading), np.zeros(64),
            dipole.moment_magnitude,
        )
        J = A[:5].T
        J_fd = _central_difference_jacobian(position, heading, dipole)
        for col in range(5):
            err = np.linalg.norm(J[:, col] - J_fd[:, col])
            assert err < 1e-6 * np.linalg.norm(J_fd[:, col]), (k, col)


def _sd_length(v, W):
    """Length of the 5-DoF step v in standard deviations of the covariance
    sigma^2 (J^T J)^-1, read from W = _lm_rows(...)[1] with sigma^2 =
    r.r / (64 - 5)."""
    return np.sqrt(v @ W[:5, :5] @ v / (W[5, 5] / 59))


def test_fit_stops_within_step_tol_of_its_own_covariance(monkeypatch):
    # Noisy simulated frames, each fitted from its true pose moved by 2 mm
    # sd. At the returned pose the next Gauss-Newton step is under
    # _STEP_TOL standard deviations long (the stop is taken on the damped
    # step, but the damping has fallen to almost nothing by then), and the
    # estimate lies within 0.05 sd of the fit run to a 1e-6 tolerance.
    cfg = sk.SimConfig(duration=0.5, seed=5)
    ds = sk.simulate_dataset(cfg)
    act = sk.ActuatorFieldModel.from_config(cfg)
    axis = np.asarray(ds.dipole.moment_axis, dtype=float)
    rng = np.random.default_rng(3)
    for reading, pose in zip(ds.mag, ds.gt.poses):
        target = ml.subtract_actuator_field(reading, act).values.ravel()
        p0 = pose[:3] + rng.normal(0.0, 0.002, 3)
        h0 = euler_to_matrix(pose[3:]) @ axis
        p, h, _, W, _, ok = ml._levenberg_marquardt(p0, h0, target, ds.dipole)
        assert ok
        assert _sd_length(np.linalg.solve(W[:5, :5], -W[:5, 5]), W) <= ml._STEP_TOL
        with monkeypatch.context() as m:
            m.setattr(ml, "_STEP_TOL", 1e-6)
            p_tight, h_tight, _, W_tight, _, ok = ml._levenberg_marquardt(
                p0, h0, target, ds.dipole
            )
        assert ok
        gap = np.concatenate([p - p_tight, ml._tangent_basis(h_tight) @ (h - h_tight)])
        assert _sd_length(gap, W_tight) <= 0.05


def test_stream_fits_evaluate_the_model_about_five_times_a_frame(monkeypatch):
    # Stopping on the step rather than the cost decrease: 5.21 _lm_rows calls
    # a frame on this stream, against 8.82 with a 1e-9 relative cost
    # decrease test.
    calls = 0
    lm_rows = ml._lm_rows

    def counted(*args):
        nonlocal calls
        calls += 1
        return lm_rows(*args)

    monkeypatch.setattr(ml, "_lm_rows", counted)
    ds = sk.simulate_dataset(sk.SimConfig(duration=2.0, seed=5))
    out = ml.localize_dataset(ds)
    assert calls / len(out) < 6.0


def test_fit_started_at_heading_pole_converges():
    # At theta = pi, d b_z / d phi is zero and its Jacobian column is only
    # rounding noise; the fit must still reach the truth from there.
    dipole = sk.DipoleParams()
    rng = np.random.default_rng(5)
    pole = np.array([0.0, 0.0, -1.0])
    fits = 0
    while fits < 20:
        pose = Pose(
            [*rng.uniform(-0.03, 0.03, 2), rng.uniform(-0.09, -0.05)],
            rng.uniform(-np.pi, np.pi, 3),
        )
        if truth_heading(pose, dipole)[2] >= 0.0:
            continue
        reading = make_reading(pose, dipole)
        dpos = rng.normal(0.0, 1.0, 3)
        init = ml.MagMeasurement5DoF(
            0.0, pose.t + 0.005 * dpos / np.linalg.norm(dpos), pole
        )
        est = converged_estimate(reading, ZERO_ACT, dipole, init)
        assert np.linalg.norm(est.position - pose.t) < 1e-3, fits
        fits += 1


def test_fit_started_at_mirror_pose_lands_below_the_array():
    # The mirror pose (x, y, -z), heading (-h_x, -h_y, h_z), gives the same
    # b_z at every sensor; a fit started next to it is reflected back.
    pose = Pose([0.01, -0.02, -0.07], [0.2, 0.3, -0.4])
    reading = make_reading(pose, DESK_DIPOLE)
    h_true = truth_heading(pose, DESK_DIPOLE)
    init = ml.MagMeasurement5DoF(
        0.0, pose.t * [1.0, 1.0, -1.0] + [0.0, 0.001, 0.0], h_true * [-1.0, -1.0, 1.0]
    )
    est = converged_estimate(reading, ZERO_ACT, DESK_DIPOLE, init)
    assert np.linalg.norm(est.position - pose.t) < 1e-9
    assert np.arccos(np.clip(est.heading @ h_true, -1.0, 1.0)) < 1e-7
    # The J^T J the stream's filter reads is the one at the reflected pose.
    target = reading.values.ravel()
    est, _, W = ml._fit_5dof(target, 0.0, DESK_DIPOLE, init)
    h = est.heading
    _, W_at = ml._lm_rows(est.position, h, ml._tangent_basis(h), target,
                          DESK_DIPOLE.moment_magnitude)
    JtJ = W_at[:5, :5]
    assert np.max(np.abs(W[:5, :5] - JtJ)) <= 1e-9 * np.max(np.abs(JtJ))


def _grid_search_loop(target, dipole, center, half_extent):
    """Reference: every (position, heading) candidate in turn, the first
    strictly lowest cost kept."""
    c = np.asarray(center, dtype=float)
    xs = np.linspace(c[0] - half_extent, c[0] + half_extent, 5)
    ys = np.linspace(c[1] - half_extent, c[1] + half_extent, 5)
    zs = np.linspace(c[2] - 0.6 * half_extent, c[2] + 0.6 * half_extent, 3)
    dirs = [
        np.array([dx, dy, dz], dtype=float) / np.linalg.norm([dx, dy, dz])
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for dz in (-1, 0, 1)
        if (dx, dy, dz) != (0, 0, 0)
    ]
    best, best_cost = None, np.inf
    for x in xs:
        for y in ys:
            for z in zs:
                if z > -0.01:
                    continue
                for d in dirs:
                    p = np.array([x, y, z])
                    r = ml.predict_normal_components(p, d, dipole) - target
                    cost = float(r @ r)
                    if cost < best_cost:
                        best, best_cost = (p, d), cost
    return best, best_cost


def test_grid_search_matches_loop():
    dipole = sk.DipoleParams()
    act = sk.ActuatorFieldModel(uniform=(1e-4, -2e-4, 3e-4), gradient=(1e-3, 2e-3, -3e-3))
    rng = np.random.default_rng(17)
    # The last workspace's top layer, z = -0.005, is skipped; without the
    # skip it would win for the shallow capsules placed under it.
    cases = [((0.0, 0.0, -0.08), 0.1, (-0.12, -0.04))] * 5
    cases += [((0.01, -0.02, -0.035), 0.05, (-0.02, -0.01))] * 3
    for k, (center, half_extent, depths) in enumerate(cases):
        pose = Pose(
            [*rng.uniform(-0.04, 0.04, 2), rng.uniform(*depths)],
            rng.uniform(-np.pi, np.pi, 3),
        )
        reading = make_reading(pose, dipole, actuator=act, noise_sd=5e-7, seed=k)
        target = ml.subtract_actuator_field(reading, act).values.ravel()
        (position, heading), cost = _grid_search_loop(target, dipole, center, half_extent)
        got = ml.grid_search_init(reading, act, dipole, center, half_extent)
        assert np.array_equal(got.position, position)
        # The estimate holds the candidate heading as MagMeasurement5DoF
        # normalizes it.
        assert np.array_equal(got.heading, ml.MagMeasurement5DoF(0.0, position, heading).heading)
        assert abs(got.residual**2 - cost) <= 1e-12 * cost


def _closed_form_bz(position, heading, dipole):
    """b_z at the 64 sensors, written out as the point-dipole formula."""
    m = dipole.moment_magnitude * heading
    r = sk.sensor_positions().reshape(-1, 3) - position
    d2 = np.sum(r * r, axis=1)
    mdotr = r @ m
    return sk.MU0_OVER_4PI * (3.0 * mdotr * r[:, 2] - m[2] * d2) / (d2 * d2 * np.sqrt(d2))


def test_model_kernel_bz_matches_closed_form_bit_for_bit():
    # predict_normal_components is the closed form bit for bit. The LM
    # kernel shares d^2, C / d^5 and m.r between b_z and the Jacobian, so
    # its residual row equals predict_normal_components - target only up
    # to rounding; its W is the Gram matrix of the rows it returns.
    dipole = sk.DipoleParams()
    rng = np.random.default_rng(12)
    noise = np.random.default_rng(13)
    for _ in range(1000):
        position = np.array([*rng.uniform(-0.05, 0.05, 2), rng.uniform(-0.15, -0.03)])
        polar, az = rng.uniform(-1.0, 4.0), rng.uniform(-4.0, 4.0)
        heading = np.array([np.sin(polar) * np.cos(az), np.sin(polar) * np.sin(az), np.cos(polar)])
        bz = ml.predict_normal_components(position, heading, dipole)
        assert np.array_equal(bz, _closed_form_bz(position, heading, dipole))
        target = bz + noise.normal(0.0, 5e-7, bz.shape)
        A, W = ml._lm_rows(
            position, heading, ml._tangent_basis(heading), target, dipole.moment_magnitude
        )
        assert A.shape == (6, 64)
        err = np.max(np.abs(A[5] - (bz - target)))
        assert err <= 1e-15 * np.max(np.abs(bz))
        assert np.array_equal(W, A @ A.T)


def test_gate_window_median_matches_np_median():
    # Random gate sequences longer than the window, drawn from few distinct
    # values so that ties are common, and from a continuous spread.
    rng = np.random.default_rng(31)
    n = ml._GATE_HISTORY
    for k in range(12):
        length = int(rng.integers(n + 1, 3 * n))
        if k % 2:
            values = rng.integers(0, 7, length) * 0.1
        else:
            values = rng.lognormal(0.0, 1.0, length)
        window = ml._GateWindow()
        for i, value in enumerate(values.tolist()):
            window.push(value)
            assert len(window.sorted) == min(i + 1, n)
            assert window.median() == float(np.median(values[max(0, i + 1 - n):i + 1]))


def _per_frame_gate_and_covariance(readings, act, dipole, center, half_extent):
    """Reference stream: after each fit, the model and its Jacobian are
    evaluated again at the fitted pose, for the outlier gate and
    position_covariance.
    Returns the estimates, each frame's gate value and whether it was gated."""
    out, gates, gated, history = [], [], [], []
    prev = None
    track = ml._PositionTrack()
    for reading in readings:
        subtracted = ml.subtract_actuator_field(reading, act).values
        target = subtracted.ravel()
        init = prev
        if prev is None:
            init = ml.grid_search_init(reading, act, dipole, center, half_extent)
        est = ml.estimate_pose_5dof(reading, act, dipole, init)
        if not est.converged and prev is not None:
            est = ml.MagMeasurement5DoF(
                reading.timestamp, prev.position, prev.heading, converged=False,
                residual=est.residual, iterations=est.iterations,
            )
        fit = ml.predict_normal_components(est.position, est.heading, dipole).reshape(8, 8)
        gate = float(np.linalg.norm(ml.directional_second_difference(subtracted - fit)))
        is_gated = False
        if len(history) >= 10 and prev is not None:
            med = float(np.median(history))
            is_gated = med > 0 and gate > ml._OUTLIER_GATE * med
        if is_gated:
            est = ml.MagMeasurement5DoF(
                reading.timestamp, prev.position, prev.heading, converged=False,
                residual=est.residual, iterations=est.iterations,
            )
        history = (history + [gate])[-200:]
        gates.append(gate)
        gated.append(is_gated)
        track.predict(reading.timestamp)
        if est.converged:
            try:
                track.update(est.position, ml.position_covariance(est, target, dipole))
            except np.linalg.LinAlgError:
                pass
        prev = est
        out.append(est if track.x is None else replace(est, position=track.x.copy()))
    return out, gates, gated


@pytest.mark.parametrize("max_iterations", [60, 5])
def test_localize_stream_matches_per_frame_gate_and_covariance(
    max_iterations, tmp_path, monkeypatch
):
    # The stream's gate and covariance read the fit's own residual and
    # Jacobian. At 5 iterations about a third of the frames diverge and
    # carry the previous pose without a second fit; at 60 none diverge.
    # Frame 40 carries a spike.
    monkeypatch.setattr(ml, "_MAX_ITERATIONS", max_iterations)
    cfg = sk.SimConfig(duration=2.0, seed=5)
    ds = sk.simulate_dataset(cfg)
    act = sk.ActuatorFieldModel.from_config(cfg)
    readings = list(ds.mag)
    spiked = readings[40].values.copy()
    spiked[3, 4] += 1e-4
    readings[40] = sk.HallArrayReading(readings[40].timestamp, spiked)
    ref, ref_gates, ref_gated = _per_frame_gate_and_covariance(
        readings, act, ds.dipole, cfg.workspace_center, cfg.workspace_half_extent
    )
    fits = 0
    levenberg_marquardt = ml._levenberg_marquardt

    def counted(*args):
        nonlocal fits
        fits += 1
        return levenberg_marquardt(*args)

    monkeypatch.setattr(ml, "_levenberg_marquardt", counted)
    diag = tmp_path / "diag.txt"
    got = ml.localize_stream(
        readings, act, ds.dipole, cfg.workspace_center,
        cfg.workspace_half_extent, diagnostics_path=diag,
    )
    assert fits == len(readings)
    assert ref_gated[40] and sum(ref_gated) < 5
    diverged = sum(not r.converged and not g for r, g in zip(ref, ref_gated))
    assert (diverged > 0) == (max_iterations == 5)
    assert len(got) == len(ref)
    for e, r in zip(got, ref):
        assert np.array_equal(e.heading, r.heading)
        assert e.residual == r.residual
        assert e.iterations == r.iterations
        assert e.converged == r.converged
        assert np.max(np.abs(e.position - r.position)) <= 1e-15
    # The diagnostics' gate values are the reference's up to rounding.
    lines = diag.read_text().splitlines()
    gates = [float(line.split(" gate=")[1].split()[0]) for line in lines]
    assert np.allclose(gates, ref_gates, rtol=1e-9, atol=0.0)
