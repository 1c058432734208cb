import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from capsloc.geometry import (
    GimbalLockWarning,
    Trajectory,
    euler_to_matrix,
    format_config,
    integrate_deltas,
    matrix_to_euler,
    min_rotation_between,
    pose_error,
    parse_config,
    relative_pose,
    apply_relative,
    resample_trajectory,
    rotation_angle,
    rotation_exp,
    skew,
    wrap_angle,
)

angles = st.floats(-np.pi + 1e-6, np.pi - 1e-6)
safe_pitch = st.floats(-np.pi / 2 + 0.05, np.pi / 2 - 0.05)


def random_poses(rng, *shape):
    """Pose vectors with every angle within pi/2 - 0.1 of zero."""
    t = rng.normal(0, 1, shape + (3,))
    r = rng.uniform(-np.pi / 2 + 0.1, np.pi / 2 - 0.1, shape + (3,))
    return np.concatenate([t, r], axis=-1)


def homogeneous(p):
    """4x4 matrix of a pose vector."""
    H = np.eye(4)
    H[:3, :3] = euler_to_matrix(p[3:])
    H[:3, 3] = p[:3]
    return H


def test_euler_identity():
    assert np.allclose(euler_to_matrix([0, 0, 0]), np.eye(3))


def test_yaw_quarter_turn_maps_x_to_y():
    R = euler_to_matrix([0, 0, np.pi / 2])
    assert np.allclose(R @ [1, 0, 0], [0, 1, 0], atol=1e-15)


def test_euler_matches_elementary_product():
    roll, pitch, yaw = 0.1, 0.2, 0.3
    cr, sr = np.cos(roll), np.sin(roll)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cy, sy = np.cos(yaw), np.sin(yaw)
    Rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
    Ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
    Rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
    R = euler_to_matrix([roll, pitch, yaw])
    assert np.allclose(R, Rz @ Ry @ Rx, atol=1e-15)
    assert np.allclose(R.T @ R, np.eye(3), atol=1e-15)


def test_matrix_to_euler_identity():
    assert np.allclose(matrix_to_euler(np.eye(3)), [0, 0, 0])


def test_matrix_to_euler_roundtrip():
    r = np.array([0.1, 0.2, 0.3])
    assert np.allclose(matrix_to_euler(euler_to_matrix(r)), r, atol=1e-9)


def test_gimbal_lock_flagged_roll_zero_branch():
    R = euler_to_matrix([0.4, np.pi / 2, 0.7])
    with pytest.warns(GimbalLockWarning):
        r = matrix_to_euler(R)
    assert r[0] == 0.0
    assert abs(r[1] - np.pi / 2) < 1e-9


@settings(max_examples=200)
@given(angles, safe_pitch, angles)
def test_rotation_roundtrip_property(roll, pitch, yaw):
    r = np.array([roll, pitch, yaw])
    back = matrix_to_euler(euler_to_matrix(r))
    assert np.allclose(wrap_angle(back - r), 0.0, atol=1e-9)


def test_gimbal_lock_in_one_row_warns_once_and_zeroes_only_its_roll():
    rng = np.random.default_rng(8)
    r = rng.uniform(-1.0, 1.0, (6, 3))
    r[3] = [0.4, np.pi / 2, 0.7]
    R = euler_to_matrix(r)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = matrix_to_euler(R)
    assert [w.category for w in caught] == [GimbalLockWarning]
    assert out[3, 0] == 0.0 and abs(out[3, 1] - np.pi / 2) < 1e-9
    others = [0, 1, 2, 4, 5]
    assert np.all(out[others, 0] != 0.0)
    assert np.array_equal(out[others], np.array([matrix_to_euler(R[i]) for i in others]))


def test_batched_calls_equal_row_calls():
    rng = np.random.default_rng(9)
    a = np.concatenate([rng.normal(0, 1, (300, 3)), rng.uniform(-4, 4, (300, 3))], axis=1)
    b = np.concatenate([rng.normal(0, 1, (300, 3)), rng.uniform(-4, 4, (300, 3))], axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GimbalLockWarning)
        R = euler_to_matrix(a[:, 3:])
        assert R.shape == (300, 3, 3)
        rows = range(len(a))
        assert np.array_equal(R, [euler_to_matrix(a[i, 3:]) for i in rows])
        assert np.array_equal(matrix_to_euler(R), [matrix_to_euler(R[i]) for i in rows])
        rel = relative_pose(a, b)
        assert np.array_equal(rel, [relative_pose(a[i], b[i]) for i in rows])
        app = apply_relative(a, b)
        assert np.array_equal(app, [apply_relative(a[i], b[i]) for i in rows])
        # A single pose broadcasts against a batch.
        one = [apply_relative(a[0], b[i]) for i in rows]
        assert np.array_equal(apply_relative(a[0], b), one)
        err = np.stack(pose_error(a, b), axis=-1)
        assert np.array_equal(err, [pose_error(a[i], b[i]) for i in rows])


def test_apply_relative_identity_and_inverse():
    rng = np.random.default_rng(1)
    a = random_poses(rng)
    identity = np.zeros(6)
    assert np.allclose(apply_relative(identity, a), a, atol=1e-12)
    assert np.allclose(apply_relative(a, identity), a, atol=1e-12)
    # relative_pose(a, identity) is a's inverse.
    assert np.allclose(apply_relative(a, relative_pose(a, identity)), 0.0, atol=1e-12)
    assert np.allclose(apply_relative(relative_pose(a, identity), a), 0.0, atol=1e-12)


def test_apply_relative_matches_homogeneous_product():
    rng = np.random.default_rng(2)
    a, b = random_poses(rng), random_poses(rng)
    H = homogeneous(a) @ homogeneous(b)
    assert np.allclose(homogeneous(apply_relative(a, b)), H, rtol=0, atol=1e-14)
    H_rel = np.linalg.inv(homogeneous(a)) @ homogeneous(b)
    assert np.allclose(homogeneous(relative_pose(a, b)), H_rel, rtol=0, atol=1e-14)


def test_apply_relative_associative():
    rng = np.random.default_rng(3)
    a, b, c = (random_poses(rng, 20) for _ in range(3))
    lhs = apply_relative(apply_relative(a, b), c)
    rhs = apply_relative(a, apply_relative(b, c))
    assert np.allclose(lhs[:, :3], rhs[:, :3], atol=1e-12)
    assert np.allclose(euler_to_matrix(lhs[:, 3:]), euler_to_matrix(rhs[:, 3:]), atol=1e-12)


def test_relative_pose_roundtrip():
    rng = np.random.default_rng(4)
    a = np.concatenate([rng.normal(0, 1, (20, 3)), rng.uniform(-1.2, 1.2, (20, 3))], axis=1)
    b = np.concatenate([rng.normal(0, 1, (20, 3)), rng.uniform(-1.2, 1.2, (20, 3))], axis=1)
    b2 = apply_relative(a, relative_pose(a, b))
    assert np.allclose(b2[:, :3], b[:, :3], atol=1e-9)
    assert np.allclose(wrap_angle(b2[:, 3:] - b[:, 3:]), 0.0, atol=1e-9)


def test_integrate_deltas_matches_composition_loop():
    # integrate_deltas composes on matrices and reads angles once; the loop
    # reads angles at every step, so the two agree to rounding only.
    rng = np.random.default_rng(6)
    start = np.concatenate([rng.normal(0, 1, 3), rng.uniform(-1.0, 1.0, 3)])
    deltas = np.concatenate([rng.normal(0, 0.1, (12, 3)), rng.normal(0, 0.2, (12, 3))], axis=1)
    times = np.arange(1, 13) / 25.0
    traj = integrate_deltas(start, times, deltas)
    pose = start
    for k, d in enumerate(deltas):
        pose = apply_relative(pose, d)
        assert traj.times[k] == times[k]
        assert np.allclose(traj.poses[k], pose, rtol=0, atol=1e-12)


def test_relative_pose_self_is_zero():
    p = np.array([1, 2, 3, 0.1, 0.2, 0.3])
    assert np.allclose(relative_pose(p, p), 0.0, atol=1e-12)


def test_relative_pose_from_identity():
    b = np.array([1, 2, 3, 0.1, 0.2, 0.3])
    assert np.allclose(relative_pose(np.zeros(6), b), b, atol=1e-12)


def test_pose_error_cases():
    p = np.zeros(6)
    assert pose_error(p, p) == (0.0, 0.0)
    q = np.array([0.003, 0.004, 0, 0, 0, 0])
    te, re = pose_error(q, p)
    assert abs(te - 0.005) < 1e-15
    assert re == 0.0
    r = np.array([0, 0, 0, 0, 0, 0.1])
    te, re = pose_error(r, p)
    assert te == 0.0
    assert abs(re - 0.1) < 1e-12


def test_pose_error_rotation_symmetric():
    rng = np.random.default_rng(5)
    a = np.concatenate([rng.normal(0, 1, (20, 3)), rng.uniform(-1.2, 1.2, (20, 3))], axis=1)
    b = np.concatenate([rng.normal(0, 1, (20, 3)), rng.uniform(-1.2, 1.2, (20, 3))], axis=1)
    assert np.allclose(pose_error(a, b)[1], pose_error(b, a)[1], rtol=0, atol=1e-12)


def test_rotation_angle_of_axis_turn():
    R = euler_to_matrix([[0, 0, 0], [0.3, 0, 0], [0, -0.7, 0], [0, 0, 3.0]])
    assert np.allclose(rotation_angle(np.eye(3), R), [0.0, 0.3, 0.7, 3.0], rtol=0, atol=1e-7)
    assert np.array_equal(rotation_angle(R, R), np.zeros(4))


def test_min_rotation_between_maps_a_onto_b():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(8, 3))
    a /= np.linalg.norm(a, axis=1)[:, None]
    b = rng.normal(size=(8, 3))
    b /= np.linalg.norm(b, axis=1)[:, None]
    b[6], b[7] = a[6], -a[7]  # parallel and antiparallel rows
    R = min_rotation_between(a, b)
    assert np.allclose(R @ R.transpose(0, 2, 1), np.eye(3), rtol=0, atol=1e-12)
    assert np.allclose(np.linalg.det(R), 1.0, rtol=0, atol=1e-12)
    assert np.allclose((R @ a[:, :, None])[:, :, 0], b, rtol=0, atol=1e-12)
    assert np.array_equal(R[6], np.eye(3))
    # Smallest: the turn angle equals the angle between the vectors.
    angle = np.arccos(np.clip(np.sum(a * b, axis=1), -1.0, 1.0))
    assert np.allclose(rotation_angle(np.eye(3), R), angle, rtol=0, atol=1e-7)


def test_resample_exact_at_knots_and_midpoint():
    traj = Trajectory([0.0, 1.0], [[0, 0, 0, 0.2, 0, 0], [1, 0, 0, 0.2, 0, 0]])
    out = resample_trajectory(traj, [0.0, 0.5, 1.0])
    assert np.allclose(out.poses[0], traj.poses[0])
    assert np.allclose(out.poses[2], traj.poses[1])
    assert np.allclose(out.poses[1][:3], [0.5, 0, 0])
    assert np.allclose(out.poses[1][3:], [0.2, 0, 0])


def test_resample_shortest_arc_across_seam():
    traj = Trajectory([0.0, 1.0], [[0, 0, 0, 0, 0, 3.1], [0, 0, 0, 0, 0, -3.1]])
    out = resample_trajectory(traj, [0.5])
    assert abs(abs(out.poses[0][5]) - np.pi) < 1e-12


def test_resample_out_of_range_raises():
    traj = Trajectory([0.0, 1.0], np.zeros((2, 6)))
    with pytest.raises(ValueError):
        resample_trajectory(traj, [1.5])


def test_resample_bounded_between_knots():
    rng = np.random.default_rng(6)
    times = np.arange(5.0)
    poses = rng.normal(0, 1, (5, 6))
    traj = Trajectory(times, poses)
    qs = rng.uniform(0, 4, 50)
    out = resample_trajectory(traj, np.sort(qs))
    for t, p in zip(out.times, out.poses):
        i = min(int(t), 3)
        lo = np.minimum(poses[i, :3], poses[i + 1, :3])
        hi = np.maximum(poses[i, :3], poses[i + 1, :3])
        assert np.all(p[:3] >= lo - 1e-12) and np.all(p[:3] <= hi + 1e-12)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory([], np.zeros((0, 6)))
    with pytest.raises(ValueError):
        Trajectory([0.0, 0.0], np.zeros((2, 6)))


def test_skew_is_cross_product():
    rng = np.random.default_rng(5)
    v, p = rng.normal(size=3), rng.normal(size=3)
    assert np.allclose(skew(v) @ p, np.cross(v, p), rtol=0, atol=1e-15)
    assert np.array_equal(skew(v), -skew(v).T)


def test_rotation_exp_is_rotation_about_its_axis():
    rng = np.random.default_rng(7)
    for _ in range(20):
        w = rng.normal(0, 1.5, 3)
        R = rotation_exp(w)
        assert np.allclose(R @ R.T, np.eye(3), rtol=0, atol=1e-14)
        assert abs(np.linalg.det(R) - 1.0) < 1e-14
        assert np.allclose(R @ w, w, rtol=0, atol=1e-14)


def test_rotation_exp_matches_euler_for_pure_yaw():
    for yaw in (-3.0, -0.5, 1e-6, 0.7, 2.9):
        assert np.allclose(
            rotation_exp([0.0, 0.0, yaw]), euler_to_matrix([0.0, 0.0, yaw]),
            rtol=0, atol=1e-15,
        )


def test_rotation_exp_continuous_across_small_angle_branch():
    # theta < 1e-12 takes the series branch; just above it, Rodrigues.
    axis = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
    below = rotation_exp(axis * 1e-12 * (1 - 1e-9))
    above = rotation_exp(axis * 1e-12 * (1 + 1e-9))
    assert np.max(np.abs(below - above)) < 1e-20
    assert np.allclose(above, np.eye(3) + skew(axis * 1e-12), rtol=0, atol=1e-20)


def test_rotation_exp_broadcasts_bit_for_bit():
    # Rows on both branches; each row of the (n, 3) call is its own call,
    # and within 1e-15 of Rodrigues written out for one vector.
    rng = np.random.default_rng(8)
    w = np.concatenate([
        rng.normal(0, 1.5, (200, 3)), rng.normal(0, 1e-3, (50, 3)),
        np.zeros((1, 3)), [[3e-13, -1e-13, 2e-13]],
    ])
    R = rotation_exp(w)
    assert R.shape == (len(w), 3, 3)
    assert np.array_equal(R, np.array([rotation_exp(v) for v in w]))
    assert np.array_equal(rotation_exp(w.reshape(2, -1, 3)), R.reshape(2, -1, 3, 3))
    for v, Rv in zip(w, R):
        theta = np.linalg.norm(v)
        K = skew(v)
        if theta < 1e-12:
            ref = np.eye(3) + K + 0.5 * (K @ K)
        else:
            ref = (np.eye(3) + np.sin(theta) / theta * K
                   + (1.0 - np.cos(theta)) / theta**2 * (K @ K))
        assert np.max(np.abs(Rv - ref)) <= 1e-15


@dataclass(frozen=True)
class _Knobs:
    rate: float = 0.1
    count: int = 3
    name: str = "a"
    axis: tuple = (1.0, 0.0, 0.0)


@dataclass(frozen=True)
class _More:
    gain: float = 2.0


def test_config_text_roundtrip():
    knobs, more = _Knobs(1 / 3, 7, "fast_complex", (0.1, -2e-7, 3.0)), _More(-0.5)
    text = format_config(knobs, more)
    assert text == (
        f"rate={1 / 3!r} count=7 name=fast_complex axis=0.1,-2e-07,3.0 gain=-0.5"
    )
    assert parse_config(text, _Knobs, _More) == (knobs, more)


@pytest.mark.parametrize(
    "text, message",
    [
        ("rate=0.1 count=3 name=a", "missing config key 'axis'"),
        ("rate=0.1 count=3 name=a axis=1,0,0 spin=2", "unknown config key 'spin'"),
        ("rate=0.1 rate=0.2 count=3 name=a axis=1,0,0", "repeated config key 'rate'"),
        ("rate=x count=3 name=a axis=1,0,0", "could not convert"),
        ("rate=0.1 count name=a axis=1,0,0", "^expected key=value, got 'count'$"),
    ],
)
def test_parse_config_rejects_malformed_text(text, message):
    with pytest.raises(ValueError, match=message):
        parse_config(text, _Knobs)
