"""SE(3) pose algebra, trajectory containers, and error metrics, plus the
text file form that datasets and checkpoints share (a header line of
`name=value` config tokens, then one record per line), and the finiteness
check that config dataclasses share.

Conventions used everywhere in this repo:
  * A pose is a 6-vector [tx ty tz roll pitch yaw]: translation in metres,
    then Euler angles in radians. The pose algebra takes and returns
    (..., 6) arrays of them, rotations as (..., 3, 3) matrices, and
    broadcasts over the leading axes; a single pose is a (6,) array.
  * Euler angles are intrinsic Z-Y-X (yaw about z, then pitch about y,
    then roll about x), stored as (roll, pitch, yaw).
  * Angles are wrapped to (-pi, pi].
  * All floats are 64-bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "GimbalLockWarning",
    "Pose",
    "Trajectory",
    "wrap_angle",
    "skew",
    "rotation_exp",
    "euler_to_matrix",
    "matrix_to_euler",
    "relative_pose",
    "apply_relative",
    "integrate_deltas",
    "rotation_angle",
    "pose_error",
    "min_rotation_between",
    "start_aligned_error",
    "resample_trajectory",
    "format_config",
    "parse_config",
    "format_header",
    "read_text_file",
    "require_finite",
]

GIMBAL_EPS = 1e-3


class GimbalLockWarning(UserWarning):
    """Pitch within GIMBAL_EPS of +/- pi/2: roll/yaw split is degenerate."""


def wrap_angle(a):
    """Wrap angle(s) to (-pi, pi]."""
    a = np.asarray(a, dtype=float)
    wrapped = -((-a + np.pi) % (2.0 * np.pi) - np.pi)
    return wrapped


@dataclass(frozen=True)
class Pose:
    """6-DoF rigid pose: translation (m) and Euler rotation (rad)."""

    t: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float).reshape(3)
        r = wrap_angle(np.asarray(self.r, dtype=float).reshape(3))
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(r))):
            raise ValueError("pose components must be finite")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "r", r)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.t, self.r])


def skew(v) -> np.ndarray:
    """Cross-product matrices [v]x of (..., 3) vectors, so that
    skew(v) @ p == np.cross(v, p)."""
    v = np.asarray(v, dtype=float)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    o = np.zeros_like(x)
    return np.stack([o, -z, y, z, o, -x, -y, x, o], axis=-1).reshape(v.shape + (3,))


def rotation_exp(w) -> np.ndarray:
    """Rodrigues: rotation matrices (..., 3, 3) for axis-angle vectors
    (..., 3)."""
    w = np.asarray(w, dtype=float)
    theta = np.sqrt(_dot(w, w))
    K = skew(w)
    small = theta < 1e-12
    theta = np.where(small, 1.0, theta)
    A = np.where(small, 1.0, np.sin(theta) / theta)
    B = np.where(small, 0.5, (1.0 - np.cos(theta)) / theta**2)
    return np.eye(3) + A[..., None, None] * K + B[..., None, None] * (K @ K)


def euler_to_matrix(r) -> np.ndarray:
    """Rotation matrices (..., 3, 3) for intrinsic Z-Y-X Euler angles
    (..., 3) ordered (roll, pitch, yaw)."""
    r = np.asarray(r, dtype=float)
    cr, sr = np.cos(r[..., 0]), np.sin(r[..., 0])
    cp, sp = np.cos(r[..., 1]), np.sin(r[..., 1])
    cy, sy = np.cos(r[..., 2]), np.sin(r[..., 2])
    # Rz(yaw) @ Ry(pitch) @ Rx(roll)
    entries = [
        cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr,
        sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr,
        -sp, cp * sr, cp * cr,
    ]
    return np.stack(entries, axis=-1).reshape(r.shape + (3,))


def matrix_to_euler(R) -> np.ndarray:
    """Inverse of euler_to_matrix, over leading axes.

    Rows near gimbal lock (|pitch| within 1e-3 of pi/2) take the roll=0
    branch, and one GimbalLockWarning is emitted if any row does.
    """
    R = np.asarray(R, dtype=float)
    pitch = np.arcsin(np.clip(-R[..., 2, 0], -1.0, 1.0))
    locked = np.pi / 2 - np.abs(pitch) < GIMBAL_EPS
    roll = np.arctan2(R[..., 2, 1], R[..., 2, 2])
    yaw = np.arctan2(R[..., 1, 0], R[..., 0, 0])
    if np.any(locked):
        warnings.warn("pitch within 1e-3 of +/-pi/2; using roll=0 branch",
                      GimbalLockWarning, stacklevel=2)
        roll = np.where(locked, 0.0, roll)
        # With roll = 0 and sin(pitch) = +/-1 the remaining matrix fixes yaw.
        yaw = np.where(locked, np.arctan2(-R[..., 0, 1], R[..., 1, 1]), yaw)
    return wrap_angle(np.stack([roll, pitch, yaw], axis=-1))


def _dot(a, b) -> np.ndarray:
    """Row-wise dot products of (..., 3) arrays, rounded as np.dot rounds
    two 3-vectors."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _apply(R, v) -> np.ndarray:
    """R @ v over leading axes, rounded as a 3x3 matrix times a 3-vector."""
    return (R @ v[..., None])[..., 0]


def _transform(p):
    """(R, t) of pose vectors p (..., 6)."""
    p = np.asarray(p, dtype=float)
    return euler_to_matrix(wrap_angle(p[..., 3:])), p[..., :3]


def _pose(R, t) -> np.ndarray:
    return np.concatenate([t, matrix_to_euler(R)], axis=-1)


def _between(a, b):
    """(R, t) of the motion from poses a to b, in a's frame."""
    (Ra, ta), (Rb, tb) = _transform(a), _transform(b)
    RaT = np.swapaxes(Ra, -1, -2)
    return RaT @ Rb, _apply(RaT, tb) + _apply(-RaT, ta)


def _compose(a, Rd, td):
    """(R, t) of the motion (Rd, td) applied in the frame of poses a."""
    Ra, ta = _transform(a)
    return Ra @ Rd, _apply(Ra, td) + ta


def relative_pose(a, b) -> np.ndarray:
    """Deltas d (..., 6) such that apply_relative(a, d) reproduces b."""
    return _pose(*_between(a, b))


def apply_relative(a, d) -> np.ndarray:
    """Compose poses a with deltas d (inverse of relative_pose). A test
    oracle: tests build and check trajectories with it, and no pipeline
    path calls it."""
    return _pose(*_compose(a, *_transform(d)))


def integrate_deltas(initial, times, deltas) -> Trajectory:
    """Trajectory from the pose vector initial through deltas (N, 6): sample
    k is at times[k], after deltas[0..k]. The composition runs on matrices,
    and the angles are read once at the end."""
    R, t = _transform(initial)
    Rd, td = _transform(deltas)
    Rs, ts = np.empty_like(Rd), np.empty_like(td)
    for k in range(len(Rd)):
        R, t = Rs[k], ts[k] = R @ Rd[k], R @ td[k] + t
    return Trajectory(np.array(times), _pose(Rs, ts))


def rotation_angle(Ra, Rb) -> np.ndarray:
    """Geodesic angle (rad) between rotation matrices (..., 3, 3)."""
    Rrel = np.swapaxes(Ra, -1, -2) @ Rb
    c = (np.trace(Rrel, axis1=-2, axis2=-1) - 1.0) / 2.0
    return np.arccos(np.clip(c, -1.0, 1.0))


def pose_error(est, gt):
    """(translation error in m, geodesic rotation error in rad) between
    pose vectors (..., 6)."""
    (R_est, t_est), (R_gt, t_gt) = _transform(est), _transform(gt)
    d = t_est - t_gt
    return np.sqrt(_dot(d, d)), rotation_angle(R_gt, R_est)


def min_rotation_between(a, b) -> np.ndarray:
    """Smallest rotation matrices (..., 3, 3) taking unit vectors a to unit
    vectors b (..., 3)."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    v = np.cross(a, b)
    c = _dot(a, b)
    s = np.sqrt(_dot(v, v))
    aligned = s < 1e-15
    K = skew(v)
    scale = (1 - c) / np.where(aligned, 1.0, s) ** 2
    R = np.eye(3) + K + K @ K * scale[..., None, None]
    if np.any(aligned):
        # Parallel: identity. Antiparallel: a half turn about an axis
        # orthogonal to a.
        a_al = a[aligned]
        axis = np.cross(a_al, [1.0, 0.0, 0.0])
        degenerate = np.sqrt(_dot(axis, axis)) < 1e-12
        axis[degenerate] = np.cross(a_al[degenerate], [0.0, 1.0, 0.0])
        axis /= np.sqrt(_dot(axis, axis))[:, None]
        flip = 2.0 * axis[:, :, None] * axis[:, None, :] - np.eye(3)
        R[aligned] = np.where((c[aligned] > 0)[:, None, None], np.eye(3), flip)
    return R


def start_aligned_error(est_start, est_end, gt_start, gt_end):
    """(translation m, rotation rad) error of the estimated motion from
    est_start to est_end, composed onto gt_start, against gt_end.

    The composed end pose is read as a pose vector before it is compared,
    as every estimate is."""
    predicted_end = _pose(*_compose(gt_start, *_between(est_start, est_end)))
    return pose_error(predicted_end, gt_end)


@dataclass
class Trajectory:
    """Timestamped pose sequence; shared by ground truth and estimates."""

    times: np.ndarray  # (N,) seconds, strictly increasing
    poses: np.ndarray  # (N, 6) rows [tx ty tz roll pitch yaw]

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float).reshape(-1)
        self.poses = np.asarray(self.poses, dtype=float).reshape(-1, 6)
        if len(self.times) == 0:
            raise ValueError("trajectory must be non-empty")
        if len(self.times) != len(self.poses):
            raise ValueError("times and poses length mismatch")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)

    def pose(self, i: int) -> Pose:
        return Pose(self.poses[i, :3], self.poses[i, 3:])

    def arc_length(self) -> np.ndarray:
        """Cumulative translational arc length at each sample (starts at 0)."""
        steps = np.linalg.norm(np.diff(self.poses[:, :3], axis=0), axis=1)
        return np.concatenate([[0.0], np.cumsum(steps)])


def resample_trajectory(traj: Trajectory, timestamps) -> Trajectory:
    """Linear interpolation of translation and of each Euler angle on its
    own, after unwrapping that angle along the trajectory; the angles are
    wrapped again at the end. This is not a rotation interpolation: between
    knots the three angles move independently, which matches the geodesic
    only when the rotation between the knots is about a single Euler axis.

    Query timestamps must lie within the trajectory's time span.
    """
    ts = np.asarray(timestamps, dtype=float).reshape(-1)
    if ts.size == 0:
        raise ValueError("no query timestamps")
    if ts.min() < traj.times[0] - 1e-12 or ts.max() > traj.times[-1] + 1e-12:
        raise ValueError(
            f"query times [{ts.min()}, {ts.max()}] outside trajectory span "
            f"[{traj.times[0]}, {traj.times[-1]}]"
        )
    ts = np.clip(ts, traj.times[0], traj.times[-1])
    out = np.empty((len(ts), 6))
    for k in range(3):
        out[:, k] = np.interp(ts, traj.times, traj.poses[:, k])
    for k in range(3, 6):
        unwrapped = np.unwrap(traj.poses[:, k])
        out[:, k] = wrap_angle(np.interp(ts, traj.times, unwrapped))
    return Trajectory(ts, out)


def _format_value(v) -> str:
    if isinstance(v, tuple):
        return ",".join(repr(float(x)) for x in v)
    return f"{v}"


def _parse_value(default, text: str):
    if isinstance(default, tuple):
        return tuple(float(x) for x in text.split(","))
    return type(default)(text)


def format_config(*configs) -> str:
    """`name=value` tokens of flat config dataclasses, in field order.

    Tuples are written as comma-separated repr(float); parse_config reads
    the text back into equal instances."""
    return " ".join(
        f"{f.name}={_format_value(getattr(c, f.name))}"
        for c in configs
        for f in fields(c)
    )


def parse_config(text: str, *classes) -> tuple:
    """One instance per config dataclass in classes, from format_config text.

    Each value is parsed as the type of its field's default. Raises
    ValueError naming a token without '=' or a missing, repeated or unknown
    key."""
    kv = {}
    for tok in text.split():
        key, eq, val = tok.partition("=")
        if not eq:
            raise ValueError(f"expected key=value, got {tok!r}")
        if key in kv:
            raise ValueError(f"repeated config key {key!r}")
        kv[key] = val
    out = []
    for cls in classes:
        values = {}
        for f in fields(cls):
            if f.name not in kv:
                raise ValueError(f"missing config key {f.name!r}")
            values[f.name] = _parse_value(f.default, kv.pop(f.name))
        out.append(cls(**values))
    if kv:
        raise ValueError(f"unknown config key {next(iter(kv))!r}")
    return tuple(out)


def format_header(file_format: str, *configs) -> str:
    """Line 1 of a file that read_text_file reads: `# <file_format>
    <format_config tokens>`, newline included."""
    return f"# {file_format} {format_config(*configs)}\n"


def read_text_file(path, file_format: str, classes, record) -> tuple:
    """One instance per config dataclass in classes, parsed from the
    format_header line that must be line 1 of the file at path.

    Each later line that is neither blank nor a `#` comment is handed to
    record as its list of words. Any ValueError, from the header or from
    record, is raised again as `<path>:<line>: <message>`."""
    lineno, magic = 1, ["#", *file_format.split()]
    try:
        with open(path) as f:
            header = f.readline().split()
            if header[:len(magic)] != magic:
                got = " ".join(header[:len(magic)])
                raise ValueError(f"expected a '# {file_format}' header, got {got!r}")
            configs = parse_config(" ".join(header[len(magic):]), *classes)
            for lineno, line in enumerate(f, start=2):
                words = line.split()
                if words and not words[0].startswith("#"):
                    record(words)
    except ValueError as err:
        raise ValueError(f"{path}:{lineno}: {err}") from None
    return configs


def require_finite(config) -> None:
    """Raise ValueError naming the first field of a config dataclass whose
    default is a float or a tuple and whose value, or an entry of it, is not
    finite: nan passes every `<= 0` range check."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(f.default, (float, tuple)) and not np.all(np.isfinite(value)):
            raise ValueError(f"{f.name} must be finite, got {value!r}")
