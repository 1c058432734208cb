"""SE(3) pose algebra, trajectory containers, and error metrics, plus the
`name=value` text form that dataset headers and checkpoints use for flat
config dataclasses.

Conventions used everywhere in this repo:
  * Euler angles are intrinsic Z-Y-X (yaw about z, then pitch about y,
    then roll about x), stored as (roll, pitch, yaw) in radians.
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
    "RigidTransform",
    "Trajectory",
    "wrap_angle",
    "skew",
    "rotation_exp",
    "euler_to_matrix",
    "matrix_to_euler",
    "compose",
    "inverse",
    "pose_to_transform",
    "transform_to_pose",
    "relative_pose",
    "apply_relative",
    "integrate_deltas",
    "pose_error",
    "resample_trajectory",
    "save_trajectory",
    "load_trajectory",
    "format_config",
    "parse_config",
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

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.zeros(3), np.zeros(3))

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.t, self.r])

    @staticmethod
    def from_vector(v) -> "Pose":
        v = np.asarray(v, dtype=float).reshape(6)
        return Pose(v[:3], v[3:])


@dataclass(frozen=True)
class RigidTransform:
    """Rotation matrix + translation; applies as p -> R p + t."""

    R: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.R, dtype=float).reshape(3, 3)
        t = np.asarray(self.t, dtype=float).reshape(3)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "t", t)

    def validate(self, tol: float = 1e-9) -> None:
        if np.max(np.abs(self.R @ self.R.T - np.eye(3))) > tol:
            raise ValueError("R is not orthonormal")
        if abs(np.linalg.det(self.R) - 1.0) > tol:
            raise ValueError("det(R) != 1")

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def apply(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return p @ self.R.T + self.t


def skew(v) -> np.ndarray:
    """Cross-product matrix [v]x, so that skew(v) @ p == np.cross(v, p)."""
    v = np.asarray(v, dtype=float).reshape(3)
    return np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])


def rotation_exp(w) -> np.ndarray:
    """Rodrigues: rotation matrix for an axis-angle 3-vector."""
    w = np.asarray(w, dtype=float).reshape(3)
    theta = np.linalg.norm(w)
    K = skew(w)
    if theta < 1e-12:
        return np.eye(3) + K + 0.5 * (K @ K)
    A = np.sin(theta) / theta
    B = (1.0 - np.cos(theta)) / theta**2
    return np.eye(3) + A * K + B * (K @ K)


def euler_to_matrix(r) -> np.ndarray:
    """Rotation matrix for intrinsic Z-Y-X Euler angles (roll, pitch, yaw)."""
    roll, pitch, yaw = np.asarray(r, dtype=float).reshape(3)
    cr, sr = np.cos(roll), np.sin(roll)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cy, sy = np.cos(yaw), np.sin(yaw)
    # Rz(yaw) @ Ry(pitch) @ Rx(roll)
    return np.array(
        [
            [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
            [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
            [-sp, cp * sr, cp * cr],
        ]
    )


def matrix_to_euler(R) -> np.ndarray:
    """Inverse of euler_to_matrix.

    Near gimbal lock (|pitch| within 1e-3 of pi/2) the roll=0 branch is
    taken and a GimbalLockWarning is emitted.
    """
    R = np.asarray(R, dtype=float).reshape(3, 3)
    sp = -R[2, 0]
    sp = min(1.0, max(-1.0, sp))
    pitch = np.arcsin(sp)
    if np.pi / 2 - abs(pitch) < GIMBAL_EPS:
        warnings.warn(
            "pitch within 1e-3 of +/-pi/2; using roll=0 branch",
            GimbalLockWarning,
            stacklevel=2,
        )
        roll = 0.0
        # With roll = 0 and sin(pitch) = +/-1 the remaining matrix fixes yaw.
        yaw = np.arctan2(-R[0, 1], R[1, 1])
    else:
        roll = np.arctan2(R[2, 1], R[2, 2])
        yaw = np.arctan2(R[1, 0], R[0, 0])
    return wrap_angle(np.array([roll, pitch, yaw]))


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Transform applying b first, then a."""
    return RigidTransform(a.R @ b.R, a.R @ b.t + a.t)


def inverse(a: RigidTransform) -> RigidTransform:
    return RigidTransform(a.R.T, -a.R.T @ a.t)


def pose_to_transform(p: Pose) -> RigidTransform:
    return RigidTransform(euler_to_matrix(p.r), p.t)


def transform_to_pose(T: RigidTransform) -> Pose:
    return Pose(T.t, matrix_to_euler(T.R))


def relative_pose(a: Pose, b: Pose) -> Pose:
    """Delta d such that composing a with d reproduces b."""
    Ta = pose_to_transform(a)
    Tb = pose_to_transform(b)
    return transform_to_pose(compose(inverse(Ta), Tb))


def apply_relative(a: Pose, d: Pose) -> Pose:
    """Compose pose a with delta d (inverse of relative_pose)."""
    return transform_to_pose(compose(pose_to_transform(a), pose_to_transform(d)))


def integrate_deltas(initial: Pose, times, deltas) -> Trajectory:
    """Trajectory that composes each delta onto the pose before it, starting
    from initial: sample k is at times[k], after deltas[0..k]."""
    poses = []
    pose = initial
    for d in deltas:
        pose = apply_relative(pose, d)
        poses.append(pose.as_vector())
    return Trajectory(np.array(times), np.array(poses))


def pose_error(est: Pose, gt: Pose) -> tuple[float, float]:
    """(translation error in m, geodesic rotation error in rad)."""
    trans_err = float(np.linalg.norm(est.t - gt.t))
    R_rel = euler_to_matrix(gt.r).T @ euler_to_matrix(est.r)
    c = (np.trace(R_rel) - 1.0) / 2.0
    rot_err = float(np.arccos(min(1.0, max(-1.0, c))))
    return trans_err, rot_err


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
        return Pose.from_vector(self.poses[i])

    def arc_length(self) -> np.ndarray:
        """Cumulative translational arc length at each sample (starts at 0)."""
        steps = np.linalg.norm(np.diff(self.poses[:, :3], axis=0), axis=1)
        return np.concatenate([[0.0], np.cumsum(steps)])


def resample_trajectory(traj: Trajectory, timestamps) -> Trajectory:
    """Linear interpolation of translation; shortest-arc on Euler components.

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


def save_trajectory(path, traj: Trajectory, header_lines=()) -> None:
    """Write the line-delimited `timestamp tx ty tz roll pitch yaw` format."""
    with open(path, "w") as f:
        for line in header_lines:
            f.write(f"# {line}\n")
        for t, p in zip(traj.times, traj.poses):
            vals = " ".join(repr(float(v)) for v in p)
            f.write(f"{float(t)!r} {vals}\n")


def load_trajectory(path) -> Trajectory:
    times, poses = [], []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 7:
                raise ValueError(f"{path}:{lineno}: expected 7 fields, got {len(parts)}")
            vals = [float(x) for x in parts]
            times.append(vals[0])
            poses.append(vals[1:])
    return Trajectory(np.array(times), np.array(poses))


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
    ValueError naming a missing, repeated or unknown key."""
    kv = {}
    for tok in text.split():
        key, _, val = tok.partition("=")
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
