"""Seeded desk-scale simulator: ground-truth motion, magnetic Hall-array
readings at 50 Hz, and emulated visual-odometry deltas at 25 Hz.

The sensor array is an 8x8 grid of mono-axial sensors in the z = 0 plane
(2 cm pitch, centered on the origin), each measuring the z-component of the
field. The capsule moves below the array (negative z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Pose,
    Trajectory,
    euler_to_matrix,
    format_header,
    read_text_file,
    relative_pose,
    require_finite,
    resample_trajectory,
    wrap_angle,
)

__all__ = [
    "MU0_OVER_4PI",
    "SENSOR_GRID_N",
    "SENSOR_PITCH",
    "MOTION_PROFILES",
    "SimConfig",
    "DipoleParams",
    "ActuatorFieldModel",
    "HallArrayReading",
    "VisMeasurement",
    "sensor_positions",
    "generate_trajectory",
    "dipole_field",
    "sample_hall_array",
    "simulate_mag_stream",
    "emulate_evo_stream",
    "Dataset",
    "write_dataset",
    "read_dataset",
    "simulate_dataset",
]

MU0_OVER_4PI = 1e-7  # T m / A
SENSOR_GRID_N = 8
SENSOR_PITCH = 0.02  # m
EXCLUSION_RADIUS = 1e-3  # m, dipole model breaks down at the magnet itself

# Per profile: peak translational speed (m/s), peak rotational speed (rad/s),
# sinusoid term count, translational and rotational frequency ranges (Hz),
# and the stationary actuation-jitter sds (position in m, pitch/yaw in rad).
# Roll carries no jitter (magnetically unobservable axis). The slow
# profile's peak speed is half its 5 mm/s speed cap, and its jitter is kept
# small enough that its velocity contribution respects that cap.
_PROFILES = {
    "slow_incremental": (0.0025, 0.05, 3, (0.01, 0.05), (0.02, 0.08), 2e-5, 2e-4),
    "comprehensive_scan": (0.025, 0.30, 4, (0.03, 0.10), (0.06, 0.20), 1e-3, 1e-2),
    "fast_complex": (0.045, 0.60, 5, (0.05, 0.18), (0.10, 0.30), 2e-3, 2e-2),
}
MOTION_PROFILES = tuple(_PROFILES)

# Rotation amplitude caps (rad): roll, pitch, yaw. Roll (the rotation about
# the capsule's magnetic axis) is kept near zero: it is the magnetically
# unobservable degree of freedom, and a magnetically steered capsule is not
# actuated about its own dipole axis. Pitch/yaw stay modest so the attitude
# path's spherical holonomy stays small, and far from the gimbal branch at
# pi/2.
_ROT_AMP_CAP = np.array([0.02, 0.30, 0.35])

_JITTER_TAU = 0.5  # s, correlation time of the actuation jitter


@dataclass(frozen=True)
class SimConfig:
    duration: float = 60.0
    seed: int = 0
    motion_profile: str = "comprehensive_scan"
    workspace_half_extent: float = 0.1
    workspace_center: tuple = (0.0, 0.0, -0.08)
    mag_rate: float = 50.0
    vis_rate: float = 25.0
    mag_noise_sd: float = 5e-7
    vis_trans_noise_sd: float = 2e-4
    vis_rot_noise_sd: float = 2e-3
    vis_drift_rate: float = 0.02
    # Rotational drift of the emulated visual odometry: a scale-like bias on
    # each rotational increment. Visual odometry drifts much harder in
    # rotation than in translation (poor texture, small baselines), hence
    # the larger default.
    vis_rot_drift_rate: float = 0.2
    # Fixed instrument bias of the emulated visual odometry: a constant
    # additive offset on every body-frame increment (m/s along the body
    # forward axis, rad/s about the pitch axis). Integrated open loop it
    # produces drift that grows linearly with time regardless of the motion,
    # which is the classic failure mode of monocular odometry from a poorly
    # calibrated camera. Being constant across recordings, it is exactly the
    # kind of systematic error a learned fusion can calibrate away.
    vis_trans_bias_rate: float = 1.2e-3
    vis_rot_bias_rate: float = 6e-3
    # Actuation jitter: a stationary Ornstein-Uhlenbeck perturbation of the
    # pose (per-profile amplitude, scaled by jitter_scale). Its step-to-step
    # innovations are white and larger than the per-frame sensor noise, so
    # the fine structure of the motion cannot be extrapolated from history
    # alone — it must be read off the sensors.
    jitter_scale: float = 1.0
    # Actuator field: uniform component (T) plus linear gradient (T/m).
    actuator_uniform: tuple = (2e-6, -1e-6, 3e-6)
    actuator_gradient: tuple = (1e-5, -2e-5, 3e-5)

    def __post_init__(self):
        require_finite(self)
        for name in ("mag_noise_sd", "vis_trans_noise_sd", "vis_rot_noise_sd"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        if self.mag_rate <= 0 or self.vis_rate <= 0:
            raise ValueError("rates must be positive")
        # One visual frame at least, and so one magnetic frame at least.
        if round(self.duration * self.vis_rate) < 1:
            raise ValueError(f"duration {self.duration!r} s holds no frame at vis_rate "
                             f"{self.vis_rate!r} Hz: duration * vis_rate must round to >= 1")
        ratio = self.mag_rate / self.vis_rate
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("mag_rate must be an integer multiple of vis_rate")
        # At ratio 1 the last two visual frames would clamp to one
        # ground-truth time and give a zero-length visual interval.
        if self.rate_ratio < 2:
            raise ValueError(f"mag_rate {self.mag_rate!r} Hz must be at least twice vis_rate "
                             f"{self.vis_rate!r} Hz: the ground truth ends one magnetic period "
                             "before the last visual frame")
        if self.motion_profile not in MOTION_PROFILES:
            raise ValueError(f"unknown motion profile {self.motion_profile!r}")

    @property
    def rate_ratio(self) -> int:
        return int(round(self.mag_rate / self.vis_rate))


@dataclass(frozen=True)
class DipoleParams:
    # At the 6-11 cm standoff the field barely clears the 5e-7 T noise: the
    # noiseless peak |b_z| over the array is about 6.4 sd at 6 cm depth,
    # 2.7 at 8 cm, 1.4 at 10 cm and 1.1 at 11 cm (median over the frames of
    # a comprehensive_scan stream). One frame then fixes the position to a
    # few millimetres near the array but only to centimetres at depth, so the
    # streaming localizer filters positions across frames (see magloc).
    moment_magnitude: float = 8e-3  # A m^2
    moment_axis: tuple = (1.0, 0.0, 0.0)  # body frame, unit

    def __post_init__(self):
        require_finite(self)
        axis = np.asarray(self.moment_axis, dtype=float).reshape(3)
        if self.moment_magnitude <= 0:
            raise ValueError("moment_magnitude must be positive")
        if abs(np.linalg.norm(axis) - 1.0) > 1e-12:
            raise ValueError("moment_axis must be unit-norm")
        object.__setattr__(self, "moment_axis", tuple(axis))


class ActuatorFieldModel:
    """Known actuator field: uniform component plus linear gradient.

    B(p) = b0 + G * p with diagonal gradient coefficients g.
    """

    def __init__(self, uniform=(0.0, 0.0, 0.0), gradient=(0.0, 0.0, 0.0)):
        self.uniform = np.asarray(uniform, dtype=float).reshape(3)
        self.gradient = np.asarray(gradient, dtype=float).reshape(3)

    def field(self, points) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        return self.uniform + self.gradient * p

    @staticmethod
    def from_config(cfg: SimConfig) -> "ActuatorFieldModel":
        return ActuatorFieldModel(cfg.actuator_uniform, cfg.actuator_gradient)


@dataclass
class HallArrayReading:
    timestamp: float
    values: np.ndarray  # (8, 8) tesla, z-component per sensor

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).reshape(
            SENSOR_GRID_N, SENSOR_GRID_N
        )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite Hall reading")


@dataclass
class VisMeasurement:
    timestamp: float
    delta: Pose  # frame-to-frame motion in the previous camera frame


def _build_sensor_positions() -> np.ndarray:
    idx = (np.arange(SENSOR_GRID_N) - (SENSOR_GRID_N - 1) / 2.0) * SENSOR_PITCH
    xx, yy = np.meshgrid(idx, idx, indexing="ij")
    pos = np.zeros((SENSOR_GRID_N, SENSOR_GRID_N, 3))
    pos[:, :, 0] = xx
    pos[:, :, 1] = yy
    pos.flags.writeable = False
    return pos


# Built once: the residual of every inversion step reads the geometry.
_SENSOR_POSITIONS = _build_sensor_positions()


def sensor_positions() -> np.ndarray:
    """(8, 8, 3) world positions of the Hall sensors (fixed geometry).

    The array is shared and read-only."""
    return _SENSOR_POSITIONS


def _seeded_sinusoids(rng, n_terms, amp_budget, freq_range):
    """Coefficients for a sum of sinusoids with total amplitude <= amp_budget."""
    raw = rng.uniform(0.3, 1.0, size=n_terms)
    amps = raw / raw.sum() * amp_budget
    freqs = rng.uniform(*freq_range, size=n_terms)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_terms)
    return amps, freqs, phases


def _eval_sinusoids(t, amps, freqs, phases):
    t = np.asarray(t, dtype=float)[:, None]
    return np.sum(amps * np.sin(2.0 * np.pi * freqs * t + phases), axis=1)


def generate_trajectory(cfg: SimConfig) -> Trajectory:
    """Smooth seeded C1 path: sums of low-frequency sinusoids per DoF.

    Sampled at mag_rate; deterministic for a fixed (config, seed).
    """
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x5117]))
    (v_peak, w_peak, n_terms, freq_range, rot_freq_range,
     pos_sd, rot_sd) = _PROFILES[cfg.motion_profile]

    n = int(round(cfg.duration * cfg.mag_rate))
    times = np.arange(n) / cfg.mag_rate
    poses = np.zeros((n, 6))

    # Per DoF, translation axes then rotation axes: an amplitude budget
    # bounded by both the workspace size (or rotation cap) and the
    # peak-speed budget (speed of A sin(2 pi f t) is 2 pi f A).
    trans_cap = 0.55 * cfg.workspace_half_extent
    dofs = [(trans_cap, v_peak, freq_range)] * 3 + [
        (cap, w_peak, rot_freq_range) for cap in _ROT_AMP_CAP
    ]
    for dof, (amp_cap, peak, f_range) in enumerate(dofs):
        f_mid = np.mean(f_range)
        amp_budget = min(amp_cap, peak / (2.0 * np.pi * f_mid * np.sqrt(3.0)))
        amps, freqs, phases = _seeded_sinusoids(rng, n_terms, amp_budget, f_range)
        poses[:, dof] = _eval_sinusoids(times, amps, freqs, phases)
    poses[:, :3] += cfg.workspace_center

    # Actuation jitter: stationary Ornstein-Uhlenbeck perturbations on the
    # position axes and the two non-roll rotation axes. Sinusoids alone are
    # predictable from history, so a recurrent estimator could track them
    # without consulting its inputs; the jitter's white innovations exceed
    # the per-frame sensor noise, making measurement use the only way to
    # follow the fine structure of the motion.
    sds = cfg.jitter_scale * np.array([pos_sd, pos_sd, pos_sd, 0.0, rot_sd, rot_sd])
    dt = 1.0 / cfg.mag_rate
    decay = np.exp(-dt / _JITTER_TAU)
    innov = np.sqrt(1.0 - decay * decay)
    noise = rng.normal(size=(n, 6)) * sds
    jitter = np.empty((n, 6))
    jitter[0] = noise[0]  # draw the stationary distribution directly
    for k in range(1, n):
        jitter[k] = decay * jitter[k - 1] + innov * noise[k]
    poses += jitter

    return Trajectory(times, poses)


def _dipole_fields(t, euler, dipole: DipoleParams, points) -> np.ndarray:
    """Point-dipole fields (n, q, 3) at points (q, 3) of n capsules at
    positions t (n, 3) with wrapped Euler angles euler (n, 3), tesla."""
    m = dipole.moment_magnitude * (
        euler_to_matrix(euler) @ np.asarray(dipole.moment_axis)
    )
    r = points - t[:, None, :]
    dist = np.linalg.norm(r, axis=-1)
    if np.any(dist <= EXCLUSION_RADIUS):
        raise ValueError("query point within 1 mm of the dipole")
    r /= dist[..., None]  # rhat
    return (
        MU0_OVER_4PI * (3.0 * (r @ m[:, :, None]) * r - m[:, None, :])
        / dist[..., None] ** 3
    )


def dipole_field(capsule_pose: Pose, dipole: DipoleParams, query_point) -> np.ndarray:
    """Point-dipole field at query_point (world), tesla.

    B(r) = (mu0 / 4 pi) (3 (m.rhat) rhat - m) / |r|^3

    A test oracle (the field tests and sample_hall_array);
    simulate_mag_stream evaluates _dipole_fields over batches of frames.
    """
    q = np.asarray(query_point, dtype=float)
    B = _dipole_fields(capsule_pose.t[None], capsule_pose.r[None], dipole,
                       np.atleast_2d(q))[0]
    return B[0] if q.ndim == 1 else B


def sample_hall_array(
    capsule_pose: Pose,
    dipole: DipoleParams,
    actuator: ActuatorFieldModel,
    t: float,
    noise_sd: float,
    rng,
) -> HallArrayReading:
    """One 8x8 reading: normal (z) component of dipole + actuator field + noise.
    A test oracle (criterion 4 and the solver tests); no pipeline path
    calls it."""
    pos = sensor_positions().reshape(-1, 3)
    bz = dipole_field(capsule_pose, dipole, pos)[:, 2]
    bz = bz + actuator.field(pos)[:, 2]
    if noise_sd > 0:
        bz = bz + rng.normal(0.0, noise_sd, size=bz.shape)
    return HallArrayReading(t, bz.reshape(SENSOR_GRID_N, SENSOR_GRID_N))


# Frames per batched field evaluation in simulate_mag_stream: bounds its
# temporaries to a few hundred kB however long the stream.
_FIELD_CHUNK = 256


def simulate_mag_stream(
    gt: Trajectory, cfg: SimConfig, dipole: DipoleParams, rng
) -> list:
    """Hall readings at k / mag_rate for every ground-truth sample time.

    The fields of all frames are evaluated in batches and the noise drawn in
    one call; each reading equals sample_hall_array's at that pose."""
    pos = sensor_positions().reshape(-1, 3)
    t, euler = gt.poses[:, :3], wrap_angle(gt.poses[:, 3:])  # as Pose wraps
    bz = np.empty((len(gt), len(pos)))
    for k in range(0, len(gt), _FIELD_CHUNK):
        rows = slice(k, k + _FIELD_CHUNK)
        bz[rows] = _dipole_fields(t[rows], euler[rows], dipole, pos)[..., 2]
    bz += ActuatorFieldModel.from_config(cfg).field(pos)[:, 2]
    if cfg.mag_noise_sd > 0:
        bz += rng.normal(0.0, cfg.mag_noise_sd, size=bz.shape)
    grids = bz.reshape(-1, SENSOR_GRID_N, SENSOR_GRID_N)
    return [HallArrayReading(stamp, v) for stamp, v in zip(gt.times, grids)]


def emulate_evo_stream(gt: Trajectory, cfg: SimConfig, rng) -> list:
    """Visual-odometry deltas at vis_rate: each ground-truth delta plus
    three error sources, a scale-like drift (vis_drift_rate and
    vis_rot_drift_rate, with a seeded slowly-varying part along a fixed
    direction), a constant instrument bias (vis_trans_bias_rate and
    vis_rot_bias_rate) and Gaussian noise (vis_trans_noise_sd and
    vis_rot_noise_sd).

    With all three zero, integrating the deltas reproduces gt exactly.
    """
    n = int(round(cfg.duration * cfg.vis_rate))
    ts = np.arange(n + 1) / cfg.vis_rate
    # The ground truth is sampled on [0, duration); clamp the final query.
    poses = resample_trajectory(gt, np.minimum(ts, gt.times[-1])).poses

    drift_dir = rng.normal(size=3)
    drift_dir /= np.linalg.norm(drift_dir)
    drift_freq = rng.uniform(0.01, 0.03)
    drift_phase = rng.uniform(0.0, 2.0 * np.pi)

    # Constant per-increment instrument bias (see SimConfig).
    t_bias = np.array([cfg.vis_trans_bias_rate / cfg.vis_rate, 0.0, 0.0])
    r_const = np.array([0.0, cfg.vis_rot_bias_rate / cfg.vis_rate, 0.0])

    delta = relative_pose(poses[:-1], poses[1:])
    dt, dr = delta[:, :3], delta[:, 3:]
    # Row norms through matmul round as np.linalg.norm of one 3-vector does.
    step_len = np.sqrt((dt[:, None, :] @ dt[:, :, None])[:, 0, 0])
    # Drift: dominant component scales the motion itself; a smaller
    # seeded slowly-varying component pushes along a fixed direction.
    slow = 0.15 * np.sin(2.0 * np.pi * drift_freq * ts[1:] + drift_phase)
    bias = cfg.vis_drift_rate * (dt + (step_len * slow)[:, None] * drift_dir) + t_bias
    # Rotation drifts the same way: a scale-like bias on each rotational
    # increment, so integrated attitude error grows with rotation traveled.
    r_bias = cfg.vis_rot_drift_rate * dr + r_const
    # Per step, three translation draws then three rotation draws.
    sd = np.array([[cfg.vis_trans_noise_sd], [cfg.vis_rot_noise_sd]])
    noise = rng.normal(0.0, sd, size=(len(delta), 2, 3))
    t_out = dt + bias + noise[:, 0]
    r_out = wrap_angle(dr + r_bias + noise[:, 1])
    return [
        VisMeasurement(float(t), Pose(tv, rv))
        for t, tv, rv in zip(ts[1:], t_out, r_out)
    ]


@dataclass
class Dataset:
    config: SimConfig
    dipole: DipoleParams
    gt: Trajectory
    mag: list  # of HallArrayReading
    vis: list  # of VisMeasurement


def simulate_dataset(cfg: SimConfig, dipole: DipoleParams | None = None) -> Dataset:
    """Full seeded dataset: gt + 50 Hz Hall readings + 25 Hz EVO deltas."""
    dipole = dipole or DipoleParams()
    gt = generate_trajectory(cfg)
    rng_mag = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xA6]))
    rng_vis = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xE7]))
    mag = simulate_mag_stream(gt, cfg, dipole, rng_mag)
    vis = emulate_evo_stream(gt, cfg, rng_vis)
    return Dataset(cfg, dipole, gt, mag, vis)


FORMAT_VERSION = "capsloc-dataset v1"


def write_dataset(path, ds: Dataset) -> None:
    with open(path, "w") as f:
        f.write(format_header(FORMAT_VERSION, ds.config, ds.dipole))
        for t, p in zip(ds.gt.times, ds.gt.poses):
            f.write("GT " + " ".join(repr(float(v)) for v in (t, *p)) + "\n")
        for m in ds.mag:
            vals = " ".join(repr(float(v)) for v in m.values.ravel())
            f.write(f"MAG {float(m.timestamp)!r} {vals}\n")
        for v in ds.vis:
            vals = " ".join(repr(float(x)) for x in v.delta.as_vector())
            f.write(f"VIS {float(v.timestamp)!r} {vals}\n")


def read_dataset(path) -> Dataset:
    """Parse a write_dataset file with read_text_file. Every record must be
    finite, each GT, MAG and VIS record must come strictly after the
    previous one of its kind, and there must be a GT record."""
    gt_t, gt_p, mag, vis = [], [], [], []
    last_t = {}  # record kind -> timestamp of its previous record

    def record(words, _header):
        kind = words[0]
        vals = [float(x) for x in words[1:]]
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"{kind} record has a non-finite value")
        if kind == "GT":
            if len(vals) != 7:
                raise ValueError("GT record needs 7 fields")
            gt_t.append(vals[0])
            gt_p.append(vals[1:])
        elif kind == "MAG":
            if len(vals) != 1 + SENSOR_GRID_N**2:
                raise ValueError("MAG record needs 65 fields")
            mag.append(HallArrayReading(vals[0], np.array(vals[1:])))
        elif kind == "VIS":
            if len(vals) != 7:
                raise ValueError("VIS record needs 7 fields")
            vis.append(VisMeasurement(vals[0], Pose(vals[1:4], vals[4:])))
        else:
            raise ValueError(f"unknown record kind {kind!r}")
        if vals[0] <= last_t.get(kind, -math.inf):
            raise ValueError(
                f"{kind} record at t={vals[0]!r} does not follow the "
                f"previous {kind} record at t={last_t[kind]!r}"
            )
        last_t[kind] = vals[0]

    cfg, dipole = read_text_file(path, FORMAT_VERSION, (SimConfig, DipoleParams), record)
    if not gt_t:
        raise ValueError(f"{path}: dataset has no GT record")
    return Dataset(cfg, dipole, Trajectory(np.array(gt_t), np.array(gt_p)), mag, vis)
