"""5-DoF magnetic localization from Hall-array readings.

Pipeline per frame: subtract the known actuator field, then fit the point
dipole model to the residual cells by Levenberg-Marquardt over the
position p and the unit heading h of the dipole axis. Rotation of the
capsule about its own dipole axis is unobservable, hence 5 DoF. A
second-order directional difference of the residual grid serves as an
outlier gate on streaming input.

The heading is a unit vector everywhere in this module: the grid search's
candidates, every Levenberg-Marquardt iterate and the estimate. A step is
(dp, a, b), applied as p + dp and h <- normalize(h + a b1 + b b2), where
(b1, b2) is an orthonormal basis of the plane tangent to h. No heading is
a singular point of this step.

The fit stops on its step, not its cost: once the next step is shorter
than _STEP_TOL standard deviations of the fit's own covariance
sigma^2 (J^T J)^-1, sigma^2 = r.r / (64 - 5). The residual of a noisy
reading is sensor noise, so Gauss-Newton converges only linearly, and
iterating on to a relative cost change of rounding size would move the
estimate by a small fraction of that sd per iteration.

One frame's data fixes the position only to within its noise: a few
millimetres near the array, centimetres at 10 cm depth. On a stream, a
causal Kalman filter therefore pools the per-frame position fits, each
weighted by its covariance sigma^2 (J^T J)^-1, under a constant-position
motion model whose process sd is _MAX_SPEED times the frame interval.
Well-determined fits pass through almost unchanged; only poorly determined
ones are pulled towards the track.

The residual Jacobian is the closed-form derivative of the dipole b_z
model with respect to (p, a, b); finite differences serve only as a test
oracle. b_z is linear in the moment m = M h, and h moves along b1 and b2
to first order, so b_z and its two heading derivatives are one form,
C / d^5 (3 r_z (e.r) - e_z d^2) at e = m, M b1 and M b2.

One kernel (_lm_rows) serves every use of the model on the fit's path.
In one pass per Levenberg-Marquardt trial it fills a (6, 64) array whose
rows are J^T and the residual, sharing d^2, C / d^5 and the three e.r
(one (3, 3) @ (3, 64) product) between them, and returns the array with
its Gram matrix [J r]^T [J r]: the normal equations J^T J, J^T r and the
cost r.r are slices of that one 6 x 6 product. Its sensor offsets are two
(64,) vectors and one scalar, since every sensor lies at z = 0. The fit
returns its final rows: the outlier gate reads their residual and the
filter's covariance their J^T J, so nothing evaluates the model again
after the fit, except at the carried pose of a diverged frame and at a
reflected fit. As every sensor lies at z = 0, b_z is the same at a pose
(x, y, z), (h_x, h_y, h_z) and at its mirror (x, y, -z), (-h_x, -h_y, h_z);
the capsule lies below the array, so a fit that ends above it is reflected.
predict_normal_components writes the closed form out on d^2 with its own
operation order, and equals the kernel's b_z up to rounding.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .simkit import (
    MU0_OVER_4PI,
    SENSOR_GRID_N,
    ActuatorFieldModel,
    Dataset,
    DipoleParams,
    HallArrayReading,
    sensor_positions,
)

__all__ = [
    "MagMeasurement5DoF",
    "subtract_actuator_field",
    "directional_second_difference",
    "predict_normal_components",
    "estimate_pose_5dof",
    "grid_search_init",
    "position_covariance",
    "localize_stream",
    "localize_dataset",
]


def _norm(x) -> float:
    """Euclidean norm of a 1-D array; rounds as np.linalg.norm does."""
    return np.sqrt(x @ x)


@dataclass
class MagMeasurement5DoF:
    timestamp: float
    position: np.ndarray  # (3,) m, world
    heading: np.ndarray  # (3,) unit, dipole axis direction in world
    converged: bool = True
    residual: float = 0.0
    # Levenberg-Marquardt iterations of the fit, counting the one whose
    # solve stopped it.
    iterations: int = 0

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float).reshape(3)
        if not np.isfinite(self.position).all():
            raise ValueError("position must be finite")
        h = np.asarray(self.heading, dtype=float).reshape(3)
        n = _norm(h)
        if not abs(n - 1.0) <= 1e-9:  # also false for a non-finite heading
            raise ValueError("heading must be finite and unit-norm")
        self.heading = h / n


# Levenberg-Marquardt: iterations after which a fit fails, the length of
# the next step, in standard deviations of the fit's own covariance, under
# which it stops, and its starting damping. A failed fit is not retried.
_MAX_ITERATIONS = 60
_STEP_TOL = 0.01
_INITIAL_DAMPING = 1e-3

# A streamed frame is gated when its differentiated fit residual exceeds
# this multiple of the median over the last _GATE_HISTORY frames.
_OUTLIER_GATE = 5.0
_GATE_HISTORY = 200

# (64, 3) sensor positions, read by every model evaluation.
_SENSORS = sensor_positions().reshape(-1, 3)


def _tangent_basis(h) -> np.ndarray:
    """(2, 3) orthonormal basis (b1, b2) of the plane tangent to the unit
    vector h, branching only on the sign of h_z (Duff et al., "Building an
    orthonormal basis, revisited", JCGT 2017)."""
    x, y, z = h.tolist()
    s = math.copysign(1.0, z)
    a = -1.0 / (s + z)
    b = x * y * a
    return np.array([[1.0 + s * x * x * a, s * b, -s * x], [b, s + y * y * a, -y]])


def _retract(h, basis, ab) -> np.ndarray:
    """normalize(h + a b1 + b b2): unit heading h moved by the tangent
    coefficients ab = (a, b) along basis = _tangent_basis(h)."""
    v = h + ab @ basis
    return v / _norm(v)


def subtract_actuator_field(
    reading: HallArrayReading, actuator: ActuatorFieldModel
) -> HallArrayReading:
    """The reading less the actuator field's z component at each sensor. A
    test oracle (the subtraction tests, estimate_pose_5dof and
    grid_search_init); localize_stream subtracts the same field itself."""
    bz = actuator.field(_SENSORS)[:, 2].reshape(SENSOR_GRID_N, SENSOR_GRID_N)
    return HallArrayReading(reading.timestamp, reading.values - bz)


def directional_second_difference(v: np.ndarray) -> np.ndarray:
    """Discrete second difference across an (8, 8) grid (Laplacian stencil).

    Interior cells use the 4-neighbor stencil; edge cells use one-sided
    second differences, so any constant-plus-linear field maps to zero.
    """

    def second_diff_rows(a):
        out = np.empty_like(a)
        out[1:-1] = a[2:] - 2.0 * a[1:-1] + a[:-2]
        out[0] = a[2] - 2.0 * a[1] + a[0]
        out[-1] = a[-1] - 2.0 * a[-2] + a[-3]
        return out

    return second_diff_rows(v) + second_diff_rows(v.T).T


# The sensors' x and y coordinates as two contiguous (64,) vectors. Every
# sensor lies in the plane z = 0, so each one's offset from the dipole at
# depth z has the same z component, -z.
_SX, _SY = (np.ascontiguousarray(c) for c in _SENSORS[:, :2].T)


def _lm_rows(position, heading, basis, target_flat, moment_magnitude):
    """The dipole model's Levenberg-Marquardt rows at position p and unit
    heading h, in one pass.

    Returns (A, W). A (6, 64) holds J^T, the closed-form Jacobian of b_z
    with respect to p and to the coefficients (a, b) of a heading step
    along basis = (b1, b2) = _tangent_basis(h), as rows 0-4, and the
    residual r = b_z - target_flat as row 5; W = A A^T, so W[:5, :5] =
    J^T J, W[:5, 5] = J^T r and W[5, 5] = r.r.

    With the sensor offset r = s - p = (rx, ry, rz), d = |r| and the
    moment m = M h, every row is C / d^5 times:
        d/dp:             q r - 3 rz m - 3 (m.r) e_z,
                          q = 15 (m.r) rz / d^2 - 3 m_z
        d/da, d/db, b_z:  3 rz (e.r) - e_z d^2  at e = M b1, M b2, m"""
    x, y, z = position.tolist()
    rz = -z
    A = np.empty((6, _SX.size))
    r = A[:3]  # views: the offsets, until they are overwritten by d/dp
    np.subtract(_SX, x, out=r[0])
    np.subtract(_SY, y, out=r[1])
    r[2] = rz
    d2 = r[0] * r[0] + r[1] * r[1] + rz * rz
    E = np.empty((3, 3))  # rows M b1, M b2, m
    E[:2] = basis
    E[2] = heading
    E *= moment_magnitude
    er3 = E @ r
    er3 *= 3.0  # 3 e.r for each row e of E
    np.multiply(er3, rz, out=A[3:])
    A[3:] -= E[:, 2:] * d2
    mdotr3 = er3[2]  # 3 m.r
    q = mdotr3 * (5.0 * rz) / d2 - 3.0 * E[2, 2]
    r *= q
    r -= (3.0 * rz) * E[2, :, None]
    r[2] -= mdotr3
    A *= MU0_OVER_4PI / (d2 * d2 * np.sqrt(d2))  # C / d^5
    A[5] -= target_flat
    return A, A @ A.T


def predict_normal_components(
    position: np.ndarray, heading: np.ndarray, dipole: DipoleParams
) -> np.ndarray:
    """z-component of the dipole field at all 64 sensors for a dipole at
    position with unit heading. Vectorized closed form, no Pose
    construction. A test oracle for the fit's kernel, _lm_rows; no pipeline
    path calls it."""
    m = dipole.moment_magnitude * np.asarray(heading, dtype=float)
    r = _SENSORS - position
    d2 = np.sum(r * r, axis=1)
    mdotr = r @ m
    return MU0_OVER_4PI * (3.0 * mdotr * r[:, 2] - m[2] * d2) / (d2 * d2 * np.sqrt(d2))


def _moment_gain(r, d2, scale):
    """db_z/dm = C (3 r_z r - d^2 e_z) / d^5 at sensor offsets r (..., 3)
    with squared lengths d2 (..., 1) and scale = C / d^5 (..., 1); b_z is
    linear in the moment m."""
    G = 3.0 * r[..., 2:] * r
    G[..., 2:] -= d2
    G *= scale
    return G


def _levenberg_marquardt(p0, h0, target_flat, dipole):
    """Fit position and heading to target_flat from (p0, h0).

    Returns (p, h, A, W, iterations, converged): A and W are _lm_rows at
    (p, h), so A[5] is the residual and W[5, 5] its squared norm. Each
    trial evaluates _lm_rows once, in the tangent basis of its own heading,
    and an iteration reads its normal equations from the W of the trial
    accepted last.

    The fit converges when a solve's step delta, at the damping of the
    moment, satisfies delta.(-J^T r) <= _STEP_TOL^2 sigma^2, with sigma^2 =
    r.r / (n - 5) over the n cells: as (J^T J + lam D) delta = -J^T r, the
    left side bounds delta^T J^T J delta, so the step is then under
    _STEP_TOL standard deviations of the fit's covariance sigma^2 (J^T J)^-1.
    The fit returns the pose it stands at, without taking that step. It
    also converges, stalled at a minimum, when 25 damping increases in one
    iteration find no lower cost, and fails after _MAX_ITERATIONS.
    iterations counts the iteration that stopped it."""
    M = dipole.moment_magnitude
    dof = target_flat.size - 5
    p, h = p0.copy(), h0
    basis = _tangent_basis(h)
    A, W = _lm_rows(p, h, basis, target_flat, M)
    lam = _INITIAL_DAMPING
    for iters in range(1, _MAX_ITERATIONS + 1):
        cost = W[5, 5]
        neg_g = -W[:5, 5]
        H = W[:5, :5]
        D = H.diagonal()  # Marquardt scaling
        tol = _STEP_TOL * _STEP_TOL * cost / dof
        for _ in range(25):
            A_damped = H.copy()
            A_damped.ravel()[::6] += lam * D  # H + lam diag(D)
            try:
                delta = np.linalg.solve(A_damped, neg_g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            if delta @ neg_g <= tol:
                return p, h, A, W, iters, True
            p_trial = p + delta[:3]
            h_trial = _retract(h, basis, delta[3:])
            basis_trial = _tangent_basis(h_trial)
            A_trial, W_trial = _lm_rows(p_trial, h_trial, basis_trial, target_flat, M)
            if W_trial[5, 5] < cost:
                p, h, basis, A, W = p_trial, h_trial, basis_trial, A_trial, W_trial
                lam = max(lam / 10.0, 1e-14)
                break
            lam *= 10.0
        else:
            return p, h, A, W, iters, True  # stalled at a minimum
    return p, h, A, W, _MAX_ITERATIONS, False


def estimate_pose_5dof(
    reading: HallArrayReading,
    actuator: ActuatorFieldModel,
    dipole: DipoleParams,
    init: MagMeasurement5DoF,
) -> MagMeasurement5DoF:
    """Levenberg-Marquardt fit of position + heading to one reading, from
    init. A fit that runs out of iterations returns where it stopped, with
    converged=False. A test oracle (criterion 4 and the solver tests); no
    pipeline path calls it."""
    target = subtract_actuator_field(reading, actuator).values.ravel()
    return _fit_5dof(target, reading.timestamp, dipole, init)[0]


def _fit_5dof(target, timestamp, dipole, init):
    """estimate_pose_5dof on an actuator-free, flattened reading: one
    Levenberg-Marquardt fit from init, reflected below the array if it ends
    above it.

    Returns (estimate, A, W): _lm_rows at the estimate's pose, that of the
    fit or its mirror, so A[5] is the estimate's residual vector."""
    p, h, A, W, iters, ok = _levenberg_marquardt(init.position, init.heading, target, dipole)
    if p[2] > 0.0:
        p, h = p * [1.0, 1.0, -1.0], h * [-1.0, -1.0, 1.0]
        A, W = _lm_rows(p, h, _tangent_basis(h), target, dipole.moment_magnitude)
    est = MagMeasurement5DoF(
        timestamp, p, h, converged=ok, residual=float(np.sqrt(W[5, 5])), iterations=iters
    )
    return est, A, W


def grid_search_init(
    reading: HallArrayReading,
    actuator: ActuatorFieldModel,
    dipole: DipoleParams,
    workspace_center,
    workspace_half_extent: float,
) -> MagMeasurement5DoF:
    """Coarse init: 5x5x3 position grid x 26 heading directions, lowest residual.
    A test oracle; no pipeline path calls it."""
    target = subtract_actuator_field(reading, actuator).values.ravel()
    return _grid_search(
        target, reading.timestamp, dipole, workspace_center, workspace_half_extent
    )


# The grid search's 26 unit headings (26, 3): the directions towards a cube
# cell's neighbours, in dx, dy, dz order.
_GRID_HEADINGS = np.array([
    np.divide(d, np.linalg.norm(d))
    for d in itertools.product((-1, 0, 1), repeat=3)
    if any(d)
])


def _grid_search(target, timestamp, dipole, workspace_center, workspace_half_extent):
    """grid_search_init on an actuator-free, flattened reading.

    Every (position, heading) candidate is evaluated at once; argmin keeps
    the first of equal costs in x, y, z, heading order."""
    c = np.asarray(workspace_center, dtype=float)
    he = workspace_half_extent
    xs = np.linspace(c[0] - he, c[0] + he, 5)
    ys = np.linspace(c[1] - he, c[1] + he, 5)
    zs = np.linspace(c[2] - 0.6 * he, c[2] + 0.6 * he, 3)
    pos = np.stack(np.meshgrid(xs, ys, zs, indexing="ij"), axis=-1).reshape(-1, 3)
    pos = pos[pos[:, 2] <= -0.01]
    m = dipole.moment_magnitude * _GRID_HEADINGS
    r = _SENSORS - pos[:, None, :]  # (P, 64, 3)
    d2 = np.sum(r * r, axis=2, keepdims=True)
    G = _moment_gain(r, d2, MU0_OVER_4PI / (d2 * d2 * np.sqrt(d2)))
    diff = np.einsum("psc,hc->phs", G, m)  # (P, 26, 64) b_z of every candidate
    diff -= target
    costs = np.einsum("phs,phs->ph", diff, diff)
    ip, ih = np.unravel_index(np.argmin(costs), costs.shape)
    return MagMeasurement5DoF(
        timestamp,
        pos[ip],
        _GRID_HEADINGS[ih],
        residual=float(np.sqrt(costs[ip, ih])),
    )


def position_covariance(
    est: MagMeasurement5DoF, target_flat, dipole: DipoleParams
) -> np.ndarray:
    """(3, 3) position covariance sigma^2 (J^T J)^-1 of one frame's fit.

    J is the residual Jacobian at the estimate, in the tangent basis of
    est.heading, and sigma^2 = residual^2 / (64 - 5), the noise variance
    the fit's own residual implies. The position block of (J^T J)^-1 does
    not depend on which basis spans the heading's tangent plane. Raises
    numpy.linalg.LinAlgError when J^T J is singular.

    J^T J is read from the same _lm_rows kernel as the fit's. On a stream,
    localize_stream reads it from the fit's own last kernel call instead,
    at Levenberg-Marquardt's final heading before the estimate renormalizes
    it, so the two differ in rounding only. This function is a test oracle
    that no pipeline path calls."""
    h = est.heading
    _, W = _lm_rows(est.position, h, _tangent_basis(h), target_flat, dipole.moment_magnitude)
    return _fit_covariance(W, est.residual, target_flat.size)


def _fit_covariance(W, residual, n_cells):
    """sigma^2 (J^T J)^-1 [:3, :3] with J^T J = W[:5, :5] from _lm_rows and
    sigma^2 = residual^2 / (n_cells - 5)."""
    sigma2 = residual**2 / (n_cells - 5)
    return sigma2 * np.linalg.inv(W[:5, :5])[:3, :3]


# Process sd of the streaming position filter per second of stream, per
# axis: a bound on how fast the capsule moves, taken from the fastest
# simulated motion (simkit's fast_complex profile), not fitted to any
# error metric. Its smooth path peaks at 0.045 m/s; its actuation jitter
# moves each axis by 0.55 mm sd per 20 ms frame, and three sd of that step
# is 0.083 m/s. The sum, 0.128 m/s, is 2.6 mm per frame at 50 Hz.
_MAX_SPEED = 0.128


class _GateWindow:
    """The outlier gate's last _GATE_HISTORY values, in arrival order and
    sorted: their median is the middle value, or the mean of the two middle
    values as np.median takes it, with no sort per frame."""

    def __init__(self):
        self.ring = deque()
        self.sorted = []

    def push(self, value: float) -> None:
        if len(self.ring) == _GATE_HISTORY:
            del self.sorted[bisect.bisect_left(self.sorted, self.ring.popleft())]
        self.ring.append(value)
        bisect.insort(self.sorted, value)

    def median(self) -> float:
        n = len(self.sorted)
        h = n // 2
        return self.sorted[h] if n % 2 else (self.sorted[h - 1] + self.sorted[h]) / 2


class _PositionTrack:
    """Causal Kalman filter on position: constant-position model with
    process sd _MAX_SPEED * dt between updates."""

    def __init__(self):
        self.x = None  # (3,) filtered position
        self.P = None  # (3, 3) its covariance
        self.t = None

    def predict(self, t: float) -> None:
        if self.P is not None:
            q = (_MAX_SPEED * (t - self.t)) ** 2
            self.P = self.P + q * np.eye(3)
        self.t = t

    def update(self, z: np.ndarray, R: np.ndarray) -> None:
        if self.P is None:
            self.x, self.P = z.copy(), R
            return
        K = np.linalg.solve(self.P + R, self.P).T  # P (P + R)^-1
        self.x = self.x + K @ (z - self.x)
        # Joseph form: stays symmetric positive definite under rounding.
        I_K = np.eye(3) - K
        self.P = I_K @ self.P @ I_K.T + K @ R @ K.T


def localize_stream(
    readings,
    actuator: ActuatorFieldModel,
    dipole: DipoleParams,
    workspace_center,
    workspace_half_extent: float,
    diagnostics_path=None,
) -> list:
    """Streaming inversion: frame k warm-started from frame k-1's fit, and
    positions filtered across frames.

    Each frame is fitted once on its own, as by estimate_pose_5dof; a
    failed fit is not retried. A diverged or gated frame carries the
    previous fit's pose forward, with its own residual and iterations, and
    has converged=False. The output position is that of a causal Kalman
    filter on position (see the module docstring): every converged frame's
    fit updates it with covariance sigma^2 (J^T J)^-1, J being the Jacobian
    Levenberg-Marquardt holds at the fit; a diverged or gated frame only
    advances its prediction. The heading, residual, iterations and
    converged flag are the frame's own, or the carried ones; the warm
    start and the outlier gate use the frame's own fit, never the filtered
    position. On
    noiseless readings the fit's covariance is ~0 and the filter returns
    the fitted positions unchanged.

    With diagnostics_path, one line per frame is written there: timestamp,
    iterations, residual, converged, the gate value and the filter's
    per-axis position sd after the frame (nan before the first update).
    Writing it changes no estimate.
    """
    out = []
    prev = None
    M = dipole.moment_magnitude
    gate_window = _GateWindow()
    actuator_bz = actuator.field(_SENSORS)[:, 2]
    track = _PositionTrack()
    diag = open(diagnostics_path, "w") if diagnostics_path else None
    try:
        for reading in readings:
            target = reading.values.ravel() - actuator_bz
            if prev is None:
                init = _grid_search(
                    target, reading.timestamp, dipole,
                    workspace_center, workspace_half_extent,
                )
            else:
                init = prev
            est, A, W = _fit_5dof(target, reading.timestamp, dipole, init)
            diverged = not est.converged and prev is not None
            if diverged:  # the gate reads the residual at the carried pose
                h = prev.heading
                A = _lm_rows(prev.position, h, _tangent_basis(h), target, M)[0]

            # Outlier gate: second-difference of the fit residual grid vs the
            # running median. Gated frames keep the previous estimate.
            resid_grid = -A[5].reshape(SENSOR_GRID_N, SENSOR_GRID_N)  # data - fit
            gate_val = float(_norm(directional_second_difference(resid_grid).ravel()))
            gated = False
            if len(gate_window.sorted) >= 10 and prev is not None:
                med = gate_window.median()
                gated = med > 0 and gate_val > _OUTLIER_GATE * med
            gate_window.push(gate_val)
            if diverged or gated:
                est = replace(est, position=prev.position, heading=prev.heading,
                              converged=False)

            track.predict(reading.timestamp)
            if est.converged:  # so est and W are the fit's
                try:
                    R = _fit_covariance(W, est.residual, target.size)
                    track.update(est.position, R)
                except np.linalg.LinAlgError:
                    pass  # no usable covariance: prediction only
            prev = est
            if track.x is not None:
                est = replace(est, position=track.x.copy())
            out.append(est)
            if diag is not None:
                sd = np.full(3, np.nan) if track.P is None else np.sqrt(np.diag(track.P))
                diag.write(
                    f"{est.timestamp!r} iterations={est.iterations} "
                    f"residual={est.residual!r} converged={int(est.converged)} "
                    f"gate={gate_val!r} pos_sd={','.join(repr(float(v)) for v in sd)}\n"
                )
    finally:
        if diag is not None:
            diag.close()
    return out


def localize_dataset(ds: Dataset, diagnostics_path=None) -> list:
    """localize_stream over a simulated dataset's magnetic stream, with the
    actuator field, workspace and dipole of that dataset."""
    return localize_stream(
        ds.mag,
        ActuatorFieldModel.from_config(ds.config),
        ds.dipole,
        workspace_center=ds.config.workspace_center,
        workspace_half_extent=ds.config.workspace_half_extent,
        diagnostics_path=diagnostics_path,
    )
