"""Windowed RGB-D alignment: sparse feature-correspondence energy for coarse
initialization, then dense photometric + point-to-plane refinement.

The total energy over a window of frames with per-frame rigid transforms
(frame 0 fixed to identity) is

    E = w_sparse * E_sparse + w_dense * (w_photo * E_photo + w_geo * E_geo)

Solver stages: (1) Gauss-Newton on E_sparse alone with analytic Jacobians,
(2) damped Gauss-Newton on the full energy. Rotation increments are
axis-angle vectors composed by right multiplication onto the current
estimate, which keeps the parameterization singularity-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import RigidTransform, compose, inverse, skew

__all__ = [
    "Frame",
    "CorrespondenceSet",
    "AlignmentState",
    "AlignmentWeights",
    "DegenerateInputError",
    "project",
    "unproject",
    "rotation_exp",
    "e_sparse",
    "e_photo",
    "e_geo",
    "e_align",
    "minimize_alignment",
    "render_synthetic_scene",
    "make_scene",
]


class DegenerateInputError(ValueError):
    """Too few / collinear correspondences for the sparse stage."""


@dataclass
class Frame:
    intensity: np.ndarray  # (H, W) luminance in [0, 1]
    depth: np.ndarray  # (H, W) meters; <= 0 marks invalid
    intrinsics: tuple  # (fx, fy, cx, cy)
    normals: np.ndarray = None  # (H, W, 3) unit, derived from depth

    def __post_init__(self):
        self.intensity = np.asarray(self.intensity, dtype=float)
        self.depth = np.asarray(self.depth, dtype=float)
        if self.intensity.shape != self.depth.shape:
            raise ValueError("intensity/depth shape mismatch")
        if self.normals is None:
            self.normals = normals_from_depth(self.depth, self.intrinsics)

    @property
    def shape(self):
        return self.intensity.shape


@dataclass
class CorrespondenceSet:
    """Pairs (i, j, P_i, P_j): the same scene point seen in frames i and j,
    expressed in each frame's camera coordinates."""

    pairs: list  # of (int, int, np.ndarray(3,), np.ndarray(3,))

    def __len__(self):
        return len(self.pairs)


@dataclass
class AlignmentState:
    transforms: list  # of RigidTransform, frame 0 fixed to identity

    def copy(self) -> "AlignmentState":
        return AlignmentState([RigidTransform(T.R.copy(), T.t.copy())
                               for T in self.transforms])


@dataclass(frozen=True)
class AlignmentWeights:
    w_sparse: float = 1.0
    w_dense: float = 1.0
    w_photo: float = 1.0
    w_geo: float = 10.0

    def __post_init__(self):
        vals = (self.w_sparse, self.w_dense, self.w_photo, self.w_geo)
        if any(v < 0 for v in vals):
            raise ValueError("weights must be nonnegative")
        if all(v == 0 for v in vals):
            raise ValueError("weights must not all be zero")


# Solver settings of minimize_alignment.
_MAX_SPARSE_ITERATIONS = 30
_MAX_DENSE_ITERATIONS = 15
_CONVERGENCE_TOL = 1e-12  # increment norm
_INITIAL_DAMPING = 1e-6
_PIXEL_STRIDE = 2  # dense-term subsampling
_FD_STEP = 1e-7  # finite-difference step for dense Jacobians


def project(point, intrinsics) -> np.ndarray:
    """Pinhole projection u = fx x / z + cx, v = fy y / z + cy."""
    p = np.asarray(point, dtype=float)
    fx, fy, cx, cy = intrinsics
    z = p[..., 2]
    if np.any(z <= 0):
        raise ValueError("point behind camera (z <= 0)")
    return np.stack([fx * p[..., 0] / z + cx, fy * p[..., 1] / z + cy], axis=-1)


def unproject(pixel, depth, intrinsics) -> np.ndarray:
    pix = np.asarray(pixel, dtype=float)
    fx, fy, cx, cy = intrinsics
    z = np.asarray(depth, dtype=float)
    x = (pix[..., 0] - cx) / fx * z
    y = (pix[..., 1] - cy) / fy * z
    return np.stack([x, y, z], axis=-1)


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


def normals_from_depth(depth, intrinsics) -> np.ndarray:
    """Unit normals from central differences of the unprojected point map,
    oriented toward the camera."""
    H, W = depth.shape
    us, vs = np.meshgrid(np.arange(W), np.arange(H))
    pts = unproject(np.stack([us, vs], axis=-1), depth, intrinsics)
    du = np.zeros_like(pts)
    dv = np.zeros_like(pts)
    du[:, 1:-1] = (pts[:, 2:] - pts[:, :-2]) / 2.0
    du[:, 0] = pts[:, 1] - pts[:, 0]
    du[:, -1] = pts[:, -1] - pts[:, -2]
    dv[1:-1, :] = (pts[2:, :] - pts[:-2, :]) / 2.0
    dv[0, :] = pts[1, :] - pts[0, :]
    dv[-1, :] = pts[-1, :] - pts[-2, :]
    n = np.cross(du, dv)
    norm = np.linalg.norm(n, axis=-1, keepdims=True)
    norm[norm == 0] = 1.0
    n = n / norm
    # Camera looks along +z; ensure normals face it.
    flip = n[..., 2] > 0
    n[flip] = -n[flip]
    return n


def bilinear_sample(img, u, v):
    """Bilinear lookup at float pixel coordinates; returns (values, valid)."""
    H, W = img.shape[:2]
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    valid = (u >= 0) & (u <= W - 1) & (v >= 0) & (v <= H - 1)
    uc = np.clip(u, 0, W - 1 - 1e-9)
    vc = np.clip(v, 0, H - 1 - 1e-9)
    u0 = np.floor(uc).astype(int)
    v0 = np.floor(vc).astype(int)
    fu = uc - u0
    fv = vc - v0
    u1 = np.minimum(u0 + 1, W - 1)
    v1 = np.minimum(v0 + 1, H - 1)
    vals = (
        img[v0, u0] * (1 - fu) * (1 - fv)
        + img[v0, u1] * fu * (1 - fv)
        + img[v1, u0] * (1 - fu) * fv
        + img[v1, u1] * fu * fv
    )
    return vals, valid


def e_sparse(state: AlignmentState, corr: CorrespondenceSet) -> float:
    """Sum of squared distances between transformed corresponding points."""
    total = 0.0
    for i, j, pi, pj in corr.pairs:
        d = state.transforms[i].apply(pi) - state.transforms[j].apply(pj)
        total += float(d @ d)
    return total


def _frame_pairs(n_frames: int, skip: int = 1):
    """Window pair set: consecutive and skip-1 pairs."""
    pairs = [(i, i + 1) for i in range(n_frames - 1)]
    if skip >= 1:
        pairs += [(i, i + 2) for i in range(n_frames - 2)]
    return pairs


def _dense_points(frame: Frame, stride: int):
    H, W = frame.shape
    vs, us = np.meshgrid(
        np.arange(0, H, stride), np.arange(0, W, stride), indexing="ij"
    )
    us = us.ravel()
    vs = vs.ravel()
    z = frame.depth[vs, us]
    ok = z > 0
    us, vs, z = us[ok], vs[ok], z[ok]
    pts = unproject(np.stack([us, vs], axis=-1).astype(float), z, frame.intrinsics)
    return us, vs, pts


def _dense_residuals(state, frames, stride, want_geo, want_photo):
    """Stacked photometric / point-to-plane residuals over the pair set.

    Out-of-bounds or invalid-depth reprojections are skipped (zero
    contribution) and reported through the validity ratio."""
    r_photo, r_geo = [], []
    total = 0
    valid_count = 0
    for i, j in _frame_pairs(len(frames)):
        fi, fj = frames[i], frames[j]
        us, vs, pts_i = _dense_points(fi, stride)
        T_ji = compose(inverse(state.transforms[j]), state.transforms[i])
        p_in_j = pts_i @ T_ji.R.T + T_ji.t
        front = p_in_j[:, 2] > 1e-9
        total += len(pts_i)
        if not np.any(front):
            continue
        us, vs, pts_i, p_in_j = us[front], vs[front], pts_i[front], p_in_j[front]
        uv_j = project(p_in_j, fj.intrinsics)
        if want_photo:
            int_j, ok_j = bilinear_sample(fj.intensity, uv_j[:, 0], uv_j[:, 1])
            int_i = fi.intensity[vs, us]
            res = np.where(ok_j, int_i - int_j, 0.0)
            r_photo.append(res)
            valid_count += int(np.sum(ok_j))
        if want_geo:
            dj, ok_d = bilinear_sample(fj.depth, uv_j[:, 0], uv_j[:, 1])
            ok_d = ok_d & (dj > 0)
            dj_safe = np.where(ok_d, dj, 1.0)
            q_j = unproject(uv_j, dj_safe, fj.intrinsics)
            T_ij = compose(inverse(state.transforms[i]), state.transforms[j])
            q_i = q_j @ T_ij.R.T + T_ij.t
            n_i = fi.normals[vs, us]
            res = np.einsum("ij,ij->i", n_i, pts_i - q_i)
            r_geo.append(np.where(ok_d, res, 0.0))
    r_photo = np.concatenate(r_photo) if r_photo else np.zeros(0)
    r_geo = np.concatenate(r_geo) if r_geo else np.zeros(0)
    ratio = valid_count / total if total else 1.0
    return r_photo, r_geo, ratio


def e_photo(state: AlignmentState, frames, stride: int = 1) -> float:
    rp, _, _ = _dense_residuals(state, frames, stride, want_geo=False, want_photo=True)
    return float(rp @ rp)


def e_geo(state: AlignmentState, frames, stride: int = 1) -> float:
    _, rg, _ = _dense_residuals(state, frames, stride, want_geo=True, want_photo=False)
    return float(rg @ rg)


def e_align(
    state: AlignmentState,
    frames,
    corr: CorrespondenceSet,
    weights: AlignmentWeights,
    stride: int = 1,
) -> float:
    total = weights.w_sparse * e_sparse(state, corr)
    if weights.w_dense > 0 and frames:
        dense = weights.w_photo * e_photo(state, frames, stride) + (
            weights.w_geo * e_geo(state, frames, stride)
        )
        total += weights.w_dense * dense
    return float(total)


def _check_correspondences(corr: CorrespondenceSet, n_frames: int):
    counts = {}
    for i, j, pi, pj in corr.pairs:
        if not (0 <= i < n_frames and 0 <= j < n_frames):
            raise DegenerateInputError("correspondence frame index out of window")
        counts.setdefault((min(i, j), max(i, j)), []).append(pi)
    for (i, j), pts in counts.items():
        if len(pts) < 3:
            raise DegenerateInputError(
                f"pair ({i},{j}) has {len(pts)} correspondences, need >= 3"
            )
        P = np.asarray(pts)
        if np.linalg.matrix_rank(P - P.mean(axis=0), tol=1e-12) < 2:
            raise DegenerateInputError(f"pair ({i},{j}) correspondences are collinear")


def _sparse_residual_jacobian(state: AlignmentState, corr: CorrespondenceSet):
    """Stacked sparse residuals and analytic Jacobian wrt per-frame
    (dt, axis-angle) increments applied by right multiplication."""
    n_free = len(state.transforms) - 1
    m = len(corr.pairs)
    r = np.zeros(3 * m)
    J = np.zeros((3 * m, 6 * n_free))
    for k, (i, j, pi, pj) in enumerate(corr.pairs):
        Ti, Tj = state.transforms[i], state.transforms[j]
        qi = Ti.apply(pi)
        qj = Tj.apply(pj)
        r[3 * k : 3 * k + 3] = qi - qj
        # Right perturbation: T (I + [dw]x, dt) p = T p + R dt - R [p]x dw.
        # += so i == j correspondences accumulate both contributions.
        if i > 0:
            col = 6 * (i - 1)
            J[3 * k : 3 * k + 3, col : col + 3] += Ti.R
            J[3 * k : 3 * k + 3, col + 3 : col + 6] += -Ti.R @ skew(pi)
        if j > 0:
            col = 6 * (j - 1)
            J[3 * k : 3 * k + 3, col : col + 3] += -Tj.R
            J[3 * k : 3 * k + 3, col + 3 : col + 6] += Tj.R @ skew(pj)
    return r, J


def _apply_increment(state: AlignmentState, delta) -> AlignmentState:
    new = [state.transforms[0]]
    for idx in range(1, len(state.transforms)):
        d = delta[6 * (idx - 1) : 6 * idx]
        T = state.transforms[idx]
        R_new = T.R @ rotation_exp(d[3:])
        t_new = T.t + T.R @ d[:3]
        new.append(RigidTransform(R_new, t_new))
    return AlignmentState(new)


def _lm_minimize(state, energy_fn, residual_fn, max_iter):
    """Damped Gauss-Newton accepting only energy-decreasing steps."""
    energy = energy_fn(state)
    lam = _INITIAL_DAMPING
    trace = [energy]
    for _ in range(max_iter):
        r, J = residual_fn(state)
        g = J.T @ r
        H = J.T @ J
        stepped = False
        for _ in range(25):
            A = H + lam * np.eye(H.shape[0])
            try:
                delta = np.linalg.solve(A, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = _apply_increment(state, delta)
            e_trial = energy_fn(trial)
            if e_trial < energy:
                state, energy = trial, e_trial
                lam = max(lam / 10.0, 1e-15)
                stepped = True
                trace.append(energy)
                break
            lam *= 10.0
        if not stepped:
            break
        if np.linalg.norm(delta) < _CONVERGENCE_TOL:
            break
    return state, energy, trace


def _dense_residual_stack(state, frames, corr, weights):
    """Weighted residual vector of the full energy (sqrt-weighted blocks)."""
    blocks = []
    if weights.w_sparse > 0 and len(corr) > 0:
        rs = []
        for i, j, pi, pj in corr.pairs:
            rs.append(state.transforms[i].apply(pi) - state.transforms[j].apply(pj))
        blocks.append(np.sqrt(weights.w_sparse) * np.concatenate(rs))
    if weights.w_dense > 0 and frames:
        rp, rg, _ = _dense_residuals(
            state, frames, _PIXEL_STRIDE, want_geo=True, want_photo=True
        )
        blocks.append(np.sqrt(weights.w_dense * weights.w_photo) * rp)
        blocks.append(np.sqrt(weights.w_dense * weights.w_geo) * rg)
    return np.concatenate(blocks) if blocks else np.zeros(0)


def minimize_alignment(
    frames,
    corr: CorrespondenceSet,
    weights: AlignmentWeights = AlignmentWeights(),
):
    """Two-stage minimization; returns (AlignmentState, info dict).

    Stage 1: Gauss-Newton on the sparse energy alone (analytic Jacobians).
    Stage 2: damped Gauss-Newton on the full energy; dense-term Jacobians by
    central finite differences on the stacked residual vector.
    """
    n_frames = max(
        len(frames), 1 + max((max(i, j) for i, j, _, _ in corr.pairs), default=0)
    )
    if n_frames < 2:
        raise DegenerateInputError("need at least 2 frames")
    _check_correspondences(corr, n_frames)

    state = AlignmentState([RigidTransform.identity() for _ in range(n_frames)])

    def sparse_energy(s):
        return e_sparse(s, corr)

    def sparse_resid(s):
        return _sparse_residual_jacobian(s, corr)

    state, e1, trace1 = _lm_minimize(
        state, sparse_energy, sparse_resid, _MAX_SPARSE_ITERATIONS
    )

    def full_energy(s):
        return e_align(s, frames, corr, weights, stride=_PIXEL_STRIDE)

    stage1_full = full_energy(state)

    def full_resid(s):
        r = _dense_residual_stack(s, frames, corr, weights)
        n_free = 6 * (len(s.transforms) - 1)
        J = np.zeros((r.size, n_free))
        h = _FD_STEP
        for p in range(n_free):
            d = np.zeros(n_free)
            d[p] = h
            r_hi = _dense_residual_stack(_apply_increment(s, d), frames, corr, weights)
            r_lo = _dense_residual_stack(_apply_increment(s, -d), frames, corr, weights)
            J[:, p] = (r_hi - r_lo) / (2.0 * h)
        return r, J

    if weights.w_dense > 0 and frames:
        state, e2, trace2 = _lm_minimize(
            state, full_energy, full_resid, _MAX_DENSE_ITERATIONS
        )
    else:
        e2, trace2 = stage1_full, [stage1_full]

    info = {
        "sparse_energy": e1,
        "stage1_full_energy": stage1_full,
        "final_energy": e2,
        "energy_trace": trace1 + trace2,
        "converged": e2 <= stage1_full + 1e-15,
    }
    return state, info


# --- synthetic scene rendering -------------------------------------------


@dataclass(frozen=True)
class Scene:
    """Deterministic textured height field z(x, y) = z0 + bumps(x, y)."""

    seed: int
    base_depth: float = 0.5
    relief: float = 0.03

    def _coeffs(self):
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0x5CE]))
        k = 6
        h_amp = rng.uniform(0.2, 1.0, k)
        h_amp *= self.relief / h_amp.sum()
        h_freq = rng.uniform(2.0, 8.0, k)
        h_dir = rng.uniform(0, 2 * np.pi, k)
        h_ph = rng.uniform(0, 2 * np.pi, k)
        # Texture kept smooth relative to the pixel footprint (~6 mm at the
        # base depth) so bilinear resampling error stays far below the
        # photometric signal of interest.
        t_amp = rng.uniform(0.2, 1.0, k + 2)
        t_amp *= 0.06 / t_amp.sum()
        t_freq = rng.uniform(1.0, 3.0, k + 2)
        t_dir = rng.uniform(0, 2 * np.pi, k + 2)
        t_ph = rng.uniform(0, 2 * np.pi, k + 2)
        return (h_amp, h_freq, h_dir, h_ph), (t_amp, t_freq, t_dir, t_ph)

    def height(self, x, y):
        (a, f, d, p), _ = self._coeffs()
        s = np.zeros_like(np.asarray(x, dtype=float))
        for ai, fi, di, pi in zip(a, f, d, p):
            s = s + ai * np.sin(2 * np.pi * fi * (np.cos(di) * x + np.sin(di) * y) + pi)
        return self.base_depth + s

    def texture(self, x, y):
        _, (a, f, d, p) = self._coeffs()
        s = np.full_like(np.asarray(x, dtype=float), 0.5)
        for ai, fi, di, pi in zip(a, f, d, p):
            s = s + ai * np.sin(2 * np.pi * fi * (np.cos(di) * x + np.sin(di) * y) + pi)
        return np.clip(s, 0.0, 1.0)


def make_scene(seed: int) -> Scene:
    return Scene(seed)


def render_synthetic_scene(
    scene: Scene,
    camera: RigidTransform,
    intrinsics=(80.0, 80.0, 31.5, 31.5),
    shape=(64, 64),
) -> Frame:
    """Ray-cast the height field from a camera pose (camera-to-world).

    The camera looks along +z toward the surface near z = base_depth; the
    surface relief is small, so fixed-point iteration on the ray depth
    converges quickly.
    """
    H, W = shape
    fx, fy, cx, cy = intrinsics
    us, vs = np.meshgrid(np.arange(W, dtype=float), np.arange(H, dtype=float))
    dirs_cam = np.stack([(us - cx) / fx, (vs - cy) / fy, np.ones_like(us)], axis=-1)
    dirs_world = dirs_cam @ camera.R.T
    origin = camera.t
    dz = dirs_world[..., 2]
    if np.any(dz <= 1e-6):
        raise ValueError("camera ray parallel to or away from the surface")
    s = (scene.base_depth - origin[2]) / dz
    for _ in range(50):
        px = origin[0] + s * dirs_world[..., 0]
        py = origin[1] + s * dirs_world[..., 1]
        target_z = scene.height(px, py)
        s_new = (target_z - origin[2]) / dz
        if np.max(np.abs(s_new - s)) < 1e-13:
            s = s_new
            break
        s = s_new
    px = origin[0] + s * dirs_world[..., 0]
    py = origin[1] + s * dirs_world[..., 1]
    depth = s  # camera-frame z equals the ray parameter (dir z-component is 1)
    intensity = scene.texture(px, py)
    return Frame(intensity, depth, tuple(intrinsics))
