"""Windowed sparse alignment: per-frame rigid transforms that bring feature
correspondences between the frames of a window into agreement.

Over a window of frames with per-frame rigid transforms tau_i (frame 0
fixed to identity), the energy is

    E_sparse = sum over pairs (i, j, P_i, P_j) of |tau_i P_i - tau_j P_j|^2

It is minimized by damped Gauss-Newton with analytic Jacobians. Rotation
increments are axis-angle vectors composed by right multiplication onto
the current estimate, which keeps the parameterization singularity-free.

The pipeline's visual stream comes from simkit.emulate_evo_stream, so no
image data reaches this module; `capsloc align-demo` and the alignment
acceptance criterion run it on synthetic correspondences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import RigidTransform, rotation_exp, skew

__all__ = [
    "CorrespondenceSet",
    "AlignmentState",
    "DegenerateInputError",
    "e_sparse",
    "minimize_alignment",
]


class DegenerateInputError(ValueError):
    """Too few / collinear correspondences for the sparse stage."""


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


# Solver settings of minimize_alignment.
_MAX_SPARSE_ITERATIONS = 30
_CONVERGENCE_TOL = 1e-12  # increment norm
_INITIAL_DAMPING = 1e-6


def e_sparse(state: AlignmentState, corr: CorrespondenceSet) -> float:
    """Sum of squared distances between transformed corresponding points."""
    total = 0.0
    for i, j, pi, pj in corr.pairs:
        d = state.transforms[i].apply(pi) - state.transforms[j].apply(pj)
        total += float(d @ d)
    return total


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


def _lm_minimize(state, corr):
    """Damped Gauss-Newton on e_sparse accepting only energy-decreasing
    steps. Returns (state, energy, trace, converged); converged is False
    when _MAX_SPARSE_ITERATIONS iterations ran without the solver
    stopping on its own."""
    energy = e_sparse(state, corr)
    lam = _INITIAL_DAMPING
    trace = [energy]
    for _ in range(_MAX_SPARSE_ITERATIONS):
        r, J = _sparse_residual_jacobian(state, corr)
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
            e_trial = e_sparse(trial, corr)
            if e_trial < energy:
                state, energy = trial, e_trial
                lam = max(lam / 10.0, 1e-15)
                stepped = True
                trace.append(energy)
                break
            lam *= 10.0
        if not stepped or np.linalg.norm(delta) < _CONVERGENCE_TOL:
            return state, energy, trace, True
    return state, energy, trace, False


def minimize_alignment(frames, corr: CorrespondenceSet):
    """Sparse alignment of a window; returns (AlignmentState, info dict).

    The window has max(len(frames), 1 + largest frame index in corr)
    frames; only its size is read from frames. info holds final_energy,
    energy_trace (the energy after each accepted step, starting from the
    identity) and converged.
    """
    n_frames = max(
        len(frames), 1 + max((max(i, j) for i, j, _, _ in corr.pairs), default=0)
    )
    if n_frames < 2:
        raise DegenerateInputError("need at least 2 frames")
    _check_correspondences(corr, n_frames)

    state = AlignmentState([RigidTransform.identity() for _ in range(n_frames)])
    state, energy, trace, converged = _lm_minimize(state, corr)
    info = {
        "final_energy": energy,
        "energy_trace": trace,
        "converged": converged,
    }
    return state, info
