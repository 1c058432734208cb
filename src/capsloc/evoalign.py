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

from .geometry import rotation_exp, skew

__all__ = [
    "CorrespondenceSet",
    "AlignmentState",
    "DegenerateInputError",
    "e_sparse",
    "minimize_alignment",
]


class DegenerateInputError(ValueError):
    """Too few / collinear correspondences for the sparse stage."""


class CorrespondenceSet:
    """Pairs (i, j, P_i, P_j): the same scene point seen in frames i and j,
    expressed in each frame's camera coordinates. Held as (m,) frame
    indices i, j and (m, 3) points p_i, p_j."""

    def __init__(self, pairs):
        i, j, p_i, p_j = zip(*pairs) if pairs else ((), (), (), ())
        self.i = np.asarray(i, dtype=int)
        self.j = np.asarray(j, dtype=int)
        self.p_i = np.asarray(p_i, dtype=float).reshape(-1, 3)
        self.p_j = np.asarray(p_j, dtype=float).reshape(-1, 3)

    def __len__(self):
        return len(self.i)


@dataclass
class AlignmentState:
    """Per-frame rigid transforms p -> R[k] p + t[k]; frame 0 is the
    identity."""

    R: np.ndarray  # (n, 3, 3)
    t: np.ndarray  # (n, 3)


# Solver settings of minimize_alignment.
_MAX_SPARSE_ITERATIONS = 30
_CONVERGENCE_TOL = 1e-12  # increment norm
_INITIAL_DAMPING = 1e-6


def _residuals(state: AlignmentState, corr: CorrespondenceSet) -> np.ndarray:
    """(m, 3) differences tau_i P_i - tau_j P_j."""
    q_i = (state.R[corr.i] @ corr.p_i[:, :, None])[:, :, 0] + state.t[corr.i]
    q_j = (state.R[corr.j] @ corr.p_j[:, :, None])[:, :, 0] + state.t[corr.j]
    return q_i - q_j


def e_sparse(state: AlignmentState, corr: CorrespondenceSet) -> float:
    """Sum of squared distances between transformed corresponding points."""
    d = _residuals(state, corr)
    return float(np.sum(d * d))


def _check_correspondences(corr: CorrespondenceSet):
    if np.any(corr.i < 0) or np.any(corr.j < 0):
        raise DegenerateInputError("correspondence frame index out of window")
    frame_pairs, which, counts = np.unique(
        np.sort(np.stack([corr.i, corr.j], axis=1), axis=1),
        axis=0, return_inverse=True, return_counts=True,
    )
    which = which.reshape(-1)
    for k, (i, j) in enumerate(frame_pairs):
        if counts[k] < 3:
            raise DegenerateInputError(
                f"pair ({i},{j}) has {counts[k]} correspondences, need >= 3"
            )
        P = corr.p_i[which == k]
        if np.linalg.matrix_rank(P - P.mean(axis=0), tol=1e-12) < 2:
            raise DegenerateInputError(f"pair ({i},{j}) correspondences are collinear")


def _sparse_residual_jacobian(state: AlignmentState, corr: CorrespondenceSet):
    """Stacked sparse residuals and analytic Jacobian wrt per-frame
    (dt, axis-angle) increments applied by right multiplication."""
    n_frames = len(state.R)
    m = len(corr)
    R_i, R_j = state.R[corr.i], state.R[corr.j]
    # Right perturbation: T (I + [dw]x, dt) p = T p + R dt - R [p]x dw.
    blocks_i = np.concatenate([R_i, -R_i @ skew(corr.p_i)], axis=-1)
    blocks_j = np.concatenate([-R_j, R_j @ skew(corr.p_j)], axis=-1)
    # Scattered with np.add.at so i == j correspondences accumulate both
    # contributions; the columns of the fixed frame 0 are dropped.
    J = np.zeros((m, 3, n_frames, 6))
    rows = np.arange(m)
    np.add.at(J, (rows, slice(None), corr.i), blocks_i)
    np.add.at(J, (rows, slice(None), corr.j), blocks_j)
    r = _residuals(state, corr).reshape(-1)
    return r, J[:, :, 1:].reshape(3 * m, 6 * (n_frames - 1))


def _apply_increment(state: AlignmentState, delta) -> AlignmentState:
    d = np.vstack([np.zeros(6), delta.reshape(-1, 6)])  # frame 0 stays
    R = state.R @ rotation_exp(d[:, 3:])
    t = state.t + (state.R @ d[:, :3, None])[:, :, 0]
    return AlignmentState(R, t)


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


def minimize_alignment(corr: CorrespondenceSet):
    """Sparse alignment of a window; returns (AlignmentState, info dict).

    The window has 1 + the largest frame index in corr frames. info holds
    final_energy, energy_trace (the energy after each accepted step,
    starting from the identity) and converged.
    """
    n_frames = 1 + int(max(corr.i.max(initial=0), corr.j.max(initial=0)))
    if n_frames < 2:
        raise DegenerateInputError("need at least 2 frames")
    _check_correspondences(corr)

    state = AlignmentState(
        np.tile(np.eye(3), (n_frames, 1, 1)), np.zeros((n_frames, 3))
    )
    state, energy, trace, converged = _lm_minimize(state, corr)
    info = {
        "final_energy": energy,
        "energy_trace": trace,
        "converged": converged,
    }
    return state, info
