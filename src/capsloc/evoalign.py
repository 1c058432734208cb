"""Sparse alignment: per-frame rigid transforms that bring feature
correspondences between frames into agreement.

Over frames with per-frame rigid transforms tau_i (frame 0 fixed to
identity), the energy is

    E_sparse = sum over pairs (i, j, P_i, P_j) of |tau_i P_i - tau_j P_j|^2

e_sparse evaluates it over any number of frames and any frame pairs.
minimize_alignment aligns two frames, whose correspondences are all
(0, 1) pairs; its minimizer is closed form: tau_1 = (R, t) with
t = mean(P_0) - R mean(P_1) and R from the SVD of the cross-covariance,
with a guard against a reflection (Arun, Huang & Blostein 1987; Umeyama
1991). A window of more than two frames would need an iterative solver.

The pipeline's visual stream comes from simkit.emulate_evo_stream, so no
image data reaches this module; `capsloc align-demo` and the alignment
acceptance criterion run it on synthetic correspondences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def e_sparse(state: AlignmentState, corr: CorrespondenceSet) -> float:
    """Sum of squared distances between transformed corresponding points."""
    q_i = (state.R[corr.i] @ corr.p_i[:, :, None])[:, :, 0] + state.t[corr.i]
    q_j = (state.R[corr.j] @ corr.p_j[:, :, None])[:, :, 0] + state.t[corr.j]
    d = q_i - q_j
    return float(np.sum(d * d))


def _check_correspondences(corr: CorrespondenceSet):
    other = (corr.i != 0) | (corr.j != 1)
    if np.any(other):
        k = int(np.argmax(other))
        raise DegenerateInputError(
            f"pair ({corr.i[k]},{corr.j[k]}) is not (0,1): only two frames are aligned"
        )
    if len(corr) < 3:
        raise DegenerateInputError(
            f"pair (0,1) has {len(corr)} correspondences, need >= 3"
        )
    for frame, P in ((0, corr.p_i), (1, corr.p_j)):
        if np.linalg.matrix_rank(P - P.mean(axis=0), tol=1e-12) < 2:
            raise DegenerateInputError(
                f"pair (0,1) correspondences are collinear in frame {frame}"
            )


def minimize_alignment(corr: CorrespondenceSet):
    """Align frame 1 to frame 0; returns (AlignmentState, info dict).

    corr must hold only (0, 1) pairs, at least three, not collinear in
    either frame. The state has two frames, frame 0 the identity. info
    holds final_energy and energy_trace: the energy at the identity, then
    at the closed-form fit if that is lower.
    """
    _check_correspondences(corr)
    a_mean, b_mean = corr.p_i.mean(axis=0), corr.p_j.mean(axis=0)
    # R = V D U^T maximizes trace(R H) for H = U S V^T; D flips the last
    # axis when V U^T is a reflection.
    U, _, Vt = np.linalg.svd((corr.p_j - b_mean).T @ (corr.p_i - a_mean))
    R = Vt.T @ np.diag([1.0, 1.0, np.sign(np.linalg.det(U @ Vt))]) @ U.T
    identity = AlignmentState(np.tile(np.eye(3), (2, 1, 1)), np.zeros((2, 3)))
    fit = AlignmentState(np.stack([np.eye(3), R]), np.stack([np.zeros(3), a_mean - R @ b_mean]))
    e_identity, e_fit = e_sparse(identity, corr), e_sparse(fit, corr)
    if e_fit < e_identity:
        return fit, {"final_energy": e_fit, "energy_trace": [e_identity, e_fit]}
    return identity, {"final_energy": e_identity, "energy_trace": [e_identity]}
