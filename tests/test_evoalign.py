import numpy as np
import pytest

from capsloc import evoalign as ev
from capsloc.geometry import euler_to_matrix

IDENT = (np.eye(3), np.zeros(3))


def random_small_transform(rng, trans=0.01, rot=0.05):
    """(R, t) of a random transform."""
    return euler_to_matrix(rng.uniform(-rot, rot, 3)), rng.uniform(-trans, trans, 3)


def state_of(transforms):
    """AlignmentState of a list of (R, t)."""
    R, t = zip(*transforms)
    return ev.AlignmentState(np.array(R), np.array(t))


def correspondences_from_transform(T, rng, n=30, noise=0.0):
    """Frame-1 points and their frame-0 images under tau_1 = T = (R, t)."""
    R, t = T
    pairs = []
    for _ in range(n):
        p1 = np.array([*rng.uniform(-0.2, 0.2, 2), rng.uniform(0.4, 0.7)])
        p0 = R @ p1 + t
        if noise > 0:
            p0 = p0 + rng.normal(0, noise, 3)
        pairs.append((0, 1, p0, p1))
    return ev.CorrespondenceSet(pairs)


def test_e_sparse_trivial_cases():
    state = state_of([IDENT, IDENT])
    p = np.array([0.1, 0.2, 0.5])
    same = ev.CorrespondenceSet([(0, 1, p, p)])
    assert ev.e_sparse(state, same) == 0.0
    offset = ev.CorrespondenceSet([(0, 1, p + np.array([1.0, 0, 0]), p)])
    assert abs(ev.e_sparse(state, offset) - 1.0) < 1e-12


def test_e_sparse_matches_naive_loop():
    rng = np.random.default_rng(2)
    state = state_of([IDENT] + [random_small_transform(rng, 0.1, 0.5) for _ in range(3)])
    pairs = []
    for _ in range(40):
        i, j = rng.integers(0, 4, 2)
        pairs.append((int(i), int(j), rng.normal(0, 0.3, 3), rng.normal(0, 0.3, 3)))
    corr = ev.CorrespondenceSet(pairs)
    total = 0.0
    for i, j, pi, pj in pairs:
        d = (state.R[i] @ pi + state.t[i]) - (state.R[j] @ pj + state.t[j])
        total += float(np.dot(d, d))
    assert abs(ev.e_sparse(state, corr) - total) < 1e-12 * max(1.0, total)


def test_e_sparse_gauge_invariance():
    rng = np.random.default_rng(3)
    state = state_of([IDENT] + [random_small_transform(rng, 0.1, 0.5) for _ in range(2)])
    pairs = [
        (int(rng.integers(0, 3)), int(rng.integers(0, 3)),
         rng.normal(0, 0.3, 3), rng.normal(0, 0.3, 3))
        for _ in range(20)
    ]
    corr = ev.CorrespondenceSet(pairs)
    base = ev.e_sparse(state, corr)
    G_R, G_t = euler_to_matrix([0.4, -0.3, 0.9]), np.array([1.0, -2.0, 0.5])
    moved = ev.AlignmentState(G_R @ state.R, state.t @ G_R.T + G_t)
    assert abs(ev.e_sparse(moved, corr) - base) < 1e-10 * max(1.0, base)


def test_minimize_recovers_known_transform_noiseless():
    rng = np.random.default_rng(7)
    for seed in range(5):
        T = random_small_transform(np.random.default_rng(100 + seed), 0.02, 0.2)
        corr = correspondences_from_transform(T, rng)
        state, _ = ev.minimize_alignment(corr)
        R, t = T
        assert np.linalg.norm(state.t[1] - t) < 1e-6
        ang = np.arccos(np.clip((np.trace(state.R[1].T @ R) - 1) / 2, -1, 1))
        assert ang < 1e-6


def test_minimize_identity_for_self_consistent_identity():
    rng = np.random.default_rng(8)
    corr = correspondences_from_transform(IDENT, rng)
    state, _ = ev.minimize_alignment(corr)
    assert np.linalg.norm(state.t[1]) < 1e-9
    assert np.allclose(state.R[1], np.eye(3), atol=1e-9)


def test_minimize_noisy_monte_carlo():
    # Oracle run over 200 seeds: per-seed errors carry a geometry (GDOP)
    # factor from rotation-translation coupling, so the sigma/sqrt(N) scale
    # is checked on the Monte-Carlo mean and median (recorded: mean 2.3e-4,
    # median 2.3e-4 against bound 2.74e-4 for sigma=0.5 mm, N=30).
    sigma, n = 5e-4, 30
    bound = 3 * sigma / np.sqrt(n)
    errs = []
    for seed in range(200):
        rng = np.random.default_rng(np.random.SeedSequence([9, seed]))
        R, t = random_small_transform(rng, 0.02, 0.2)
        pairs = []
        for _ in range(n):
            p1 = np.array([*rng.uniform(-0.5, 0.5, 2), rng.uniform(0.2, 1.0)])
            pairs.append((0, 1, R @ p1 + t + rng.normal(0, sigma, 3), p1))
        state, _ = ev.minimize_alignment(ev.CorrespondenceSet(pairs))
        errs.append(np.linalg.norm(state.t[1] - t))
    errs = np.asarray(errs)
    assert np.mean(errs) < bound
    assert np.median(errs) < bound


def test_minimize_degenerate_correspondences():
    # Two correspondences only.
    rng = np.random.default_rng(10)
    p = rng.normal(0, 0.2, 3)
    q = rng.normal(0, 0.2, 3)
    corr = ev.CorrespondenceSet([(0, 1, p, p), (0, 1, q, q)])
    with pytest.raises(ev.DegenerateInputError):
        ev.minimize_alignment(corr)
    # Collinear points.
    d = np.array([1.0, 0.0, 0.0])
    base = np.array([0.0, 0.0, 0.5])
    coll = ev.CorrespondenceSet(
        [(0, 1, base + k * d, base + k * d) for k in range(5)]
    )
    with pytest.raises(ev.DegenerateInputError):
        ev.minimize_alignment(coll)


def test_minimize_energy_trace_monotone():
    rng = np.random.default_rng(11)
    for seed in range(20):
        r = np.random.default_rng(np.random.SeedSequence([11, seed]))
        T = random_small_transform(r, 0.02, 0.2)
        corr = correspondences_from_transform(T, r, n=20, noise=3e-4)
        _, info = ev.minimize_alignment(corr)
        trace = info["energy_trace"]
        assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:]))


def test_minimize_refuses_collinear_frame_1_points():
    # Frame-0 points span a plane, frame-1 points a line: the rotation
    # about that line is free.
    base = np.array([0.0, 0.0, 0.5])
    d = np.array([1.0, 0.0, 0.0])
    pairs = [(0, 1, base + np.array([0.1 * k, 0.05 * k * k, 0.0]), base + 0.1 * k * d)
             for k in range(5)]
    with pytest.raises(ev.DegenerateInputError, match="collinear in frame 1"):
        ev.minimize_alignment(ev.CorrespondenceSet(pairs))


@pytest.mark.parametrize("pair", [(1, 0), (0, 2), (1, 1)])
def test_minimize_refuses_pairs_other_than_0_1(pair):
    rng = np.random.default_rng(12)
    pairs = [(0, 1, p, p) for p in rng.normal(0, 0.2, (5, 3))]
    pairs.append((*pair, np.zeros(3), np.zeros(3)))
    with pytest.raises(ev.DegenerateInputError, match=rf"pair \({pair[0]},{pair[1]}\)"):
        ev.minimize_alignment(ev.CorrespondenceSet(pairs))


def test_minimize_returns_a_rotation_for_mirrored_points():
    # The unconstrained best orthogonal map is the mirror z -> -z; the fit
    # stays a proper rotation and no worse than the identity.
    rng = np.random.default_rng(13)
    p1 = rng.normal(0, 0.2, (20, 3))
    corr = ev.CorrespondenceSet([(0, 1, p * (1, 1, -1), p) for p in p1])
    state, info = ev.minimize_alignment(corr)
    R = state.R[1]
    assert np.allclose(R.T @ R, np.eye(3), atol=1e-12)
    assert abs(np.linalg.det(R) - 1.0) < 1e-12
    assert info["final_energy"] <= info["energy_trace"][0]


def test_minimize_fit_is_a_least_squares_minimum():
    # No small rigid perturbation of the returned frame-1 transform lowers
    # the energy.
    rng = np.random.default_rng(14)
    T = random_small_transform(rng, 0.02, 0.2)
    corr = correspondences_from_transform(T, rng, n=25, noise=1e-3)
    state, info = ev.minimize_alignment(corr)
    assert info["final_energy"] == ev.e_sparse(state, corr)
    for _ in range(50):
        dR, dt = random_small_transform(rng, 1e-5, 1e-5)
        moved = ev.AlignmentState(
            np.stack([np.eye(3), dR @ state.R[1]]), np.stack([np.zeros(3), state.t[1] + dt])
        )
        assert ev.e_sparse(moved, corr) >= info["final_energy"]
