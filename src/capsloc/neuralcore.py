"""From-scratch differentiable building blocks.

LSTM cell with no bias terms:

    i = sigmoid(W_ix x + W_ih h_prev)
    f = sigmoid(W_fx x + W_fh h_prev)
    g = tanh   (W_gx x + W_gh h_prev)
    c = f * c_prev + i * g
    o = sigmoid(W_ox x + W_oh h_prev)
    h = o * tanh(c)

The eight matrices are views into one stacked W (4H, X + H): row blocks
i, f, g, o, columns [x | h]. Over T steps, lstm_sequence_forward takes all
input projections in one GEMM, then one (4H, H) gemv per step;
lstm_backward does one (H, 4H) gemv per step, then the weight gradient as
one GEMM dA^T [X | H_prev] and the input gradients as dA W_x, where dA
holds the (T, 4H) pre-activation gradients.

Adam variant with epsilon inside the square root of the bias-corrected
second moment:

    m <- b1 m + (1 - b1) grad
    v <- b2 v + (1 - b2) grad^2
    m_hat = m / (1 - b1^t),  v_hat = v / (1 - b2^t)
    W <- W - alpha * m_hat / sqrt(v_hat + eps)

This is not the usual m_hat / (sqrt(v_hat) + eps): the two agree only for
v_hat >> eps, and at v_hat = 1e-10 (eps = 1e-8) sqrt(v_hat + eps) is about
10x sqrt(v_hat) + eps.

adam_step updates parameters and moments in place, in that formula's
operation order, with two scratch arrays per parameter shape kept in the
AdamState; through gate views it writes straight into each W.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "GATES",
    "LstmWeights",
    "LstmState",
    "LstmCache",
    "AdamState",
    "Hyperparams",
    "sigmoid",
    "init_lstm_weights",
    "lstm_cell_forward",
    "lstm_sequence_forward",
    "lstm_backward",
    "linear_forward",
    "linear_backward",
    "dropout",
    "pose_residual_norms",
    "pose_loss",
    "adam_init",
    "adam_step",
    "finite_difference_gradient",
]

GATES = ("ix", "ih", "fx", "fh", "gx", "gh", "ox", "oh")


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _gate_views(W, input_size: int) -> dict:
    """The eight gate blocks of a stacked (4H, X + H) matrix, keyed W_ix..W_oh."""
    blocks = W.reshape(4, -1, W.shape[1])  # gates i, f, g, o; a view of W
    cols = {"x": slice(None, input_size), "h": slice(input_size, None)}
    return {f"W_{g}": blocks["ifgo".index(g[0]), :, cols[g[1]]] for g in GATES}


class LstmWeights:
    """One LSTM's weights, stacked in W of shape (4H, X + H). W_ix..W_oh are
    writable views into W: *x are (hidden, input), *h are (hidden, hidden).
    The constructor copies the eight blocks into a new W."""

    def __init__(self, W_ix, W_ih, W_fx, W_fh, W_gx, W_gh, W_ox, W_oh):
        h, n = np.shape(W_ix)
        self.W = np.empty((4 * h, n + h))
        views = _gate_views(self.W, n)  # in GATES order, as the arguments
        for (name, view), block in zip(
            views.items(), (W_ix, W_ih, W_fx, W_fh, W_gx, W_gh, W_ox, W_oh)
        ):
            if np.shape(block) != view.shape:
                shape = np.shape(block)
                raise ValueError(f"{name} has shape {shape}, expected {view.shape}")
            view[...] = block
        self.__dict__.update(views)

    @property
    def hidden_size(self) -> int:
        return self.W.shape[0] // 4

    @property
    def input_size(self) -> int:
        return self.W.shape[1] - self.hidden_size

    def as_dict(self, prefix: str = "") -> dict:
        return {f"{prefix}W_{g}": getattr(self, f"W_{g}") for g in GATES}

    @staticmethod
    def from_dict(d: dict, prefix: str = "") -> "LstmWeights":
        return LstmWeights(*(d[f"{prefix}W_{g}"] for g in GATES))


@dataclass
class LstmState:
    h: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=float).reshape(-1)
        self.c = np.asarray(self.c, dtype=float).reshape(-1)
        if self.h.shape != self.c.shape:
            raise ValueError("h and c must have equal length")

    @staticmethod
    def zeros(hidden_size: int) -> "LstmState":
        return LstmState(np.zeros(hidden_size), np.zeros(hidden_size))


class LstmCache(NamedTuple):
    """What lstm_backward needs of a forward pass over T steps."""

    x: np.ndarray  # (T, X) inputs
    h: np.ndarray  # (T + 1, H) hidden states; h[0] is the initial one
    c: np.ndarray  # (T + 1, H) cell states; c[0] is the initial one
    gates: np.ndarray  # (T, 4H) activations i, f, g, o


def init_lstm_weights(input_size: int, hidden_size: int, rng) -> LstmWeights:
    """Uniform +/- 1/sqrt(fan_in) per matrix, seeded."""

    def mk(cols):
        bound = 1.0 / np.sqrt(cols)
        return rng.uniform(-bound, bound, size=(hidden_size, cols))

    return LstmWeights(
        *(mk(input_size) if g.endswith("x") else mk(hidden_size) for g in GATES)
    )


def lstm_sequence_forward(xs, init: LstmState, w: LstmWeights):
    """Run the LSTM from init over a nonempty (T, input) sequence.

    Returns (the LstmState after each step, the LstmCache for lstm_backward)."""
    x = np.asarray(xs, dtype=float)
    if x.ndim != 2 or len(x) == 0:
        raise ValueError("expected a nonempty (steps, input) sequence")
    T, n = x.shape
    H = w.hidden_size
    if n != w.input_size:
        raise ValueError(f"input size {n} != weights {w.input_size}")
    if init.h.shape[0] != H:
        raise ValueError("state size mismatch")
    h, c = np.empty((2, T + 1, H))
    h[0], c[0] = init.h, init.c
    W_h = w.W[:, n:]
    gates = x @ w.W[:, :n].T  # the input projections of every step
    for t in range(T):
        a = gates[t]
        a += W_h @ h[t]
        g = np.tanh(a[2 * H : 3 * H])
        a[:] = sigmoid(a)
        a[2 * H : 3 * H] = g
        np.multiply(a[H : 2 * H], c[t], out=c[t + 1])
        c[t + 1] += a[:H] * g
        np.multiply(a[3 * H :], np.tanh(c[t + 1]), out=h[t + 1])
    states = [LstmState(ht, ct) for ht, ct in zip(h[1:], c[1:])]
    return states, LstmCache(x, h, c, gates)


def lstm_cell_forward(x, prev: LstmState, w: LstmWeights):
    """One LSTM step (the one-step lstm_sequence_forward): (state, cache)."""
    states, cache = lstm_sequence_forward(np.reshape(x, (1, -1)), prev, w)
    return states[0], cache


def lstm_backward(cache: LstmCache, w: LstmWeights, dh_list):
    """Full BPTT over a sequence forward pass; dh_list holds the upstream
    gradient on every step's h, (T, H), zeros allowed. Returns (weight
    gradients keyed W_ix..W_oh, views into one stacked (4H, X + H) array;
    the gradient on the initial state; the (T, X) input gradients)."""
    x, h, c, gates = cache
    T, n = x.shape
    H = w.hidden_size
    dh_up = np.asarray(dh_list, dtype=float)
    if dh_up.shape != (T, H):
        raise ValueError("dh_list must hold one hidden-size gradient per step")
    i, f, g, o = (gates[:, k * H : (k + 1) * H] for k in range(4))
    tc = np.tanh(c[1:])
    dc_per_dh = o * (1.0 - tc * tc)
    # Pre-activation gradient of each gate per unit of the total gradient on
    # its step's c (gates i, f, g) or h (gate o).
    per_unit = gates * (1.0 - gates)
    per_unit[:, 2 * H : 3 * H] = 1.0 - g * g
    per_unit *= np.concatenate([g, c[:-1], i, tc], axis=1)
    d_pre = np.empty((T, 4 * H))
    W_h_T = w.W[:, n:].T
    dh_next, dc = np.zeros((2, H))
    for t in range(T - 1, -1, -1):
        dh = dh_up[t] + dh_next
        dc = dc + dh * dc_per_dh[t]
        np.multiply(per_unit[t], np.concatenate([dc, dc, dc, dh]), out=d_pre[t])
        dc = dc * f[t]
        dh_next = W_h_T @ d_pre[t]
    dW = d_pre.T @ np.concatenate([x, h[:-1]], axis=1)
    return _gate_views(dW, n), LstmState(dh_next, dc), d_pre @ w.W[:, :n]


def linear_forward(x, W, b):
    """y = W x + b for one input (X,), or for each row of a (T, X) batch."""
    x = np.asarray(x, dtype=float)
    if W.shape[1] != x.shape[-1] or W.shape[0] != b.shape[0]:
        raise ValueError("linear layer dimension mismatch")
    return x @ W.T + b


def linear_backward(x, W, dy):
    """Gradients of y = W x + b: returns (dW, db, dx). Over a (T, X) batch,
    dW and db sum the rows' gradients and dx has one row per input."""
    x2, dy2 = np.atleast_2d(np.asarray(x, dtype=float), np.asarray(dy, dtype=float))
    return dy2.T @ x2, dy2.sum(axis=0), np.asarray(dy, dtype=float) @ W


def dropout(x, rate: float, rng, training: bool):
    """Inverted dropout; identity at inference. Returns (array, mask)."""
    x = np.asarray(x, dtype=float)
    if not (0.0 <= rate < 1.0):
        raise ValueError("rate must be in [0, 1)")
    if not training or rate == 0.0:
        return x.copy(), np.ones_like(x)
    keep = (rng.random(x.shape) >= rate).astype(float) / (1.0 - rate)
    return x * keep, keep


def pose_residual_norms(pred, target):
    """Translational and rotational residual norms of each (6,) pose row."""
    res = np.asarray(pred, dtype=float) - np.asarray(target, dtype=float)
    if res.shape[-1] != 6:
        raise ValueError("poses must be 6-vectors")
    return np.linalg.norm(res[..., :3], axis=-1), np.linalg.norm(res[..., 3:], axis=-1)


def pose_loss(pred, target, beta_loss: float):
    """Weighted pose loss: ||t_err||_2 + beta * ||r_err||_2 (unsquared norms),
    summed over the rows of (T, 6) poses; a (6,) pose is one row.

    Returns (loss, gradient wrt pred). The zero subgradient is returned for
    an exactly-zero residual block."""
    nt, nr = pose_residual_norms(pred, target)
    res = np.asarray(pred, dtype=float) - np.asarray(target, dtype=float)
    norms = np.repeat(np.stack([nt, nr], axis=-1), 3, axis=-1)
    weighted = np.repeat([1.0, beta_loss], 3) * res
    grad = np.divide(weighted, norms, out=np.zeros_like(res), where=norms > 0)
    return float(np.sum(nt + beta_loss * nr)), grad


@dataclass(frozen=True)
class Hyperparams:
    alpha: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    beta_loss: float = 1.0
    dropout_rate: float = 0.25
    hidden_size: int = 200

    def __post_init__(self):
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("beta1, beta2 must be in (0, 1)")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0
    # Two work arrays per parameter shape, which every adam_step reuses.
    scratch: dict = field(default_factory=dict)


def adam_init(params: dict) -> AdamState:
    return AdamState(
        {k: np.zeros_like(p) for k, p in params.items()},
        {k: np.zeros_like(p) for k, p in params.items()},
        0,
    )


def adam_step(params: dict, grads: dict, state: AdamState, hp: Hyperparams):
    """One update of every parameter array, in place, as are the moments in
    state; returns (params, state). Parameter views write through to the
    arrays they view."""
    for k, p in params.items():
        if grads[k].shape != p.shape:
            raise ValueError(f"gradient shape mismatch for {k}")
    state.t += 1
    # Epsilon belongs inside the square root of the bias-corrected second
    # moment. The popular "efficient" rewrite (folding the corrections
    # into the step size and adding epsilon to the raw v) is not
    # equivalent: at early steps it scales the effective epsilon by
    # 1 / (1 - beta2**t), distorting updates for small gradients.
    m_scale = 1.0 - hp.beta1**state.t
    v_scale = 1.0 - hp.beta2**state.t
    for k, p in params.items():
        g = grads[k]
        m, v = state.m[k], state.v[k]
        if p.shape not in state.scratch:
            state.scratch[p.shape] = (np.empty(p.shape), np.empty(p.shape))
        a, b = state.scratch[p.shape]
        m *= hp.beta1
        m += np.multiply(1.0 - hp.beta1, g, out=a)
        v *= hp.beta2
        np.multiply(1.0 - hp.beta2, g, out=a)
        v += np.multiply(a, g, out=a)
        # p -= alpha * (m / m_scale) / sqrt(v / v_scale + eps)
        np.divide(v, v_scale, out=b)
        b += hp.epsilon
        np.sqrt(b, out=b)
        np.divide(m, m_scale, out=a)
        np.multiply(hp.alpha, a, out=a)
        p -= np.divide(a, b, out=a)
    return params, state


def finite_difference_gradient(loss_fn, params: dict, step: float = 1e-6) -> dict:
    """Central differences of loss_fn(params) per parameter component, each
    perturbed in place: a view (an LstmWeights gate block) perturbs its W."""
    grads = {}
    for k, p in params.items():
        g = np.zeros(p.shape)
        for idx in np.ndindex(p.shape):
            orig = p[idx]
            p[idx] = orig + step
            hi = loss_fn(params)
            p[idx] = orig - step
            lo = loss_fn(params)
            p[idx] = orig
            g[idx] = (hi - lo) / (2.0 * step)
        grads[k] = g
    return grads
