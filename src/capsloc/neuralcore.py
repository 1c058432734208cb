"""From-scratch differentiable building blocks.

LSTM cell with no bias terms:

    i = sigmoid(W_ix x + W_ih h_prev)
    f = sigmoid(W_fx x + W_fh h_prev)
    g = tanh   (W_gx x + W_gh h_prev)
    c = f * c_prev + i * g
    o = sigmoid(W_ox x + W_oh h_prev)
    h = o * tanh(c)

Adam variant with epsilon inside the square root of the bias-corrected
second moment:

    m <- b1 m + (1 - b1) grad
    v <- b2 v + (1 - b2) grad^2
    m_hat = m / (1 - b1^t),  v_hat = v / (1 - b2^t)
    W <- W - alpha * m_hat / sqrt(v_hat + eps)

This is not the usual m_hat / (sqrt(v_hat) + eps): the two agree only for
v_hat >> eps, and at v_hat = 1e-10 (eps = 1e-8) sqrt(v_hat + eps) is about
10x sqrt(v_hat) + eps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GATES",
    "LstmWeights",
    "LstmState",
    "AdamState",
    "Hyperparams",
    "sigmoid",
    "init_lstm_weights",
    "lstm_cell_forward",
    "lstm_cell_backward",
    "lstm_sequence_forward",
    "lstm_backward",
    "linear_forward",
    "linear_backward",
    "dropout",
    "pose_loss",
    "adam_init",
    "adam_step",
    "finite_difference_gradient",
]

GATES = ("ix", "ih", "fx", "fh", "gx", "gh", "ox", "oh")


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


@dataclass
class LstmWeights:
    """The eight gate matrices; *x are (hidden, input), *h are (hidden, hidden)."""

    W_ix: np.ndarray
    W_ih: np.ndarray
    W_fx: np.ndarray
    W_fh: np.ndarray
    W_gx: np.ndarray
    W_gh: np.ndarray
    W_ox: np.ndarray
    W_oh: np.ndarray

    def __post_init__(self):
        h, n = self.W_ix.shape
        for name in GATES:
            W = getattr(self, f"W_{name}")
            expect = (h, n) if name.endswith("x") else (h, h)
            if W.shape != expect:
                raise ValueError(f"W_{name} has shape {W.shape}, expected {expect}")

    @property
    def hidden_size(self) -> int:
        return self.W_ix.shape[0]

    @property
    def input_size(self) -> int:
        return self.W_ix.shape[1]

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


def init_lstm_weights(input_size: int, hidden_size: int, rng) -> LstmWeights:
    """Uniform +/- 1/sqrt(fan_in) per matrix, seeded."""

    def mk(cols):
        bound = 1.0 / np.sqrt(cols)
        return rng.uniform(-bound, bound, size=(hidden_size, cols))

    return LstmWeights(
        *(mk(input_size) if g.endswith("x") else mk(hidden_size) for g in GATES)
    )


def lstm_cell_forward(x, prev: LstmState, w: LstmWeights):
    """One LSTM step; cache retains gate activations for backprop."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != w.input_size:
        raise ValueError(f"input size {x.shape[0]} != weights {w.input_size}")
    if prev.h.shape[0] != w.hidden_size:
        raise ValueError("state size mismatch")
    i = sigmoid(w.W_ix @ x + w.W_ih @ prev.h)
    f = sigmoid(w.W_fx @ x + w.W_fh @ prev.h)
    g = np.tanh(w.W_gx @ x + w.W_gh @ prev.h)
    c = f * prev.c + i * g
    o = sigmoid(w.W_ox @ x + w.W_oh @ prev.h)
    tc = np.tanh(c)
    h = o * tc
    cache = (x, prev.h, prev.c, i, f, g, o, c, tc)
    return LstmState(h, c), cache


def lstm_cell_backward(cache, w: LstmWeights, dh, dc, grads: dict):
    """Reverse one step. Accumulates weight gradients into grads (keyed
    W_ix..W_oh); returns (dx, dh_prev, dc_prev)."""
    x, h_prev, c_prev, i, f, g, o, c, tc = cache
    do = dh * tc
    dc_total = dc + dh * o * (1.0 - tc * tc)
    di = dc_total * g
    df = dc_total * c_prev
    dg = dc_total * i
    dc_prev = dc_total * f
    # Gate pre-activation gradients.
    da_i = di * i * (1.0 - i)
    da_f = df * f * (1.0 - f)
    da_g = dg * (1.0 - g * g)
    da_o = do * o * (1.0 - o)
    grads["W_ix"] += np.outer(da_i, x)
    grads["W_ih"] += np.outer(da_i, h_prev)
    grads["W_fx"] += np.outer(da_f, x)
    grads["W_fh"] += np.outer(da_f, h_prev)
    grads["W_gx"] += np.outer(da_g, x)
    grads["W_gh"] += np.outer(da_g, h_prev)
    grads["W_ox"] += np.outer(da_o, x)
    grads["W_oh"] += np.outer(da_o, h_prev)
    dx = w.W_ix.T @ da_i + w.W_fx.T @ da_f + w.W_gx.T @ da_g + w.W_ox.T @ da_o
    dh_prev = w.W_ih.T @ da_i + w.W_fh.T @ da_f + w.W_gh.T @ da_g + w.W_oh.T @ da_o
    return dx, dh_prev, dc_prev


def lstm_sequence_forward(xs, init: LstmState, w: LstmWeights):
    """Chained cell applications over a nonempty sequence."""
    if len(xs) == 0:
        raise ValueError("empty sequence")
    states, caches = [], []
    state = init
    for x in xs:
        state, cache = lstm_cell_forward(x, state, w)
        states.append(state)
        caches.append(cache)
    return states, caches


def zero_lstm_grads(w: LstmWeights) -> dict:
    return {f"W_{g}": np.zeros_like(getattr(w, f"W_{g}")) for g in GATES}


def lstm_backward(caches, w: LstmWeights, dh_list, dc_final=None):
    """Full BPTT over a sequence forward pass.

    dh_list carries the upstream gradient on every step's h (zeros allowed);
    dc_final optionally on the last cell state. Returns (weight grads dict,
    gradient on the initial state, list of input gradients)."""
    if len(dh_list) != len(caches):
        raise ValueError("dh_list length must match sequence length")
    grads = zero_lstm_grads(w)
    hsize = w.hidden_size
    dh_next = np.zeros(hsize)
    dc_next = np.zeros(hsize) if dc_final is None else np.asarray(dc_final, float)
    dxs = [None] * len(caches)
    for t in range(len(caches) - 1, -1, -1):
        dh = np.asarray(dh_list[t], dtype=float) + dh_next
        dx, dh_next, dc_next = lstm_cell_backward(caches[t], w, dh, dc_next, grads)
        dxs[t] = dx
    return grads, LstmState(dh_next, dc_next), dxs


def linear_forward(x, W, b):
    x = np.asarray(x, dtype=float).reshape(-1)
    if W.shape[1] != x.shape[0] or W.shape[0] != b.shape[0]:
        raise ValueError("linear layer dimension mismatch")
    return W @ x + b


def linear_backward(x, W, dy):
    """Gradients of y = W x + b: returns (dW, db, dx)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    dy = np.asarray(dy, dtype=float).reshape(-1)
    return np.outer(dy, x), dy.copy(), W.T @ dy


def dropout(x, rate: float, rng, training: bool):
    """Inverted dropout; identity at inference. Returns (vector, mask)."""
    x = np.asarray(x, dtype=float)
    if not (0.0 <= rate < 1.0):
        raise ValueError("rate must be in [0, 1)")
    if not training or rate == 0.0:
        return x.copy(), np.ones_like(x)
    keep = (rng.random(x.shape) >= rate).astype(float) / (1.0 - rate)
    return x * keep, keep


def pose_loss(pred, target, beta_loss: float):
    """Weighted pose loss: ||t_err||_2 + beta * ||r_err||_2 (unsquared norms).

    Returns (loss, gradient wrt pred). The zero subgradient is returned for
    an exactly-zero residual block."""
    pred = np.asarray(pred, dtype=float).reshape(6)
    target = np.asarray(target, dtype=float).reshape(6)
    dt = pred[:3] - target[:3]
    dr = pred[3:] - target[3:]
    nt = np.linalg.norm(dt)
    nr = np.linalg.norm(dr)
    grad = np.zeros(6)
    if nt > 0:
        grad[:3] = dt / nt
    if nr > 0:
        grad[3:] = beta_loss * dr / nr
    return float(nt + beta_loss * nr), grad


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


def adam_init(params: dict) -> AdamState:
    return AdamState(
        {k: np.zeros_like(p) for k, p in params.items()},
        {k: np.zeros_like(p) for k, p in params.items()},
        0,
    )


def adam_step(params: dict, grads: dict, state: AdamState, hp: Hyperparams):
    """One update of every parameter array; returns (new params, new state)."""
    t = state.t + 1
    new_params, new_m, new_v = {}, {}, {}
    for k, p in params.items():
        g = grads[k]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape mismatch for {k}")
        m = hp.beta1 * state.m[k] + (1.0 - hp.beta1) * g
        v = hp.beta2 * state.v[k] + (1.0 - hp.beta2) * g * g
        # Epsilon belongs inside the square root of the bias-corrected second
        # moment. The popular "efficient" rewrite (folding the corrections
        # into the step size and adding epsilon to the raw v) is not
        # equivalent: at early steps it scales the effective epsilon by
        # 1 / (1 - beta2**t), distorting updates for small gradients.
        m_hat = m / (1.0 - hp.beta1**t)
        v_hat = v / (1.0 - hp.beta2**t)
        new_params[k] = p - hp.alpha * m_hat / np.sqrt(v_hat + hp.epsilon)
        new_m[k] = m
        new_v[k] = v
    return new_params, AdamState(new_m, new_v, t)


def finite_difference_gradient(loss_fn, params: dict, step: float = 1e-6) -> dict:
    """Central differences of loss_fn(params) per parameter component."""
    grads = {}
    for k, p in params.items():
        g = np.zeros_like(p)
        flat_p = p.ravel()
        flat_g = g.ravel()
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + step
            hi = loss_fn(params)
            flat_p[i] = orig - step
            lo = loss_fn(params)
            flat_p[i] = orig
            flat_g[i] = (hi - lo) / (2.0 * step)
        grads[k] = g
    return grads
