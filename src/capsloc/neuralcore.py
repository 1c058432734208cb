"""From-scratch differentiable building blocks.

LSTM cell with no bias terms:

    i = sigmoid(W_ix x + W_ih h_prev)
    f = sigmoid(W_fx x + W_fh h_prev)
    g = tanh   (W_gx x + W_gh h_prev)
    c = f * c_prev + i * g
    o = sigmoid(W_ox x + W_oh h_prev)
    h = o * tanh(c)

An LSTM's weights are one stacked array W (4H, X + H): row blocks i, f, g,
o, columns [x | h], so W_gh above is W[2H:3H, X:]. The kernels, parameters,
gradients, Adam moments and checkpoints all hold W whole. The sequence
kernels run B sequences as one time-major (T, B, X) batch with (B, H)
states, a single sequence being a batch of one:
lstm_sequence_forward takes all input projections in one GEMM, then one
h[t] W_h^T product per step; lstm_hidden_states runs the same steps
(_lstm_step) for inference and keeps only the hidden states its caller
reads; lstm_backward does one dA[t] W_h product per step, then the input
gradients dA W_x, and hands out dW = dA^T [X | H_prev] as row blocks of at
most _GRADIENT_BLOCK elements, one GEMM each. The linear layers take (N, X)
rows.

Adam variant with epsilon inside the square root of the bias-corrected
second moment:

    m <- b1 m + (1 - b1) grad
    v <- b2 v + (1 - b2) grad^2
    m_hat = m / (1 - b1^t),  v_hat = v / (1 - b2^t)
    W <- W - lr * m_hat / sqrt(v_hat + eps)

with b1 = 0.9, b2 = 0.999 and eps = 1e-8 fixed (Kingma & Ba's defaults) and
lr the Hyperparams learning rate.

This is not the usual m_hat / (sqrt(v_hat) + eps): the two agree only for
v_hat >> eps, and at v_hat = 1e-10 (eps = 1e-8) sqrt(v_hat + eps) is about
10x sqrt(v_hat) + eps.

adam_step updates parameters and moments in place, in that formula's
operation order. It takes the gradients as a stream of (key, gradient)
pairs, each an array's whole gradient or the next block of its rows, and
steps each pair as it arrives, so that training can step each of BPTT's
row blocks as soon as backward makes it and never hold a whole weight
gradient; a caller holding a dict passes its items(). The update is
elementwise, so neither the order of the arrays nor their blocking moves a
bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import require_finite

__all__ = [
    "LstmState",
    "LstmCache",
    "AdamState",
    "Hyperparams",
    "sigmoid",
    "init_lstm_weights",
    "lstm_sequence_forward",
    "lstm_hidden_states",
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


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _lstm_shape(W) -> tuple:
    """(H, X) of an LSTM's stacked W (4H, X + H); ValueError if malformed."""
    rows, cols = W.shape if W.ndim == 2 else (0, 0)
    if rows == 0 or rows % 4 or cols <= rows // 4:
        raise ValueError(
            f"LSTM weights have shape {W.shape}, expected (4H, X + H) with H, X >= 1"
        )
    return rows // 4, cols - rows // 4


class LstmState(NamedTuple):
    h: np.ndarray  # (B, H)
    c: np.ndarray  # (B, H)

    @staticmethod
    def zeros(B: int, H: int) -> "LstmState":
        return LstmState(np.zeros((B, H)), np.zeros((B, H)))


class LstmCache(NamedTuple):
    """What lstm_backward needs of a forward pass."""

    x: np.ndarray  # (T, B, X) inputs
    h: np.ndarray  # (T + 1, B, H) hidden states; h[0] is the initial one
    c: np.ndarray  # (T + 1, B, H) cell states; c[0] is the initial one
    gates: np.ndarray  # (T, B, 4H) activations i, f, g, o


def init_lstm_weights(input_size: int, hidden_size: int, rng) -> np.ndarray:
    """A stacked W (4H, X + H), uniform +/- 1/sqrt(fan_in) per gate block,
    seeded: the x and then the h block of gates i, f, g, o, drawn in that
    order."""
    W = np.empty((4 * hidden_size, input_size + hidden_size))
    for rows in np.split(W, 4):
        for block in (rows[:, :input_size], rows[:, input_size:]):
            bound = 1.0 / np.sqrt(block.shape[1])
            block[...] = rng.uniform(-bound, bound, size=block.shape)
    return W


def _projected(xs, init: LstmState, W: np.ndarray):
    """A nonempty time-major (T, B, X) batch with (B, H) states, checked
    against init and W: returns (xs as an array, the input projections of
    all steps, (T, B, 4H), from one GEMM, W_h^T)."""
    x = np.asarray(xs, dtype=float)
    if x.ndim != 3 or x.size == 0:
        raise ValueError(f"expected a nonempty (steps, batch, input) array, got {x.shape}")
    T, B, n = x.shape
    H, X = _lstm_shape(W)
    if n != X:
        raise ValueError(f"input size {n} != weights {X}")
    if init.h.shape != (B, H) or init.c.shape != (B, H):
        raise ValueError(f"state shape mismatch: h {init.h.shape} and c "
                         f"{init.c.shape}, expected {(B, H)}")
    gates = (x.reshape(T * B, n) @ W[:, :n].T).reshape(T, B, 4 * H)
    return x, gates, W[:, n:].T


def _lstm_step(a, h, c, W_h_T, h_out, c_out):
    """One cell update of B (H,) states: a, the step's (B, 4H) input
    projection, becomes its activations i, f, g, o in place, and the state
    after the step goes to h_out and c_out."""
    H = h.shape[-1]
    a += h @ W_h_T
    g = np.tanh(a[:, 2 * H : 3 * H])
    a[:] = sigmoid(a)
    a[:, 2 * H : 3 * H] = g
    np.multiply(a[:, H : 2 * H], c, out=c_out)
    c_out += a[:, :H] * g
    np.multiply(a[:, 3 * H :], np.tanh(c_out), out=h_out)


def lstm_sequence_forward(xs, init: LstmState, W: np.ndarray):
    """Run the LSTM from init over a nonempty (T, B, X) batch with (B, H)
    states. Returns (the LstmState after the last step, the LstmCache for
    lstm_backward, holding every step's h and c)."""
    x, gates, W_h_T = _projected(xs, init, W)
    (T, B, _), H = gates.shape, len(W_h_T)
    h, c = np.empty((2, T + 1, B, H))
    h[0], c[0] = init
    for t in range(T):
        _lstm_step(gates[t], h[t], c[t], W_h_T, h[t + 1], c[t + 1])
    return LstmState(h[T], c[T]), LstmCache(x, h, c, gates)


def lstm_hidden_states(xs, init: LstmState, W: np.ndarray, stride: int = 1):
    """The hidden states after steps stride, 2 stride, ... of
    lstm_sequence_forward's run, (T // stride, B, H), bit for bit, for
    inference: besides the input projections it keeps two (B, H) state
    pairs and the states it returns, and no cell or gate history."""
    _, gates, W_h_T = _projected(xs, init, W)
    (T, B, _), H = gates.shape, len(W_h_T)
    h, c, h_out, c_out = np.empty((4, B, H))  # the states before and after a step
    h[:], c[:] = init
    hs = np.empty((T // stride, B, H))
    for t in range(T):
        _lstm_step(gates[t], h, c, W_h_T, h_out, c_out)
        h, c, h_out, c_out = h_out, c_out, h, c
        if (t + 1) % stride == 0:
            hs[t // stride] = h
    return hs


def lstm_backward(cache: LstmCache, W: np.ndarray, dh_list):
    """Full BPTT over a forward pass; dh_list holds the upstream gradient on
    every step's h, (T, B, H) as the cache's h[1:], zeros allowed. Returns
    (the (4H, X + H) gradient on W, summed over the batch, as a generator of
    consecutive row blocks of at most _GRADIENT_BLOCK elements, one GEMM
    each; the gradient on the initial state; the input gradients).

    The state and input gradients are made before it returns, and the
    blocks read no W, so a caller may step W as each block arrives. The
    blocks hold on to the pre-activation gradients and the GEMM's right
    operand, but not to the cache or the per-step temporaries."""
    x, h, c, gates = cache
    T, B, n = x.shape
    H, _ = _lstm_shape(W)
    dh_up = np.asarray(dh_list, dtype=float)
    if dh_up.shape != h[1:].shape:
        raise ValueError("dh_list must hold one hidden-size gradient per step")
    i, f, g, o = (gates[..., k * H : (k + 1) * H] for k in range(4))
    tc = np.tanh(c[1:])
    dc_per_dh = o * (1.0 - tc * tc)
    # Pre-activation gradient of each gate per unit of the total gradient on
    # its step's c (gates i, f, g) or h (gate o); the loop scales step t's
    # row by that gradient in place, which gives d_pre[t].
    d_pre = 1.0 - gates
    d_pre *= gates
    d_pre[..., 2 * H : 3 * H] = 1.0 - g * g
    d_pre *= np.concatenate([g, c[:-1], i, tc], axis=-1)
    del tc
    W_h = W[:, n:]
    dh_next, dc = np.zeros((2, B, H))
    for t in range(T - 1, -1, -1):
        dh = dh_up[t] + dh_next
        dc = dc + dh * dc_per_dh[t]
        d_pre[t] *= np.concatenate([dc, dc, dc, dh], 1)
        dc = dc * f[t]
        dh_next = d_pre[t] @ W_h
    del dc_per_dh
    d_pre = d_pre.reshape(T * B, 4 * H)
    xh = np.concatenate([x.reshape(T * B, n), h[:-1].reshape(T * B, H)], 1)
    dx = (d_pre @ W[:, :n]).reshape(x.shape)
    return _weight_blocks(d_pre, xh), LstmState(dh_next, dc), dx


# lstm_backward hands out its weight gradient in blocks of whole rows of
# about this many elements, and adam_step steps each block as it arrives,
# so no whole weight gradient exists and Adam's temporaries stay the size
# of a block. At H = 200 the core LSTM's W holds 480k elements, and its
# whole gradient made 0.59 of a parameter set. Blocks of 8k elements
# (64 KiB) gave fusion-train-paper a peak RSS about 1.8 MiB below blocks
# of 32k, at about 4% more time per pass. A block's operands also stay in
# cache across the update's passes.
_GRADIENT_BLOCK = 1 << 13


def _weight_blocks(d_pre, xh):
    """d_pre^T xh, one GEMM per block of whole rows of at most
    _GRADIENT_BLOCK elements (at least one row)."""
    rows = max(1, _GRADIENT_BLOCK // xh.shape[1])
    for r in range(0, d_pre.shape[1], rows):
        yield d_pre[:, r : r + rows].T @ xh


def linear_forward(x, W, b):
    """y = W x + b for each row of an (N, X) array."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or W.shape[1] != x.shape[1] or W.shape[0] != b.shape[0]:
        raise ValueError("linear layer dimension mismatch")
    return x @ W.T + b


def linear_backward(x, W, dy):
    """Gradients of y = W x + b over (N, X) rows x and (N, Y) rows dy:
    returns (dW, db, dx), dW and db summed over the rows, dx one row per
    input."""
    return dy.T @ x, dy.sum(axis=0), dy @ W


def dropout(x, rate: float, rng):
    """Inverted dropout, for training; inference skips it. Returns (array,
    mask)."""
    x = np.asarray(x, dtype=float)
    if not (0.0 <= rate < 1.0):
        raise ValueError("rate must be in [0, 1)")
    if rate == 0.0:
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
    summed over the 6-vector rows of (..., 6) poses; a (6,) pose is one row.

    Returns (loss, gradient wrt pred, and pose_residual_norms's two norms).
    The zero subgradient is returned for an exactly-zero residual block."""
    nt, nr = pose_residual_norms(pred, target)
    res = np.asarray(pred, dtype=float) - np.asarray(target, dtype=float)
    norms = np.repeat(np.stack([nt, nr], axis=-1), 3, axis=-1)
    weighted = np.repeat([1.0, beta_loss], 3) * res
    grad = np.divide(weighted, norms, out=np.zeros_like(res), where=norms > 0)
    return float(np.sum(nt + beta_loss * nr)), grad, nt, nr


@dataclass(frozen=True)
class Hyperparams:
    learning_rate: float = 0.001
    dropout_rate: float = 0.25
    hidden_size: int = 200

    def __post_init__(self):
        require_finite(self)
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.hidden_size < 1:
            raise ValueError("hidden_size must be >= 1")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError("dropout_rate must be in [0, 1)")


# Adam's decay rates and epsilon, fixed at Kingma & Ba's defaults.
_BETA1 = 0.9
_BETA2 = 0.999
_EPSILON = 1e-8

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


def adam_step(params: dict, grads, state: AdamState, hp: Hyperparams):
    """One update of every parameter array, in place, as are the moments in
    state; returns (params, state).

    grads is a stream of (key, gradient) pairs, in any order of keys. A
    pair may hold an array's whole gradient or a block of its rows: an
    array's blocks arrive in row order, and a dict's items() give one block
    per array. Each pair is checked and applied as it arrives, and
    adam_step holds no reference to it once it asks for the next, so the
    stream may then reuse or free it.

    A ValueError names the key when its pair arrives: an unknown key; a key
    whose array is already complete ("repeated"); a block whose trailing
    shape differs from its array's, or whose rows run past the array's end
    ("shape mismatch"). When the stream ends, one names each array that
    got no rows or not all of them. Either way the rows stepped before stay
    stepped."""
    state.t += 1
    # Epsilon belongs inside the square root of the bias-corrected second
    # moment. The popular "efficient" rewrite (folding the corrections
    # into the step size and adding epsilon to the raw v) is not
    # equivalent: at early steps it scales the effective epsilon by
    # 1 / (1 - beta2**t), distorting updates for small gradients.
    m_scale = 1.0 - _BETA1**state.t
    v_scale = 1.0 - _BETA2**state.t
    filled = {}  # key -> rows stepped
    for k, g in grads:
        if k not in params:
            raise ValueError(f"unknown gradient key {k!r}")
        p = params[k]
        start = filled.get(k, 0)
        if start == len(p):
            raise ValueError(f"repeated gradient key {k!r}")
        if g.shape[1:] != p.shape[1:] or g.ndim != p.ndim or start + len(g) > len(p):
            raise ValueError(f"gradient shape mismatch for {k}")
        filled[k] = start + len(g)
        rows = slice(start, filled[k])
        _adam_update(p[rows], g, state.m[k][rows], state.v[k][rows],
                     hp.learning_rate, m_scale, v_scale)
        del g  # before the stream makes the next gradient
    missing = [k if k not in filled else f"{k} rows {filled[k]}:{len(p)}"
               for k, p in params.items() if filled.get(k, 0) < len(p)]
    if missing:
        raise ValueError(f"no gradient for {', '.join(missing)}")
    return params, state


def _adam_update(p, g, m, v, lr, m_scale, v_scale):
    """adam_step on one block of rows, in place."""
    m *= _BETA1
    m += (1.0 - _BETA1) * g
    v *= _BETA2
    v += (1.0 - _BETA2) * g * g
    p -= lr * (m / m_scale) / np.sqrt(v / v_scale + _EPSILON)


def finite_difference_gradient(loss_fn, params: dict, step: float = 1e-6) -> dict:
    """Central differences of loss_fn(params) per parameter component, each
    perturbed in place and restored, so loss_fn sees the perturbation in
    any array it reads from params. A test oracle for the analytic
    gradients (criterion 1); no training path calls it."""
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
