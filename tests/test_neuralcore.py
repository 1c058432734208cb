import tracemalloc

import numpy as np
import pytest

from capsloc import neuralcore as nc


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def make_weights(rng, hidden, inp, scale=0.5):
    return scale * nc.init_lstm_weights(inp, hidden, rng)


def zero_weights(hidden, inp):
    return np.zeros((4 * hidden, inp + hidden))


def cell(x, prev, w):
    """One LSTM step of one (X,) input from (1, H) states: the one-step
    batch of one's final state."""
    return nc.lstm_sequence_forward(np.reshape(x, (1, 1, -1)), prev, w)[0]


def backward(cache, w, dh):
    """lstm_backward with its weight gradient's row blocks joined."""
    blocks, dinit, dx = nc.lstm_backward(cache, w, dh)
    return np.concatenate(list(blocks)), dinit, dx


def scalar_cell_oracle(x, h_prev, c_prev, w):
    """Naive loop re-implementation of the cell equations."""
    hidden = len(w) // 4
    n = w.shape[1] - hidden
    # Gate row blocks of W, each split into its x and h column blocks.
    (W_ix, W_ih), (W_fx, W_fh), (W_gx, W_gh), (W_ox, W_oh) = (
        (rows[:, :n], rows[:, n:]) for rows in np.split(w, 4)
    )
    i = np.empty(hidden)
    f = np.empty(hidden)
    g = np.empty(hidden)
    o = np.empty(hidden)
    for k in range(hidden):
        i[k] = sigmoid(np.dot(W_ix[k], x) + np.dot(W_ih[k], h_prev))
        f[k] = sigmoid(np.dot(W_fx[k], x) + np.dot(W_fh[k], h_prev))
        g[k] = np.tanh(np.dot(W_gx[k], x) + np.dot(W_gh[k], h_prev))
        o[k] = sigmoid(np.dot(W_ox[k], x) + np.dot(W_oh[k], h_prev))
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    return h, c


def test_cell_zero_weights_zero_state():
    w = zero_weights(4, 3)
    state = cell(np.ones(3), nc.LstmState.zeros(1, 4), w)
    assert np.array_equal(state.h, np.zeros((1, 4)))
    assert np.array_equal(state.c, np.zeros((1, 4)))


def test_cell_zero_weights_carried_cell():
    w = zero_weights(1, 1)
    prev = nc.LstmState(h=np.zeros((1, 1)), c=np.array([[2.0]]))
    state = cell(np.array([7.0]), prev, w)
    assert abs(state.c[0, 0] - 1.0) < 1e-15
    assert abs(state.h[0, 0] - 0.5 * np.tanh(1.0)) < 1e-15
    assert abs(state.h[0, 0] - 0.380797) < 5e-7


def test_cell_matches_scalar_oracle():
    rng = np.random.default_rng(11)
    w = make_weights(rng, 6, 4)
    x = rng.normal(0, 1, 4)
    prev = nc.LstmState(h=rng.normal(0, 1, (1, 6)), c=rng.normal(0, 1, (1, 6)))
    state = cell(x, prev, w)
    h_ref, c_ref = scalar_cell_oracle(x, prev.h[0], prev.c[0], w)
    assert np.allclose(state.h[0], h_ref, atol=1e-12)
    assert np.allclose(state.c[0], c_ref, atol=1e-12)


def test_cell_dimension_mismatch():
    w = zero_weights(4, 3)
    with pytest.raises(ValueError):
        cell(np.ones(5), nc.LstmState.zeros(1, 4), w)


def test_sequence_final_state_is_last_cached_step():
    rng = np.random.default_rng(12)
    w = make_weights(rng, 5, 3)
    xs = rng.normal(0, 1, (4, 1, 3))
    init = nc.LstmState(h=rng.normal(0, 1, (1, 5)), c=rng.normal(0, 1, (1, 5)))
    final, cache = nc.lstm_sequence_forward(xs, init, w)
    assert np.array_equal(cache.h[0], init.h) and np.array_equal(cache.c[0], init.c)
    assert np.array_equal(final.h, cache.h[-1])
    assert np.array_equal(final.c, cache.c[-1])


def test_sequence_split_chaining():
    rng = np.random.default_rng(13)
    w = make_weights(rng, 5, 3)
    xs = np.array([rng.normal(0, 1, 3) for _ in range(7)])[:, None]
    init = nc.LstmState.zeros(1, 5)
    _, full = nc.lstm_sequence_forward(xs, init, w)
    mid, first = nc.lstm_sequence_forward(xs[:3], init, w)
    _, second = nc.lstm_sequence_forward(xs[3:], mid, w)
    assert np.array_equal(full.h, np.vstack([first.h, second.h[1:]]))
    assert np.array_equal(full.c, np.vstack([first.c, second.c[1:]]))


def test_cell_state_bound():
    rng = np.random.default_rng(14)
    w = make_weights(rng, 6, 3, scale=2.0)
    state = nc.LstmState(h=rng.normal(0, 1, (1, 6)), c=rng.normal(0, 1, (1, 6)))
    c0 = np.abs(state.c)
    for t in range(1, 20):
        state = cell(rng.normal(0, 2, 3), state, w)
        assert np.all(np.abs(state.c) <= c0 + t + 1e-12)


def test_backward_zero_upstream():
    rng = np.random.default_rng(15)
    w = make_weights(rng, 4, 3)
    xs = np.array([rng.normal(0, 1, 3) for _ in range(3)])[:, None]
    _, caches = nc.lstm_sequence_forward(xs, nc.LstmState.zeros(1, 4), w)
    grads, dinit, dxs = backward(caches, w, np.zeros((3, 1, 4)))
    assert grads.shape == w.shape and np.array_equal(grads, 0 * grads)
    assert np.array_equal(dxs, np.zeros((3, 1, 3)))
    assert np.array_equal(dinit.h, np.zeros((1, 4)))
    assert np.array_equal(dinit.c, np.zeros((1, 4)))


def test_backward_scalar_two_steps_hand_derived():
    # Scalar network with only W_gx = a nonzero and sigmoid gates at 0.5:
    # per step c_t = 0.5 c_{t-1} + 0.5 tanh(a x_t), h_t = 0.5 tanh(c_t).
    # Loss = h_2. Hand chain rule:
    #   dL/dc2 = 0.5 (1 - tanh(c2)^2)
    #   dL/da = dL/dc2 * [0.5 (1-tanh(a x2)^2) x2 + 0.5 * 0.5 (1-tanh(a x1)^2) x1]
    a, x1, x2 = 0.7, 0.3, -0.5
    w = zero_weights(1, 1)
    w[2, 0] = a  # W_gx: the g row block, the x column block
    xs = np.array([[[x1]], [[x2]]])
    final, caches = nc.lstm_sequence_forward(xs, nc.LstmState.zeros(1, 1), w)
    grads, _, _ = backward(caches, w, np.array([[[0.0]], [[1.0]]]))

    c1 = 0.5 * np.tanh(a * x1)
    c2 = 0.5 * c1 + 0.5 * np.tanh(a * x2)
    dc2 = 0.5 * (1 - np.tanh(c2) ** 2)
    expected = dc2 * (
        0.5 * (1 - np.tanh(a * x2) ** 2) * x2
        + 0.5 * 0.5 * (1 - np.tanh(a * x1) ** 2) * x1
    )
    assert abs(final.h[0, 0] - 0.5 * np.tanh(c2)) < 1e-15
    assert abs(grads[2, 0] - expected) < 1e-12


@pytest.mark.parametrize("trial", range(5))
def test_backward_matches_finite_differences(trial, gate_blocks):
    rng = np.random.default_rng(100 + trial)
    hidden, inp, T = 8, 3, 5
    w = make_weights(rng, hidden, inp)
    xs = np.array([rng.normal(0, 1, inp) for _ in range(T)])[:, None]
    init = nc.LstmState(h=rng.normal(0, 0.5, (1, hidden)), c=rng.normal(0, 0.5, (1, hidden)))
    targets = np.array([rng.normal(0, 1, hidden) for _ in range(T)])[:, None]

    _, caches = nc.lstm_sequence_forward(xs, init, w)
    grads, _, _ = backward(caches, w, targets)

    def loss_fn(params):
        _, cache = nc.lstm_sequence_forward(xs, init, params["W"])
        return float(np.sum(targets * cache.h[1:]))

    fd = nc.finite_difference_gradient(loss_fn, {"W": w})
    assert grads.shape == w.shape
    fd, grads = gate_blocks(fd, {"W": inp}), gate_blocks({"W": grads}, {"W": inp})
    for k in fd:
        denom = max(np.max(np.abs(fd[k])), 1e-8)
        assert np.max(np.abs(grads[k] - fd[k])) / denom < 1e-5


def test_backward_input_and_state_gradients_fd():
    rng = np.random.default_rng(200)
    hidden, inp, T = 5, 3, 4
    w = make_weights(rng, hidden, inp)
    xs = np.array([rng.normal(0, 1, inp) for _ in range(T)])[:, None]
    init = nc.LstmState(h=rng.normal(0, 0.5, (1, hidden)), c=rng.normal(0, 0.5, (1, hidden)))
    targets = np.array([rng.normal(0, 1, hidden) for _ in range(T)])[:, None]

    _, caches = nc.lstm_sequence_forward(xs, init, w)
    _, dinit, dxs = backward(caches, w, targets)

    def loss_of(inputs_flat):
        xs2 = np.stack([inputs_flat[f"x{k}"] for k in range(T)])
        init2 = nc.LstmState(h=inputs_flat["h0"], c=inputs_flat["c0"])
        _, cache = nc.lstm_sequence_forward(xs2, init2, w)
        return float(np.sum(targets * cache.h[1:]))

    params = {f"x{k}": xs[k] for k in range(T)}
    params["h0"] = init.h
    params["c0"] = init.c
    fd = nc.finite_difference_gradient(loss_of, params)
    for k in range(T):
        assert np.allclose(dxs[k], fd[f"x{k}"], atol=1e-6)
    assert np.allclose(dinit.h, fd["h0"], atol=1e-6)
    assert np.allclose(dinit.c, fd["c0"], atol=1e-6)


# A batch's GEMMs may sum in another order than a batch of one's products,
# so batch results match per-sequence ones to this relative bound.
BATCH_RTOL = 1e-12


def test_batch_matches_per_sequence_calls():
    rng = np.random.default_rng(202)
    B, T, hidden, inp = 3, 7, 16, 5
    w = make_weights(rng, hidden, inp)
    xs = rng.normal(0, 1, (T, B, inp))
    init = nc.LstmState(h=rng.normal(0, 0.5, (B, hidden)), c=rng.normal(0, 0.5, (B, hidden)))
    dh = rng.normal(0, 1, (T, B, hidden))
    final, cache = nc.lstm_sequence_forward(xs, init, w)
    dW, dinit, dx = backward(cache, w, dh)
    dW_sum = np.zeros_like(dW)
    for b in range(B):
        one = nc.LstmState(init.h[b : b + 1], init.c[b : b + 1])
        final_1, cache_1 = nc.lstm_sequence_forward(xs[:, b : b + 1], one, w)
        dW_1, dinit_1, dx_1 = backward(cache_1, w, dh[:, b : b + 1])
        dW_sum += dW_1
        for got, want in ((cache.h[:, b], cache_1.h[:, 0]), (cache.c[:, b], cache_1.c[:, 0]),
                          (final.h[b], final_1.h[0]), (dinit.h[b], dinit_1.h[0]),
                          (dinit.c[b], dinit_1.c[0]), (dx[:, b], dx_1[:, 0])):
            assert np.allclose(got, want, rtol=BATCH_RTOL, atol=0)
    assert np.allclose(dW, dW_sum, rtol=BATCH_RTOL, atol=1e-15 * np.abs(dW).max())


@pytest.mark.parametrize("hidden, inp, batch, stride", [
    (16, 5, 1, 1), (16, 5, 3, 2), (200, 5, 4, 2), (200, 400, 4, 1),
])
def test_hidden_states_are_the_sequence_forwards_bit_for_bit(hidden, inp, batch, stride):
    # The cache-free pass runs the same cell steps on the same one-GEMM
    # input projection; H = 200 runs other BLAS kernels than H = 16.
    rng = np.random.default_rng(203)
    w = make_weights(rng, hidden, inp)
    xs = rng.normal(0, 1, (6, batch, inp))
    init = nc.LstmState(h=rng.normal(0, 0.5, (batch, hidden)),
                        c=rng.normal(0, 0.5, (batch, hidden)))
    _, cache = nc.lstm_sequence_forward(xs, init, w)
    hs = nc.lstm_hidden_states(xs, init, w, stride)
    assert hs.shape == (6 // stride, batch, hidden)
    assert np.array_equal(hs, cache.h[stride::stride])


@pytest.mark.parametrize("hidden, inp", [(16, 32), (200, 5), (200, 400)])
def test_weight_gradient_comes_in_row_blocks_of_one_product(hidden, inp, monkeypatch):
    # Consecutive row blocks of at most _GRADIENT_BLOCK elements, one GEMM each,
    # that join to the whole product; a weight that fits one block is the
    # whole product's single GEMM, bit for bit.
    rng = np.random.default_rng(204)
    w = make_weights(rng, hidden, inp)
    xs = rng.normal(0, 1, (8, 2, inp))
    _, cache = nc.lstm_sequence_forward(xs, nc.LstmState.zeros(2, hidden), w)
    dh = rng.normal(0, 1, (8, 2, hidden))
    blocks = list(nc.lstm_backward(cache, w, dh)[0])
    assert all(b.shape[1:] == w.shape[1:] and b.size <= nc._GRADIENT_BLOCK for b in blocks)
    assert len(blocks) == -(-len(w) // (nc._GRADIENT_BLOCK // w.shape[1]))
    monkeypatch.setattr(nc, "_GRADIENT_BLOCK", w.size)
    (whole,) = nc.lstm_backward(cache, w, dh)[0]
    joined = np.concatenate(blocks)
    if len(blocks) == 1:
        assert np.array_equal(joined, whole)
    assert np.allclose(joined, whole, rtol=BATCH_RTOL, atol=1e-15 * np.abs(whole).max())


def test_batch_state_shape_must_match_inputs():
    # B = 5 sequences need (5, 4) states; a c whose shape differs from h's
    # is refused too.
    w = zero_weights(4, 3)
    for kernel in (nc.lstm_sequence_forward, nc.lstm_hidden_states):
        for state in (nc.LstmState.zeros(1, 4),
                      nc.LstmState(np.zeros((5, 4)), np.zeros((1, 4))),
                      nc.LstmState(np.zeros((5, 4)), np.zeros(4))):
            with pytest.raises(ValueError, match="state shape mismatch"):
                kernel(np.ones((2, 5, 3)), state, w)


@pytest.mark.parametrize("shape", [(2, 3), (3,), (0, 1, 3), (2, 0, 3)],
                         ids=["steps-input", "input", "no-steps", "no-batch"])
def test_kernels_take_only_nonempty_time_major_batches(shape):
    # A (T, X) sequence is refused, with (H,) states or (1, H) ones.
    w = zero_weights(4, 3)
    for kernel in (nc.lstm_sequence_forward, nc.lstm_hidden_states):
        for state in (nc.LstmState(np.zeros(4), np.zeros(4)), nc.LstmState.zeros(1, 4)):
            with pytest.raises(ValueError, match=r"expected a nonempty \(steps, batch, input\)"):
                kernel(np.ones(shape), state, w)


def test_linear_identity_and_bias():
    x = np.array([[1.0, 2.0, 3.0]])
    y = nc.linear_forward(x, np.eye(3), np.zeros(3))
    assert np.array_equal(y, x)
    b = np.array([4.0, 5.0])
    y = nc.linear_forward(np.zeros((1, 3)), np.zeros((2, 3)), b)
    assert np.array_equal(y, b[None])


def test_linear_gradient_check():
    rng = np.random.default_rng(21)
    for _ in range(20):
        W = rng.normal(0, 1, (4, 3))
        b = rng.normal(0, 1, 4)
        x = rng.normal(0, 1, (1, 3))
        target = rng.normal(0, 1, (1, 4))
        dW, db, dx = nc.linear_backward(x, W, target)

        def loss_fn(p):
            y2 = nc.linear_forward(p["x"], p["W"], p["b"])
            return float(np.dot(target[0], y2[0]))

        fd = nc.finite_difference_gradient(loss_fn, {"W": W, "b": b, "x": x})
        assert np.allclose(dW, fd["W"], rtol=1e-7, atol=1e-7)
        assert np.allclose(db, fd["b"], rtol=1e-7, atol=1e-7)
        assert np.allclose(dx, fd["x"], rtol=1e-7, atol=1e-7)


def test_dropout_rate_zero_and_inference():
    rng = np.random.default_rng(22)
    x = rng.normal(0, 1, 20)
    state = rng.bit_generator.state
    y, mask = nc.dropout(x, 0.0, rng)
    assert np.array_equal(y, x)
    assert np.array_equal(mask, np.ones(20))
    # Rate zero draws nothing, so the training stream is the same as with no
    # dropout; inference does not call dropout at all.
    assert rng.bit_generator.state == state


def test_dropout_statistics():
    rng = np.random.default_rng(23)
    x = np.ones(100_000)
    y, mask = nc.dropout(x, 0.5, rng)
    surv = (mask > 0).mean()
    assert abs(surv - 0.5) < 0.01
    assert abs(y.mean() - 1.0) < 0.01
    assert np.all((y == 0) | (np.abs(y - 2.0) < 1e-15))


def test_pose_loss_values():
    t = np.zeros(6)
    loss, grad, trans, rot = nc.pose_loss(t, t, 50.0)
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros(6))
    assert trans == rot == 0.0

    p = np.array([1.0, 0, 0, 0, 0, 0])
    loss, _, trans, rot = nc.pose_loss(p, t, 123.0)
    assert abs(loss - 1.0) < 1e-15
    assert (trans, rot) == (1.0, 0.0)

    p = np.array([0, 0, 0, 0, 0, 0.2])
    loss, _, trans, rot = nc.pose_loss(p, t, 50.0)
    assert abs(loss - 10.0) < 1e-12
    assert (trans, rot) == (0.0, 0.2)

    # A batch of poses: the norms are pose_residual_norms's, row by row.
    pred, target = np.random.default_rng(29).normal(0, 1, (2, 3, 4, 6))
    _, _, trans, rot = nc.pose_loss(pred, target, 2.5)
    assert trans.shape == rot.shape == (3, 4)
    expected = nc.pose_residual_norms(pred, target)
    assert np.array_equal(trans, expected[0]) and np.array_equal(rot, expected[1])


def test_pose_loss_gradient_fd():
    rng = np.random.default_rng(24)
    for _ in range(20):
        pred = rng.normal(0, 1, 6)
        target = rng.normal(0, 1, 6)
        beta = rng.uniform(0.5, 100)
        _, grad, _, _ = nc.pose_loss(pred, target, beta)
        fd = nc.finite_difference_gradient(
            lambda p: nc.pose_loss(p["pred"], target, beta)[0], {"pred": pred}
        )
        assert np.allclose(grad, fd["pred"], rtol=1e-6, atol=1e-6)


def test_pose_loss_nonnegative_zero_only_at_equal():
    rng = np.random.default_rng(25)
    for _ in range(50):
        pred = rng.normal(0, 1, 6)
        target = rng.normal(0, 1, 6)
        loss = nc.pose_loss(pred, target, 1.0)[0]
        assert loss >= 0
        if not np.array_equal(pred, target):
            assert loss > 0


def test_adam_zero_gradient_fixed_point():
    hp = nc.Hyperparams()
    params = {"w": np.array([1.0, -2.0, 3.0])}
    before = params["w"].copy()
    state = nc.adam_init(params)
    out, state = nc.adam_step(params, {"w": np.zeros(3)}.items(), state, hp)
    assert np.array_equal(out["w"], before)
    assert state.t == 1


def adam_formula(p, g, m, v, t, hp):
    """The Adam update written out, with Kingma & Ba's decay rates and
    epsilon, returning new arrays."""
    m = 0.9 * m + (1.0 - 0.9) * g
    v = 0.999 * v + (1.0 - 0.999) * g * g
    m_hat = m / (1.0 - 0.9**t)
    v_hat = v / (1.0 - 0.999**t)
    return p - hp.learning_rate * m_hat / np.sqrt(v_hat + 1e-8), m, v


def test_adam_in_place_matches_formula():
    hp = nc.Hyperparams()
    rng = np.random.default_rng(27)
    base = rng.normal(0, 1, (50, 40))
    params = {
        "big": rng.normal(0, 1, (800, 600)),
        "view": base[3:40:2, 5:30],  # strided view of a larger array
        "one": np.array([0.3]),
    }
    ref = {k: p.copy() for k, p in params.items()}
    ref_m = {k: np.zeros(p.shape) for k, p in params.items()}
    ref_v = {k: np.zeros(p.shape) for k, p in params.items()}
    state = nc.adam_init(params)
    for t in range(1, 21):
        grads = {k: rng.normal(0, 10.0 ** rng.integers(-4, 3), p.shape)
                 for k, p in params.items()}
        out, out_state = nc.adam_step(params, grads.items(), state, hp)
        assert out is params and out_state is state and state.t == t
        for k in params:
            ref[k], ref_m[k], ref_v[k] = adam_formula(
                ref[k], grads[k], ref_m[k], ref_v[k], t, hp
            )
            assert np.array_equal(params[k], ref[k]), (k, t)
            assert np.array_equal(state.m[k], ref_m[k]), (k, t)
            assert np.array_equal(state.v[k], ref_v[k]), (k, t)
    assert np.shares_memory(params["view"], base)
    assert np.array_equal(base[3:40:2, 5:30], ref["view"])


def test_adam_steps_bptt_blocks_within_a_few_blocks_of_memory():
    # The row blocks that lstm_backward makes for an H = 200 core.W,
    # (800, 600), fed to adam_step as they are made: the step is the
    # formula's bit for bit, and its traced peak stays within a few 64 KiB
    # blocks. The block being made and the update's temporaries hold four
    # 13-row blocks (61 KiB each) at once; one whole gradient is 3.7 MiB.
    hp = nc.Hyperparams()
    rng = np.random.default_rng(28)
    hidden, inp = 200, 400
    params = {"core.W": make_weights(rng, hidden, inp)}
    W = params["core.W"]
    ref = (W.copy(), np.zeros(W.shape), np.zeros(W.shape))
    state = nc.adam_init(params)
    xs = rng.normal(0, 1, (4, 1, inp))
    for t in range(1, 4):
        _, cache = nc.lstm_sequence_forward(xs, nc.LstmState.zeros(1, hidden), W)
        dh = rng.normal(0, 1, (4, 1, hidden))
        grad = backward(cache, W, dh)[0]
        blocks = nc.lstm_backward(cache, W, dh)[0]
        tracemalloc.start()
        try:
            nc.adam_step(params, (("core.W", b) for b in blocks), state, hp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 64 * 2**10, peak
        p, m, v = ref
        ref = adam_formula(p, grad, m, v, t, hp)
        assert np.array_equal(W, ref[0]), t
        assert np.array_equal(state.m["core.W"], ref[1]), t
        assert np.array_equal(state.v["core.W"], ref[2]), t


def test_adam_pair_order_moves_no_bit():
    # (key, gradient) pairs in any order step each array alike, with one t
    # per call.
    hp = nc.Hyperparams()
    rng = np.random.default_rng(29)
    params = {"a": rng.normal(0, 1, (300, 200)), "b": rng.normal(0, 1, 7)}
    ref = {k: p.copy() for k, p in params.items()}
    state, ref_state = nc.adam_init(params), nc.adam_init(ref)
    for t in range(1, 4):
        grads = {k: rng.normal(0, 1, p.shape) for k, p in params.items()}
        nc.adam_step(ref, grads.items(), ref_state, hp)
        out, out_state = nc.adam_step(params, iter([("b", grads["b"]), ("a", grads["a"])]),
                                      state, hp)
        assert out is params and out_state is state and state.t == t
        for k in params:
            assert np.array_equal(params[k], ref[k]), (k, t)
            assert np.array_equal(state.m[k], ref_state.m[k]), (k, t)
            assert np.array_equal(state.v[k], ref_state.v[k]), (k, t)


@pytest.mark.parametrize("pairs, message", [
    ([("a", 2)], "^no gradient for b$"),
    ([("a", 2), ("a", 2), ("b", 3)], "^repeated gradient key 'a'$"),
    ([("a", 2), ("b", 3), ("c", 3)], "^unknown gradient key 'c'$"),
    ([("a", 2), ("b", 4)], "^gradient shape mismatch for b$"),
])
def test_adam_stream_errors_name_the_key(pairs, message):
    # Each pair is checked before its array is updated: a bad pair leaves
    # its array as it was, and the arrays stepped before it stay stepped.
    hp = nc.Hyperparams()
    params = {"a": np.ones(2), "b": np.ones(3)}
    state = nc.adam_init(params)
    stream = ((k, np.ones(n)) for k, n in pairs)
    with pytest.raises(ValueError, match=message):
        nc.adam_step(params, stream, state, hp)
    assert state.t == 1
    assert not np.array_equal(params["a"], np.ones(2))
    if "repeated" in message:
        assert np.array_equal(state.m["a"], np.full(2, 1.0 - 0.9))  # stepped once
    if "shape" in message:
        assert np.array_equal(params["b"], np.ones(3))


def test_adam_row_blocks_equal_one_whole_array_step():
    # An array's gradient fed as consecutive row blocks, in uneven sizes and
    # interleaved with other arrays, steps it as its whole gradient does,
    # bit for bit: rows 0-39, 40-239 and 240-299 of a (300, 200) array; a
    # 1-D array in two pieces.
    hp = nc.Hyperparams()
    rng = np.random.default_rng(30)
    params = {"a": rng.normal(0, 1, (300, 200)), "b": rng.normal(0, 1, 7)}
    ref = {k: p.copy() for k, p in params.items()}
    state, ref_state = nc.adam_init(params), nc.adam_init(ref)
    for t in range(1, 4):
        grads = {k: rng.normal(0, 1, p.shape) for k, p in params.items()}
        nc.adam_step(ref, grads.items(), ref_state, hp)
        a, b = grads["a"], grads["b"]
        pairs = [("a", a[:40]), ("b", b[:3]), ("a", a[40:240]), ("b", b[3:]), ("a", a[240:])]
        nc.adam_step(params, iter(pairs), state, hp)
        for k in params:
            assert np.array_equal(params[k], ref[k]), (k, t)
            assert np.array_equal(state.m[k], ref_state.m[k]), (k, t)
            assert np.array_equal(state.v[k], ref_state.v[k]), (k, t)


@pytest.mark.parametrize("rows, message", [
    ([2, 3], "^gradient shape mismatch for a$"),
    ([4, 1], "^repeated gradient key 'a'$"),
    ([1, 2], "^no gradient for a rows 3:4$"),
])
def test_adam_block_errors_name_the_key(rows, message):
    # Blocks of a (4, 3) array: one that runs past its last row, a block
    # after the array is complete, and an array left short at the end.
    # The rows stepped before the error stay stepped, and no others.
    hp = nc.Hyperparams()
    params = {"a": np.ones((4, 3)), "b": np.ones(2)}
    state = nc.adam_init(params)
    stream = iter([("b", np.ones(2))] + [("a", np.ones((n, 3))) for n in rows])
    with pytest.raises(ValueError, match=message):
        nc.adam_step(params, stream, state, hp)
    stepped = min(rows[0] + (rows[1] if "no gradient" in message else 0), 4)
    assert not np.array_equal(params["a"][:stepped], np.ones((stepped, 3)))
    assert np.array_equal(params["a"][stepped:], np.ones((4 - stepped, 3)))


def test_adam_scalar_hand_case():
    hp = nc.Hyperparams()
    params = {"w": np.array([1.0])}
    state = nc.adam_init(params)
    out, _ = nc.adam_step(params, {"w": np.array([2.0])}.items(), state, hp)
    expected = 1.0 - 0.001 * (0.2 / (1 - 0.9)) / np.sqrt(
        0.004 / (1 - 0.999) + 1e-8
    )
    assert abs(out["w"][0] - expected) < 1e-15
    assert abs(out["w"][0] - 0.999000) < 5e-7


def test_adam_first_step_magnitude_near_alpha():
    hp = nc.Hyperparams()
    for g in (0.1, 1.0, 1e4):
        params = {"w": np.array([0.0])}
        state = nc.adam_init(params)
        out, _ = nc.adam_step(params, {"w": np.array([g])}.items(), state, hp)
        assert abs(abs(out["w"][0]) - hp.learning_rate) / hp.learning_rate < 1e-2


def test_adam_deterministic_trajectory():
    hp = nc.Hyperparams()
    rng = np.random.default_rng(26)
    grads_seq = [{"w": rng.normal(0, 1, 4)} for _ in range(10)]

    def run():
        params = {"w": np.ones(4)}
        state = nc.adam_init(params)
        for g in grads_seq:
            params, state = nc.adam_step(params, g.items(), state, hp)
        return params["w"]

    assert np.array_equal(run(), run())


def test_fd_gradient_quadratic_and_linear():
    fd = nc.finite_difference_gradient(
        lambda p: float(np.sum(p["p"] ** 2)), {"p": np.array([1.0, 2.0])}
    )
    assert np.allclose(fd["p"], [2.0, 4.0], atol=1e-8)
    fd = nc.finite_difference_gradient(
        lambda p: float(3.0 * p["p"][0] - 2.0 * p["p"][1]),
        {"p": np.array([0.3, -0.7])},
    )
    assert np.allclose(fd["p"], [3.0, -2.0], atol=1e-9)


def test_init_weights_range_and_determinism():
    w1 = nc.init_lstm_weights(16, 8, np.random.default_rng(5))
    w2 = nc.init_lstm_weights(16, 8, np.random.default_rng(5))
    assert w1.shape == (32, 24)
    assert np.array_equal(w1, w2)
    assert np.max(np.abs(w1[:, :16])) <= 1.0 / np.sqrt(16)
    assert np.max(np.abs(w1[:, 16:])) <= 1.0 / np.sqrt(8)


@pytest.mark.parametrize("inp, hidden", [(5, 4), (6, 16), (32, 16)])
def test_init_weights_match_per_block_draws(inp, hidden):
    # The eight (hidden, fan_in) blocks drawn one after another in the order
    # ix, ih, fx, fh, gx, gh, ox, oh, then stacked: the same numbers, bit
    # for bit, so every seeded network keeps its initial weights.
    rng = np.random.default_rng(9)
    blocks = [
        rng.uniform(-1 / np.sqrt(cols), 1 / np.sqrt(cols), size=(hidden, cols))
        for _ in "ifgo"
        for cols in (inp, hidden)
    ]
    expected = np.block([blocks[2 * k : 2 * k + 2] for k in range(4)])
    w = nc.init_lstm_weights(inp, hidden, np.random.default_rng(9))
    assert np.array_equal(w, expected)


@pytest.mark.parametrize("shape", [(0, 3), (6, 4), (8, 2), (8,)])
def test_lstm_weights_reject_malformed_shapes(shape):
    W = np.zeros(shape)
    _, cache = nc.lstm_sequence_forward(np.zeros((3, 1, 1)), nc.LstmState.zeros(1, 1),
                                        np.zeros((4, 2)))
    with pytest.raises(ValueError, match="expected \\(4H, X \\+ H\\)"):
        nc.lstm_sequence_forward(np.zeros((3, 1, 1)), nc.LstmState.zeros(1, 1), W)
    with pytest.raises(ValueError, match="expected \\(4H, X \\+ H\\)"):
        nc.lstm_backward(cache, W, np.zeros((3, 1, 1)))


@pytest.mark.parametrize("field, value", [("hidden_size", 0), ("dropout_rate", 1.0),
                                          ("dropout_rate", -0.1), ("learning_rate", 0.0)])
def test_hyperparams_reject_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        nc.Hyperparams(**{field: value})
