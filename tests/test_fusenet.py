import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from capsloc import fusenet as fn
from capsloc import neuralcore as nc
from capsloc import simkit as sk
from capsloc.geometry import Pose, Trajectory, apply_relative, relative_pose
from capsloc.magloc import MagMeasurement5DoF
from capsloc.simkit import VisMeasurement


def mag_meas(t, pos=(0.0, 0.0, -0.08), heading=(1.0, 0.0, 0.0)):
    h = np.asarray(heading, dtype=float)
    return MagMeasurement5DoF(t, np.asarray(pos, dtype=float), h / np.linalg.norm(h),
                              True, 0.0, 1)


def vis_meas(t, delta=None):
    d = np.zeros(6) if delta is None else np.asarray(delta, dtype=float)
    return VisMeasurement(t, Pose(d[:3], d[3:]))


def make_streams(n_vis=50, mag_rate=50.0, vis_rate=25.0, rng=None):
    rng = rng or np.random.default_rng(0)
    n_mag = int(n_vis * mag_rate / vis_rate)
    mag = [mag_meas(k / mag_rate, pos=rng.normal(0, 0.01, 3) + [0, 0, -0.08])
           for k in range(n_mag)]
    vis = [vis_meas(k / vis_rate, rng.normal(0, 1e-3, 6)) for k in range(1, n_vis + 1)]
    return mag, vis


def identity_stats():
    return fn.NormStats(
        np.zeros(5), np.ones(5), np.zeros(6), np.ones(6), np.zeros(6), np.ones(6)
    )


def fused_set(steps):
    """A FusedSet at 25 Hz from per-step (mag, vis, target) arrays."""
    mag, vis, target = (np.array(a) for a in zip(*steps))
    return fn.FusedSet(np.arange(1, len(mag) + 1) / 25.0, mag, vis, target)


def toy_samples(n, rng, rate_ratio=2):
    return fused_set(
        (rng.normal(0, 1, (rate_ratio, 5)), rng.normal(0, 1, 6), rng.normal(0, 1, 6))
        for k in range(n)
    )


def one_window(samples):
    """samples as one window, the form in which forward runs a whole
    sequence."""
    return samples.windows(len(samples))


def cell(x, prev, w):
    """One LSTM step of one (X,) input from (1, H) states: the one-step
    batch of one's final state."""
    return nc.lstm_sequence_forward(np.reshape(x, (1, 1, -1)), prev, w)[0]


def zero_network(hidden=4):
    net = fn.init_network(hidden, np.random.default_rng(0))
    return {k: np.zeros_like(v) for k, v in net.items()}


# --- align_streams ---------------------------------------------------------


def test_heading_angle_roundtrip():
    rng = np.random.default_rng(1)
    hs = rng.normal(0, 1, (50, 3))
    hs /= np.linalg.norm(hs, axis=1, keepdims=True)
    thetas, phis = fn.angles_from_heading(hs)
    for h, theta_b, phi_b in zip(hs, thetas, phis):
        theta, phi = fn.angles_from_heading(h)
        # One call over many headings equals a call per heading.
        assert theta == theta_b and phi == phi_b
        back = [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
        assert np.allclose(back, h, atol=1e-12)


def test_align_counting_100_mag_50_vis():
    mag, vis = make_streams(n_vis=50)
    assert len(mag) == 100
    samples = fn.align_streams(mag, vis)
    assert 49 <= len(samples) <= 50
    assert samples.mag.shape == (len(samples), 2, 5)


def test_align_missing_interval_drops_sample():
    mag, vis = make_streams(n_vis=50)
    full = fn.align_streams(mag, vis)
    # Remove one magnetic sample from the middle of an interval.
    gap = [m for m in mag if abs(m.timestamp - 0.5) > 1e-12]
    gapped = fn.align_streams(gap, vis)
    assert len(gapped) == len(full) - 1


def test_align_no_gt_targets_absent():
    mag, vis = make_streams(n_vis=20)
    samples = fn.align_streams(mag, vis)
    assert samples.target is None


def test_align_with_gt_targets_are_relative_poses():
    cfg = sk.SimConfig(duration=2.0, seed=31, vis_trans_noise_sd=0.0,
                       vis_rot_noise_sd=0.0, vis_drift_rate=0.0,
                       vis_rot_drift_rate=0.0,
        vis_trans_bias_rate=0.0, vis_rot_bias_rate=0.0)
    ds = sk.simulate_dataset(cfg)
    mag = [mag_meas(m.timestamp) for m in ds.mag]
    samples = fn.align_streams(mag, ds.vis, gt=ds.gt)
    # With noise and drift off, targets equal the visual deltas exactly.
    assert np.allclose(samples.target[1:], samples.vis[1:], atol=1e-9)


def test_align_empty_stream_errors():
    mag, vis = make_streams(n_vis=10)
    with pytest.raises(fn.AlignmentError):
        fn.align_streams([], vis)
    with pytest.raises(fn.AlignmentError):
        fn.align_streams(mag, [])


def test_align_no_overlap_errors():
    mag = [mag_meas(k / 50.0) for k in range(10)]
    vis = [vis_meas(100.0 + k / 25.0) for k in range(1, 5)]
    with pytest.raises(fn.AlignmentError):
        fn.align_streams(mag, vis)


def test_rate_contract_on_simulated_datasets():
    for seed in range(3):
        cfg = sk.SimConfig(duration=2.0, seed=seed)
        ds = sk.simulate_dataset(cfg)
        mag = [mag_meas(m.timestamp) for m in ds.mag]
        samples = fn.align_streams(mag, ds.vis, gt=ds.gt, rate_ratio=cfg.rate_ratio)
        assert samples.mag.shape[1] == cfg.rate_ratio
        assert len(samples) >= len(ds.vis) - 1


def test_align_gathers_each_interval_in_order():
    mag, vis = make_streams(n_vis=20)
    samples = fn.align_streams(mag, vis)
    positions = np.array([m.position for m in mag])
    for k, t in enumerate(samples.times):
        inside = [j for j, m in enumerate(mag) if t - 0.04 + 1e-9 <= m.timestamp < t + 1e-9]
        assert np.array_equal(samples.mag[k, :, :3], positions[inside])


def test_fused_set_windows_and_slices():
    samples = toy_samples(11, np.random.default_rng(14))
    windows = samples.windows(4)
    assert len(windows) == 2 and windows.mag.shape == (2, 4, 2, 5)
    assert np.array_equal(windows.vis[1], samples.vis[4:8])
    assert np.array_equal(windows[1:].target[0], samples[4:8].target)
    joined = fn.FusedSet.concat([samples[:3], samples[3:]])
    assert all(np.array_equal(getattr(joined, f), getattr(samples, f))
               for f in ("times", "mag", "vis", "target"))


# --- forward ---------------------------------------------------------------


def test_forward_zero_weights_outputs_head_bias():
    net = zero_network()
    bias = np.array([0.1, -0.2, 0.3, 0.0, 0.5, -0.6])
    net["head.b"] = bias
    samples = one_window(toy_samples(7, np.random.default_rng(1)))
    outputs, _ = fn.forward(net, samples)
    assert outputs.shape == (1, 7, 6)
    for y in outputs[0]:
        assert np.allclose(y, bias, atol=1e-15)


def test_forward_output_length_matches_input():
    net = fn.init_network(4, np.random.default_rng(2))
    for n in (1, 3, 11):
        outputs, caches = fn.forward(net, one_window(toy_samples(n, np.random.default_rng(3))),
                                     training=True)
        assert outputs.shape == (1, n, 6)
        grads = dict(fn.gradient_stream(net, caches, np.zeros((1, n, 6))))
        assert sorted(grads) == sorted(net)
        for k, p in net.items():
            assert grads[k].shape == p.shape, k


def test_inference_forward_keeps_no_caches():
    # Inference skips dropout, whatever the rate, and draws nothing; its
    # outputs are training's at rate zero, bit for bit.
    net = fn.init_network(5, np.random.default_rng(6))
    for samples in (one_window(toy_samples(11, np.random.default_rng(7))),
                    toy_samples(24, np.random.default_rng(8)).windows(8)):
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        outputs, caches = fn.forward(net, samples, rng=rng, dropout_rate=0.5)
        assert caches is None
        assert rng.bit_generator.state == state
        train_out, train_caches = fn.forward(net, samples, training=True)
        assert train_caches is not None
        assert np.array_equal(outputs, train_out)


def paper_size_windows(n_windows=16, T=32):
    """n_windows normalized windows of T steps and an H = 200 network."""
    net = fn.init_network(200, np.random.default_rng(19))
    return net, toy_samples(n_windows * T, np.random.default_rng(20)).windows(T)


def test_inference_forward_is_training_forward_at_paper_size():
    # H = 200 runs other BLAS kernels than the small networks above; the
    # cache-free inference pass still gives training's outputs at dropout
    # rate zero, bit for bit.
    net, windows = paper_size_windows(n_windows=4)
    outputs, _ = fn.forward(net, windows)
    train_out, _ = fn.forward(net, windows, training=True)
    assert np.array_equal(outputs, train_out)


def test_inference_chunk_keeps_only_the_hidden_states_it_reads():
    # One _INFERENCE_CHUNK of 16 windows of 32 steps at H = 200 peaks at
    # 7.4 MiB traced: the magnetic LSTM's input projection (6.25 MiB) and
    # the hidden states read back. Every step's h, c and gates, kept as
    # training keeps them, peak at 15.8 MiB.
    net, windows = paper_size_windows()
    assert len(windows) == fn._INFERENCE_CHUNK
    tracemalloc.start()
    try:
        fn._infer(net, windows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2**20, peak / 2**20


def test_forward_matches_step_by_step_oracle():
    rng = np.random.default_rng(4)
    net = fn.init_network(3, rng)
    samples = toy_samples(5, rng)
    outputs, _ = fn.forward(net, one_window(samples))

    mag_s = nc.LstmState.zeros(1, 3)
    vis_s = nc.LstmState.zeros(1, 3)
    core_s = nc.LstmState.zeros(1, 3)
    for k in range(len(samples)):
        for r in range(2):
            mag_s = cell(samples.mag[k, r], mag_s, net["mag.W"])
        vis_s = cell(samples.vis[k], vis_s, net["vis.W"])
        z = np.concatenate([mag_s.h[0], vis_s.h[0]])
        core_s = cell(z, core_s, net["core.W"])
        y = net["head.W"] @ core_s.h[0] + net["head.b"]
        assert np.allclose(outputs[0, k], y, atol=1e-12)


def test_sequence_kernel_matches_per_cell_loop(gate_blocks):
    # H = 7: the magnetic (5) and visual (6) inputs are narrower than H and
    # the core's (14) wider. Three magnetic inputs per step, dropout on.
    H, r, rate = 7, 3, 0.25
    rng = np.random.default_rng(40)
    net = fn.init_network(H, rng)
    samples = toy_samples(5, rng, rate_ratio=r)
    window = one_window(samples)
    outputs, caches = fn.forward(
        net, window, training=True, rng=np.random.default_rng(41),
        dropout_rate=rate,
    )

    mask_rng = np.random.default_rng(41)
    mag_s, vis_s, core_s = (nc.LstmState.zeros(1, H) for _ in range(3))
    for k in range(len(samples)):
        for x in samples.mag[k]:
            mag_s = cell(x, mag_s, net["mag.W"])
        vis_s = cell(samples.vis[k], vis_s, net["vis.W"])
        keep = (mask_rng.random(2 * H) >= rate) / (1.0 - rate)
        z = np.concatenate([mag_s.h[0], vis_s.h[0]]) * keep
        core_s = cell(z, core_s, net["core.W"])
        assert np.allclose(outputs[0, k], net["head.W"] @ core_s.h[0] + net["head.b"],
                           rtol=0, atol=1e-12)

    targets = window.target

    def loss_fn(params):
        y, _ = fn.forward(params, window, training=True,
                          rng=np.random.default_rng(41), dropout_rate=rate)
        return nc.pose_loss(y, targets, 2.5)[0]

    grads = dict(fn.gradient_stream(net, caches, nc.pose_loss(outputs, targets, 2.5)[1]))
    fd = nc.finite_difference_gradient(loss_fn, net, step=1e-5)
    assert sorted(grads) == sorted(fd)
    inputs = {"mag.W": 5, "vis.W": 6, "core.W": 2 * H}
    fd, grads = gate_blocks(fd, inputs), gate_blocks(grads, inputs)
    for k in fd:
        denom = max(np.max(np.abs(fd[k])), 1e-8)
        assert np.max(np.abs(grads[k] - fd[k])) / denom < 1e-5, k


# A batch's GEMMs may sum in another order than one window's products, so
# batched results match per-window ones to this relative bound.
BATCH_RTOL = 1e-12


def test_batched_forward_matches_per_window_forward():
    rng = np.random.default_rng(42)
    net = fn.init_network(5, rng)
    windows = toy_samples(24, rng).windows(8)
    outputs, _ = fn.forward(net, windows)
    assert outputs.shape == (3, 8, 6)
    for b in range(3):
        one, _ = fn.forward(net, windows[b : b + 1])
        assert np.allclose(outputs[b], one[0], rtol=BATCH_RTOL, atol=0)


def test_eval_loss_and_head_bias_refit_match_per_window_loops():
    rng = np.random.default_rng(43)
    net = fn.init_network(5, rng)
    # One batch, and more windows than one batched pass takes.
    for n_windows in (5, fn._INFERENCE_CHUNK + 3):
        windows = toy_samples(8 * n_windows, rng).windows(8)
        per_window = [nc.pose_loss(fn.forward(net, windows[b : b + 1])[0], windows.target[b],
                                   2.5)[0]
                      for b in range(n_windows)]
        loss = fn._eval_loss(net, windows, 2.5)
        assert np.isclose(loss, sum(per_window) / (8 * n_windows), rtol=BATCH_RTOL, atol=0)

        refit = fn._refit_head_bias(net, windows)
        residuals = [fn.forward(net, windows[b : b + 1])[0][0] - windows.target[b]
                     for b in range(n_windows)]
        expected = net["head.b"] - np.mean(np.concatenate(residuals), axis=0)
        assert np.allclose(refit["head.b"], expected, rtol=BATCH_RTOL, atol=1e-15)
        for k in ("mag.W", "vis.W", "core.W", "head.W"):
            assert refit[k] is net[k]


def test_calibrate_beta_matches_per_window_loop():
    # More windows than one batched pass takes; a target sd of 10 on the
    # translation keeps the ratio inside the clamp.
    rng = np.random.default_rng(44)
    net = fn.init_network(5, rng)
    windows = toy_samples(8 * (fn._INFERENCE_CHUNK + 3), rng).windows(8)
    stats = identity_stats()
    stats.target_sd = np.repeat([10.0, 1.0], 3)
    beta, flagged = fn.calibrate_beta(net, windows, stats)
    residuals = np.concatenate([fn.forward(net, windows[b : b + 1])[0][0] - windows.target[b]
                                for b in range(len(windows))])
    trans, rot = nc.pose_residual_norms(residuals * stats.target_sd, np.zeros(6))
    assert 1.0 < beta < 1000.0 and not flagged
    assert np.isclose(beta, trans.mean() / rot.mean(), rtol=BATCH_RTOL, atol=0)


def test_forward_shape_asymmetry_contract():
    # 5-input magnetic branch, 6-input visual branch, 6-DoF output.
    net = fn.init_network(4, np.random.default_rng(6))
    assert net["mag.W"].shape == (16, 5 + 4)
    assert net["vis.W"].shape == (16, 6 + 4)
    assert net["head.W"].shape[0] == 6
    outputs, _ = fn.forward(net, one_window(toy_samples(3, np.random.default_rng(7))))
    assert outputs.shape[-1] == 6


# --- gradients -------------------------------------------------------------


def test_end_to_end_gradient_check(gate_blocks):
    rng = np.random.default_rng(8)
    net = fn.init_network(4, rng)
    window = one_window(toy_samples(3, rng))

    outputs, caches = fn.forward(net, window, training=True)
    dy = nc.pose_loss(outputs, window.target, 2.5)[1]
    grads = dict(fn.gradient_stream(net, caches, dy))

    def loss_fn(params):
        return nc.pose_loss(fn.forward(params, window)[0], window.target, 2.5)[0]

    fd = nc.finite_difference_gradient(loss_fn, net)
    inputs = {"mag.W": 5, "vis.W": 6, "core.W": 8}
    fd, grads = gate_blocks(fd, inputs), gate_blocks(grads, inputs)
    for k in fd:
        denom = max(np.max(np.abs(fd[k])), 1e-6)
        assert np.max(np.abs(grads[k] - fd[k])) / denom < 1e-4, k


def test_gradient_stream_order():
    # BPTT hands over the gradients in the order it makes them, each shaped
    # as its array.
    rng = np.random.default_rng(15)
    net = fn.init_network(4, rng)
    window = toy_samples(6, rng).windows(3)
    outputs, caches = fn.forward(net, window, training=True, rng=rng, dropout_rate=0.25)
    dy = nc.pose_loss(outputs, window.target, 2.5)[1]
    pairs = list(fn.gradient_stream(net, caches, dy))
    assert [k for k, _ in pairs] == ["head.W", "head.b", "core.W", "vis.W", "mag.W"]
    for k, g in pairs:
        assert g.shape == net[k].shape, k


def test_streamed_adam_step_equals_whole_gradient_step():
    # train's step (_train_step: each array stepped as BPTT makes its
    # gradient, the norm squared in place afterwards) against the whole
    # gradient dict's items fed to adam_step, from the same weights, Adam
    # state and dropout draws: weights, moments, t and every window's norm agree bit
    # for bit.
    rng = np.random.default_rng(16)
    hp = nc.Hyperparams(hidden_size=8, dropout_rate=0.25)
    net = fn.init_network(8, rng)
    windows = toy_samples(20, rng).windows(4)
    streamed = {k: v.copy() for k, v in net.items()}
    whole = {k: v.copy() for k, v in net.items()}
    adam_s, adam_w = nc.adam_init(streamed), nc.adam_init(whole)
    rng_s, rng_w = np.random.default_rng(3), np.random.default_rng(3)
    for k in range(len(windows)):
        window = windows[k : k + 1]
        loss_s, trans_s, rot_s, norm_s = fn._train_step(streamed, window, 2.5, hp, rng_s, adam_s)
        outputs, caches = fn.forward(whole, window, training=True, rng=rng_w,
                                     dropout_rate=hp.dropout_rate)
        loss_w, dy, trans_w, rot_w = nc.pose_loss(outputs, window.target, 2.5)
        grads = dict(fn.gradient_stream(whole, caches, dy))
        nc.adam_step(whole, grads.items(), adam_w, hp)
        norm_w = np.sqrt(sum(np.sum(grads[key] * grads[key]) for key in net))
        assert loss_s == loss_w and norm_s == norm_w, k
        assert np.array_equal(trans_s, trans_w) and np.array_equal(rot_s, rot_w)
        assert adam_s.t == adam_w.t == k + 1
        for key in net:
            assert np.array_equal(streamed[key], whole[key]), (key, k)
            assert np.array_equal(adam_s.m[key], adam_w.m[key]), (key, k)
            assert np.array_equal(adam_s.v[key], adam_w.v[key]), (key, k)
    assert not np.array_equal(streamed["core.W"], net["core.W"])


def test_streamed_blocks_at_paper_size_equal_joined_gradient_step():
    # At H = 200 the LSTM weights' gradients come in row blocks. Stepping
    # each block as it arrives (_train_step) gives the weights and moments
    # of one step on the joined gradients, bit for bit, and the norm adds
    # up the per-block sums.
    hp = nc.Hyperparams(hidden_size=200, dropout_rate=0.25)
    net, windows = paper_size_windows(n_windows=1)
    streamed = {k: v.copy() for k, v in net.items()}
    adam_s, adam_j = nc.adam_init(streamed), nc.adam_init(net)
    rng_s, rng_j = np.random.default_rng(5), np.random.default_rng(5)
    _, _, _, norm_s = fn._train_step(streamed, windows, 2.5, hp, rng_s, adam_s)
    outputs, caches = fn.forward(net, windows, training=True, rng=rng_j,
                                 dropout_rate=hp.dropout_rate)
    dy = nc.pose_loss(outputs, windows.target, 2.5)[1]
    pairs = list(fn.gradient_stream(net, caches, dy))
    assert [k for k, _ in pairs].count("core.W") > 1
    joined = {k: np.concatenate([g for key, g in pairs if key == k]) for k in net}
    nc.adam_step(net, joined.items(), adam_j, hp)
    norm_j = np.sqrt(sum(np.sum(g * g) for g in joined.values()))
    assert np.isclose(norm_s, norm_j, rtol=1e-14, atol=0)
    for key in net:
        assert np.array_equal(streamed[key], net[key]), key
        assert np.array_equal(adam_s.m[key], adam_j.m[key]), key
        assert np.array_equal(adam_s.v[key], adam_j.v[key]), key


def test_train_step_with_nonfinite_loss_steps_nothing():
    rng = np.random.default_rng(17)
    hp = nc.Hyperparams(hidden_size=4)
    net = fn.init_network(4, rng)
    before = {k: v.copy() for k, v in net.items()}
    window = toy_samples(4, rng).windows(4)
    window.target[0, 1, 2] = np.inf
    adam = nc.adam_init(net)
    with np.errstate(invalid="ignore"):
        loss, _, _, norm = fn._train_step(net, window, 2.5, hp, rng, adam)
    assert not np.isfinite(loss) and norm is None and adam.t == 0
    for k in net:
        assert np.array_equal(net[k], before[k]), k


# --- normalization ---------------------------------------------------------


def test_normalization_roundtrip():
    rng = np.random.default_rng(9)
    samples = toy_samples(40, rng)
    samples.mag *= 0.01
    samples.vis *= 1e-3
    samples.target *= 1e-3
    stats = fn.compute_norm_stats(samples)
    n = stats.normalize(samples[:5])
    assert np.allclose(stats.denormalize_output(n.target), samples.target[:5], atol=1e-12)
    y = rng.normal(0, 1, 6)
    renorm = (stats.denormalize_output(y) - stats.target_mean) / stats.target_sd
    assert np.allclose(renorm, y, atol=1e-12)


def test_norm_stats_floor_on_constant_channel():
    rng = np.random.default_rng(10)
    samples = toy_samples(20, rng)
    samples.target[:, 2] = 0.5  # constant channel
    stats = fn.compute_norm_stats(samples)
    assert stats.target_sd[2] >= 1e-8


# --- calibrate_beta --------------------------------------------------------


def beta_case(trans_norm, rot_norm):
    """Zero network (outputs 0) and identity stats: residual = -target."""
    net = zero_network()
    stats = identity_stats()
    t = np.zeros(6)
    t[0] = trans_norm
    t[5] = rot_norm
    samples = fused_set((np.zeros((2, 5)), np.zeros(6), t.copy()) for _ in range(4))
    return fn.calibrate_beta(net, one_window(samples), stats)


def test_calibrate_beta_equal_scale():
    beta, flagged = beta_case(0.001, 0.001)
    assert abs(beta - 1.0) < 1e-12
    assert not flagged


def test_calibrate_beta_ratio_100():
    beta, flagged = beta_case(0.01, 0.0001)
    assert abs(beta - 100.0) < 1e-9
    assert not flagged


def test_calibrate_beta_zero_rotation_clamped():
    beta, flagged = beta_case(0.01, 0.0)
    assert beta == 1000.0
    assert flagged


def test_calibrate_beta_clamp_lower():
    beta, flagged = beta_case(1e-6, 1.0)
    assert beta == 1.0
    assert not flagged


# --- training --------------------------------------------------------------


def constant_delta_dataset(n=200, rate_ratio=2):
    delta = np.array([1e-3, -5e-4, 2e-4, 1e-3, -2e-3, 5e-4])
    rng = np.random.default_rng(11)
    return fused_set(
        (rng.normal(0, 1.0, (rate_ratio, 5)) * 0.01, delta + rng.normal(0, 1e-5, 6),
         delta.copy())
        for k in range(n)
    )


def test_train_constant_sequence_loss_drops_90pct():
    cfg = fn.TrainingConfig(max_epochs=50, window_length=16, seed=0,
                            early_stop_patience=50, warmup_epochs=10)
    hp = nc.Hyperparams(hidden_size=8, dropout_rate=0.0)
    ckpt, log = fn.train([constant_delta_dataset()], cfg, hp)
    losses = [r["train_loss"] for r in log if "train_loss" in r]
    assert losses[-1] <= 0.1 * losses[0]


def test_train_early_stopping_patience():
    cfg = fn.TrainingConfig(max_epochs=50, window_length=8, seed=1,
                            early_stop_patience=3, warmup_epochs=0)
    hp = nc.Hyperparams(hidden_size=4, dropout_rate=0.0, learning_rate=10.0)
    # A huge learning rate keeps validation loss from improving for long.
    ckpt, log = fn.train([constant_delta_dataset(n=64)], cfg, hp)
    epochs = [r["epoch"] for r in log if "train_loss" in r]
    vals = [r["val_loss"] for r in log if "val_loss" in r]
    best_epoch = int(np.argmin(vals)) + 1
    # Stops exactly `patience` epochs after the last validation improvement.
    assert max(epochs) == best_epoch + 3
    assert max(epochs) < 50


def test_train_deterministic():
    cfg = fn.TrainingConfig(max_epochs=5, window_length=8, seed=7,
                            early_stop_patience=10, warmup_epochs=2)
    hp = nc.Hyperparams(hidden_size=4, dropout_rate=0.25)
    a_ckpt, a_log = fn.train([constant_delta_dataset(n=64)], cfg, hp)
    b_ckpt, b_log = fn.train([constant_delta_dataset(n=64)], cfg, hp)
    assert a_log == b_log
    for k in a_ckpt.params:
        assert np.array_equal(a_ckpt.params[k], b_ckpt.params[k])


def test_train_holds_each_parameter_array_once():
    # Paper size: the weights, Adam's m and v and the best epoch are four
    # parameter sets. Adam steps each block of rows as BPTT makes it, so
    # no whole weight gradient exists, and a window's caches and
    # temporaries, or an inference chunk, come on top: 4.32 sets. A whole
    # core.W gradient (0.59 of a set), or a gradient, cache or best copy
    # that outlives its use, breaks the bound.
    # Two 149-step sets of four 32-step windows, three epochs.
    rng = np.random.default_rng(13)
    sets = [toy_samples(149, rng) for _ in range(2)]
    cfg = fn.TrainingConfig(max_epochs=3, window_length=32)
    param_bytes = 8 * sum(int(np.prod(s)) for s in fn._param_shapes(200).values())
    tracemalloc.start()
    try:
        fn.train(sets, cfg, nc.Hyperparams(hidden_size=200))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.6 * param_bytes, peak / param_bytes


@pytest.mark.parametrize("field, value", [("max_epochs", 0), ("validation_fraction", 1.0),
                                          ("validation_fraction", -0.25),
                                          ("validation_fraction", 0.0)])
def test_training_config_rejects_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        fn.TrainingConfig(**{field: value})


def test_train_rejects_split_without_training_datasets():
    # Two datasets at validation_fraction 0.75: round(1.5) = 2 validate.
    cfg = fn.TrainingConfig(max_epochs=1, window_length=8, validation_fraction=0.75)
    hp = nc.Hyperparams(hidden_size=4)
    sets = [constant_delta_dataset(n=32)] * 2
    with pytest.raises(ValueError, match="leaves none to train on"):
        fn.train(sets, cfg, hp)


@pytest.mark.parametrize("odd", [1, 3])
def test_train_rejects_datasets_whose_rate_ratios_differ(odd):
    # Dataset 3 is the validation set at validation_fraction 0.25; dataset 1
    # is a training set.
    rng = np.random.default_rng(14)
    sets = [toy_samples(32, rng, rate_ratio=3 if k == odd else 2) for k in range(4)]
    cfg = fn.TrainingConfig(max_epochs=1, window_length=8)
    with pytest.raises(ValueError, match=f"dataset {odd} has rate ratio 3, dataset 0 has 2"):
        fn.train(sets, cfg, nc.Hyperparams(hidden_size=4))


def test_train_refits_head_bias_to_zero_mean_residual():
    # The returned head bias is refit so that, in inference mode, the mean
    # per-step residual over the training windows is zero.
    rng = np.random.default_rng(12)
    datasets = [toy_samples(48, rng) for _ in range(4)]
    cfg = fn.TrainingConfig(max_epochs=3, window_length=8, seed=4,
                            early_stop_patience=10, warmup_epochs=1)
    hp = nc.Hyperparams(hidden_size=4, dropout_rate=0.25)
    ckpt, _ = fn.train(datasets, cfg, hp)
    residuals = []
    for ds in datasets[:3]:  # validation_fraction 0.25 holds out the last set
        normed = ckpt.stats.normalize(ds)
        for k in range(0, len(normed) - cfg.window_length + 1, cfg.window_length):
            window = normed[k : k + cfg.window_length]
            outputs, _ = fn.forward(ckpt.params, one_window(window))
            residuals.extend(outputs[0] - window.target)
    residuals = np.array(residuals)
    assert np.all(np.std(residuals, axis=0) > 0.1)
    assert np.max(np.abs(residuals.mean(axis=0))) < 1e-12


def test_train_aborted_checkpoint_keeps_hp_and_stores_beta(tmp_path):
    # An aborted run returns the caller's Hyperparams and the beta it
    # trained with. A learning rate near the float maximum makes the first
    # Adam step's weights overflow the next window's loss.
    data = constant_delta_dataset(n=64)
    cfg = fn.TrainingConfig(max_epochs=3, window_length=8, warmup_epochs=0)
    hp = nc.Hyperparams(hidden_size=4, learning_rate=1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        ckpt, log = fn.train([data], cfg, hp)
    assert log == [{"epoch": 1, "aborted": "non-finite loss"}]
    assert ckpt.beta_loss == 1.0
    assert ckpt.hyperparams == hp
    path = tmp_path / "train.log"
    fn.write_training_log(path, log)
    assert path.read_text().splitlines() == [
        "# epoch train_loss val_loss beta lr train_trans train_rot grad_norm",
        "# aborted at epoch 1: non-finite loss",
    ]


@pytest.mark.parametrize("field", ["mag", "vis", "target"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_train_rejects_non_finite_inputs(field, value):
    sets = [constant_delta_dataset(n=32) for _ in range(3)]
    getattr(sets[1], field)[17].flat[-1] = value
    cfg = fn.TrainingConfig(max_epochs=1, window_length=8)
    with pytest.raises(ValueError, match=f"dataset 1 step 17: non-finite {field}"):
        fn.train(sets, cfg, nc.Hyperparams(hidden_size=4))


def test_train_single_dataset_short_tail_validates_on_last_window():
    # 40 samples hold two 16-step windows. The 75% cut would leave a
    # 10-sample tail, too short for a window, so the cut moves to step 24
    # and the last 16 samples validate.
    cfg = fn.TrainingConfig(max_epochs=2, window_length=16, warmup_epochs=0)
    hp = nc.Hyperparams(hidden_size=4, dropout_rate=0.0)
    _, log = fn.train([constant_delta_dataset(n=40)], cfg, hp)
    assert [r["epoch"] for r in log] == [1, 2]
    assert all(np.isfinite(r["val_loss"]) for r in log)


@pytest.mark.parametrize("fraction, cut", [(0.25, 48), (0.5, 32), (0.1, 56)])
def test_train_single_dataset_split_honours_validation_fraction(fraction, cut):
    # One dataset is cut at 1 - validation_fraction of its steps, but at
    # most one window before its end, and the norm statistics come from
    # the steps before the cut: at 0.1, the cut at step 57 would leave a
    # 7-step tail, so it moves to 56 and no step both trains and validates.
    data = toy_samples(64, np.random.default_rng(18))
    cfg = fn.TrainingConfig(max_epochs=1, window_length=8, validation_fraction=fraction)
    ckpt, _ = fn.train([data], cfg, nc.Hyperparams(hidden_size=4))
    expected = fn.compute_norm_stats(data[:cut])
    for name, value in vars(expected).items():
        assert np.array_equal(getattr(ckpt.stats, name), value), name


def test_train_single_dataset_shorter_than_two_windows_is_refused():
    # 15 steps cannot hold a training and a validation window of 8 steps
    # that share no step.
    cfg = fn.TrainingConfig(max_epochs=1, window_length=8)
    with pytest.raises(ValueError, match="single dataset of 15 steps"):
        fn.train([toy_samples(15, np.random.default_rng(21))], cfg,
                 nc.Hyperparams(hidden_size=4))


def test_training_log_format(tmp_path):
    cfg = fn.TrainingConfig(max_epochs=3, window_length=8, seed=2,
                            early_stop_patience=10, warmup_epochs=1)
    hp = nc.Hyperparams(hidden_size=4, dropout_rate=0.0)
    _, log = fn.train([constant_delta_dataset(n=64)], cfg, hp)
    path = tmp_path / "train.log"
    fn.write_training_log(path, log)
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == len(log)
    for line in lines:
        fields = line.split()
        assert len(fields) == 8
        int(fields[0])
        loss, _, beta, _, trans, rot, grad_norm = [float(x) for x in fields[1:]]
        # The loss splits into its translational and rotational terms.
        assert abs(loss - (trans + beta * rot)) < 1e-12 * loss
        assert grad_norm > 0


# --- prediction ------------------------------------------------------------


def test_predict_zero_delta_constant_trajectory():
    net = zero_network(hidden=4)
    ckpt = fn.Checkpoint(net, 2, nc.Hyperparams(hidden_size=4),
                         identity_stats(), 1.0)
    mag, vis = make_streams(n_vis=20)
    start = Pose([0.01, 0.02, -0.08], [0.1, 0.0, 0.2])
    traj = fn.predict_trajectory(ckpt, mag, vis, start)
    samples = fn.align_streams(mag, vis)
    assert len(traj.times) == len(samples)
    for p in traj.poses:
        assert np.allclose(p[:3], start.t, atol=1e-15)
        assert np.allclose(p[3:], start.r, atol=1e-15)


def test_target_integration_reproduces_ground_truth():
    # Oracle for the predict_trajectory integrator: perfect per-step outputs
    # (the targets themselves) must rebuild the ground truth.
    cfg = sk.SimConfig(duration=4.0, seed=33, vis_trans_noise_sd=0.0,
                       vis_rot_noise_sd=0.0, vis_drift_rate=0.0,
                       vis_rot_drift_rate=0.0,
        vis_trans_bias_rate=0.0, vis_rot_bias_rate=0.0)
    ds = sk.simulate_dataset(cfg)
    mag = [mag_meas(m.timestamp) for m in ds.mag]
    samples = fn.align_streams(mag, ds.vis, gt=ds.gt)
    from capsloc.geometry import resample_trajectory

    pose = ds.gt.pose(0).as_vector()
    on_gt = resample_trajectory(ds.gt, np.minimum(samples.times, ds.gt.times[-1]))
    for target, true_pose in zip(samples.target, on_gt.poses):
        pose = apply_relative(pose, target)
        assert np.linalg.norm(pose[:3] - true_pose[:3]) < 1e-6


# --- checkpoint ------------------------------------------------------------


def trained_tiny_checkpoint():
    cfg = fn.TrainingConfig(max_epochs=3, window_length=8, seed=3,
                            early_stop_patience=10, warmup_epochs=1)
    hp = nc.Hyperparams(hidden_size=4, dropout_rate=0.0)
    ckpt, _ = fn.train([constant_delta_dataset(n=64)], cfg, hp)
    return ckpt


def test_checkpoint_roundtrip(tmp_path):
    ckpt = trained_tiny_checkpoint()
    path = tmp_path / "ckpt.txt"
    fn.save_checkpoint(path, ckpt)
    back = fn.load_checkpoint(path)
    assert back.rate_ratio == ckpt.rate_ratio
    assert back.beta_loss == ckpt.beta_loss
    assert back.hyperparams == ckpt.hyperparams
    for k in ckpt.params:
        assert np.array_equal(back.params[k], ckpt.params[k])
    for f in ("mag_mean", "mag_sd", "vis_mean", "vis_sd", "target_mean", "target_sd"):
        assert np.array_equal(getattr(back.stats, f), getattr(ckpt.stats, f))
    # A rate ratio or beta that load_checkpoint would refuse is refused
    # before the file is opened.
    for bad, message in [
        (dict(beta_loss=np.nan), "beta_loss must be finite and > 0, got nan"),
        (dict(beta_loss=-3.0), r"beta_loss must be finite and > 0, got -3\.0"),
        (dict(rate_ratio=0), "rate_ratio must be >= 1, got 0"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            fn.save_checkpoint(tmp_path / "bad.txt", replace(ckpt, **bad))
        assert not (tmp_path / "bad.txt").exists()


def test_checkpoint_predictions_identical_after_roundtrip(tmp_path):
    ckpt = trained_tiny_checkpoint()
    path = tmp_path / "ckpt.txt"
    fn.save_checkpoint(path, ckpt)
    back = fn.load_checkpoint(path)
    mag, vis = make_streams(n_vis=20)
    start = Pose([0, 0, -0.08], [0, 0, 0])
    a = fn.predict_trajectory(ckpt, mag, vis, start)
    b = fn.predict_trajectory(back, mag, vis, start)
    assert np.array_equal(a.poses, b.poses)


def test_checkpoint_unknown_version(tmp_path):
    ckpt = trained_tiny_checkpoint()
    path = tmp_path / "ckpt.txt"
    fn.save_checkpoint(path, ckpt)
    text = path.read_text()
    # v1 held each LSTM as eight gate blocks; no reader for it is kept.
    # v2 held the NormStats arrays as STAT records. v3 held the settings as
    # HP and META records below a bare version line.
    header, w_records = text.split("\n", 1)
    tokens = header.split()[3:]  # three Hyperparams keys, then rate_ratio and beta_loss
    v3 = (f"# capsloc-checkpoint v3\nHP {' '.join(tokens[:3])}\n"
          f"META {' '.join(tokens[3:])}\n{w_records}")
    for version, bad in [("v999", text.replace(fn.CHECKPOINT_VERSION, "capsloc-checkpoint v999")),
                         ("v1", text.replace(fn.CHECKPOINT_VERSION, "capsloc-checkpoint v1")),
                         ("v2", text.replace(fn.CHECKPOINT_VERSION, "capsloc-checkpoint v2")),
                         ("v3", v3)]:
        path.write_text(bad)
        message = (f"{path}:1: expected a '# capsloc-checkpoint v4' header, "
                   f"got '# capsloc-checkpoint {version}'")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fn.load_checkpoint(path)


def test_checkpoint_corrupt_file(tmp_path):
    path = tmp_path / "ckpt.txt"
    path.write_text(f"# {fn.CHECKPOINT_VERSION}\nBOGUS record here\n")
    with pytest.raises(ValueError):
        fn.load_checkpoint(path)


def _drop_lines(path, prefix):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(l for l in lines if not l.startswith(prefix)) + "\n")


def _edit_header(path, edit):
    """Replace the checkpoint's header tokens with edit(tokens)."""
    lines = path.read_text().splitlines()
    lines[0] = " ".join(["#", fn.CHECKPOINT_VERSION, *edit(lines[0].split()[3:])])
    path.write_text("\n".join(lines) + "\n")


def test_checkpoint_missing_hp_key_is_named(tmp_path):
    path = tmp_path / "ckpt.txt"
    for keep, missing in [(lambda tok: not tok.startswith("dropout_rate="), "dropout_rate"),
                          (lambda tok: tok.split("=")[0] in ("rate_ratio", "beta_loss"),
                           "learning_rate")]:
        fn.save_checkpoint(path, trained_tiny_checkpoint())
        _edit_header(path, lambda tokens: filter(keep, tokens))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: "
                                             f"missing config key '{missing}'$"):
            fn.load_checkpoint(path)


@pytest.mark.parametrize("key", ["rate_ratio", "beta_loss"])
def test_checkpoint_missing_meta_key_is_named(tmp_path, key):
    path = tmp_path / "ckpt.txt"
    fn.save_checkpoint(path, trained_tiny_checkpoint())
    _edit_header(path, lambda tokens: [t for t in tokens if not t.startswith(key + "=")])
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: missing config key '{key}'$"):
        fn.load_checkpoint(path)


@pytest.mark.parametrize("meta, message", [
    ("rate_ratio=2 beta_loss=1.0 beta_loss=5.0", "repeated config key 'beta_loss'"),
    ("rate_ratio=2 beta_loss=1.0 foo=1", "unknown config key 'foo'"),
    ("rate_ratio=2 beta_loss=nan", "beta_loss must be finite and > 0, got nan"),
    ("rate_ratio=2 beta_loss=-3.0", "beta_loss must be finite and > 0, got -3.0"),
    ("rate_ratio=0 beta_loss=1.0", "rate_ratio must be >= 1, got 0"),
    ("rate_ratio beta_loss=1.0", "expected key=value, got 'rate_ratio'"),
    ("rate_ratio=two beta_loss=1.0", "invalid literal for int() with base 10: 'two'"),
    ("rate_ratio=2 beta_loss=1.0 hidden_size=8", "repeated config key 'hidden_size'"),
    ("", "missing config key 'rate_ratio'"),
], ids=["repeated-key", "unknown-key", "nan-beta", "negative-beta", "zero-rate-ratio",
        "token-without-equals", "non-integer-rate-ratio", "repeated-hp-key", "no-meta-keys"])
def test_checkpoint_meta_record_it_cannot_use_is_refused(tmp_path, meta, message):
    # The _MetaRecord settings follow the Hyperparams on the header line, and
    # each value is checked where it is read: rate_ratio 0 would otherwise
    # fail only inside predict_trajectory, as an AlignmentError.
    path = tmp_path / "ckpt.txt"
    fn.save_checkpoint(path, trained_tiny_checkpoint())
    _edit_header(path, lambda tokens: tokens[:3] + meta.split())
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:1: {message}')}$"):
        fn.load_checkpoint(path)


def test_checkpoint_settings_are_read_from_line_1_only(tmp_path):
    # A later line that repeats the header is a comment: it cannot replace
    # the settings of line 1.
    path = tmp_path / "ckpt.txt"
    ckpt = trained_tiny_checkpoint()
    fn.save_checkpoint(path, ckpt)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[0].replace("beta_loss=", "beta_loss=7")]) + "\n")
    assert fn.load_checkpoint(path).beta_loss == ckpt.beta_loss


def test_checkpoint_missing_stat_record_is_named(tmp_path):
    path = tmp_path / "ckpt.txt"
    fn.save_checkpoint(path, trained_tiny_checkpoint())
    _drop_lines(path, "W stats.vis_sd ")
    with pytest.raises(ValueError, match="missing W record 'stats.vis_sd'"):
        fn.load_checkpoint(path)


def test_checkpoint_holds_one_w_record_per_param(tmp_path):
    # The header line, then the network's five arrays and the six NormStats
    # arrays, sorted.
    path = tmp_path / "ckpt.txt"
    ckpt = trained_tiny_checkpoint()
    fn.save_checkpoint(path, ckpt)
    lines = path.read_text().splitlines()
    assert [l.split()[0] for l in lines] == ["#"] + ["W"] * 11
    assert lines[0] == ("# capsloc-checkpoint v4 learning_rate=0.001 dropout_rate=0.0 "
                        f"hidden_size=4 rate_ratio=2 beta_loss={ckpt.beta_loss!r}")
    names = [l.split()[1] for l in lines if l.startswith("W ")]
    assert names == ["core.W", "head.W", "head.b", "mag.W", "stats.mag_mean",
                     "stats.mag_sd", "stats.target_mean", "stats.target_sd",
                     "stats.vis_mean", "stats.vis_sd", "vis.W"]


def test_checkpoint_missing_w_record_is_named(tmp_path):
    path = tmp_path / "ckpt.txt"
    fn.save_checkpoint(path, trained_tiny_checkpoint())
    _drop_lines(path, "W vis.W ")
    with pytest.raises(ValueError, match="missing W record 'vis.W'"):
        fn.load_checkpoint(path)


def test_checkpoint_repeated_w_record_is_named(tmp_path):
    path = tmp_path / "ckpt.txt"
    fn.save_checkpoint(path, trained_tiny_checkpoint())
    text = path.read_text()
    line = next(l for l in text.splitlines() if l.startswith("W head.b "))
    path.write_text(text + line + "\n")
    with pytest.raises(ValueError, match="repeated W record 'head.b'"):
        fn.load_checkpoint(path)


def test_checkpoint_unknown_w_record_is_named(tmp_path):
    path = tmp_path / "ckpt.txt"
    fn.save_checkpoint(path, trained_tiny_checkpoint())
    with open(path, "a") as f:
        f.write("W mag.W_ix 4x5 " + " ".join(["0.0"] * 20) + "\n")
    with pytest.raises(ValueError, match="unknown W record 'mag.W_ix'"):
        fn.load_checkpoint(path)


def test_checkpoint_wrong_shape_w_record_is_named(tmp_path):
    path = tmp_path / "ckpt.txt"
    fn.save_checkpoint(path, trained_tiny_checkpoint())
    text = path.read_text()
    path.write_text(text.replace("W head.b 6 ", "W head.b 2x3 "))
    with pytest.raises(ValueError, match=r"'head.b' has shape \(2, 3\), expected \(6,\)"):
        fn.load_checkpoint(path)


def test_checkpoint_w_record_value_count_is_named(tmp_path):
    path = tmp_path / "ckpt.txt"
    fn.save_checkpoint(path, trained_tiny_checkpoint())
    lines = path.read_text().splitlines()
    k = next(i for i, l in enumerate(lines) if l.startswith("W head.b "))
    lines[k] = "W head.b 6 1.0 2.0"
    path.write_text("\n".join(lines) + "\n")
    message = f"{path}:{k + 1}: W record 'head.b' holds 2 values for shape 6"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fn.load_checkpoint(path)


@pytest.mark.parametrize("record, message", [
    ("W stats.mag_sd 1 2.0", r"'stats.mag_sd' has shape \(1,\), expected \(5,\)"),
    ("W stats.vis_mean 3 0.0 0.0 0.0", r"'stats.vis_mean' has shape \(3,\), expected \(6,\)"),
])
def test_checkpoint_wrong_shape_stats_record_is_named(tmp_path, record, message):
    # A statistics array of the wrong length would broadcast, or fail
    # unnamed, inside predict_trajectory.
    path = tmp_path / "ckpt.txt"
    fn.save_checkpoint(path, trained_tiny_checkpoint())
    name = record.split()[1]
    _drop_lines(path, f"W {name} ")
    with open(path, "a") as f:
        f.write(record + "\n")
    with pytest.raises(ValueError, match=message):
        fn.load_checkpoint(path)


@pytest.mark.parametrize("prefix, replacement, named", [
    ("HP ", "HP", "HP"),
    ("W stats.vis_sd ", "STAT vis_sd 1.0", "STAT"),
    ("W head.b ", "W", "W"),
    ("W stats.vis_sd ", "W stats.vis_sd", "W"),
    ("W head.b ", "W head.b 6", "W"),
    # A value that forward would carry into every output.
    ("W head.b ", "W head.b 6 0.0 nan 0.0 0.0 0.0 0.0", "'head.b' has a non-finite value"),
    ("W head.b ", "W head.b 6 0.0 0.0 0.0 -inf 0.0 0.0", "'head.b' has a non-finite value"),
    # normalize divides by each sd.
    ("W stats.vis_sd ", "W stats.vis_sd 6 0.0 1.0 1.0 1.0 1.0 1.0", "'stats.vis_sd' has an sd <= 0"),
    ("W stats.target_sd ", "W stats.target_sd 6 1.0 1.0 1.0 1.0 1.0 -2.0",
     "'stats.target_sd' has an sd <= 0"),
    ("META ", "META rate_ratio beta_loss=1.0", "META"),
    ("META ", "META rate_ratio=two beta_loss=1.0", "META"),
])
def test_checkpoint_malformed_record_names_line_and_kind(tmp_path, prefix, replacement, named):
    # The error names the line, and the record's kind or what is wrong with it.
    path = tmp_path / "ckpt.txt"
    fn.save_checkpoint(path, trained_tiny_checkpoint())
    lines = path.read_text().splitlines()
    # A record of an older version (STAT of v2, HP and META of v3) is an
    # unknown kind; one that no line starts with is appended.
    k = next((i for i, l in enumerate(lines) if l.startswith(prefix)), len(lines))
    lines[k:k + 1] = [replacement]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(f'{path}:{k + 1}: ')}.*{re.escape(named)}\b"):
        fn.load_checkpoint(path)
