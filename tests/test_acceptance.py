"""End-to-end acceptance gate.

Ten numbered criteria, one printed pass/fail line each (written through the
capture so the verdicts are visible in any pytest run). Criteria 6 and 7
share one expensive full-pipeline run (a module-scoped fixture over
evalbench.run_fusion_comparison, the run scripts/run_benchmark.py makes).
"""

import time

import numpy as np
import pytest

from capsloc import evalbench as eb
from capsloc import fusenet as fn
from capsloc import magloc as ml
from capsloc import neuralcore as nc
from capsloc import simkit as sk
from capsloc.geometry import (
    Pose,
    Trajectory,
    euler_to_matrix,
    matrix_to_euler,
    resample_trajectory,
    rotation_exp,
)
from capsloc.neuralcore import Hyperparams


@pytest.fixture
def verdict(capsys):
    def _verdict(num, name, ok, detail=""):
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}"
        with capsys.disabled():
            print(line)
        assert ok, line

    return _verdict


# --- criterion 1: gradient suite --------------------------------------------


def _rel_err(analytic, fd):
    worst = 0.0
    for k in fd:
        denom = max(np.max(np.abs(fd[k])), 1e-8)
        worst = max(worst, float(np.max(np.abs(analytic[k] - fd[k])) / denom))
    return worst


def test_criterion_1_gradient_suite(verdict, gate_blocks):
    t0 = time.monotonic()
    worst = {"cell": 0.0, "bptt": 0.0, "linear": 0.0, "loss": 0.0, "net": 0.0}

    for trial in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([1000, trial]))

        # LSTM cell (single-step BPTT).
        w = nc.init_lstm_weights(3, 5, rng)
        x = rng.normal(0, 1, (1, 1, 3))
        init = nc.LstmState(h=rng.normal(0, 0.5, (1, 5)), c=rng.normal(0, 0.5, (1, 5)))
        target = rng.normal(0, 1, (1, 1, 5))
        _, caches = nc.lstm_sequence_forward(x, init, w)
        blocks, _, _ = nc.lstm_backward(caches, w, target)
        grads = np.concatenate(list(blocks))

        def cell_loss(params):
            final, _ = nc.lstm_sequence_forward(x, init, params["W"])
            return float(np.dot(target[0, 0], final.h[0]))

        fd = nc.finite_difference_gradient(cell_loss, {"W": w})
        worst["cell"] = max(
            worst["cell"],
            _rel_err(gate_blocks({"W": grads}, {"W": 3}), gate_blocks(fd, {"W": 3})),
        )

        # Sequence BPTT.
        xs = np.array([rng.normal(0, 1, 3) for _ in range(5)])[:, None]
        targets = np.array([rng.normal(0, 1, 5) for _ in range(5)])[:, None]
        _, caches = nc.lstm_sequence_forward(xs, init, w)
        blocks, _, _ = nc.lstm_backward(caches, w, targets)
        grads = np.concatenate(list(blocks))

        def seq_loss(params):
            _, cache = nc.lstm_sequence_forward(xs, init, params["W"])
            return sum(float(np.dot(d[0], h[0])) for d, h in zip(targets, cache.h[1:]))

        fd = nc.finite_difference_gradient(seq_loss, {"W": w})
        worst["bptt"] = max(
            worst["bptt"],
            _rel_err(gate_blocks({"W": grads}, {"W": 3}), gate_blocks(fd, {"W": 3})),
        )

        # Linear head.
        W = rng.normal(0, 0.5, (4, 7))
        b = rng.normal(0, 0.5, 4)
        xl = rng.normal(0, 1, (1, 7))
        dy = rng.normal(0, 1, (1, 4))
        dW, db, dx = nc.linear_backward(xl, W, dy)

        def lin_loss(params):
            y = nc.linear_forward(params["x"], params["W"], params["b"])
            return float(np.dot(dy[0], y[0]))

        fd = nc.finite_difference_gradient(lin_loss, {"W": W, "b": b, "x": xl})
        worst["linear"] = max(
            worst["linear"], _rel_err({"W": dW, "b": db, "x": dx}, fd)
        )

        # Pose loss.
        pred = rng.normal(0, 1, 6)
        tgt = rng.normal(0, 1, 6)
        beta = float(rng.uniform(0.5, 100.0))
        _, grad, _, _ = nc.pose_loss(pred, tgt, beta)
        fd = nc.finite_difference_gradient(
            lambda p: nc.pose_loss(p["pred"], tgt, beta)[0], {"pred": pred}
        )
        worst["loss"] = max(worst["loss"], _rel_err({"pred": grad}, fd))

        # Full fusion network (tiny instance: hidden 4, window 3).
        net = fn.init_network(4, rng)
        steps = [
            (rng.normal(0, 1, (2, 5)), rng.normal(0, 1, 6), rng.normal(0, 1, 6))
            for k in range(3)
        ]
        window = fn.FusedSet(
            np.arange(1, 4) / 25.0, *(np.array(a) for a in zip(*steps))
        )
        window = window.windows(len(window))
        outputs, caches = fn.forward(net, window, training=True)
        dys = nc.pose_loss(outputs, window.target, 2.5)[1]
        grads = dict(fn.gradient_stream(net, caches, dys))

        def net_loss(params):
            return nc.pose_loss(fn.forward(params, window)[0], window.target, 2.5)[0]

        # A slightly larger step keeps float64 cancellation error in the
        # central differences below the 1e-5 relative budget.
        fd = nc.finite_difference_gradient(net_loss, net, step=1e-5)
        inputs = {"mag.W": 5, "vis.W": 6, "core.W": 8}
        worst["net"] = max(
            worst["net"],
            _rel_err(gate_blocks(grads, inputs), gate_blocks(fd, inputs)),
        )

    elapsed = time.monotonic() - t0
    ok = (
        worst["cell"] < 1e-5
        and worst["bptt"] < 1e-5
        and worst["linear"] < 1e-7
        and worst["loss"] < 1e-5
        and worst["net"] < 1e-5
        and elapsed < 60.0
    )
    detail = (
        f"worst rel err cell={worst['cell']:.2e} bptt={worst['bptt']:.2e} "
        f"linear={worst['linear']:.2e} loss={worst['loss']:.2e} "
        f"net={worst['net']:.2e}, 20 instances each in {elapsed:.1f}s"
    )
    verdict(1, "gradient suite", ok, detail)


# --- criterion 2: Adam fidelity ----------------------------------------------


def test_criterion_2_adam_fidelity(verdict):
    hp = Hyperparams()

    # Hand-computed scalar example: w=1, g=2, defaults -> 0.999000.
    params = {"w": np.array([1.0])}
    out, _ = nc.adam_step(params, {"w": np.array([2.0])}.items(), nc.adam_init(params), hp)
    hand_w = out["w"][0]
    hand_ok = abs(hand_w - 0.999000) < 5e-7

    # First-step magnitude within 1% of the learning rate across gradient scales.
    worst_dev = 0.0
    for g in np.logspace(-3, 3, 25):
        params = {"w": np.array([0.0])}
        out, _ = nc.adam_step(
            params, {"w": np.array([g])}.items(), nc.adam_init(params), hp
        )
        step = abs(out["w"][0])
        worst_dev = max(worst_dev, abs(step - hp.learning_rate) / hp.learning_rate)
    scale_ok = worst_dev < 0.01

    verdict(
        2,
        "Adam fidelity",
        hand_ok and scale_ok,
        f"hand case w'={hand_w:.6f} path ok={hand_ok}, "
        f"first-step deviation <= {worst_dev:.2%} over 1e-3..1e3",
    )


# --- criterion 3: LSTM fidelity ----------------------------------------------


def _naive_cell(x, h_prev, c_prev, w):
    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    hidden = len(w) // 4
    n = w.shape[1] - hidden
    # Gate row blocks i, f, g, o of W, each split into its x and h columns.
    (W_ix, W_ih), (W_fx, W_fh), (W_gx, W_gh), (W_ox, W_oh) = (
        (rows[:, :n], rows[:, n:]) for rows in np.split(w, 4)
    )
    h = np.empty(hidden)
    c = np.empty(hidden)
    for k in range(hidden):
        i = sig(np.dot(W_ix[k], x) + np.dot(W_ih[k], h_prev))
        f = sig(np.dot(W_fx[k], x) + np.dot(W_fh[k], h_prev))
        g = np.tanh(np.dot(W_gx[k], x) + np.dot(W_gh[k], h_prev))
        o = sig(np.dot(W_ox[k], x) + np.dot(W_oh[k], h_prev))
        c[k] = f * c_prev[k] + i * g
        h[k] = o * np.tanh(c[k])
    return h, c


def test_criterion_3_lstm_fidelity(verdict):
    # Zero weights, carried cell state 2.0: gates sit at 0.5, so
    # c' = 0.5 * 2 = 1 and h' = 0.5 * tanh(1) = 0.380797.
    w0 = np.zeros((4, 2))
    state, _ = nc.lstm_sequence_forward(
        [[[7.0]]], nc.LstmState(h=np.zeros((1, 1)), c=np.array([[2.0]])), w0
    )
    hand_err = abs(state.h[0, 0] - 0.380797)

    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([3000, trial]))
        w = nc.init_lstm_weights(4, 6, rng)
        x = rng.normal(0, 1, 4)
        prev = nc.LstmState(h=rng.normal(0, 1, (1, 6)), c=rng.normal(0, 1, (1, 6)))
        got, _ = nc.lstm_sequence_forward(x[None, None], prev, w)
        h_ref, c_ref = _naive_cell(x, prev.h[0], prev.c[0], w)
        worst = max(
            worst,
            float(np.max(np.abs(got.h[0] - h_ref))),
            float(np.max(np.abs(got.c[0] - c_ref))),
        )

    ok = hand_err < 1e-6 and worst < 1e-12
    verdict(
        3,
        "LSTM fidelity",
        ok,
        f"hand case |h - 0.380797| = {hand_err:.1e}, "
        f"scalar-oracle max dev = {worst:.1e} over 20 instances",
    )


# --- criterion 4: magnetic inversion -----------------------------------------


def test_criterion_4_magnetic_inversion(verdict):
    dipole = sk.DipoleParams()
    zero_act = sk.ActuatorFieldModel()

    # Noiseless forward-then-invert: every fit converges.
    worst_pos = 0.0
    worst_ang = 0.0
    all_converged = True
    for trial in range(10):
        rng = np.random.default_rng(np.random.SeedSequence([4000, trial]))
        pose = Pose(
            rng.uniform(-0.04, 0.04, 3) + [0, 0, -0.08],
            rng.uniform(-0.3, 0.3, 3),
        )
        reading = sk.sample_hall_array(pose, dipole, zero_act, 0.0, 0.0, rng)
        h_true = euler_to_matrix(pose.r) @ np.asarray(dipole.moment_axis)
        init = ml.MagMeasurement5DoF(
            0.0,
            np.asarray(pose.t) + rng.normal(0, 2e-3, 3),
            _perturb_heading(h_true, rng, 0.05),
            True,
            0.0,
            0,
        )
        est = ml.estimate_pose_5dof(reading, zero_act, dipole, init)
        all_converged = all_converged and est.converged
        worst_pos = max(worst_pos, float(np.linalg.norm(est.position - pose.t)))
        worst_ang = max(
            worst_ang,
            float(np.arccos(np.clip(np.dot(est.heading, h_true), -1, 1))),
        )
    invert_ok = all_converged and worst_pos < 1e-6 and worst_ang < 1e-5

    # Rotation about the dipole axis is unobservable in the forward field.
    pose = Pose([0.01, -0.02, -0.08], [0.0, 0.2, -0.1])
    base = sk.sample_hall_array(
        pose, dipole, zero_act, 0.0, 0.0, np.random.default_rng(0)
    )
    axis_rot = np.asarray(dipole.moment_axis) * 0.7
    R = euler_to_matrix(pose.r) @ rotation_exp(axis_rot)
    rolled = Pose(pose.t, matrix_to_euler(R))
    spun = sk.sample_hall_array(
        rolled, dipole, zero_act, 0.0, 0.0, np.random.default_rng(0)
    )
    unobs = float(np.max(np.abs(spun.values - base.values)))

    # Streaming localization with default noise stays bounded over 60 s.
    cfg = sk.SimConfig(duration=60.0, seed=41, motion_profile="comprehensive_scan")
    ds = sk.simulate_dataset(cfg)
    ests = ml.localize_dataset(ds)
    qs = np.minimum([e.timestamp for e in ests], ds.gt.times[-1])
    on_gt = resample_trajectory(ds.gt, qs)
    errs = np.linalg.norm(
        np.array([e.position for e in ests]) - on_gt.poses[:, :3], axis=1
    )
    third = len(errs) // 3
    first, last = np.median(errs[:third]), np.median(errs[-third:])
    p99 = float(np.percentile(errs, 99))
    bounded_ok = last < 1.5 * first and p99 < 0.05

    ok = invert_ok and unobs < 1e-15 and bounded_ok
    verdict(
        4,
        "magnetic inversion",
        ok,
        f"noiseless err {worst_pos:.1e} m / {worst_ang:.1e} rad, "
        f"axis-spin field change {unobs:.1e} T, streaming median "
        f"{first * 1e3:.2f} -> {last * 1e3:.2f} mm over 60 s, "
        f"p99 {p99 * 1e3:.1f} mm (< 50 mm)",
    )


def _perturb_heading(h, rng, angle):
    v = h + rng.normal(0, angle, 3)
    return v / np.linalg.norm(v)


# --- criterion 5: alignment ---------------------------------------------------


def test_criterion_5_alignment(verdict):
    from capsloc import evoalign as ev

    def small_transform(rng, trans=0.02, rot=0.2):
        return euler_to_matrix(rng.uniform(-rot, rot, 3)), rng.uniform(-trans, trans, 3)

    def corr_from(T, rng, n=30, noise=0.0):
        R, t = T
        pairs = []
        for _ in range(n):
            p1 = np.array([*rng.uniform(-0.2, 0.2, 2), rng.uniform(0.4, 0.7)])
            p0 = R @ p1 + t
            if noise > 0:
                p0 = p0 + rng.normal(0, noise, 3)
            pairs.append((0, 1, p0, p1))
        return ev.CorrespondenceSet(pairs)

    # Two-frame noiseless recovery.
    worst_t = 0.0
    worst_r = 0.0
    for trial in range(5):
        rng = np.random.default_rng(np.random.SeedSequence([5000, trial]))
        R, t = T = small_transform(rng)
        state, info = ev.minimize_alignment(corr_from(T, rng))
        worst_t = max(worst_t, float(np.linalg.norm(state.t[1] - t)))
        ang = np.arccos(np.clip((np.trace(state.R[1].T @ R) - 1) / 2, -1, 1))
        worst_r = max(worst_r, float(ang))
    recover_ok = worst_t < 1e-6 and worst_r < 1e-6

    # Gauge invariance of the sparse energy.
    rng = np.random.default_rng(51)
    frames = [(np.eye(3), np.zeros(3))]
    frames += [small_transform(rng, 0.1, 0.5) for _ in range(2)]
    state = ev.AlignmentState(
        np.array([R for R, _ in frames]), np.array([t for _, t in frames])
    )
    pairs = [
        (
            int(rng.integers(0, 3)),
            int(rng.integers(0, 3)),
            rng.normal(0, 0.3, 3),
            rng.normal(0, 0.3, 3),
        )
        for _ in range(20)
    ]
    corr = ev.CorrespondenceSet(pairs)
    base = ev.e_sparse(state, corr)
    G_R, G_t = euler_to_matrix([0.4, -0.3, 0.9]), np.array([1.0, -2.0, 0.5])
    moved = ev.AlignmentState(G_R @ state.R, state.t @ G_R.T + G_t)
    gauge_dev = abs(ev.e_sparse(moved, corr) - base) / max(1.0, base)

    # Accepted-step energy monotonicity over 100 seeded runs.
    mono_ok = True
    for seed in range(100):
        r = np.random.default_rng(np.random.SeedSequence([5100, seed]))
        T = small_transform(r)
        _, info = ev.minimize_alignment(corr_from(T, r, n=20, noise=3e-4))
        trace = info["energy_trace"]
        mono_ok = mono_ok and all(
            b <= a + 1e-15 for a, b in zip(trace, trace[1:])
        )

    ok = recover_ok and gauge_dev < 1e-10 and mono_ok
    verdict(
        5,
        "alignment",
        ok,
        f"two-frame err {worst_t:.1e} m / {worst_r:.1e} rad, gauge dev "
        f"{gauge_dev:.1e}, energy monotone on 100 runs: {mono_ok}",
    )


# --- criteria 6+7: full pipeline (shared run) ---------------------------------

TRAIN_SEEDS = (100, 101, 102, 103, 104, 105, 106, 107)
EVAL_SEEDS = (200, 201, 202, 203, 204)
MAX_EPOCHS = 50
HIDDEN = 16


@pytest.fixture(scope="module")
def pipeline():
    t0 = time.monotonic()
    reports, ckpt, log = eb.run_fusion_comparison(TRAIN_SEEDS, EVAL_SEEDS)
    return {
        "reports": {r.method: r for r in reports},
        "elapsed": time.monotonic() - t0,
        "epochs": len(log),
        "hidden": ckpt.hyperparams.hidden_size,
    }


def _bucket_map(report):
    return {L: (tr, rr, n) for L, tr, rr, n in report.buckets}


@pytest.mark.slow
def test_criterion_6_fusion_beats_baselines(pipeline, verdict):
    fusion = _bucket_map(pipeline["reports"]["fusion"])
    evo = _bucket_map(pipeline["reports"]["evo_only"])
    mag = _bucket_map(pipeline["reports"]["magnetic_only"])
    lengths = sorted(fusion)

    trans_ok = all(
        fusion[L][0] < min(evo[L][0], mag[L][0]) for L in lengths if L >= 0.2
    )
    longest = lengths[-1]
    rot_ok = fusion[longest][1] < evo[longest][1]
    budget_ok = (
        pipeline["epochs"] <= MAX_EPOCHS
        and pipeline["hidden"] == HIDDEN
        and pipeline["elapsed"] < 600.0
    )

    rows = ", ".join(
        f"L={L:g}: fus {fusion[L][0] * 1e3:.1f} vs min(evo {evo[L][0] * 1e3:.1f}, "
        f"mag {mag[L][0] * 1e3:.1f}) mm"
        for L in lengths
        if L >= 0.2
    )
    detail = (
        f"{rows}; rot@{longest:g}m fus {fusion[longest][1]:.3f} vs evo "
        f"{evo[longest][1]:.3f} rad; {pipeline['epochs']} epochs, hidden "
        f"{pipeline['hidden']}, {pipeline['elapsed']:.0f}s"
    )
    verdict(6, "fusion beats baselines", trans_ok and rot_ok and budget_ok, detail)


@pytest.mark.slow
def test_criterion_7_error_shape(pipeline, verdict):
    evo = _bucket_map(pipeline["reports"]["evo_only"])
    mag = _bucket_map(pipeline["reports"]["magnetic_only"])
    lengths = sorted(evo)

    evo_trans = [evo[L][0] for L in lengths]
    evo_ok = all(b > a for a, b in zip(evo_trans, evo_trans[1:]))

    mag_trans = [mag[L][0] for L in lengths]
    spread = (max(mag_trans) - min(mag_trans)) / min(mag_trans)
    mag_ok = spread < 0.20

    verdict(
        7,
        "error shape",
        evo_ok and mag_ok,
        f"evo trans {['%.1f' % (x * 1e3) for x in evo_trans]} mm increasing="
        f"{evo_ok}; mag trans spread {spread:.1%} (< 20%)",
    )


# --- criterion 8: asynchrony / asymmetry contract ------------------------------


def test_criterion_8_asynchrony_contract(verdict):
    # Rate-ratio bucketing invariant over simulated datasets.
    contract_ok = True
    for profile in ("slow_incremental", "comprehensive_scan", "fast_complex"):
        for seed in (0, 1):
            cfg = sk.SimConfig(duration=8.0, seed=seed, motion_profile=profile)
            ds = sk.simulate_dataset(cfg)
            mag = [
                ml.MagMeasurement5DoF(
                    m.timestamp, np.array([0.0, 0.0, -0.08]),
                    np.array([1.0, 0.0, 0.0]), True, 0.0, 1,
                )
                for m in ds.mag
            ]
            samples = fn.align_streams(mag, ds.vis, ds.gt, rate_ratio=cfg.rate_ratio)
            contract_ok = contract_ok and (
                samples.mag.shape == (len(samples), cfg.rate_ratio, 5)
            )

    # Training and inference on a real asymmetric dataset, end to end:
    # 50 Hz 5-input magnetic and 25 Hz 6-input visual, 6-output head.
    cfg = sk.SimConfig(duration=10.0, seed=8, motion_profile="comprehensive_scan")
    ds = sk.simulate_dataset(cfg)
    ests = ml.localize_dataset(ds)
    samples = fn.align_streams(ests, ds.vis, ds.gt, rate_ratio=cfg.rate_ratio)
    tcfg = fn.TrainingConfig(
        max_epochs=3, window_length=8, early_stop_patience=10,
        warmup_epochs=1, seed=0,
    )
    ckpt, _ = fn.train([samples], tcfg, Hyperparams(hidden_size=4, dropout_rate=0.0))
    shapes = {k: v.shape for k, v in ckpt.params.items()}
    shape_ok = (
        shapes["mag.W"] == (16, 5 + 4)
        and shapes["vis.W"] == (16, 6 + 4)
        and shapes["head.W"][0] == 6
    )
    traj = fn.predict_trajectory(
        ckpt, ests, ds.vis, Pose(ds.gt.poses[0][:3], ds.gt.poses[0][3:])
    )
    infer_ok = len(traj.times) == len(
        fn.align_streams(ests, ds.vis, rate_ratio=cfg.rate_ratio)
    )

    ok = contract_ok and shape_ok and infer_ok
    verdict(
        8,
        "asynchrony contract",
        ok,
        f"rate contract on 6 datasets: {contract_ok}; 5-in mag / 6-in vis / "
        f"6-out head: {shape_ok}; stream inference: {infer_ok}",
    )


# --- criterion 9: determinism and persistence ----------------------------------


def test_criterion_9_determinism_persistence(verdict, tmp_path):
    # Bit-identical datasets from the same seed.
    cfg = sk.SimConfig(duration=6.0, seed=99, motion_profile="comprehensive_scan")
    a = sk.simulate_dataset(cfg)
    b = sk.simulate_dataset(cfg)
    data_ok = (
        np.array_equal(a.gt.poses, b.gt.poses)
        and all(
            np.array_equal(x.values, y.values) for x, y in zip(a.mag, b.mag)
        )
        and all(
            np.array_equal(x.delta.as_vector(), y.delta.as_vector())
            for x, y in zip(a.vis, b.vis)
        )
    )

    # Bit-identical training logs and checkpoints.
    mag = [
        ml.MagMeasurement5DoF(
            m.timestamp, np.array([0.0, 0.0, -0.08]),
            np.array([1.0, 0.0, 0.0]), True, 0.0, 1,
        )
        for m in a.mag
    ]
    samples = fn.align_streams(mag, a.vis, a.gt, rate_ratio=cfg.rate_ratio)
    tcfg = fn.TrainingConfig(
        max_epochs=4, window_length=8, early_stop_patience=10,
        warmup_epochs=1, seed=3,
    )
    hp = Hyperparams(hidden_size=4, dropout_rate=0.25)
    ck1, log1 = fn.train([samples], tcfg, hp)
    ck2, log2 = fn.train([samples], tcfg, hp)
    train_ok = log1 == log2 and all(
        np.array_equal(ck1.params[k], ck2.params[k]) for k in ck1.params
    )

    # Checkpoint round-trip preserves predictions exactly.
    path = tmp_path / "ckpt.txt"
    fn.save_checkpoint(path, ck1)
    loaded = fn.load_checkpoint(path)
    start = Pose(np.zeros(3), np.zeros(3))
    p0 = fn.predict_trajectory(ck1, mag, a.vis, start)
    p1 = fn.predict_trajectory(loaded, mag, a.vis, start)
    rt_ok = np.array_equal(p0.poses, p1.poses)

    ok = data_ok and train_ok and rt_ok
    verdict(
        9,
        "determinism and persistence",
        ok,
        f"datasets bit-identical: {data_ok}; logs+checkpoints identical: "
        f"{train_ok}; round-trip predictions exact: {rt_ok}",
    )


# --- criterion 10: training smoke test -----------------------------------------


def test_criterion_10_training_smoke(verdict):
    # Noise-free slow_incremental dataset: the motion is smooth and tiny, so
    # training must be able to drive the loss down by >= 90%.
    cfg = sk.SimConfig(
        duration=16.0,
        seed=10,
        motion_profile="slow_incremental",
        mag_noise_sd=0.0,
        vis_trans_noise_sd=0.0,
        vis_rot_noise_sd=0.0,
        vis_drift_rate=0.0,
        vis_rot_drift_rate=0.0,
        vis_trans_bias_rate=0.0, vis_rot_bias_rate=0.0,
        jitter_scale=0.0,
    )
    ds = sk.simulate_dataset(cfg)
    qs = np.minimum([m.timestamp for m in ds.mag], ds.gt.times[-1])
    on_gt = resample_trajectory(ds.gt, qs)
    axis = np.asarray(ds.dipole.moment_axis)
    mag = [
        ml.MagMeasurement5DoF(
            m.timestamp, p[:3],
            euler_to_matrix(p[3:]) @ axis, True, 0.0, 1,
        )
        for m, p in zip(ds.mag, on_gt.poses)
    ]
    samples = fn.align_streams(mag, ds.vis, ds.gt, rate_ratio=cfg.rate_ratio)
    tcfg = fn.TrainingConfig(
        max_epochs=50, window_length=16, early_stop_patience=50,
        warmup_epochs=10, seed=0,
    )
    _, log = fn.train(
        [samples], tcfg, Hyperparams(hidden_size=16, dropout_rate=0.0, learning_rate=3e-3)
    )
    losses = [r["train_loss"] for r in log]
    drop = 1.0 - min(losses) / losses[0]
    drop_ok = drop >= 0.90 and len(losses) <= 50

    # Early stopping fires within patience+1 epochs of validation increase.
    constant = fn.FusedSet(
        np.arange(1, 65) / 25.0, np.zeros((64, 2, 5)), np.zeros((64, 6)),
        np.tile([1e-3, 0, 0, 0, 0, 2e-3], (64, 1)),
    )
    pcfg = fn.TrainingConfig(
        max_epochs=50, window_length=8, early_stop_patience=3,
        warmup_epochs=0, seed=1,
    )
    _, plog = fn.train(
        [constant], pcfg, Hyperparams(hidden_size=4, dropout_rate=0.0, learning_rate=10.0)
    )
    best_epoch = int(np.argmin([r["val_loss"] for r in plog])) + 1
    stopped = max(r["epoch"] for r in plog)
    # Stops exactly `patience` epochs after the last validation improvement.
    stop_ok = stopped == best_epoch + 3 and stopped < 50

    # Beta calibration returns the documented ratio on constructed residuals.
    net = fn.init_network(4, np.random.default_rng(0))
    zero = {k: np.zeros_like(v) for k, v in net.items()}
    stats = fn.NormStats(
        np.zeros(5), np.ones(5), np.zeros(6), np.ones(6), np.zeros(6), np.ones(6)
    )
    val = fn.FusedSet(
        np.arange(1, 11) / 25.0, np.zeros((10, 2, 5)), np.zeros((10, 6)),
        np.tile([0.01, 0, 0, 1e-4, 0, 0], (10, 1)),
    )
    beta, flagged = fn.calibrate_beta(zero, val.windows(len(val)), stats)
    beta_ok = abs(beta - 100.0) < 1e-9 and not flagged

    ok = drop_ok and stop_ok and beta_ok
    verdict(
        10,
        "training smoke",
        ok,
        f"loss drop {drop:.1%} in {len(losses)} epochs; early stop by epoch "
        f"{max(r['epoch'] for r in plog)}; calibrated beta {beta:g}",
    )
