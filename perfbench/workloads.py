"""The benchmark's three workloads.

Each is a closed loop: one process, one caller, the next call into capsloc
issued only after the previous one returns. Dataset simulation is input
generation and runs in set-up; every dataset seed is derived from the one
workload seed. Every pass of a workload repeats the same work on the same
inputs.

- `mag-stream`: streaming 5-DoF inversion of `comprehensive_scan` Hall
  streams. Only `magloc` works in the timed phase.
- `fusion-train-paper`: `fusenet.train` at the paper profile (H=200,
  window 32) for a fixed number of epochs; its inputs (simulate, localize,
  align) are built in set-up.
- `pipeline-desk`: the acceptance pipeline's shape at desk scale
  (`fast_complex`, H=16, window 16): localize, align, train, checkpoint
  round trip, dataset text round trip, predict, compare.

Every call's output is checked; each check is one attempted operation, and
each magnetic frame is one operation of its own.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

from capsloc import evalbench, fusenet, magloc, simkit
from capsloc.neuralcore import Hyperparams

MAG_PERIOD_MS = 20.0  # 50 Hz: frame k is due at k * 20 ms
# Every workload simulates at the default 50 Hz / 25 Hz rates.
RATE_RATIO = simkit.SimConfig().rate_ratio


def converged(est) -> bool:
    """The one place the benchmark reads magloc's per-frame convergence."""
    return est.converged


def dataset_seeds(seed: int, tag: int, n: int) -> list:
    return [int(s) for s in np.random.SeedSequence([seed, tag]).generate_state(n)]


def replay_latency_ms(service_ms) -> np.ndarray:
    """Latency of each frame when frame k is due at k * 20 ms and a single
    sequential consumer serves frames in order with the measured service
    times: a slow frame delays every frame queued behind it."""
    lat = np.empty(len(service_ms))
    finish = 0.0
    for k, s in enumerate(service_ms):
        due = k * MAG_PERIOD_MS
        finish = max(due, finish) + s
        lat[k] = finish - due
    return lat


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def lstm_cost(hidden: int, rate_ratio: int, window: int) -> dict:
    """Computed cost of one fused training sample (forward + BPTT + Adam).

    Counts the gate and head matrix products only (2 flops per multiply-
    add); elementwise gate arithmetic is left out. Bytes are float64 weight
    traffic: the forward pass reads each cell's weights once per cell call,
    BPTT reads them again and reads and writes the gradient accumulators,
    and one Adam step per window reads p, g, m, v and writes p, m, v."""
    H = hidden
    cells = [  # (calls per fused step, input width)
        (rate_ratio, fusenet.MAG_INPUT),
        (1, fusenet.VIS_INPUT),
        (1, 2 * H),
    ]
    w_calls = sum(n * 4 * H * (x + H) for n, x in cells) + fusenet.OUT_DIM * H
    params = sum(4 * H * (x + H) for _, x in cells) + fusenet.OUT_DIM * (H + 1)
    flops = 3 * 2 * w_calls + 14 * params / window
    weight_bytes = 4 * 8 * w_calls + 7 * 8 * params / window
    return {"flops": flops, "bytes": weight_bytes}


def trained_samples_per_epoch(sample_sets, cfg) -> int:
    """Samples in training windows per epoch, by fusenet.train's split: the
    last round(25%) (at least one) of the datasets validate."""
    n_val = max(1, int(round(len(sample_sets) * cfg.validation_fraction)))
    wl = cfg.window_length
    return sum(len(s) // wl * wl for s in sample_sets[: len(sample_sets) - n_val])


def _pct(a, q) -> float:
    return float(np.percentile(a, q)) if len(a) else 0.0


@dataclass
class StreamRecord:
    """One magnetic stream as localized in this run. `service_ms` is the
    per-frame minimum over every time the stream was localized."""

    service_ms: np.ndarray
    pos_err_mm: np.ndarray
    iterations: np.ndarray


class Workload:
    name = ""
    # (hidden size, window length) of the network the workload trains, for
    # the computed neuralcore costs; None when it trains none.
    lstm_profile = None

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.tracer = None  # set by the runner for traced episodes
        self.attempted = 0
        self.failed = 0
        self.streams = {}  # SimConfig -> StreamRecord
        self.fusion_rmse_0_8m = (0.0, 0.0)  # (trans mm, rot mrad)

    # --- plumbing -----------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Call a capsloc function; inside a span named `name` when tracing."""
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(name, fn, *args, **kwargs)

    def add(self, key, value):
        if self.tracer is not None:
            self.tracer.add(key, value)

    def check(self, ok: bool, what: str, ops: int = 1, bad: int | None = None):
        """Record `ops` attempted operations, `bad` of them failed (all of
        them when `ok` is false and `bad` is not given)."""
        bad = (0 if ok else ops) if bad is None else bad
        self.attempted += ops
        self.failed += bad
        if bad:
            print(f"check failed ({bad}/{ops}): {what}", file=sys.stderr)

    def simulate(self, seed, duration, profile):
        cfg = simkit.SimConfig(duration=duration, seed=seed, motion_profile=profile)
        ds = self.call("simkit.simulate_dataset", simkit.simulate_dataset, cfg)
        self.add("simkit.datasets", 1)
        self.add("simkit.sim_frames", len(ds.mag))
        return ds

    def localize(self, ds):
        """localize_stream over ds.mag, fed through a generator that stamps
        each pull: frame k is served between pulls k and k + 1, frame 0 from
        the call (so it holds any set-up before the first pull) and the last
        frame until the call returns. The service times sum to the call."""
        actuator = simkit.ActuatorFieldModel.from_config(ds.config)

        def frames():
            for k, reading in enumerate(ds.mag):
                if k:
                    stamps.append(time.perf_counter())
                yield reading

        stamps = [time.perf_counter()]
        ests = self.call(
            "magloc.localize_stream",
            magloc.localize_stream,
            frames(),
            actuator,
            ds.dipole,
            workspace_center=ds.config.workspace_center,
            workspace_half_extent=ds.config.workspace_half_extent,
        )
        stamps.append(time.perf_counter())
        service = np.diff(stamps) * 1e3
        if not self._check_frames(ds, ests):
            return ests
        iterations = np.array([e.iterations for e in ests])
        self.add("magloc.frames", len(ests))
        self.add("magloc.lm_iterations", int(iterations.sum()))
        self.add("magloc.unconverged_frames", sum(not converged(e) for e in ests))
        rec = self.streams.get(ds.config)
        if rec is None:
            pos = np.array([e.position for e in ests])
            self.streams[ds.config] = StreamRecord(
                service, 1e3 * np.linalg.norm(pos - ds.gt.poses[:, :3], axis=1), iterations
            )
        else:
            rec.service_ms = np.minimum(rec.service_ms, service)
        return ests

    def _check_frames(self, ds, ests) -> bool:
        n = len(ds.mag)
        if len(ests) != n:
            bad = n
        else:
            bad = sum(
                not (
                    est.timestamp == reading.timestamp
                    and np.all(np.isfinite(est.position))
                    and np.all(np.isfinite(est.heading))
                    and abs(float(np.linalg.norm(est.heading)) - 1.0) <= 1e-9
                )
                for reading, est in zip(ds.mag, ests)
            )
        self.check(bad == 0, "one finite estimate per reading", ops=n, bad=bad)
        return bad == 0

    # --- metrics ------------------------------------------------------------

    def _frames(self, field) -> np.ndarray:
        arrays = [getattr(r, field) for r in self.streams.values()]
        return np.concatenate(arrays) if arrays else np.zeros(0)

    def per_layer(self, tracer) -> dict:
        """Every per-layer metric, from the fastest traced episode that
        calls each layer; layers this workload never calls read 0."""

        def ratio(num, den):
            return num / den if den else 0.0

        sim_s, sim_c = tracer.fastest("simkit.simulate_dataset")
        write_s, write_c = tracer.fastest("simkit.write_dataset")
        read_s, _ = tracer.fastest("simkit.read_dataset")
        loc_s, loc_c = tracer.fastest("magloc.localize_stream")
        align_s, align_c = tracer.fastest("fusenet.align_streams")
        train_s, train_c = tracer.fastest("fusenet.train")
        predict_s, predict_c = tracer.fastest("fusenet.predict_trajectory")
        save_s, save_c = tracer.fastest("fusenet.save_checkpoint")
        load_s, _ = tracer.fastest("fusenet.load_checkpoint")
        compare_s, compare_c = tracer.fastest("evalbench.compare_methods")

        frames = loc_c.get("magloc.frames", 0)
        service = self._frames("service_ms")
        latency = np.concatenate(
            [replay_latency_ms(r.service_ms) for r in self.streams.values()]
        ) if self.streams else np.zeros(0)
        epochs = train_c.get("fusenet.epochs", 0)
        trained = train_c.get("fusenet.trained_samples", 0)
        steps = predict_c.get("fusenet.infer_steps", 0)
        segments = compare_c.get("evalbench.segments", 0)
        if self.lstm_profile is None:
            cost = {"flops": 0.0, "bytes": 0.0}
        else:
            cost = lstm_cost(self.lstm_profile[0], RATE_RATIO, self.lstm_profile[1])
        return {
            "simkit.simulate_s": (sim_s, "s"),
            "simkit.datasets": (sim_c.get("simkit.datasets", 0), "count"),
            "simkit.sim_frames": (sim_c.get("simkit.sim_frames", 0), "count"),
            "simkit.write_dataset_s": (write_s, "s"),
            "simkit.read_dataset_s": (read_s, "s"),
            "simkit.dataset_bytes": (write_c.get("simkit.dataset_bytes", 0), "bytes"),
            "magloc.localize_s": (loc_s, "s"),
            "magloc.frames": (frames, "count"),
            "magloc.ms_per_frame": (1e3 * ratio(loc_s, frames), "ms"),
            "magloc.first_frame_ms": (
                statistics.median(r.service_ms[0] for r in self.streams.values())
                if self.streams else 0.0,
                "ms",
            ),
            "magloc.lm_iterations_mean": (
                ratio(loc_c.get("magloc.lm_iterations", 0), frames), "count"
            ),
            "magloc.lm_iterations_p99": (_pct(self._frames("iterations"), 99), "count"),
            "magloc.ms_per_lm_iteration": (
                1e3 * ratio(loc_s, loc_c.get("magloc.lm_iterations", 0)), "ms"
            ),
            "magloc.unconverged_frames": (loc_c.get("magloc.unconverged_frames", 0), "count"),
            "fusenet.align_s": (align_s, "s"),
            "fusenet.fused_samples": (align_c.get("fusenet.fused_samples", 0), "count"),
            "fusenet.train_s": (train_s, "s"),
            "fusenet.epochs": (epochs, "count"),
            "fusenet.s_per_epoch": (ratio(train_s, epochs), "s"),
            "fusenet.predict_s": (predict_s, "s"),
            "fusenet.infer_us_per_step": (1e6 * ratio(predict_s, steps), "us"),
            "fusenet.checkpoint_save_s": (save_s, "s"),
            "fusenet.checkpoint_load_s": (load_s, "s"),
            "fusenet.checkpoint_bytes": (save_c.get("fusenet.checkpoint_bytes", 0), "bytes"),
            "neuralcore.flops_per_sample": (cost["flops"], "flop"),
            "neuralcore.weight_bytes_per_sample": (cost["bytes"], "bytes"),
            "neuralcore.flops_per_byte": (ratio(cost["flops"], cost["bytes"]), "flop/byte"),
            "neuralcore.train_gflops": (1e-9 * ratio(cost["flops"] * trained, train_s), "GFLOP/s"),
            "evalbench.compare_s": (compare_s, "s"),
            "evalbench.segments": (segments, "count"),
            "evalbench.us_per_segment": (1e6 * ratio(compare_s, segments), "us"),
            # What a user of each stage sees, from the same traced episodes.
            # Frame times are per-frame minima over the stream's repetitions.
            "mag_frames_per_s": (ratio(1e3 * len(service), service.sum()), "1/s"),
            "mag_frame_ms_p50": (_pct(service, 50), "ms"),
            "mag_frame_ms_p99": (_pct(service, 99), "ms"),
            "mag_latency_ms_p99": (_pct(latency, 99), "ms"),
            "mag_deadline_miss_frac": (
                ratio(int((latency > MAG_PERIOD_MS).sum()), len(latency)), "fraction"
            ),
            "mag_pos_err_mm_p99": (_pct(self._frames("pos_err_mm"), 99), "mm"),
            "mag_unconverged_frac": (
                ratio(loc_c.get("magloc.unconverged_frames", 0), frames), "fraction"
            ),
            "train_samples_per_s": (ratio(trained, train_s), "1/s"),
            "infer_steps_per_s": (ratio(steps, predict_s), "1/s"),
            "fusion_trans_rmse_mm_0.8m": (self.fusion_rmse_0_8m[0], "mm"),
            "fusion_rot_rmse_mrad_0.8m": (self.fusion_rmse_0_8m[1], "mrad"),
        }

    # --- shared stages ------------------------------------------------------

    def align(self, ests, ds):
        samples = self.call(
            "fusenet.align_streams",
            fusenet.align_streams, ests, ds.vis, ds.gt, rate_ratio=ds.config.rate_ratio,
        )
        self.add("fusenet.fused_samples", len(samples))
        return samples

    def train(self, sample_sets, cfg, hp, fixed_epochs: bool):
        ckpt, log = self.call("fusenet.train", fusenet.train, sample_sets, cfg, hp)
        epochs = [r for r in log if "aborted" not in r]
        losses = [r[k] for r in epochs for k in ("train_loss", "val_loss")]
        ok = len(epochs) == len(log) >= 1 and bool(np.all(np.isfinite(losses)))
        if fixed_epochs:
            ok = (ok and len(epochs) == cfg.max_epochs
                  and epochs[-1]["train_loss"] < epochs[0]["train_loss"])
        self.check(ok, "training ran its epochs with finite (and falling) loss")
        self.add("fusenet.epochs", len(epochs))
        self.add("fusenet.trained_samples",
                 len(epochs) * trained_samples_per_epoch(sample_sets, cfg))
        return ckpt


class MagStream(Workload):
    name = "mag-stream"
    # How hard a stream is to track is up to its trajectory: one 2.5 s
    # stream's cost varies by 20% (sd) between seeds, so a pass holds 24 of
    # them (3000 frames) for the sum to vary by about 4%. Such a pass fills
    # a 30 s run on 2 vCPUs; two passes of half as many streams would average
    # the host's speed over the same time but the seed's over half the work.
    STREAMS = 24
    DURATION = 2.5
    PROFILE = "comprehensive_scan"

    def setup(self):
        return [
            self.simulate(s, self.DURATION, self.PROFILE)
            for s in dataset_seeds(self.seed, 0x5A6, self.STREAMS)
        ]

    def run_pass(self, streams):
        for ds in streams:
            self.localize(ds)


class FusionTrainPaper(Workload):
    name = "fusion-train-paper"
    DATASETS = 2
    DURATION = 6.0
    PROFILE = "comprehensive_scan"
    # Fewer epochs than warm-up and patience, so neither beta calibration nor
    # early stopping fires and every call does the same work.
    CONFIG = fusenet.TrainingConfig(max_epochs=3, window_length=32)
    HYPER = Hyperparams(hidden_size=200)
    lstm_profile = (HYPER.hidden_size, CONFIG.window_length)

    def setup(self):
        sets = []
        for s in dataset_seeds(self.seed, 0xF05, self.DATASETS):
            ds = self.simulate(s, self.DURATION, self.PROFILE)
            sets.append(self.align(self.localize(ds), ds))
        return sets

    def run_pass(self, sample_sets):
        self.train(sample_sets, self.CONFIG, self.HYPER, fixed_epochs=True)


class PipelineDesk(Workload):
    name = "pipeline-desk"
    TRAIN_DATASETS = 3
    TRAIN_DURATION = 4.0
    # The first evaluation dataset covers more than 0.8 m of fast_complex
    # path in 30 s, so the longest bucket always has segments.
    EVAL_DURATIONS = (30.0, 4.0)
    PROFILE = "fast_complex"
    # Early stopping and warm-up as in the acceptance fixture, fewer epochs.
    CONFIG = fusenet.TrainingConfig(
        max_epochs=20, window_length=16, early_stop_patience=10, warmup_epochs=10, seed=0
    )
    HYPER = Hyperparams(hidden_size=16, dropout_rate=0.1)
    lstm_profile = (HYPER.hidden_size, CONFIG.window_length)

    def setup(self):
        train_ds = [
            self.simulate(s, self.TRAIN_DURATION, self.PROFILE)
            for s in dataset_seeds(self.seed, 0xDE5, self.TRAIN_DATASETS)
        ]
        eval_seeds = dataset_seeds(self.seed, 0xE7A, len(self.EVAL_DURATIONS))
        eval_ds = [
            self.simulate(s, d, self.PROFILE)
            for s, d in zip(eval_seeds, self.EVAL_DURATIONS)
        ]
        return train_ds, eval_ds

    def run_pass(self, state):
        train_ds, eval_ds = state
        train_ests = [self.localize(ds) for ds in train_ds]
        eval_ests = [self.localize(ds) for ds in eval_ds]
        sets = [self.align(ests, ds) for ests, ds in zip(train_ests, train_ds)]
        ckpt = self.train(sets, self.CONFIG, self.HYPER, fixed_epochs=False)
        ckpt = self.checkpoint_round_trip(ckpt)
        eval_ds = [self.dataset_round_trip(ds, i) for i, ds in enumerate(eval_ds)]
        for ests, ds in zip(eval_ests, eval_ds):
            traj = self.call(
                "fusenet.predict_trajectory",
                fusenet.predict_trajectory, ckpt, ests, ds.vis, ds.gt.pose(0),
            )
            self.add("fusenet.infer_steps", len(traj))
            self.check(
                len(traj) > 0 and bool(np.all(np.isfinite(traj.poses))),
                "fused trajectory is finite",
            )
        eval_sets = [
            {"gt": ds.gt, "mag_estimates": ests, "vis": ds.vis,
             "dipole_axis": ds.dipole.moment_axis}
            for ests, ds in zip(eval_ests, eval_ds)
        ]
        reports = self.call(
            "evalbench.compare_methods", evalbench.compare_methods, eval_sets, ckpt
        )
        self.check_reports(reports)

    def checkpoint_round_trip(self, ckpt):
        path = os.path.join(self.workdir, "model.ckpt")
        self.call("fusenet.save_checkpoint", fusenet.save_checkpoint, path, ckpt)
        self.add("fusenet.checkpoint_bytes", os.path.getsize(path))
        back = self.call("fusenet.load_checkpoint", fusenet.load_checkpoint, path)
        stats = ("mag_mean", "mag_sd", "vis_mean", "vis_sd", "target_mean", "target_sd")
        ok = (
            sorted(back.params) == sorted(ckpt.params)
            and all(same_bits(back.params[k], ckpt.params[k]) for k in ckpt.params)
            and all(same_bits(getattr(back.stats, s), getattr(ckpt.stats, s)) for s in stats)
            and back.rate_ratio == ckpt.rate_ratio
            and back.beta_loss == ckpt.beta_loss
            and back.hyperparams == ckpt.hyperparams
        )
        self.check(ok, "checkpoint save/load gives bit-identical params and stats")
        return back

    def dataset_round_trip(self, ds, i):
        path = os.path.join(self.workdir, f"eval{i}.txt")
        self.call("simkit.write_dataset", simkit.write_dataset, path, ds)
        self.add("simkit.dataset_bytes", os.path.getsize(path))
        back = self.call("simkit.read_dataset", simkit.read_dataset, path)
        ok = (
            back.config == ds.config
            and back.dipole == ds.dipole
            and same_bits(back.gt.times, ds.gt.times)
            and same_bits(back.gt.poses, ds.gt.poses)
            and len(back.mag) == len(ds.mag)
            and all(
                a.timestamp == b.timestamp and same_bits(a.values, b.values)
                for a, b in zip(back.mag, ds.mag)
            )
            and len(back.vis) == len(ds.vis)
            and all(
                a.timestamp == b.timestamp
                and same_bits(a.delta.as_vector(), b.delta.as_vector())
                for a, b in zip(back.vis, ds.vis)
            )
        )
        self.check(ok, "dataset text round trip gives bit-identical arrays")
        return back

    def check_reports(self, reports):
        methods = {r.method: r for r in reports}
        ok = sorted(methods) == sorted(evalbench.METHODS) and all(
            [b[0] for b in r.buckets] == list(evalbench.DEFAULT_BUCKETS)
            and all(n > 0 and np.isfinite(tr) and np.isfinite(rr)
                    for _, tr, rr, n in r.buckets)
            for r in reports
        )
        self.check(ok, "every method and bucket in the report has segments")
        if ok:
            self.add("evalbench.segments", sum(b[3] for r in reports for b in r.buckets))
            _, tr, rr, _ = methods["fusion"].buckets[-1]
            self.fusion_rmse_0_8m = (1e3 * tr, 1e3 * rr)


WORKLOADS = {w.name: w for w in (MagStream, FusionTrainPaper, PipelineDesk)}
