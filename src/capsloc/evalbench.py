"""Evaluation protocol: start-aligned segment RMSE bucketed by path length,
for the fusion network and the two single-sensor baselines, and the
end-to-end comparison run (run_fusion_comparison) that the acceptance test
and scripts/run_benchmark.py share.

For each bucket length, every estimate sample starts one segment, which ends
at the first sample where the ground-truth arc length from the start reaches
the bucket length (one searchsorted per bucket); starts with no such sample
are dropped. All segments of a bucket are then scored in one array call: the
estimated relative motion is composed onto the ground-truth start pose and
compared with the ground-truth end pose. RMSE is taken over all segments,
pooled across datasets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fusenet, magloc, simkit
from .geometry import (
    Pose,
    Trajectory,
    euler_to_matrix,
    integrate_deltas,
    matrix_to_euler,
    min_rotation_between,
    resample_trajectory,
    start_aligned_error,
)
from .neuralcore import Hyperparams

__all__ = [
    "DEFAULT_BUCKETS",
    "RmseReport",
    "segment_errors",
    "rmse_by_length",
    "evo_only_baseline",
    "magnetic_only_baseline",
    "dataset_segment_errors",
    "pool_reports",
    "compare_methods",
    "run_fusion_comparison",
    "write_report",
]

DEFAULT_BUCKETS = (0.05, 0.1, 0.2, 0.4, 0.8)

METHODS = ("fusion", "evo_only", "magnetic_only")


@dataclass
class RmseReport:
    method: str
    buckets: list  # of (path_length, trans_rmse, rot_rmse, segment_count)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        lengths = [b[0] for b in self.buckets]
        if any(b <= a for a, b in zip(lengths, lengths[1:])):
            raise ValueError("bucket lengths must be strictly increasing")


def segment_errors(est: Trajectory, gt: Trajectory, bucket_lengths):
    """Per-bucket (n, 2) arrays of (trans_err, rot_err) rows over
    start-aligned segments, in order of their start samples."""
    # Estimates may extend one sensor period past the last ground-truth
    # sample; those tail samples have no reference and are skipped.
    keep = (est.times >= gt.times[0]) & (est.times <= gt.times[-1])
    if not np.all(keep):
        est = Trajectory(est.times[keep], est.poses[keep])
    gt_at_est = resample_trajectory(gt, est.times)
    # Arc length of ground truth evaluated at estimate timestamps.
    arc = gt_at_est.arc_length()
    buckets = {}
    for L in bucket_lengths:
        # First crossing index for each start: arc[e] - arc[s] >= L.
        ends = np.searchsorted(arc, arc + L, side="left")
        starts = np.flatnonzero(ends < len(arc))
        ends = ends[starts]
        trans, rot = start_aligned_error(
            est.poses[starts], est.poses[ends],
            gt_at_est.poses[starts], gt_at_est.poses[ends],
        )
        buckets[L] = np.stack([trans, rot], axis=-1)
    return buckets


def _rmse(a):
    """(trans_rmse, rot_rmse) over (n, 2) error rows; (None, None) if n = 0."""
    if not len(a):
        return None, None
    return float(np.sqrt(np.mean(a[:, 0] ** 2))), float(np.sqrt(np.mean(a[:, 1] ** 2)))


def rmse_by_length(est: Trajectory, gt: Trajectory, bucket_lengths):
    """Per-bucket (trans_rmse, rot_rmse) of one trajectory; empty buckets
    map to None. A test oracle: compare_methods pools segment_errors over
    datasets instead, and only tests call this."""
    buckets = segment_errors(est, gt, bucket_lengths)
    return {L: (_rmse(v) if len(v) else None) for L, v in buckets.items()}


def evo_only_baseline(vis, initial_pose: Pose) -> Trajectory:
    """Integrate visual-odometry deltas from the initial pose."""
    if not vis:
        raise ValueError("empty visual stream")
    return integrate_deltas(
        initial_pose.as_vector(),
        [v.timestamp for v in vis],
        np.array([v.delta.as_vector() for v in vis]),
    )


def magnetic_only_baseline(mag, initial_pose: Pose, dipole_axis) -> Trajectory:
    """Absolute 5-DoF estimates; the unobservable rotation about the dipole
    axis is held at its initial value: each attitude is the smallest
    rotation taking the initial dipole direction to the measured heading,
    applied to the initial attitude."""
    if not mag:
        raise ValueError("empty magnetic stream")
    R0 = euler_to_matrix(initial_pose.r)
    a0 = R0 @ np.asarray(dipole_axis, dtype=float)
    R = min_rotation_between(a0, np.array([m.heading for m in mag])) @ R0
    positions = np.array([m.position for m in mag], dtype=float)
    return Trajectory(
        np.array([m.timestamp for m in mag]),
        np.concatenate([positions, matrix_to_euler(R)], axis=1),
    )


def dataset_segment_errors(eval_set, checkpoint, bucket_lengths=DEFAULT_BUCKETS) -> dict:
    """Method -> segment_errors of one evaluation set, a dict with keys gt
    (Trajectory), mag_estimates (list of MagMeasurement5DoF), vis (list of
    VisMeasurement) and dipole_axis (the magnet's axis in the capsule
    frame, as DipoleParams.moment_axis). Fusion is scored only with a
    checkpoint."""
    gt, vis, mag_est = eval_set["gt"], eval_set["vis"], eval_set["mag_estimates"]
    init = gt.pose(0)
    trajs = {
        "evo_only": evo_only_baseline(vis, init),
        "magnetic_only": magnetic_only_baseline(mag_est, init, eval_set["dipole_axis"]),
    }
    if checkpoint is not None:
        trajs["fusion"] = fusenet.predict_trajectory(checkpoint, mag_est, vis, init)
    return {method: segment_errors(est, gt, bucket_lengths) for method, est in trajs.items()}


def pool_reports(dataset_errors, bucket_lengths=DEFAULT_BUCKETS) -> list:
    """One RmseReport per method of dataset_segment_errors' results,
    pooling each bucket's segment errors across datasets before taking
    the RMSE."""
    if not dataset_errors:
        raise ValueError("no evaluation datasets")
    reports = []
    for method in METHODS:
        if method not in dataset_errors[0]:
            continue
        buckets = []
        for L in bucket_lengths:
            errs = np.concatenate([errors[method][L] for errors in dataset_errors])
            buckets.append((L, *_rmse(errs), len(errs)))
        reports.append(RmseReport(method, buckets))
    return reports


def compare_methods(eval_sets, checkpoint, bucket_lengths=DEFAULT_BUCKETS):
    """Pooled per-method RMSE reports over held-out datasets, each an
    evaluation set as dataset_segment_errors takes."""
    return pool_reports(
        [dataset_segment_errors(ds, checkpoint, bucket_lengths) for ds in eval_sets],
        bucket_lengths,
    )


def run_fusion_comparison(train_seeds, eval_seeds):
    """The acceptance comparison from seeds to reports.

    Simulates fast_complex datasets (30 s per training seed, 75 s per
    evaluation seed) and localizes them magnetically; trains the desk
    network (hidden size 16, dropout 0.1, window 16, at most 50 epochs,
    patience 10, warm-up 10, training seed 0) on the training sets; and
    compares the three methods on the evaluation sets.
    Returns (reports, checkpoint, training log)."""

    def simulate(seed, duration):
        cfg = simkit.SimConfig(
            duration=duration, seed=seed, motion_profile="fast_complex"
        )
        ds = simkit.simulate_dataset(cfg)
        return ds, magloc.localize_dataset(ds)

    train_sets = []
    for seed in train_seeds:
        ds, ests = simulate(seed, 30.0)
        train_sets.append(
            fusenet.align_streams(ests, ds.vis, ds.gt, rate_ratio=ds.config.rate_ratio)
        )
    tcfg = fusenet.TrainingConfig(
        max_epochs=50,
        window_length=16,
        early_stop_patience=10,
        warmup_epochs=10,
        seed=0,
    )
    hp = Hyperparams(hidden_size=16, dropout_rate=0.1)
    ckpt, log = fusenet.train(train_sets, tcfg, hp)

    eval_sets = []
    for seed in eval_seeds:
        ds, ests = simulate(seed, 75.0)
        eval_sets.append(
            {
                "gt": ds.gt,
                "mag_estimates": ests,
                "vis": ds.vis,
                "dipole_axis": ds.dipole.moment_axis,
            }
        )
    return compare_methods(eval_sets, ckpt), ckpt, log


def write_report(path, reports, header_lines=()) -> None:
    """Plot-ready data: `bucket_length method trans_rmse rot_rmse n` lines."""
    with open(path, "w") as f:
        f.write("# protocol=start-aligned-segment-rmse\n")
        for line in header_lines:
            f.write(f"# {line}\n")
        f.write("# bucket_length method trans_rmse rot_rmse n\n")
        for rep in reports:
            for L, tr, rr, n in rep.buckets:
                tr_s = "nan" if tr is None else repr(float(tr))
                rr_s = "nan" if rr is None else repr(float(rr))
                f.write(f"{float(L)!r} {rep.method} {tr_s} {rr_s} {n}\n")
