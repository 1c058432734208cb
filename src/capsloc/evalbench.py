"""Evaluation protocol: start-aligned segment RMSE bucketed by path length,
for the fusion network and the two single-sensor baselines, and the
end-to-end comparison run (run_fusion_comparison) that the acceptance test
and scripts/run_benchmark.py share.

For every estimate sample, the evaluator walks the ground-truth arc length
until it first crosses the bucket length, composes the estimated relative
motion onto the ground-truth start pose, and measures the endpoint pose
error. RMSE is taken over all such segments (pooled across datasets)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fusenet, magloc, simkit
from .geometry import (
    Pose,
    RigidTransform,
    Trajectory,
    compose,
    integrate_deltas,
    inverse,
    pose_error,
    pose_to_transform,
    resample_trajectory,
    skew,
    transform_to_pose,
)
from .neuralcore import Hyperparams

__all__ = [
    "DEFAULT_BUCKETS",
    "RmseReport",
    "segment_errors",
    "rmse_by_length",
    "evo_only_baseline",
    "magnetic_only_baseline",
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
    """Per-bucket lists of (trans_err, rot_err) over start-aligned segments."""
    # Estimates may extend one sensor period past the last ground-truth
    # sample; those tail samples have no reference and are skipped.
    keep = (est.times >= gt.times[0]) & (est.times <= gt.times[-1])
    if not np.all(keep):
        est = Trajectory(est.times[keep], est.poses[keep])
    gt_at_est = resample_trajectory(gt, est.times)
    # Arc length of ground truth evaluated at estimate timestamps.
    arc = gt_at_est.arc_length()
    buckets = {L: [] for L in bucket_lengths}
    n = len(est)
    for L in bucket_lengths:
        # First crossing index for each start: arc[e] - arc[s] >= L.
        ends = np.searchsorted(arc, arc + L, side="left")
        for s in range(n):
            e = ends[s]
            if e >= n:
                continue
            T_rel_est = compose(
                inverse(pose_to_transform(est.pose(s))),
                pose_to_transform(est.pose(e)),
            )
            start_gt = pose_to_transform(gt_at_est.pose(s))
            predicted_end = transform_to_pose(compose(start_gt, T_rel_est))
            buckets[L].append(pose_error(predicted_end, gt_at_est.pose(e)))
    return buckets


def _rmse(pairs):
    a = np.asarray(pairs, dtype=float)
    return float(np.sqrt(np.mean(a[:, 0] ** 2))), float(np.sqrt(np.mean(a[:, 1] ** 2)))


def rmse_by_length(est: Trajectory, gt: Trajectory, bucket_lengths):
    """Per-bucket (trans_rmse, rot_rmse); empty buckets map to None."""
    buckets = segment_errors(est, gt, bucket_lengths)
    return {L: (_rmse(v) if v else None) for L, v in buckets.items()}


def evo_only_baseline(vis, initial_pose: Pose) -> Trajectory:
    """Integrate visual-odometry deltas from the initial pose."""
    return integrate_deltas(
        initial_pose, [v.timestamp for v in vis], [v.delta for v in vis]
    )


def _min_rotation_between(a, b) -> np.ndarray:
    """Smallest rotation matrix taking unit vector a to unit vector b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    v = np.cross(a, b)
    c = float(np.dot(a, b))
    s = np.linalg.norm(v)
    if s < 1e-15:
        if c > 0:
            return np.eye(3)
        # Antiparallel: rotate pi about any axis orthogonal to a.
        axis = np.cross(a, [1.0, 0.0, 0.0])
        if np.linalg.norm(axis) < 1e-12:
            axis = np.cross(a, [0.0, 1.0, 0.0])
        axis /= np.linalg.norm(axis)
        return 2.0 * np.outer(axis, axis) - np.eye(3)
    K = skew(v)
    return np.eye(3) + K + K @ K * ((1 - c) / s**2)


def magnetic_only_baseline(
    mag, initial_pose: Pose, dipole_axis=(1.0, 0.0, 0.0), rule: str = "hold_initial"
) -> Trajectory:
    """Absolute 5-DoF estimates; the unobservable rotation about the dipole
    axis is completed by the configured rule (default: hold initial)."""
    if not mag:
        raise ValueError("empty magnetic stream")
    if rule not in ("hold_initial", "zero"):
        raise ValueError(f"unknown completion rule {rule!r}")
    axis = np.asarray(dipole_axis, dtype=float)
    if rule == "hold_initial":
        R0 = pose_to_transform(initial_pose).R
    else:
        R0 = np.eye(3)
    a0 = R0 @ axis
    times, poses = [], []
    for m in mag:
        R = _min_rotation_between(a0, m.heading) @ R0
        p = transform_to_pose(RigidTransform(R, m.position))
        times.append(m.timestamp)
        poses.append(p.as_vector())
    return Trajectory(np.array(times), np.array(poses))


def compare_methods(eval_sets, checkpoint, bucket_lengths=DEFAULT_BUCKETS):
    """Pooled per-method RMSE reports over held-out datasets.

    eval_sets: list of dicts with keys gt (Trajectory), mag_estimates
    (list of MagMeasurement5DoF), vis (list of VisMeasurement), and
    optionally dipole_axis. Aggregation pools segment errors across
    datasets before taking the RMSE."""
    if not eval_sets:
        raise ValueError("no evaluation datasets")
    pooled = {m: {L: [] for L in bucket_lengths} for m in METHODS}
    for ds in eval_sets:
        gt = ds["gt"]
        vis = ds["vis"]
        mag_est = ds["mag_estimates"]
        axis = ds.get("dipole_axis", (1.0, 0.0, 0.0))
        init = gt.pose(0)
        trajs = {
            "evo_only": evo_only_baseline(vis, init),
            "magnetic_only": magnetic_only_baseline(mag_est, init, axis),
        }
        if checkpoint is not None:
            trajs["fusion"] = fusenet.predict_trajectory(checkpoint, mag_est, vis, init)
        for method, est in trajs.items():
            errs = segment_errors(est, gt, bucket_lengths)
            for L in bucket_lengths:
                pooled[method][L].extend(errs[L])
    reports = []
    for method in METHODS:
        if method == "fusion" and checkpoint is None:
            continue
        buckets = []
        for L in bucket_lengths:
            errs = pooled[method][L]
            if errs:
                tr, rr = _rmse(errs)
                buckets.append((L, tr, rr, len(errs)))
            else:
                buckets.append((L, None, None, 0))
        reports.append(RmseReport(method, buckets))
    return reports


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
