#!/usr/bin/env python3
"""Magnetic localization diagnostics: per-frame position/heading error
statistics of the streaming Levenberg-Marquardt inversion (filtered
positions, per-frame headings) on a simulated dataset, plus iteration
counts and convergence rate."""

import argparse
import sys
import time

import numpy as np

sys.path.insert(0, "src")

from capsloc import magloc, simkit
from capsloc.geometry import euler_to_matrix


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--duration", type=float, default=60.0)
    ap.add_argument("--profile", default="comprehensive_scan",
                    choices=sorted(simkit.MOTION_PROFILES))
    ap.add_argument("--noise-sd", type=float, default=5e-7, help="tesla")
    args = ap.parse_args()

    cfg = simkit.SimConfig(duration=args.duration, seed=args.seed,
                           motion_profile=args.profile, mag_noise_sd=args.noise_sd)
    ds = simkit.simulate_dataset(cfg)

    t0 = time.perf_counter()
    ests = magloc.localize_dataset(ds)
    dt = time.perf_counter() - t0

    axis = np.asarray(ds.dipole.moment_axis)
    pos_err, head_err, iters = [], [], []
    for est, pose in zip(ests, ds.gt.poses):
        pos_err.append(np.linalg.norm(est.position - pose[:3]))
        hdg = euler_to_matrix(pose[3:]) @ axis
        c = np.clip(np.dot(est.heading, hdg), -1.0, 1.0)
        head_err.append(np.arccos(c))
        iters.append(est.iterations)
    pos_err = np.array(pos_err)
    head_err = np.array(head_err)

    print(f"{len(ests)} frames in {dt:.1f} s ({1e3 * dt / len(ests):.1f} ms/frame)")
    print(f"converged: {sum(e.converged for e in ests)}/{len(ests)}")
    for name, a, scale, unit in (("position", pos_err, 1e3, "mm"),
                                 ("heading", head_err, 1e3, "mrad")):
        q = np.percentile(a, [50, 95, 99, 100])
        print(f"{name}: median={scale * q[0]:.3f} p95={scale * q[1]:.3f} "
              f"p99={scale * q[2]:.3f} max={scale * q[3]:.3f} {unit}")
    print(f"iterations: mean={np.mean(iters):.1f} max={max(iters)} "
          f"({1e3 * dt / sum(iters):.3f} ms/LM iteration)")


if __name__ == "__main__":
    main()
