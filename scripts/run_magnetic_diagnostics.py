#!/usr/bin/env python3
"""Magnetic localization diagnostics: per-frame position/heading error
statistics of the streaming Levenberg-Marquardt inversion (filtered
positions, per-frame headings) on a simulated dataset, plus iteration
counts and convergence rate."""

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

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

    positions = np.array([e.position for e in ests])
    headings = np.array([e.heading for e in ests])
    iters = [e.iterations for e in ests]
    pos_err = np.linalg.norm(positions - ds.gt.poses[:, :3], axis=1)
    hdg = euler_to_matrix(ds.gt.poses[:, 3:]) @ np.asarray(ds.dipole.moment_axis)
    head_err = np.arccos(np.clip(np.sum(headings * hdg, axis=1), -1.0, 1.0))

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
