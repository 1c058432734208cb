#!/usr/bin/env python3
"""End-to-end benchmark: the acceptance comparison of fusion, EVO-only and
magnetic-only localization, from seeds to the RMSE-vs-path-length report.

Runs evalbench.run_fusion_comparison, the protocol of acceptance criterion 6
(fast_complex motion, 30 s training and 75 s evaluation datasets, the desk
network), and prints timing. With the default seeds it reproduces the
criterion-6 numbers; other seeds give a held-out check, e.g.

    python3 scripts/run_benchmark.py --train-seeds 110 111 112 113 114 115 116 117 \\
        --eval-seeds 210 211 212 213 214
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from capsloc import evalbench, fusenet


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--train-seeds", type=int, nargs="+",
                    default=[100, 101, 102, 103, 104, 105, 106, 107])
    ap.add_argument("--eval-seeds", type=int, nargs="+", default=[200, 201, 202, 203, 204])
    ap.add_argument("--out", default="benchmark_report.txt")
    ap.add_argument("--checkpoint", default=None, help="also save the trained model")
    args = ap.parse_args()

    t0 = time.time()
    reports, ckpt, log = evalbench.run_fusion_comparison(
        args.train_seeds, args.eval_seeds
    )
    print(f"[{time.time() - t0:6.1f}s] {len(log)} training epochs, "
          f"beta={ckpt.beta_loss:.3g}")
    if args.checkpoint:
        fusenet.save_checkpoint(args.checkpoint, ckpt)
        fusenet.write_training_log(args.checkpoint + ".log", log)

    evalbench.write_report(args.out, reports,
                           header_lines=[f"train_seeds={args.train_seeds}",
                                         f"eval_seeds={args.eval_seeds}"])
    for rep in reports:
        for L, tr, rr, n in rep.buckets:
            if tr is not None:
                print(f"{rep.method:14s} L={L:4.2f} trans={tr * 1000:7.2f} mm "
                      f"rot={rr:8.5f} rad n={n}")
    print(f"[{time.time() - t0:6.1f}s] report written to {args.out}")


if __name__ == "__main__":
    main()
