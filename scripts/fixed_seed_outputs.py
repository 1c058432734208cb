#!/usr/bin/env python3
"""Write the CLI's outputs on fixed seeds and print one sha256 per file.

Two trees that should give the same results can be compared with `cmp` on
their OUT_DIRs, or with `diff` on the printed hashes, which are all that
goes to stdout (the CLI's own messages go to stderr):

    python3 scripts/fixed_seed_outputs.py OUT_DIR

It runs, with the config it writes to OUT_DIR/run.cfg:
- `simulate`: seeds 1-3, 12 s each;
- `localize-mag --diagnostics` on each dataset;
- `train` on all three (H 16, window 16, 25 epochs, warm-up 3, patience 6),
  which writes the checkpoint and its log;
- `train` at the paper's size on the seed-1 and seed-2 datasets (H 200,
  window 32, 2 epochs, warm-up 1), with the config in OUT_DIR/paper.cfg,
  which writes paper.ckpt and its log. The BLAS kernels that H 200 runs
  differ from H 16's, so byte-identity at one size says nothing of the
  other;
- `evaluate` of each checkpoint on the held-out seed-3 dataset, which
  writes report.txt and, for paper.ckpt, paper_report.txt, so that H 200
  inference has an output of its own;
- `align-demo --seed 2 --out`.

After the file hashes, it prints one `<sha256>  <name> (loaded)` line per
checkpoint, the hash of what `load_checkpoint` returns: the params by
sorted key, the six statistics arrays (each as its shape and bytes), the
hyperparams, the rate ratio and beta. It reads only `Checkpoint` fields that
every checkpoint version has had, so this script, run in a copy of an
older tree, shows whether a change of the checkpoint's file form changed
the network it loads.
"""

import argparse
import contextlib
import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from capsloc.cli import main as capsloc
from capsloc.fusenet import load_checkpoint

CONFIG = """\
seed = 1
n_datasets = 3
sim.duration = 12
train.hidden_size = 16
train.window_length = 16
train.max_epochs = 25
train.warmup_epochs = 3
train.early_stop_patience = 6
"""

PAPER_CONFIG = """\
seed = 1
train.hidden_size = 200
train.window_length = 32
train.max_epochs = 2
train.warmup_epochs = 1
"""


def run(*argv):
    with contextlib.redirect_stdout(sys.stderr):
        status = capsloc(list(argv))
    if status != 0:
        sys.exit(f"capsloc {argv[0]} failed")


def loaded_checkpoint_digest(path) -> str:
    ckpt = load_checkpoint(path)
    stats = ("mag_mean", "mag_sd", "vis_mean", "vis_sd", "target_mean", "target_sd")
    arrays = [(k, ckpt.params[k]) for k in sorted(ckpt.params)]
    arrays += [(f"stats.{k}", getattr(ckpt.stats, k)) for k in stats]
    h = hashlib.sha256()
    for key, arr in arrays:
        h.update(f"{key} {arr.shape}\n".encode())
        h.update(arr.astype("<f8").tobytes())
    h.update(f"{ckpt.hyperparams!r} {ckpt.rate_ratio!r} {ckpt.beta_loss!r}\n".encode())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("out_dir")
    out = ap.parse_args().out_dir
    os.makedirs(out, exist_ok=True)
    cfg, paper_cfg = os.path.join(out, "run.cfg"), os.path.join(out, "paper.cfg")
    for path, text in ((cfg, CONFIG), (paper_cfg, PAPER_CONFIG)):
        with open(path, "w") as f:
            f.write(text)
    data = os.path.join(out, "data")
    run("simulate", "--config", cfg, "--out", data)
    datasets = [os.path.join(data, f"dataset_seed{s}.txt") for s in (1, 2, 3)]
    for s, path in zip((1, 2, 3), datasets):
        run("localize-mag", "--config", cfg, path,
            "--out", os.path.join(out, f"mag_seed{s}.txt"),
            "--diagnostics", os.path.join(out, f"mag_seed{s}.diag"))
    ckpt = os.path.join(out, "model.ckpt")
    run("train", "--config", cfg, *datasets, "--out", ckpt)
    run("evaluate", "--config", cfg, datasets[2], "--checkpoint", ckpt,
        "--out", os.path.join(out, "report.txt"))
    run("align-demo", "--config", cfg, "--seed", "2", "--out", os.path.join(out, "align.txt"))
    paper_ckpt = os.path.join(out, "paper.ckpt")
    run("train", "--config", paper_cfg, *datasets[:2], "--out", paper_ckpt)
    run("evaluate", "--config", paper_cfg, datasets[2], "--checkpoint", paper_ckpt,
        "--out", os.path.join(out, "paper_report.txt"))

    for root, _, files in sorted(os.walk(out)):
        for name in sorted(files):
            path = os.path.join(root, name)
            with open(path, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
            print(f"{digest}  {os.path.relpath(path, out)}")
    for path in (ckpt, paper_ckpt):
        print(f"{loaded_checkpoint_digest(path)}  {os.path.basename(path)} (loaded)")


if __name__ == "__main__":
    main()
