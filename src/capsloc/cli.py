"""Command-line entry point wiring the modules into reproducible pipelines.

Config files are flat `key = value` text with `#` comments and section
prefixes (sim., train., eval.). An unknown key, or a value that does not
parse as its key's type, is an error naming the file, line and key.
The sim.* keys are the scalar fields of simkit.SimConfig and
simkit.DipoleParams, with their types and defaults, except seed (set by
the top-level seed key). The train.* keys are the fields of
fusenet.TrainingConfig and neuralcore.Hyperparams except seed, with their
types, and their defaults overlaid by the desk profile. The magnetic
inversion has no keys: its solver settings are constants of magloc, as
Adam's decay rates and epsilon are of neuralcore.
Every output file starts with a header echoing the effective configuration.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import fields

import numpy as np

from . import evalbench, evoalign, fusenet, magloc, simkit
from .geometry import rotation_angle, rotation_exp
from .neuralcore import Hyperparams

__all__ = ["RunConfig", "main"]

# The scalar simulation fields a config file may set; the seed comes from
# the top-level seed key.
_SIM_FIELDS = [
    f
    for cls in (simkit.SimConfig, simkit.DipoleParams)
    for f in fields(cls)
    if f.name != "seed" and not isinstance(f.default, tuple)
]

# The training fields a config file may set, by key; the seed comes from
# the top-level seed key.
_TRAIN_FIELDS = {
    f"train.{f.name}": f
    for cls in (fusenet.TrainingConfig, Hyperparams)
    for f in fields(cls)
    if f.name != "seed"
}

# The paper-faithful profile; desk is the test-scale default.
PROFILES = {
    "desk": {"train.hidden_size": 16, "train.max_epochs": 30,
             "train.window_length": 16},
    "paper": {"train.hidden_size": 200, "train.max_epochs": 200,
              "train.window_length": 32},
}

# key -> (type, default); the train.* defaults are the desk profile's.
KNOWN_KEYS = {
    "seed": (int, 0),
    "n_datasets": (int, 1),
    **{f"sim.{f.name}": (type(f.default), f.default) for f in _SIM_FIELDS},
    **{key: (type(f.default), PROFILES["desk"].get(key, f.default))
       for key, f in _TRAIN_FIELDS.items()},
    "eval.bucket_lengths": (str, "0.05,0.1,0.2,0.4,0.8"),
}


def _bucket_lengths(text: str) -> tuple:
    """The eval.bucket_lengths value as floats; ValueError unless they are
    finite, positive and strictly increasing."""
    try:
        lengths = tuple(float(x) for x in text.split(","))
        ok = (all(np.isfinite(L) and L > 0 for L in lengths)
              and all(a < b for a, b in zip(lengths, lengths[1:])))
    except ValueError:
        ok = False
    if not ok:
        raise ValueError("eval.bucket_lengths: expected increasing positive "
                         f"comma-separated lengths, got {text!r}")
    return lengths


class RunConfig:
    def __init__(self, values=None):
        self.values = {k: v for k, (_, v) in KNOWN_KEYS.items()}
        if values:
            for k, v in values.items():
                self.set(k, v)

    def set(self, key, raw):
        """Set key from a config-file string, or from a value that its type
        does not change: an int may set a float key, 8.5 may not set an int.
        No key is a bool, so a bool sets none, although True == 1. The
        eval.bucket_lengths text is checked here, not when evaluate reads it."""
        if key not in KNOWN_KEYS:
            raise KeyError(f"unknown config key: {key}")
        typ, _ = KNOWN_KEYS[key]
        try:
            value = typ(raw)
            if isinstance(raw, (bool, np.bool_)) or not isinstance(raw, str) and value != raw:
                raise ValueError
        except (TypeError, ValueError):
            raise ValueError(f"{key}: expected {typ.__name__}, got {raw!r}") from None
        if key == "eval.bucket_lengths":
            _bucket_lengths(value)
        self.values[key] = value

    def __getitem__(self, key):
        return self.values[key]

    @staticmethod
    def load(path) -> "RunConfig":
        cfg = RunConfig()
        with open(path) as f:
            for lineno, line in enumerate(f, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key = value")
                key, _, val = line.partition("=")
                try:
                    cfg.set(key.strip(), val.strip())
                except (KeyError, ValueError) as e:
                    raise ValueError(f"{path}:{lineno}: {e.args[0]}") from None
        return cfg

    def header_lines(self):
        return [f"config {k}={self.values[k]}" for k in sorted(self.values)]

    def _section_values(self, section, cls) -> dict:
        """Field name -> value for the fields of cls that have a section.* key."""
        v = self.values
        keys = {f.name: f"{section}.{f.name}" for f in fields(cls)}
        return {name: v[key] for name, key in keys.items() if key in v}

    def sim_config(self, seed) -> simkit.SimConfig:
        sim = self._section_values("sim", simkit.SimConfig)
        return simkit.SimConfig(seed=seed, **sim)

    def dipole(self) -> simkit.DipoleParams:
        return simkit.DipoleParams(**self._section_values("sim", simkit.DipoleParams))

    def training_config(self) -> fusenet.TrainingConfig:
        train = self._section_values("train", fusenet.TrainingConfig)
        return fusenet.TrainingConfig(seed=self.values["seed"], **train)

    def hyperparams(self) -> Hyperparams:
        return Hyperparams(**self._section_values("train", Hyperparams))

    def bucket_lengths(self):
        return _bucket_lengths(self.values["eval.bucket_lengths"])


def _load_config(args) -> RunConfig:
    cfg = RunConfig.load(args.config) if args.config else RunConfig()
    if args.profile:
        for k, v in PROFILES[args.profile].items():
            cfg.set(k, v)
    if args.seed is not None:
        cfg.set("seed", args.seed)
    return cfg


def _dataset_paths(out, n, seed):
    return [f"{out}/dataset_seed{seed + i}.txt" for i in range(n)]


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    seed = cfg["seed"]
    import os

    os.makedirs(args.out, exist_ok=True)
    for i, path in enumerate(_dataset_paths(args.out, cfg["n_datasets"], seed)):
        sim_cfg = cfg.sim_config(seed + i)
        ds = simkit.simulate_dataset(sim_cfg, cfg.dipole())
        simkit.write_dataset(path, ds)
        print(f"wrote {path}")
    return 0


def _write_mag_estimates(path, ests, cfg):
    with open(path, "w") as f:
        f.write("# capsloc-magest v1\n")
        for line in cfg.header_lines():
            f.write(f"# {line}\n")
        f.write("# t px py pz hx hy hz converged residual iterations\n")
        for m in ests:
            f.write(
                f"{m.timestamp!r} "
                + " ".join(repr(float(v)) for v in (*m.position, *m.heading))
                + f" {int(m.converged)} {m.residual!r} {m.iterations}\n"
            )


def cmd_localize_mag(args) -> int:
    cfg = _load_config(args)
    ds = simkit.read_dataset(args.dataset)
    ests = magloc.localize_dataset(ds, diagnostics_path=args.diagnostics)
    _write_mag_estimates(args.out, ests, cfg)
    print(f"wrote {args.out} ({len(ests)} frames)")
    return 0


@contextmanager
def _errors_name(path):
    """Prefix a ValueError raised inside the block with `path: `, for the
    per-dataset work after the dataset file is read (read_dataset's own
    errors already name it)."""
    try:
        yield
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def cmd_train(args) -> int:
    cfg = _load_config(args)
    # Checked before the datasets are localized.
    train_cfg, hp = cfg.training_config(), cfg.hyperparams()
    sample_sets = []
    for path in args.datasets:
        ds = simkit.read_dataset(path)
        with _errors_name(path):
            ests = magloc.localize_dataset(ds)
            samples = fusenet.align_streams(
                ests, ds.vis, ds.gt, rate_ratio=ds.config.rate_ratio
            )
        sample_sets.append(samples)
    ckpt, log = fusenet.train(sample_sets, train_cfg, hp)
    fusenet.save_checkpoint(args.out, ckpt)
    fusenet.write_training_log(args.out + ".log", log)
    print(f"wrote {args.out} (beta={ckpt.beta_loss:.3g}, {len(log)} epochs)")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    bucket_lengths = cfg.bucket_lengths()
    ckpt = fusenet.load_checkpoint(args.checkpoint)
    dataset_errors = []
    for path in args.datasets:
        ds = simkit.read_dataset(path)
        with _errors_name(path):
            if ds.config.rate_ratio != ckpt.rate_ratio:
                raise ValueError(f"rate ratio {ds.config.rate_ratio} differs from the "
                                 f"checkpoint's {ckpt.rate_ratio}")
            eval_set = {
                "gt": ds.gt,
                "mag_estimates": magloc.localize_dataset(ds),
                "vis": ds.vis,
                "dipole_axis": ds.dipole.moment_axis,
            }
            dataset_errors.append(
                evalbench.dataset_segment_errors(eval_set, ckpt, bucket_lengths)
            )
    reports = evalbench.pool_reports(dataset_errors, bucket_lengths)
    evalbench.write_report(args.out, reports, cfg.header_lines())
    for rep in reports:
        for L, tr, rr, n in rep.buckets:
            if tr is not None:
                print(f"{rep.method:14s} L={L:5.2f} trans={tr:.6f} rot={rr:.6f} n={n}")
    return 0


def cmd_align_demo(args) -> int:
    cfg = _load_config(args)
    rng = np.random.default_rng(np.random.SeedSequence([cfg["seed"], 0xA11]))
    true_R = rotation_exp(rng.normal(0, 0.01, 3))
    true_t = rng.normal(0, 0.002, 3)
    # Points in a box in front of frame 0, seen exactly from both frames;
    # frame 1 sits at (true_R, true_t) in frame 0's coordinates.
    pts = rng.uniform((-0.1, -0.1, 0.4), (0.1, 0.1, 0.6), (40, 3))
    in_frame1 = (pts - true_t) @ true_R
    pairs = zip(pts, in_frame1)
    state, info = evoalign.minimize_alignment(
        evoalign.CorrespondenceSet([(0, 1, p0, p1) for p0, p1 in pairs])
    )
    t_err = float(np.linalg.norm(state.t[1] - true_t))
    r_err = float(rotation_angle(true_R, state.R[1]))
    print(f"recovered transform error: trans={t_err:.3e} m rot={r_err:.3e} rad")
    print(f"final energy: {info['final_energy']:.3e}")
    if args.out:
        with open(args.out, "w") as f:
            for line in cfg.header_lines():
                f.write(f"# {line}\n")
            f.write(f"trans_error {t_err!r}\nrot_error {r_err!r}\n")
            f.write(f"final_energy {info['final_energy']!r}\n")
            for k, e in enumerate(info["energy_trace"]):
                f.write(f"energy {k} {e!r}\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="capsloc",
        description="Capsule-robot localization: simulation, magnetic "
        "inversion, LSTM sensor fusion, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="flat key = value file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--profile", choices=sorted(PROFILES), default=None)

    p = sub.add_parser("simulate", help="generate seeded datasets")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("localize-mag", help="run magnetic localization")
    common(p)
    p.add_argument("dataset")
    p.add_argument("--out", required=True)
    p.add_argument(
        "--diagnostics", default=None,
        help="per-frame text log: iterations, residual, converged, gate "
        "value and filtered position sd",
    )
    p.set_defaults(fn=cmd_localize_mag)

    p = sub.add_parser("train", help="train the fusion network")
    common(p)
    p.add_argument("datasets", nargs="+")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="RMSE-vs-length comparison")
    common(p)
    p.add_argument("datasets", nargs="+")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="plot data path")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser(
        "align-demo", help="sparse alignment on synthetic correspondences"
    )
    common(p)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_align_demo)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError, RuntimeError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
