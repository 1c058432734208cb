import os
import pathlib
import re
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from capsloc import cli, fusenet, simkit
from capsloc.cli import RunConfig, main
from capsloc.neuralcore import Hyperparams


# --- config parsing ---------------------------------------------------------


def test_config_defaults():
    cfg = RunConfig()
    assert cfg["seed"] == 0
    assert cfg["sim.mag_rate"] == 50.0
    assert cfg["sim.vis_rate"] == 25.0
    assert cfg.bucket_lengths() == (0.05, 0.1, 0.2, 0.4, 0.8)


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "seed = 42\n"
        "sim.duration = 5.0  # inline comment\n"
        "train.hidden_size = 8\n"
        "\n"
    )
    cfg = RunConfig.load(path)
    assert cfg["seed"] == 42
    assert cfg["sim.duration"] == 5.0
    assert cfg.hyperparams().hidden_size == 8


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("sim.gravity = 9.81\n")
    with pytest.raises(ValueError, match="bad.cfg:1: unknown config key: sim.gravity$"):
        RunConfig.load(path)


def test_train_keys_are_the_training_fields():
    # Every TrainingConfig and Hyperparams field but the seed, typed as
    # its default; the defaults are the desk profile over the dataclasses'.
    train = {k: v for k, v in cli.KNOWN_KEYS.items() if k.startswith("train.")}
    names = [f.name for cls in (fusenet.TrainingConfig, Hyperparams) for f in fields(cls)]
    assert [k[len("train."):] for k in train] == [n for n in names if n != "seed"]
    assert train == {
        "train.max_epochs": (int, 30),
        "train.window_length": (int, 16),
        "train.early_stop_patience": (int, 10),
        "train.validation_fraction": (float, 0.25),
        "train.warmup_epochs": (int, 10),
        "train.learning_rate": (float, 0.001),
        "train.dropout_rate": (float, 0.25),
        "train.hidden_size": (int, 16),
    }
    cfg = RunConfig({"seed": 3, "train.learning_rate": "0.01", "train.max_epochs": "7"})
    assert cfg.hyperparams() == Hyperparams(learning_rate=0.01, hidden_size=16)
    assert cfg.training_config() == fusenet.TrainingConfig(
        max_epochs=7, window_length=16, seed=3)


def test_sim_keys_are_the_scalar_simulation_fields():
    # Every SimConfig and DipoleParams field but the seed and the tuples,
    # typed as its default. The jitter's correlation time, the slow
    # profile's speed cap and align-demo's noise are constants, not keys.
    sim = {k: v for k, v in cli.KNOWN_KEYS.items() if k.startswith("sim.")}
    scalars = {f.name: f.default for cls in (simkit.SimConfig, simkit.DipoleParams)
               for f in fields(cls) if not isinstance(f.default, tuple)}
    assert sim == {f"sim.{name}": (type(default), default)
                   for name, default in scalars.items() if name != "seed"}
    assert list(sim) == [
        "sim.duration", "sim.motion_profile", "sim.workspace_half_extent",
        "sim.mag_rate", "sim.vis_rate", "sim.mag_noise_sd", "sim.vis_trans_noise_sd",
        "sim.vis_rot_noise_sd", "sim.vis_drift_rate", "sim.vis_rot_drift_rate",
        "sim.vis_trans_bias_rate", "sim.vis_rot_bias_rate", "sim.jitter_scale",
        "sim.moment_magnitude",
    ]
    for key in ("sim.jitter_tau", "sim.slow_speed_cap", "align.noise_sd"):
        with pytest.raises(KeyError, match=f"^'unknown config key: {key}'$"):
            RunConfig({key: "0.5"})


def test_config_value_that_its_type_would_change_is_rejected():
    # A Python value is checked, not coerced: 8.5 is no int, 0.5 no str.
    for key, raw, message in [
        ("train.hidden_size", 8.5, "train.hidden_size: expected int, got 8.5"),
        ("seed", 2.9, "seed: expected int, got 2.9"),
        ("sim.duration", None, "sim.duration: expected float, got None"),
        ("eval.bucket_lengths", 0.5, "eval.bucket_lengths: expected str, got 0.5"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RunConfig({key: raw})
    # A value its type keeps, an int for a float key, and a string all set.
    cfg = RunConfig({"train.hidden_size": 8.0, "seed": 2, "sim.duration": 5,
                     "train.max_epochs": "9"})
    assert cfg["train.hidden_size"] == 8 and type(cfg["train.hidden_size"]) is int
    assert cfg["sim.duration"] == 5.0 and type(cfg["sim.duration"]) is float
    assert cfg["seed"] == 2 and cfg["train.max_epochs"] == 9
    for profile in cli.PROFILES.values():
        RunConfig(profile)


def test_config_bool_is_rejected_for_every_key():
    # No key is a bool, and True == 1 must not pass for one: seed True
    # used to give seed 1, and train.max_epochs False zero epochs.
    for key, raw, typ in [("seed", True, "int"), ("train.max_epochs", False, "int"),
                          ("sim.duration", True, "float"),
                          ("train.dropout_rate", np.False_, "float"),
                          ("eval.bucket_lengths", True, "str")]:
        with pytest.raises(ValueError, match=f"^{key}: expected {typ}, got {raw!r}$"):
            RunConfig({key: raw})
    # Config files are strings, so "True" still fails to parse as an int.
    with pytest.raises(ValueError, match="^seed: expected int, got 'True'$"):
        RunConfig({"seed": "True"})


def test_magnetic_inversion_has_no_config_keys():
    # The solver's settings are magloc constants, not config keys.
    assert not [k for k in cli.KNOWN_KEYS if k.startswith("magloc.")]
    with pytest.raises(KeyError, match="unknown config key: magloc.max_iterations"):
        RunConfig({"magloc.max_iterations": "25"})


def test_config_malformed_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ValueError, match="expected key = value"):
        RunConfig.load(path)


def test_config_bad_bucket_lengths_are_named_at_load(tmp_path):
    # Checked when the file loads, not once evaluate has read the checkpoint
    # and localized every dataset; a good value keeps its header bytes.
    path = tmp_path / "run.cfg"
    for value in ("0.1,abc", "0.2,0.1", "0.1,0.1", "0,0.1", "0.1,nan", "0.1,inf", ""):
        path.write_text(f"seed = 1\neval.bucket_lengths = {value}\n")
        message = (f"{path}:2: eval.bucket_lengths: expected increasing positive "
                   f"comma-separated lengths, got {value!r}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RunConfig.load(path)
    path.write_text("eval.bucket_lengths = 0.05,0.1,0.2\n")
    cfg = RunConfig.load(path)
    assert cfg.bucket_lengths() == (0.05, 0.1, 0.2)
    assert "config eval.bucket_lengths=0.05,0.1,0.2" in cfg.header_lines()


def test_profile_overrides():
    class A:
        config = None
        profile = "paper"
        seed = None

    cfg = cli._load_config(A())
    assert cfg["train.hidden_size"] == 200
    assert cfg["train.max_epochs"] == 200

    A.profile = "desk"
    cfg = cli._load_config(A())
    assert cfg["train.hidden_size"] == 16


def test_seed_flag_overrides_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 5\n")

    class A:
        config = str(path)
        profile = None
        seed = 99

    cfg = cli._load_config(A())
    assert cfg["seed"] == 99


# --- subcommands ------------------------------------------------------------


def fast_cfg(tmp_path, extra=""):
    path = tmp_path / "run.cfg"
    path.write_text(
        "sim.duration = 2.0\n"
        "train.max_epochs = 2\n"
        "train.warmup_epochs = 0\n"
        "train.hidden_size = 4\n"
        "train.window_length = 8\n"
        "eval.bucket_lengths = 0.002,0.005\n" + extra
    )
    return str(path)


def test_simulate_command(tmp_path, capsys):
    cfg = fast_cfg(tmp_path)
    out = tmp_path / "data"
    rc = main(["simulate", "--config", cfg, "--seed", "3", "--out", str(out)])
    assert rc == 0
    ds_path = out / "dataset_seed3.txt"
    assert ds_path.exists()
    ds = simkit.read_dataset(ds_path)
    assert ds.config.seed == 3
    assert ds.config.duration == 2.0
    assert "wrote" in capsys.readouterr().out


def test_simulate_deterministic(tmp_path):
    cfg = fast_cfg(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", cfg, "--seed", "7", "--out", str(a)])
    main(["simulate", "--config", cfg, "--seed", "7", "--out", str(b)])
    assert (a / "dataset_seed7.txt").read_text() == (b / "dataset_seed7.txt").read_text()


def test_localize_train_evaluate_pipeline(tmp_path, capsys):
    cfg = fast_cfg(tmp_path)
    data = tmp_path / "data"
    assert main(["simulate", "--config", cfg, "--seed", "11", "--out", str(data)]) == 0
    ds_path = str(data / "dataset_seed11.txt")

    est_path = str(tmp_path / "mag_est.txt")
    assert main(["localize-mag", "--config", cfg, ds_path, "--out", est_path]) == 0
    ests = np.loadtxt(est_path, ndmin=2)
    ds = simkit.read_dataset(ds_path)
    assert ests.shape == (len(ds.mag), 10)
    assert np.all(np.abs(np.linalg.norm(ests[:, 4:7], axis=1) - 1.0) < 1e-9)

    ckpt_path = str(tmp_path / "model.ckpt")
    assert main(["train", "--config", cfg, ds_path, "--out", ckpt_path]) == 0
    ckpt = fusenet.load_checkpoint(ckpt_path)
    assert ckpt.hyperparams.hidden_size == 4
    log_lines = (tmp_path / "model.ckpt.log").read_text().splitlines()
    assert any(not l.startswith("#") for l in log_lines)

    report_path = str(tmp_path / "report.txt")
    rc = main(["evaluate", "--config", cfg, ds_path,
               "--checkpoint", ckpt_path, "--out", report_path])
    assert rc == 0
    text = (tmp_path / "report.txt").read_text()
    assert "protocol=start-aligned-segment-rmse" in text
    methods = {l.split()[1] for l in text.splitlines() if not l.startswith("#")}
    assert methods == {"fusion", "evo_only", "magnetic_only"}
    assert "fusion" in capsys.readouterr().out


def test_localize_mag_diagnostics_leave_estimates_unchanged(tmp_path):
    cfg = fast_cfg(tmp_path)
    data = tmp_path / "data"
    assert main(["simulate", "--config", cfg, "--seed", "12", "--out", str(data)]) == 0
    ds_path = str(data / "dataset_seed12.txt")
    plain, logged = tmp_path / "plain.txt", tmp_path / "logged.txt"
    diag = tmp_path / "diag.txt"
    assert main(["localize-mag", "--config", cfg, ds_path, "--out", str(plain)]) == 0
    assert main(["localize-mag", "--config", cfg, ds_path, "--out", str(logged),
                 "--diagnostics", str(diag)]) == 0
    assert plain.read_bytes() == logged.read_bytes()
    lines = diag.read_text().splitlines()
    assert len(lines) == len(simkit.read_dataset(ds_path).mag)
    for line in lines:
        fields = dict(f.split("=") for f in line.split()[1:])
        assert set(fields) == {"iterations", "residual", "converged", "gate", "pos_sd"}
        assert float(fields["gate"]) >= 0.0
        sd = [float(v) for v in fields["pos_sd"].split(",")]
        assert len(sd) == 3 and all(0.0 <= v < 0.1 for v in sd)


def test_align_demo_command(tmp_path, capsys):
    out = str(tmp_path / "align.txt")
    rc = main(["align-demo", "--seed", "2", "--out", out])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "recovered transform error" in printed
    lines = (tmp_path / "align.txt").read_text().splitlines()
    kv = dict(l.split(maxsplit=1) for l in lines if not l.startswith("#") and
              not l.startswith("energy "))
    # align-demo's correspondences are exact, so the closed-form fit
    # recovers the transform to rounding (1.3e-16 m and 0 rad at seed 2);
    # rotation_angle's arccos floor is about 2e-8 rad. The alignment unit
    # tests cover accuracy in detail.
    assert float(kv["trans_error"]) < 1e-12
    assert float(kv["rot_error"]) < 1e-7
    assert float(kv["final_energy"]) >= 0.0


# --- error handling ---------------------------------------------------------


def test_missing_dataset_errors_to_stderr(tmp_path, capsys):
    rc = main(["localize-mag", str(tmp_path / "nope.txt"),
               "--out", str(tmp_path / "o.txt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_bad_config_errors_to_stderr(tmp_path, capsys):
    # The error names the file, line and key, unquoted, on one line.
    path = tmp_path / "bad.cfg"
    for line, message in [
        ("sim.antigravity = on", "unknown config key: sim.antigravity"),
        ("train.hidden_size = 8.5", "train.hidden_size: expected int, got '8.5'"),
        ("sim.duration = fast", "sim.duration: expected float, got 'fast'"),
        ("sim.jitter_tau = 0", "unknown config key: sim.jitter_tau"),
    ]:
        path.write_text("seed = 4\n" + line + "\n")
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "d")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {path}:2: {message}\n"


def test_bad_training_config_errors_to_stderr(tmp_path, capsys):
    data = tmp_path / "data"
    main(["simulate", "--config", fast_cfg(tmp_path), "--seed", "1", "--out", str(data)])
    capsys.readouterr()
    for line, message in [
        ("train.hidden_size = 0", "hidden_size must be >= 1"),
        ("train.validation_fraction = 1.0", "validation_fraction must be in (0, 1)"),
        ("train.learning_rate = nan", "learning_rate must be finite, got nan"),
        ("train.dropout_rate = -inf", "dropout_rate must be finite, got -inf"),
    ]:
        rc = main(["train", "--config", fast_cfg(tmp_path, line + "\n"),
                   str(data / "dataset_seed1.txt"), "--out", str(tmp_path / "m.ckpt")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "m.ckpt").exists()


def test_bad_simulation_config_errors_to_stderr(tmp_path, capsys):
    # Each value parses, but SimConfig or DipoleParams refuses it, naming
    # the field, before any dataset is written. A duration that holds no
    # visual frame (0.02 s at 25 Hz holds one magnetic frame, 0.001 s none)
    # is refused too, and one whose frames cannot be allocated is a
    # MemoryError, reported as an error line.
    no_frame = ("duration {} s holds no frame at vis_rate 25.0 Hz: "
                "duration * vis_rate must round to >= 1")
    for line, message in [
        ("sim.duration = inf", re.escape("duration must be finite, got inf")),
        ("sim.duration = nan", re.escape("duration must be finite, got nan")),
        ("sim.moment_magnitude = nan", re.escape("moment_magnitude must be finite, got nan")),
        ("sim.mag_noise_sd = -1e-7", re.escape("mag_noise_sd must be >= 0, got -1e-07")),
        ("sim.duration = 0.001", re.escape(no_frame.format(0.001))),
        ("sim.duration = 0.02", re.escape(no_frame.format(0.02))),
        ("sim.duration = 1e12", "Unable to allocate .+"),
        ("sim.mag_rate = 25", re.escape("mag_rate 25.0 Hz must be at least twice vis_rate 25.0 Hz: "
                                        "the ground truth ends one magnetic period before the "
                                        "last visual frame")),
    ]:
        rc = main(["simulate", "--config", fast_cfg(tmp_path, line + "\n"),
                   "--out", str(tmp_path / "d")])
        assert rc == 1
        assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)
    assert not list((tmp_path / "d").iterdir())
    # The shortest duration allowed writes one visual record.
    rc = main(["simulate", "--config", fast_cfg(tmp_path, "sim.duration = 0.04\n"),
               "--seed", "3", "--out", str(tmp_path / "d")])
    assert rc == 0
    ds = simkit.read_dataset(tmp_path / "d" / "dataset_seed3.txt")
    assert (len(ds.mag), len(ds.vis)) == (2, 1)


def test_bad_checkpoint_errors(tmp_path, capsys):
    cfg = fast_cfg(tmp_path)
    data = tmp_path / "data"
    main(["simulate", "--config", cfg, "--seed", "1", "--out", str(data)])
    bogus = tmp_path / "bogus.ckpt"
    bogus.write_text("# some-other-format v9\n")
    rc = main(["evaluate", "--config", cfg, str(data / "dataset_seed1.txt"),
               "--checkpoint", str(bogus), "--out", str(tmp_path / "r.txt")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def _untrained_checkpoint(path):
    net = fusenet.init_network(4, np.random.default_rng(0))
    ones = np.ones(6)
    stats = fusenet.NormStats(np.zeros(5), np.ones(5), 0 * ones, ones, 0 * ones, ones)
    ckpt = fusenet.Checkpoint(net, 2, Hyperparams(hidden_size=4), stats, 1.0)
    fusenet.save_checkpoint(path, ckpt)


def _edit_lines(path, edit):
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")


def _set_word(line, k, word):
    words = line.split()
    words[k] = word
    return " ".join(words)


def test_malformed_checkpoint_line_errors_to_stderr(tmp_path, capsys):
    # The checkpoint is refused before any dataset is localized, by one
    # error line naming its path and line.
    cfg = fast_cfg(tmp_path)
    data = tmp_path / "data"
    main(["simulate", "--config", cfg, "--seed", "1", "--out", str(data)])
    path = tmp_path / "model.ckpt"
    v3_settings = ["# capsloc-checkpoint v3",
                   "HP learning_rate=0.001 dropout_rate=0.25 hidden_size=4",
                   "META rate_ratio=2 beta_loss=1.0"]
    for edit, message in [
        (lambda ls: ls[:1] + ["HP"] + ls[2:], "2: unknown checkpoint record 'HP'"),
        (lambda ls: v3_settings + ls[1:],
         "1: expected a '# capsloc-checkpoint v4' header, got '# capsloc-checkpoint v3'"),
        (lambda ls: ls[:1] + [_set_word(ls[1], 3, "nan")] + ls[2:],
         "2: W record 'core.W' has a non-finite value"),
        (lambda ls: [_set_word(l, 3, "0.0") if l.startswith("W stats.vis_sd ") else l for l in ls],
         "11: W record 'stats.vis_sd' has an sd <= 0"),
    ]:
        _untrained_checkpoint(path)
        _edit_lines(path, edit)
        capsys.readouterr()
        rc = main(["evaluate", "--config", cfg, str(data / "dataset_seed1.txt"),
                   "--checkpoint", str(path), "--out", str(tmp_path / "r.txt")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {path}:{message}\n"
    assert not (tmp_path / "r.txt").exists()


def test_bad_dataset_header_errors_to_stderr(tmp_path, capsys):
    # Line 1 must be the header: one that follows the records is refused,
    # and so is v10, whose name starts with v1's.
    cfg = fast_cfg(tmp_path)
    main(["simulate", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "data")])
    path = tmp_path / "data" / "dataset_seed1.txt"
    text = path.read_text()
    header = "1: expected a '# capsloc-dataset v1' header, got "
    for edit, message in [
        (lambda ls: ls[1:] + ls[:1], header + repr(" ".join(text.splitlines()[1].split()[:3]))),
        (lambda ls: [ls[0].replace("v1", "v10", 1)] + ls[1:], header + "'# capsloc-dataset v10'"),
    ]:
        path.write_text(text)
        _edit_lines(path, edit)
        capsys.readouterr()
        rc = main(["localize-mag", "--config", cfg, str(path), "--out", str(tmp_path / "m.txt")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {path}:{message}\n"
    assert not (tmp_path / "m.txt").exists()


def test_evaluate_refuses_a_dataset_of_another_rate_ratio(tmp_path, capsys):
    # Aligned at ratio 2, this ratio-3 stream keeps one fused step of its 50
    # visual frames, at 2.0 s, past the ground truth's end at 1.987 s.
    cfg = fast_cfg(tmp_path, "sim.mag_rate = 75\n")
    main(["simulate", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "data")])
    dataset = tmp_path / "data" / "dataset_seed1.txt"
    ckpt = tmp_path / "model.ckpt"
    _untrained_checkpoint(ckpt)
    capsys.readouterr()
    rc = main(["evaluate", "--config", cfg, str(dataset), "--checkpoint", str(ckpt),
               "--out", str(tmp_path / "r.txt")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {dataset}: rate ratio 3 differs from the checkpoint's 2\n"
    assert not (tmp_path / "r.txt").exists()


def _gt_only_dataset(tmp_path, cfg):
    """A simulated dataset with its MAG and VIS records removed."""
    main(["simulate", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "data")])
    path = tmp_path / "data" / "dataset_seed1.txt"
    _edit_lines(path, lambda ls: [l for l in ls if not l.startswith(("MAG ", "VIS "))])
    return path


def test_train_names_the_dataset_it_cannot_align(tmp_path, capsys):
    cfg = fast_cfg(tmp_path)
    dataset = _gt_only_dataset(tmp_path, cfg)
    capsys.readouterr()
    rc = main(["train", "--config", cfg, str(dataset), "--out", str(tmp_path / "m.ckpt")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {dataset}: need a magnetic frame and at least two visual frames\n")
    assert not (tmp_path / "m.ckpt").exists()


def test_evaluate_names_the_dataset_it_cannot_score(tmp_path, capsys):
    cfg = fast_cfg(tmp_path)
    dataset = _gt_only_dataset(tmp_path, cfg)
    ckpt = tmp_path / "model.ckpt"
    _untrained_checkpoint(ckpt)
    capsys.readouterr()
    rc = main(["evaluate", "--config", cfg, str(dataset), "--checkpoint", str(ckpt),
               "--out", str(tmp_path / "r.txt")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {dataset}: empty visual stream\n"
    assert not (tmp_path / "r.txt").exists()


def test_header_only_dataset_is_named(tmp_path, capsys):
    cfg = fast_cfg(tmp_path)
    main(["simulate", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "data")])
    path = tmp_path / "data" / "dataset_seed1.txt"
    _edit_lines(path, lambda ls: ls[:1])
    capsys.readouterr()
    rc = main(["localize-mag", "--config", cfg, str(path), "--out", str(tmp_path / "m.txt")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {path}: dataset has no GT record\n"
    assert not (tmp_path / "m.txt").exists()


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# --- scripts ----------------------------------------------------------------

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script", ["run_benchmark.py", "run_magnetic_diagnostics.py"])
def test_script_help_runs_from_any_directory(script, tmp_path):
    # Without PYTHONPATH the script must find the package on its own.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--help"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.slow
def test_fixed_seed_outputs_repeat_from_any_directory(tmp_path):
    # Byte-identity checks rest on this script: two runs, from a directory
    # outside the repository and without PYTHONPATH, hash the same files
    # to the same digests, and stdout holds nothing but those hash lines and
    # one hash per checkpoint as loaded, so that two runs into different
    # directories diff equal.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    listings = []
    for run in ("a", "b"):
        result = subprocess.run(
            [sys.executable, str(SCRIPTS / "fixed_seed_outputs.py"), str(tmp_path / run)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        hashed = result.stdout.splitlines()
        assert len(hashed) == 20
        assert [line[66:] for line in hashed[18:]] == ["model.ckpt (loaded)", "paper.ckpt (loaded)"]
        assert all(re.fullmatch(r"[0-9a-f]{64}  \S.*", line) for line in hashed), hashed
        listings.append(hashed)
    assert listings[0] == listings[1]
