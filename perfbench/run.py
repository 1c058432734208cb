#!/usr/bin/env python3
"""capsloc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload mag-stream --seed 1 --seconds 30 --trace 0

Run from the repository root; the program under test is imported from
`src/`. Set-up (input simulation, plus localization and alignment on
fusion-train-paper) runs three times and `setup_s` is its median. The
timed phase then repeats the workload's pass, the same work on the same
inputs each time, until the next pass would end past `--seconds` (at
least one pass).

`run_s` is the median pass. On a shared host the time of identical work
spreads widely from one repetition to the next (a 0.35 s localization
took 0.21 to 0.52 s within five minutes on 2 vCPUs), and the median over
a run's repetitions was steadier from run to run than the fastest one.
Per-layer times come from the fastest traced episode, so that each
breakdown is one whole episode with the least interference; a magnetic
frame's service time is its fastest over the repetitions.

`--trace 0` prints every end-to-end metric. `--trace 1` records spans
around each call into a capsloc layer, prints every per-layer metric, each
layer's self time in the fastest traced pass and the tracing overhead
(median traced minus median untraced pass; half of `--seconds` goes to
traced passes, then half to untraced ones).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The lines before it give
the environment, sample counts and failed_frac; the same record, with the
spans of a traced run, is written under `.perfbench_out/`.
"""

import os

# One process with one caller: pin BLAS to one thread before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import uuid  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("mag-stream", "fusion-train-paper", "pipeline-desk")
SETUP_REPEATS = 3
LAYERS = ("bench", "simkit", "magloc", "fusenet", "evalbench")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def blas_info(np) -> dict:
    info = {"blas_threads_requested": BLAS_THREADS}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def source_commit():
    """The git commit when run inside a clone, else None."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """sha256 over src/**/*.py, identifying the code measured even where
    the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def environment(np) -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": source_commit(),
        "source_sha256": source_digest(),
    }
    env.update(blas_info(np))
    return env


def run_pass(wl, state, tracer):
    """One pass of the timed phase. An exception is one failed operation;
    the run goes on so the remaining passes are still measured."""
    try:
        if tracer is None:
            wl.run_pass(state)
        else:
            with tracer.span("bench.pass"):
                wl.run_pass(state)
    except Exception:
        traceback.print_exc()
        wl.check(False, "pass raised")


def timed_phase(wl, state, budget, tracer):
    """Repeat passes until the next one would end past `budget` seconds."""
    times = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run_pass(wl, state, tracer)
        times.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(times) > budget:
            return times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "capsloc", "__init__.py")):
        print(f"error: no capsloc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import numpy as np
    from tracing import Tracer
    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    run_id = uuid.uuid4().hex
    env = environment(np)
    print("env " + json.dumps(env, sort_keys=True))

    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    tracer = Tracer(run_id) if args.trace else None
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.tracer = tracer
        setup_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            if tracer is None:
                state = wl.setup()
            else:
                with tracer.span("bench.setup"):
                    state = wl.setup()
            setup_s.append(time.perf_counter() - t0)

        if tracer is None:
            pass_s = timed_phase(wl, state, args.seconds, None)
            values = {
                "setup_s": (statistics.median(setup_s), "s"),
                "run_s": (statistics.median(pass_s), "s"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"
                ),
            }
        else:
            traced_s = timed_phase(wl, state, args.seconds / 2, tracer)
            values = wl.per_layer(tracer)
            passes = tracer.episodes("pass")
            self_s = tracer.self_times(passes[traced_s.index(min(traced_s))])
            wl.tracer = None
            pass_s = timed_phase(wl, state, args.seconds / 2, None)
            for layer in LAYERS:
                values[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
            values["trace_overhead_s"] = (
                statistics.median(traced_s) - statistics.median(pass_s), "s"
            )
            values["failed_frac"] = (wl.failed / max(wl.attempted, 1), "fraction")
            for layer in LAYERS:
                print(f"self time {layer:10s} {self_s.get(layer, 0.0):10.4f} s "
                      "in the fastest traced pass")
            print(f"tracing overhead {values['trace_overhead_s'][0]:+.4f} s per pass "
                  f"(traced {len(traced_s)}, untraced {len(pass_s)} passes)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    frames = sum(len(r.service_ms) for r in wl.streams.values())
    print(f"workload {args.workload} seed {args.seed}: {len(setup_s)} set-ups, "
          f"{len(pass_s)} passes; frame percentiles over {frames} distinct frames")
    print(f"failed_frac {wl.failed / max(wl.attempted, 1):.6g} "
          f"({wl.failed} of {wl.attempted} operations)")
    metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}
    for k, m in metrics.items():
        print(f"  {k:40s} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": metrics,
    }
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as f:
        json.dump({"run_id": run_id, "env": env, "setup_s": setup_s,
                   "pass_s": pass_s, **result}, f, indent=1)
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
