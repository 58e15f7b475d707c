#!/usr/bin/env python3
"""Benchmark of expanderlp: certify, order bounds and the cubic-10 scan.

    python3 benchmarks/run.py --workload catalog --seed 1 --seconds 15 --trace 0

Run from a checkout of the repository; the program is imported from its
src/ directory.  The run sets up SETUP_REPS times (import plus inputs),
then runs whole passes of the workload's operations until --seconds of
measured time is used, checks every output, and prints as its last line one
JSON object: correct, attempted, failed and the metrics.  --trace 0 gives
the end-to-end metrics, --trace 1 the per-layer metrics from spans
(benchmarks/tracing.py).  A fuller record of the run is written to
benchmarks/out/.
"""

from __future__ import annotations

import os

# Pin the BLAS thread count before numpy is imported: one thread (never
# more than nproc), so runs do not depend on how many cores are free.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPS = 9  # set-ups per run; setup_s is their median
# Every run makes at least MIN_PASSES passes; peak_rss_mb is read after
# pass MIN_PASSES, so it does not depend on how many passes fit in the run.
MIN_PASSES = 3


def import_program() -> dict:
    """A fresh import of expanderlp and its CLI, as a new process would do it."""
    for name in [m for m in sys.modules if m == "expanderlp" or m.startswith("expanderlp.")]:
        del sys.modules[name]
    for name in ("expanderlp", "expanderlp.cli", "expanderlp.enumeration"):
        importlib.import_module(name)
    return sys.modules


def execute(op):
    """Run one operation; an exception escaping the program becomes a failed outcome."""
    try:
        return op.call()
    except SystemExit as exc:
        return Outcome(exc.code if isinstance(exc.code, int) else 1, "", f"SystemExit: {exc.code}")
    except Exception:
        return Outcome(-1, "", traceback.format_exc())


def layer_metric(tracer, metric: str, setups: list, passes: list):
    """Median over set-ups plus median over passes of one span figure.

    X.self_ms is span X's self time; X.exact_ms and X.float_ms that of its
    exact and float calls; X.calls counts calls, X.yielded items yielded.
    """
    base, _, field = metric.rpartition(".")
    if field == "yielded":
        names, index, scale = [metric], 1, 1
    elif field == "calls":
        names, index, scale = [base, base + ".exact", base + ".float"], 1, 1
    elif field in ("exact_ms", "float_ms"):
        names, index, scale = [f"{base}.{field[:-3]}"], 0, 1000.0
    else:
        names, index, scale = [base], 0, 1000.0

    def per_phase(phase) -> float:
        totals = tracer.totals(phase)
        return sum(totals[n][index] for n in names if n in totals) * scale

    value = statistics.median(per_phase(p) for p in setups) + statistics.median(per_phase(p) for p in passes)
    return int(value) if index == 1 else value


def run_setups(workload, tracer) -> list[float]:
    times = []
    for rep in range(SETUP_REPS):
        gc.collect()  # each set-up starts from a collected heap, not the last one's garbage
        if tracer:
            tracer.set_phase(("setup", rep), keep=rep == SETUP_REPS - 1)
        start = time.perf_counter()
        modules = import_program()
        if tracer:
            tracer.install(modules)
        workload.setup(modules)
        times.append(time.perf_counter() - start)
    if tracer:
        tracer.set_phase(None)
    gc.collect()
    return times


def run_passes(workload, tracer, seconds: float) -> dict:
    """Whole passes until the measured time would pass `seconds`; every output checked."""
    stats = {"pass_times_s": [], "op_medians_s": [], "per_op_s": {},
             "attempted": 0, "failed": 0, "problems": [], "peak_rss_mb": None}
    pass_times = stats["pass_times_s"]
    while True:
        ops = workload.operations()
        if tracer:
            tracer.set_phase(("pass", len(pass_times)), keep=not pass_times)
        results = []
        pass_start = time.perf_counter()
        for op in ops:
            start = time.perf_counter()
            outcome = execute(op)
            results.append((op, outcome, time.perf_counter() - start))
        pass_times.append(time.perf_counter() - pass_start)
        if tracer:
            tracer.set_phase(None)
        stats["op_medians_s"].append(statistics.median(dt for _, _, dt in results))
        for op, outcome, dt in results:
            stats["per_op_s"].setdefault(op.key, []).append(dt)
            stats["attempted"] += 1
            try:
                stats["failed"] += bool(op.check(outcome))
            except Exception as exc:  # a wrong or malformed output fails the run, not the benchmark
                stats["failed"] += 1
                stats["problems"].append(f"{op.key}: {type(exc).__name__}: {exc}")
        if len(pass_times) == MIN_PASSES:
            stats["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if len(pass_times) >= MIN_PASSES and sum(pass_times) + statistics.median(pass_times) > seconds:
            return stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/expanderlp/__init__.py", "scripts/scan_cubic10.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: run from a checkout of expanderlp; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # loaded before timing: set-up measures expanderlp, not numpy

    out_dir = HERE / "out"
    workdir = out_dir / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.prepare()
        setup_times = run_setups(workload, tracer)
        stats = run_passes(workload, tracer, args.seconds)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {
        "job_s": (statistics.median(stats["pass_times_s"]), "s"),
        "op_p50_ms": (statistics.median(stats["op_medians_s"]) * 1000.0, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (stats["peak_rss_mb"], "MB"),
    }
    per_layer = {}
    if tracer:
        setups = [("setup", r) for r in range(SETUP_REPS)]
        passes = [("pass", p) for p in range(len(stats["pass_times_s"]))]
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        per_layer = {m["name"]: (layer_metric(tracer, m["name"], setups, passes), m["unit"]) for m in declared}
        tracer.write(out_dir / f"{args.workload}.trace.jsonl.gz")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "setup_times_s": setup_times,
        **{k: v for k, v in stats.items() if k != "per_op_s"},
        "op_median_ms": {k: statistics.median(v) * 1000.0 for k, v in stats["per_op_s"].items()},
        "end_to_end": {k: v for k, (v, _) in metrics.items()},
        "per_layer": {k: v for k, (v, _) in per_layer.items()},
        **workload.summary(),
    }
    (out_dir / f"{args.workload}.trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    for problem in stats["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"# workload {args.workload} seed {args.seed}: {len(stats['pass_times_s'])} passes, "
          f"blas threads {BLAS_THREADS}, record in {out_dir.relative_to(ROOT)}")
    chosen = per_layer if tracer else metrics
    print(json.dumps({
        "correct": not stats["problems"],
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
