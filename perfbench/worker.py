"""One workload process: set up, run the batch in a closed loop, report.

Started by ``run.py`` with BLAS pinned to one thread in its environment.
With ``--setup-only`` it stops once the first run could be timed and
reports only its set-up time.  Otherwise it prints one JSON line with the
workload's metrics and its run record.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings

import numpy as np
import scipy

from spans import COUNTERS, MODULES, Tracer, per_layer_metrics
from workloads import DEFAULT_SEED, Outcome, build_batch, write_configs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "markovlab")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t-spawn", type=float, required=True,
                        help="time.monotonic() of the parent just before it started us")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="shrink every size (self-tests)")
    return parser.parse_args(argv)


# ------------------------------------------------------------ environment


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    out = {}
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for name in names:
            fn = getattr(dll, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(lib)] = fn()
                break
    return out


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def source_lines() -> dict:
    """Non-blank, non-comment lines per module and in the whole package."""
    counts = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                counts[name[:-3]] = sum(1 for line in fh
                                        if line.strip() and not line.lstrip().startswith("#"))
    return counts


# ---------------------------------------------------------------- running


class Runner:
    """Executes runs of a batch and checks each one outside the timed region."""

    def __init__(self, ml, batch, work_dir, tracer=None):
        self.ml = ml
        self.batch = batch
        self.work_dir = work_dir
        self.config_paths = write_configs(batch, work_dir)
        self.tracer = tracer
        self.devnull = open(os.devnull, "w", encoding="utf-8")
        self.problems: list[str] = []

    def close(self):
        self.devnull.close()

    def _execute(self, run, outcome):
        if run.config is None:
            outcome.result = run.call(self.ml)
            return
        with contextlib.redirect_stdout(self.devnull):
            outcome.status = self.ml.cli.main(
                ["--config", self.config_paths[run.name], "--out", self.work_dir])

    def one(self, run) -> tuple[float, bool]:
        """Run once; return (seconds, passed)."""
        outcome = Outcome()
        tracer = self.tracer
        error = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            root = tracer.begin("run") if tracer else None
            start = time.perf_counter()
            try:
                self._execute(run, outcome)
            except Exception:  # a raising run is a failed run, not a crash
                error = traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.end(root)
                tracer.active = False
        step_warnings = [w for w in caught if issubclass(w.category, self.ml.StepSizeWarning)]
        if error is not None:
            problems = [error]
        else:
            if run.config is not None:
                outcome.csv_path = os.path.join(self.work_dir, run.csv_name)
                outcome.summary_path = os.path.splitext(outcome.csv_path)[0] + ".summary.txt"
            problems = run.check(outcome)
        if step_warnings:
            problems.append(f"{len(step_warnings)} StepSizeWarning(s)")
        if tracer:
            tracer.counters["spectral.step_size_warnings"] += len(step_warnings)
            if outcome.csv_path and os.path.exists(outcome.csv_path):
                tracer.counters["scenarios.csv_bytes"] += os.path.getsize(outcome.csv_path)
            tracer.active = True
        if problems:
            self.problems.append(f"{run.name}: " + "; ".join(problems))
        return elapsed, not problems

    def loop(self, seconds: float) -> dict:
        """Closed loop over whole passes of the batch for about ``seconds``.

        A new pass starts while at least half a pass of time is left, so the
        loop ends within half a pass of ``seconds``; there is always one pass.
        """
        latencies, pass_rates, failed = [], [], 0
        if self.tracer:
            self.tracer.active = True
        start = time.monotonic()
        while (not pass_rates or
               (time.monotonic() - start) * (1 + 0.5 / len(pass_rates)) < seconds):
            busy = 0.0
            for run in self.batch:
                elapsed, ok = self.one(run)
                latencies.append(elapsed)
                busy += elapsed
                failed += not ok
            pass_rates.append(len(self.batch) / busy)
        if self.tracer:
            self.tracer.active = False
        return {"latencies": latencies, "pass_rates": pass_rates, "failed": failed,
                "passes": len(pass_rates), "wall_s": time.monotonic() - start}


# ---------------------------------------------------------------- metrics


def quartiles(values) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def tail(latencies) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile).

    With fewer than 11 samples no such percentile exists; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(result: dict) -> tuple[dict, dict]:
    """The untraced metrics and the record entries that explain them."""
    lat = result["latencies"]
    ms = [x * 1e3 for x in lat]
    tail_ms, tail_pct = tail(ms)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "runs_per_s": (statistics.median(result["pass_rates"]), "1/s"),
        "run_ms_p50": (statistics.median(ms), "ms"),
        "run_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    record = {
        "runs_per_s": {"repeats": result["passes"], "quartiles": quartiles(result["pass_rates"]),
                       "basis": "median over whole passes of runs / summed run time"},
        "run_ms_p50": {"samples": len(ms), "quartiles": quartiles(ms)},
        "run_ms_tail": {"samples": len(ms), "percentile": tail_pct},
        "peak_rss_mb": {"repeats": 1},
        "fail_frac": result["failed"] / len(lat),
        "wall_s": result["wall_s"],
    }
    return metrics, record


def per_layer(tracer, passes: int, overhead: float) -> dict:
    """Traced metrics, normalised to one pass of the batch."""
    totals = tracer.layer_totals()
    lines = source_lines()
    values = {"trace.overhead_frac": overhead,
              "src.lines": float(sum(lines.values()))}
    values.update({f"{m}.src_lines": float(lines.get(m, 0)) for m in MODULES})
    values.update({name: tracer.counters[name] / passes for name in COUNTERS})
    out = {}
    for name, unit in per_layer_metrics():
        if name not in values:
            layer, kind = name.rsplit(".", 1)
            if kind == "calls":
                values[name] = totals["calls"][layer] / passes
            elif kind == "ms":
                values[name] = totals["busy_ns"][layer] / 1e6 / passes
            else:
                values[name] = totals["self_ns"][layer] / 1e6 / passes
        out[name] = (values[name], unit)
    return out


# ------------------------------------------------------------------- main


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no markovlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import markovlab
    import markovlab.cli

    if os.path.dirname(os.path.abspath(markovlab.__file__)) != PACKAGE:
        print(f"error: imported markovlab from {markovlab.__file__}", file=sys.stderr)
        return 2
    reference = None
    if args.seed == DEFAULT_SEED and not args.tiny:
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            reference = json.load(fh)
    work_dir = os.path.join(ROOT, ".perfbench", args.workload)
    batch = build_batch(args.workload, args.seed, markovlab, reference, tiny=args.tiny)
    warm = Runner(markovlab, build_batch(args.workload, args.seed, markovlab, tiny=True),
                  os.path.join(work_dir, "warmup"))
    warm.loop(0.0)
    warm.close()
    runner = Runner(markovlab, batch, work_dir)
    setup_s = time.monotonic() - args.t_spawn
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    record = {"workload": args.workload, "env": environment(args.seed),
              "batch": [run.name for run in batch], "loop": "closed, one client"}
    if args.trace:
        # the untraced half gives the denominator of the tracing overhead
        half = args.seconds / 2.0
        plain = runner.loop(half)
        tracer = Tracer()
        tracer.install()
        runner.tracer = tracer
        traced = runner.loop(half)
        tracer.uninstall()
        overhead = 1.0 - (len(traced["latencies"]) / sum(traced["latencies"])) / (
            len(plain["latencies"]) / sum(plain["latencies"]))
        metrics = per_layer(tracer, traced["passes"], overhead)
        spans_path = os.path.join(ROOT, ".perfbench", f"{args.workload}.spans.csv")
        tracer.write(spans_path)
        record.update(spans=os.path.relpath(spans_path, ROOT), passes=traced["passes"],
                      spans_count=len(tracer.names))
        attempted = len(plain["latencies"]) + len(traced["latencies"])
        failed = plain["failed"] + traced["failed"]
    else:
        result = runner.loop(args.seconds)
        metrics, extra = end_to_end(result)
        record.update(extra)
        attempted, failed = len(result["latencies"]), result["failed"]
    runner.close()
    record["problems"] = runner.problems[:20]
    print(json.dumps({"setup_s": setup_s, "attempted": attempted, "failed": failed,
                      "metrics": metrics, "record": record}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
