"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the package's own test run; they
start benchmark processes and take about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from worker import ROOT, SRC, Runner, end_to_end  # noqa: E402

sys.path.insert(0, SRC)
import markovlab  # noqa: E402
import markovlab.cli  # noqa: E402,F401
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, build_batch  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
WORK = os.path.join(ROOT, ".perfbench", "selftest")


def bench(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def result(workload, seed, trace):
    done = bench(workload, seed, trace)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().rsplit("\n", 1)[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload):
    out = result(workload, 1, 0)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", ["green", "dynamics"])
def test_every_per_layer_metric_is_emitted_with_its_unit(workload):
    out = result(workload, 1, 1)
    assert out["correct"]
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected


def test_another_seed_changes_inputs_but_not_names():
    for workload in WORKLOADS:
        one = build_batch(workload, 1, markovlab, tiny=True)
        two = build_batch(workload, 2, markovlab, tiny=True)
        assert [r.name for r in one] == [r.name for r in two]
        assert [r.config for r in one] != [r.config for r in two]
        assert [r.config for r in one] == [r.config for r in
                                          build_batch(workload, 1, markovlab, tiny=True)]
    names = lambda out: sorted(out["metrics"])
    assert names(result("green", 1, 0)) == names(result("green", 2, 0))


def _corrupting_runner(batch, victim, corrupt):
    runner = Runner(markovlab, batch, WORK)
    execute = runner._execute

    def patched(run, outcome):
        execute(run, outcome)
        if run.name == victim:
            corrupt(runner, run, outcome)
    runner._execute = patched
    return runner


def test_corrupted_csv_is_counted_in_fail_frac():
    batch = build_batch("green", 1, markovlab, tiny=True)
    victim = batch[0].name

    def corrupt(runner, run, outcome):
        path = os.path.join(runner.work_dir, run.csv_name)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        cells = lines[5].split(",")
        cells[1] = repr(float(cells[1]) + 1e-2)   # re g1 at one time, off by 1e-2
        lines[5] = ",".join(cells)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))

    runner = _corrupting_runner(batch, victim, corrupt)
    metrics, record = end_to_end(runner.loop(0.0))
    runner.close()
    assert record["fail_frac"] == pytest.approx(1 / len(batch))
    assert runner.problems and runner.problems[0].startswith(victim)


def test_corrupted_api_result_is_counted_in_fail_frac():
    batch = build_batch("dynamics", 1, markovlab, tiny=True)
    victim = next(r.name for r in batch if "maximally-mixed" in r.name)

    def corrupt(runner, run, outcome):
        outcome.result = type(outcome.result)(max_defect=1e-3, unitarity_defect=0.0)

    runner = _corrupting_runner(batch, victim, corrupt)
    _, record = end_to_end(runner.loop(0.0))
    runner.close()
    assert record["fail_frac"] == pytest.approx(1 / len(batch))


def _traced(workload, seed):
    runner = Runner(markovlab, build_batch(workload, seed, markovlab, tiny=True), WORK)
    tracer = Tracer()
    tracer.install()
    try:
        runner.tracer = tracer
        out = runner.loop(0.0)
    finally:
        tracer.uninstall()
        runner.close()
    assert out["failed"] == 0, runner.problems
    return tracer


def test_spans_nest_with_valid_parent_ids():
    original = markovlab.linalg.partial_trace_env
    tracer = _traced("dynamics", 1)
    assert markovlab.dynamics.partial_trace_env is original   # uninstall restored it
    spans = tracer.spans()
    assert len(spans) > 100
    for sid, parent, name, start, end in spans:
        assert start <= end
        if parent < 0:
            assert name == "run"
            continue
        assert parent < sid
        _, _, _, p_start, p_end = spans[parent]
        assert p_start <= start and end <= p_end
    totals = tracer.layer_totals()
    assert totals["calls"]["linalg.partial_trace"] > 0
    assert totals["calls"]["dynamics.Propagator.init"] > 0
    for name, busy in totals["busy_ns"].items():
        assert 0 <= totals["self_ns"][name] <= busy


def test_call_counts_repeat_exactly():
    for workload in WORKLOADS:
        one, two = _traced(workload, 3), _traced(workload, 3)
        assert one.layer_totals()["calls"] == two.layer_totals()["calls"]
        assert one.counters["spectral.kernel_on_grid.lags"] == \
            two.counters["spectral.kernel_on_grid.lags"]


def test_fails_without_the_program_sources():
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("green", 1, 0, cwd=bare)
    assert done.returncode != 0
    assert done.stdout == ""
