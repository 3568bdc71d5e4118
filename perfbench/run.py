"""markovlab benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: green and dynamics (see README.md in this directory).  Each run starts fresh interpreters with
BLAS pinned to one thread through their environment only: a few that stop
after set-up (the set-up time is their median together with the measuring
process) and one that then drives the workload's batch in a closed loop
for ``--seconds``.  With ``--trace 0`` the last line holds the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of a traced pass.  The
line before it is the full run record (environment, quartiles, repeat
counts, failure share).  The exit status is non-zero, and no result is
printed, when the markovlab sources are missing or a process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

#: Set-up samples per run, the measuring process included.
SETUP_SAMPLES = 3
#: Hard limit of one run, below the 180 s a run may take.
DEADLINE_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("green", "dynamics"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every size; for the self-tests only")
    return parser.parse_args(argv)


def worker(args, deadline: float, setup_only: bool) -> dict:
    """Run one workload process; return its JSON result."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ, **PINNED)
    t_spawn = time.monotonic()
    # subprocess.run kills and reaps the process if it overruns the deadline
    done = subprocess.run(cmd + ["--t-spawn", repr(t_spawn)], env=env, cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - t_spawn))
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"workload process exited with status {done.returncode}")
    return json.loads(done.stdout.strip().rsplit("\n", 1)[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "markovlab", "__init__.py")):
        print("error: markovlab sources not found under src/", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [worker(args, deadline, setup_only=True)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        result = worker(args, deadline, setup_only=False)
    except subprocess.TimeoutExpired:
        print("error: workload process overran the deadline", file=sys.stderr)
        return 3
    setups.append(result["setup_s"])
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    record = result["record"]
    record["setup_s"] = {"repeats": len(setups), "values": setups,
                         "quartiles": statistics.quantiles(setups, n=4)}
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
