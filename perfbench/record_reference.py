"""Record the reference values of the green workload for the default seed.

    python3 perfbench/record_reference.py

Runs the green batch once at the default seed and writes the
sampled g1 values of its tabulated and finite-cut runs to reference.json,
which later runs at that seed must match within ``REFERENCE_TOL``.  Run
it only when a change is meant to alter those results, and say why.
"""

import json
import os
import sys

from worker import HERE, ROOT, SRC, Runner

sys.path.insert(0, SRC)
import markovlab  # noqa: E402
import markovlab.cli  # noqa: E402,F401
from workloads import DEFAULT_SEED, Recorder, build_batch  # noqa: E402


def main() -> int:
    recorder = Recorder()
    batch = build_batch("green", DEFAULT_SEED, markovlab, recorder)
    runner = Runner(markovlab, batch, os.path.join(ROOT, ".perfbench", "reference"))
    runner.loop(0.0)
    runner.close()
    if runner.problems:
        print("\n".join(runner.problems), file=sys.stderr)
        return 1
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}"
                                     for k, v in sorted(recorder.items())) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
