"""Golden outputs of the seed-0 bench configs: run, fingerprint and re-record.

    PYTHONPATH=src python tests/golden/record.py            # re-record manifest.json
    PYTHONPATH=src python tests/golden/record.py --configs  # rewrite the configs first

The configs under ``green/`` and ``dynamics/`` are the CLI runs of the two
perfbench batches at seed 0, written once by ``--configs`` from
``perfbench/workloads.py``; the tests read only the committed files.
``manifest.json`` holds each run's exit status, the sha256 of its CSV and
summary, its PASS/FAIL lines, and the fingerprint of the environment that
recorded them.  A re-record prints each new run, and for each moved run
which of its status, CSV, summary and verdicts moved.  Every re-record
names the files whose bytes moved, and why, in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "manifest.json")
WORKLOADS = ("green", "dynamics")


def config_ids() -> list:
    """``<workload>/<run>`` of every committed config, in a fixed order."""
    return [f"{workload}/{name[:-4]}" for workload in WORKLOADS
            for name in sorted(os.listdir(os.path.join(HERE, workload)))
            if name.endswith(".cfg")]


def fingerprint() -> dict:
    """What the bytes of a run may depend on besides the package: numpy, its
    BLAS and the CPU features numpy dispatches to.

    The BLAS thread count is left out: every CLI run of both bench batches,
    seeds 0-2, writes the same bytes with OpenBLAS at one and at two threads.
    """
    try:
        config = np.show_config(mode="dicts")
    except TypeError:                         # numpy < 1.26: no structured config
        return {"numpy": np.__version__}
    blas = config["Build Dependencies"]["blas"]
    simd = config.get("SIMD Extensions", {})
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "cpu_features": sorted(simd.get("baseline", []) + simd.get("found", []))}


def verdicts(summary: bytes) -> list:
    """The PASS/FAIL lines of a summary as ``<check> <status>``."""
    out = []
    for line in summary.decode("utf-8").splitlines():
        words = line.split()
        if words and words[-1] in ("PASS", "FAIL"):
            out.append(f"{words[0].rstrip(':')} {words[-1]}")
    return out


def run(config_id: str, out_dir: str) -> dict:
    """Run one committed config through ``cli.main`` into ``out_dir``."""
    from markovlab import cli

    cfg = os.path.join(HERE, config_id + ".cfg")
    with open(cfg, encoding="utf-8") as fh:
        out = dict(line.split(" = ", 1) for line in fh.read().splitlines())["out"]
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(["--config", cfg, "--out", out_dir])
    csv_path = os.path.join(out_dir, out)
    with open(csv_path, "rb") as fh:
        csv = fh.read()
    with open(os.path.splitext(csv_path)[0] + ".summary.txt", "rb") as fh:
        summary = fh.read()
    return {"status": status, "csv": hashlib.sha256(csv).hexdigest(),
            "summary": hashlib.sha256(summary).hexdigest(), "verdicts": verdicts(summary)}


def write_configs() -> None:
    """Replace the committed configs by the seed-0 CLI runs of both batches."""
    root = os.path.dirname(os.path.dirname(HERE))
    sys.path.insert(0, root)
    import markovlab
    from perfbench.workloads import DEFAULT_SEED, build_batch

    for workload in WORKLOADS:
        folder = os.path.join(HERE, workload)
        os.makedirs(folder, exist_ok=True)
        for name in os.listdir(folder):
            if name.endswith(".cfg"):
                os.unlink(os.path.join(folder, name))
        for entry in build_batch(workload, DEFAULT_SEED, markovlab):
            if entry.config is not None:
                with open(os.path.join(folder, entry.name + ".cfg"), "w",
                          encoding="utf-8") as fh:
                    fh.write(entry.config)


def main(argv=None) -> int:
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--configs", action="store_true",
                        help="rewrite the configs from perfbench/workloads.py first")
    args = parser.parse_args(argv)
    if args.configs:
        write_configs()
    old = {}
    if os.path.exists(MANIFEST):
        with open(MANIFEST, encoding="utf-8") as fh:
            old = json.load(fh)["runs"]
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for config_id in config_ids():
            runs[config_id] = run(config_id, os.path.join(tmp, config_id))
    for config_id, entry in runs.items():
        if config_id not in old:
            print(f"new: {config_id}")
        elif old[config_id] != entry:
            moved = [k for k in ("status", "csv", "summary", "verdicts")
                     if old[config_id].get(k) != entry[k]]
            print(f"moved: {config_id} ({', '.join(moved)})")
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump({"fingerprint": fingerprint(), "runs": runs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
