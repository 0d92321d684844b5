"""Record the benchmark's end-to-end metrics of one source tree.

Run from the repository root:

    python3 tools/bench_record.py LABEL [--tree DIR]

Each of the four workloads in ``bench/`` runs once per seed 0, 1 and 2, as
``python3 bench/run.py --workload W --seed S --seconds 15 --trace 0`` in
the tree ``DIR`` (default: this repository).  ``BENCH_<LABEL>.json`` at
the root of this repository then holds, per workload, the median and the
interquartile range over the seeds of ``wall_s``, ``cpu_s``,
``peak_rss_mb`` and ``setup_s``, the attempted and failed call counts,
and the machine: CPU count, numpy and scipy versions, whether numba is
installed, and the tree's git revision with a ``dirty`` flag, true when
the tree has uncommitted changes.  Nothing is written inside the
measured tree beyond what ``bench/run.py`` itself creates and removes.

Every run has ``PYTHONPYCACHEPREFIX`` set to a fresh temporary directory,
removed afterwards, so no tree's own ``__pycache__`` is read or written
and every run starts from the same bytecode-cache state, whichever tree
it measures: a cache present on one side only moved ``peak_rss_mb`` by
about 1 MB on all four workloads.  A one-call run of the same workload
first writes the cache (``PYTHONDONTWRITEBYTECODE`` is dropped for both),
so the measured run reads bytecode for everything it imports.  Without
it, where ``PYTHONDONTWRITEBYTECODE`` is set, every interpreter of the
run would compile numpy and scipy from source: ``setup_s`` read 0.66 to
1.05 s and ``peak_rss_mb`` 98 to 103 MB that way.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("single_trajectory", "bandwidth_equivalence", "detuning_sweep", "oracle_continuum")
SEEDS = (0, 1, 2)
SECONDS = 15.0
METRICS = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")


def run_workload(tree: Path, workload: str, seed: int) -> dict:
    """The JSON object ``bench/run.py`` prints as its last stdout line."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--trace", "0", "--seconds"]
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        env = {**os.environ, "PYTHONPYCACHEPREFIX": cache}
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        subprocess.run(command + ["0"], cwd=tree, capture_output=True, env=env)
        done = subprocess.run(
            command + [str(SECONDS)], cwd=tree, capture_output=True, text=True, env=env
        )
    if done.returncode != 0:
        print(f"{workload} seed {seed} failed with exit {done.returncode}:\n{done.stderr}",
              file=sys.stderr)
        done.check_returncode()
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(results: list) -> dict:
    """Median and interquartile range of each metric over the runs."""
    out = {}
    for name in METRICS:
        values = np.array([r["metrics"][name]["value"] for r in results])
        q1, med, q3 = np.percentile(values, [25, 50, 75])
        out[name] = {
            "median": float(med),
            "iqr": float(q3 - q1),
            "values": values.tolist(),
            "unit": results[0]["metrics"][name]["unit"],
        }
    out["attempted"] = sum(r["attempted"] for r in results)
    out["failed"] = sum(r["failed"] for r in results)
    out["correct"] = all(r["correct"] for r in results)
    return out


def git(tree: Path, *args: str) -> str:
    """Stripped stdout of one git command run in ``tree``."""
    return subprocess.run(
        ["git", *args], cwd=tree, capture_output=True, text=True, check=True
    ).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="names the output file BENCH_<label>.json")
    parser.add_argument("--tree", type=Path, default=ROOT, help="source tree to measure")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    workloads = {}
    for workload in WORKLOADS:
        results = []
        for seed in SEEDS:
            results.append(run_workload(tree, workload, seed))
            print(f"{workload} seed {seed}: {results[-1]['metrics']['wall_s']['value']:.4g} s",
                  file=sys.stderr)
        workloads[workload] = summarize(results)
    record = {
        "label": args.label,
        "revision": git(tree, "rev-parse", "HEAD"),
        # Uncommitted changes: the measured tree is not ``revision`` itself.
        "dirty": git(tree, "status", "--porcelain") != "",
        "seeds": list(SEEDS),
        "seconds": SECONDS,
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "workloads": workloads,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
