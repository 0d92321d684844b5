"""Compare the CLI's outputs of this tree with those of another tree.

Run from the repository root:

    python3 tools/compare_outputs.py BASE_TREE [--seeds 0 1 2]

Every benchmark config that ``bench/workloads.py`` generates, one per
workload and seed, runs through ``photon_work.cli.main`` twice, each time
in a fresh interpreter with ``PYTHONPATH`` set to one tree's ``src``:
first BASE_TREE, then this repository.  Per workload and seed it reports
whether the exit statuses match, the stdout lines that differ (the
``wrote <path>`` lines left out), the stderr lines that differ (``note:``
and violation messages included), and for each CSV written whether it is
byte-identical, whether its values are all equal though its bytes
differ (a -0 against a 0, say), or else the largest relative difference
|a - b| / max(|a|, |b|) in each column; a column that differs also gets
its largest absolute difference and its largest magnitude, so a change
of a sample near zero is not read as a change of the column.  It exits
with status 1 when an exit status, a CSV's name, a header or a row
count differs; a stdout, stderr or value difference is only reported.

Outputs go to a temporary directory, removed afterwards, and no
bytecode is written, so neither tree is written to.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
_MAIN = "import sys\nfrom photon_work.cli import main\nraise SystemExit(main(sys.argv[1:]))\n"


def run_cli(tree: Path, config_text: str, workdir: Path):
    """(exit status, stdout without ``wrote`` lines, stderr lines,
    {csv name: path})."""
    workdir.mkdir(parents=True)
    cfg = workdir / "run.cfg"
    cfg.write_text(config_text)
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-c", _MAIN, str(cfg), "--out", str(workdir / "run")],
        cwd=workdir, env=env, capture_output=True, text=True,
    )
    stdout = [line for line in done.stdout.splitlines() if not line.startswith("wrote ")]
    csvs = {p.name: p for p in workdir.glob("*.csv")}
    return done.returncode, stdout, done.stderr.splitlines(), csvs


def column_differences(base: Path, new: Path):
    """(problem or None, {column: (largest relative difference, largest
    absolute difference, largest magnitude)})."""
    with open(base) as fa, open(new) as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if rows_a[0] != rows_b[0]:
        return f"header {rows_a[0]} != {rows_b[0]}", {}
    if len(rows_a) != len(rows_b):
        return f"{len(rows_a) - 1} rows != {len(rows_b) - 1}", {}
    a = np.array(rows_a[1:], dtype=float).reshape(-1, len(rows_a[0]))
    b = np.array(rows_b[1:], dtype=float).reshape(a.shape)
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    size = np.maximum(np.abs(a), np.abs(b))
    with np.errstate(invalid="ignore"):
        gap = np.where(same, 0.0, np.abs(a - b))
        rel = np.where(same, 0.0, gap / size)
    gap, rel = (np.where(np.isnan(x), np.inf, x) for x in (gap, rel))
    stats = (
        np.max(x, axis=0, initial=0.0).tolist()
        for x in (rel, gap, np.where(np.isnan(size), 0.0, size))
    )
    return None, dict(zip(rows_a[0], zip(*stats)))


def compare(base_tree: Path, name: str, config_text: str, scratch: Path) -> bool:
    """Prints the report of one config; False on a structural difference."""
    status_a, out_a, err_a, csvs_a = run_cli(base_tree, config_text, scratch / "base")
    status_b, out_b, err_b, csvs_b = run_cli(ROOT, config_text, scratch / "new")
    ok = status_a == status_b and csvs_a.keys() == csvs_b.keys()
    print(f"{name}: exit {status_a} / {status_b}, "
          f"stdout {'same' if out_a == out_b else 'differs'}, "
          f"stderr {'same' if err_a == err_b else 'differs'}")
    for stream, a, b in (("stdout", out_a, out_b), ("stderr", err_a, err_b)):
        for line in difflib.ndiff(a, b):
            if line[0] in "-+":
                print(f"  {stream} {line}")
    if csvs_a.keys() != csvs_b.keys():
        print(f"  CSV files {sorted(csvs_a)} != {sorted(csvs_b)}")
    for csv_name in sorted(csvs_a.keys() & csvs_b.keys()):
        if csvs_a[csv_name].read_bytes() == csvs_b[csv_name].read_bytes():
            print(f"  {csv_name}: identical")
            continue
        problem, rel = column_differences(csvs_a[csv_name], csvs_b[csv_name])
        if problem is not None:
            ok = False
            print(f"  {csv_name}: {problem}")
        elif not any(r for r, _, _ in rel.values()):
            print(f"  {csv_name}: values equal, bytes differ")
        else:
            print(f"  {csv_name}: " + ", ".join(
                f"{c} {r:.2g}" + (f" (abs {g:.2g} of {m:.2g})" if r else "")
                for c, (r, g, m) in rel.items()
            ))
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_tree", type=Path, help="tree whose src/ gives the reference")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS, render_config

    ok = True
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        for workload in WORKLOADS.values():
            for seed in args.seeds:
                scratch = Path(tmp) / f"{workload.name}-{seed}"
                text = render_config(workload.make_config(seed))
                ok &= compare(args.base_tree.resolve(), f"{workload.name} seed {seed}", text, scratch)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
