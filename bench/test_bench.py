"""Tests of the benchmark itself: its checks and its metric names.

Run from the repository root with ``python3 -m pytest -q bench``.  Each
workload runs once on a smaller config of the same kind (coarser step,
fewer detunings, shorter horizon); the checks derive every tolerance from the
config, so they apply unchanged.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, read_csv, render_config  # noqa: E402

FLAGS = ("valid", "in_regime")


def small_config(name: str) -> dict:
    config = WORKLOADS[name].make_config(0)
    if name == "single_trajectory":
        config["step"] = 1e-2
    elif name == "bandwidth_equivalence":
        config["step"] = 2e-2
    elif name == "detuning_sweep":
        mags = sorted(d for d in config["deltaL_values"] if d > 0)[:2]
        config["deltaL_values"] = tuple(sorted([-d for d in mags] + mags))
        config["step"] = 4e-3
    elif name == "oracle_continuum":
        config["t_max"] = 1.0
    return config


@pytest.fixture(scope="module")
def program():
    return run.import_program()


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def outcome(request, program, tmp_path_factory):
    name = request.param
    workload = WORKLOADS[name]
    config = small_config(name)
    workdir = tmp_path_factory.mktemp(name)
    result = run.run_once(program["cli"].main, render_config(config), workdir)
    assert result.error is None, result.error
    assert result.status == 0, result.stderr
    return workload, config, result, workload.reference(config)


def _rewrite(path: Path, row: int, col: int, value: str) -> None:
    lines = path.read_text().splitlines()
    fields = lines[row + 1].split(",")
    fields[col] = value
    lines[row + 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def _corrupt(value: float, column: str) -> str:
    if column in FLAGS:
        return "0" if value else "1"
    return repr(value + 1e-3 * (abs(value) + 1e-3))


def test_checks_pass_on_program_output(outcome):
    workload, config, result, ref = outcome
    assert workload.check(config, result.out, result.stdout, ref) == []


def test_every_corrupted_value_fails_the_check(outcome):
    workload, config, result, ref = outcome
    files = sorted(result.out.parent.glob("*.csv"))
    assert files
    for path in files:
        original = path.read_text()
        cols = read_csv(path)
        rows = len(next(iter(cols.values())))
        for col, (name, values) in enumerate(cols.items()):
            row = rows // 10 if rows > 10 else rows - 1
            assert math.isfinite(values[row]), (path.name, name)
            _rewrite(path, row, col, _corrupt(float(values[row]), name))
            try:
                found = workload.check(config, result.out, result.stdout, ref)
            finally:
                path.write_text(original)
            assert found, f"{path.name}: corrupting {name} row {row} went unnoticed"


def _benchmark_json() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_printed_metrics():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER
    assert all(m["better"] == "lower" for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [False, True])
def test_result_holds_exactly_the_listed_metrics(program, trace):
    spec = _benchmark_json()
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    workload = WORKLOADS["single_trajectory"]
    result = run.measure(
        workload, 0, 0.0, trace, setup_runs=1, config=small_config(workload.name)
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == names
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1)
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["cli.run.calls"] == 1
        assert metrics["cli.rows_written"] == metrics["grid.samples"] + 1
