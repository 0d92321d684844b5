"""Benchmark of the photon-work CLI: one workload per invocation, one process.

Run from the repository root:

    python3 bench/run.py --workload single_trajectory --seed 1 --seconds 15 --trace 0

The workload's config is generated from the seed and fed to
``photon_work.cli.main``, the function behind the ``photon-work`` console
script, with the artifacts going to a temporary directory.  Calls repeat
until ``--seconds`` of measured call time have passed.  Each call is one
operation: it fails when it raises, exits non-zero or fails a check of
its outputs.

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics (medians over the calls).  With ``--trace 1`` every
round is one untraced call and one call with spans around each layer, in
turn in either order, and the JSON holds the per-layer metrics (medians
over the traced calls) and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
from workloads import WORKLOADS, render_config  # noqa: E402

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# Fresh interpreters timed for setup_s; the median hides the one that
# compiles the bytecode cache in a new checkout.
SETUP_RUNS = 3

_IMPORT_PROBE = (
    "import time\n"
    "import photon_work.cli\n"
    "print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))\n"
)


def measure_setup(runs: int) -> list:
    """Seconds from launching a fresh interpreter until photon_work.cli is
    imported, once per run."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(runs):
        launched = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        samples.append(float(done.stdout.split()[-1]) - launched)
    return samples


@dataclass
class Run:
    out: Path
    status: int | None
    stdout: str
    stderr: str
    wall: float
    cpu: float
    error: str | None


def run_once(call, text: str, workdir: Path) -> Run:
    """One CLI invocation on a fresh directory; only the call is timed."""
    d = Path(tempfile.mkdtemp(dir=workdir))
    cfg = d / "run.cfg"
    cfg.write_text(text)
    out = d / "run"
    stdout = io.StringIO()
    stderr = io.StringIO()
    status = None
    error = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            status = call([str(cfg), "--out", str(out)])
        except Exception:
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    return Run(out, status, stdout.getvalue(), stderr.getvalue(), wall, cpu, error)


def problems_of(run: Run, workload, config: dict, ref) -> tuple:
    """(failed, incorrect, messages) for one run."""
    if run.error is not None:
        return True, False, [run.error]
    if run.status != 0:
        return True, False, [f"exit status {run.status}: {run.stderr.strip()}"]
    try:
        found = workload.check(config, run.out, run.stdout, ref)
    except Exception:
        found = [traceback.format_exc()]
    return bool(found), bool(found), list(found)


def written(directory: Path) -> tuple:
    """Data rows and bytes of the CSV files in ``directory``."""
    rows = 0
    nbytes = 0
    for path in directory.glob("*.csv"):
        nbytes += path.stat().st_size
        with open(path, "rb") as fh:
            rows += sum(1 for _ in fh) - 1
    return rows, nbytes


def import_program():
    if not (SRC / "photon_work" / "cli.py").is_file():
        raise ImportError(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    from photon_work import analysis, cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"photon_work imported from {cli.__file__}, not {SRC}")
    return {"cli": cli, "analysis": analysis}


def measure(
    workload,
    seed: int,
    seconds: float,
    trace: bool,
    setup_runs: int = SETUP_RUNS,
    config: dict | None = None,
) -> dict:
    """Run one workload and return the result object printed by main."""
    modules = import_program()
    setup = [] if trace else measure_setup(setup_runs)
    cli = modules["cli"]
    config = config or workload.make_config(seed)
    text = render_config(config)
    ref = None

    attempted = failed = 0
    correct = True
    plain: list[Run] = []
    traced: list[tuple] = []
    measured = 0.0

    def settle(run: Run) -> None:
        nonlocal attempted, failed, correct, measured
        attempted += 1
        measured += run.wall
        bad, wrong, messages = problems_of(run, workload, config, ref)
        if bad:
            failed += 1
            correct = correct and not wrong
            print(f"{workload.name}: call {attempted} failed:", file=sys.stderr)
            for message in messages[:10]:
                print(f"  {message}", file=sys.stderr)

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        rounds = 0
        while True:
            # Traced calls go second and first in turn, so neither kind
            # always follows the previous round's checks and cleanup.
            order = (False, True) if rounds % 2 == 0 else (True, False)
            for traced_call in order if trace else (False,):
                if traced_call:
                    tracer = spans.Tracer()
                    with tracer.installed(modules):
                        run = run_once(tracer.wrap("cli.main", cli.main), text, workdir)
                    rows, nbytes = written(run.out.parent)
                    traced.append((run, spans.layer_metrics(tracer.spans, rows, nbytes)))
                else:
                    run = run_once(cli.main, text, workdir)
                    plain.append(run)
                if ref is None:
                    # What one photon-work process holds at most: imports
                    # plus one call.  References and checks come after.
                    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                    ref = workload.reference(config)
                settle(run)
            rounds += 1
            shutil.rmtree(workdir)
            workdir.mkdir()
            if measured >= seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    walls = " ".join(f"{r.wall:.3f}" for r in plain)
    print(f"{workload.name}: untraced call walls (s): {walls}", file=sys.stderr)
    if trace:
        walls = " ".join(f"{r.wall:.3f}" for r, _ in traced)
        print(f"{workload.name}: traced call walls (s): {walls}", file=sys.stderr)
        # The first call of a process pays page faults for fresh memory.
        warm = plain[1:] or plain
        values = {
            name: statistics.median(m[name] for _, m in traced)
            for name in spans.PER_LAYER
            if not name.startswith("trace.")
        }
        values["trace.wall_s"] = statistics.median(r.wall for r, _ in traced)
        values["trace.untraced_wall_s"] = statistics.median(r.wall for r in warm)
        values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
        units = spans.PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(r.wall for r in plain),
            "cpu_s": statistics.median(r.cpu for r in plain),
            "peak_rss_mb": peak_mb,
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"bench: cannot run the program: {exc}", file=sys.stderr)
        return 2
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
