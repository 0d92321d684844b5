"""Every exported name resolves, and every exported callable and every
function a module defines, private helpers included, follows the
(system, pulse) calling convention and the step naming rule."""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import photon_work

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(photon_work.__path__))


def test_readme_layout_lists_every_module():
    """README's Layout table has one ``photon_work.<name>`` row per module
    of the package, and no row for a module that is gone."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    layout = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `photon_work\.(\w+)` \|", layout, re.M)
    assert sorted(rows) == SUBMODULES


def _callables(mod):
    """Exported callables and the functions ``mod`` itself defines, by name."""
    exported = {name: getattr(mod, name) for name in mod.__all__}
    defined = {
        name: obj
        for name, obj in inspect.getmembers(mod, inspect.isfunction)
        if obj.__module__ == mod.__name__
    }
    return {name: obj for name, obj in (exported | defined).items() if callable(obj)}


@pytest.mark.parametrize("module", ["photon_work"] + [f"photon_work.{m}" for m in SUBMODULES])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("module", ["photon_work"] + [f"photon_work.{m}" for m in SUBMODULES])
def test_pulse_follows_system(module):
    """Pulse-driven callables take ``(system, pulse, ...)``: no parameter is
    named ``envelope``, and a ``pulse`` parameter comes right after
    ``system``, so the two can never be passed twice and disagree."""
    mod = importlib.import_module(module)
    bad = []
    for name, obj in _callables(mod).items():
        try:
            params = list(inspect.signature(obj).parameters)
        except (TypeError, ValueError):
            continue
        if "envelope" in params:
            bad.append(f"{name} takes envelope")
        if "pulse" in params:
            i = params.index("pulse")
            if i == 0 or params[i - 1] != "system":
                bad.append(f"{name}{tuple(params)}")
    assert not bad, f"{module}: {bad}"


# The exact-spacing grid builder and the integrator guard; every other
# grid parameter is a cap.
EXACT_STEP = {"uniform_grid", "check_step"}


@pytest.mark.parametrize("module", ["photon_work"] + [f"photon_work.{m}" for m in SUBMODULES])
def test_step_means_an_exact_spacing(module):
    """A function parameter named ``step`` is an exact grid spacing, so only
    the exact-spacing builders take one; a cap is named ``max_step``.
    (Config records such as ``RunConfig`` hold keys, not parameters.)"""
    mod = importlib.import_module(module)
    bad = [
        name
        for name, obj in _callables(mod).items()
        if inspect.isfunction(obj)
        and name not in EXACT_STEP
        and "step" in inspect.signature(obj).parameters
    ]
    assert not bad, f"{module}: {bad} take step; name a cap max_step"


@pytest.mark.parametrize("module", ["__init__"] + SUBMODULES)
def test_no_module_level_scipy_import(module):
    """No import statement of the package, at module level or in a
    function body, names scipy: it runs on numpy and the standard library
    alone, so ``photon-work`` starts quickly, and scipy serves only the
    tests and ``bench/``."""
    path = Path(photon_work.__file__).with_name(f"{module}.py")
    bad = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] if node.level == 0 else []
        else:
            continue
        bad += [f"line {node.lineno}: {n}" for n in names if n.split(".")[0] == "scipy"]
    assert not bad, f"{module}: {bad}"


def test_rk4_amplitude_runs_without_scipy():
    # The import scan above reads the source; this runs the RK4 amplitude
    # in a fresh interpreter and lists the scipy modules it holds after.
    code = (
        "import sys\n"
        "from photon_work import integrate_psi, make_pulse, make_system, uniform_grid\n"
        "integrate_psi(make_system(), make_pulse(0.3, 0.5), uniform_grid(10.0, 1e-3))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(photon_work.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.stdout.strip() == "[]"
