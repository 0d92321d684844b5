"""Every exported name resolves, and every exported callable and every
function a module defines, private helpers included, follows the
(system, pulse) calling convention and the step naming rule."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import photon_work

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(photon_work.__path__))


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


def _module_level_imports(tree):
    """Import statements outside every function body (if, try and class
    blocks included)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("module", ["__init__"] + SUBMODULES)
def test_no_module_level_scipy_import(module):
    """The package imports numpy and the standard library only, so that
    ``photon-work`` starts quickly; a function may still import scipy
    where it needs it (``dynamics.integrate_psi``)."""
    path = Path(photon_work.__file__).with_name(f"{module}.py")
    bad = []
    for node in _module_level_imports(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            names = [node.module or ""] if node.level == 0 else []
        bad += [f"line {node.lineno}: {n}" for n in names if n.split(".")[0] == "scipy"]
    assert not bad, f"{module}: {bad}"
