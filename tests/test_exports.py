"""Every exported name resolves, in the package and in each submodule."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import photon_work

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(photon_work.__path__))


@pytest.mark.parametrize("module", ["photon_work"] + [f"photon_work.{m}" for m in SUBMODULES])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"

