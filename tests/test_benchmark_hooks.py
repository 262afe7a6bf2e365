"""The benchmark's tracer (``perfbench/spans.py``) wraps package functions by
name; a deletion or rename in the package must not leave it pointing at
nothing."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


spans = _spans()


@pytest.mark.parametrize("module, name", sorted(spans.ENTRY_POINTS))
def test_entry_point_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"cesaro_lmc.{module}"), name))


@pytest.mark.parametrize("name", spans.POTENTIAL_FACTORIES)
def test_potential_factory_resolves(name):
    assert callable(getattr(importlib.import_module("cesaro_lmc.potentials"), name))
