"""The benchmark's tracer (``perfbench/spans.py``) wraps package functions by
name; a deletion or rename in the package must not leave it pointing at
nothing.  Each benchmark workload also runs once, plain and traced, and must
pass its gates: they read the package's outputs and the results the tracer's
probes keep.  Its output digest must then be the one ``golden.json`` pins for
seed 1, on the numpy version, machine and CPU model recorded there; elsewhere
the comparison skips and names both hosts."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
GOLDEN = json.loads((Path(__file__).resolve().parent / "golden.json").read_text())


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


spans, bench = _perfbench("spans"), _perfbench("run")


@pytest.mark.parametrize("module, name", sorted(spans.ENTRY_POINTS))
def test_entry_point_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"cesaro_lmc.{module}"), name))


@pytest.mark.parametrize("name", spans.POTENTIAL_FACTORIES)
def test_potential_factory_resolves(name):
    assert callable(getattr(importlib.import_module("cesaro_lmc.potentials"), name))


@pytest.mark.compiled
@pytest.mark.parametrize("mode", ["plain", "trace"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_passes_its_gates(workload, mode, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "--workload", workload,
         "--seed", "1", "--mode", mode, "--work", str(tmp_path / workload)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, result["gates"]
    pinned, env = GOLDEN["workloads"], bench.environment()
    recorded = {"numpy": GOLDEN["numpy"], "machine": pinned["machine"], "cpu": pinned["cpu"]}
    here = {"numpy": result["numpy"], "machine": env["machine"], "cpu": env["cpu_model"]}
    if here != recorded:
        pytest.skip(f"the workload digests were recorded on {recorded}, this host is {here}")
    assert pinned["seed"] == 1 and result["digest"] == pinned["digests"][workload], (
        f"{workload} output bytes moved: its seed-1 digest is now {result['digest']}")
