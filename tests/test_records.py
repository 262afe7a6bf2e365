"""The package's record types: which are dataclasses, and the checks the regularity records make."""

import dataclasses
import inspect
import sys

import numpy as np
import pytest

import cesaro_lmc.cli  # noqa: F401  (loads every module the CLI uses)
from cesaro_lmc.errors import ParameterError
from cesaro_lmc.potentials import Smoothness, StronglyConvex, WeaklyConvexKL

# the records that stay dataclasses: perfbench and the tests call dataclasses.replace on them
DATACLASSES = {"Potential", "ChainConfig", "PosteriorPotential"}
NAMEDTUPLES = {
    "ExperimentReport", "RateFit", "BoundCheckRow", "SeparationMap", "TestPhiReport",
    "MomentReport", "StronglyConvex", "WeaklyConvexKL", "Smoothness", "ProfileReport",
    "PoissonSolution1D", "ChainRun", "TuningPlan",
}


def _package_classes():
    return [obj for name, mod in list(sys.modules.items()) if name.split(".")[0] == "cesaro_lmc"
            for obj in vars(mod).values() if inspect.isclass(obj) and obj.__module__ == name]


def test_the_package_defines_three_dataclasses():
    """Each dataclass costs its import a ``dataclasses._process_class``; the other records
    are NamedTuples."""
    classes = _package_classes()
    assert {c.__name__ for c in classes if dataclasses.is_dataclass(c)} == DATACLASSES
    assert {c.__name__ for c in classes if issubclass(c, tuple) and hasattr(c, "_fields")} \
        == NAMEDTUPLES


@pytest.mark.parametrize("make, message", [
    (lambda: StronglyConvex(0), "rho must be positive, got 0"),
    (lambda: StronglyConvex(-1.0), "rho must be positive, got -1.0"),
    (lambda: WeaklyConvexKL(0, 1.0, 0.0, 0.5), "c1 and c2 must be positive"),
    (lambda: WeaklyConvexKL(1.0, 1.0, 0.5, 0.25),
     "exponents must satisfy 0 <= q <= r < 1, got q=0.5, r=0.25"),
    (lambda: WeaklyConvexKL(1.0, 1.0, 0.5, 1),
     "exponents must satisfy 0 <= q <= r < 1, got q=0.5, r=1"),
    (lambda: Smoothness(np.inf), "L must be finite and positive, got inf"),
    (lambda: Smoothness(0.0), "L must be finite and positive, got 0.0"),
    (lambda: Smoothness(1.0, L_tilde=-1.0), "L_tilde must be finite and nonnegative"),
    (lambda: Smoothness(1.0, lap_grad_sup=np.nan), "lap_grad_sup must be finite and nonnegative"),
], ids=["rho-zero", "rho-negative", "c1-zero", "q-above-r", "r-one", "L-inf", "L-zero",
        "L_tilde-negative", "lap_grad_sup-nan"])
def test_a_regularity_record_refuses_a_value_outside_its_domain(make, message):
    with pytest.raises(ParameterError) as exc:
        make()
    assert str(exc.value) == message
