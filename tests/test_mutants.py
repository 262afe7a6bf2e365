"""Committed mutation checks: each mutant must be killed by the tests it names.

A mutant is one exact text replacement in one file under ``src/``.  The
runner copies ``src/`` to a temporary directory, applies the mutant there,
and runs the named tests in a child pytest with ``PYTHONPATH`` on the copy
and ``XDG_CACHE_HOME`` in a temporary directory, so the compiled kernel of
a mutated ``_kernel.c`` is built apart.  The child must report a test
failure (exit status 1), and the same tests must pass on an unmutated
copy.  So a mutant the tests let pass, a test id that no longer exists
(status 4), a copy that no longer imports (status 2) and a ``_kernel.c``
that no longer compiles (its tests skip, status 0) all fail here.  An old
text that does not occur exactly once fails too, so a refactor has to
re-place the mutants of the code it moves.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    old: str
    new: str
    kills: Tuple[str, ...]  # test ids, relative to the repository root
    compiled: bool = False  # its tests need the compiled kernel


MUTANTS = [
    Mutant("logistic-posterior-drops-prior-ridge", "cesaro_lmc/bayes.py",
           "ridge=n * self.ridge + 1.0)", "ridge=n * self.ridge)",
           ("tests/test_bayes.py::TestPosterior::test_matches_per_observation_loop[logistic]",),
           compiled=True),
    Mutant("conjugate-precision-drops-prior", "cesaro_lmc/bayes.py",
           "(n * rho + 1.0), n * rho + 1.0)", "(n * rho + 1.0), n * rho)",
           ("tests/test_bayes.py::TestBuildPosterior::test_aggregated_strong_convexity_exact",)),
    Mutant("conjugate-mean-drops-prior", "cesaro_lmc/bayes.py",
           "rho * s / (n * rho + 1.0)", "rho * s / (n * rho)",
           ("tests/test_bayes.py::TestPosterior::test_matches_per_observation_loop[gaussian]",)),
    Mutant("p-power-profile-drops-prior-curvature", "cesaro_lmc/bayes.py",
           "c2=L, q=0.0", "c2=L - 1.0, q=0.0",
           ("tests/test_bayes.py::TestBuildPosterior::test_profile_holds_near_a_concentrated_sample",)),
    Mutant("p-power-posterior-drops-prior-gradient", "cesaro_lmc/bayes.py",
           "return total + theta", "return total",
           ("tests/test_bayes.py::TestPosterior::test_matches_per_observation_loop[p_power]",)),
    Mutant("conjugate-constant-drops-second-term", "cesaro_lmc/bayes.py",
           "+ n * rho * float(np.sum(mean**2)) / (2.0 * (n * rho + 1.0)))", ")",
           ("tests/test_bayes.py::TestPosterior::test_matches_per_observation_loop[gaussian]",)),
    Mutant("conjugate-constant-cancels", "cesaro_lmc/bayes.py",
           "float(np.sum((obs - mean) ** 2))",
           "(float(np.sum(obs**2)) - n * float(np.sum(mean**2)))",
           ("tests/test_bayes.py::TestPosterior::test_gaussian_posterior_far_from_the_origin"
            "[1000.0]",)),
    Mutant("conjugate-mode-by-descent", "cesaro_lmc/bayes.py",
           "mode = pot.minimizer_hint\n", "mode = None\n",
           ("tests/test_bayes.py::TestBuildPosterior::test_conjugate_mode_is_the_exact_mean",)),
    Mutant("reference-skips-the-closed-form-mean", "cesaro_lmc/cli.py",
           '    if pot.mean is not None:\n        return pot.mean, "closed-form"\n', "",
           ("tests/test_cli.py::TestRunCommand::"
            "test_gaussian_location_is_scored_by_its_conjugate_mean[2]",)),
    Mutant("compiled-gaussian-drops-mean", "cesaro_lmc/_kernel.c",
           "g[j] = p->rho * (x[j] - p->mean[j]);", "g[j] = p->rho * x[j];",
           ("tests/test_kernel.py::TestAgainstNumpyDriver::test_replicates[1-1-gaussian]",),
           compiled=True),
    Mutant("compiled-logistic-drops-ridge-gradient", "cesaro_lmc/_kernel.c",
           "g[j] += p->mu * x[j];", "g[j] += 0.0;",
           ("tests/test_potentials.py::TestLogisticRowWeights::"
            "test_weighted_rows_match_per_observation_sum[0.5]",),
           compiled=True),
    Mutant("step-range-drops-row-offset", "cesaro_lmc/_kernel.py",
           "x[lo:].ctypes.data", "x.ctypes.data",
           ("tests/test_kernel.py::TestSplitRanges::test_batch_matches_singletons_and_numpy"
            "[gaussian]",),
           compiled=True),
    Mutant("numpy-driver-drops-kahan-term", "cesaro_lmc/sampler.py",
           "                    comp -= t1\n", "",
           ("tests/test_kernel.py::TestAgainstNumpyDriver::test_replicates[1-1-gaussian]",),
           compiled=True),
    Mutant("poincare-tail-takes-sqrt-of-var", "cesaro_lmc/diagnostics.py",
           "delta / (2.0 * sd)))", "delta / (2.0 * math.sqrt(var))))",
           ("tests/test_diagnostics.py::test_bounds_equal_the_printed_formulas_bit_for_bit"
            "[score]",)),
    Mutant("plan-options-keep-json-integers", "cesaro_lmc/cli.py",
           "opts = {k: float(v) for k, v in", "opts = {k: v for k, v in",
           ("tests/test_cli.py::TestPlanRule::test_json_integers_give_the_bytes_of_floats"
            "[tune-cfg2]",)),
    Mutant("bayes-regime-accepts-tuning-eps", "cesaro_lmc/cli.py",
           '((f"{key}_grid", "grid"), (key, "point"))', '((f"{key}_grid", "grid"),)',
           ("tests/test_cli.py::TestPlanRule::test_a_grid_key_the_block_cannot_use_is_refused"
            "[conjugate_posterior.json-changes2-tuning.eps is a point of a potential block, "
            "and the config has a model block-tune]",)),
]


@pytest.fixture(scope="module")
def kernel_cache(tmp_path_factory):
    """One kernel cache for every mutant: the key hashes the source, so a
    mutated ``_kernel.c`` gets its own object and the rest share one."""
    return tmp_path_factory.mktemp("kernel-cache")


def _copy_src(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _run_tests(src, kernel_cache, ids):
    """The child pytest's result on ``ids``, with the package imported from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), XDG_CACHE_HOME=str(kernel_cache))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *ids],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.compiled
def test_every_named_test_passes_on_an_unmutated_copy(tmp_path, kernel_cache):
    """The control: a kill counts only if the copy passes the same tests unmutated."""
    ids = sorted({i for m in MUTANTS for i in m.kills})
    proc = _run_tests(_copy_src(tmp_path), kernel_cache, ids)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


@pytest.mark.parametrize("mutant", [
    pytest.param(m, id=m.name, marks=[pytest.mark.compiled] * m.compiled) for m in MUTANTS])
def test_mutant_is_killed(mutant, tmp_path, kernel_cache):
    src = _copy_src(tmp_path)
    path = src / mutant.file
    text = path.read_text()
    assert text.count(mutant.old) == 1, f"{mutant.file} must hold {mutant.old!r} once"
    path.write_text(text.replace(mutant.old, mutant.new))
    proc = _run_tests(src, kernel_cache, mutant.kills)
    assert proc.returncode == 1, f"survived:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
