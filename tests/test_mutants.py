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
re-place the mutants of the code it moves.  A mutant of the AVX-512 lane
step is skipped on a CPU without AVX-512, which never runs that code.
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
    lanes: bool = False  # it mutates the AVX-512 lane step, which only such a CPU runs


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
           "g[j] = p->mu * (x[j] - p->center[j]);", "g[j] = p->mu * x[j];",
           ("tests/test_kernel.py::TestAgainstNumpyDriver::test_replicates"
            "[1-3001-21-gaussian]",),
           compiled=True),
    Mutant("compiled-logistic-drops-ridge-gradient", "cesaro_lmc/_kernel.c",
           "g[j] = p->mu * (x[j] - p->center[j]);", "g[j] = 0.0;",
           ("tests/test_potentials.py::TestLogisticRowWeights::"
            "test_weighted_rows_match_per_observation_sum[0.5]",),
           compiled=True),
    Mutant("compiled-value-drops-center", "cesaro_lmc/_kernel.c",
           "double r = x[j] - p->center[j];", "double r = x[j];",
           ("tests/test_kernel.py::test_gaussian_term_is_the_numpy_gaussian[d=2]",),
           compiled=True),
    Mutant("step-range-drops-row-offset", "cesaro_lmc/_kernel.py",
           "x[lo:].ctypes.data", "x.ctypes.data",
           ("tests/test_kernel.py::TestSplitRanges::test_batch_matches_singletons_and_numpy"
            "[gaussian]",),
           compiled=True),
    Mutant("eval-range-drops-row-offset", "cesaro_lmc/_kernel.py",
           "a[lo:].ctypes.data for a in", "a.ctypes.data for a in",
           ("tests/test_kernel.py::TestSplitRanges::"
            "test_evaluators_split_a_batch_without_moving_a_bit",),
           compiled=True),
    Mutant("numpy-driver-drops-kahan-term", "cesaro_lmc/sampler.py",
           "                    comp -= t1\n", "",
           ("tests/test_kernel.py::TestAgainstNumpyDriver::test_replicates"
            "[1-3001-21-gaussian]",),
           compiled=True),
    Mutant("chain-config-drops-the-int64-step-bound", "cesaro_lmc/sampler.py",
           "1 <= n_steps <= 2**63 - 1", "1 <= n_steps",
           ("tests/test_sampler.py::TestRunChain::test_n_steps_fits_the_compiled_loops_int64",)),
    Mutant("minimum-shift-drops-the-one", "cesaro_lmc/potentials.py",
           "1.0 - float(pot.value(x_star))", "-float(pot.value(x_star))",
           ("tests/test_diagnostics.py::TestMomentCheck::"
            "test_logistic_w_is_shifted_to_minimum_one",),
           compiled=True),
    Mutant("normal-interval-drops-sqrt-m", "cesaro_lmc/diagnostics.py",
           "float(np.std(sq, ddof=1)) / math.sqrt(m)", "float(np.std(sq, ddof=1))",
           ("tests/test_diagnostics.py::TestMseExperiment::test_ci_shrinks_with_replicates",)),
    Mutant("quadrature-error-drops-the-rounding-floor", "cesaro_lmc/oracle.py",
           "max(float(np.linalg.norm(fine - coarse)), floor)", "float(np.linalg.norm(fine - coarse))",
           ("tests/test_oracle.py::TestClosedFormMeans::test_quadrature_agrees_with_the_mean"
            "[gaussian_location_posterior]",)),
    Mutant("poincare-tail-takes-sqrt-of-var", "cesaro_lmc/diagnostics.py",
           "delta / (2.0 * sd)))", "delta / (2.0 * math.sqrt(var))))",
           ("tests/test_diagnostics.py::test_bounds_equal_the_printed_formulas_bit_for_bit"
            "[score]",)),
    Mutant("plan-options-keep-json-integers", "cesaro_lmc/cli.py",
           "opts = {k: float(v) for k, v in", "opts = {k: v for k, v in",
           ("tests/test_cli.py::TestPlanRule::test_json_integers_give_the_bytes_of_floats"
            "[tune-cfg2]",)),
    Mutant("poisson-oracle-reads-k-sigma", "cesaro_lmc/cli.py",
           '"poisson": ({"task": _STRING, "n_nodes": _COUNT}',
           '"poisson": ({"task": _STRING, "n_nodes": _COUNT, "k_sigma": _NUMBER}',
           ("tests/test_cli.py::TestOracleCommand::test_a_key_the_task_does_not_read_is_refused"
            "[poisson-k_sigma-8.0]",)),
    Mutant("tune-bayes-drops-model-b1", "cesaro_lmc/tuning.py",
           "epsilon_n(cp, L, alpha_c, d, n, model.b1)", "epsilon_n(cp, L, alpha_c, d, n)",
           ("tests/test_tuning.py::TestBayesTunings::test_model_b1_decides_eps_n_valid",)),
    Mutant("bayes-regime-accepts-tuning-eps", "cesaro_lmc/cli.py",
           '"bayes-sc-i.a": ""', '"bayes-sc-i.a": "eps"',
           ("tests/test_cli.py::TestPlanRule::test_every_command_refuses_the_config_with_one_line"
            "[eps-beside-a-model-tune]",)),
    Mutant("load-drops-the-regime-block-rule", "cesaro_lmc/cli.py",
           "        if tunes not in cfg:\n"
           "            raise ConfigError(f\"tuning.regime {regime!r} tunes a {tunes} block, \"\n"
           "                              \"which the config does not have\")\n", "",
           ("tests/test_cli.py::TestPlanRule::test_every_command_refuses_the_config_with_one_line"
            "[regime-without-its-block-verify]",)),
    Mutant("philox-counter-bumped-after-the-block", "cesaro_lmc/_kernel.c",
           "    for (int j = 0; j < 4; j++)\n        if (++s->ctr[j] != 0)\n            break;\n"
           "    philox_block(s);\n",
           "    philox_block(s);\n"
           "    for (int j = 0; j < 4; j++)\n        if (++s->ctr[j] != 0)\n            break;\n",
           ("tests/test_kernel.py::TestNormals::test_equal_to_numpy_standard_normal[0]",),
           compiled=True),
    Mutant("philox-weyl-constant-altered", "cesaro_lmc/_kernel.c",
           "k1 += 0xBB67AE8584CAA73BULL;", "k1 += 0xBB67AE8584CAA73AULL;",
           ("tests/test_kernel.py::TestNormals::test_equal_to_numpy_standard_normal[0]",),
           compiled=True),
    Mutant("normal-drops-the-sign-xor", "cesaro_lmc/_kernel.c",
           "        bits ^= (r & 0x100) << 55;\n", "",
           ("tests/test_kernel.py::TestNormals::test_equal_to_numpy_standard_normal[0]",),
           compiled=True),
    Mutant("normal-slow-path-drops-the-rewind", "cesaro_lmc/_kernel.c",
           "    s->pos--;\n", "",
           ("tests/test_kernel.py::TestNormals::test_equal_to_numpy_standard_normal[0]",),
           compiled=True),
    Mutant("ziggurat-scale-probed-at-rabs-2", "cesaro_lmc/_kernel.c",
           "probe(idx, 1, &at_once)", "probe(idx, 2, &at_once)",
           ("tests/test_kernel.py::TestNormals::test_equal_to_numpy_standard_normal[0]",),
           compiled=True),
    Mutant("expneg-drops-the-low-part-of-ln2", "cesaro_lmc/_kernel.c",
           "double r = x - kd * LN2_64_HI - kd * LN2_64_LO", "double r = x - kd * LN2_64_HI",
           ("tests/test_expneg.py::test_expneg_is_faithfully_rounded",),
           compiled=True),
    Mutant("pair-sum-in-reverse-pair-order", "cesaro_lmc/_kernel.c",
           "        for (int64_t v = 0; v < n; v++)\n            for (int64_t j = 0;",
           "        for (int64_t v = n - 1; v >= 0; v--)\n            for (int64_t j = 0;",
           ("tests/test_expneg.py::test_pass_is_the_transcription_bit_for_bit[50-pairs]",),
           compiled=True),
    Mutant("log1p-drops-the-rounding-error-of-1-plus-u", "cesaro_lmc/_kernel.c",
           "double y = 1.0 + u, a = y - 1.0, c = u - a,", "double y = 1.0 + u, a = y - 1.0, c = 0.0,",
           ("tests/test_expneg.py::test_log1p_is_faithfully_rounded",),
           compiled=True),
    Mutant("value-sum-in-reverse-pair-order", "cesaro_lmc/_kernel.c",
           "        for (int64_t v = 0; v < n; v++) {\n            if (p->cplus",
           "        for (int64_t v = n - 1; v >= 0; v--) {\n            if (p->cplus",
           ("tests/test_expneg.py::test_value_pass_is_the_transcription_bit_for_bit[50]",),
           compiled=True),
    Mutant("lane-kahan-drops-the-compensation", "cesaro_lmc/_kernel.c",
           "v8d t1 = X[j] - C[j], t2", "v8d t1 = X[j], t2",
           ("tests/test_kernel.py::test_lanes_match_the_scalar_body[21-6]",),
           compiled=True, lanes=True),
    Mutant("lane-divergence-recorded-a-step-late", "cesaro_lmc/_kernel.c",
           "diverged[idx[k]] = step;", "diverged[idx[k]] = step + 1;",
           ("tests/test_kernel.py::test_lanes_match_the_scalar_body[21-6]",),
           compiled=True, lanes=True),
]


def _avx512():
    """Whether the CPU has the AVX-512 subsets the kernel's lane step needs (Linux)."""
    try:
        with open("/proc/cpuinfo") as fh:
            flags = fh.read()
    except OSError:
        return False
    return "avx512f" in flags and "avx512dq" in flags


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
    pytest.param(m, id=m.name, marks=[pytest.mark.compiled] * m.compiled + [
        pytest.mark.skipif(m.lanes and not _avx512(), reason="the CPU runs no lane step")])
    for m in MUTANTS])
def test_mutant_is_killed(mutant, tmp_path, kernel_cache):
    src = _copy_src(tmp_path)
    path = src / mutant.file
    text = path.read_text()
    assert text.count(mutant.old) == 1, f"{mutant.file} must hold {mutant.old!r} once"
    path.write_text(text.replace(mutant.old, mutant.new))
    proc = _run_tests(src, kernel_cache, mutant.kills)
    assert proc.returncode == 1, f"survived:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
