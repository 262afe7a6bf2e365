import ast
import math
from pathlib import Path

import numpy as np
import pytest

from cesaro_lmc import oracle
from cesaro_lmc.errors import CapabilityError, NumericError, ParameterError
from cesaro_lmc.bayes import (
    GaussianLocationModel,
    LogisticModel,
    build_posterior,
    sample_dataset,
)
from cesaro_lmc.oracle import (
    importance_posterior_mean,
    ou_cesaro_moments,
    pi_of,
    poisson_solve_1d,
    quadrature_posterior_mean,
)
from cesaro_lmc.potentials import (
    Potential,
    Smoothness,
    StronglyConvex,
    builtin_gaussian_location,
    builtin_p_power,
)
from cesaro_lmc.sampler import ChainConfig, replicate_runs


def asymmetric_potential():
    """Convex but skewed: W(x) = x^2/2 + log cosh(x - 1)."""

    def value(x):
        return 0.5 * np.sum(x**2, axis=-1) + np.log(np.cosh(x[..., 0] - 1.0))

    def grad(x):
        return x + np.tanh(x[..., 0] - 1.0)[..., None]

    def hess_vec(x, v):
        return v + (1.0 / np.cosh(x[..., 0] - 1.0) ** 2)[..., None] * v

    return Potential(
        dim=1, value=value, grad=grad, hess_vec=hess_vec,
        smoothness=Smoothness(L=2.0), profile=StronglyConvex(1.0),
    )


class TestQuadrature:
    def test_gaussian_exact(self):
        pot = builtin_gaussian_location(1, 0.3, 1.0)
        mean, err = quadrature_posterior_mean(pot)
        assert abs(mean[0] - 0.3) < 1e-10

    def test_conjugate_posterior(self):
        model = GaussianLocationModel(2, 1.0)
        data = sample_dataset(model, [1.0, -0.5], 100, seed=3)
        post = build_posterior(model, data)
        mean, err = quadrature_posterior_mean(post.potential)
        closed = data.observations.sum(axis=0) / 101.0
        assert np.linalg.norm(mean - closed) < 1e-8

    def test_asymmetric_richardson_stability(self):
        pot = asymmetric_potential()
        prev = None
        for npa in (161, 321, 641):
            mean, _ = quadrature_posterior_mean(pot, nodes_per_axis=npa)
            if prev is not None:
                assert abs(mean[0] - prev) < 1e-9
            prev = mean[0]

    def test_halving_study_error_estimate(self):
        pot = asymmetric_potential()
        mean_f, err = quadrature_posterior_mean(pot, nodes_per_axis=161)
        mean_2f, _ = quadrature_posterior_mean(pot, nodes_per_axis=321)
        assert abs(mean_2f[0] - mean_f[0]) <= max(err, 1e-12)

    def test_d_cap(self):
        pot = builtin_gaussian_location(4, 0.0, 1.0)
        with pytest.raises(CapabilityError):
            quadrature_posterior_mean(pot)

    def test_undecayed_tail_detected(self):
        pot = builtin_gaussian_location(1, 0.0, 1.0)
        with pytest.raises(NumericError):
            quadrature_posterior_mean(pot, k_sigma=2.0)


class TestClosedFormMeans:
    """Every family that sets ``Potential.mean`` against quadrature, which does not read it.
    The posterior's evaluators are held to the per-observation sum in ``test_bayes``, so
    the two checks together hold its conjugate mean to the model."""

    @pytest.mark.parametrize("make", [
        lambda: builtin_gaussian_location(2, [0.7, -1.3], 2.5),
        lambda: builtin_p_power(2, [0.7, -1.3], 0.75),
        lambda: build_posterior(GaussianLocationModel(2, 1.0), sample_dataset(
            GaussianLocationModel(2, 1.0), [1.0, -0.5], 50, seed=3)).potential,
    ], ids=["gaussian", "p_power", "gaussian_location_posterior"])
    def test_quadrature_agrees_with_the_mean(self, make):
        pot = make()
        mean, err = quadrature_posterior_mean(pot, k_sigma=12.0)  # p_power's tails need > 9.3
        assert np.linalg.norm(mean - pot.mean) <= max(err, 1e-12)  # err is at rounding level


class TestOuCesaroMoments:
    def test_stationary_start_mean(self):
        mean, _ = ou_cesaro_moments(1.0, 0.7, 0.1, 500, x0=0.7)
        assert mean == 0.7

    def test_single_step(self):
        mean, var = ou_cesaro_moments(1.0, 0.0, 0.1, 1, x0=2.0)
        assert mean == 2.0 and var == 0.0

    def test_unstable_step_rejected(self):
        with pytest.raises(ParameterError):
            ou_cesaro_moments(1.0, 0.0, 2.5, 100, 0.0)

    def test_transient_mean_formula(self):
        gamma, rho, n, x0 = 0.2, 1.5, 40, 3.0
        a = 1 - gamma * rho
        mean, _ = ou_cesaro_moments(rho, 0.0, gamma, n, x0)
        assert mean == pytest.approx(x0 * np.mean(a ** np.arange(n)), rel=1e-12)

    def test_variance_against_direct_enumeration(self):
        # brute-force the covariance sum for a tiny chain
        gamma, rho, n = 0.3, 1.0, 6
        a = 1 - gamma * rho
        cov = np.zeros((n, n))
        for j in range(n):
            for k in range(n):
                s = 0.0
                for i in range(1, min(j, k) + 1):
                    s += a ** (j - i) * a ** (k - i)
                cov[j, k] = 2 * gamma * s
        var_direct = cov.sum() / n**2
        _, var = ou_cesaro_moments(rho, 0.0, gamma, n, 0.0)
        assert var == pytest.approx(var_direct, rel=1e-12)

    def test_monte_carlo_validation(self):
        # the recorded one-time validation gate at reduced replicate count
        pot = builtin_gaussian_location(1, 0.0, 1.0)
        cfg = ChainConfig(gamma=0.1, n_steps=1000, x0=[0.0], seed=0)
        runs = replicate_runs(pot, cfg, 30000, base_seed=2024)
        ces = np.array([r.cesaro[0] for r in runs])
        mean, var = ou_cesaro_moments(1.0, 0.0, 0.1, 1000, 0.0)
        se_mean = math.sqrt(var / len(ces))
        se_var = var * math.sqrt(2.0 / (len(ces) - 1))
        assert abs(ces.mean() - mean) <= 3 * se_mean
        assert abs(ces.var(ddof=1) - var) <= 3 * se_var


class TestPoisson1D:
    def test_gaussian_closed_form(self):
        pot = builtin_gaussian_location(1, 0.0, 1.0)
        sol = poisson_solve_1d(pot, lambda x: x)
        assert sol.residual_sup < 1e-6
        assert abs(sol.pi_f) < 1e-12
        assert np.max(np.abs(sol.g + sol.grid)) < 1e-8
        assert abs(pi_of(pot, sol.g, sol.grid)) < 1e-8

    def test_constant_f_gives_zero(self):
        pot = builtin_gaussian_location(1, 0.5, 2.0)
        sol = poisson_solve_1d(pot, lambda x: np.full_like(x, 0.4))
        assert np.max(np.abs(sol.g)) < 1e-12
        assert sol.residual_sup < 1e-10

    def test_p_power_residual_and_envelope(self):
        pot = builtin_p_power(1, 0.0, 0.75)
        sol = poisson_solve_1d(pot, lambda x: x)
        assert sol.residual_sup < 1e-6
        assert abs(pi_of(pot, sol.g, sol.grid)) < 1e-8
        # |g'| is bounded by the W-power envelope with a single constant:
        # the tail ratio must not outgrow the central ratio
        prof = pot.profile
        frak_e = 0.05
        w = pot.value_normalized(sol.grid[:, None])
        from cesaro_lmc.tuning import compute_upsilon

        ups = compute_upsilon(prof, pot.smoothness.L, 1)
        envelope = prof.c1 ** (-1 - frak_e) * (
            w ** (prof.r * (1 + frak_e)) + ups ** (prof.r * (1 + frak_e))
        )
        ratio = np.abs(sol.g_prime) / envelope
        central = np.abs(sol.grid) <= 2.0
        tail = np.abs(sol.grid) >= 5.0
        assert ratio[tail].max() <= 2.0 * ratio[central].max()

    def test_sc_derivative_bound(self):
        # |g'| <= 1/rho for strongly convex potentials (equality for the Gaussian)
        for rho in (1.0, 2.0):
            pot = builtin_gaussian_location(1, 0.0, rho)
            sol = poisson_solve_1d(pot, lambda x: x)
            assert np.max(np.abs(sol.g_prime)) <= (1.0 + 1e-9) / rho
        pot = asymmetric_potential()
        sol = poisson_solve_1d(pot, lambda x: x)
        assert np.max(np.abs(sol.g_prime)) <= 1.0 + 1e-9

    def test_doubling_interval_bounds_truncation(self):
        # truncation bias is invisible where the weight lives; only the thin
        # p-power tail near the small grid's edge feels the boundary estimate
        pot = builtin_p_power(1, 0.0, 0.8)
        sol1 = poisson_solve_1d(pot, lambda x: x, n_nodes=20001, k_sigma=10.0)
        sol2 = poisson_solve_1d(pot, lambda x: x, n_nodes=40001, k_sigma=20.0)
        assert abs(sol1.pi_f - sol2.pi_f) < 1e-10
        central = np.abs(sol1.grid) <= 5.0
        mid = np.interp(sol1.grid[central], sol2.grid, sol2.g)
        assert np.max(np.abs(mid - sol1.g[central])) < 1e-7

    def test_lipschitz_precondition(self):
        pot = builtin_gaussian_location(1, 0.0, 1.0)
        with pytest.raises(ParameterError):
            poisson_solve_1d(pot, lambda x: 3.0 * x)

    def test_dimension_cap(self):
        pot = builtin_gaussian_location(2, 0.0, 1.0)
        with pytest.raises(CapabilityError):
            poisson_solve_1d(pot, lambda x: x)


def flat_tailed_potential(a=0.01):
    """W(x) = a log cosh(x / a): curvature 1/a at the mode but Laplace tails
    e^{-|x|}, so a proposal scaled by the mode's Hessian misses most of the mass."""

    def value(x):
        u = x[..., 0] / a
        return a * (np.logaddexp(u, -u) - math.log(2.0))

    return Potential(
        dim=1, value=value, grad=lambda x: np.tanh(x / a),
        hess_vec=lambda x, v: v / (a * np.cosh(x / a) ** 2),
        smoothness=Smoothness(L=1.0 / a), profile=None,
    )


def logistic_posterior(d, n, rows, seed):
    design = np.random.default_rng(seed).standard_normal((rows, d))
    model = LogisticModel(design, ridge=0.0)
    data = sample_dataset(model, np.linspace(-0.5, 0.5, d), n, seed=seed)
    return build_posterior(model, data)


class TestImportanceSampling:
    def test_agrees_with_quadrature(self):
        pot = asymmetric_potential()
        qmean, qerr = quadrature_posterior_mean(pot)
        mean, se, ess = importance_posterior_mean(pot, 6)
        assert abs(mean[0] - qmean[0]) <= 4 * se + qerr
        assert se < 1e-2 and ess > 0.5 * 2**17

    @pytest.mark.compiled
    def test_logistic_posterior_agrees_with_quadrature(self):
        post = logistic_posterior(2, 400, 10, seed=12)
        qmean, qerr = quadrature_posterior_mean(post.potential)
        mean, se, _ = importance_posterior_mean(post.potential, 13)
        assert np.linalg.norm(mean - qmean) <= 4 * se + qerr

    def test_gaussian_d5_posterior_within_4_se(self):
        model = GaussianLocationModel(5, 1.0)
        data = sample_dataset(model, [0.5, -0.5, 0.0, 1.0, 0.2], 400, seed=5)
        post = build_posterior(model, data)
        mean, se, _ = importance_posterior_mean(post.potential, 5)
        assert np.linalg.norm(mean - post.potential.mean) <= 4 * se

    def test_deterministic(self):
        pot = asymmetric_potential()
        a = importance_posterior_mean(pot, 7)
        b = importance_posterior_mean(pot, 7)
        assert a[0].tobytes() == b[0].tobytes() and a[1:] == b[1:]
        assert importance_posterior_mean(pot, 8)[0].tobytes() != a[0].tobytes()

    def test_low_ess_is_refused(self):
        with pytest.raises(NumericError) as exc:
            importance_posterior_mean(flat_tailed_potential(), 1)
        assert exc.value.payload["ess"] < 0.1 * 2**17

    def test_indefinite_hessian_is_refused(self):
        pot = builtin_gaussian_location(2, 0.0, 1.0)
        flipped = Potential(dim=2, value=pot.value, grad=pot.grad,
                            hess_vec=lambda x, v: -pot.hess_vec(x, v),
                            smoothness=pot.smoothness, profile=None)
        with pytest.raises(NumericError):
            importance_posterior_mean(flipped, 1)


def test_oracle_imports_nothing_of_the_hot_path():
    """The oracles check the sampler, so they must not run its code."""
    tree = ast.parse((Path(oracle.__file__)).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.name.split(".")[-1] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(a.name for a in node.names)
    assert not imported & {"sampler", "_kernel"}


class TestQuadratureD3:
    def test_d3_gaussian(self):
        pot = builtin_gaussian_location(3, [0.3, -0.6, 1.1], 2.0)
        mean, err = quadrature_posterior_mean(pot, nodes_per_axis=121)
        assert np.linalg.norm(mean - [0.3, -0.6, 1.1]) < 1e-9

    def test_d3_posterior_matches_conjugate(self):
        model = GaussianLocationModel(3, 1.0)
        data = sample_dataset(model, [0.5, 0.0, -0.5], 50, seed=31)
        post = build_posterior(model, data)
        mean, _ = quadrature_posterior_mean(post.potential, nodes_per_axis=121)
        closed = data.observations.sum(axis=0) / 51.0
        assert np.linalg.norm(mean - closed) < 1e-8
