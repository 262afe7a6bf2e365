"""Acceptance criteria, one test per numbered requirement.

Each test prints a PASS/FAIL line with its elapsed time (visible with
``pytest -s`` or in the failure report).  Tolerances are pinned here, not
calibrated after the fact.  Criterion 3 tests the rate the consistency
theory promises for the posterior mean: eps_n^2 = (C_P L^2 d log n / n)^{1/alpha_c}
is an upper bound on its MSE, not a tight value.  The test therefore reads
the n-exponent off log n, checks the bound itself (log factor included) at
every n, and compares the slope on log(n/log n) with the closed-form
conjugate MSE rather than with -1/alpha_c (see the test body).
"""

import math
import time

import numpy as np
import pytest

from cesaro_lmc.bayes import (
    GaussianLocationModel,
    build_posterior,
    epsilon_n,
    sample_dataset,
)
from cesaro_lmc.diagnostics import (
    SeparationMap,
    bayes_rate_experiment,
    concentration_check,
    fit_line,
    moment_check,
    mse_experiment,
    run_test_phi,
)
from cesaro_lmc.oracle import ou_cesaro_moments, pi_of, poisson_solve_1d, quadrature_posterior_mean
from cesaro_lmc.potentials import (
    Potential,
    Smoothness,
    StronglyConvex,
    builtin_gaussian_location,
    builtin_logistic,
    builtin_p_power,
    verify_grad_bounds,
    verify_kl_profile,
)
from cesaro_lmc.sampler import ChainConfig, moment_clamp, replicate_runs, run_chain
from cesaro_lmc.tuning import TuningInputs, tune_bayes, tune_sc, tune_weak


class _Stopwatch:
    def __init__(self, label, budget_s):
        self.label = label
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.time() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.label}: {status} ({elapsed:.1f}s, budget {self.budget}s)")
        assert elapsed < self.budget, f"{self.label} exceeded its runtime budget"
        return False


def test_01_ou_exactness():
    with _Stopwatch("1 OU exactness", 60):
        rho, gamma, n, m = 1.0, 0.1, 1000, 500
        x0 = 2.0
        pot = builtin_gaussian_location(1, 0.0, rho)
        cfg = ChainConfig(gamma=gamma, n_steps=n, x0=[x0], seed=0)
        runs = replicate_runs(pot, cfg, m, base_seed=20240801)
        ces = np.array([r.cesaro[0] for r in runs])
        mean, var = ou_cesaro_moments(rho, 0.0, gamma, n, x0)
        se_mean = math.sqrt(var / m)
        se_var = var * math.sqrt(2.0 / (m - 1))
        assert abs(ces.mean() - mean) <= 3 * se_mean
        assert abs(ces.var(ddof=1) - var) <= 3 * se_var


def test_02_conjugate_posterior_equivalence():
    with _Stopwatch("2 conjugate equivalence", 600):
        d, m = 2, 200
        model = GaussianLocationModel(d, 1.0)
        theta_star = np.array([0.4, -0.2])
        cs = {}
        for n in (100, 400, 1600):
            data = sample_dataset(model, theta_star, n, seed=20240802 + n)
            post = build_posterior(model, data)
            plan = tune_bayes(
                TuningInputs(profile=StronglyConvex(1.0), L=1.0, d=d, eps=1.0),
                n=n, alpha_c=1.0, regime="sc-i.a", C_P=model.C_P,
            )
            reference, _ = quadrature_posterior_mean(post.potential)
            report = mse_experiment(
                post.potential, plan, m, reference, base_seed=777 + n,
                reference_provenance="quadrature",
            )
            eps_n_sq = plan.constants["eps_n"] ** 2
            cs[n] = report.mse / eps_n_sq
        spread = max(cs.values()) / min(cs.values())
        print(f"  C by n: {cs} spread {spread:.2f}")
        assert spread <= 4.0


def test_03_bayesian_rate_slope():
    # The consistency theory bounds the posterior-mean MSE by eps_n^2
    # (bayes.epsilon_n), which carries a log n factor; a bound, not the
    # exact rate, so the factor need not be attained.  The conjugate
    # Gaussian posterior mean has MSE (nd + |theta*|^2)/(n+1)^2 ~ d/n with no
    # log factor, so its slope on log(n / log n) is about -1.18 over
    # {100,...,6400}, not -1/alpha_c.  The test therefore asserts (a) the
    # rate exponent -1/alpha_c on log n, (b) MSE <= eps_n^2 at every n, and
    # (c) the log(n / log n) slope against the exact conjugate MSE's slope.
    with _Stopwatch("3 bayesian rate", 600):
        model = GaussianLocationModel(2, 1.0)
        theta_star = [1.0, -1.0]
        n_grid = [100, 400, 1600, 6400]
        fit = bayes_rate_experiment(
            model,
            theta_star,
            n_grid,
            200,
            base_seed=20240803,
        )
        n = np.asarray(n_grid, dtype=float)
        rate = fit_line(np.log(n), fit.y)
        mse = np.exp(fit.y)
        eps_n_sq = np.array(
            [epsilon_n(model.C_P, model.per_obs_L, model.alpha_c, model.d, k)[0] ** 2
             for k in n_grid]
        )
        # exact MSE of the conjugate mean (N(0, I) prior, unit precision)
        exact_mse = (n * model.d + np.sum(np.square(theta_star))) / (n + 1.0) ** 2
        exact_slope = fit_line(np.log(n / np.log(n)), np.log(exact_mse)).slope
        print(
            f"  slope {fit.slope:.3f} (exact {exact_slope:.3f}) r2 {fit.r2:.4f}"
            f" | log n slope {rate.slope:.3f} | max mse/eps_n^2 {np.max(mse / eps_n_sq):.3f}"
        )
        assert fit.r2 >= 0.95
        assert fit.slope_trustworthy()
        assert rate.slope_trustworthy()
        assert abs(rate.slope - (-1.0 / model.alpha_c)) <= 0.15
        assert np.all(mse <= eps_n_sq)
        assert abs(fit.slope - exact_slope) <= 0.15


def test_04_weak_convex_mse_scaling():
    with _Stopwatch("4 weak-convex scaling", 1800):
        d, m, p = 2, 200, 0.75
        pot = builtin_p_power(d, 0.0, p)
        ratios = {}
        for eps in (0.3, 0.2, 0.1):
            plan = tune_weak(
                TuningInputs(profile=pot.profile, L=pot.smoothness.L, d=d, eps=eps,
                             frak_e=0.05, x0_dist=0.0),
                "i.b",
            )
            # the p-power law is symmetric around its center, its mean
            report = mse_experiment(
                pot, plan, m, reference=pot.mean, base_seed=20240804,
                reference_provenance="closed-form",
            )
            ratios[eps] = report.mse / eps**2
        spread = max(ratios.values()) / min(ratios.values())
        print(f"  mse/eps^2 by eps: {ratios} spread {spread:.2f}")
        assert spread <= 5.0


def test_05_tuning_formula_exponents():
    with _Stopwatch("5 tuning exponents", 60):
        flat = builtin_p_power(1, 0.0, 1.0).profile  # r = q = 0
        ppow = builtin_p_power(1, 0.0, 0.75).profile

        def ratio(tune, inputs_small, inputs_half, variant):
            a = tune(inputs_small, variant).constants["n_steps_raw"]
            b = tune(inputs_half, variant).constants["n_steps_raw"]
            return b / a

        mk = lambda eps, prof, **kw: TuningInputs(profile=prof, L=1.0, d=1, eps=eps, **kw)
        r_ib = ratio(tune_weak, mk(0.01, ppow), mk(0.005, ppow), "i.b")
        assert r_ib == pytest.approx(16.0, rel=1e-9)
        sc = lambda eps, **kw: TuningInputs(
            profile=StronglyConvex(1.0), L=1.0, d=1, eps=eps, x0_dist=0.0, **kw
        )
        r_sci = ratio(tune_sc, sc(0.01), sc(0.005), "i")
        assert r_sci == pytest.approx(16.0, rel=1e-9)
        r_scii = ratio(
            tune_sc, sc(0.01, L_tilde=1.0, lap_grad_sup=0.0),
            sc(0.005, L_tilde=1.0, lap_grad_sup=0.0), "ii",
        )
        assert r_scii == pytest.approx(8.0, rel=1e-9)
        kw = dict(L_tilde=1.0, lap_grad_sup=1.0, rho_lap=1.0)
        r_iib = ratio(tune_weak, mk(0.01, ppow, **kw), mk(0.005, ppow, **kw), "ii.b")
        assert r_iib == pytest.approx(8.0, rel=1e-9)


def test_06_kl_profile_verification():
    with _Stopwatch("6 KL profiles", 60):
        for p in (0.6, 0.75, 0.9):
            pot = builtin_p_power(5, 0.0, p)
            assert pot.profile.c1 == pytest.approx(2 * p * (2 * p - 1))
            assert pot.profile.c2 == pytest.approx(2 * p)
            rep = verify_kl_profile(pot, n_probes=10000, radius=10.0, seed=int(p * 100))
            assert rep.passed, f"p={p}: {rep.worst}"


def test_07_gradient_sandwich():
    with _Stopwatch("7 gradient sandwich", 60):
        for pot in (
            builtin_gaussian_location(3, [0.5, 0.0, -0.5], 1.5),
            builtin_p_power(3, 0.0, 0.75),
            builtin_p_power(2, 0.0, 0.6),
        ):
            rep = verify_grad_bounds(pot, n_probes=1000, seed=7)
            assert rep.passed, f"{pot.name}: {rep.worst}"


def test_08_poisson_residual():
    with _Stopwatch("8 Poisson residual", 60):
        gauss = builtin_gaussian_location(1, 0.0, 1.0)
        sol = poisson_solve_1d(gauss, lambda x: x)
        assert sol.residual_sup < 1e-6
        assert abs(pi_of(gauss, sol.g, sol.grid)) < 1e-8
        assert np.max(np.abs(sol.g - (-sol.grid))) < 1e-8
        ppow = builtin_p_power(1, 0.0, 0.75)
        sol2 = poisson_solve_1d(ppow, lambda x: x)
        assert sol2.residual_sup < 1e-6
        assert abs(pi_of(ppow, sol2.g, sol2.grid)) < 1e-8


def test_09_tangent_contraction():
    with _Stopwatch("9 tangent contraction", 60):
        gamma, k_sub = 0.02, 20
        pot = builtin_gaussian_location(1, 0.0, 1.0)
        cfg = ChainConfig(
            gamma=gamma, n_steps=100, x0=[0.5], seed=9, track_tangent=True,
            fine_substeps=k_sub, checkpoints=100,
        )
        run = run_chain(pot, cfg)
        log = dict(run.tangent_log)
        for t in (0.5, 1.0, 2.0):
            assert abs(log[t] - math.exp(-t)) < 1e-3
        # non-quadratic strongly convex: W = |x|^2/2 + 0.1 sum log cosh
        def value(x):
            return 0.5 * np.sum(x**2, axis=-1) + 0.1 * np.sum(np.log(np.cosh(x)), axis=-1)

        def grad(x):
            return x + 0.1 * np.tanh(x)

        def hess_vec(x, v):
            return v + 0.1 * v / np.cosh(x) ** 2

        sc_pot = Potential(
            dim=2, value=value, grad=grad, hess_vec=hess_vec,
            smoothness=Smoothness(L=1.1), profile=StronglyConvex(1.0),
        )
        cfg2 = ChainConfig(
            gamma=gamma, n_steps=100, x0=[1.0, -1.5], seed=10, track_tangent=True,
            fine_substeps=k_sub, checkpoints=100,
        )
        run2 = run_chain(sc_pot, cfg2)
        for t, norm in run2.tangent_log:
            assert norm <= math.exp(-t) * (1 + 10 * gamma * 1.1) + 1e-12


def test_10_concentration_bounds():
    with _Stopwatch("10 concentration", 300):
        m = 10000
        model = GaussianLocationModel(1, 1.0)
        rows = concentration_check(
            model, [0.0], 100, [0.1, 0.25, 0.5, 0.75, 1.0], m, seed=20240810
        )
        assert all(r.passed for r in rows), [(r.delta, r.frequency, r.bound) for r in rows]
        model3 = GaussianLocationModel(3, 1.0)
        rows2 = concentration_check(
            model3, [0.0, 0.0, 0.0], 100, [0.2, 0.35, 0.5, 0.75, 1.0], m,
            seed=20240811, statistic="score",
        )
        assert all(r.passed for r in rows2), [(r.delta, r.frequency, r.bound) for r in rows2]
        rep = run_test_phi(
            model, [0.0], [1.0], 200, 1.0, SeparationMap(1.0, 1.0, 1.0), m, seed=20240812
        )
        assert rep.passed


@pytest.mark.compiled  # its logistic potential runs on the compiled kernel
def test_11_moment_stability():
    with _Stopwatch("11 moment stability", 300):
        n_steps = 10**6
        pots = [
            builtin_gaussian_location(2, 0.0, 1.0),
            builtin_p_power(5, 0.0, 0.75),
            builtin_logistic(
                np.array([[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]]), [1, -1, 1], ridge=1.0
            ),
        ]
        for pot in pots:
            gamma = moment_clamp(pot)
            x0 = pot.minimizer_hint if pot.minimizer_hint is not None else np.zeros(pot.dim)
            cfg = ChainConfig(gamma=gamma, n_steps=n_steps, x0=x0, seed=11)
            rep = moment_check(pot, cfg, p_grid=(1.0, 2.0, 4.0, 9.0), a=1.0 / 16.0)
            assert rep.passed, f"{pot.name}: sup={rep.sup_running_mean}"
