import math

import numpy as np
import pytest

from cesaro_lmc.bayes import GaussianLocationModel, LogisticModel, sample_dataset
from cesaro_lmc.diagnostics import (
    SeparationMap,
    _bootstrap_ci,
    bayes_rate_experiment,
    concentration_check,
    fit_line,
    moment_check,
    mse_experiment,
    run_test_phi,
)
from cesaro_lmc.errors import CapabilityError, ExperimentError, ParameterError
from cesaro_lmc.oracle import ou_cesaro_moments
from cesaro_lmc.potentials import builtin_gaussian_location
from cesaro_lmc.rng import mix64, stream
from cesaro_lmc.sampler import ChainConfig, moment_clamp
from cesaro_lmc.tuning import TuningPlan

OU = builtin_gaussian_location(1, 0.0, 1.0)


def ou_plan(gamma=0.1, n=1000):
    return TuningPlan(gamma=gamma, n_steps=n, regime="manual", constants={}, clamped=False)


class TestMseExperiment:
    def test_ou_matches_closed_form(self):
        plan = ou_plan()
        report = mse_experiment(OU, plan, 500, reference=[0.0], base_seed=3)
        _, var = ou_cesaro_moments(1.0, 0.0, 0.1, 1000, 0.0)
        # reference = target: MSE is the pure Monte-Carlo variance
        assert report.mse == pytest.approx(var, rel=0.20)

    def test_mse_recomputable(self):
        report = mse_experiment(OU, ou_plan(n=200), 50, reference=[0.0], base_seed=5)
        assert report.recompute_mse() == report.mse

    def test_bootstrap_ci_brackets_mse(self):
        report = mse_experiment(OU, ou_plan(n=200), 100, reference=[0.0], base_seed=7)
        lo, hi = report.ci
        assert lo <= report.mse <= hi

    @pytest.mark.parametrize("m", [3, 7, 200, 1999, 2000])
    def test_bootstrap_blocks_match_one_draw(self, m):
        """Resampling in blocks gives the bits of one (2000, m) index draw."""
        sq = np.random.default_rng(m).exponential(size=m)
        idx = stream(mix64(19, 0xB007)).integers(0, m, size=(2000, m))
        lo, hi = np.percentile(sq[idx].mean(axis=1), [2.5, 97.5])
        assert _bootstrap_ci(sq, 19) == (float(lo), float(hi))

    def test_ci_shrinks_with_replicates(self):
        r1 = mse_experiment(OU, ou_plan(n=100), 100, reference=[0.0], base_seed=11)
        r2 = mse_experiment(OU, ou_plan(n=100), 400, reference=[0.0], base_seed=11)
        w1 = r1.ci[1] - r1.ci[0]
        w2 = r2.ci[1] - r2.ci[0]
        assert w2 == pytest.approx(w1 / 2.0, rel=0.5)  # CLT: quadrupling M halves the CI

    def test_manifest_regenerates(self):
        report = mse_experiment(OU, ou_plan(n=100), 20, reference=[0.0], base_seed=13)
        man = report.manifest
        plan = TuningPlan(
            gamma=man["gamma"], n_steps=man["n_steps"], regime=man["regime"],
            constants={}, clamped=False,
        )
        again = mse_experiment(
            OU, plan, man["m_replicates"], man["reference"], man["base_seed"],
            x0=np.asarray(man["x0"]),
        )
        assert np.array_equal(again.estimates, report.estimates)
        assert again.mse == report.mse

    def test_excess_divergence_raises(self):
        steep = builtin_gaussian_location(1, 0.0, 1.0)
        plan = ou_plan(gamma=3.0, n=50)
        with pytest.raises(ExperimentError):
            mse_experiment(steep, plan, 10, reference=[0.0], base_seed=1, x0=np.array([1e6]))

    def test_two_point_eps_scaling(self):
        # MSE tracks eps^2 under the strongly convex tuning
        from cesaro_lmc.tuning import TuningInputs, tune_sc
        from cesaro_lmc.potentials import StronglyConvex

        mses = {}
        for eps in (0.2, 0.1):
            plan = tune_sc(
                TuningInputs(profile=StronglyConvex(1.0), L=1.0, d=1, eps=eps, x0_dist=0.0),
                "i",
            )
            rep = mse_experiment(OU, plan, 200, reference=[0.0], base_seed=17)
            mses[eps] = rep.mse
        ratio = mses[0.1] / mses[0.2]
        assert 1.0 / 8.0 <= ratio <= 1.0 / 2.0


class TestRateFit:
    def test_normal_equations(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.array([1.0, 2.9, 5.2, 6.8])
        fit = fit_line(x, y)
        xm, ym = x.mean(), y.mean()
        slope = np.sum((x - xm) * (y - ym)) / np.sum((x - xm) ** 2)
        assert fit.slope == pytest.approx(slope)
        assert fit.intercept == pytest.approx(ym - slope * xm)

    def test_r2_guard(self):
        rng = np.random.default_rng(0)
        fit = fit_line(np.arange(10.0), rng.standard_normal(10))
        assert not fit.slope_trustworthy()

    def test_constant_y_is_untrustworthy(self):
        # a flat y (e.g. an estimator that never moves) carries no rate information
        fit = fit_line(np.log([100.0, 400.0, 1600.0, 6400.0]), np.full(4, -2.5))
        assert fit.slope == 0.0
        assert fit.r2 == 0.0
        assert not fit.slope_trustworthy()

    def test_bayes_rate_d_scaling(self):
        # at fixed n the oracle posterior-mean MSE is linear in d
        mses = {}
        for d in (2, 4):
            model = GaussianLocationModel(d, 1.0)
            errs = []
            for i in range(400):
                data = sample_dataset(model, np.zeros(d), 200, seed=1000 * d + i)
                tm = data.observations.sum(axis=0) / 201.0
                errs.append(float(np.sum(tm**2)))
            mses[d] = np.mean(errs)
        assert mses[4] / mses[2] == pytest.approx(2.0, rel=0.30)

    def test_bayes_rate_experiment_runs(self):
        model = GaussianLocationModel(2, 1.0)
        fit = bayes_rate_experiment(model, [1.0, -1.0], [100, 400, 1600, 6400], 100, base_seed=0)
        assert fit.r2 > 0.95
        # exact conjugate MSE ~ d/n with no log factor: slope -1.18 on log(n / log n)
        assert -1.4 < fit.slope < -0.9

    def test_grid_validation(self):
        model = GaussianLocationModel(1, 1.0)
        with pytest.raises(ParameterError):
            bayes_rate_experiment(model, [0.0], [100, 50, 200, 400], 10, 0)

    @pytest.mark.compiled
    def test_oracle_is_the_models_posterior_mean(self):
        # a logistic model's posterior (compiled) has no closed-form mean
        model = LogisticModel(np.array([[1.0, 0.5], [-0.3, 1.2]]))
        with pytest.raises(CapabilityError, match="posterior mean"):
            bayes_rate_experiment(model, [0.1, 0.2], [100, 400, 1600, 6400], 5, 0)


class TestConcentration:
    def test_vacuous_bound_at_zero(self):
        model = GaussianLocationModel(1, 1.0)
        rows = concentration_check(model, [0.0], 100, [0.0], 200, seed=1)
        assert rows[0].bound == pytest.approx(2.0)
        assert rows[0].passed

    def test_printed_bound_value(self):
        model = GaussianLocationModel(1, 1.0)
        rows = concentration_check(model, [0.0], 100, [0.5], 2000, seed=2)
        assert rows[0].bound == pytest.approx(2.0 * math.exp(-100 * min(1 / 16, 1 / 4)))
        assert rows[0].passed

    def test_full_grid_passes(self):
        model = GaussianLocationModel(1, 1.0)
        rows = concentration_check(model, [0.3], 100, [0.1, 0.25, 0.5, 0.75, 1.0], 10000, seed=3)
        assert all(r.passed for r in rows)

    def test_score_version_passes(self):
        model = GaussianLocationModel(3, 1.0)
        rows = concentration_check(
            model, [0.0, 0.0, 0.0], 100, [0.3, 0.5, 1.0], 5000, seed=4, statistic="score"
        )
        assert all(r.passed for r in rows)

    def test_wrong_poincare_constant_can_fail(self):
        # understating C_P makes the bound too aggressive at moderate deltas
        model = GaussianLocationModel(1, 1.0)
        model.C_P = 0.01
        rows = concentration_check(model, [0.0], 100, [0.05], 40000, seed=5)
        assert not all(r.passed for r in rows)


@pytest.mark.parametrize("check", ["psi", "score", "test_phi"])
def test_bounds_equal_the_printed_formulas_bit_for_bit(check):
    # == on purpose: the three bounds share one tail, and its rounding must
    # stay that of each printed formula (L != 1 and d = 3 make the score's
    # operation order count)
    model = GaussianLocationModel(3, precision=1.3)
    cp, L, d, n, theta = model.C_P, model.per_obs_L, 3, 25, [0.1, 0.2, 0.3]
    c_map = SeparationMap(b1=1.3, b2=1.0, alpha_c=1.2)
    for delta in (0.05, 0.3, 0.9, 2.0, 7.0, 12.0):
        if check == "test_phi":  # delta is the separation radius r_n
            c = c_map(delta)
            got = run_test_phi(model, theta, [0.1 + 1.01 * delta, 0.2, 0.3], n, delta, c_map, 20,
                               seed=1, per_coordinate=True).bound
            want = 2.0 * d * math.exp(-n * min(c**2 / (16.0 * cp), c / (4.0 * math.sqrt(cp))))
        else:
            (row,) = concentration_check(model, theta, n, [delta], 20, seed=1, statistic=check)
            got = row.bound
            if check == "psi":
                want = 2.0 * math.exp(-n * min(delta**2 / (4.0 * cp), delta / (2.0 * math.sqrt(cp))))
            else:
                want = 2.0 * d * math.exp(-n * min(delta**2 / (4.0 * L**2 * cp * d),
                                                   delta / (2.0 * L * math.sqrt(cp * d))))
        assert 0.0 < got == want, (delta, got, want)


class TestSeparationTest:
    def test_printed_example(self):
        model = GaussianLocationModel(1, 1.0)
        rep = run_test_phi(
            model, [0.0], [1.0], 200, 1.0, SeparationMap(1.0, 1.0, 1.0), 10000, seed=6
        )
        assert rep.bound == pytest.approx(2.0 * math.exp(-200 * min(1 / 16, 1 / 4)))
        assert rep.passed

    def test_boundary_separation_accepted(self):
        model = GaussianLocationModel(1, 1.0)
        rep = run_test_phi(
            model, [0.0], [0.5], 200, 0.5, SeparationMap(1.0, 1.0, 1.0), 1000, seed=7
        )
        assert rep.c_at_r == pytest.approx(0.5)

    def test_too_close_alternative_rejected(self):
        model = GaussianLocationModel(1, 1.0)
        with pytest.raises(ParameterError):
            run_test_phi(model, [0.0], [0.3], 100, 0.5, SeparationMap(), 100, seed=8)

    def test_error_exponent_improves_with_n(self):
        model = GaussianLocationModel(1, 1.0)
        cm = SeparationMap(1.0, 1.0, 1.0)
        b1 = run_test_phi(model, [0.0], [0.6], 50, 0.6, cm, 100, seed=9).bound
        b2 = run_test_phi(model, [0.0], [0.6], 200, 0.6, cm, 100, seed=9).bound
        assert math.log(b2 / 2) == pytest.approx(4 * math.log(b1 / 2), rel=1e-9)


class TestMomentCheck:
    def test_gaussian_moments_stable(self):
        pot = builtin_gaussian_location(1, 0.0, 1.0)
        cfg = ChainConfig(gamma=moment_clamp(pot), n_steps=20000, x0=[0.0], seed=10)
        rep = moment_check(pot, cfg, p_grid=(1.0, 2.0), a=1.0 / 16.0)
        assert rep.passed
        # stationary E[W_norm^2] for W_norm = 1 + x^2/2 under N(0, ~1):
        # E[(1 + X^2/2)^2] = 1 + E X^2 + E X^4 / 4 = 2.75 at unit variance
        assert rep.sup_running_mean[2.0] < 2.0 * 2.75

    def test_trivial_zeroth_power_limit(self):
        pot = builtin_gaussian_location(1, 0.0, 1.0)
        cfg = ChainConfig(gamma=moment_clamp(pot), n_steps=2000, x0=[0.0], seed=11)
        rep = moment_check(pot, cfg, p_grid=(0.01,), a=0.01)
        assert rep.sup_running_mean[0.01] == pytest.approx(1.0, rel=0.2)

    def test_running_mean_matches_dump(self, tmp_path):
        # 8200 steps cross the single chain's 8192-step block.  From the
        # minimizer W(x0) is the smallest W, so with checkpoints=1 (logged
        # steps 0 and n-1) the sup is the final running mean of W
        from cesaro_lmc.sampler import dump_trajectory, read_trajectory

        pot = builtin_gaussian_location(2, 0.0, 1.0)
        cfg = ChainConfig(gamma=moment_clamp(pot), n_steps=8200, x0=[0.0, 0.0], seed=12)
        rep = moment_check(pot, cfg, p_grid=(1.0,), checkpoints=1)
        dump_trajectory(pot, cfg, tmp_path / "t.bin", tmp_path / "t.json", stride=1)
        frames, _ = read_trajectory(tmp_path / "t.bin", tmp_path / "t.json")
        assert frames.shape == (8200, 2)
        assert rep.first_decile_max[1.0] == float(pot.value_normalized(frames[0]))
        want = float(np.mean(pot.value_normalized(frames)))
        assert rep.sup_running_mean[1.0] == pytest.approx(want, rel=1e-12)

    def test_clamp_precondition(self):
        pot = builtin_gaussian_location(1, 0.0, 1.0)
        cfg = ChainConfig(gamma=1.0, n_steps=100, x0=[0.0], seed=0)
        with pytest.raises(ParameterError):
            moment_check(pot, cfg)

    def test_p_grid_validation(self):
        pot = builtin_gaussian_location(1, 0.0, 1.0)
        cfg = ChainConfig(gamma=moment_clamp(pot), n_steps=100, x0=[0.0], seed=0)
        with pytest.raises(ParameterError):
            moment_check(pot, cfg, p_grid=(10.0,))
        with pytest.raises(ParameterError):
            moment_check(pot, cfg, a=0.5)


class TestPerCoordinateSeparation:
    def test_union_bound_factor(self):
        model = GaussianLocationModel(3, 1.0)
        rep = run_test_phi(
            model, [0.0, 0.0, 0.0], [0.0, 1.0, 0.0], 200, 1.0,
            SeparationMap(1.0, 1.0, 1.0), 2000, seed=21, per_coordinate=True,
        )
        assert rep.bound == pytest.approx(
            2.0 * 3 * math.exp(-200 * min(1 / 16, 1 / 4))
        )
        assert rep.passed

    def test_detects_off_axis_alternative(self):
        # the scalar first-coordinate statistic is blind to this alternative;
        # the per-coordinate version sees it
        model = GaussianLocationModel(2, 1.0)
        rep = run_test_phi(
            model, [0.0, 0.0], [0.0, 1.0], 400, 1.0,
            SeparationMap(1.0, 1.0, 1.0), 2000, seed=22, per_coordinate=True,
        )
        assert rep.type2_frequency <= rep.bound + rep.slack

    def test_coordinate_separation_required(self):
        model = GaussianLocationModel(2, 1.0)
        with pytest.raises(ParameterError):
            run_test_phi(
                model, [0.0, 0.0], [0.5, 0.5], 100, 0.7,
                SeparationMap(), 100, seed=23, per_coordinate=True,
            )
