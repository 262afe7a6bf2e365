import math
from types import SimpleNamespace

import pytest

from cesaro_lmc.bayes import GaussianLocationModel
from cesaro_lmc.errors import CapabilityError, ParameterError
from cesaro_lmc.potentials import Smoothness, StronglyConvex, WeaklyConvexKL, builtin_p_power
from cesaro_lmc.tuning import (
    audit_plan,
    compute_upsilon,
    epsilon_n,
    sc_gamma_clamp,
    tune_bayes,
    tune_sc,
    tune_weak,
)

FLAT = WeaklyConvexKL(c1=1.0, c2=1.0, q=0.0, r=0.0)
PPOW = WeaklyConvexKL(c1=0.75, c2=1.5, q=1.0 / 3.0, r=1.0 / 3.0)


def potential(profile, L, d, **c3):
    """A potential's constants, the ones tune_weak and tune_sc read; ``c3`` gives the
    smoothness's L_tilde, lap_grad_sup and rho_lap."""
    return SimpleNamespace(dim=d, profile=profile, smoothness=Smoothness(L, **c3))


def weak_pot(profile=FLAT, L=1.0, d=1, **c3):
    return potential(profile, L, d, **c3)


def sc_pot(**c3):
    return potential(StronglyConvex(1.0), 1.0, 1, **c3)


def per_obs(profile, L, d, alpha_c=1.0, C_P=None, b1=1.0):
    """A model's per-observation constants, the ones tune_bayes reads."""
    return SimpleNamespace(per_obs_profile=profile, per_obs_L=L, d=d, alpha_c=alpha_c,
                           C_P=C_P, b1=b1)


class TestUpsilon:
    def test_unit_case(self):
        assert compute_upsilon(FLAT, L=1.0, d=1) == 1.0  # max(1, log 2)

    def test_flat_profile_scaling(self):
        # q = r = 0: Upsilon proportional to (L/c1) d log(1 + dL)
        prof = WeaklyConvexKL(c1=0.5, c2=3.0, q=0.0, r=0.0)
        u = compute_upsilon(prof, L=3.0, d=20)
        assert u == pytest.approx((3.0 / 0.5) * 20 * math.log(1 + 20 * 3.0))

    def test_monotone_in_d(self):
        for prof in (FLAT, PPOW):
            vals = [compute_upsilon(prof, L=2.0, d=d) for d in (1, 2, 5, 20)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_lower_bound_one(self):
        assert compute_upsilon(WeaklyConvexKL(100.0, 0.1, 0.0, 0.0), L=0.1, d=1) == 1.0


class TestWeakTunings:
    def test_ib_printed_example(self):
        # d = 1 so the frak_e power is invisible: gamma = eps^2, N = eps^-4
        plan = tune_weak(weak_pot(), 0.1, "i.b")
        assert plan.constants["gamma_raw"] == pytest.approx(0.01)
        assert plan.constants["n_steps_raw"] == pytest.approx(1e4)
        assert not plan.clamped
        assert plan.n_steps == 10000

    def test_ib_exponent_arithmetic(self):
        plan = tune_weak(weak_pot(PPOW, L=1.5, d=2), 0.05, "i.b", frak_e=0.01)
        assert plan.constants["d_exponent_n"] == pytest.approx(1 + 4 / 3 + 0.01)
        assert plan.constants["d_exponent_gamma"] == pytest.approx(-(1 + 2 / 3 + 0.01))

    def test_ib_small_eps_precondition(self):
        with pytest.raises(ParameterError, match="requires eps"):
            tune_weak(weak_pot(), 1.5, "i.b")

    def test_ia_zero_distance_drops_third_term(self):
        plan = tune_weak(weak_pot(), 0.1, "i.a", x0_dist=0.0)
        assert plan.constants["gamma_terms"][2] == math.inf

    def test_ia_finite_distance_enters(self):
        plan0 = tune_weak(weak_pot(), 0.1, "i.a", x0_dist=0.0)
        plan1 = tune_weak(weak_pot(), 0.1, "i.a", x0_dist=100.0)
        assert plan1.constants["gamma_terms"][2] < plan0.constants["gamma_terms"][1]

    def test_iia_needs_c3_data(self):
        with pytest.raises(CapabilityError):
            tune_weak(weak_pot(), 0.1, "ii.a")

    def test_iia_formula(self):
        plan = tune_weak(weak_pot(L_tilde=1.0, lap_grad_sup=1.0), 0.1, "ii.a")
        c21 = plan.constants["c_2_1"]
        c12 = plan.constants["c_1_2"]
        assert plan.constants["gamma_raw"] == pytest.approx(c21 * 0.1)
        assert plan.constants["n_steps_raw"] == pytest.approx(c12 / c21 * 1e3)

    def test_iib_needs_rho_lap(self):
        with pytest.raises(CapabilityError):
            tune_weak(weak_pot(L_tilde=1.0, lap_grad_sup=1.0), 0.1, "ii.b")

    def test_iib_formula(self):
        pot = weak_pot(PPOW, L=1.5, d=2, L_tilde=1.0, lap_grad_sup=1.0, rho_lap=1.5)
        plan = tune_weak(pot, 0.01, "ii.b", frak_e=0.02)
        ratio = (1 / 3) / (1 + 1 / 3 - 1 / 3)
        g_expect = 0.01 * 2 ** (-max(1 + 2 * ratio, 1.5 + ratio) - 0.02)
        n_expect = 0.01**-3 * 2 * 2 ** (max(1 + 4 * ratio, 1.5 + 3 * ratio) + 0.02)
        assert plan.constants["gamma_raw"] == pytest.approx(g_expect)
        assert plan.constants["n_steps_raw"] == pytest.approx(n_expect)

    def test_unknown_variant(self):
        with pytest.raises(ParameterError):
            tune_weak(weak_pot(), 0.1, "iii")


class TestScTunings:
    def test_printed_example(self):
        plan = tune_sc(sc_pot(), 0.1, "i")
        assert plan.gamma == pytest.approx(0.01)
        assert plan.n_steps == 10000
        assert plan.constants["gamma_terms"][2] == math.inf

    def test_gamma_cap_branch(self):
        # large eps: the rho/L^2 cap wins and the moment clamp bites
        plan = tune_sc(sc_pot(), 10.0, "i")
        assert plan.constants["gamma_terms"][1] == pytest.approx(1.0)
        assert plan.gamma <= sc_gamma_clamp(1, 1.0)
        assert plan.clamped

    def test_sc_ii_all_ones(self):
        plan = tune_sc(sc_pot(L_tilde=1.0, lap_grad_sup=0.0), 0.1, "ii")
        assert plan.constants["b2"] == pytest.approx(4.0)
        assert plan.gamma == pytest.approx(0.05)
        assert plan.n_steps == 2000

    def test_sc_ii_needs_c3(self):
        with pytest.raises(CapabilityError):
            tune_sc(sc_pot(), 0.1, "ii")


C3 = dict(L_tilde=1.0, lap_grad_sup=1.0, rho_lap=1.0)
BAD_OPTIONS = [({"eps": 0.0}, "eps must be positive"), ({"eps": -0.1}, "eps must be positive"),
               ({"calib": 0.0}, "calib must be positive"), ({"calib": -1.0}, "calib must be positive"),
               ({"x0_dist": -0.5}, "x0_dist must be nonnegative")]
BAD_FRAK_E = [({"frak_e": e}, r"frak_e must lie in \(0, 1\)") for e in (0.0, 1.0, 1.5, -0.2)]


class TestOptionRefusals:
    """Each potential tuning refuses an option outside its range, whatever the variant."""

    @pytest.mark.parametrize("variant", ["i.a", "i.b", "ii.a", "ii.b"])
    @pytest.mark.parametrize("bad, message", BAD_OPTIONS + BAD_FRAK_E)
    def test_weak(self, variant, bad, message):
        opts = {"eps": 0.1, **bad}
        with pytest.raises(ParameterError, match=message):
            tune_weak(weak_pot(**C3), opts.pop("eps"), variant, **opts)

    @pytest.mark.parametrize("variant", ["i", "ii"])
    @pytest.mark.parametrize("bad, message", BAD_OPTIONS)
    def test_sc(self, variant, bad, message):
        opts = {"eps": 0.1, **bad}
        with pytest.raises(ParameterError, match=message):
            tune_sc(sc_pot(**C3), opts.pop("eps"), variant, **opts)


class TestArithmeticRefusals:
    """A plan whose floating-point arithmetic fails, or gives a gamma, N or
    constant that is not finite, is refused in one line naming its regime
    and eps (eps_n for a bayes plan)."""

    @pytest.mark.parametrize("tune, message", [
        (lambda: tune_sc(sc_pot(), 1e-300, "i"), "tuning sc-i at eps=1e-300: .* divides by 0"),
        (lambda: tune_sc(sc_pot(), 1e300, "i"), "tuning sc-i at eps=1e[+]300: .* overflows"),
        (lambda: tune_sc(potential(StronglyConvex(1e-300), 1.0, 1), 0.1, "i"),
         "tuning sc-i at eps=0.1: .* divides by 0"),
        (lambda: tune_sc(potential(StronglyConvex(1.0), 1e300, 1), 0.1, "i"),
         "tuning sc-i at eps=0.1: .* overflows"),
        (lambda: tune_sc(sc_pot(), 0.1, "i", calib=1e308), "tuning sc-i at eps=0.1: .* gives N = inf"),
        (lambda: tune_weak(weak_pot(PPOW), 1e-300, "i.a"), "tuning weak-i.a at eps=1e-300"),
        (lambda: tune_weak(weak_pot(PPOW, L=1e300, **C3), 0.1, "ii.a"),
         "tuning weak-ii.a at eps=0.1"),
        (lambda: tune_bayes(GaussianLocationModel(2, 1e300), n=400, regime="sc-i.a"),
         "tuning bayes-sc-i.a: eps_n = .* is not finite at C_P=1e-300, L=1e[+]300"),
    ], ids=["sc-eps-tiny", "sc-eps-huge", "sc-rho-tiny", "sc-L-huge", "sc-calib-huge",
            "weak-eps-tiny", "weak-L-huge", "bayes-precision-huge"])
    def test_refused_in_one_line(self, tune, message):
        with pytest.raises(ParameterError, match=message) as exc:
            tune()
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("C_P, L", [(1.0, 1e300), (1e300, 1e10), (math.inf, 1.0)])
    def test_epsilon_n_refuses_what_is_not_finite(self, C_P, L):
        with pytest.raises(ParameterError, match="eps_n = .* is not finite"):
            epsilon_n(C_P, L, 1.0, 2, 400)


class TestScalingLaws:
    def test_n_ratio_16_for_ib_and_sc_i(self):
        for make, variant in ((weak_pot, "i.b"), (sc_pot, "i")):
            tune = tune_weak if variant == "i.b" else tune_sc
            p1 = tune(make(), 0.02, variant)
            p2 = tune(make(), 0.01, variant)
            ratio = p2.constants["n_steps_raw"] / p1.constants["n_steps_raw"]
            assert ratio == pytest.approx(16.0, rel=1e-12)
            assert not p1.clamped and not p2.clamped

    def test_n_ratio_8_for_sc_ii_and_iib(self):
        pot = sc_pot(L_tilde=1.0, lap_grad_sup=0.0)
        p1 = tune_sc(pot, 0.02, "ii")
        p2 = tune_sc(pot, 0.01, "ii")
        assert p2.constants["n_steps_raw"] / p1.constants["n_steps_raw"] == pytest.approx(
            8.0, rel=1e-12
        )
        pot = weak_pot(L_tilde=1.0, lap_grad_sup=1.0, rho_lap=1.0)
        q1 = tune_weak(pot, 0.01, "ii.b")
        q2 = tune_weak(pot, 0.005, "ii.b")
        assert q2.constants["n_steps_raw"] / q1.constants["n_steps_raw"] == pytest.approx(
            8.0, rel=1e-12
        )
        assert not q1.clamped and not q2.clamped

    def test_gamma_ratio_4_for_sc_i(self):
        p1 = tune_sc(sc_pot(), 0.01, "i")
        p2 = tune_sc(sc_pot(), 0.02, "i")
        assert p2.gamma / p1.gamma == pytest.approx(4.0, rel=1e-12)

    def test_calibration_moves_both(self):
        p1 = tune_sc(sc_pot(), 0.1, "i")
        p2 = tune_sc(sc_pot(), 0.1, "i", calib=2.0)
        assert p2.gamma == pytest.approx(p1.gamma / 2.0)
        assert p2.constants["n_steps_real"] == pytest.approx(2.0 * p1.constants["n_steps_real"])


class TestClampBehavior:
    def test_clamp_preserves_horizon(self):
        plan = tune_weak(weak_pot(PPOW, L=1.5), 0.9, "i.a")
        if not plan.clamped:
            pytest.skip("parameters did not trigger the clamp")
        raw_t = plan.constants["gamma_raw"] * plan.constants["n_steps_raw"]
        assert plan.gamma * plan.constants["n_steps_real"] == pytest.approx(raw_t, rel=1e-9)
        assert plan.t_horizon >= raw_t * (1 - 1e-9)  # integer ceiling only adds time

    @pytest.mark.parametrize("options", [{}, {"calib": 2.0}, {"calib": 3.0}, {"frak_e": 0.2}])
    def test_a_biting_clamp_cancels_calib_and_frak_e(self, options):
        """gamma is the clamp and N = n_raw gamma_raw / clamp: calib cancels, and so
        does frak_e for weak-i.b, whose gamma_raw n_raw does not depend on it."""
        plan = tune_weak(builtin_p_power(2), 0.5, "i.b", **options)
        assert plan.clamped and (plan.gamma, plan.n_steps) == (0.015625, 813)

    def test_every_plan_respects_its_clamp(self):
        plans = [
            tune_weak(weak_pot(), 0.1, "i.b"),
            tune_weak(weak_pot(), 0.9, "i.a"),
            tune_sc(sc_pot(), 5.0, "i"),
        ]
        for plan in plans:
            assert plan.gamma <= plan.constants["gamma_clamp"] + 1e-15
            assert plan.n_steps >= 1

    def test_audit_reproduces_all(self):
        plans = [
            tune_weak(weak_pot(), 0.1, "i.b"),
            tune_weak(weak_pot(), 0.1, "i.a", x0_dist=2.0),
            tune_weak(weak_pot(L_tilde=1.0, lap_grad_sup=1.0), 0.1, "ii.a"),
            tune_sc(sc_pot(), 0.1, "i"),
            tune_sc(sc_pot(L_tilde=1.0, lap_grad_sup=0.0), 0.1, "ii"),
        ]
        assert all(audit_plan(p) for p in plans)


class TestBayesTunings:
    def test_sc_ia_printed_example(self):
        plan = tune_bayes(per_obs(StronglyConvex(1.0), 1.0, 4), n=100, regime="sc-i.a")
        assert plan.gamma == pytest.approx(1e-4)
        assert plan.n_steps == 100
        # a model that declares no Poincare constant is tuned with C_P = 1, and the plan says so
        assert (plan.constants["C_P"], plan.constants["C_P_assumed"]) == (1.0, True)
        declared = tune_bayes(per_obs(StronglyConvex(1.0), 1.0, 4, C_P=2), n=100, regime="sc-i.a")
        assert (declared.constants["C_P"], declared.constants["C_P_assumed"]) == (2.0, False)
        assert declared.constants["eps_n"] == pytest.approx(math.sqrt(2) * plan.constants["eps_n"])

    def test_weak_ii_matches_sc_ia(self):
        pa = tune_bayes(per_obs(StronglyConvex(1.0), 1.0, 4), n=100, regime="sc-i.a")
        pw = tune_bayes(per_obs(FLAT, 1.0, 4), n=100, regime="weak-ii")
        assert pw.gamma == pa.gamma
        assert pw.n_steps == pa.n_steps

    def test_sc_ib_printed_example(self):
        plan = tune_bayes(per_obs(StronglyConvex(1.0), 1.0, 100), n=64, regime="sc-i.b",
                          certified_x0=True)
        assert plan.gamma == pytest.approx(1.0 / 64.0)
        assert plan.n_steps == 100

    def test_sc_ib_requires_certification(self):
        with pytest.raises(CapabilityError):
            tune_bayes(per_obs(StronglyConvex(1.0), 1.0, 2), n=64, regime="sc-i.b")

    def test_d_exceeding_n_rejected_for_eps_regimes(self):
        with pytest.raises(ParameterError):
            tune_bayes(per_obs(StronglyConvex(1.0), 1.0, 100), n=64, regime="sc-i.a")

    def test_weak_i_as_printed(self):
        r = 1.0 / 3.0
        plan = tune_bayes(per_obs(PPOW, 1.5, 2, alpha_c=2.0), n=100, regime="weak-i")
        ai = 0.5
        assert plan.constants["gamma_raw"] == pytest.approx(
            2 ** (-(2 * r + 1 - ai)) * 100 ** (-2 * r - ai)
        )
        assert plan.constants["n_steps_raw"] == pytest.approx(
            100 ** (2 * ai + 4 * r) * 2 ** (1 + 4 * r - 2 * ai)
        )

    def test_weak_iii_max_terms(self):
        plan = tune_bayes(per_obs(PPOW, 1.5, 2), n=400, regime="weak-iii")
        g1, g2 = plan.constants["gamma_terms"]
        assert plan.constants["gamma_raw"] == pytest.approx(min(g1, g2))
        m1, m2 = plan.constants["n_terms"]
        assert plan.constants["n_steps_raw"] == pytest.approx(
            max(m1, m2) / plan.constants["gamma_raw"]
        )

    def test_eps_n_recorded(self):
        plan = tune_bayes(per_obs(StronglyConvex(1.0), 1.0, 2, C_P=2.0), n=100, regime="sc-i.a")
        expect = math.sqrt(2.0 * 2 * math.log(100) / 100)
        assert plan.constants["eps_n"] == pytest.approx(expect)

    def test_small_n_rejected(self):
        with pytest.raises(ParameterError):
            tune_bayes(per_obs(StronglyConvex(1.0), 1.0, 1), n=1, regime="sc-i.a")

    def test_nonpositive_calib_rejected(self):
        for calib in (0.0, -1.0):
            with pytest.raises(ParameterError, match="calib must be positive"):
                tune_bayes(GaussianLocationModel(2, 1.0), n=100, regime="sc-i.a", calib=calib)

    def test_model_b1_decides_eps_n_valid(self):
        """eps_n = 0.173 at n = 400, d = 2: valid for b1 = 1, not for b1 eps_n = 8.7 > 1."""
        for b1, valid in ((1.0, True), (50.0, False)):
            plan = tune_bayes(GaussianLocationModel(2, 1.0, b1=b1), n=400, regime="sc-i.a")
            assert plan.constants["eps_n"] == pytest.approx(0.1731, abs=1e-4)
            assert plan.constants["eps_n_valid"] is valid


class TestTableOneSlopes:
    """Fitted log N / log eps slopes over {0.2, 0.1, 0.05} match the
    closed-form orders exactly (the formulas are deterministic)."""

    def _slope(self, plans):
        import math as _m

        from cesaro_lmc.diagnostics import fit_line

        eps = [0.2, 0.1, 0.05]
        fit = fit_line(
            [_m.log(e) for e in eps],
            [_m.log(p.constants["n_steps_raw"]) for p in plans],
        )
        assert fit.r2 > 1 - 1e-12
        return fit.slope

    def test_minus_four_family(self):
        plans = [tune_weak(weak_pot(), e, "i.b") for e in (0.2, 0.1, 0.05)]
        assert self._slope(plans) == pytest.approx(-4.0, abs=1e-9)
        plans = [tune_sc(sc_pot(), e, "i") for e in (0.2, 0.1, 0.05)]
        assert self._slope(plans) == pytest.approx(-4.0, abs=1e-9)

    def test_minus_three_family(self):
        plans = [
            tune_sc(sc_pot(L_tilde=1.0, lap_grad_sup=0.0), e, "ii")
            for e in (0.2, 0.1, 0.05)
        ]
        assert self._slope(plans) == pytest.approx(-3.0, abs=1e-9)
        plans = [
            tune_weak(weak_pot(L_tilde=1.0, lap_grad_sup=1.0), e, "ii.a")
            for e in (0.2, 0.1, 0.05)
        ]
        assert self._slope(plans) == pytest.approx(-3.0, abs=1e-9)


class TestRandomizedPlanSweep:
    """Seeded sweep: every generated plan honors its own invariants."""

    def test_weak_family_sweep(self):
        import numpy as np

        from cesaro_lmc.potentials import WeaklyConvexKL

        rng = np.random.default_rng(2024)
        for _ in range(200):
            p = rng.uniform(0.55, 1.0)
            r = (1 - p) / p
            prof = WeaklyConvexKL(2 * p * (2 * p - 1), 2 * p, r, r)
            d = int(rng.integers(1, 8))
            # drawn in the order the sweep has always drawn them
            eps = float(rng.uniform(0.01, 0.5))
            opts = dict(frak_e=float(rng.uniform(0.01, 0.5)),
                        x0_dist=float(rng.uniform(0.0, 5.0)),
                        calib=float(rng.uniform(0.5, 2.0)))
            pot = weak_pot(prof, L=2 * p, d=d, L_tilde=float(rng.uniform(0.1, 5.0)),
                           lap_grad_sup=float(rng.uniform(0.0, 5.0)),
                           rho_lap=float(rng.uniform(0.0, 1.5)))
            for variant in ("i.a", "i.b", "ii.a", "ii.b"):
                try:
                    plan = tune_weak(pot, eps, variant, **opts)
                except Exception as exc:
                    from cesaro_lmc.errors import ParameterError as PE

                    assert isinstance(exc, PE), f"{variant}: {exc!r}"
                    continue
                assert plan.gamma > 0
                assert plan.gamma <= plan.constants["gamma_clamp"] * (1 + 1e-12)
                assert plan.n_steps >= 1
                assert audit_plan(plan), variant

    def test_sc_family_sweep(self):
        import numpy as np

        from cesaro_lmc.potentials import StronglyConvex

        rng = np.random.default_rng(77)
        for _ in range(200):
            rho = float(rng.uniform(0.1, 2.0))
            L = rho * float(rng.uniform(1.0, 5.0))
            d = int(rng.integers(1, 10))
            eps, x0_dist = float(rng.uniform(0.01, 1.0)), float(rng.uniform(0.0, 5.0))
            pot = potential(StronglyConvex(rho), L, d,
                            L_tilde=float(rng.uniform(0.0, 5.0)) or 1.0,
                            lap_grad_sup=float(rng.uniform(0.0, 5.0)))
            for variant in ("i", "ii"):
                plan = tune_sc(pot, eps, variant, x0_dist=x0_dist)
                assert plan.gamma > 0 and plan.n_steps >= 1
                assert plan.gamma <= plan.constants["gamma_clamp"] * (1 + 1e-12)
                assert audit_plan(plan)

    def test_bayes_family_sweep(self):
        import numpy as np

        from cesaro_lmc.potentials import StronglyConvex, WeaklyConvexKL

        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(4, 5000))
            d = int(rng.integers(1, min(n, 10) + 1))
            alpha = float(rng.uniform(1.0, 3.0))
            plan = tune_bayes(per_obs(StronglyConvex(1.0), 1.0, d, alpha_c=alpha), n=n,
                              regime="sc-i.a")
            assert plan.n_steps >= 1 and audit_plan(plan)
            p = rng.uniform(0.55, 1.0)
            r = (1 - p) / p
            model = per_obs(WeaklyConvexKL(2 * p * (2 * p - 1), 2 * p, r, r), 2 * p, d,
                            alpha_c=alpha)
            for regime in ("weak-i", "weak-iii"):
                plan = tune_bayes(model, n=n, regime=regime)
                assert plan.n_steps >= 1 and audit_plan(plan)
