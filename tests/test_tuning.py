import math

import pytest

from cesaro_lmc.errors import CapabilityError, ParameterError
from cesaro_lmc.potentials import StronglyConvex, WeaklyConvexKL
from cesaro_lmc.tuning import (
    TuningInputs,
    audit_plan,
    compute_upsilon,
    sc_gamma_clamp,
    tune_bayes,
    tune_sc,
    tune_weak,
)

FLAT = WeaklyConvexKL(c1=1.0, c2=1.0, q=0.0, r=0.0)
PPOW = WeaklyConvexKL(c1=0.75, c2=1.5, q=1.0 / 3.0, r=1.0 / 3.0)


def weak_inputs(**kw):
    base = dict(profile=FLAT, L=1.0, d=1, eps=0.1, frak_e=0.05)
    base.update(kw)
    return TuningInputs(**base)


def sc_inputs(**kw):
    base = dict(profile=StronglyConvex(1.0), L=1.0, d=1, eps=0.1, x0_dist=0.0)
    base.update(kw)
    return TuningInputs(**base)


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
        plan = tune_weak(weak_inputs(), "i.b")
        assert plan.constants["gamma_raw"] == pytest.approx(0.01)
        assert plan.constants["n_steps_raw"] == pytest.approx(1e4)
        assert not plan.clamped
        assert plan.n_steps == 10000

    def test_ib_exponent_arithmetic(self):
        plan = tune_weak(
            TuningInputs(profile=PPOW, L=1.5, d=2, eps=0.05, frak_e=0.01), "i.b"
        )
        assert plan.constants["d_exponent_n"] == pytest.approx(1 + 4 / 3 + 0.01)
        assert plan.constants["d_exponent_gamma"] == pytest.approx(-(1 + 2 / 3 + 0.01))

    def test_ib_small_eps_precondition(self):
        with pytest.raises(ParameterError, match="requires eps"):
            tune_weak(weak_inputs(eps=1.5), "i.b")

    def test_ia_zero_distance_drops_third_term(self):
        plan = tune_weak(weak_inputs(x0_dist=0.0), "i.a")
        assert plan.constants["gamma_terms"][2] == math.inf

    def test_ia_finite_distance_enters(self):
        plan0 = tune_weak(weak_inputs(x0_dist=0.0), "i.a")
        plan1 = tune_weak(weak_inputs(x0_dist=100.0), "i.a")
        assert plan1.constants["gamma_terms"][2] < plan0.constants["gamma_terms"][1]

    def test_iia_needs_c3_data(self):
        with pytest.raises(CapabilityError):
            tune_weak(weak_inputs(), "ii.a")

    def test_iia_formula(self):
        plan = tune_weak(weak_inputs(L_tilde=1.0, lap_grad_sup=1.0), "ii.a")
        c21 = plan.constants["c_2_1"]
        c12 = plan.constants["c_1_2"]
        assert plan.constants["gamma_raw"] == pytest.approx(c21 * 0.1)
        assert plan.constants["n_steps_raw"] == pytest.approx(c12 / c21 * 1e3)

    def test_iib_needs_rho_lap(self):
        with pytest.raises(CapabilityError):
            tune_weak(weak_inputs(L_tilde=1.0, lap_grad_sup=1.0), "ii.b")

    def test_iib_formula(self):
        plan = tune_weak(
            TuningInputs(
                profile=PPOW, L=1.5, d=2, eps=0.01, frak_e=0.02,
                L_tilde=1.0, lap_grad_sup=1.0, rho_lap=1.5,
            ),
            "ii.b",
        )
        ratio = (1 / 3) / (1 + 1 / 3 - 1 / 3)
        g_expect = 0.01 * 2 ** (-max(1 + 2 * ratio, 1.5 + ratio) - 0.02)
        n_expect = 0.01**-3 * 2 * 2 ** (max(1 + 4 * ratio, 1.5 + 3 * ratio) + 0.02)
        assert plan.constants["gamma_raw"] == pytest.approx(g_expect)
        assert plan.constants["n_steps_raw"] == pytest.approx(n_expect)

    def test_unknown_variant(self):
        with pytest.raises(ParameterError):
            tune_weak(weak_inputs(), "iii")


class TestScTunings:
    def test_printed_example(self):
        plan = tune_sc(sc_inputs(), "i")
        assert plan.gamma == pytest.approx(0.01)
        assert plan.n_steps == 10000
        assert plan.constants["gamma_terms"][2] == math.inf

    def test_gamma_cap_branch(self):
        # large eps: the rho/L^2 cap wins and the moment clamp bites
        plan = tune_sc(sc_inputs(eps=10.0), "i")
        assert plan.constants["gamma_terms"][1] == pytest.approx(1.0)
        assert plan.gamma <= sc_gamma_clamp(1, 1.0)
        assert plan.clamped

    def test_sc_ii_all_ones(self):
        plan = tune_sc(sc_inputs(L_tilde=1.0, lap_grad_sup=0.0), "ii")
        assert plan.constants["b2"] == pytest.approx(4.0)
        assert plan.gamma == pytest.approx(0.05)
        assert plan.n_steps == 2000

    def test_sc_ii_needs_c3(self):
        with pytest.raises(CapabilityError):
            tune_sc(sc_inputs(), "ii")


class TestScalingLaws:
    def test_n_ratio_16_for_ib_and_sc_i(self):
        for make, variant in ((weak_inputs, "i.b"), (sc_inputs, "i")):
            tune = tune_weak if variant == "i.b" else tune_sc
            p1 = tune(make(eps=0.02), variant)
            p2 = tune(make(eps=0.01), variant)
            ratio = p2.constants["n_steps_raw"] / p1.constants["n_steps_raw"]
            assert ratio == pytest.approx(16.0, rel=1e-12)
            assert not p1.clamped and not p2.clamped

    def test_n_ratio_8_for_sc_ii_and_iib(self):
        p1 = tune_sc(sc_inputs(eps=0.02, L_tilde=1.0, lap_grad_sup=0.0), "ii")
        p2 = tune_sc(sc_inputs(eps=0.01, L_tilde=1.0, lap_grad_sup=0.0), "ii")
        assert p2.constants["n_steps_raw"] / p1.constants["n_steps_raw"] == pytest.approx(
            8.0, rel=1e-12
        )
        kw = dict(L_tilde=1.0, lap_grad_sup=1.0, rho_lap=1.0)
        q1 = tune_weak(weak_inputs(eps=0.01, **kw), "ii.b")
        q2 = tune_weak(weak_inputs(eps=0.005, **kw), "ii.b")
        assert q2.constants["n_steps_raw"] / q1.constants["n_steps_raw"] == pytest.approx(
            8.0, rel=1e-12
        )
        assert not q1.clamped and not q2.clamped

    def test_gamma_ratio_4_for_sc_i(self):
        p1 = tune_sc(sc_inputs(eps=0.01), "i")
        p2 = tune_sc(sc_inputs(eps=0.02), "i")
        assert p2.gamma / p1.gamma == pytest.approx(4.0, rel=1e-12)

    def test_calibration_moves_both(self):
        p1 = tune_sc(sc_inputs(), "i")
        p2 = tune_sc(sc_inputs(calib=2.0), "i")
        assert p2.gamma == pytest.approx(p1.gamma / 2.0)
        assert p2.constants["n_steps_real"] == pytest.approx(2.0 * p1.constants["n_steps_real"])


class TestClampBehavior:
    def test_clamp_preserves_horizon(self):
        plan = tune_weak(weak_inputs(eps=0.9, d_prime=1, profile=PPOW, L=1.5), "i.a")
        if not plan.clamped:
            pytest.skip("parameters did not trigger the clamp")
        raw_t = plan.constants["gamma_raw"] * plan.constants["n_steps_raw"]
        assert plan.gamma * plan.constants["n_steps_real"] == pytest.approx(raw_t, rel=1e-9)
        assert plan.t_horizon >= raw_t * (1 - 1e-9)  # integer ceiling only adds time

    def test_every_plan_respects_its_clamp(self):
        plans = [
            tune_weak(weak_inputs(), "i.b"),
            tune_weak(weak_inputs(eps=0.9), "i.a"),
            tune_sc(sc_inputs(eps=5.0), "i"),
        ]
        for plan in plans:
            assert plan.gamma <= plan.constants["gamma_clamp"] + 1e-15
            assert plan.n_steps >= 1

    def test_audit_reproduces_all(self):
        plans = [
            tune_weak(weak_inputs(), "i.b"),
            tune_weak(weak_inputs(x0_dist=2.0), "i.a"),
            tune_weak(weak_inputs(L_tilde=1.0, lap_grad_sup=1.0), "ii.a"),
            tune_sc(sc_inputs(), "i"),
            tune_sc(sc_inputs(L_tilde=1.0, lap_grad_sup=0.0), "ii"),
        ]
        assert all(audit_plan(p) for p in plans)


class TestBayesTunings:
    def test_sc_ia_printed_example(self):
        plan = tune_bayes(
            TuningInputs(profile=StronglyConvex(1.0), L=1.0, d=4, eps=1.0),
            n=100, alpha_c=1.0, regime="sc-i.a",
        )
        assert plan.gamma == pytest.approx(1e-4)
        assert plan.n_steps == 100
        # a model that declares no Poincare constant is tuned with C_P = 1, and the plan says so
        assert (plan.constants["C_P"], plan.constants["C_P_assumed"]) == (1.0, True)
        declared = tune_bayes(
            TuningInputs(profile=StronglyConvex(1.0), L=1.0, d=4, eps=1.0),
            n=100, alpha_c=1.0, regime="sc-i.a", C_P=2,
        )
        assert (declared.constants["C_P"], declared.constants["C_P_assumed"]) == (2.0, False)
        assert declared.constants["eps_n"] == pytest.approx(math.sqrt(2) * plan.constants["eps_n"])

    def test_weak_ii_matches_sc_ia(self):
        pa = tune_bayes(
            TuningInputs(profile=StronglyConvex(1.0), L=1.0, d=4, eps=1.0),
            n=100, alpha_c=1.0, regime="sc-i.a",
        )
        pw = tune_bayes(
            TuningInputs(profile=FLAT, L=1.0, d=4, eps=1.0),
            n=100, alpha_c=1.0, regime="weak-ii",
        )
        assert pw.gamma == pa.gamma
        assert pw.n_steps == pa.n_steps

    def test_sc_ib_printed_example(self):
        plan = tune_bayes(
            TuningInputs(profile=StronglyConvex(1.0), L=1.0, d=100, eps=1.0),
            n=64, alpha_c=1.0, regime="sc-i.b", certified_x0=True,
        )
        assert plan.gamma == pytest.approx(1.0 / 64.0)
        assert plan.n_steps == 100

    def test_sc_ib_requires_certification(self):
        with pytest.raises(CapabilityError):
            tune_bayes(
                TuningInputs(profile=StronglyConvex(1.0), L=1.0, d=2, eps=1.0),
                n=64, alpha_c=1.0, regime="sc-i.b",
            )

    def test_d_exceeding_n_rejected_for_eps_regimes(self):
        with pytest.raises(ParameterError):
            tune_bayes(
                TuningInputs(profile=StronglyConvex(1.0), L=1.0, d=100, eps=1.0),
                n=64, alpha_c=1.0, regime="sc-i.a",
            )

    def test_weak_i_as_printed(self):
        r = 1.0 / 3.0
        plan = tune_bayes(
            TuningInputs(profile=PPOW, L=1.5, d=2, eps=1.0),
            n=100, alpha_c=2.0, regime="weak-i",
        )
        ai = 0.5
        assert plan.constants["gamma_raw"] == pytest.approx(
            2 ** (-(2 * r + 1 - ai)) * 100 ** (-2 * r - ai)
        )
        assert plan.constants["n_steps_raw"] == pytest.approx(
            100 ** (2 * ai + 4 * r) * 2 ** (1 + 4 * r - 2 * ai)
        )

    def test_weak_iii_max_terms(self):
        plan = tune_bayes(
            TuningInputs(profile=PPOW, L=1.5, d=2, eps=1.0),
            n=400, alpha_c=1.0, regime="weak-iii",
        )
        g1, g2 = plan.constants["gamma_terms"]
        assert plan.constants["gamma_raw"] == pytest.approx(min(g1, g2))
        m1, m2 = plan.constants["n_terms"]
        assert plan.constants["n_steps_raw"] == pytest.approx(
            max(m1, m2) / plan.constants["gamma_raw"]
        )

    def test_eps_n_recorded(self):
        plan = tune_bayes(
            TuningInputs(profile=StronglyConvex(1.0), L=1.0, d=2, eps=1.0),
            n=100, alpha_c=1.0, regime="sc-i.a", C_P=2.0,
        )
        expect = math.sqrt(2.0 * 2 * math.log(100) / 100)
        assert plan.constants["eps_n"] == pytest.approx(expect)

    def test_small_n_rejected(self):
        with pytest.raises(ParameterError):
            tune_bayes(
                TuningInputs(profile=StronglyConvex(1.0), L=1.0, d=1, eps=1.0),
                n=1, alpha_c=1.0, regime="sc-i.a",
            )


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
        plans = [tune_weak(weak_inputs(eps=e), "i.b") for e in (0.2, 0.1, 0.05)]
        assert self._slope(plans) == pytest.approx(-4.0, abs=1e-9)
        plans = [tune_sc(sc_inputs(eps=e), "i") for e in (0.2, 0.1, 0.05)]
        assert self._slope(plans) == pytest.approx(-4.0, abs=1e-9)

    def test_minus_three_family(self):
        plans = [
            tune_sc(sc_inputs(eps=e, L_tilde=1.0, lap_grad_sup=0.0), "ii")
            for e in (0.2, 0.1, 0.05)
        ]
        assert self._slope(plans) == pytest.approx(-3.0, abs=1e-9)
        plans = [
            tune_weak(weak_inputs(eps=e, L_tilde=1.0, lap_grad_sup=1.0), "ii.a")
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
            inputs = TuningInputs(
                profile=prof, L=2 * p, d=d, eps=float(rng.uniform(0.01, 0.5)),
                frak_e=float(rng.uniform(0.01, 0.5)),
                x0_dist=float(rng.uniform(0.0, 5.0)),
                calib=float(rng.uniform(0.5, 2.0)),
                L_tilde=float(rng.uniform(0.1, 5.0)),
                lap_grad_sup=float(rng.uniform(0.0, 5.0)),
                rho_lap=float(rng.uniform(0.0, 1.5)),
            )
            for variant in ("i.a", "i.b", "ii.a", "ii.b"):
                try:
                    plan = tune_weak(inputs, variant)
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
            inputs = TuningInputs(
                profile=StronglyConvex(rho), L=L, d=int(rng.integers(1, 10)),
                eps=float(rng.uniform(0.01, 1.0)), x0_dist=float(rng.uniform(0.0, 5.0)),
                L_tilde=float(rng.uniform(0.0, 5.0)) or 1.0,
                lap_grad_sup=float(rng.uniform(0.0, 5.0)),
            )
            for variant in ("i", "ii"):
                plan = tune_sc(inputs, variant)
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
            sc_inputs_ = TuningInputs(
                profile=StronglyConvex(1.0), L=1.0, d=d, eps=1.0
            )
            plan = tune_bayes(sc_inputs_, n=n, alpha_c=alpha, regime="sc-i.a")
            assert plan.n_steps >= 1 and audit_plan(plan)
            p = rng.uniform(0.55, 1.0)
            r = (1 - p) / p
            weak_inputs_ = TuningInputs(
                profile=WeaklyConvexKL(2 * p * (2 * p - 1), 2 * p, r, r),
                L=2 * p, d=d, eps=1.0,
            )
            for regime in ("weak-i", "weak-iii"):
                plan = tune_bayes(weak_inputs_, n=n, alpha_c=alpha, regime=regime)
                assert plan.n_steps >= 1 and audit_plan(plan)
