"""Closed-form step-size / iteration-count prescriptions.

Every tuning below evaluates a printed formula verbatim: the weakly convex
family (variants i.a, i.b, ii.a, ii.b) and the strongly convex family
(variants i, ii), which read a potential's ``profile``, ``smoothness`` and
``dim``, and the sample-size-indexed Bayesian tunings (weak i/ii/iii and
strongly convex i.a/i.b), which read a model's per-observation constants.
The averaged statistic is the identity, so its output dimension d' is d.
Plans record every intermediate quantity so the final (gamma, N) can be
audited by substitution.

Universal constants hidden in the order statements are represented by a
single calibration factor ``calib`` multiplying N and dividing gamma.
After the formula is evaluated, gamma is clamped to the regime ceiling and,
when the clamp bites, N is re-enlarged to preserve the horizon t_N = N*gamma.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import CapabilityError, ParameterError
from .potentials import Smoothness, StronglyConvex, WeaklyConvexKL


class TuningPlan(NamedTuple):
    gamma: float
    n_steps: int
    regime: str
    constants: dict
    clamped: bool = False

    @property
    def t_horizon(self) -> float:
        return self.gamma * self.n_steps


def compute_upsilon(profile: WeaklyConvexKL, L: float, d: int) -> float:
    """Moment-scale bound max(1, (c2 v L)^{1/(1+q-r)} c1^{-1/(1-r)} log(1+dL) d^{1/(1+q-r)})."""
    if not isinstance(profile, WeaklyConvexKL):
        raise ParameterError("Upsilon is defined for weakly convex profiles")
    e1 = 1.0 / (1.0 + profile.q - profile.r)
    val = (
        max(profile.c2, L) ** e1
        * profile.c1 ** (-1.0 / (1.0 - profile.r))
        * math.log(1.0 + d * L)
        * d**e1
    )
    return max(1.0, val)


def weak_gamma_clamp(d: int, L: float, c2: float) -> float:
    """gamma_0 = (1/8) ((d (L v c2))^{-1} ^ 1/8) for the weakly convex bounds."""
    return 0.125 * min(1.0 / (d * max(L, c2)), 0.125)


def sc_gamma_clamp(d: int, L: float) -> float:
    """gamma_0 = 1/(4 d L + 1), the moment-stability ceiling."""
    return 1.0 / (4.0 * d * L + 1.0)


def _finish(regime, gamma_raw, n_raw, clamp, calib, constants) -> TuningPlan:
    """Apply calibration, clamp gamma, preserve t_N, ceil N.  When the clamp bites, gamma is
    the clamp and N = n_raw gamma_raw / clamp: ``calib`` cancels, and so does ``frak_e`` for
    weak-i.b and weak-ii.b, whose gamma_raw n_raw does not depend on it."""
    gamma = gamma_raw / calib
    n_real = n_raw * calib
    clamped = gamma > clamp
    if clamped:
        n_real = n_real * (gamma / clamp)
        gamma = clamp
    for name, v in [("gamma", gamma), ("N", n_real), *constants.items()]:
        # a term of a min may be inf, where it drops out, but no other number
        if isinstance(v, float) and not math.isfinite(v) or isinstance(v, list) and any(
                map(math.isnan, v)):
            raise _refusal(regime, constants, f"gives {name} = {v!r}")
    constants = {**constants, "gamma_raw": gamma_raw, "n_steps_raw": n_raw, "calib": calib,
                 "gamma_clamp": clamp, "gamma": gamma, "n_steps_real": n_real}
    return TuningPlan(gamma, max(1, math.ceil(n_real - 1e-9)), regime, constants, clamped)


def _refusal(regime, constants, what) -> ParameterError:
    """One line refusing a plan whose arithmetic ``what`` (a phrase or the ArithmeticError)."""
    if isinstance(what, ArithmeticError):
        what = "divides by 0" if isinstance(what, ZeroDivisionError) else "overflows"
    eps = f"eps={constants['eps']!r}" if "eps" in constants else f"eps_n={constants['eps_n']!r}"
    return ParameterError(f"tuning {regime} at {eps}: its floating-point arithmetic {what}")


def _check_options(eps: float, x0_dist: float, calib: float, frak_e: float = 0.05):
    """The refusals of a potential tuning's options, made before the potential is read."""
    if not eps > 0:
        raise ParameterError("eps must be positive")
    if not (0 < frak_e < 1):
        raise ParameterError("frak_e must lie in (0, 1)")
    if not calib > 0:
        raise ParameterError("calib must be positive")
    if x0_dist < 0:
        raise ParameterError("x0_dist must be nonnegative")


def _require_c3(s: Smoothness, variant: str):
    if s.L_tilde is None or s.lap_grad_sup is None:
        raise CapabilityError(
            f"variant {variant} needs L_tilde and lap_grad_sup (C^3 data) in the potential"
        )


def _check_small_eps(prof: WeaklyConvexKL, d: int, eps: float, variant: str):
    cap = min(1.0, d * d ** (-(1.0 - prof.r) / (2.0 * (1.0 + prof.q - prof.r))))
    if eps > cap:
        raise ParameterError(
            f"variant {variant} requires eps <= 1 ^ d d^(-(1-r)/(2(1+q-r))) = {cap:.6g}, "
            f"got eps={eps}"
        )


def tune_weak(pot, eps: float, variant: str, frak_e: float = 0.05, x0_dist: float = 0.0,
              calib: float = 1.0) -> TuningPlan:
    """Weakly convex tunings of ``pot`` at accuracy ``eps``; ``variant`` in {"i.a", "i.b",
    "ii.a", "ii.b"}.  ``frak_e`` is the slack exponent of the bounds; ``x0_dist`` is
    |x0 - x*|, which only i.a reads."""
    _check_options(eps, x0_dist, calib, frak_e)
    prof, s, d = pot.profile, pot.smoothness, pot.dim
    if not isinstance(prof, WeaklyConvexKL):
        raise ParameterError("tune_weak needs a weakly convex profile")
    c1, c2, q, r = prof.c1, prof.c2, prof.q, prof.r
    L, e = s.L, frak_e
    clamp = weak_gamma_clamp(d, L, c2)
    cons = {"variant": variant, "c1": c1, "c2": c2, "q": q, "r": r, "L": L, "d": d, "eps": eps,
            "frak_e": e}

    try:
        if variant == "i.a":
            ups = compute_upsilon(prof, L, d)
            g1 = c1 ** (2.0 * (1.0 + e)) / (d * L**2 * ups ** (2.0 * r * (1.0 + e))) * eps**2
            g2 = d / (c2 * ups ** (1.0 - q - 2.0 * r * e))
            if x0_dist > 0:
                g3 = d / (
                    c2
                    * (1.0 + q) ** ((1.0 - q) / (1.0 + q))
                    * c2 ** ((1.0 - q) / (1.0 + q))
                    * ups ** (-2.0 * r * e)
                    * x0_dist ** (2.0 * (1.0 - q) / (1.0 + q))
                )
            else:
                g3 = math.inf  # zero initial distance: the term drops out of the min
            g4 = ups ** (2.0 * r * (1.0 + e) + q - 1.0) * d * L**2 / (c2 * c1 ** (2.0 * (1.0 + e)))
            gamma = min(g1, g2, g3, g4)
            n1 = ups ** ((1.0 + 3.0 * r) / 2.0 * (1.0 + e)) * c1 ** (-1.5 * (1.0 + e)) / gamma / eps
            n2 = d * ups ** (2.0 * r * (1.0 + e)) * c1 ** (-2.0 * (1.0 + e)) / gamma / eps**2
            n = max(n1, n2)
            cons.update({"upsilon": ups, "gamma_terms": [g1, g2, g3, g4], "n_terms": [n1, n2],
                         "x0_dist": x0_dist})
        elif variant == "i.b":
            _check_small_eps(prof, d, eps, variant)
            expo = 2.0 * r / (1.0 + q - r)
            gamma = eps**2 * d ** (-(1.0 + expo + e))
            n = eps**-4 * d * d ** (1.0 + 2.0 * expo + e)
            cons.update(d_exponent_gamma=-(1.0 + expo + e), d_exponent_n=1.0 + 2.0 * expo + e)
        elif variant == "ii.a":
            _require_c3(s, variant)
            ups = compute_upsilon(prof, L, d)
            lt, lap = s.L_tilde, s.lap_grad_sup
            t1 = 1.0 / (L * math.sqrt(c2) * ups ** ((1.0 - q + 2.0 * r) / 2.0 * (1.0 + e)))
            t2 = (c1 ** (1.0 + e) / (L * lt * d * ups ** (2.0 * r * (1.0 + e))) if lt > 0
                  else math.inf)
            t3 = 1.0 / (lap * ups ** (r * (1.0 + e))) if lap > 0 else math.inf
            c21 = c1 ** (1.0 + e) * min(t1, t2, t3)
            c12 = max(
                d * ups ** (2.0 * r * (1.0 + e)) / c1 ** (2.0 * (1.0 + e)),
                eps * ups ** ((1.0 + 3.0 * r) / 2.0 * (1.0 + e)) / c1 ** (1.5 + e),
            )
            gamma = c21 * eps
            n = c12 / c21 * eps**-3
            cons.update({"upsilon": ups, "c_2_1": c21, "c_1_2": c12,
                         "c_2_1_terms": [t1, t2, t3]})
        elif variant == "ii.b":
            _require_c3(s, variant)
            _check_small_eps(prof, d, eps, variant)
            if s.rho_lap is None:
                raise CapabilityError("variant ii.b needs the Laplacian growth exponent rho_lap")
            rho_lap = cons["rho_lap"] = s.rho_lap
            ratio = r / (1.0 + q - r)
            gamma = eps * d ** (-max(1.0 + 2.0 * ratio, rho_lap + ratio) - e)
            n = eps**-3 * d * d ** (max(1.0 + 4.0 * ratio, rho_lap + 3.0 * ratio) + e)
        else:
            raise ParameterError(f"unknown weak variant {variant!r}")
    except ArithmeticError as exc:
        raise _refusal(f"weak-{variant}", cons, exc) from None
    return _finish(f"weak-{variant}", gamma, n, clamp, calib, cons)


def tune_sc(pot, eps: float, variant: str, x0_dist: float = 0.0,
            calib: float = 1.0) -> TuningPlan:
    """Strongly convex tunings of ``pot`` at accuracy ``eps``; ``variant`` in {"i", "ii"}.
    ``x0_dist`` is |x0 - x*|."""
    _check_options(eps, x0_dist, calib)
    prof, s, d = pot.profile, pot.smoothness, pot.dim
    if not isinstance(prof, StronglyConvex):
        raise ParameterError("tune_sc needs a strongly convex profile")
    rho, L = prof.rho, s.L
    clamp = sc_gamma_clamp(d, L)
    cons = {"variant": variant, "rho": rho, "L": L, "d": d, "eps": eps}

    try:
        if variant == "i":
            g1 = rho**2 / (L**2 * d) * eps**2
            g2 = rho / L**2
            g3 = d / (L**2 * x0_dist**2) if x0_dist > 0 else math.inf
            gamma = min(g1, g2, g3)
            n1 = d / rho**2 / gamma / eps**2
            n2 = math.sqrt(d) * rho**-1.5 / eps / gamma
            n = max(n1, n2)
            cons.update({"gamma_terms": [g1, g2, g3], "n_terms": [n1, n2],
                         "x0_dist": x0_dist})
        elif variant == "ii":
            _require_c3(s, variant)
            lt, lap = s.L_tilde, s.lap_grad_sup
            b2_terms = [
                d**2,
                L**4 * d / rho**3,
                L**2 * (1.0 / rho**2 + lt**2 / rho**4),
                lap**2 / rho**2,
                2.0 * L**4 / rho**2 * x0_dist**2,
            ]
            b2 = sum(b2_terms)
            gamma = eps / math.sqrt(b2)
            n = max(eps**-3 * math.sqrt(b2) * d / rho**2, 1.0 / gamma, d / gamma / rho)
            cons.update({"b2": b2, "b2_terms": b2_terms})
        else:
            raise ParameterError(f"unknown strongly convex variant {variant!r}")
    except ArithmeticError as exc:
        raise _refusal(f"sc-{variant}", cons, exc) from None
    return _finish(f"sc-{variant}", gamma, n, clamp, calib, cons)


_BAYES_REGIMES = ("weak-i", "weak-ii", "weak-iii", "sc-i.a", "sc-i.b")


def epsilon_n(C_P: float, L: float, alpha_c: float, d: int, n, b1: float = 1.0):
    """Statistical accuracy eps_n with eps_n^2 = (C_P L^2 d log(n) / n)^{1/alpha_c}.

    Returns (eps_n, valid) where ``valid`` flags b1 * eps_n^alpha_c <= 1,
    the regime in which the consistency bound applies.  An eps_n that is not
    finite is refused.
    """
    if n < 2:
        raise ParameterError("n must be >= 2 so that log n > 0")
    if alpha_c < 1:
        raise ParameterError("alpha_c must be >= 1")
    try:
        eps = math.sqrt((C_P * L**2 * d * math.log(n) / n) ** (1.0 / alpha_c))
        if eps < math.inf:
            return eps, bool(b1 * eps**alpha_c <= 1.0)
    except ArithmeticError:
        pass
    raise ParameterError(f"eps_n = (C_P L^2 d log(n) / n)^(1/(2 alpha_c)) is not finite at "
                         f"C_P={C_P!r}, L={L!r}, d={d}, n={n}")


def tune_bayes(model, n: int, regime: str, certified_x0: bool = False,
               calib: float = 1.0) -> TuningPlan:
    """Sample-size-indexed tunings targeting the statistical accuracy eps_n.

    ``model`` gives the PER-OBSERVATION constants: ``d``, ``per_obs_profile``,
    ``per_obs_L``, ``alpha_c``, ``b1`` and ``C_P``; the clamp is applied
    against the aggregated posterior smoothness.  ``C_P`` None means the
    model declares no Poincare constant, and eps_n is then computed with
    C_P = 1.  The plan's constants record the value used ("C_P") and whether
    it was assumed ("C_P_assumed"), and "eps_n_valid" flags b1 eps_n^alpha_c
    <= 1.  The sc-i.b regime additionally requires the caller to certify
    |theta_hat_0 - theta*|^2 <= d / n^2 via ``certified_x0``; its
    (gamma, N) = (1/n, n v d) tuning is meaningful even when d exceeds n,
    so the d <= n consistency regime is enforced for the eps_n-based
    regimes only.
    """
    if regime not in _BAYES_REGIMES:
        raise ParameterError(f"unknown bayes regime {regime!r}; choose from {_BAYES_REGIMES}")
    alpha_c, d, L, prof = model.alpha_c, model.d, model.per_obs_L, model.per_obs_profile
    cp = 1.0 if model.C_P is None else float(model.C_P)
    try:  # refuses n < 2, alpha_c < 1 and an eps_n that is not finite
        eps_n, eps_valid = epsilon_n(cp, L, alpha_c, d, n, model.b1)
    except ParameterError as exc:
        raise ParameterError(f"tuning bayes-{regime}: {exc}") from None
    if not calib > 0:
        raise ParameterError("calib must be positive")
    if d > n and regime != "sc-i.b":
        raise ParameterError(f"regime {regime} requires d <= n (got d={d}, n={n})")
    ai = 1.0 / alpha_c
    agg_L = n * L  # aggregated likelihood smoothness (prior excluded here)
    # weak regimes inherit the weakly convex ceiling with aggregated constants;
    # the strongly convex prescriptions carry their caps inside the formula
    clamp = weak_gamma_clamp(d, agg_L, agg_L) if regime.startswith("weak") else math.inf
    cons = {"regime": regime, "n": n, "alpha_c": alpha_c, "d": d, "C_P": cp,
            "C_P_assumed": model.C_P is None, "eps_n": eps_n, "eps_n_valid": eps_valid,
            "aggregated_L": agg_L}

    try:
        if regime.startswith("weak"):
            if not isinstance(prof, WeaklyConvexKL):
                raise ParameterError("bayes weak regimes need a weakly convex profile")
            if prof.r != prof.q:
                raise ParameterError("bayes weak tunings are stated for r == q")
            r = prof.r
            cons["r"] = r
            if regime == "weak-i":
                # printed for "r >= 1" although the profile needs r < 1; evaluated as printed
                gamma = d ** (-(2.0 * r + 1.0 - ai)) * float(n) ** (-2.0 * r - ai)
                nn = float(n) ** (2.0 * ai + 4.0 * r) * d ** (1.0 + 4.0 * r - 2.0 * ai)
            elif regime == "weak-ii":
                if r != 0.0:
                    raise ParameterError("weak-ii is the r = q = 0 case")
                gamma = float(n) ** -2.0
                nn = float(n) ** (0.5 * (1.0 + ai)) * d ** (0.5 * (1.0 - ai))
            else:  # weak-iii
                if not (0.0 < r < 1.0):
                    raise ParameterError("weak-iii needs r in (0, 1)")
                g1 = float(n) ** (-(2.0 * r + ai)) * d ** (-1.0 - 2.0 * r + ai)
                g2 = float(n) ** (-2.0 / (1.0 + r)) * d ** (2.0 * r / (1.0 + r))
                gamma = min(g1, g2)
                m1 = (float(n) ** (0.5 * ai - 1.5 * (1.0 - r))
                      * d ** ((1.0 + 3.0 * r) / 2.0 - 0.5 * ai))
                m2 = d ** (2.0 * r - ai) * float(n) ** (ai - 2.0 * (1.0 - r))
                nn = max(m1, m2) / gamma
                cons.update({"gamma_terms": [g1, g2], "n_terms": [m1, m2]})
        else:
            if not isinstance(prof, StronglyConvex):
                raise ParameterError("bayes sc regimes need a strongly convex profile")
            if regime == "sc-i.a":
                gamma = float(n) ** -2.0
                nn = float(n) ** (0.5 * (1.0 + ai)) * d ** (0.5 * (1.0 - ai))
            else:  # sc-i.b
                if not certified_x0:
                    raise CapabilityError(
                        "sc-i.b requires the caller to certify |theta0 - theta*|^2 <= d n^-2"
                    )
                gamma = 1.0 / n
                nn = float(max(n, d))
    except ArithmeticError as exc:
        raise _refusal(f"bayes-{regime}", cons, exc) from None
    return _finish(f"bayes-{regime}", gamma, nn, clamp, calib, cons)


def audit_plan(plan: TuningPlan) -> bool:
    """Recompute (gamma, N) from the recorded intermediates."""
    c = plan.constants
    gamma = c["gamma_raw"] / c["calib"]
    n_real = c["n_steps_raw"] * c["calib"]
    if gamma > c["gamma_clamp"]:
        n_real *= gamma / c["gamma_clamp"]
        gamma = c["gamma_clamp"]
    return (
        math.isclose(gamma, plan.gamma, rel_tol=1e-12)
        and plan.n_steps == max(1, math.ceil(n_real - 1e-9))
    )
