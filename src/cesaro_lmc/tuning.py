"""Closed-form step-size / iteration-count prescriptions.

Every tuning below evaluates a printed formula verbatim: the weakly convex
family (variants i.a, i.b, ii.a, ii.b), the strongly convex family
(variants i, ii) and the sample-size-indexed Bayesian tunings (weak i/ii/iii
and strongly convex i.a/i.b).  Plans record every intermediate quantity so
the final (gamma, N) can be audited by substitution.

Universal constants hidden in the order statements are represented by a
single calibration factor ``calib`` multiplying N and dividing gamma.
After the formula is evaluated, gamma is clamped to the regime ceiling and,
when the clamp bites, N is re-enlarged to preserve the horizon t_N = N*gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import CapabilityError, ParameterError
from .potentials import ConvexityProfile, StronglyConvex, WeaklyConvexKL


@dataclass(frozen=True)
class TuningInputs:
    """Everything a tuning formula may consume.

    ``d_prime`` is the output dimension of the averaged statistic (= d for
    the identity map); ``frak_e`` is the slack exponent of the weakly
    convex bounds; ``x0_dist`` is |x0 - x*|.
    """

    profile: ConvexityProfile
    L: float
    d: int
    eps: float
    d_prime: Optional[int] = None
    frak_e: float = 0.05
    L_tilde: Optional[float] = None
    lap_grad_sup: Optional[float] = None
    rho_lap: Optional[float] = None  # growth exponent: lap_grad_sup^2 <= C d^(2 rho_lap)
    x0_dist: float = 0.0
    calib: float = 1.0

    def __post_init__(self):
        if not self.eps > 0:
            raise ParameterError("eps must be positive")
        if not (0 < self.frak_e < 1):
            raise ParameterError("frak_e must lie in (0, 1)")
        if self.d_prime is None:
            object.__setattr__(self, "d_prime", self.d)
        if self.d_prime > self.d:
            raise ParameterError("d_prime must not exceed d")
        if not self.calib > 0:
            raise ParameterError("calib must be positive")
        if self.x0_dist < 0:
            raise ParameterError("x0_dist must be nonnegative")


@dataclass(frozen=True)
class TuningPlan:
    gamma: float
    n_steps: int
    regime: str
    constants: dict = field(default_factory=dict)
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
    """Apply calibration, clamp gamma, preserve t_N, ceil N."""
    gamma = gamma_raw / calib
    n_real = n_raw * calib
    clamped = gamma > clamp
    if clamped:
        n_real = n_real * (gamma / clamp)
        gamma = clamp
    constants = dict(constants)
    constants.update(
        {
            "gamma_raw": gamma_raw,
            "n_steps_raw": n_raw,
            "calib": calib,
            "gamma_clamp": clamp,
            "gamma": gamma,
            "n_steps_real": n_real,
        }
    )
    return TuningPlan(
        gamma=gamma,
        n_steps=max(1, math.ceil(n_real - 1e-9)),
        regime=regime,
        constants=constants,
        clamped=clamped,
    )


def _require_c3(inputs: TuningInputs, variant: str):
    if inputs.L_tilde is None or inputs.lap_grad_sup is None:
        raise CapabilityError(
            f"variant {variant} needs L_tilde and lap_grad_sup (C^3 data) in the inputs"
        )


def _check_small_eps(inputs: TuningInputs, prof: WeaklyConvexKL, variant: str):
    cap = min(1.0, inputs.d_prime * inputs.d ** (-(1.0 - prof.r) / (2.0 * (1.0 + prof.q - prof.r))))
    if inputs.eps > cap:
        raise ParameterError(
            f"variant {variant} requires eps <= 1 ^ d' d^(-(1-r)/(2(1+q-r))) = {cap:.6g}, "
            f"got eps={inputs.eps}"
        )


def tune_weak(inputs: TuningInputs, variant: str) -> TuningPlan:
    """Weakly convex tunings; ``variant`` in {"i.a", "i.b", "ii.a", "ii.b"}."""
    prof = inputs.profile
    if not isinstance(prof, WeaklyConvexKL):
        raise ParameterError("tune_weak needs a weakly convex profile")
    c1, c2, q, r = prof.c1, prof.c2, prof.q, prof.r
    L, d, dp, eps, e = inputs.L, inputs.d, inputs.d_prime, inputs.eps, inputs.frak_e
    clamp = weak_gamma_clamp(d, L, c2)
    cons = {"variant": variant, "c1": c1, "c2": c2, "q": q, "r": r, "L": L, "d": d,
            "d_prime": dp, "eps": eps, "frak_e": e}

    if variant == "i.a":
        ups = compute_upsilon(prof, L, d)
        x0d = inputs.x0_dist
        g1 = c1 ** (2.0 * (1.0 + e)) / (d * L**2 * ups ** (2.0 * r * (1.0 + e))) * eps**2
        g2 = d / (c2 * ups ** (1.0 - q - 2.0 * r * e))
        if x0d > 0:
            g3 = d / (
                c2
                * (1.0 + q) ** ((1.0 - q) / (1.0 + q))
                * c2 ** ((1.0 - q) / (1.0 + q))
                * ups ** (-2.0 * r * e)
                * x0d ** (2.0 * (1.0 - q) / (1.0 + q))
            )
        else:
            g3 = math.inf  # zero initial distance: the term drops out of the min
        g4 = ups ** (2.0 * r * (1.0 + e) + q - 1.0) * d * L**2 / (c2 * c1 ** (2.0 * (1.0 + e)))
        gamma = min(g1, g2, g3, g4)
        n1 = ups ** ((1.0 + 3.0 * r) / 2.0 * (1.0 + e)) * c1 ** (-1.5 * (1.0 + e)) / gamma / eps
        n2 = dp * ups ** (2.0 * r * (1.0 + e)) * c1 ** (-2.0 * (1.0 + e)) / gamma / eps**2
        n = max(n1, n2)
        cons.update({"upsilon": ups, "gamma_terms": [g1, g2, g3, g4], "n_terms": [n1, n2],
                     "x0_dist": x0d})
    elif variant == "i.b":
        _check_small_eps(inputs, prof, variant)
        expo = 2.0 * r / (1.0 + q - r)
        gamma = eps**2 * d ** (-(1.0 + expo + e))
        n = eps**-4 * dp * d ** (1.0 + 2.0 * expo + e)
        cons.update({"d_exponent_gamma": -(1.0 + expo + e), "d_exponent_n": 1.0 + 2.0 * expo + e})
    elif variant == "ii.a":
        _require_c3(inputs, variant)
        ups = compute_upsilon(prof, L, d)
        lt, lap = inputs.L_tilde, inputs.lap_grad_sup
        t1 = 1.0 / (L * math.sqrt(c2) * ups ** ((1.0 - q + 2.0 * r) / 2.0 * (1.0 + e)))
        t2 = c1 ** (1.0 + e) / (L * lt * d * ups ** (2.0 * r * (1.0 + e))) if lt > 0 else math.inf
        t3 = 1.0 / (lap * ups ** (r * (1.0 + e))) if lap > 0 else math.inf
        c21 = c1 ** (1.0 + e) * min(t1, t2, t3)
        c12 = max(
            dp * ups ** (2.0 * r * (1.0 + e)) / c1 ** (2.0 * (1.0 + e)),
            eps * ups ** ((1.0 + 3.0 * r) / 2.0 * (1.0 + e)) / c1 ** (1.5 + e),
        )
        gamma = c21 * eps
        n = c12 / c21 * eps**-3
        cons.update({"upsilon": ups, "c_2_1": c21, "c_1_2": c12,
                     "c_2_1_terms": [t1, t2, t3]})
    elif variant == "ii.b":
        _require_c3(inputs, variant)
        _check_small_eps(inputs, prof, variant)
        if inputs.rho_lap is None:
            raise CapabilityError(
                "variant ii.b needs the Laplacian growth exponent rho_lap"
            )
        rho_lap = cons["rho_lap"] = inputs.rho_lap
        ratio = r / (1.0 + q - r)
        gamma = eps * d ** (-max(1.0 + 2.0 * ratio, rho_lap + ratio) - e)
        n = eps**-3 * dp * d ** (max(1.0 + 4.0 * ratio, rho_lap + 3.0 * ratio) + e)
    else:
        raise ParameterError(f"unknown weak variant {variant!r}")
    return _finish(f"weak-{variant}", gamma, n, clamp, inputs.calib, cons)


def tune_sc(inputs: TuningInputs, variant: str) -> TuningPlan:
    """Strongly convex tunings; ``variant`` in {"i", "ii"}."""
    prof = inputs.profile
    if not isinstance(prof, StronglyConvex):
        raise ParameterError("tune_sc needs a strongly convex profile")
    rho, L, d, dp, eps = prof.rho, inputs.L, inputs.d, inputs.d_prime, inputs.eps
    clamp = sc_gamma_clamp(d, L)
    cons = {"variant": variant, "rho": rho, "L": L, "d": d, "d_prime": dp, "eps": eps}

    if variant == "i":
        g1 = rho**2 / (L**2 * d) * eps**2
        g2 = rho / L**2
        g3 = d / (L**2 * inputs.x0_dist**2) if inputs.x0_dist > 0 else math.inf
        gamma = min(g1, g2, g3)
        n1 = dp / rho**2 / gamma / eps**2
        n2 = math.sqrt(d) * rho**-1.5 / eps / gamma
        n = max(n1, n2)
        cons.update({"gamma_terms": [g1, g2, g3], "n_terms": [n1, n2],
                     "x0_dist": inputs.x0_dist})
    elif variant == "ii":
        _require_c3(inputs, variant)
        lt, lap = inputs.L_tilde, inputs.lap_grad_sup
        b2_terms = [
            d**2,
            L**4 * d / rho**3,
            L**2 * (1.0 / rho**2 + lt**2 / rho**4),
            lap**2 / rho**2,
            2.0 * L**4 / rho**2 * inputs.x0_dist**2,
        ]
        b2 = sum(b2_terms)
        gamma = eps / math.sqrt(b2)
        n = max(eps**-3 * math.sqrt(b2) * dp / rho**2, 1.0 / gamma, d / gamma / rho)
        cons.update({"b2": b2, "b2_terms": b2_terms})
    else:
        raise ParameterError(f"unknown strongly convex variant {variant!r}")
    return _finish(f"sc-{variant}", gamma, n, clamp, inputs.calib, cons)


_BAYES_REGIMES = ("weak-i", "weak-ii", "weak-iii", "sc-i.a", "sc-i.b")


def tune_bayes(
    inputs: TuningInputs,
    n: int,
    alpha_c: float,
    regime: str,
    C_P: Optional[float] = None,
    certified_x0: bool = False,
) -> TuningPlan:
    """Sample-size-indexed tunings targeting the statistical accuracy eps_n.

    ``inputs`` describes the PER-OBSERVATION model (profile, L, d); the
    clamp is applied against the aggregated posterior smoothness.  ``C_P``
    is the model's Poincare constant; None means the model declares none,
    and eps_n is then computed with C_P = 1.  The plan's constants record
    the value used ("C_P") and whether it was assumed ("C_P_assumed").  The
    sc-i.b regime additionally requires the caller to certify
    |theta_hat_0 - theta*|^2 <= d / n^2 via ``certified_x0``; its
    (gamma, N) = (1/n, n v d) tuning is meaningful even when d exceeds n,
    so the d <= n consistency regime is enforced for the eps_n-based
    regimes only.
    """
    if regime not in _BAYES_REGIMES:
        raise ParameterError(f"unknown bayes regime {regime!r}; choose from {_BAYES_REGIMES}")
    if n < 2:
        raise ParameterError("n must be >= 2")
    if alpha_c < 1:
        raise ParameterError("alpha_c must be >= 1")
    d = inputs.d
    if d > n and regime != "sc-i.b":
        raise ParameterError(f"regime {regime} requires d <= n (got d={d}, n={n})")
    ai = 1.0 / alpha_c
    from .bayes import epsilon_n  # local import to avoid a module cycle

    cp = 1.0 if C_P is None else float(C_P)
    eps_n, eps_valid = epsilon_n(cp, inputs.L, alpha_c, d, n)
    agg_L = n * inputs.L  # aggregated likelihood smoothness (prior excluded here)
    # weak regimes inherit the weakly convex ceiling with aggregated constants;
    # the strongly convex prescriptions carry their caps inside the formula
    clamp = weak_gamma_clamp(d, agg_L, agg_L) if regime.startswith("weak") else math.inf
    cons = {"regime": regime, "n": n, "alpha_c": alpha_c, "d": d, "C_P": cp,
            "C_P_assumed": C_P is None, "eps_n": eps_n, "eps_n_valid": eps_valid,
            "aggregated_L": agg_L}

    if regime.startswith("weak"):
        prof = inputs.profile
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
            m1 = float(n) ** (0.5 * ai - 1.5 * (1.0 - r)) * d ** ((1.0 + 3.0 * r) / 2.0 - 0.5 * ai)
            m2 = d ** (2.0 * r - ai) * float(n) ** (ai - 2.0 * (1.0 - r))
            nn = max(m1, m2) / gamma
            cons.update({"gamma_terms": [g1, g2], "n_terms": [m1, m2]})
    else:
        if not isinstance(inputs.profile, StronglyConvex):
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
    return _finish(f"bayes-{regime}", gamma, nn, clamp, inputs.calib, cons)


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
