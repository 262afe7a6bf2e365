"""Statistical verification layer: MSE experiments, rate fits,
concentration checks, the separation test family, and moment diagnostics.

Empirical-versus-bound assertions are one-sided with a three-binomial-
standard-error slack.  MSE reports keep every replicate estimate so the
summary numbers can be recomputed bit-identically, and carry a manifest
that regenerates the experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import CapabilityError, ExperimentError, ParameterError
from .potentials import Potential, minimizer
from .rng import mix64, stream
from .sampler import ChainConfig, _observe_chain, moment_clamp, replicate_runs
from .tuning import TuningPlan


@dataclass(frozen=True)
class ExperimentReport:
    estimates: np.ndarray  # (M, d) replicate Cesaro estimates
    reference: np.ndarray
    reference_provenance: str  # closed-form | quadrature | importance-sampling (cli._reference)
    mse: float
    ci: tuple  # bootstrap 95% interval on the MSE
    manifest: dict = field(default_factory=dict)
    n_diverged: int = 0

    def recompute_mse(self) -> float:
        return float(np.mean(np.sum((self.estimates - self.reference) ** 2, axis=1)))


@dataclass(frozen=True)
class RateFit:
    x: np.ndarray
    y: np.ndarray
    slope: float
    intercept: float
    r2: float

    def slope_trustworthy(self) -> bool:
        """Refuse slope assertions on poor fits."""
        return self.r2 >= 0.9


def fit_line(x, y) -> RateFit:
    """Ordinary least squares through the normal equations.

    A constant ``y`` carries no rate information, so its fit gets r2 = 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.size < 2:
        raise ParameterError("need matching x/y with at least two points")
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    sxy = float(np.sum((x - xm) * (y - ym)))
    slope = sxy / sxx
    intercept = ym - slope * xm
    resid = y - (slope * x + intercept)
    sst = float(np.sum((y - ym) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / sst if sst > 0 else 0.0
    return RateFit(x=x, y=y, slope=slope, intercept=intercept, r2=r2)


def _bootstrap_ci(sq_errors: np.ndarray, seed: int, resamples: int = 2000):
    rng = stream(mix64(seed, 0xB007))
    m = sq_errors.shape[0]
    # resamples in blocks of about 2^18 indices; the Philox stream and each
    # row's mean do not depend on the block size
    rows = max(1, (1 << 18) // m)
    means = np.concatenate([
        sq_errors[rng.integers(0, m, size=(min(rows, resamples - i), m))].mean(axis=1)
        for i in range(0, resamples, rows)
    ])
    lo, hi = np.percentile(means, [2.5, 97.5])
    return float(lo), float(hi)


def mse_experiment(
    pot: Potential,
    plan: TuningPlan,
    m_replicates: int,
    reference,
    base_seed: int,
    x0=None,
    reference_provenance: str = "closed-form",
) -> ExperimentReport:
    """M tuned chains; MSE of the Cesaro estimates against the reference.

    Chains start at the potential's minimizer unless ``x0`` is given.
    Raises :class:`ExperimentError` when more than 10% of replicates
    diverge.
    """
    if m_replicates < 1:
        raise ParameterError("need at least one replicate")
    reference = np.atleast_1d(np.asarray(reference, dtype=float))
    if x0 is None:
        x0 = minimizer(pot)
    cfg = ChainConfig(gamma=plan.gamma, n_steps=plan.n_steps, x0=x0, seed=0)
    runs = replicate_runs(pot, cfg, m_replicates, base_seed)
    diverged = [i for i, r in enumerate(runs) if r.diverged_step is not None]
    if len(diverged) > 0.1 * m_replicates:
        raise ExperimentError(
            f"{len(diverged)}/{m_replicates} replicates diverged",
            failures=[(i, runs[i].diverged_step) for i in diverged],
        )
    bad = set(diverged)
    est = np.stack([runs[i].cesaro for i in range(m_replicates) if i not in bad])
    sq = np.sum((est - reference) ** 2, axis=1)
    mse = float(np.mean(sq))
    ci = _bootstrap_ci(sq, base_seed)
    manifest = {
        "gamma": plan.gamma,
        "n_steps": plan.n_steps,
        "regime": plan.regime,
        "m_replicates": m_replicates,
        "base_seed": int(base_seed),
        "x0": [float(v) for v in np.atleast_1d(x0)],
        "potential": pot.name,
        "reference": [float(v) for v in reference],
        "reference_provenance": reference_provenance,
    }
    return ExperimentReport(
        estimates=est,
        reference=reference,
        reference_provenance=reference_provenance,
        mse=mse,
        ci=ci,
        manifest=manifest,
        n_diverged=len(diverged),
    )


def bayes_rate_experiment(
    model,
    theta_star,
    n_grid: Sequence[int],
    m_datasets: int,
    base_seed: int,
) -> RateFit:
    """MSE of the oracle posterior mean versus n, fitted on log(n / log n): the library's
    statistical rate, with no chain; the CLI's ``run`` over ``data.n_grid`` scores chains.

    For each n, ``m_datasets`` fresh datasets are drawn and the posterior
    mean is the ``mean`` of the model's ``posterior``, its closed form (the
    conjugate mean under the N(0, I) prior); a model without one raises
    CapabilityError.  Returns the OLS fit of log MSE against log(n / log n).
    The consistency theory gives eps_n^2 = (C_P L^2 d log n / n)^{1/alpha_c}
    as an upper bound on the MSE, so this slope is -1/alpha_c only when the bound is tight, log
    factor included.  A model whose MSE carries no log factor, such as the
    unit-precision conjugate Gaussian (MSE (nd + |theta*|^2)/(n+1)^2), gives a steeper
    slope: -1.18 on {100, 400, 1600, 6400}.  Read the n-exponent by
    fitting ``fit.y`` against log n instead.
    """
    from .bayes import sample_dataset

    n_grid = list(n_grid)
    if len(n_grid) < 4 or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ParameterError("n_grid must be ascending with at least 4 points")
    theta_star = np.asarray(theta_star, dtype=float)

    mses = []
    for j, n in enumerate(n_grid):
        errs = np.empty(m_datasets)
        for i in range(m_datasets):
            data = sample_dataset(model, theta_star, n, mix64(base_seed, j * m_datasets + i))
            tm = model.posterior(data.observations).mean
            if tm is None:
                raise CapabilityError(f"model {model.model_id} has no closed-form posterior mean")
            errs[i] = float(np.sum((tm - theta_star) ** 2))
        mses.append(errs.mean())
    x = np.log(np.asarray(n_grid, dtype=float) / np.log(n_grid))
    y = np.log(np.asarray(mses))
    return fit_line(x, y)


@dataclass(frozen=True)
class BoundCheckRow:
    delta: float
    frequency: float
    bound: float
    slack: float  # three binomial standard errors
    passed: bool


def _binom_slack(bound_freq: float, m: int) -> float:
    p = min(max(bound_freq, 0.0), 1.0)
    return 3.0 * math.sqrt(p * (1.0 - p) / m) if 0 < p < 1 else 3.0 * math.sqrt(0.25 / m)


def _poincare_tail(n: int, delta: float, var: float, sd: float, factor: float) -> float:
    """The Poincare concentration bound factor * exp(-n (delta^2/(4 var) ^ delta/(2 sd)))
    on the deviation of an n-sample mean whose summands have Poincare
    variance scale ``var`` and ``sd`` = sqrt(var), passed in so that every
    caller's bound keeps its rounding."""
    return factor * math.exp(-n * min(delta**2 / (4.0 * var), delta / (2.0 * sd)))


def _bound_row(delta: float, stats: np.ndarray, bound: float) -> BoundCheckRow:
    freq = float(np.mean(stats >= delta))
    slack = _binom_slack(min(bound, 1.0), stats.shape[0])
    return BoundCheckRow(delta, freq, bound, slack, freq <= bound + slack)


def concentration_check(
    model,
    theta,
    n: int,
    delta_grid: Sequence[float],
    m_sims: int,
    seed: int,
    statistic: str = "psi",
):
    """Simulated deviation frequencies against the Poincare concentration bound.

    ``statistic`` selects the checked event: "psi" is the deviation of the
    empirical mean of the 1-Lipschitz statistic, with bound
    2 exp(-n (delta^2/(4 C_P) ^ delta/(2 sqrt(C_P)))); "score" is the norm
    of the averaged parameter gradient at ``theta``, with the same tail at
    variance scale L^2 C_P d and factor 2d (a union bound over the
    coordinates).  Both come from :func:`_poincare_tail`.
    """
    if model.C_P is None:
        raise CapabilityError("model carries no exact Poincare constant")
    if statistic == "score" and not hasattr(model, "score"):
        raise CapabilityError(f"model {model.model_id} has no score")
    cp = model.C_P
    theta = np.asarray(theta, dtype=float)
    rng = stream(seed)
    obs = model.sample(theta, n * m_sims, rng).reshape(m_sims, n, -1)
    if statistic == "psi":
        stats = np.abs(model.psi(obs).mean(axis=1) - model.psi_mean(theta))
        var, sd, factor = cp, math.sqrt(cp), 2.0
    elif statistic == "score":
        L, d = model.per_obs_L, model.d
        stats = np.linalg.norm(model.score(obs, theta).mean(axis=1), axis=-1)
        var, sd, factor = L**2 * cp * d, L * math.sqrt(cp * d), 2.0 * d
    else:
        raise ParameterError(f"unknown statistic {statistic!r}")
    return [_bound_row(delta, stats, _poincare_tail(n, delta, var, sd, factor))
            for delta in delta_grid]


@dataclass(frozen=True)
class SeparationMap:
    """c(Delta) = b1 Delta^alpha_c for Delta <= 1, b2 (log Delta + 1) beyond."""

    b1: float = 1.0
    b2: float = 1.0
    alpha_c: float = 1.0

    def __call__(self, delta: float) -> float:
        if delta < 0:
            raise ParameterError("separation argument must be nonnegative")
        if delta <= 1.0:
            return self.b1 * delta**self.alpha_c
        return self.b2 * (math.log(delta) + 1.0)


@dataclass(frozen=True)
class TestPhiReport:
    type1_frequency: float
    type2_frequency: float
    bound: float
    slack: float
    passed: bool
    c_at_r: float


def run_test_phi(
    model,
    theta_star,
    theta_alt,
    n: int,
    r_n: float,
    c_map: SeparationMap,
    m_sims: int,
    seed: int,
    per_coordinate: bool = False,
) -> TestPhiReport:
    """Error frequencies of the threshold test on the averaged statistic.

    The test rejects when |mean Psi(xi_i) - pi_{theta*}(Psi)| >= c(r_n)/2;
    both error frequencies are compared with
    2 exp(-n (c(r_n)^2/(16 C_P) ^ c(r_n)/(4 sqrt(C_P)))) plus binomial slack.

    With ``per_coordinate`` the scalar statistic is replaced by the maximal
    coordinate deviation for location models, the bound gains the union
    factor d, and the alternative must be separated coordinate-wise:
    max_j |theta_j - theta*_j| >= r_n.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    theta_alt = np.asarray(theta_alt, dtype=float)
    if per_coordinate:
        sep = float(np.max(np.abs(theta_alt - theta_star)))
    else:
        sep = float(np.linalg.norm(theta_alt - theta_star))
    if sep < r_n * (1.0 - 1e-12):
        raise ParameterError(
            f"alternative at distance {sep} is closer than the separation radius {r_n}"
        )
    if model.C_P is None:
        raise CapabilityError("model carries no exact Poincare constant")
    cp = model.C_P
    c_r = c_map(r_n)
    threshold = c_r / 2.0
    rng = stream(seed)

    def statistic(obs, center_theta):
        if per_coordinate:
            centers = np.asarray(center_theta, dtype=float)
            return np.max(np.abs(obs.mean(axis=1) - centers), axis=-1)
        return np.abs(model.psi(obs).mean(axis=1) - model.psi_mean(center_theta))

    obs0 = model.sample(theta_star, n * m_sims, rng).reshape(m_sims, n, -1)
    type1 = float(np.mean(statistic(obs0, theta_star) >= threshold))
    obs1 = model.sample(theta_alt, n * m_sims, rng).reshape(m_sims, n, -1)
    type2 = float(np.mean(statistic(obs1, theta_star) < threshold))
    bound = _poincare_tail(n, threshold, cp, math.sqrt(cp), 2.0 * model.d if per_coordinate else 2.0)
    slack = _binom_slack(min(bound, 1.0), m_sims)
    passed = (type1 <= bound + slack) and (type2 <= bound + slack)
    return TestPhiReport(type1, type2, bound, slack, passed, c_r)


@dataclass(frozen=True)
class MomentReport:
    p_grid: tuple
    sup_running_mean: dict  # p -> sup over checkpoints of the running mean
    first_decile_max: dict
    exp_sup: float
    exp_first_decile_max: float
    passed: bool


def moment_check(
    pot: Potential,
    cfg: ChainConfig,
    p_grid: Sequence[float] = (1.0, 2.0, 4.0, 9.0),
    a: float = 1.0 / 16.0,
    checkpoints: int = 100,
) -> MomentReport:
    """Long-run stability of W^p and exp(a W) running means along one chain.

    Observes the coarse states of the chain ``cfg`` describes.  Requires
    the moment clamp gamma <= 1/(4dL+1).  Passes when no checkpointed
    running mean exceeds ten times its maximum over the first decile of
    checkpoints.  Raises :class:`ExperimentError` naming the first step at
    which exp(a W) is not finite or the chain diverges.
    """
    if any(p <= 0 or p > 9 for p in p_grid):
        raise ParameterError("moment exponents must lie in (0, 9]")
    if not (0 < a <= 1.0 / 16.0):
        raise ParameterError("exponential exponent must lie in (0, 1/16]")
    if cfg.gamma > moment_clamp(pot) * (1.0 + 1e-12):
        raise ParameterError("moment_check requires gamma <= 1/(4dL+1)")

    n = cfg.n_steps
    every = max(1, n // checkpoints)
    sums = np.zeros(len(p_grid) + 1)  # W^p for each p, then exp(a W)
    logs = []

    def observe(k0, states, diverged):
        # running means at the coarse states; cumsum keeps the sequential sum
        w = pot.value(states[0, :: cfg.fine_substeps]) + pot.offset
        v = np.stack([w**p for p in p_grid] + [np.exp(a * w)])
        bad = [k0 + int(i) for i in np.flatnonzero(~np.isfinite(v[-1]))[:1]]
        bad += [int(diverged[0])] if diverged[0] >= 0 else []
        if bad:
            raise ExperimentError(f"moment chain blew up at step {min(bad)}")
        cum = np.cumsum(np.concatenate((sums[:, None], v), axis=1), axis=1)[:, 1:]
        sums[:] = cum[:, -1]
        k = k0 + np.arange(w.shape[0])
        keep = (k % every == 0) | (k == n - 1)
        logs.append(cum[:, keep] / (k[keep] + 1))

    _observe_chain(pot, cfg, observe)
    logs = np.concatenate(logs, axis=1)
    decile = max(1, logs.shape[1] // 10)
    sup_mean, first_max = {}, {}
    passed = True
    for p, vals in zip(p_grid, logs):
        sup_mean[p] = float(vals.max())
        first_max[p] = float(vals[:decile].max())
        if sup_mean[p] > 10.0 * first_max[p]:
            passed = False
    evals = logs[-1]
    exp_sup = float(evals.max())
    exp_first = float(evals[:decile].max())
    if exp_sup > 10.0 * exp_first:
        passed = False
    return MomentReport(
        p_grid=tuple(p_grid),
        sup_running_mean=sup_mean,
        first_decile_max=first_max,
        exp_sup=exp_sup,
        exp_first_decile_max=exp_first,
        passed=passed,
    )
