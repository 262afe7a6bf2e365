"""Datasets, model families and the posterior potential.

The posterior potential over theta is

    W_n(theta) = sum_i U(xi_i, theta) + V0(theta),

the sum over the observations of a model family's per-observation
potential U plus the standard Gaussian prior V0(theta) = |theta|^2 / 2, the
one log-concave prior the package uses.  Only the gradient of W_n is ever
needed; the normalizing constant is never computed.

Each model family gives W_n as one :class:`Potential`,
``posterior(obs)``, whose ``profile`` is the aggregated curvature profile,
``smoothness.L`` the Lipschitz constant of its gradient, n L + 1 for a
per-observation L, ``kernel`` its compiled term and ``mean`` its exact mean
(each None when it has none).  ``build_posterior`` adds its mode, as
``minimizer_hint``.

Aggregation of regularity constants: a rho-strongly-convex per-observation
model yields an (n rho + 1)-strongly-convex posterior, the prior's unit
curvature counted (a logistic model without ridge gives 1); a
curvature-sandwich model with r = q yields the pair (c1 n^{1-r}, r) for
the lower branch and the flat bound n L + 1 for the upper one, the prior's
unit curvature counted there.

The sum over observations is never streamed per observation where it need
not be: the Gaussian location family's posterior is the built-in Gaussian
of precision n rho + 1 about the conjugate mean plus a constant, and the
logistic family's a weighted sum over sign pairs of its distinct (feature,
label) rows, the prior in its ridge, at most m pairs, and so at most m
exponentials per gradient, for an m-row design (``builtin_logistic``).
Both are stepped compiled.  No evaluator goes through BLAS, so a point's
value, gradient and Hessian-vector product do not depend on the batch it
is evaluated in.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CapabilityError, ParameterError
from .potentials import (
    Potential,
    Smoothness,
    StronglyConvex,
    WeaklyConvexKL,
    builtin_gaussian_location,
    builtin_logistic,
    find_minimizer,
)
from .rng import stream


@dataclass(frozen=True)
class Dataset:
    """Observations plus the fields that regenerate them bit-identically:
    ``sample_dataset`` of the model with ``theta_star``, ``n`` and ``seed``."""

    observations: np.ndarray  # (n, q)
    model_id: str
    theta_star: np.ndarray
    seed: int

    def __post_init__(self):
        obs = np.atleast_2d(np.asarray(self.observations, dtype=float))
        object.__setattr__(self, "observations", obs)
        object.__setattr__(self, "theta_star", np.asarray(self.theta_star, dtype=float))
        if not np.all(np.isfinite(obs)):
            raise ParameterError("observations must be finite")

    @property
    def n(self) -> int:
        return self.observations.shape[0]


class GaussianLocationModel:
    """Observations xi ~ N(theta, I/precision); U(xi, theta) = (rho/2)|xi-theta|^2.

    A location model, so the per-distribution Poincare constant is the same
    for every theta: C_P = 1/precision (Bakry-Emery, tight for Gaussians).
    Identifiability holds with the coordinate map and alpha_c = 1, b1 = 1.
    """

    def __init__(self, d: int, precision: float = 1.0, alpha_c: float = 1.0, b1: float = 1.0):
        if d < 1:
            raise ParameterError("d must be >= 1")
        if not precision > 0:
            raise ParameterError("precision must be positive")
        self.d = int(d)
        self.q = int(d)
        self.precision = float(precision)
        self.alpha_c = float(alpha_c)
        self.b1 = float(b1)
        self.C_P = 1.0 / self.precision
        self.per_obs_L = self.precision
        self.per_obs_profile = StronglyConvex(self.precision)

    @property
    def model_id(self) -> str:
        return f"gaussian_location(d={self.d},precision={self.precision})"

    def sample(self, theta_star, n: int, rng: np.random.Generator) -> np.ndarray:
        theta_star = np.broadcast_to(np.asarray(theta_star, dtype=float), (self.d,))
        sigma = 1.0 / math.sqrt(self.precision)
        return theta_star + sigma * rng.standard_normal((n, self.q))

    def psi(self, obs: np.ndarray) -> np.ndarray:
        """The 1-Lipschitz test statistic: first coordinate of the observation."""
        return obs[..., 0]

    def psi_mean(self, theta) -> float:
        return float(np.asarray(theta, dtype=float).reshape(-1)[0])

    def score(self, obs: np.ndarray, theta) -> np.ndarray:
        """Per-observation parameter gradient of U at theta: rho (theta - xi)."""
        theta = np.asarray(theta, dtype=float)
        return self.precision * (theta - obs)

    def posterior(self, obs: np.ndarray) -> Potential:
        """W_n is the built-in Gaussian of precision n rho + 1 about the
        conjugate mean rho s / (n rho + 1), s = sum_i xi_i, plus the constant
        (rho/2) sum_i |xi_i - s/n|^2 + n rho |s/n|^2 / (2 (n rho + 1)),
        which its ``value`` adds.  Both terms are non-negative and summed
        about the data mean, so they do not cancel.  It keeps the Gaussian's
        kernel and ``mean``: chains read only the gradient."""
        rho, n, s = self.precision, obs.shape[0], obs.sum(axis=0)
        mean = s / n
        const = (0.5 * rho * float(np.sum((obs - mean) ** 2))
                 + n * rho * float(np.sum(mean**2)) / (2.0 * (n * rho + 1.0)))
        pot = builtin_gaussian_location(self.d, rho * s / (n * rho + 1.0), n * rho + 1.0)
        return dataclasses.replace(pot, value=lambda theta: pot.value(theta) + const)


class PPowerLocationModel:
    """Location model with the weakly convex per-observation potential
    U(xi, theta) = (1 + |theta - xi|^2)^p, p in (1/2, 1].

    Used to exercise weakly convex aggregation; the density e^{-U} admits
    no exact sampler here, so :func:`sample_dataset` refuses this family.
    """

    def __init__(self, d: int, p: float = 0.75, alpha_c: float = 1.0, b1: float = 1.0):
        if not (0.5 < p <= 1.0):
            raise ParameterError("p must lie in (1/2, 1]")
        self.d = int(d)
        self.q = int(d)
        self.p = float(p)
        self.alpha_c = float(alpha_c)
        self.b1 = float(b1)
        self.C_P = None
        r = (1.0 - p) / p
        self.per_obs_profile = WeaklyConvexKL(
            c1=2.0 * p * (2.0 * p - 1.0), c2=2.0 * p, q=r, r=r
        )
        self.per_obs_L = 2.0 * p

    @property
    def model_id(self) -> str:
        return f"p_power_location(d={self.d},p={self.p})"

    def posterior(self, obs: np.ndarray) -> Potential:
        """The per-observation sum, streamed in blocks of 512 observations,
        plus the prior |theta|^2 / 2.

        Its profile is the weakly convex aggregate of the sum: with r = q,
        Jensen's inequality turns the per-observation (c1, c2, r) into the
        lower branch c1 n^{1-r}; the upper bound is flat, n L + 1, the
        posterior's own L.
        """
        p, n, chunk = self.p, obs.shape[0], 512
        pr, L = self.per_obs_profile, n * self.per_obs_L + 1.0
        profile = WeaklyConvexKL(c1=pr.c1 * n ** (1.0 - pr.r), c2=L, q=0.0, r=pr.r)

        def value(theta):
            theta = np.asarray(theta, dtype=float)
            total = np.zeros(theta.shape[:-1])
            for k in range(0, obs.shape[0], chunk):
                u = 1.0 + np.sum((theta[..., None, :] - obs[k : k + chunk]) ** 2, axis=-1)
                total = total + np.sum(u**p, axis=-1)
            return total + 0.5 * np.sum(theta**2, axis=-1)

        def grad(theta):
            theta = np.asarray(theta, dtype=float)
            total = np.zeros(theta.shape)
            for k in range(0, obs.shape[0], chunk):
                block = obs[k : k + chunk]
                diff = theta[..., None, :] - block
                u = 1.0 + np.sum(diff**2, axis=-1)
                total = total + 2.0 * p * np.sum(u[..., None] ** (p - 1.0) * diff, axis=-2)
            return total + theta

        def hess_vec(theta, v):
            theta = np.asarray(theta, dtype=float)
            v = np.asarray(v, dtype=float)
            out = np.zeros(np.broadcast_shapes(theta.shape, v.shape))
            for k in range(0, obs.shape[0], chunk):
                block = obs[k : k + chunk]
                diff = theta[..., None, :] - block
                u = 1.0 + np.sum(diff**2, axis=-1)
                dv = np.sum(diff * v[..., None, :], axis=-1)
                out = out + np.sum(
                    2.0 * p * u[..., None] ** (p - 1.0) * v[..., None, :]
                    + 4.0 * p * (p - 1.0) * (u ** (p - 2.0) * dv)[..., None] * diff,
                    axis=-2,
                )
            return out + v

        return Potential(dim=self.d, value=value, grad=grad, hess_vec=hess_vec,
                         smoothness=Smoothness(L=L), profile=profile)


class LogisticModel:
    """Logistic regression with a fixed design: observation i carries feature
    row design[i % m] and a label in {-1, +1}.

    Stored observations are (feature vector, label) rows in R^{d+1}.
    Identifiability constants are user-declared metadata; no exact Poincare
    constant is claimed.
    """

    def __init__(self, design, ridge: float = 0.0, alpha_c: float = 1.0, b1: float = 1.0,
                 C_P: Optional[float] = None):
        design = np.atleast_2d(np.asarray(design, dtype=float))
        if design.shape[0] == 0:
            raise ParameterError("empty design")
        self.design = design
        self.d = design.shape[1]
        self.q = self.d + 1
        self.ridge = float(ridge)
        self.alpha_c = float(alpha_c)
        self.b1 = float(b1)
        self.C_P = C_P
        with np.errstate(over="ignore"):  # an overflow is reported next, naming the design
            self.per_obs_L = float(np.max(np.sum(design**2, axis=1)) / 4.0 + self.ridge)
        if not math.isfinite(self.per_obs_L):
            raise ParameterError("design: the squared row norms must be finite")
        self.per_obs_profile = StronglyConvex(self.ridge) if self.ridge > 0 else None

    @property
    def model_id(self) -> str:
        return f"logistic(d={self.d},m={self.design.shape[0]},ridge={self.ridge})"

    def sample(self, theta_star, n: int, rng: np.random.Generator) -> np.ndarray:
        theta_star = np.broadcast_to(np.asarray(theta_star, dtype=float), (self.d,))
        feats = self.design[np.arange(n) % self.design.shape[0]]
        p_plus = 1.0 / (1.0 + np.exp(-feats @ theta_star))
        labels = np.where(rng.random(n) < p_plus, 1.0, -1.0)
        return np.concatenate([feats, labels[:, None]], axis=1)

    def psi(self, obs: np.ndarray) -> np.ndarray:
        return obs[..., -1]

    def posterior(self, obs: np.ndarray) -> Potential:
        """The sum over the sign pairs of the distinct (feature, label) rows,
        weighted by their multiplicities (``builtin_logistic``, with its kernel
        term), its ridge n lambda + 1: the per-observation ridge n-fold plus
        the prior's unit curvature."""
        n = obs.shape[0]
        pot = builtin_logistic(obs[:, :-1], obs[:, -1], ridge=n * self.ridge + 1.0)
        return dataclasses.replace(pot, smoothness=Smoothness(L=n * self.per_obs_L + 1.0))

    def psi_mean(self, theta) -> float:
        theta = np.asarray(theta, dtype=float)
        z = self.design @ theta
        return float(np.mean(np.tanh(z / 2.0)))  # E[y] = 2 sigma(z) - 1


@dataclass(frozen=True)
class PosteriorPotential:
    """The aggregated potential over theta.  It is a record of one field, so
    that ``dataclasses.replace(post, potential=...)`` swaps the potential a
    caller gets back (``perfbench/spans.py`` times its evaluators so)."""

    potential: Potential


def build_posterior(model, data: Dataset) -> PosteriorPotential:
    """W_n = sum_i U(xi_i, .) + |theta|^2 / 2, the family's ``posterior(obs)``,
    with its mode as ``minimizer_hint``.

    An empty dataset is refused (``sample_dataset`` draws n >= 1).  The mode
    is the family's ``minimizer_hint`` when it has one (the conjugate
    posterior's exact mean), else found by gradient descent from the origin;
    the potential's minimum is normalised to 1 there.
    """
    if not hasattr(model, "posterior"):
        raise CapabilityError(f"unsupported model family: {model!r}")
    obs = data.observations
    n = obs.shape[0]
    if obs.shape[1] != model.q:
        raise ParameterError(f"observation dimension {obs.shape[1]} does not match model q={model.q}")
    if n == 0:
        raise ParameterError("the dataset is empty: a posterior needs n >= 1 observations")
    pot = model.posterior(obs)
    mode = pot.minimizer_hint
    if mode is None:
        mode = find_minimizer(pot, np.zeros(model.d), tol_grad=1e-9 * max(1.0, pot.smoothness.L))
    pot = dataclasses.replace(pot, minimizer_hint=mode, offset=1.0 - float(pot.value(mode)),
                              name=f"posterior[{model.model_id}, n={n}]")
    return PosteriorPotential(potential=pot)


def sample_dataset(model, theta_star, n: int, seed: int) -> Dataset:
    """n i.i.d. draws from the model at theta_star, deterministic in seed."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    if not hasattr(model, "sample"):
        raise CapabilityError(f"model {model!r} does not support exact simulation")
    rng = stream(seed)
    obs = model.sample(theta_star, n, rng)
    return Dataset(
        observations=obs,
        model_id=model.model_id,
        theta_star=np.broadcast_to(np.asarray(theta_star, dtype=float), (model.d,)).copy(),
        seed=int(seed),
    )


def epsilon_n(C_P: float, L: float, alpha_c: float, d: int, n, b1: float = 1.0):
    """Statistical accuracy eps_n with eps_n^2 = (C_P L^2 d log(n) / n)^{1/alpha_c}.

    Returns (eps_n, valid) where ``valid`` flags b1 * eps_n^alpha_c <= 1,
    the regime in which the consistency bound applies.
    """
    if n < 2:
        raise ParameterError("n must be >= 2 so that log n > 0")
    if alpha_c < 1:
        raise ParameterError("alpha_c must be >= 1")
    eps_sq = (C_P * L**2 * d * math.log(n) / n) ** (1.0 / alpha_c)
    eps = math.sqrt(eps_sq)
    return eps, bool(b1 * eps**alpha_c <= 1.0)
