"""Datasets, priors, model families and the aggregated posterior potential.

The posterior potential over theta is

    W_n(theta) = sum_i U(xi_i, theta) + V0(theta),

assembled from a model family (per-observation potential U plus exact
simulation) and a log-concave prior.  Only the gradient of W_n is ever
needed; the normalizing constant is never computed.

Each model family gives the sum over its observations through one method,
``sum_potential(obs)``, which returns ``(value, grad, hess_vec, profile,
L_sum, kernel)``: the three evaluators of sum_i U(xi_i, .), its aggregated
curvature profile (None when none is claimed), the Lipschitz constant of
its gradient and its compiled kernel terms (None when it has none).
``build_posterior`` adds the prior to these in one path for every family;
when the sum carries a logistic term and the prior a Gaussian one, the
posterior carries both, in that order, and is evaluated and stepped
compiled, as one potential.

Aggregation of regularity constants: a rho-strongly-convex per-observation
model yields an (n*rho)-strongly-convex sum (the prior's curvature is a
free extra and is not counted); a curvature-sandwich model with r = q
yields the pair (c1 * n^{1-r}, r) for the lower branch and flat smoothness
n*L for the upper one.  The stored gradient-Lipschitz constant includes the
prior's contribution so it is a true bound for the full potential.

The sum over observations is never streamed per observation where it need
not be: the Gaussian location family collapses it to sufficient statistics,
and the logistic family to a weighted sum over sign pairs of its distinct
(feature, label) rows, at most m pairs, and so at most m exponentials per
gradient, for an m-row design (``builtin_logistic``, compiled).  No
evaluator goes through BLAS, so a point's value, gradient and
Hessian-vector product do not depend on the batch it is evaluated in.
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


def standard_gaussian_prior(d: int) -> Potential:
    """V0(theta) = |theta|^2 / 2, the built-in Gaussian potential with mean 0
    and precision 1 (so its gradient is 1-Lipschitz)."""
    prior = builtin_gaussian_location(d, 0.0, 1.0)
    return dataclasses.replace(prior, name=f"standard_gaussian(d={d})")


@dataclass(frozen=True)
class Dataset:
    """Observations plus the manifest fields that regenerate them bit-identically."""

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

    def manifest(self) -> dict:
        return {
            "model_id": self.model_id,
            "theta_star": [float(t) for t in self.theta_star],
            "n": int(self.n),
            "seed": int(self.seed),
        }


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

    def sum_potential(self, obs: np.ndarray):
        """Closed-form aggregate of sum_i U(xi_i, .) via sufficient statistics.

        Algebraically equal to the streamed per-observation sum:
        (rho/2) sum |theta - xi_i|^2 = (n rho/2)|theta|^2 - rho <s, theta> + (rho/2) ssq,
        which is (n rho)-strongly convex with an (n rho)-Lipschitz gradient.
        """
        rho = self.precision
        n = obs.shape[0]
        s = obs.sum(axis=0)
        ssq = float(np.sum(obs**2))

        def value(theta):
            theta = np.asarray(theta, dtype=float)
            return (
                0.5 * n * rho * np.sum(theta**2, axis=-1)
                - rho * np.sum(theta * s, axis=-1)
                + 0.5 * rho * ssq
            )

        def grad(theta):
            theta = np.asarray(theta, dtype=float)
            return n * rho * theta - rho * s

        def hess_vec(theta, v):
            v = np.asarray(v, dtype=float)
            shape = np.broadcast_shapes(np.shape(theta), v.shape)
            return n * rho * np.broadcast_to(v, shape).copy()

        return value, grad, hess_vec, StronglyConvex(n * rho), n * rho, None


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

    def sum_potential(self, obs: np.ndarray, chunk: int = 512):
        """The per-observation sum, streamed in fixed chunks.

        Its profile is the weakly convex aggregate: with r = q, Jensen's
        inequality turns the per-observation (c1, c2, r) into the lower
        branch c1 n^{1-r} and the flat upper bound n L.
        """
        p = self.p
        n = obs.shape[0]
        pr = self.per_obs_profile
        profile = WeaklyConvexKL(c1=pr.c1 * n ** (1.0 - pr.r), c2=n * self.per_obs_L, q=0.0, r=pr.r)

        def _u(theta):
            # (..., n_chunk) bump values for one observation block
            return lambda block: (
                1.0 + np.sum((np.asarray(theta)[..., None, :] - block) ** 2, axis=-1)
            )

        def value(theta):
            theta = np.asarray(theta, dtype=float)
            total = np.zeros(theta.shape[:-1])
            for k in range(0, obs.shape[0], chunk):
                u = _u(theta)(obs[k : k + chunk])
                total = total + np.sum(u**p, axis=-1)
            return total

        def grad(theta):
            theta = np.asarray(theta, dtype=float)
            total = np.zeros(theta.shape)
            for k in range(0, obs.shape[0], chunk):
                block = obs[k : k + chunk]
                diff = theta[..., None, :] - block
                u = 1.0 + np.sum(diff**2, axis=-1)
                total = total + 2.0 * p * np.sum(u[..., None] ** (p - 1.0) * diff, axis=-2)
            return total

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
            return out

        return value, grad, hess_vec, profile, n * self.per_obs_L, None


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
        self.per_obs_L = float(np.max(np.sum(design**2, axis=1)) / 4.0 + self.ridge)
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

    def sum_potential(self, obs: np.ndarray):
        """The sum over the sign pairs of the distinct (feature, label) rows,
        weighted by their multiplicities (``builtin_logistic``, whose kernel
        term it hands back); the per-observation ridge accumulates n-fold."""
        n = obs.shape[0]
        inner = builtin_logistic(obs[:, :-1], obs[:, -1], ridge=n * self.ridge)
        profile = StronglyConvex(n * self.ridge) if self.ridge > 0 else None
        return (inner.value, inner.grad, inner.hess_vec, profile, n * self.per_obs_L,
                inner.kernel)

    def psi_mean(self, theta) -> float:
        theta = np.asarray(theta, dtype=float)
        z = self.design @ theta
        return float(np.mean(np.tanh(z / 2.0)))  # E[y] = 2 sigma(z) - 1


@dataclass(frozen=True)
class PosteriorPotential:
    """The aggregated potential over theta and its mode."""

    potential: Potential
    mode: np.ndarray


def build_posterior(model, data: Dataset, prior: Potential) -> PosteriorPotential:
    """Assemble W_n = sum_i U(xi_i, .) + V0 with aggregated constants.

    The family's ``sum_potential(obs)`` gives the per-observation sum and
    its constants, to which the prior potential V0 adds its own; with no
    observations the posterior is the prior.  The potential's minimum is
    normalised to 1 at the mode, found by gradient descent from the origin.
    """
    if not hasattr(model, "sum_potential"):
        raise CapabilityError(f"unsupported model family: {model!r}")
    obs = data.observations
    n = obs.shape[0]
    if obs.shape[1] != model.q:
        raise ParameterError(f"observation dimension {obs.shape[1]} does not match model q={model.q}")
    if n == 0:  # the posterior is the prior
        value, grad, hess_vec, profile, base_L = prior.value, prior.grad, prior.hess_vec, None, 0.0
        kernel = prior.kernel
    else:
        base_value, base_grad, base_hess_vec, profile, base_L, kernel = model.sum_potential(obs)
        from . import _kernel  # not at package import

        kernel = _kernel.combine(kernel, prior.kernel)
        if kernel is not None:  # one compiled potential: its terms added in order
            ev = _kernel.Kernel(_kernel.load(), kernel, model.d)
            value, grad, hess_vec = ev.value, ev.grad, ev.hess_vec
        else:
            def value(theta):
                return base_value(theta) + prior.value(theta)

            def grad(theta):
                return base_grad(theta) + prior.grad(theta)

            def hess_vec(theta, v):
                return base_hess_vec(theta, v) + prior.hess_vec(theta, v)

    total_L = base_L + prior.smoothness.L
    pot = Potential(
        dim=model.d,
        value=value,
        grad=grad,
        hess_vec=hess_vec,
        smoothness=Smoothness(L=total_L),
        profile=profile,
        name=f"posterior[{model.model_id}, n={n}]",
        kernel=kernel,
    )
    mode = find_minimizer(pot, np.zeros(model.d), tol_grad=1e-9 * max(1.0, total_L))
    pot = dataclasses.replace(pot, minimizer_hint=mode, offset=1.0 - float(pot.value(mode)))
    return PosteriorPotential(potential=pot, mode=mode)


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
