"""Independent ground-truth computations.

Everything here answers "what should the sampler have produced?" by a
route that shares no code with the sampler's hot path (this module imports
neither ``sampler`` nor ``_kernel``; a test checks it): tensor-product
quadrature for posterior means at d <= 3 (a test holds each closed-form
``Potential.mean`` to it), self-normalised importance sampling from a
Student-t around the mode for posterior means at any d <= 50,
exact AR(1) moments for the quadratic-potential chain, and a one-dimensional
integrating-factor solver for the generator equation L g = f - pi(f) on a
graded grid, whose pi-averages are one trapezoid rule (``pi_of``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CapabilityError, NumericError, ParameterError
from .potentials import Potential, dense_hessian, minimizer
from .rng import stream


# ---------------------------------------------------------------------------
# tensor-product quadrature posterior means


def _laplace_frame(pot: Potential):
    """The mode (the potential's ``minimizer_hint``, else found) and the inverse
    Hessian there, the covariance of the Laplace approximation."""
    mode = minimizer(pot)
    hess = dense_hessian(pot, mode)
    return np.asarray(mode, dtype=float), np.linalg.inv(0.5 * (hess + hess.T))


def quadrature_posterior_mean(
    pot: Potential, nodes_per_axis: int = 161, k_sigma: float = 8.0
):
    """Mean of pi proportional to e^{-W} by Laplace-centered trapezoid quadrature.

    Returns (mean, error_estimate); the estimate is a Richardson comparison
    against the half-resolution grid.  Restricted to d <= 3.
    """
    if pot.dim > 3:
        raise CapabilityError("quadrature posterior means are computed for d <= 3 only")
    if nodes_per_axis < 9:
        raise ParameterError("nodes_per_axis too small")
    if nodes_per_axis % 2 == 0:
        nodes_per_axis += 1  # odd counts so the half grid reuses alternate nodes
    mode, cov = _laplace_frame(pot)
    sigma = np.sqrt(np.diag(cov))

    def _mean_on(npa: int):
        axes = [
            np.linspace(mode[i] - k_sigma * sigma[i], mode[i] + k_sigma * sigma[i], npa)
            for i in range(pot.dim)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        logw = -pot.value(pts)
        logw_max = float(np.max(logw))
        # boundary decay check: undecayed tails mean the Laplace box is too small
        shape = (npa,) * pot.dim
        lw = logw.reshape(shape)
        for ax in range(pot.dim):
            for face in (0, -1):
                face_max = float(np.max(np.take(lw, face, axis=ax)))
                if face_max > logw_max - 20.0:
                    raise NumericError(
                        "posterior mass has not decayed at the quadrature boundary",
                        payload={"axis": ax, "face_logweight": face_max - logw_max},
                    )
        # trapezoid weights: the per-axis [1/2, 1, ..., 1, 1/2], one axis at a time
        edge = np.ones(npa)
        edge[[0, -1]] = 0.5
        w = np.exp(lw - logw_max)
        for ax in range(pot.dim):
            w = w * edge.reshape((npa,) + (1,) * (pot.dim - 1 - ax))
        w = w.ravel()
        mass = float(np.sum(w))
        if not (np.isfinite(mass) and mass > 0):
            raise NumericError("quadrature mass is not positive and finite")
        return np.tensordot(w, pts, axes=([0], [0])) / mass

    fine = _mean_on(nodes_per_axis)
    coarse = _mean_on((nodes_per_axis + 1) // 2)
    err = float(np.linalg.norm(fine - coarse))
    return fine, err


# ---------------------------------------------------------------------------
# importance-sampling posterior means at any d

_IS_DRAWS, _IS_DF, _IS_MIN_ESS = 1 << 17, 8.0, 0.1  # draws, t's df, floor on ESS/draws


def importance_posterior_mean(pot: Potential, seed: int):
    """Mean of pi proportional to e^{-W} by self-normalised importance sampling
    (Geweke, Econometrica 57, 1989): 2^17 draws of a Student-t with 8 degrees of
    freedom, centred at the mode (found as for quadrature) and scaled by the
    inverse Hessian there, from the Philox stream ``seed``, formed without BLAS.
    Returns (mean, se, ess), se the norm of the coordinates' standard errors and
    ess = (sum w)^2 / sum w^2; NumericError when ess < draws/10.  d <= 50."""
    mode, cov = _laplace_frame(pot)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise NumericError("the Hessian at the mode is not positive definite") from None
    rng = stream(seed)
    z = rng.standard_normal((_IS_DRAWS, pot.dim))
    z *= np.sqrt(_IS_DF / rng.chisquare(_IS_DF, _IS_DRAWS))[:, None]
    x = mode + sum(z[:, j, None] * chol[:, j] for j in range(pot.dim))  # mode + chol z
    # log target - log proposal, up to constants: (x - mode)' H (x - mode) = |z|^2
    logw = 0.5 * (_IS_DF + pot.dim) * np.log1p(np.sum(z**2, axis=1) / _IS_DF) - np.concatenate(
        [pot.value(x[i : i + 4096]) for i in range(0, _IS_DRAWS, 4096)])  # bounded batches
    w = np.exp(logw - np.max(logw))
    w /= np.sum(w)
    mean = np.sum(w[:, None] * x, axis=0)
    se = math.sqrt(float(np.sum(w[:, None] ** 2 * (x - mean) ** 2)))
    ess = 1.0 / float(np.sum(w**2))
    if not ess >= _IS_MIN_ESS * _IS_DRAWS:  # NaN weights fail too
        raise NumericError(f"importance sampling kept an effective {ess:.4g} of {_IS_DRAWS} "
                           f"draws, under the floor of {_IS_MIN_ESS:g}", payload={"ess": ess})
    return mean, se, ess


# ---------------------------------------------------------------------------
# exact Cesaro moments of the quadratic-potential chain (AR(1))


def ou_cesaro_moments(rho: float, m: float, gamma: float, n_steps: int, x0: float):
    """Exact mean and variance of the Cesaro average of the 1-D chain on
    W(x) = (rho/2)(x - m)^2.

    The chain is the AR(1) recursion X_{k+1} = m + a (X_k - m) + sqrt(2 gamma) Z
    with a = 1 - gamma rho; averaging X_0..X_{N-1} gives

        mean = m + (x0 - m) (1 - a^N) / (N (1 - a))
        var  = (2 gamma / (N^2 (1-a)^2)) *
               [ (N-1) - 2 a (1 - a^{N-1})/(1-a) + a^2 (1 - a^{2(N-1)})/(1-a^2) ]

    (validated against a 10^6-replicate simulation before being frozen as
    an oracle; see the test suite).
    """
    if not (0 < gamma * rho < 2):
        raise ParameterError("need 0 < gamma*rho < 2 for a stable AR(1) recursion")
    if n_steps < 1:
        raise ParameterError("n_steps must be >= 1")
    a = 1.0 - gamma * rho
    n = n_steps
    if n == 1:
        return float(x0), 0.0
    one_minus_a = gamma * rho
    mean = m + (x0 - m) * (1.0 - a**n) / (n * one_minus_a)
    s = (
        (n - 1)
        - 2.0 * a * (1.0 - a ** (n - 1)) / one_minus_a
        + a**2 * (1.0 - a ** (2 * (n - 1))) / (1.0 - a**2)
    )
    var = 2.0 * gamma / (n**2 * one_minus_a**2) * s
    return float(mean), float(var)


# ---------------------------------------------------------------------------
# 1-D Poisson equation solver


_POISSON_GRADING = 2.0  # sinh map strength: nodes cluster near the mode
_POISSON_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class PoissonSolution1D:
    grid: np.ndarray
    g: np.ndarray
    g_prime: np.ndarray
    pi_f: float
    residual_sup: float


def pi_of(pot: Potential, values: np.ndarray, grid: np.ndarray) -> float:
    """Trapezoid-quadrature mean of a grid function against pi proportional to
    e^{-W}; the Poisson solver's pi(f) and its centring of g."""
    w_raw = pot.value(grid[:, None])
    dens = np.exp(-(w_raw - np.min(w_raw)))
    qw = np.zeros_like(grid)
    dx = np.diff(grid)
    qw[:-1] += 0.5 * dx
    qw[1:] += 0.5 * dx
    return float(np.sum(qw * dens * values) / np.sum(qw * dens))


def poisson_solve_1d(
    pot: Potential,
    f: Callable[[np.ndarray], np.ndarray],
    *,
    n_nodes: int = 20001,
    k_sigma: float = 10.0,
) -> PoissonSolution1D:
    """Solve g'' - W' g' = f - pi(f) on a truncated interval, pi(g) = 0.

    The integrating factor gives g'(x) = e^{W(x)} int_{-inf}^x e^{-W} (f - pi f),
    equivalently -e^{W(x)} int_x^{inf}.  Each half of the grid is marched
    toward the mode with the representation whose homogeneous e^W mode
    decays there, panel by panel in the rescaled form

        G(x_{k+1}) = e^{W_{k+1} - W_k} G(x_k) + int_{x_k}^{x_{k+1}} e^{W_{k+1} - W(u)} (f - pi f) du

    (Simpson panels; the right half marches leftward with the mirrored
    recursion), which keeps every quantity O(1) out to the tails.  Boundary
    values are the Watson-lemma tail estimates +/- (f - pi f)/(-W') at the
    grid ends.  The reported residual applies the generator to the computed
    solution by finite differences; it is enforced on the interior mask
    (potential at least 2 units below its boundary level); above 1e-6 it
    raises NumericError.  ``f`` must be 1-Lipschitz.  The grid has ``n_nodes``
    (>= 101) nodes on the mode +/- ``k_sigma`` Laplace standard deviations,
    clustered near the mode by a sinh map; pi(f) and pi(g) are :func:`pi_of`.
    """
    if pot.dim != 1:
        raise CapabilityError("the Poisson solver is one-dimensional")
    if n_nodes < 101:
        raise ParameterError("grid too coarse")
    mode, cov = _laplace_frame(pot)
    mode_x, sig = float(mode[0]), math.sqrt(cov[0, 0])

    u = np.linspace(-1.0, 1.0, n_nodes)
    x = mode_x + k_sigma * sig * np.sinh(_POISSON_GRADING * u) / math.sinh(_POISSON_GRADING)
    xs = x[:, None]
    w_raw = pot.value(xs)
    w_shift = w_raw - float(np.min(w_raw))
    fx = np.asarray(f(x), dtype=float)
    if fx.shape != x.shape:
        raise ParameterError("f must map the grid to a same-shaped array")
    lip = np.max(np.abs(np.diff(fx) / np.diff(x)))
    if lip > 1.0 + 1e-6:
        raise ParameterError(f"f must be 1-Lipschitz, measured constant {lip:.6g}")

    pi_f = pi_of(pot, fx, x)
    h = fx - pi_f

    # Rescaled integrating-factor march with Simpson panels.  Each half is
    # integrated toward the mode with the representation that decays in that
    # direction (left integral on the left half, right integral on the
    # right), so the homogeneous e^W mode is damped, never amplified.
    xm = 0.5 * (x[:-1] + x[1:])
    wm_shift = pot.value(xm[:, None]) - float(np.min(w_raw))
    fm = np.asarray(f(xm), dtype=float) - pi_f
    mid = int(np.argmin(w_shift))
    wprime_l = float(pot.grad(np.array([x[0]]))[0])
    wprime_r = float(pot.grad(np.array([x[-1]]))[0])
    if wprime_l >= 0 or wprime_r <= 0:
        raise NumericError("potential is not coercive at the grid boundary")

    gp = np.empty_like(x)
    # left piece: G(x) = e^{W} int_{-inf}^x e^{-W} h, Watson tail at x[0]
    gp[0] = h[0] / (-wprime_l)
    for k in range(mid):
        dx = x[k + 1] - x[k]
        damp = math.exp(w_shift[k + 1] - w_shift[k])  # <= 1 on the left half
        e_left = damp * h[k]
        e_mid = math.exp(w_shift[k + 1] - wm_shift[k]) * fm[k]
        panel = dx / 6.0 * (e_left + 4.0 * e_mid + h[k + 1])
        gp[k + 1] = damp * gp[k] + panel
    g_left_mid = gp[mid]
    # right piece: H(x) = -e^{W} int_x^{inf} e^{-W} h, Watson tail at x[-1]
    gp[-1] = -h[-1] / wprime_r
    for k in range(n_nodes - 2, mid - 1, -1):
        dx = x[k + 1] - x[k]
        damp = math.exp(w_shift[k] - w_shift[k + 1])  # <= 1 on the right half
        e_mid = math.exp(w_shift[k] - wm_shift[k]) * fm[k]
        e_right = damp * h[k + 1]
        panel = dx / 6.0 * (h[k] + 4.0 * e_mid + e_right)
        gp[k] = damp * gp[k + 1] - panel
    # the two representations agree up to the pi(f) quadrature error
    gp[mid] = 0.5 * (g_left_mid + gp[mid])

    # integrate g' (Simpson via midpoint values of g' are unavailable; use
    # trapezoid, whose h^2 error is dominated by the residual tolerance)
    g = np.concatenate([[0.0], np.cumsum(0.5 * (gp[:-1] + gp[1:]) * np.diff(x))])
    g = g - pi_of(pot, g, x)  # pi(g) = 0

    # residual by finite differences of the computed g'
    wp = pot.grad(xs)[:, 0]
    dgp = np.empty_like(gp)
    dgp[1:-1] = (gp[2:] - gp[:-2]) / (x[2:] - x[:-2])
    dgp[0] = (gp[1] - gp[0]) / (x[1] - x[0])
    dgp[-1] = (gp[-1] - gp[-2]) / (x[-1] - x[-2])
    residual = dgp - wp * gp - h
    w_edge = min(w_shift[0], w_shift[-1])
    interior = w_shift <= w_edge - 2.0
    interior[[0, -1]] = False
    res_sup = float(np.max(np.abs(residual[interior])))
    if res_sup > _POISSON_RESIDUAL_TOL:
        raise NumericError(
            f"Poisson residual {res_sup:.3g} above tolerance {_POISSON_RESIDUAL_TOL}",
            payload={"residual": residual, "grid": x},
        )
    return PoissonSolution1D(grid=x, g=g, g_prime=gp, pi_f=pi_f, residual_sup=res_sup)
