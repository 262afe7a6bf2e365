"""Convex potentials with curvature metadata and numeric regularity checks.

A :class:`Potential` bundles evaluators for W, its gradient and
Hessian-vector products with the regularity constants the tuning formulas
consume: the gradient Lipschitz constant L, and either a strong-convexity
modulus rho or a curvature-vs-height profile (c1, c2, q, r) sandwiching the
Hessian spectrum between ``c1*W^-r`` and ``c2*W^-q``.

Evaluators are pure functions accepting a single point ``(d,)`` or a batch
``(m, d)`` and are safe to share across workers.  Hessians are exposed only
through matrix-vector products; dense matrices are assembled only inside
verification oracles for d <= 50.

The curvature-vs-height inequalities and the W-power moment checks are
stated for W shifted to minimum 1.  No potential stores that shift:
:func:`minimum_shift` derives it, 1 - W(x*), from the minimiser x*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .errors import CapabilityError, NumericError, ParameterError
from .rng import stream


# StronglyConvex, WeaklyConvexKL and Smoothness check their fields in __new__, which
# _replace does not re-run.
class StronglyConvex(NamedTuple("StronglyConvex", [("rho", float)])):
    """Hessian bounded below by rho * identity."""

    __slots__ = ()

    def __new__(cls, rho: float):
        if not rho > 0:
            raise ParameterError(f"rho must be positive, got {rho}")
        return super().__new__(cls, rho)


class WeaklyConvexKL(NamedTuple("WeaklyConvexKL", [("c1", float), ("c2", float), ("q", float),
                                                   ("r", float)])):
    """Curvature sandwich c1*W^-r <= lambda_min <= lambda_max <= c2*W^-q."""

    __slots__ = ()

    def __new__(cls, c1: float, c2: float, q: float, r: float):
        if not (c1 > 0 and c2 > 0):
            raise ParameterError("c1 and c2 must be positive")
        if not (0 <= q <= r < 1):
            raise ParameterError(f"exponents must satisfy 0 <= q <= r < 1, got q={q}, r={r}")
        return super().__new__(cls, c1, c2, q, r)


ConvexityProfile = Union[StronglyConvex, WeaklyConvexKL]


class Smoothness(NamedTuple("Smoothness", [
    ("L", float), ("L_tilde", Optional[float]), ("lap_grad_sup", Optional[float]),
    ("rho_lap", Optional[float]),  # growth exponent: lap_grad_sup^2 <= C d^(2 rho_lap)
])):
    """Gradient/Hessian regularity constants.

    L bounds the gradient Lipschitz constant; L_tilde, when present, bounds
    the Hessian Lipschitz constant in spectral norm; lap_grad_sup bounds the
    sup-norm of the componentwise Laplacian of the gradient field.
    """

    __slots__ = ()

    def __new__(cls, L: float, L_tilde: Optional[float] = None,
                lap_grad_sup: Optional[float] = None, rho_lap: Optional[float] = None):
        if not (np.isfinite(L) and L > 0):
            raise ParameterError(f"L must be finite and positive, got {L}")
        for name, v in (("L_tilde", L_tilde), ("lap_grad_sup", lap_grad_sup)):
            if v is not None and not (np.isfinite(v) and v >= 0):
                raise ParameterError(f"{name} must be finite and nonnegative")
        return super().__new__(cls, L, L_tilde, lap_grad_sup, rho_lap)


@dataclass(frozen=True)
class Potential:
    """A twice-differentiable convex potential on R^d.

    ``value``/``grad``/``hess_vec`` accept points of shape ``(d,)`` or
    batches ``(m, d)``; ``value`` is the raw formula, and :func:`minimum_shift`
    gives the constant that puts its minimum at 1.  ``kernel``, when set, is
    the one compiled term ``(rows, cplus, cminus, mu, center)``, W up to a
    constant as a sum over sign pairs plus (mu/2) |x - center|^2 (see
    ``_kernel.c``), that the compiled chain loop steps with the same bits
    as ``grad``; ``dataclasses.replace`` keeps it, so a potential
    with wrapped evaluators steps the same code.  ``mean``, when set, is the
    exact mean of the density proportional to e^{-W}, known in closed form;
    ``dataclasses.replace`` keeps it too, so a W changed by more than a
    constant must reset it.
    """

    dim: int
    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess_vec: Callable[[np.ndarray, np.ndarray], np.ndarray]
    smoothness: Smoothness
    profile: Optional[ConvexityProfile]
    minimizer_hint: Optional[np.ndarray] = None
    name: str = ""
    kernel: Optional[tuple] = None
    mean: Optional[np.ndarray] = None


def _as_point(x, dim) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != dim:
        raise ParameterError(f"point has dimension {x.shape[-1]}, expected {dim}")
    return x


def _vector(v, d, name) -> np.ndarray:
    """A number or a d-vector, as a (d,) array."""
    try:
        return np.broadcast_to(np.asarray(v, dtype=float), (d,)).copy()
    except ValueError:
        shape = np.shape(v)
        raise ParameterError(f"{name} must be a number or {d} numbers, got shape {shape}") from None


def builtin_gaussian_location(d: int, mean=0.0, precision: float = 1.0) -> Potential:
    """Quadratic potential W(x) = (rho/2) |x - mean|^2.

    The canonical strongly convex instance with rho = L = precision.
    e^{-W} is symmetric about ``mean``, its mean.
    """
    if d < 1:
        raise ParameterError(f"dimension must be >= 1, got {d}")
    if not precision > 0:
        raise ParameterError(f"precision must be positive, got {precision}")
    rho = float(precision)
    m = _vector(mean, d, "mean")

    def value(x):
        x = _as_point(x, d)
        return 0.5 * rho * np.sum((x - m) ** 2, axis=-1)

    def grad(x):
        x = _as_point(x, d)
        return rho * (x - m)

    def hess_vec(x, v):
        v = np.asarray(v, dtype=float)
        return rho * np.broadcast_to(v, np.broadcast_shapes(np.shape(x), v.shape)).copy()

    return Potential(
        dim=d,
        value=value,
        grad=grad,
        hess_vec=hess_vec,
        smoothness=Smoothness(L=rho, L_tilde=0.0, lap_grad_sup=0.0, rho_lap=0.0),
        profile=StronglyConvex(rho),
        minimizer_hint=m,
        name=f"gaussian(d={d},rho={rho})",
        kernel=(np.empty((0, d)), [], [], rho, m),
        mean=m,
    )


def builtin_p_power(d: int, center=0.0, p: float = 0.75) -> Potential:
    """W(x) = (1 + |x - center|^2)^p with p in (1/2, 1].

    Satisfies the curvature-vs-height sandwich with r = q = (1-p)/p,
    c1 = 2p(2p-1), c2 = 2p; hence L = 2p.  e^{-W} is symmetric about ``center``, its mean.
    """
    if d < 1:
        raise ParameterError(f"dimension must be >= 1, got {d}")
    if not (0.5 < p <= 1.0):
        raise ParameterError(f"p must lie in (1/2, 1], got {p}")
    c = _vector(center, d, "center")
    p = float(p)

    def value(x):
        x = _as_point(x, d)
        u = 1.0 + np.sum((x - c) ** 2, axis=-1)
        return u**p

    def grad(x):
        x = _as_point(x, d)
        y = x - c
        u = 1.0 + np.sum(y**2, axis=-1)
        return 2.0 * p * u[..., None] ** (p - 1.0) * y

    def hess_vec(x, v):
        x = _as_point(x, d)
        v = np.asarray(v, dtype=float)
        y = x - c
        u = 1.0 + np.sum(y**2, axis=-1)
        yv = np.sum(y * v, axis=-1)
        return (
            2.0 * p * u[..., None] ** (p - 1.0) * v
            + 4.0 * p * (p - 1.0) * (u ** (p - 2.0) * yv)[..., None] * y
        )

    r = (1.0 - p) / p
    # Third-derivative bounds for u >= 1 (spectral norm of D^3 W along unit
    # directions, and |Laplacian of the gradient field|); both decay like
    # u^{p-3/2} so the supremum is taken at u = 1.
    l_tilde = 12.0 * p * (1.0 - p) + 8.0 * p * (1.0 - p) * (2.0 - p)
    lap_sup = p * (1.0 - p) * (8.0 * (2.0 - p) + 4.0 * (d + 2.0))
    return Potential(
        dim=d,
        value=value,
        grad=grad,
        hess_vec=hess_vec,
        smoothness=Smoothness(L=2.0 * p, L_tilde=l_tilde, lap_grad_sup=lap_sup, rho_lap=1.0),
        profile=WeaklyConvexKL(c1=2.0 * p * (2.0 * p - 1.0), c2=2.0 * p, q=r, r=r),
        minimizer_hint=c,
        name=f"p_power(d={d},p={p})",
        mean=c,
    )


def builtin_logistic(features, labels, ridge: float = 0.0) -> Potential:
    """Ridge-regularized logistic potential over the parameter theta.

    W(theta) = sum_i log(1 + exp(-y_i <a_i, theta>)) + (ridge/2)|theta|^2.
    Strongly convex with modulus ``ridge`` when ridge > 0; without ridge no
    curvature profile is claimed (``profile`` is None).

    The rows b_i = y_i a_i are collapsed once, here, into sign pairs: each
    distinct row b and its negation -b share one base row, kept in order of
    first appearance, with two float weights, the multiplicities c+ of b
    and c- of -b (a zero row is its own negation and counts in c+ only).
    The evaluators are the compiled ones of ``_kernel.c``, which sum
    c+ f(z) + c- f(-z) over the pairs with z = <b, theta> and one exp per
    pair; the potential's ``kernel`` field carries the same term, so chains
    step the same code.  Every point is evaluated on its own, so its result
    does not depend on the batch.  Without a C compiler this family cannot
    run and CapabilityError is raised.
    """
    a = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.atleast_1d(np.asarray(labels, dtype=float))
    if a.shape[0] == 0:
        raise ParameterError("empty feature set")
    if a.shape[0] != y.shape[0]:
        raise ParameterError("features and labels disagree in length")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ParameterError("labels must lie in {-1, +1}")
    if ridge < 0:
        raise ParameterError(f"ridge must be >= 0, got {ridge}")
    with np.errstate(over="ignore"):  # an overflow is reported next, naming the features
        sq_norms = np.sum(a**2, axis=1)
    if not np.isfinite(np.sum(sq_norms)):
        raise ParameterError("features: the squared row norms must be finite and have a finite sum")
    from . import _kernel  # at the first logistic potential, not at package import

    lib = _kernel.load()
    if lib is None:
        raise CapabilityError("the logistic family needs its compiled evaluators, which "
                              "could not be built (is a C compiler installed?)")
    d = a.shape[1]
    mu = float(ridge)
    b = y[:, None] * a
    # a row's sign is that of its first nonzero coordinate (a zero row is +);
    # np.unique takes -0.0 and 0.0 as equal
    lead = b[np.arange(b.shape[0]), np.argmax(b != 0.0, axis=1)]
    sign = np.where(lead < 0.0, -1.0, 1.0)
    _, first, pair = np.unique(sign[:, None] * b, axis=0, return_index=True,
                               return_inverse=True)
    pair = pair.reshape(-1)
    plus = sign[first][pair] == sign  # the row is its pair's first row, not its negation
    order = np.argsort(first)  # pairs in order of first appearance
    cplus = np.bincount(pair[plus], minlength=first.size)[order].astype(float)
    cminus = np.bincount(pair[~plus], minlength=first.size)[order].astype(float)
    rows = np.ascontiguousarray(b[first[order]])
    kernel = (rows, cplus, cminus, mu, np.zeros(d))
    ev = _kernel.Kernel(lib, kernel, d)
    # Hessian = sum_i a_i a_i^T sigma(1-sigma) + mu I, so the summed bound
    # applies; the all-zero design has a constant gradient, keep L positive
    L = float(max(np.sum(sq_norms) / 4.0 + mu, 1e-12))
    profile = StronglyConvex(mu) if mu > 0 else None
    return Potential(
        dim=d,
        value=ev.value,
        grad=ev.grad,
        hess_vec=ev.hess_vec,
        smoothness=Smoothness(L=L),
        profile=profile,
        minimizer_hint=None,
        name=f"logistic(d={d},n={a.shape[0]},ridge={mu})",
        kernel=kernel,
    )


def hess_columns(pot: Potential, x, y) -> np.ndarray:
    """The Hessian at ``x`` applied to each column of ``y``: the stack of
    ``hess_vec(x, y[..., j])`` along the last axis."""
    return np.stack([pot.hess_vec(x, y[..., j]) for j in range(y.shape[-1])], axis=-1)


def dense_hessian(pot: Potential, x) -> np.ndarray:
    """Assemble the full Hessian from matrix-vector products (d <= 50 only)."""
    if pot.dim > 50:
        raise CapabilityError("dense Hessians are reconstructed only for d <= 50")
    return hess_columns(pot, np.asarray(x, dtype=float), np.eye(pot.dim))


def find_minimizer(pot: Potential, x0, tol_grad: float = 1e-10, max_iter: int = 200000):
    """Gradient descent with step 1/L until the gradient norm drops below tol.

    Raises :class:`NumericError` carrying the best iterate if the cap is hit.
    """
    if not tol_grad > 0:
        raise ParameterError("tol_grad must be positive")
    x = np.asarray(x0, dtype=float).copy()
    step = 1.0 / pot.smoothness.L
    best = x.copy()
    best_norm = np.inf
    for _ in range(max_iter):
        g = pot.grad(x)
        gn = float(np.linalg.norm(g))
        if gn < best_norm:
            best_norm, best = gn, x.copy()
        if gn <= tol_grad:
            return x
        x = x - step * g
    raise NumericError(
        f"gradient descent did not reach |grad| <= {tol_grad} in {max_iter} iterations",
        payload={"best_iterate": best, "best_grad_norm": best_norm},
    )


def minimizer(pot: Potential) -> np.ndarray:
    """The potential's ``minimizer_hint``, else gradient descent from the origin."""
    if pot.minimizer_hint is not None:
        return pot.minimizer_hint
    return find_minimizer(pot, np.zeros(pot.dim))


def minimum_shift(pot: Potential):
    """The minimiser x* (:func:`minimizer`) and 1 - W(x*), the shift that puts W's minimum at 1;
    CapabilityError, before any search, where no hint or convexity profile guarantees an x*."""
    if pot.minimizer_hint is None and pot.profile is None:
        raise CapabilityError(f"{pot.name or 'the potential'} has no minimizer_hint and no "
                              "convexity profile, so W has no minimum to shift to 1")
    x_star = minimizer(pot)
    return x_star, 1.0 - float(pot.value(x_star))


class ProfileReport(NamedTuple):
    """Outcome of a probe-based regularity check."""

    passed: bool
    worst: dict
    violating_probe: Optional[np.ndarray] = None


def probe_points(center: np.ndarray, radius: float, n_probes: int, seed: int) -> np.ndarray:
    """Probes on spheres of log-spaced radii around ``center``.

    Radii span [radius * 1e-3, radius] so both the near-minimizer and tail
    regimes of the curvature inequalities get exercised.
    """
    center = np.asarray(center, dtype=float)
    d = center.shape[0]
    rng = stream(seed)
    radii = np.geomspace(radius * 1e-3, radius, n_probes)
    z = rng.standard_normal((n_probes, d))
    z /= np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-300)
    return center + radii[:, None] * z


_SLACK = 1e-8


def verify_kl_profile(
    pot: Potential, n_probes: int = 10000, radius: float = 10.0, seed: int = 0
) -> ProfileReport:
    """Check the curvature sandwich c1 W^-r <= eigs <= c2 W^-q at probe points.

    Failure is a report field; a potential without a weakly convex profile
    raises CapabilityError.  Eigenvalues come from a dense eigendecomposition
    (d <= 50).
    """
    prof = pot.profile
    if not isinstance(prof, WeaklyConvexKL):
        raise CapabilityError("potential does not carry a weakly convex profile")
    x_star, shift = minimum_shift(pot)
    pts = probe_points(x_star, radius, n_probes, seed)
    w = pot.value(pts) + shift
    hess = dense_hessian(pot, pts)  # (n_probes, d, d)
    eigs = np.linalg.eigvalsh(0.5 * (hess + np.swapaxes(hess, -1, -2)))
    lo = eigs[:, 0] * w**prof.r / prof.c1  # want >= 1
    hi = eigs[:, -1] * w**prof.q / prof.c2  # want <= 1
    worst_lo = float(np.min(lo))
    worst_hi = float(np.max(hi))
    passed = (worst_lo >= 1.0 - _SLACK) and (worst_hi <= 1.0 + _SLACK)
    if passed:
        bad = None
    elif worst_lo < 1.0 - _SLACK:
        bad = pts[int(np.argmin(lo))]
    else:
        bad = pts[int(np.argmax(hi))]
    return ProfileReport(
        passed=bool(passed),
        worst={"lambda_min_ratio": float(worst_lo), "lambda_max_ratio": float(worst_hi)},
        violating_probe=None if passed else bad,
    )


def verify_grad_bounds(
    pot: Potential, n_probes: int = 1000, radius: float = 10.0, seed: int = 0
) -> ProfileReport:
    """Check the gradient and quadratic-growth consequences of the profile.

    With W normalized to min 1 and the sandwich constants (c1, c2, q, r),
    every probe x must satisfy

        c1/(1-r) (W^{1-r}(x) - W^{1-r}(x*)) <= |grad W(x)|^2
        |grad W(x)|^2 <= 2 c2/(1-q) (W^{1-q}(x) - W^{1-q}(x*))
        W^{1+r}(x) - W^{1+r}(x*) >= (1+r) c1 / 2 |x - x*|^2
        W^{1+q}(x) - W^{1+q}(x*) <= c2 (1+q)/(1-q) |x - x*|^2

    (integrating the sandwich along the gradient flow; at x = x* all sides
    vanish).  Failure is reported, not raised; a potential with no convexity
    profile raises CapabilityError.
    """
    prof = pot.profile
    if isinstance(prof, StronglyConvex):
        # embed as the degenerate sandwich with flat exponents
        prof = WeaklyConvexKL(c1=prof.rho, c2=pot.smoothness.L, q=0.0, r=0.0)
    if not isinstance(prof, WeaklyConvexKL):
        raise CapabilityError("potential carries no convexity profile")
    x_star, shift = minimum_shift(pot)
    pts = probe_points(x_star, radius, n_probes, seed)
    w = pot.value(pts) + shift
    w_star = float(pot.value(x_star) + shift)
    g2 = np.sum(pot.grad(pts) ** 2, axis=-1)
    dist2 = np.sum((pts - x_star) ** 2, axis=-1)
    c1, c2, q, r = prof.c1, prof.c2, prof.q, prof.r

    lower_grad = c1 / (1.0 - r) * (w ** (1.0 - r) - w_star ** (1.0 - r))
    upper_grad = 2.0 * c2 / (1.0 - q) * (w ** (1.0 - q) - w_star ** (1.0 - q))
    lower_quad = (1.0 + r) * c1 / 2.0 * dist2
    upper_quad = c2 * (1.0 + q) / (1.0 - q) * dist2
    scale = np.maximum.reduce([np.abs(g2), np.abs(lower_grad), np.ones_like(g2)])
    ok = (
        (lower_grad <= g2 + _SLACK * scale)
        & (g2 <= upper_grad + _SLACK * scale)
        & (w ** (1.0 + r) - w_star ** (1.0 + r) >= lower_quad - _SLACK * scale)
        & (w ** (1.0 + q) - w_star ** (1.0 + q) <= upper_quad + _SLACK * scale)
    )
    passed = bool(np.all(ok))
    worst = {
        "grad_lower_margin": float(np.min(g2 - lower_grad)),
        "grad_upper_margin": float(np.min(upper_grad - g2)),
        "quad_lower_margin": float(np.min(w ** (1.0 + r) - w_star ** (1.0 + r) - lower_quad)),
        "quad_upper_margin": float(np.min(upper_quad - (w ** (1.0 + q) - w_star ** (1.0 + q)))),
    }
    bad = None if passed else pts[int(np.argmin(ok))]
    return ProfileReport(passed=passed, worst=worst, violating_probe=bad)
