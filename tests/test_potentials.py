from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cesaro_lmc.bayes import (
    Dataset,
    GaussianLocationModel,
    LogisticModel,
    PPowerLocationModel,
    build_posterior,
    sample_dataset,
)
from cesaro_lmc.errors import NumericError, ParameterError
from cesaro_lmc.potentials import (
    StronglyConvex,
    WeaklyConvexKL,
    builtin_gaussian_location,
    builtin_logistic,
    builtin_p_power,
    dense_hessian,
    find_minimizer,
    verify_grad_bounds,
    verify_kl_profile,
)
from cesaro_lmc.rng import stream


def finite_diff_grad(pot, x, h=1e-5):
    g = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (pot.value(x + e) - pot.value(x - e)) / (2 * h)
    return g


# the logistic family runs on the compiled kernel
COMPILED = pytest.mark.compiled

# potential factories, called by the fixtures below, so that a host without
# a C compiler skips the logistic ones
BUILTINS = [
    pytest.param(lambda: builtin_gaussian_location(3, [0.5, -1.0, 2.0], 2.0),
                 id="gaussian(d=3,rho=2.0)"),
    pytest.param(lambda: builtin_p_power(3, 0.0, 0.75), id="p_power(d=3,p=0.75)"),
    pytest.param(lambda: builtin_p_power(2, [1.0, -1.0], 0.6), id="p_power(d=2,p=0.6)"),
    pytest.param(lambda: builtin_logistic(np.array([[1.0, 0.5], [-0.3, 1.2]]), [1, -1], ridge=0.5),
                 id="logistic(d=2,n=2,ridge=0.5)", marks=COMPILED),
]


class TestBuiltins:
    def test_gaussian_eval(self):
        g = builtin_gaussian_location(1, 0.0, 1.0)
        assert g.value(np.array([2.0])) == pytest.approx(2.0)

    def test_gaussian_identity_hessian_grad(self):
        g = builtin_gaussian_location(3, 0.0, 1.0)
        assert np.allclose(g.grad(np.ones(3)), np.ones(3))

    def test_gaussian_grad_vanishes_at_mean(self):
        g = builtin_gaussian_location(2, [5.0, -3.0], 2.0)
        assert np.allclose(g.grad(np.array([5.0, -3.0])), 0.0)

    def test_gaussian_rejects_bad_precision(self):
        with pytest.raises(ParameterError):
            builtin_gaussian_location(2, 0.0, 0.0)

    def test_p_power_values(self):
        pp = builtin_p_power(1, 0.0, 1.0)
        x = np.array([1.0])
        assert pp.value(x) == pytest.approx(2.0)
        assert pp.grad(x)[0] == pytest.approx(2.0)

    def test_p_power_hessian_at_center(self):
        pp = builtin_p_power(2, 0.0, 0.75)
        eigs = np.linalg.eigvalsh(dense_hessian(pp, np.zeros(2)))
        assert np.allclose(eigs, 1.5)

    def test_p_power_rejects_bad_exponent(self):
        for p in (0.5, 1.2, 0.0):
            with pytest.raises(ParameterError):
                builtin_p_power(2, 0.0, p)

    def test_p_power_profile_constants(self):
        pp = builtin_p_power(4, 0.0, 0.8)
        prof = pp.profile
        assert prof.c1 == pytest.approx(2 * 0.8 * (2 * 0.8 - 1))
        assert prof.c2 == pytest.approx(1.6)
        assert prof.r == prof.q == pytest.approx((1 - 0.8) / 0.8)

    @COMPILED
    def test_logistic_zero_feature(self):
        lg = builtin_logistic(np.zeros((1, 2)), [1], ridge=0.0)
        for theta in (np.zeros(2), np.array([3.0, -7.0])):
            assert lg.value(theta) == pytest.approx(np.log(2.0))

    @COMPILED
    def test_logistic_grad_at_origin(self):
        lg = builtin_logistic(np.array([[1.0]]), [1])
        assert lg.grad(np.zeros(1))[0] == pytest.approx(-0.5)

    @COMPILED
    def test_logistic_hessian_with_ridge(self):
        lg = builtin_logistic(np.array([[1.0]]), [1], ridge=1.0)
        hess = finite_diff_grad_of_grad(lg, np.zeros(1))
        assert hess[0, 0] == pytest.approx(1.25, rel=1e-6)
        assert isinstance(lg.profile, StronglyConvex)
        assert lg.profile.rho == 1.0

    @COMPILED
    def test_logistic_without_ridge_is_unverified(self):
        lg = builtin_logistic(np.array([[1.0, 0.0]]), [1], ridge=0.0)
        assert lg.profile is None

    @COMPILED
    def test_logistic_rejects_a_point_of_another_dimension(self):
        lg = builtin_logistic(np.array([[1.0, 0.5]]), [1])
        for bad in (np.zeros(4), np.zeros((3, 1)), 0.0):
            for call in (lg.value, lg.grad, lambda x: lg.hess_vec(x, x)):
                with pytest.raises(ParameterError, match="point has shape"):
                    call(bad)

    def test_logistic_rejects_empty_and_bad_labels(self):
        with pytest.raises(ParameterError):
            builtin_logistic(np.zeros((0, 2)), [])
        with pytest.raises(ParameterError):
            builtin_logistic(np.array([[1.0]]), [0])


def finite_diff_grad_of_grad(pot, x, h=1e-6):
    d = x.size
    hess = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        hess[:, j] = (pot.grad(x + e) - pot.grad(x - e)) / (2 * h)
    return hess


class TestEvaluatorConsistency:
    @pytest.fixture(scope="class", params=BUILTINS)
    def pot(self, request):
        return request.param()

    def test_grad_matches_finite_differences(self, pot):
        rng = stream(11)
        for _ in range(100):
            x = rng.standard_normal(pot.dim) * 3.0
            g = pot.grad(x)
            fd = finite_diff_grad(pot, x)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))

    def test_hess_vec_matches_fd_of_grad(self, pot):
        rng = stream(13)
        x = rng.standard_normal(pot.dim)
        v = rng.standard_normal(pot.dim)
        hv = pot.hess_vec(x, v)
        fd = finite_diff_grad_of_grad(pot, x) @ v
        assert np.allclose(hv, fd, rtol=1e-4, atol=1e-6)

    def test_gradient_lipschitz_bound(self, pot):
        rng = stream(17)
        for _ in range(200):
            x, y = rng.standard_normal((2, pot.dim)) * 4.0
            lhs = np.linalg.norm(pot.grad(x) - pot.grad(y))
            assert lhs <= pot.smoothness.L * np.linalg.norm(x - y) * (1 + 1e-9)

    def test_batched_eval_matches_pointwise(self, pot):
        rng = stream(19)
        xs = rng.standard_normal((7, pot.dim))
        vals = pot.value(xs)
        grads = pot.grad(xs)
        for i in range(7):
            assert vals[i] == pytest.approx(float(pot.value(xs[i])))
            assert np.array_equal(grads[i], pot.grad(xs[i]))


def _posteriors():
    gauss = GaussianLocationModel(2, precision=1.5)
    logit = LogisticModel(stream(4).standard_normal((10, 2)), ridge=0.5)
    ppow = PPowerLocationModel(2, p=0.75)
    # 700 observations cross the p-power sum's 512-observation chunk edge
    pp_obs = Dataset(stream(5).standard_normal((700, 2)), ppow.model_id, np.zeros(2), 5)
    cases = [
        (gauss, sample_dataset(gauss, [0.3, -0.2], 300, seed=2), ()),
        (ppow, pp_obs, ()),
        (logit, sample_dataset(logit, [0.4, -0.3], 200, seed=8), COMPILED),
    ]
    return [
        pytest.param(
            lambda model=model, data=data: build_posterior(model, data).potential,
            id=f"posterior[{model.model_id}, n={data.n}]", marks=marks,
        )
        for model, data, marks in cases
    ]


def _bits(a):
    return np.asarray(a).tobytes()


class TestBatchInvariance:
    """Row i of an evaluator on a batch equals the evaluation of that row
    alone, bit for bit: a chain's output may not depend on its batch."""

    @pytest.fixture(scope="class", params=BUILTINS + _posteriors())
    def pot(self, request):
        return request.param()

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_rows_do_not_depend_on_the_batch(self, pot, data):
        m = data.draw(st.integers(1, 24), label="m")
        coords = st.floats(-6.0, 6.0, allow_nan=False)
        xs = data.draw(arrays(np.float64, (m, pot.dim), elements=coords), label="xs")
        vs = data.draw(arrays(np.float64, (m, pot.dim), elements=coords), label="vs")
        vals, grads, hvs = pot.value(xs), pot.grad(xs), pot.hess_vec(xs, vs)
        hv_shared = pot.hess_vec(xs, vs[0])  # one direction broadcast over the batch
        for i in range(m):
            row = slice(i, i + 1)
            assert _bits(vals[i]) == _bits(pot.value(xs[row])[0])
            assert _bits(grads[i]) == _bits(pot.grad(xs[row])[0])
            assert _bits(hvs[i]) == _bits(pot.hess_vec(xs[row], vs[row])[0])
            assert _bits(hv_shared[i]) == _bits(pot.hess_vec(xs[row], vs[0])[0])


@COMPILED
class TestLogisticRowWeights:
    # repeated rows, a label flip of a repeated row, and (-a, -1) which
    # equals (a, +1) once multiplied out
    FEATURES = np.array(
        [[1.0, 0.5], [-0.3, 1.2], [1.0, 0.5], [2.0, -1.0], [1.0, 0.5], [-1.0, -0.5],
         [-0.3, 1.2], [2.0, -1.0], [0.0, 0.7]]
    )
    LABELS = [1, -1, 1, 1, -1, -1, -1, 1, 1]

    # (features, labels, sign pairs): a zero row, which is its own negation,
    # seen with both labels; rows seen with one label only; rows whose
    # coordinates are +0.0 or -0.0
    EDGES = {
        "zero-row": ([[0.0, 0.0], [1.0, 0.5], [0.0, 0.0], [-0.0, 0.0]], [1, -1, -1, 1], 2),
        "one-label": ([[2.0, -1.0], [2.0, -1.0], [-0.3, 1.2]], [1, 1, -1], 2),
        "signed-zeros": ([[-0.0, 0.7], [0.0, 0.7], [0.0, -0.7], [0.3, -0.0], [-0.3, 0.0]],
                         [1, -1, 1, -1, -1], 2),
    }

    @staticmethod
    def _reference(x, v, ridge, features=FEATURES, labels=LABELS):
        # the plain per-observation sums, one observation at a time
        val = 0.5 * ridge * float(x @ x) if ridge else 0.0
        grad, hv = ridge * x, ridge * v
        for a, y in zip(np.asarray(features, dtype=float), labels):
            z = y * float(a @ x)
            sig = 1.0 / (1.0 + np.exp(z))  # sigma(-z)
            val += float(np.logaddexp(0.0, -z))
            grad = grad - sig * y * a
            hv = hv + sig * (1.0 - sig) * float(a @ v) * a
        return val, grad, hv

    def _check(self, pot, x, v, ridge, features=FEATURES, labels=LABELS):
        val, grad, hv = self._reference(x, v, ridge, features, labels)
        assert float(pot.value(x)) == pytest.approx(val, rel=1e-12)
        assert np.allclose(pot.grad(x), grad, rtol=1e-12, atol=0)
        assert np.allclose(pot.hess_vec(x, v), hv, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("ridge", [0.0, 0.5])
    def test_weighted_rows_match_per_observation_sum(self, ridge):
        pot = builtin_logistic(self.FEATURES, self.LABELS, ridge=ridge)
        # (1, 0.5), (-0.3, 1.2), (2, -1) and (0, 0.7) with their negations
        assert pot.kernel[1].shape == (4, 2)
        rng = stream(12)
        for _ in range(20):
            x, v = rng.standard_normal((2, 2)) * 2.0
            self._check(pot, x, v, ridge)

    @pytest.mark.parametrize("case", sorted(EDGES))
    def test_pairing_edge_cases(self, case):
        features, labels, pairs = self.EDGES[case]
        pot = builtin_logistic(features, labels, ridge=0.5)
        _, rows, cplus, cminus, _ = pot.kernel
        assert rows.shape == (pairs, 2)
        assert np.all(cplus > 0) and np.sum(cplus) + np.sum(cminus) == len(labels)
        rng = stream(14)
        for _ in range(20):
            x, v = rng.standard_normal((2, 2)) * 2.0
            self._check(pot, x, v, 0.5, features, labels)

    def test_zero_weight_adds_nothing_where_the_product_overflows(self):
        # <a, x> overflows to +inf for the first row: its one label makes the
        # loss 0 there, and the absent label's zero weight must not turn that
        # into 0 * inf = NaN
        features, labels = [[1e150, 1e150], [1.0, 0.5]], [1, -1]
        pot = builtin_logistic(features, labels)
        x, v = np.array([1e160, 1e160]), np.array([0.3, -0.2])
        assert float(pot.value(x)) == 1.5e160
        with np.errstate(over="ignore"):  # the reference overflows as well
            self._check(pot, x, v, 0.0, features, labels)
            self._check(pot, -x, v, 0.0, features, labels)  # loss inf, not NaN

    def test_large_row_sets_match_the_reference_in_any_batch(self):
        # 500000 distinct rows in d=3
        rng = stream(13)
        feats = rng.standard_normal((500_000, 3))
        labels = np.where(rng.random(500_000) < 0.5, -1.0, 1.0)
        pot = builtin_logistic(feats, labels)
        xs, vs = rng.standard_normal((2, 5, 3)) * 0.1
        grads, hvs = pot.grad(xs), pot.hess_vec(xs, vs)
        b = labels[:, None] * feats
        for i in range(5):
            sig = 1.0 / (1.0 + np.exp(b @ xs[i]))  # sigma(-z) per observation
            assert np.allclose(grads[i], -(sig @ b), rtol=1e-12, atol=0)
            assert np.allclose(hvs[i], (sig * (1.0 - sig) * (b @ vs[i])) @ b, rtol=1e-12, atol=0)
            assert _bits(grads[i]) == _bits(pot.grad(xs[i : i + 1])[0])
            assert _bits(hvs[i]) == _bits(pot.hess_vec(xs[i : i + 1], vs[i : i + 1])[0])

    def test_lipschitz_bound_counts_every_observation(self):
        pot = builtin_logistic(self.FEATURES, self.LABELS)
        assert pot.smoothness.L == pytest.approx(np.sum(self.FEATURES**2) / 4.0)
        assert pot.name == "logistic(d=2,n=9,ridge=0.0)"


class TestProfileVerification:
    def test_p_power_profile_passes(self):
        pp = builtin_p_power(5, 0.0, 0.75)
        rep = verify_kl_profile(pp, n_probes=10000, radius=10.0, seed=0)
        assert rep.passed
        assert rep.worst["lambda_min_ratio"] >= 1.0 - 1e-8
        assert rep.worst["lambda_max_ratio"] <= 1.0 + 1e-8

    def test_gaussian_submitted_as_flat_profile_passes(self):
        g = builtin_gaussian_location(3, 0.0, 2.0)
        flat = WeaklyConvexKL(c1=2.0, c2=2.0, q=0.0, r=0.0)
        pot = replace(g, profile=flat)
        rep = verify_kl_profile(pot, n_probes=500, radius=5.0, seed=1)
        assert rep.passed

    def test_inflated_c1_fails_with_probe(self):
        pp = builtin_p_power(5, 0.0, 0.75)
        prof = pp.profile
        bad = WeaklyConvexKL(c1=2 * prof.c1, c2=prof.c2, q=prof.q, r=prof.r)
        pot = replace(pp, profile=bad)
        rep = verify_kl_profile(pot, n_probes=2000, radius=10.0, seed=2)
        assert not rep.passed
        assert rep.violating_probe is not None

    def test_grad_bounds_pass_for_p_power(self):
        pp = builtin_p_power(2, 0.0, 0.75)
        rep = verify_grad_bounds(pp, n_probes=1000, seed=3)
        assert rep.passed

    def test_grad_bounds_pass_for_gaussian(self):
        g = builtin_gaussian_location(3, [1.0, 0.0, -1.0], 0.7)
        rep = verify_grad_bounds(g, n_probes=1000, seed=4)
        assert rep.passed

    def test_equality_at_minimizer(self):
        pp = builtin_p_power(2, 0.0, 0.75)
        x_star = pp.minimizer_hint
        w_star = pp.value_normalized(x_star)
        assert np.sum(pp.grad(x_star) ** 2) == pytest.approx(0.0, abs=1e-30)
        assert w_star ** (1 + pp.profile.r) - w_star ** (1 + pp.profile.r) == 0.0

    def test_halved_c2_fails_upper_bound(self):
        pp = builtin_p_power(2, 0.0, 0.75)
        prof = pp.profile
        bad = WeaklyConvexKL(c1=prof.c1, c2=prof.c2 / 2, q=prof.q, r=prof.r)
        pot = replace(pp, profile=bad)
        rep = verify_grad_bounds(pot, n_probes=1000, seed=5)
        assert not rep.passed
        assert rep.worst["grad_upper_margin"] < 0


class TestFindMinimizer:
    def test_gaussian_closed_form(self):
        g = builtin_gaussian_location(3, [2.0, -1.0, 0.5], 1.5)
        x = find_minimizer(g, np.zeros(3), tol_grad=1e-10)
        assert np.allclose(x, [2.0, -1.0, 0.5], atol=1e-9)

    def test_p_power_center(self):
        pp = builtin_p_power(2, [3.0, -4.0], 0.8)
        x = find_minimizer(pp, np.zeros(2), tol_grad=1e-10)
        assert np.allclose(x, [3.0, -4.0], atol=1e-8)

    @COMPILED
    def test_logistic_against_bisection(self):
        lg = builtin_logistic(np.array([[1.0]]), [1], ridge=1.0)
        x = find_minimizer(lg, np.zeros(1), tol_grad=1e-12)
        # bisection oracle on the scalar gradient theta - sigmoid(-theta)
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if float(lg.grad(np.array([mid]))[0]) > 0:
                hi = mid
            else:
                lo = mid
        assert x[0] == pytest.approx(0.5 * (lo + hi), abs=1e-10)

    def test_residual_gradient_norm(self):
        pp = builtin_p_power(4, 0.0, 0.7)
        x = find_minimizer(pp, np.full(4, 2.0), tol_grad=1e-8)
        assert np.linalg.norm(pp.grad(x)) <= 1e-8

    def test_cap_carries_best_iterate(self):
        pp = builtin_p_power(2, 0.0, 0.75)
        with pytest.raises(NumericError) as exc:
            find_minimizer(pp, np.full(2, 50.0), tol_grad=1e-14, max_iter=3)
        assert "best_iterate" in exc.value.payload
        assert np.isfinite(exc.value.payload["best_grad_norm"])


class TestStrongConvexityProbes:
    @pytest.mark.parametrize(
        "make,rho",
        [
            pytest.param(lambda: builtin_gaussian_location(3, 0.0, 2.0), 2.0, id="gaussian"),
            pytest.param(lambda: builtin_logistic(np.array([[1.0, -0.5]]), [1], ridge=0.7), 0.7,
                         id="logistic-ridge", marks=COMPILED),
        ],
    )
    def test_quadratic_form_lower_bound(self, make, rho):
        pot = make()
        rng = stream(23)
        for _ in range(100):
            x = rng.standard_normal(pot.dim) * 3.0
            v = rng.standard_normal(pot.dim)
            quad = float(v @ pot.hess_vec(x, v))
            assert quad >= rho * float(v @ v) * (1 - 1e-12)
        assert pot.profile.rho == pytest.approx(rho)


class TestThirdDerivativeBounds:
    """The stored Hessian-Lipschitz and gradient-Laplacian bounds are what
    the third-order tunings consume; they must dominate the measured values."""

    @pytest.mark.parametrize("p", [0.6, 0.75, 0.9])
    @pytest.mark.parametrize("d", [1, 3])
    def test_p_power_bounds_dominate(self, p, d):
        pot = builtin_p_power(d, 0.0, p)
        rng = stream(29)
        worst_lt = worst_lap = 0.0
        for _ in range(100):
            x = rng.standard_normal(d) * 3.0
            y = rng.standard_normal(d) * 3.0
            h1, h2 = dense_hessian(pot, x), dense_hessian(pot, y)
            worst_lt = max(
                worst_lt, np.linalg.norm(h1 - h2, 2) / np.linalg.norm(x - y)
            )
            eps = 1e-4
            lap = np.zeros(d)
            for j in range(d):
                e = np.zeros(d)
                e[j] = eps
                lap += (pot.grad(x + e) - 2 * pot.grad(x) + pot.grad(x - e)) / eps**2
            worst_lap = max(worst_lap, float(np.linalg.norm(lap)))
        assert worst_lt <= pot.smoothness.L_tilde
        assert worst_lap <= pot.smoothness.lap_grad_sup

    def test_gaussian_third_derivatives_vanish(self):
        pot = builtin_gaussian_location(2, 0.0, 1.5)
        assert pot.smoothness.L_tilde == 0.0
        assert pot.smoothness.lap_grad_sup == 0.0
