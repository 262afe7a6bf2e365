import math

import numpy as np
import pytest

from cesaro_lmc.bayes import (
    GaussianLocationModel,
    LogisticModel,
    PPowerLocationModel,
    build_posterior,
    sample_dataset,
)
from cesaro_lmc.errors import CapabilityError, ParameterError
from cesaro_lmc.potentials import (
    Potential,
    StronglyConvex,
    WeaklyConvexKL,
    dense_hessian,
    minimum_shift,
    verify_kl_profile,
)
from cesaro_lmc.rng import stream
from cesaro_lmc.tuning import epsilon_n

# one model of each family, all with d = 2
FAMILIES = {
    "gaussian": GaussianLocationModel(2, 1.0),
    "p_power": PPowerLocationModel(2, 0.75),
    "logistic": LogisticModel(np.array([[1.0, 0.5], [-0.3, 1.2]]), ridge=0.5),
}


def streamed_gaussian_sum(obs, rho, theta, chunk=64):
    """Reference (value, grad) of (rho/2) sum_i |theta - xi_i|^2, summed
    observation by observation in fixed chunks."""
    value, grad = 0.0, np.zeros_like(theta)
    for k in range(0, obs.shape[0], chunk):
        diff = theta - obs[k : k + chunk]
        value += 0.5 * rho * np.sum(diff**2)
        grad += rho * np.sum(diff, axis=0)
    return value, grad


def per_observation(family, model, xi, theta, v):
    """U(xi, theta), its gradient and its Hessian times v, for one observation."""
    if family == "gaussian":
        rho = model.precision
        return 0.5 * rho * np.sum((theta - xi) ** 2), rho * (theta - xi), rho * v
    if family == "p_power":
        p, y = model.p, theta - xi
        u = 1.0 + np.sum(y**2)
        hv = 2 * p * u ** (p - 1) * v + 4 * p * (p - 1) * u ** (p - 2) * np.sum(y * v) * y
        return u**p, 2 * p * u ** (p - 1) * y, hv
    a, label, mu = xi[:-1], xi[-1], model.ridge
    z = label * np.sum(a * theta)
    sig = 1.0 / (1.0 + math.exp(z))  # sigma(-z)
    value = math.log1p(math.exp(-z)) + 0.5 * mu * np.sum(theta**2)
    return value, -label * sig * a + mu * theta, sig * (1 - sig) * np.sum(a * v) * a + mu * v


class TestPosterior:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_per_observation_loop(self, family):
        """A family's posterior is a Potential whose evaluators equal the sum
        over observations, one at a time, plus the prior |theta|^2 / 2, and whose
        constants aggregate n-fold, the prior's unit curvature counted."""
        model, n = FAMILIES[family], 300
        if family == "p_power":  # no exact sampler: any observations do
            obs = 0.5 + stream(21).standard_normal((n, 2))
        else:
            obs = sample_dataset(model, [0.4, -0.3], n, seed=21)
        pot = model.posterior(obs)
        assert isinstance(pot, Potential)
        thetas, vs = stream(22).standard_normal((2, 4, 2)) * 2.0
        values, grads, hvs = pot.value(thetas), pot.grad(thetas), pot.hess_vec(thetas, vs)
        for j, (theta, v) in enumerate(zip(thetas, vs)):
            prior = (0.5 * np.sum(theta**2), theta, v)
            terms = [per_observation(family, model, xi, theta, v) for xi in obs] + [prior]
            for got, k in ((values[j], 0), (grads[j], 1), (hvs[j], 2)):
                ref = sum(t[k] for t in terms)
                scale = sum(np.abs(t[k]) for t in terms)  # the size of the summed terms
                assert np.all(np.abs(got - ref) <= 1e-12 * scale), (family, k)
        assert pot.smoothness.L == n * model.per_obs_L + 1.0
        if family == "p_power":
            pr = model.per_obs_profile
            assert pot.profile.c1 == pytest.approx(pr.c1 * n ** (1.0 - pr.r), rel=1e-15)
            assert (pot.profile.c2, pot.profile.q, pot.profile.r) == (pot.smoothness.L, 0.0, pr.r)
        else:
            rho = model.precision if family == "gaussian" else model.ridge
            assert pot.profile == StronglyConvex(n * rho + 1.0)
        assert (pot.kernel is not None) == (family != "p_power")
        if pot.kernel is not None:  # its mu is the posterior's curvature
            assert pot.kernel[3] == n * rho + 1.0

    def test_logistic_without_ridge_is_strongly_convex_by_its_prior(self):
        model = LogisticModel(np.array([[1.0, 0.5], [-0.3, 1.2]]))
        pot = model.posterior(sample_dataset(model, [0.4, -0.3], 50, seed=2))
        assert pot.profile == StronglyConvex(1.0) and pot.kernel[3] == 1.0

    @pytest.mark.parametrize("centre", [1e3, 1e6])
    def test_gaussian_posterior_far_from_the_origin(self, centre):
        """Its constant is summed about the data mean, so data far from the
        origin keep the value's relative error at rounding level, at most
        3.5e-16 here.  The cancelling form (rho/2)(sum |xi|^2 - |s|^2/n) is
        1.5e-13 off at 1e3, though the prior's |theta|^2 / 2 dominates the value."""
        model = GaussianLocationModel(2, 1.0)
        obs = sample_dataset(model, [centre, -centre], 400, seed=23)
        pot = model.posterior(obs)
        for theta in obs[:5] + 0.3:
            ref = math.fsum([*(0.5 * np.sum((theta - xi) ** 2) for xi in obs),
                             0.5 * np.sum(theta**2)])
            assert pot.value(theta) == pytest.approx(ref, rel=1e-14)


class TestSampleDataset:
    def test_reproducible_and_mean(self):
        model = GaussianLocationModel(1, 1.0)
        d1 = sample_dataset(model, [0.0], 3, seed=42)
        d2 = sample_dataset(model, [0.0], 3, seed=42)
        assert np.array_equal(d1, d2)
        big = sample_dataset(model, [0.0], 10**6, seed=7)
        assert abs(big.mean()) < 4e-3

    def test_gaussian_mean_within_4_se(self):
        model = GaussianLocationModel(1, 1.0)
        data = sample_dataset(model, [5.0], 10**5, seed=3)
        se = 1.0 / math.sqrt(10**5)
        assert abs(data.mean() - 5.0) <= 4 * se

    def test_logistic_symmetric_labels(self):
        model = LogisticModel(np.array([[1.0, 0.0]]))
        data = sample_dataset(model, [0.0, 0.0], 4000, seed=9)
        labels = data[:, -1]
        freq = np.mean(labels == 1.0)
        band = 3 * math.sqrt(0.25 / 4000)
        assert abs(freq - 0.5) <= band

    def test_seed_required_determinism(self):
        model = GaussianLocationModel(2, 2.0)
        a = sample_dataset(model, [1.0, -1.0], 50, seed=1)
        b = sample_dataset(model, [1.0, -1.0], 50, seed=2)
        assert not np.array_equal(a, b)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ParameterError):
            sample_dataset(GaussianLocationModel(1), [0.0], 0, seed=1)


class TestDatasetRoundTrip:
    def test_manifest_regenerates_bit_identically(self):
        model = GaussianLocationModel(3, 1.0)
        data = sample_dataset(model, [0.0, 1.0, 2.0], 40, seed=123)
        again = sample_dataset(model, [0.0, 1.0, 2.0], 40, seed=123)
        assert np.array_equal(again, data)


class TestBuildPosterior:
    def test_quadratic_mode(self):
        # n=2 observations {0, 2}, unit prior: mode solves (n+1) theta = sum
        model = GaussianLocationModel(1, 1.0)
        post = build_posterior(model, np.array([[0.0], [2.0]]))
        assert post.potential.minimizer_hint[0] == pytest.approx(2.0 / 3.0, abs=1e-8)

    def test_conjugate_mode_is_the_exact_mean(self):
        """The mode is the closed form rho s / (n rho + 1), bit for bit, not a search."""
        model = GaussianLocationModel(5, 1.3)
        data = sample_dataset(model, np.linspace(-1.0, 1.0, 5), 100, seed=7)
        pot = build_posterior(model, data).potential
        exact = 1.3 * data.sum(axis=0) / (100 * 1.3 + 1.0)
        assert pot.minimizer_hint.tobytes() == pot.mean.tobytes() == exact.tobytes()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_empty_dataset_refused(self, family):
        model = FAMILIES[family]
        with pytest.raises(ParameterError, match="dataset is empty"):
            build_posterior(model, np.empty((0, model.q)))

    def test_gradient_matches_finite_differences(self):
        model = GaussianLocationModel(2, 2.0)
        data = sample_dataset(model, [1.0, 0.0], 30, seed=5)
        post = build_posterior(model, data)
        rng = stream(8)
        for _ in range(20):
            theta = rng.standard_normal(2)
            g = post.potential.grad(theta)
            fd = np.empty(2)
            for j in range(2):
                e = np.zeros(2)
                e[j] = 1e-5
                fd[j] = (post.potential.value(theta + e) - post.potential.value(theta - e)) / 2e-5
            assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))

    def test_closed_form_matches_streamed_sum(self):
        model = GaussianLocationModel(3, 1.3)
        data = sample_dataset(model, [0.0, 0.5, -0.5], 200, seed=6)
        post = build_posterior(model, data)
        rng = stream(10)
        for _ in range(10):
            theta = rng.standard_normal(3)
            val_s, grad_s = streamed_gaussian_sum(data, 1.3, theta)
            ref_v = val_s + 0.5 * np.sum(theta**2)
            ref_g = grad_s + theta
            assert post.potential.value(theta) == pytest.approx(ref_v, rel=1e-12)
            assert np.allclose(post.potential.grad(theta), ref_g, rtol=1e-12, atol=1e-9)

    def test_aggregated_strong_convexity_exact(self):
        model = GaussianLocationModel(2, 1.0)
        data = sample_dataset(model, [0.0, 0.0], 50, seed=11)
        post = build_posterior(model, data)
        v = np.array([0.6, -0.8])
        hv = post.potential.hess_vec(np.array([0.2, 0.1]), v)
        assert np.allclose(hv, (50 * 1.0 + 1.0) * v)
        assert isinstance(post.potential.profile, StronglyConvex)
        assert post.potential.profile.rho == 51.0

    def test_normalized_minimum_is_one(self):
        model = GaussianLocationModel(1, 1.0)
        data = sample_dataset(model, [0.7], 20, seed=12)
        pot = build_posterior(model, data).potential
        x_star, shift = minimum_shift(pot)
        assert x_star is pot.minimizer_hint
        assert pot.value(x_star) + shift == pytest.approx(1.0)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_dimension_mismatch_rejected(self, family):
        model = FAMILIES[family]
        for q in (model.q - 1, model.q + 1):
            for n in (0, 3):
                with pytest.raises(ParameterError, match=f"does not match model q={model.q}"):
                    build_posterior(model, np.zeros((n, q)))

    def test_unsupported_family_refused(self):
        with pytest.raises(CapabilityError, match="unsupported model family"):
            build_posterior(object(), np.zeros((3, 2)))

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_observations_that_are_not_finite_refused(self, family, bad):
        model = FAMILIES[family]
        obs = np.ones((3, model.q))
        obs[1, -1] = bad
        with pytest.raises(ParameterError, match="observations must be finite"):
            build_posterior(model, obs)

    @pytest.mark.parametrize("n", [2, 5, 10, 20, 40])
    def test_aggregated_kl_lower_bound(self, n):
        # lambda_min of the full posterior Hessian dominates c1 n^{1-r} W^-r
        # (the W here is the raw summed potential, per the Jensen aggregation)
        p = 0.75
        model = PPowerLocationModel(2, p)
        rng = stream(100 + n)
        obs = rng.standard_normal((n, 2))
        post = build_posterior(model, obs)
        prof = post.potential.profile
        assert isinstance(prof, WeaklyConvexKL)
        probes = post.potential.minimizer_hint + 4.0 * rng.standard_normal((100, 2))
        for x in probes:
            lam_min = np.linalg.eigvalsh(dense_hessian(post.potential, x))[0]
            w_raw = float(post.potential.value(x))
            assert lam_min >= prof.c1 * w_raw ** (-prof.r) - 1e-10

    def test_aggregated_kl_constants_stored(self):
        model = PPowerLocationModel(2, 0.75)
        post = build_posterior(model, stream(13).standard_normal((10, 2)))
        prof = post.potential.profile
        assert isinstance(prof, WeaklyConvexKL)
        r = (1 - 0.75) / 0.75
        assert prof.c1 == pytest.approx(2 * 0.75 * 0.5 * 10 ** (1 - r))
        assert prof.r == pytest.approx(r)
        assert prof.q == 0.0
        assert prof.c2 == pytest.approx(10 * 2 * 0.75 + 1.0)

    def test_profile_holds_near_a_concentrated_sample(self):
        """Observations within 0.03 of the origin put the summed Hessian's top eigenvalue
        near n L at the mode; the prior's unit curvature adds to it, so the flat upper
        bound is n L + 1 (n L alone is exceeded by 6.6% here)."""
        model = PPowerLocationModel(2, 0.75)
        obs = 0.029 * np.cos(np.arange(10)[:, None] + np.array([0.0, 1.5]))
        post = build_posterior(model, obs)
        rep = verify_kl_profile(post.potential, n_probes=200, radius=5.0)
        assert rep.passed, rep.worst

    def test_p_power_model_refuses_exact_sampling(self):
        with pytest.raises(CapabilityError):
            sample_dataset(PPowerLocationModel(1, 0.75), [0.0], 5, seed=1)


class TestEpsilonN:
    def test_log_e_case(self):
        eps, valid = epsilon_n(1.0, 1.0, 1.0, 1, math.e)
        assert eps**2 == pytest.approx(1.0 / math.e)
        assert valid

    def test_alpha_two_case(self):
        eps, _ = epsilon_n(1.0, 1.0, 2.0, 2, 100)
        assert eps**2 == pytest.approx((2 * math.log(100) / 100) ** 0.5)

    def test_linearity_in_d_at_alpha_one(self):
        e1, _ = epsilon_n(1.0, 1.0, 1.0, 1, 50)
        e2, _ = epsilon_n(1.0, 1.0, 1.0, 2, 50)
        assert e2**2 == pytest.approx(2 * e1**2)

    def test_small_n_rejected(self):
        with pytest.raises(ParameterError):
            epsilon_n(1.0, 1.0, 1.0, 1, 1)

    def test_validity_flag(self):
        _, valid = epsilon_n(100.0, 10.0, 1.0, 5, 10, b1=1.0)
        assert not valid
