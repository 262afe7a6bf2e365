import math
from pathlib import Path

import numpy as np
import pytest

import cesaro_lmc
from cesaro_lmc.bayes import (
    GaussianLocationModel,
    LogisticModel,
    build_posterior,
    sample_dataset,
)
from cesaro_lmc.errors import DivergenceError, ParameterError
from cesaro_lmc.oracle import ou_cesaro_moments
from cesaro_lmc.potentials import Potential, Smoothness, builtin_gaussian_location, builtin_p_power
from cesaro_lmc.rng import mix64, stream
from cesaro_lmc.diagnostics import moment_check
from cesaro_lmc.errors import ExperimentError
from cesaro_lmc.sampler import ChainConfig, dump_trajectory, moment_clamp, replicate_runs, run_chain

OU = builtin_gaussian_location(1, 0.0, 1.0)


class TestEulerStep:
    def test_stationary_variance_matches_ar1(self):
        # 2/(rho (2 - gamma rho)) is the exact AR(1) stationary variance
        gamma, rho, n = 0.01, 1.0, 10**6
        cfg = ChainConfig(gamma=gamma, n_steps=n, x0=[0.0], seed=3)
        run = run_chain(OU, cfg)
        # recover second moment from long-run Cesaro of squares via a second pass
        rng = stream(3)
        x = 0.0
        acc = 0.0
        for block in range(n // 10**4):
            z = rng.standard_normal(10**4)
            for zz in z:
                acc += x * x
                x = x - gamma * x + math.sqrt(2 * gamma) * zz
        emp = acc / n
        assert emp == pytest.approx(2.0 / (rho * (2.0 - gamma * rho)), rel=0.02)


class TestRunChain:
    def test_single_step_cesaro_is_x0(self):
        cfg = ChainConfig(gamma=0.1, n_steps=1, x0=[2.0], seed=5)
        run = run_chain(OU, cfg)
        assert run.cesaro[0] == 2.0

    def test_cesaro_indexing_excludes_final_state(self):
        cfg = ChainConfig(gamma=0.1, n_steps=3, x0=[1.0], seed=7)
        run = run_chain(OU, cfg)
        rng = stream(7)
        x = 1.0
        states = []
        for _ in range(3):
            states.append(x)
            x = x - 0.1 * x + math.sqrt(0.2) * rng.standard_normal(1)[0]
        assert run.cesaro[0] == pytest.approx(np.mean(states), rel=1e-15)
        assert run.final_state[0] == pytest.approx(x, rel=1e-15)

    def test_ou_cesaro_within_4_sigma(self):
        gamma, n = 0.1, 10**5
        cfg = ChainConfig(gamma=gamma, n_steps=n, x0=[0.0], seed=11)
        run = run_chain(OU, cfg)
        _, var = ou_cesaro_moments(1.0, 0.0, gamma, n, 0.0)
        assert abs(run.cesaro[0]) <= 4.0 * math.sqrt(var)

    def test_conjugate_posterior_mean_within_4_sigma(self):
        model = GaussianLocationModel(1, 1.0)
        data = sample_dataset(model, [0.3], 100, seed=21)
        post = build_posterior(model, data)
        target = data.observations.sum() / 101.0
        gamma, n = 1e-3, 2 * 10**4
        cfg = ChainConfig(gamma=gamma, n_steps=n, x0=post.potential.minimizer_hint, seed=23)
        run = run_chain(post.potential, cfg)
        # the posterior chain is an exact AR(1) with curvature n rho + 1
        _, var = ou_cesaro_moments(101.0, 0.0, gamma, n, 0.0)
        assert abs(run.cesaro[0] - target) <= 4.0 * math.sqrt(var)

    def test_kahan_cesaro_matches_recomputation(self):
        cfg = ChainConfig(gamma=0.05, n_steps=500, x0=[1.5], seed=31)
        run = run_chain(OU, cfg)
        rng = stream(31)
        x = 1.5
        states = []
        for _ in range(500):
            states.append(x)
            x = x - 0.05 * x + math.sqrt(0.1) * rng.standard_normal(1)[0]
        assert abs(run.cesaro[0] - np.mean(states)) < 1e-12

    def test_divergence_carries_partial_run(self):
        steep = builtin_gaussian_location(1, 0.0, 1.0)
        cfg = ChainConfig(gamma=3.0, n_steps=200, x0=[1e6], seed=1)
        with pytest.raises(DivergenceError) as exc:
            run_chain(steep, cfg)
        assert exc.value.step is not None
        assert exc.value.payload.diverged_step == exc.value.step


class TestTangent:
    def test_gaussian_exact_contraction(self):
        gamma, rho = 0.1, 1.0
        cfg = ChainConfig(
            gamma=gamma, n_steps=30, x0=[0.5], seed=2, track_tangent=True, checkpoints=30
        )
        run = run_chain(OU, cfg)
        for t, norm in run.tangent_log:
            k = round(t / gamma)
            assert norm == pytest.approx((1 - gamma * rho) ** k, abs=1e-14)
        # K = 4 substeps: single-chain blocks hold 2048 coarse steps, so 2100
        # steps cross a block edge; a small gamma keeps the norm informative
        # there, and the scalar recurrence y -= (gamma/4) y is the reference
        # (its rounding drifts from the closed form by up to 4e-14, 2.3e-13 relative)
        gamma, n = 0.001, 2100
        cfg = ChainConfig(
            gamma=gamma, n_steps=n, x0=[0.5], seed=2, track_tangent=True,
            fine_substeps=4, checkpoints=n,
        )
        run = run_chain(OU, cfg)
        assert len(run.tangent_log) == n + 1
        y = 1.0
        for k, (t, norm) in enumerate(run.tangent_log):
            assert t == k * gamma
            assert norm == pytest.approx(y, abs=1e-14)
            assert norm == pytest.approx((1 - gamma / 4) ** (4 * k), rel=1e-11)
            for _ in range(4):
                y = y - gamma / 4 * y

    def test_sc_contraction_bound_nonquadratic(self):
        # W = |x|^2/2 + 0.1 sum log cosh(x_i): rho = 1, L = 1.1
        from cesaro_lmc.potentials import Potential, Smoothness, StronglyConvex

        def value(x):
            return 0.5 * np.sum(x**2, axis=-1) + 0.1 * np.sum(np.log(np.cosh(x)), axis=-1)

        def grad(x):
            return x + 0.1 * np.tanh(x)

        def hess_vec(x, v):
            return v + 0.1 * v / np.cosh(x) ** 2

        pot = Potential(
            dim=2, value=value, grad=grad, hess_vec=hess_vec,
            smoothness=Smoothness(L=1.1), profile=StronglyConvex(1.0),
        )
        gamma = 0.02
        cfg = ChainConfig(
            gamma=gamma, n_steps=100, x0=[1.0, -2.0], seed=3, track_tangent=True, checkpoints=100
        )
        run = run_chain(pot, cfg)
        for t, norm in run.tangent_log:
            assert norm <= math.exp(-t) * (1 + 10 * gamma * 1.1) + 1e-12


class TestFineDiffusion:
    def test_transient_follows_substep_ar1_algebra(self):
        # per coarse step the mean contracts by (1 - gamma/K)^K; the Cesaro
        # transient it implies converges monotonically to the diffusion value
        x0, gamma, n = 5.0, 0.4, 50

        def transient(a):
            return x0 * np.mean(a ** np.arange(n))

        cont = transient(math.exp(-gamma))
        prev_gap = None
        for k_sub in (1, 4, 16):
            a_k = (1.0 - gamma / k_sub) ** k_sub
            expect = transient(a_k)
            gap = abs(expect - cont)
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap
            cfg = ChainConfig(gamma=gamma, n_steps=n, x0=[x0], seed=19, fine_substeps=k_sub)
            runs = replicate_runs(OU, cfg, 400, base_seed=101)
            emp = np.mean([r.cesaro[0] for r in runs])
            _, var = ou_cesaro_moments(1.0, 0.0, gamma, n, 0.0)
            se = math.sqrt(var / 400)
            assert abs(emp - expect) <= 4.5 * se


class TestStream:
    @pytest.mark.parametrize("key", [0, 1, 2**63, 2**64 - 1, mix64(20240800, 7)])
    def test_equals_philox_keyed_by_seed(self, key):
        mine, ref = stream(key), np.random.Generator(np.random.Philox(key=key))
        assert repr(mine.bit_generator.state) == repr(ref.bit_generator.state)
        assert mine.standard_normal(10**4).tobytes() == ref.standard_normal(10**4).tobytes()
        assert mine.integers(0, 2**62, 10**4).tobytes() == ref.integers(0, 2**62, 10**4).tobytes()
        assert repr(mine.bit_generator.state) == repr(ref.bit_generator.state)

    def test_no_package_code_reads_the_seed_sequence(self):
        # a stream's seed sequence is all zeros: only its key makes it
        src = Path(cesaro_lmc.__file__).parent
        for path in src.glob("*.py"):
            text = path.read_text()
            assert "seed_seq" not in text and "spawn" not in text, path.name


class TestReplicates:
    def test_singleton_matches_run_chain(self):
        cfg = ChainConfig(gamma=0.1, n_steps=40, x0=[0.3], seed=0)
        rep = replicate_runs(OU, cfg, 1, base_seed=55)[0]
        single = run_chain(OU, ChainConfig(gamma=0.1, n_steps=40, x0=[0.3], seed=mix64(55, 0)))
        assert np.array_equal(rep.cesaro, single.cesaro)
        assert np.array_equal(rep.final_state, single.final_state)

    def test_bit_reproducible(self):
        cfg = ChainConfig(gamma=0.1, n_steps=25, x0=[0.0], seed=0)
        a = replicate_runs(OU, cfg, 5, base_seed=9)
        b = replicate_runs(OU, cfg, 5, base_seed=9)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.cesaro, rb.cesaro)

    def test_sample_variance_near_exact(self):
        gamma, n, m = 0.1, 300, 200
        cfg = ChainConfig(gamma=gamma, n_steps=n, x0=[0.0], seed=0)
        runs = replicate_runs(OU, cfg, m, base_seed=77)
        emp = np.var([r.cesaro[0] for r in runs], ddof=1)
        _, var = ou_cesaro_moments(1.0, 0.0, gamma, n, 0.0)
        assert emp == pytest.approx(var, rel=0.30)

    @pytest.mark.compiled
    def test_logistic_posterior_batch_matches_singletons(self):
        # n = 200 observations over a 10-row design: replicate i equals its
        # singleton chain bit for bit only if a row's posterior gradient does
        # not depend on the batch it is evaluated in
        model = LogisticModel(stream(4).standard_normal((10, 2)), ridge=0.5)
        data = sample_dataset(model, [0.4, -0.3], 200, seed=8)
        post = build_posterior(model, data)
        pot = post.potential
        gamma, mode = moment_clamp(pot), pot.minimizer_hint
        batch = replicate_runs(pot, ChainConfig(gamma, 300, mode, seed=0), 16, base_seed=21)
        for i, got in enumerate(batch):
            single = run_chain(pot, ChainConfig(gamma, 300, mode, seed=mix64(21, i)))
            assert got.cesaro.tobytes() == single.cesaro.tobytes()
            assert got.final_state.tobytes() == single.final_state.tobytes()

    def test_divergent_replicates_do_not_abort(self):
        steep = builtin_gaussian_location(1, 0.0, 1.0)
        cfg = ChainConfig(gamma=3.0, n_steps=100, x0=[1e6], seed=0)
        runs = replicate_runs(steep, cfg, 4, base_seed=3)
        assert all(r.diverged_step is not None for r in runs)
        assert all(np.isnan(r.cesaro[0]) for r in runs)


class TestMomentTracking:
    def test_exponential_moment_stays_bounded(self):
        pot = builtin_p_power(2, 0.0, 0.75)
        gamma = moment_clamp(pot)
        cfg = ChainConfig(gamma=gamma, n_steps=20000, x0=[0.0, 0.0], seed=41)
        rep = moment_check(pot, cfg, p_grid=(1.0,), a=1.0 / 16.0, checkpoints=100)
        w0 = float(pot.value_normalized(np.zeros(2)))
        assert rep.exp_sup <= 2.0 * (math.exp(w0 / 16.0) + rep.exp_first_decile_max)


class TestTrajectoryDump:
    def test_dump_round_trip(self, tmp_path):
        from cesaro_lmc.sampler import read_trajectory

        # frame k is the chain state at step k*stride; 8200 steps cross the
        # single chain's 8192-step noise block
        for n, stride, seed in ((20, 4, 61), (8200, 7, 63)):
            cfg = ChainConfig(gamma=0.1, n_steps=n, x0=[1.0], seed=seed)
            n_frames = dump_trajectory(OU, cfg, tmp_path / "t.bin", tmp_path / "t.json", stride=stride)
            frames, header = read_trajectory(tmp_path / "t.bin", tmp_path / "t.json")
            assert header == {"d": 1, "gamma": 0.1, "stride": stride, "seed": seed}
            rng = stream(seed)
            x = 1.0
            states = []
            for _ in range(n):
                states.append(x)
                x = x - 0.1 * x + math.sqrt(0.2) * rng.standard_normal(1)[0]
            assert n_frames == frames.shape[0] == len(states[::stride])
            assert frames.shape[1] == 1 and frames[0, 0] == 1.0
            assert np.allclose(frames[:, 0], states[::stride], rtol=0, atol=0)


class TestChunkBoundaryInvariance:
    @pytest.mark.parametrize("n", [1, 7, 8192, 8193, 9001])
    def test_noise_block_boundaries(self, n):
        # the driver draws noise in 8192-step blocks; the reference draws one
        # variate per step and runs the same Euler and Kahan recurrences, so
        # the bits agree only if block edges never shift the stream
        gamma = 0.05
        run = run_chain(OU, ChainConfig(gamma=gamma, n_steps=n, x0=[0.4], seed=n))
        rng = stream(n)
        x, ces, comp = 0.4, 0.0, 0.0
        for _ in range(n):
            t1 = x - comp
            t2 = ces + t1
            comp = (t2 - ces) - t1
            ces = t2
            x = x - gamma * x + math.sqrt(2.0 * gamma) * rng.standard_normal(1)[0]
        assert run.cesaro[0] == ces / n
        assert run.final_state[0] == x

    def test_large_batch_small_blocks(self):
        # the 2^22-double cap gives this 600-wide batch 6990-step noise blocks
        # (single chains use one block here), so 7001 steps cross a block edge
        cfg = ChainConfig(gamma=0.1, n_steps=7001, x0=[0.0], seed=0)
        wide = replicate_runs(OU, cfg, 600, base_seed=5)
        narrow = [
            replicate_runs(OU, cfg, 1, base_seed=5, index_offset=i)[0]
            for i in (0, 299, 599)
        ]
        for got, idx in zip(narrow, (0, 299, 599)):
            assert np.array_equal(wide[idx].cesaro, got.cesaro)
            assert np.array_equal(wide[idx].final_state, got.final_state)


QUARTIC = Potential(
    dim=1,
    value=lambda x: 0.25 * np.sum(np.asarray(x) ** 4, axis=-1),
    grad=lambda x: np.asarray(x) ** 3,
    hess_vec=lambda x, v: 3.0 * np.asarray(x) ** 2 * np.asarray(v),
    smoothness=Smoothness(L=1.0),
    profile=None,
    name="quartic",
)


class TestMixedDivergence:
    def test_batch_matches_singletons(self):
        # gamma=0.3 on x^4/4 loses most replicates, each at its own step, and
        # keeps a few: the batch runs the per-row check behind the screen
        cfg = ChainConfig(gamma=0.3, n_steps=400, x0=[0.0], seed=0)
        batch = replicate_runs(QUARTIC, cfg, 64, base_seed=3)
        steps = [r.diverged_step for r in batch if r.diverged_step is not None]
        assert len(steps) == 51 and len(set(steps)) == 44
        for i, got in enumerate(batch):
            single_cfg = ChainConfig(gamma=0.3, n_steps=400, x0=[0.0], seed=mix64(3, i))
            try:
                want = run_chain(QUARTIC, single_cfg)
                step = None
            except DivergenceError as exc:
                want, step = exc.payload, exc.step
            assert got.diverged_step == step == want.diverged_step
            assert np.array_equal(got.cesaro, want.cesaro, equal_nan=True)
            assert np.isnan(got.cesaro[0]) == (step is not None)

    def test_tangent_trace_survives_divergence(self):
        gamma, n = 0.3, 400
        cfg = ChainConfig(gamma=gamma, n_steps=n, x0=[0.0], seed=0, track_tangent=True)
        batch = replicate_runs(QUARTIC, cfg, 64, base_seed=3)
        assert sum(r.diverged_step is not None for r in batch) == 51
        every = n // cfg.checkpoints
        for i, got in enumerate(batch):
            single_cfg = ChainConfig(
                gamma=gamma, n_steps=n, x0=[0.0], seed=mix64(3, i), track_tangent=True
            )
            try:
                want = run_chain(QUARTIC, single_cfg)
            except DivergenceError as exc:
                want = exc.payload
            assert got.tangent_log == want.tangent_log
            # logged at every checkpoint the replicate survived, and no later
            stop = n if got.diverged_step is None else got.diverged_step
            times = [0.0] + [(k + 1) * gamma for k in range(stop) if k % every == 0 or k == n - 1]
            assert all(t < (stop + 1) * gamma for t, _ in got.tangent_log)
            assert [t for t, _ in got.tangent_log] == times


class TestDivergingDiagnostics:
    # x0 = 10 on x^4/4 at the moment clamp: x1 = -190, so exp(W/16) overflows
    # at step 1, and the chain leaves the finite range at step 2
    CFG = ChainConfig(gamma=moment_clamp(QUARTIC), n_steps=100, x0=[10.0], seed=5)

    def test_dump_raises_and_writes_nothing(self, tmp_path):
        with pytest.raises(DivergenceError) as exc:
            dump_trajectory(QUARTIC, self.CFG, tmp_path / "t.bin", tmp_path / "t.json")
        assert exc.value.step == 2
        assert list(tmp_path.iterdir()) == []

    def test_moment_check_names_the_step(self):
        with pytest.raises(ExperimentError, match="at step 1$"):
            moment_check(QUARTIC, self.CFG, p_grid=(1.0,))
