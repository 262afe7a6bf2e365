"""The compiled chain loop against the numpy driver, bit for bit.

The numpy driver steps the same potential with its ``kernel`` field
stripped, so for the logistic family it calls the same compiled ``grad``
that the loop's gradient code is checked against.
"""

import ctypes
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

from cesaro_lmc import _kernel
from cesaro_lmc.bayes import GaussianLocationModel, LogisticModel, build_posterior, sample_dataset
from cesaro_lmc.diagnostics import moment_check
from cesaro_lmc.errors import CapabilityError, DivergenceError
from cesaro_lmc.potentials import builtin_gaussian_location, builtin_logistic
from cesaro_lmc.rng import mix64, stream
from cesaro_lmc.sampler import ChainConfig, dump_trajectory, replicate_runs, run_chain

GAUSS = builtin_gaussian_location(2, [0.3, -0.7], 1.5)
MODEL = LogisticModel(stream(4).standard_normal((10, 2)), ridge=0.5)
CONJUGATE = GaussianLocationModel(2, 0.5)
IDS = ["gaussian", "logistic", "posterior", "conjugate"]


@pytest.fixture(scope="module")
def lib():
    lib = _kernel.load()
    if lib is None:
        pytest.skip("the compiled chain loop cannot be built here")
    return lib


@pytest.fixture(scope="module")
def pots(lib):
    """The potentials with a kernel field, by id; the logistic ones are
    built on the compiled library.  "posterior" is a logistic posterior and
    "conjugate" a Gaussian-location one, of precision 0.5 * 200 + 1 = 101."""
    logistic = builtin_logistic(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]]), [1, -1, 1],
                                ridge=1.0)
    posterior, conjugate = (build_posterior(m, sample_dataset(m, [0.4, -0.3], 200, seed=8))
                            .potential for m in (MODEL, CONJUGATE))
    return {"gaussian": GAUSS, "logistic": logistic, "posterior": posterior,
            "conjugate": conjugate}


def on_numpy(pot):
    """``pot`` without its kernel field: the numpy driver steps it."""
    return dataclasses.replace(pot, kernel=None)


def outputs(runs):
    return [
        (r.cesaro.tobytes(), r.final_state.tobytes(), r.steps_done, r.diverged_step,
         r.tangent_log)
        for r in runs
    ]


def numpy_stream(key, counter=None):
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


KEYS = [0, 1, 0x5EED, 2**64 - 1]


class TestNormals:
    """The library's Philox streams against numpy's Philox Generator, on
    the library as built (``built_lib``, see conftest)."""

    @pytest.mark.parametrize("key", KEYS)
    def test_equal_to_numpy_standard_normal(self, built_lib, key):
        row = _kernel.streams([key])[0]
        gen = numpy_stream(key)
        mine = _kernel.normals(built_lib, row, 10**6)
        assert mine.tobytes() == gen.standard_normal(10**6).tobytes()
        # the ziggurat's tail branch (beyond r = 3.654...) was taken
        assert np.sum(np.abs(mine) > 3.6541528853610088) > 0
        # and the row continues as numpy's generator does
        assert _kernel.normals(built_lib, row, 7).tobytes() == gen.standard_normal(7).tobytes()

    @pytest.mark.parametrize("key", KEYS)
    def test_slow_path_rewinds_at_every_buffer_position(self, built_lib, key):
        """Normals in calls of 1, 2 and 3: a draw the inline test does not
        accept hands its word back to numpy, at every buffer position,
        the first word of a fresh block included, and the row stays
        numpy's Philox state after every call."""
        row = _kernel.streams([key])[0]
        gen = numpy_stream(key)
        words = 0  # 64-bit words drawn so far
        slow_at = set()  # buffer positions where a single draw took numpy's slow path
        for call in range(12000):
            n = call % 3 + 1
            pos = int(row[10]) % 4
            assert _kernel.normals(built_lib, row, n).tobytes() == gen.standard_normal(n).tobytes()
            state = gen.bit_generator.state
            assert row[:4].tolist() == state["state"]["counter"].tolist()
            assert row[6:10].tolist() == state["buffer"].tolist()
            assert row[10] == state["buffer_pos"]
            drawn = 4 * int(state["state"]["counter"][0]) - 4 + state["buffer_pos"]
            if n == 1 and drawn - words > 1:
                slow_at.add(pos)
            words = drawn
        assert slow_at == {0, 1, 2, 3}

    def test_tables_are_read_from_numpy(self, built_lib):
        """Every ziggurat row but numpy's ki[1] = 0 has a positive bound;
        a probe that found none would still give numpy's bits, slower."""
        assert built_lib.lmc_init() == 255

    def test_self_check_reaches_the_tail_and_the_slow_path(self):
        gen = numpy_stream(_kernel._CHECK_KEY)
        x = gen.standard_normal(_kernel._CHECK_NORMALS)
        assert np.sum(np.abs(x) > 3.6541528853610088) > 0
        # a draw numpy does not accept on its first word takes at least two
        state = gen.bit_generator.state
        assert 4 * int(state["state"]["counter"][0]) - 4 + state["buffer_pos"] > x.size

    @pytest.mark.parametrize("key", KEYS)
    def test_counter_carries(self, built_lib, key):
        counter = np.array([2**64 - 1, 2**64 - 1, 2**64 - 1, 5], dtype=np.uint64)
        row = _kernel.streams([key])[0]
        row[:4] = counter
        gen = numpy_stream(key, counter)
        mine = _kernel.normals(built_lib, row, 100)
        assert mine.tobytes() == gen.standard_normal(100).tobytes()
        assert row[:4].tolist() == gen.bit_generator.state["state"]["counter"].tolist()
        assert row[1:4].tolist() == [0, 0, 6]

    @pytest.mark.parametrize("key", KEYS)
    def test_draws_leave_the_padding_alone(self, built_lib, key):
        """Words 11-15 of a row are padding: no draw, fast path or numpy's
        slow path, reads or writes them."""
        row = _kernel.streams([key])[0]
        row[11:] = np.arange(1, 6, dtype=np.uint64) * 0x0123456789ABCDEF
        padding = row[11:].copy()
        gen = numpy_stream(key)
        assert _kernel.normals(built_lib, row, 10**5).tobytes() == gen.standard_normal(
            10**5).tobytes()
        assert row[11:].tolist() == padding.tolist()

    def test_rows_start_cache_lines(self):
        rows = _kernel.streams(range(5))
        assert rows.shape == (5, 16) and rows.ctypes.data % 64 == 0


class TestAgainstNumpyDriver:
    @pytest.mark.parametrize("name", IDS)
    # the noise blocks of these batches hold 8192 steps, so 8200 steps cross an edge
    @pytest.mark.parametrize("m, n, base_seed", [
        (1, 3001, 21), (1, 8200, 21), (7, 3001, 21), (7, 8200, 21), (200, 300, 21),
        (200, 300, 5)])
    def test_replicates(self, pots, name, m, n, base_seed):
        pot = pots[name]
        cfg = ChainConfig(gamma=0.5 / pot.smoothness.L, n_steps=n, x0=[0.5, 0.1], seed=0,
                          track_tangent=True, checkpoints=40)
        mine = outputs(replicate_runs(pot, cfg, m, base_seed))
        assert mine == outputs(replicate_runs(on_numpy(pot), cfg, m, base_seed))

    @pytest.mark.parametrize("base_seed", [21, 5])
    def test_gaussian_at_wide_m(self, lib, base_seed):
        cfg = ChainConfig(gamma=0.05, n_steps=50, x0=[0.5, 0.1], seed=0)
        mine = outputs(replicate_runs(GAUSS, cfg, 2000, base_seed))
        assert mine == outputs(replicate_runs(on_numpy(GAUSS), cfg, 2000, base_seed))

    @pytest.mark.parametrize("name", IDS)
    def test_dump_across_block_edge(self, pots, name, tmp_path):
        pot = pots[name]
        # a single chain's noise blocks hold 8192 steps; 17000 steps cross two edges
        cfg = ChainConfig(gamma=0.4 / pot.smoothness.L, n_steps=17000, x0=[1.0, -1.0], seed=8)

        def dump(p, tag):
            frames = tmp_path / f"{tag}.bin"
            dump_trajectory(p, cfg, frames, tmp_path / f"{tag}.json", stride=7)
            return frames.read_bytes()

        mine = dump(pot, "c")
        assert len(mine) == 8 * 2 * len(range(0, 17000, 7))
        assert mine == dump(on_numpy(pot), "n")

    @pytest.mark.parametrize("name", IDS)
    def test_moment_check(self, pots, name):
        pot = pots[name]
        cfg = ChainConfig(gamma=0.02 / pot.smoothness.L, n_steps=20000, x0=[0.5, 0.5], seed=4)
        mine = moment_check(pot, cfg)
        assert repr(mine) == repr(moment_check(on_numpy(pot), cfg))

    # step sizes just above 2 / (curvature far out), |1 - gamma curvature| = 1.05
    # there, so the noise a replicate gathered decides whether it passes 1e12
    # within n steps
    @pytest.mark.parametrize(
        "name, gamma, n",
        [("gaussian", 2.05, 540), ("logistic", 2.05, 494), ("posterior", 2.05 / 101.0, 494),
         ("conjugate", 2.05 / 101.0, 576)],
        ids=IDS,
    )
    def test_partly_diverging_batch(self, pots, name, gamma, n):
        # the Gaussian at unit precision
        pot = builtin_gaussian_location(2, [0.1, -0.2], 1.0) if name == "gaussian" else pots[name]
        cfg = ChainConfig(gamma=gamma, n_steps=n, x0=[0.0, 0.0], seed=0, track_tangent=True,
                          checkpoints=50)
        runs = replicate_runs(pot, cfg, 64, base_seed=5)
        steps = {r.diverged_step for r in runs} - {None}
        lost = sum(r.diverged_step is not None for r in runs)
        assert 0 < lost < 64 and len(steps) > 1
        assert outputs(runs) == outputs(replicate_runs(on_numpy(pot), cfg, 64, base_seed=5))
        for i, run in enumerate(runs):
            single = dataclasses.replace(cfg, seed=mix64(5, i))
            try:
                alone = run_chain(pot, single)
            except DivergenceError as exc:
                alone = exc.payload
            assert outputs([alone]) == outputs([run])


class _SpyLib:
    """The compiled library, recording each ``lmc_step`` call's stream
    address and replicate count, and each evaluator call's name and point
    count; a step call whose count ``broken`` returns True for raises
    instead of stepping."""

    def __init__(self, lib, broken=None):
        self._lib, self._broken, self.calls, self.evals = lib, broken, [], []

    def __getattr__(self, name):
        fn = getattr(self._lib, name)
        if name not in ("lmc_value", "lmc_grad", "lmc_hess_vec"):
            return fn

        def counted(pot, n, *args):  # records each evaluator call's point count
            self.evals.append((name, n))
            fn(pot, n, *args)

        return counted

    def lmc_step(self, *args):
        self.calls.append((args[1], args[2]))
        if self._broken is not None and self._broken(args[2]):
            raise RuntimeError(f"the range of {args[2]} replicates failed")
        self._lib.lmc_step(*args)

    def ranges(self):
        """The (lo, hi) replicate ranges of the calls, which must tile 0..m."""
        base, row = min(addr for addr, _ in self.calls), 8 * _kernel._ROW
        spans = sorted(((addr - base) // row, (addr - base) // row + m) for addr, m in self.calls)
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        return spans


@pytest.fixture
def threads3(lib, monkeypatch):
    """Three threads per step call, whatever the CPUs of the host, switching
    often, so that a range taken twice or never would show."""
    monkeypatch.setattr(_kernel, "_WORKERS", 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _spy(monkeypatch, lib, broken=None):
    spy = _SpyLib(lib, broken)
    monkeypatch.setattr(_kernel, "load", lambda: spy)
    return spy


def _singletons(pot, cfg, m, base_seed):
    runs = []
    for i in range(m):
        try:
            runs.append(run_chain(pot, dataclasses.replace(cfg, seed=mix64(base_seed, i))))
        except DivergenceError as exc:
            runs.append(exc.payload)
    return outputs(runs)


@pytest.mark.compiled
class TestSplitRanges:
    """Batches large enough that ``Kernel.step`` splits them into ranges
    stepped on several threads: every replicate keeps its bits."""

    @pytest.mark.parametrize("name", ["gaussian", "posterior", "conjugate"])
    def test_batch_matches_singletons_and_numpy(self, lib, pots, threads3, monkeypatch, name):
        pot = pots[name]
        spy = _spy(monkeypatch, lib)
        cfg = ChainConfig(gamma=0.5 / pot.smoothness.L, n_steps=400, x0=[0.5, 0.1], seed=0)
        mine = outputs(replicate_runs(pot, cfg, 2002, base_seed=21))
        # 2002 x 400 replicate-steps fill 12 ranges of about 2^16, 4 per thread, cut at
        # multiples of 8 replicates but for the last
        ranges = spy.ranges()
        assert len(ranges) == 12 and {hi - lo for lo, hi in ranges} == {160, 168, 170}
        assert all(lo % 8 == 0 for lo, _ in ranges)
        assert mine == outputs(replicate_runs(on_numpy(pot), cfg, 2002, base_seed=21))
        assert mine == _singletons(pot, cfg, 2002, base_seed=21)

    def test_divergences_in_several_ranges(self, lib, threads3, monkeypatch):
        pot = builtin_gaussian_location(2, [0.1, -0.2], 1.0)
        spy = _spy(monkeypatch, lib)
        cfg = ChainConfig(gamma=2.05, n_steps=540, x0=[0.0, 0.0], seed=0)
        runs = replicate_runs(pot, cfg, 600, base_seed=5)
        ranges = spy.ranges()
        lost = [i for i, r in enumerate(runs) if r.diverged_step is not None]
        assert 0 < len(lost) < 600 and len({runs[i].diverged_step for i in lost}) > 1
        assert len({next(k for k, (lo, hi) in enumerate(ranges) if lo <= i < hi)
                    for i in lost}) > 1
        mine = outputs(runs)
        assert mine == outputs(replicate_runs(on_numpy(pot), cfg, 600, base_seed=5))
        assert mine == _singletons(pot, cfg, 600, base_seed=5)

    @pytest.mark.parametrize("name", ["gaussian", "posterior", "conjugate"])
    def test_tangent_trace_through_the_states_buffer(self, lib, pots, threads3, monkeypatch,
                                                     name):
        pot = pots[name]
        spy = _spy(monkeypatch, lib)
        cfg = ChainConfig(gamma=0.5 / pot.smoothness.L, n_steps=300, x0=[0.5, 0.1], seed=0,
                          track_tangent=True, checkpoints=20)
        mine = outputs(replicate_runs(pot, cfg, 700, base_seed=21))
        assert len(spy.ranges()) == 3  # one noise block of 700 x 300 steps
        assert mine == outputs(replicate_runs(on_numpy(pot), cfg, 700, base_seed=21))

    # 2002 x 150 replicate-steps: one range of 664, 672 and 666 per thread
    @pytest.mark.parametrize("broken", [lambda m: m == 666, lambda m: True], ids=["one", "all"])
    def test_failing_range_raises_in_the_caller(self, lib, threads3, monkeypatch, broken):
        spy = _spy(monkeypatch, lib, broken)
        cfg = ChainConfig(gamma=0.05, n_steps=150, x0=[0.5, 0.1], seed=0)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="replicates failed"):
            replicate_runs(GAUSS, cfg, 2002, base_seed=21)
        assert sorted(m for _, m in spy.calls) == [664, 666, 672]
        assert threading.active_count() == before

    def test_exception_in_a_thread_reaches_the_caller(self, lib, threads3, monkeypatch):
        spy = _spy(monkeypatch, lib)

        def fail(*args):
            raise RuntimeError("this range failed")

        monkeypatch.setattr(spy, "lmc_step", fail)
        cfg = ChainConfig(gamma=0.05, n_steps=150, x0=[0.5, 0.1], seed=0)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="this range failed"):
            replicate_runs(GAUSS, cfg, 2002, base_seed=21)
        assert threading.active_count() == before


    def test_evaluators_split_a_batch_without_moving_a_bit(self, lib, threads3, monkeypatch):
        # 4000 points of a 100-pair posterior: 4 * 10^5 point-terms fill 6 ranges
        model = LogisticModel(stream(6).standard_normal((100, 2)), ridge=0.5)
        pot = build_posterior(model, sample_dataset(model, [0.4, -0.3], 500, seed=8)).potential
        assert pot.kernel[0].shape == (100, 2)
        spy = _SpyLib(lib)
        kern = _kernel.Kernel(spy, pot.kernel, 2)
        x, v = stream(7).standard_normal((2, 4000, 2))
        batch = (kern.value(x), kern.grad(x), kern.hess_vec(x, v))
        for name in ("lmc_value", "lmc_grad", "lmc_hess_vec"):
            counts = [n for fn, n in spy.evals if fn == name]
            assert len(counts) == 6 and sum(counts) == 4000
        rows = (np.array([pot.value(p) for p in x]), np.array([pot.grad(p) for p in x]),
                np.array([pot.hess_vec(p, u) for p, u in zip(x, v)]))
        monkeypatch.setattr(_kernel, "_WORKERS", 1)
        one_thread = (kern.value(x), kern.grad(x), kern.hess_vec(x, v))
        for mine, alone, serial in zip(batch, rows, one_thread):
            assert mine.tobytes() == alone.tobytes() == serial.tobytes()


@pytest.mark.compiled
@pytest.mark.parametrize("m, dead", [(3, None), (4, None), (5, None), (8, 1), (9, None),
                                     (21, 6)])
def test_lanes_match_the_scalar_body(lib, m, dead):
    """A batch of m replicates of a 50-pair logistic posterior, stepped
    through ``Kernel.step`` in four calls with the states buffer on, equals
    its ``run_chain`` singletons byte for byte, and its states equal those
    of each replicate stepped alone.  ``lmc_step`` runs a group of at least
    4 live replicates of a term with pairs in 8 AVX-512 lanes where the CPU
    has them, and a lone replicate on the scalar body, so on such a host
    this checks the lanes against the scalar body; on a host without
    AVX-512 both sides run the scalar body.  At gamma = 2.4 / mu every step
    stretches the state by at least 1.4, so from x0 rows spread over
    1e-2 .. 1e10 the lanes of a group diverge at different steps, in
    different calls, or not within the 60 steps.  Replicate ``dead`` is
    dead on entry: its rows, its stream and its states are left as they were."""
    model = LogisticModel(stream(12).standard_normal((50, 2)), ridge=0.5)
    pot = build_posterior(model, sample_dataset(model, [0.4, -0.3], 400, seed=9)).potential
    assert pot.kernel[0].shape == (50, 2)
    calls = (1, 9, 20, 30)  # the steps of each step call
    gamma, n = 2.4 / pot.kernel[3], sum(calls)
    signs = np.where(np.arange(m)[:, None] % 2, [1.0, -0.5], [-0.3, 1.0])
    x0 = np.geomspace(1e-2, 1e10, m)[:, None] * signs
    seeds = mix64(17, np.arange(m, dtype=np.uint64))
    kern = _kernel.Kernel(lib, pot.kernel, 2)

    def batch(rows):
        """ces, x, diverged, the states each call wrote (unwritten rows at 7.0)
        and the streams of the replicates ``rows`` stepped as one batch."""
        streams, x = _kernel.streams(seeds[rows]), x0[rows].copy()
        ces, comp = np.zeros_like(x), np.zeros_like(x)
        diverged = np.array([-1 if i != dead else 3 for i in rows], dtype=np.int64)
        states, written = np.empty((len(rows), max(calls), 2)), []
        for step, todo in zip(np.cumsum((0,) + calls), calls):
            states.fill(7.0)
            kern.step(streams, gamma, np.sqrt(2.0 * gamma), int(step), todo, x, ces, comp,
                      diverged, states)
            written.append(states[:, :todo].copy())
        return ces, x, diverged, np.concatenate(written, axis=1), streams

    ces, x, diverged, states, streams = batch(list(range(m)))
    live = [i for i in range(m) if i != dead]
    steps = diverged[live][diverged[live] >= 0]
    assert 0 < steps.size < len(live) and len(set(steps.tolist())) > 1
    assert len(set(np.searchsorted(np.cumsum(calls), steps, "right").tolist())) > 1
    for i in live:
        try:
            alone = run_chain(pot, ChainConfig(gamma=gamma, n_steps=n, x0=x0[i],
                                               seed=int(seeds[i])))
        except DivergenceError as exc:
            alone = exc.payload
        assert (ces[i] / n).tobytes() == alone.cesaro.tobytes()
        assert x[i].tobytes() == alone.final_state.tobytes()
        assert diverged[i] == (-1 if alone.diverged_step is None else alone.diverged_step)
        assert states[i].tobytes() == batch([i])[3][0].tobytes()
    if dead is not None:
        assert x[dead].tobytes() == x0[dead].tobytes() and not ces[dead].any()
        assert diverged[dead] == 3 and np.all(states[dead] == 7.0)
        assert streams[dead].tobytes() == _kernel.streams(seeds[[dead]])[0].tobytes()


def test_a_cached_kernel_loads_without_subprocess(lib):
    # the module fixture built or found the library, so this load reads the cache
    code = ("import sys; from cesaro_lmc import _kernel; "
            "print(_kernel.load() is not None, 'subprocess' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["True", "False"]


def test_package_import_starts_no_thread():
    code = ("import sys, threading, cesaro_lmc.cli; "
            "print(threading.active_count(), 'concurrent.futures' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["1", "False"]


def _traced(pot, calls):
    """``pot`` with wrapped evaluators, as a tracer builds them; ``calls``
    records each evaluator called."""

    def wrap(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    return dataclasses.replace(pot, **{name: wrap(name, getattr(pot, name))
                                       for name in ("value", "grad", "hess_vec")})


@pytest.mark.parametrize("name", IDS)
def test_path_follows_the_kernel_field(pots, name):
    """A potential with wrapped evaluators keeps the compiled loop, so its
    gradient is never called inside the chain."""
    pot = pots[name]
    calls = []
    cfg = ChainConfig(gamma=0.5 / pot.smoothness.L, n_steps=500, x0=[0.0, 0.0], seed=0)
    assert outputs(replicate_runs(_traced(pot, calls), cfg, 3, base_seed=2)) == outputs(
        replicate_runs(pot, cfg, 3, base_seed=2))
    assert calls == []


def test_posterior_kernel_is_the_posterior(pots):
    """The logistic posterior is the logistic potential of its observations
    with ridge n lambda + 1, its prior's unit curvature included, bit for bit."""
    post = pots["posterior"]
    obs = sample_dataset(MODEL, [0.4, -0.3], 200, seed=8)
    ref = builtin_logistic(obs[:, :-1], obs[:, -1], ridge=200 * MODEL.ridge + 1.0)
    assert post.kernel[3] == 101.0
    xs, vs = stream(3).standard_normal((2, 50, 2)) * 3.0
    assert post.grad(xs).tobytes() == ref.grad(xs).tobytes()
    assert post.value(xs).tobytes() == ref.value(xs).tobytes()
    assert post.hess_vec(xs, vs).tobytes() == ref.hess_vec(xs, vs).tobytes()


@pytest.mark.parametrize("case", ["d=1", "d=2", "d=5", "d=9", "conjugate"])
def test_gaussian_term_is_the_numpy_gaussian(lib, pots, case):
    """The compiled evaluators on a Gaussian's term, the one with no pairs,
    give numpy's gradient and Hessian-vector product bit for bit, and its
    value up to d = 7: from d = 8 numpy's pairwise sum adds the squares in
    another order.  A conjugate posterior's term is its Gaussian, whose
    value leaves out the posterior's constant."""
    if case == "conjugate":
        pot = pots[case]
        gauss = builtin_gaussian_location(2, pot.mean, pot.smoothness.L)
    else:
        d = int(case[2:])
        pot = gauss = builtin_gaussian_location(d, stream(30 + d).standard_normal(d), 1.7)
    d = pot.dim
    kern = _kernel.Kernel(lib, pot.kernel, d)
    x, v = stream(40 + d).standard_normal((2, 50, d)) * 3.0
    assert kern.grad(x).tobytes() == pot.grad(x).tobytes()
    assert kern.hess_vec(x, v).tobytes() == pot.hess_vec(x, v).tobytes()
    if d <= 7:
        assert kern.value(x).tobytes() == gauss.value(x).tobytes()
    else:
        np.testing.assert_allclose(kern.value(x), gauss.value(x), rtol=1e-15, atol=0)


@pytest.mark.parametrize("name", IDS)
def test_term_arrays_own_their_cache_lines(lib, pots, name):
    """Every array a compiled potential reads starts a 64-byte line, and its
    last line lies in its own buffer: no other allocation, such as memory a
    concurrent chain thread writes, shares a line with it."""
    kern = _kernel.Kernel(lib, pots[name].kernel, 2)
    for a in kern._keep:
        end = -(-(a.ctypes.data + a.nbytes) // 64) * 64
        assert a.ctypes.data % 64 == 0 and end <= a.base.ctypes.data + a.base.nbytes


def _logistic_run_config(tmp_path):
    cfg = {
        "model": {"family": "logistic", "d": 2, "theta_star": [0.3, -0.2],
                  "params": {"design": [[1.0, 0.5], [-0.3, 1.2], [0.8, -0.9]], "ridge": 0.5}},
        "prior": {"family": "standard_gaussian"},
        "data": {"n": 60, "seed": 3},
        "tuning": {"regime": "bayes-sc-i.a"},
        "run": {"M": 4, "base_seed": 1, "output_dir": "unused"},
    }
    path = tmp_path / "logistic.json"
    path.write_text(json.dumps(cfg))
    return path


def test_fallback_when_the_compiler_fails(lib, monkeypatch, tmp_path, capsys):
    cfg = ChainConfig(gamma=0.1, n_steps=6000, x0=[0.2, 0.2], seed=0)
    ref = outputs(replicate_runs(GAUSS, cfg, 9, base_seed=3))

    def no_compiler(source, target):
        raise OSError("cc: not found")

    monkeypatch.setattr(_kernel, "_compile", no_compiler)
    monkeypatch.setattr(_kernel, "_cache_dir", lambda: str(tmp_path))
    monkeypatch.setattr(_kernel, "_lib", None)
    monkeypatch.setattr(_kernel, "_tried", False)
    capsys.readouterr()
    assert outputs(replicate_runs(GAUSS, cfg, 9, base_seed=3)) == ref
    assert outputs(replicate_runs(GAUSS, cfg, 9, base_seed=3)) == ref
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Gaussian chains use the numpy driver" in err
    assert list(tmp_path.iterdir()) == []  # no half-written object is left
    # the logistic family has no numpy evaluators: it refuses, in one line
    with pytest.raises(CapabilityError, match="compiled evaluators") as exc:
        builtin_logistic(np.array([[1.0, 0.0]]), [1])
    assert "\n" not in str(exc.value)
    data = sample_dataset(MODEL, [0.4, -0.3], 20, seed=8)
    with pytest.raises(CapabilityError, match="compiled evaluators"):
        build_posterior(MODEL, data)


class _Perturbed:
    """The compiled library with its function ``name``, ``lmc_normals``,
    wrapped so that the last value it writes is one ulp too large, as a
    numpy with other ziggurat tables would make it.  The function ends in
    (count, output pointer)."""

    def __init__(self, lib, name):
        self._lib, self._name = lib, name

    def __getattr__(self, name):
        fn = getattr(self._lib, name)
        if name != self._name:
            return fn

        def perturbed(*args):
            fn(*args)
            n, out = args[-2:]
            cell = ctypes.c_double.from_address(out + 8 * (n - 1))
            cell.value = np.nextafter(cell.value, np.inf)

        return perturbed


def _falls_back(lib, monkeypatch, capsys, name):
    """``load()`` on the library with ``name`` perturbed: it returns None
    with one stderr line, returned here, and chains keep their bits."""
    cfg = ChainConfig(gamma=0.1, n_steps=6000, x0=[0.2, 0.2], seed=0)
    ref = outputs(replicate_runs(GAUSS, cfg, 9, base_seed=3))
    monkeypatch.setattr(_kernel, "_open", lambda path: _Perturbed(lib, name))
    monkeypatch.setattr(_kernel, "_lib", None)
    monkeypatch.setattr(_kernel, "_tried", False)
    capsys.readouterr()
    assert outputs(replicate_runs(GAUSS, cfg, 9, base_seed=3)) == ref
    assert _kernel.load() is None
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    return err


def test_fallback_when_the_normals_differ(lib, monkeypatch, capsys):
    err = _falls_back(lib, monkeypatch, capsys, "lmc_normals")
    assert "normals differ from numpy's standard_normal" in err


def test_cli_without_a_compiler_exits_2_on_a_logistic_run(tmp_path):
    """No ``cc`` on PATH and an empty cache: ``run`` on a logistic config
    exits 2 with one ``error:`` line and no traceback."""
    (tmp_path / "bin").mkdir()
    env = dict(os.environ, PATH=str(tmp_path / "bin"), XDG_CACHE_HOME=str(tmp_path / "cache"))
    argv = ["run", "--config", str(_logistic_run_config(tmp_path)), "--output", str(tmp_path / "o")]
    proc = subprocess.run([sys.executable, "-m", "cesaro_lmc.cli", *argv], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("error: ")]
    assert len(errors) == 1 and "compiled evaluators" in errors[0]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_source_compiles_without_warnings(tmp_path):
    # an include dropped by mistake shows as an implicit declaration
    flags = [f for f in _kernel._FLAGS if f != "-shared"]
    cmd = ["cc", "-Wall", "-Wextra", "-Werror", "-std=c11", *flags, "-I", np.get_include(), "-c",
           _kernel._SOURCE, "-o", str(tmp_path / "kernel.o")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_cache_is_private(lib):
    path = _kernel._shared_object()
    assert os.stat(os.path.dirname(path)).st_mode & 0o077 == 0
