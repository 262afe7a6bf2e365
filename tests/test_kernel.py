"""The compiled Gaussian chain loop against the numpy driver, bit for bit."""

import dataclasses
import os

import numpy as np
import pytest

from cesaro_lmc import _kernel
from cesaro_lmc.diagnostics import moment_check
from cesaro_lmc.errors import DivergenceError
from cesaro_lmc.potentials import builtin_gaussian_location
from cesaro_lmc.rng import mix64
from cesaro_lmc.sampler import ChainConfig, dump_trajectory, replicate_runs, run_chain

GAUSS = builtin_gaussian_location(2, [0.3, -0.7], 1.5)


@pytest.fixture(scope="module")
def lib():
    lib = _kernel.load()
    if lib is None:
        pytest.skip("the compiled chain loop cannot be built here")
    return lib


def on_numpy(monkeypatch, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with the compiled loop made unavailable."""
    with monkeypatch.context() as mp:
        mp.setattr(_kernel, "load", lambda: None)
        return fn(*args, **kwargs)


def outputs(runs):
    return [
        (r.cesaro.tobytes(), r.final_state.tobytes(), r.steps_done, r.diverged_step,
         r.tangent_log)
        for r in runs
    ]


class TestNormals:
    @pytest.mark.parametrize("key", [0, 1, 0x5EED, 2**64 - 1])
    def test_equal_to_numpy_standard_normal(self, lib, key):
        gen = np.random.Generator(np.random.Philox(key=key))
        mine = _kernel.normals(lib, gen, 10**6)
        ref = np.random.Generator(np.random.Philox(key=key)).standard_normal(10**6)
        assert mine.tobytes() == ref.tobytes()
        # the ziggurat's tail branch (beyond r = 3.654...) was taken
        assert np.sum(np.abs(mine) > 3.6541528853610088) > 0
        # and the generator was advanced exactly as numpy's would be
        assert gen.standard_normal() == np.random.Generator(
            np.random.Philox(key=key)).standard_normal(10**6 + 1)[-1]


class TestAgainstNumpyDriver:
    @pytest.mark.parametrize("m", [1, 7, 2000])
    @pytest.mark.parametrize("k_sub", [1, 3])
    def test_replicates(self, lib, monkeypatch, m, k_sub):
        n = 50 if m == 2000 else 3001
        cfg = ChainConfig(gamma=0.05, n_steps=n, x0=[0.5, 0.1], seed=0, fine_substeps=k_sub,
                          track_tangent=m < 2000, checkpoints=40)
        mine = outputs(replicate_runs(GAUSS, cfg, m, base_seed=21))
        ref = outputs(on_numpy(monkeypatch, replicate_runs, GAUSS, cfg, m, base_seed=21))
        assert mine == ref

    def test_dump_across_block_edge(self, lib, monkeypatch, tmp_path):
        # K=3 gives 2730-step noise blocks; 6000 steps cross two block edges
        cfg = ChainConfig(gamma=0.2, n_steps=6000, x0=[1.0, -1.0], seed=8, fine_substeps=3)

        def dump(tag):
            frames = tmp_path / f"{tag}.bin"
            dump_trajectory(GAUSS, cfg, frames, tmp_path / f"{tag}.json", stride=7)
            return frames.read_bytes()

        mine = dump("c")
        assert len(mine) == 8 * 2 * len(range(0, 6000, 7))
        assert mine == on_numpy(monkeypatch, dump, "n")

    def test_moment_check(self, lib, monkeypatch):
        cfg = ChainConfig(gamma=0.01, n_steps=20000, x0=[0.5, 0.5], seed=4)
        mine = moment_check(GAUSS, cfg)
        assert repr(mine) == repr(on_numpy(monkeypatch, moment_check, GAUSS, cfg))

    def test_partly_diverging_batch(self, lib, monkeypatch):
        # gamma just above 2/rho: |1 - gamma rho| = 1.05, so the noise a
        # replicate gathered decides whether it passes 1e12 within n steps
        pot = builtin_gaussian_location(2, [0.1, -0.2], 1.0)
        cfg = ChainConfig(gamma=2.05, n_steps=540, x0=[0.0, 0.0], seed=0, track_tangent=True,
                          checkpoints=50)
        runs = replicate_runs(pot, cfg, 64, base_seed=5)
        steps = {r.diverged_step for r in runs} - {None}
        lost = sum(r.diverged_step is not None for r in runs)
        assert 0 < lost < 64 and len(steps) > 1
        assert outputs(runs) == outputs(
            on_numpy(monkeypatch, replicate_runs, pot, cfg, 64, base_seed=5))
        for i, run in enumerate(runs):
            single = dataclasses.replace(cfg, seed=mix64(5, i))
            try:
                alone = run_chain(pot, single)
            except DivergenceError as exc:
                alone = exc.payload
            assert outputs([alone]) == outputs([run])


def test_path_follows_the_kernel_field(lib):
    """A potential with wrapped evaluators (as a tracer builds them) keeps the
    compiled loop, so its gradient is never called inside the chain."""
    calls = []

    def grad(x):
        calls.append(1)
        return GAUSS.grad(x)

    traced = dataclasses.replace(GAUSS, grad=grad)
    cfg = ChainConfig(gamma=0.1, n_steps=500, x0=[0.0, 0.0], seed=0)
    assert outputs(replicate_runs(traced, cfg, 3, base_seed=2)) == outputs(
        replicate_runs(GAUSS, cfg, 3, base_seed=2))
    assert calls == []


def test_fallback_when_the_compiler_fails(lib, monkeypatch, tmp_path, capsys):
    cfg = ChainConfig(gamma=0.1, n_steps=3000, x0=[0.2, 0.2], seed=0, fine_substeps=2)
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
    assert err.count("\n") == 1 and "using the numpy driver" in err
    assert list(tmp_path.iterdir()) == []  # no half-written object is left


def test_cache_is_private(lib):
    path = _kernel._shared_object()
    assert os.stat(os.path.dirname(path)).st_mode & 0o077 == 0
