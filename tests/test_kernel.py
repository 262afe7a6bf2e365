"""The compiled chain loop against the numpy driver, bit for bit.

The numpy driver steps the same potential with its ``kernel`` field
stripped, so for the logistic family it calls the same compiled ``grad``
that the loop's gradient code is checked against.
"""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from cesaro_lmc import _kernel
from cesaro_lmc.bayes import LogisticModel, build_posterior, sample_dataset, standard_gaussian_prior
from cesaro_lmc.diagnostics import moment_check
from cesaro_lmc.errors import CapabilityError, DivergenceError
from cesaro_lmc.potentials import builtin_gaussian_location, builtin_logistic
from cesaro_lmc.rng import mix64, stream
from cesaro_lmc.sampler import ChainConfig, dump_trajectory, replicate_runs, run_chain

GAUSS = builtin_gaussian_location(2, [0.3, -0.7], 1.5)
MODEL = LogisticModel(stream(4).standard_normal((10, 2)), ridge=0.5)
IDS = ["gaussian", "logistic", "posterior"]


@pytest.fixture(scope="module")
def lib():
    lib = _kernel.load()
    if lib is None:
        pytest.skip("the compiled chain loop cannot be built here")
    return lib


@pytest.fixture(scope="module")
def pots(lib):
    """The potentials with a kernel field, by id; the logistic ones are
    built on the compiled library."""
    logistic = builtin_logistic(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]]), [1, -1, 1],
                                ridge=1.0)
    data = sample_dataset(MODEL, [0.4, -0.3], 200, seed=8)
    posterior = build_posterior(MODEL, data, standard_gaussian_prior(2)).potential
    return {"gaussian": GAUSS, "logistic": logistic, "posterior": posterior}


def on_numpy(pot):
    """``pot`` without its kernel field: the numpy driver steps it."""
    return dataclasses.replace(pot, kernel=None)


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
    @pytest.mark.parametrize("name", IDS)
    @pytest.mark.parametrize("m", [1, 7, 200])
    @pytest.mark.parametrize("k_sub", [1, 3])
    def test_replicates(self, pots, name, m, k_sub):
        pot = pots[name]
        n = 300 if m == 200 else 3001
        cfg = ChainConfig(gamma=0.5 / pot.smoothness.L, n_steps=n, x0=[0.5, 0.1], seed=0,
                          fine_substeps=k_sub, track_tangent=True, checkpoints=40)
        mine = outputs(replicate_runs(pot, cfg, m, base_seed=21))
        assert mine == outputs(replicate_runs(on_numpy(pot), cfg, m, base_seed=21))

    @pytest.mark.parametrize("k_sub", [1, 3])
    def test_gaussian_at_wide_m(self, lib, k_sub):
        cfg = ChainConfig(gamma=0.05, n_steps=50, x0=[0.5, 0.1], seed=0, fine_substeps=k_sub)
        mine = outputs(replicate_runs(GAUSS, cfg, 2000, base_seed=21))
        assert mine == outputs(replicate_runs(on_numpy(GAUSS), cfg, 2000, base_seed=21))

    @pytest.mark.parametrize("name", IDS)
    def test_dump_across_block_edge(self, pots, name, tmp_path):
        pot = pots[name]
        # K=3 gives 2730-step noise blocks; 6000 steps cross two block edges
        cfg = ChainConfig(gamma=0.4 / pot.smoothness.L, n_steps=6000, x0=[1.0, -1.0], seed=8,
                          fine_substeps=3)

        def dump(p, tag):
            frames = tmp_path / f"{tag}.bin"
            dump_trajectory(p, cfg, frames, tmp_path / f"{tag}.json", stride=7)
            return frames.read_bytes()

        mine = dump(pot, "c")
        assert len(mine) == 8 * 2 * len(range(0, 6000, 7))
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
        [("gaussian", 2.05, 540), ("logistic", 2.05, 494), ("posterior", 2.05 / 101.0, 494)],
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
    """The posterior, one compiled potential of a logistic and a Gaussian
    term, equals its logistic sum plus its prior, bit for bit."""
    post = pots["posterior"]
    assert [t[0] for t in post.kernel] == ["logistic", "gaussian"]
    value, grad, hess_vec = MODEL.sum_potential(sample_dataset(MODEL, [0.4, -0.3], 200,
                                                               seed=8).observations)[:3]
    prior = standard_gaussian_prior(2)
    xs, vs = stream(3).standard_normal((2, 50, 2)) * 3.0
    assert post.grad(xs).tobytes() == (grad(xs) + prior.grad(xs)).tobytes()
    assert post.value(xs).tobytes() == (value(xs) + prior.value(xs)).tobytes()
    assert post.hess_vec(xs, vs).tobytes() == (hess_vec(xs, vs) + prior.hess_vec(xs, vs)).tobytes()


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
    assert err.count("\n") == 1 and "Gaussian chains use the numpy driver" in err
    assert list(tmp_path.iterdir()) == []  # no half-written object is left
    # the logistic family has no numpy evaluators: it refuses, in one line
    with pytest.raises(CapabilityError, match="compiled evaluators") as exc:
        builtin_logistic(np.array([[1.0, 0.0]]), [1])
    assert "\n" not in str(exc.value)
    data = sample_dataset(MODEL, [0.4, -0.3], 20, seed=8)
    with pytest.raises(CapabilityError, match="compiled evaluators"):
        build_posterior(MODEL, data, standard_gaussian_prior(2))


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


def test_cache_is_private(lib):
    path = _kernel._shared_object()
    assert os.stat(os.path.dirname(path)).st_mode & 0o077 == 0
