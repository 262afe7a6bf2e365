"""Constant-step Euler chains with Cesaro averaging.

The chain is

    X_{t_{k+1}} = X_{t_k} - gamma * grad W(X_{t_k}) + sqrt(2 gamma) * zeta_{k+1}

with i.i.d. standard Gaussian increments, and the estimator is the plain
average of the first N states, x0 included (indices j = 0..N-1), held in a
Kahan-compensated accumulator.

A single chain is strictly sequential.  Replicates run through the same
batched driver, one Philox stream per replicate, so results are
bit-identical to running each chain alone and independent of how
replicates are partitioned across workers.

The driver fills one preallocated (replicates, steps, d) noise block in
place, stream by stream, at most 2^22 doubles; the Philox stream does not
depend on how draws are chunked, so block size never moves a bit.  The
Euler and Kahan updates write into fixed buffers, in the same IEEE
operation order as the plain expressions.  Divergence (a coordinate at
least 1e12 in magnitude, NaN or inf) is screened by one reduction over the
whole batch per step; the per-replicate check runs only when it trips.

Optional per-run diagnostics: a first-variation (tangent) matrix Y
co-integrated by explicit Euler with the Hessian at each pre-step state,
and running averages of exp(a * W) along the path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import DivergenceError, ParameterError
from .potentials import Potential
from .rng import mix64, stream

_DIVERGE_LIMIT = 1e12


def moment_clamp(pot: Potential) -> float:
    """Step-size ceiling 1/(4 d L + 1) under which moment bounds hold."""
    return 1.0 / (4.0 * pot.dim * pot.smoothness.L + 1.0)


@dataclass(frozen=True)
class ChainConfig:
    """Parameters of one Euler chain.

    ``track_moments`` is the exponent a in (0, 1/16] of the tracked
    exponential moment; ``fine_substeps`` = K advances the dynamics with
    step gamma/K between the coarse Cesaro grid points; ``clamp`` asserts
    gamma <= 1/(4 d L + 1) against the potential at run time.
    """

    gamma: float
    n_steps: int
    x0: np.ndarray
    seed: int
    track_tangent: bool = False
    track_moments: Optional[float] = None
    fine_substeps: int = 1
    clamp: bool = False
    checkpoints: int = 200
    burn_in: int = 0  # exploratory only; every tuned/acceptance run keeps 0

    def __post_init__(self):
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))
        if not self.gamma > 0:
            raise ParameterError(f"gamma must be positive, got {self.gamma}")
        if self.n_steps < 1:
            raise ParameterError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.fine_substeps < 1:
            raise ParameterError("fine_substeps must be >= 1")
        if self.track_moments is not None and not (0 < self.track_moments <= 1.0 / 16.0):
            raise ParameterError("moment exponent must lie in (0, 1/16]")
        if not 0 <= self.burn_in < self.n_steps:
            raise ParameterError("burn_in must lie in [0, n_steps)")


@dataclass(frozen=True)
class ChainRun:
    """Outputs of one chain: the Cesaro estimate and optional traces."""

    cesaro: np.ndarray
    final_state: np.ndarray
    steps_done: int
    tangent_log: Optional[List[tuple]] = None
    moment_log: Optional[List[tuple]] = None
    diverged_step: Optional[int] = None


def euler_step(state, potential: Potential, gamma: float, noise) -> np.ndarray:
    """One explicit Euler update: state - gamma grad W + sqrt(2 gamma) noise."""
    if not gamma > 0:
        raise ParameterError("gamma must be positive")
    state = np.asarray(state, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is the detected failure
        out = state - gamma * potential.grad(state) + math.sqrt(2.0 * gamma) * np.asarray(noise)
    if not np.all(np.isfinite(out)):
        raise DivergenceError("euler step produced a non-finite state", step=None)
    return out


def _spectral_norms(y: np.ndarray) -> np.ndarray:
    """Largest singular value of each (d, d) slice."""
    return np.linalg.svd(y, compute_uv=False)[..., 0]


def _hess_apply(pot: Potential, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Hessian at x applied to each column of y; x is (M, d), y is (M, d, d)."""
    cols = [pot.hess_vec(x, y[..., j]) for j in range(y.shape[-1])]
    return np.stack(cols, axis=-1)


def _drive(pot: Potential, cfg: ChainConfig, x0_batch: np.ndarray, seeds: np.ndarray):
    """Batched chain driver; one Philox stream per row of ``x0_batch``.

    Returns (cesaro, final, diverged_step, tangent_logs, moment_logs) with a
    leading batch axis.  Diverged rows freeze to NaN and the survivors keep
    running.
    """
    m, d = x0_batch.shape
    gamma = cfg.gamma
    k_sub = cfg.fine_substeps
    h = gamma / k_sub
    sqrt2h = math.sqrt(2.0 * h)
    n = cfg.n_steps

    gens = [stream(int(s)) for s in seeds]
    x = x0_batch.copy()
    ces = np.zeros((m, d))
    comp = np.zeros((m, d))  # Kahan compensation
    t1, t2, hg, sz = (np.empty((m, d)) for _ in range(4))
    diverged = np.full(m, -1, dtype=int)
    alive = np.ones(m, dtype=bool)

    every = max(1, n // max(1, cfg.checkpoints))
    tangent_logs = [[] for _ in range(m)] if cfg.track_tangent else None
    moment_logs = [[] for _ in range(m)] if cfg.track_moments is not None else None
    if cfg.track_tangent:
        y = np.broadcast_to(np.eye(d), (m, d, d)).copy()
        norms0 = _spectral_norms(y)
        for i in range(m):
            tangent_logs[i].append((0.0, float(norms0[i])))
    if cfg.track_moments is not None:
        a = cfg.track_moments
        msum = np.zeros(m)

    # one noise block of at most 2^22 doubles (32 MiB), filled in place per
    # stream; single chains keep 8192-step blocks
    chunk = max(1, min(8192 // k_sub, n, (1 << 22) // max(1, m * d * k_sub)))
    block = np.empty((m, chunk * k_sub, d))
    step = 0
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is detected, not warned
        while step < n:
            todo = min(chunk, n - step)
            rows = todo * k_sub
            for i, g in enumerate(gens):
                g.standard_normal((rows, d), out=block[i, :rows])
            for j in range(todo):
                # Cesaro includes the current (pre-step) state: indices 0..N-1
                if step >= cfg.burn_in:
                    np.subtract(x, comp, out=t1)
                    np.add(ces, t1, out=t2)
                    np.subtract(t2, ces, out=comp)
                    comp -= t1
                    ces, t2 = t2, ces
                if cfg.track_moments is not None:
                    msum += np.exp(a * (pot.value(x) + pot.offset))
                    if step % every == 0 or step == n - 1:
                        running = msum / (step + 1)
                        t = step * gamma
                        for i in range(m):
                            moment_logs[i].append((t, float(running[i])))
                for s in range(k_sub):
                    if cfg.track_tangent:
                        y = y - h * _hess_apply(pot, x, y)
                    # grad's output may alias x, so it is read, never written
                    np.multiply(pot.grad(x), h, out=hg)
                    np.multiply(block[:, j * k_sub + s], sqrt2h, out=sz)
                    x -= hg
                    x += sz
                # NaN/inf fail the comparison: one whole-array reduction screens
                # the batch, the per-row check runs only when it trips
                if not np.abs(x).max() < _DIVERGE_LIMIT:
                    bad = alive & ~(np.max(np.abs(x), axis=1) < _DIVERGE_LIMIT)
                    if np.any(bad):
                        diverged[bad] = step
                        alive &= ~bad
                        x[bad] = np.nan
                        ces[bad] = np.nan
                if cfg.track_tangent and (step % every == 0 or step == n - 1):
                    norms = _spectral_norms(y)
                    t = (step + 1) * gamma
                    for i in range(m):
                        if alive[i]:
                            tangent_logs[i].append((t, float(norms[i])))
                step += 1
    return ces / (n - cfg.burn_in), x, diverged, tangent_logs, moment_logs


def _check_clamp(pot: Potential, cfg: ChainConfig):
    if cfg.clamp and cfg.gamma > moment_clamp(pot) * (1.0 + 1e-12):
        raise ParameterError(
            f"gamma={cfg.gamma} exceeds the moment clamp 1/(4dL+1)={moment_clamp(pot)}"
        )
    if cfg.x0.shape[-1] != pot.dim:
        raise ParameterError("x0 dimension does not match the potential")


def run_chain(pot: Potential, cfg: ChainConfig) -> ChainRun:
    """Run one chain; raises DivergenceError carrying the partial run."""
    _check_clamp(pot, cfg)
    if not np.all(np.isfinite(pot.grad(cfg.x0))):
        raise ParameterError("potential gradient is not finite at x0")
    ces, final, diverged, tlogs, mlogs = _drive(
        pot, cfg, cfg.x0[None, :], np.array([cfg.seed], dtype=object)
    )
    bad0 = int(diverged[0]) if diverged[0] >= 0 else None
    run = ChainRun(
        cesaro=ces[0],
        final_state=final[0],
        steps_done=cfg.n_steps if bad0 is None else bad0,
        tangent_log=tlogs[0] if tlogs is not None else None,
        moment_log=mlogs[0] if mlogs is not None else None,
        diverged_step=bad0,
    )
    if run.diverged_step is not None:
        raise DivergenceError(
            f"chain diverged at step {run.diverged_step}", payload=run, step=run.diverged_step
        )
    return run


def run_diffusion_fine(pot: Potential, cfg: ChainConfig) -> ChainRun:
    """Reference near-continuous run: advance with step gamma/K, average on
    the coarse grid.  K = 1 reduces exactly to :func:`run_chain`."""
    if cfg.fine_substeps < 1:
        raise ParameterError("fine_substeps must be >= 1")
    return run_chain(pot, cfg)


def dump_trajectory(pot: Potential, cfg: ChainConfig, frames_path, header_path, stride: int = 1):
    """Write every ``stride``-th chain state as little-endian float64 frames.

    The JSON header records {d, gamma, stride, seed} so a dump identifies
    the chain that produced it.  Diagnostics-only; the hot path never dumps.
    """
    import json

    if stride < 1:
        raise ParameterError("stride must be >= 1")
    _check_clamp(pot, cfg)
    rng = stream(cfg.seed)
    x = cfg.x0.copy()
    h = cfg.gamma / cfg.fine_substeps
    sqrt2h = math.sqrt(2.0 * h)
    frames = []
    for k in range(cfg.n_steps):
        if k % stride == 0:
            frames.append(x.copy())
        for _ in range(cfg.fine_substeps):
            x = x - h * pot.grad(x) + sqrt2h * rng.standard_normal(pot.dim)
    data = np.asarray(frames, dtype="<f8")
    with open(frames_path, "wb") as fh:
        fh.write(data.tobytes())
    with open(header_path, "w") as fh:
        json.dump(
            {"d": pot.dim, "gamma": cfg.gamma, "stride": stride, "seed": int(cfg.seed)},
            fh,
            sort_keys=True,
        )
        fh.write("\n")
    return data.shape[0]


def read_trajectory(frames_path, header_path):
    """Read a dump back as ((n_frames, d) array, header dict)."""
    import json

    with open(header_path) as fh:
        header = json.load(fh)
    raw = np.fromfile(frames_path, dtype="<f8")
    return raw.reshape(-1, header["d"]), header


def replicate_runs(
    pot: Potential, cfg: ChainConfig, m: int, base_seed: int, index_offset: int = 0
) -> List[ChainRun]:
    """M independent chains with per-replicate streams mix64(base_seed, i).

    Replicate i is bit-identical to ``run_chain`` with seed
    mix64(base_seed, index_offset + i), so any partition of the index range
    into batches reproduces the same chains.  Diverged replicates are
    returned (cesaro NaN, ``diverged_step`` set) instead of aborting the
    batch.
    """
    if m < 1:
        raise ParameterError("replicate count must be >= 1")
    _check_clamp(pot, cfg)
    seeds = np.array(
        [mix64(base_seed, index_offset + i) for i in range(m)], dtype=object
    )
    x0 = np.broadcast_to(cfg.x0, (m, pot.dim)).copy()
    ces, final, diverged, tlogs, mlogs = _drive(pot, cfg, x0, seeds)
    runs = []
    for i in range(m):
        bad = int(diverged[i]) if diverged[i] >= 0 else None
        runs.append(
            ChainRun(
                cesaro=ces[i],
                final_state=final[i],
                steps_done=cfg.n_steps if bad is None else bad,
                tangent_log=tlogs[i] if tlogs is not None else None,
                moment_log=mlogs[i] if mlogs is not None else None,
                diverged_step=bad,
            )
        )
    return runs
