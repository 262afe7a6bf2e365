"""Constant-step Euler chains with Cesaro averaging.

The chain is

    X_{t_{k+1}} = X_{t_k} - gamma * grad W(X_{t_k}) + sqrt(2 gamma) * zeta_{k+1}

with i.i.d. standard Gaussian increments, and the estimator is the plain
average of the first N states, x0 included (indices j = 0..N-1), held in a
Kahan-compensated accumulator.

``_drive`` is the only code that advances a chain.  A single chain is
strictly sequential; replicates run through the same batched driver, one
Philox stream per replicate, so results are bit-identical to running each
chain alone and independent of how replicates are partitioned.

The driver fills one preallocated (replicates, steps, d) noise block in
place, stream by stream, at most 2^22 doubles, and scales it by
sqrt(2 gamma/K) in one pass; the Philox stream does not depend on how draws
are chunked, so block size never moves a bit.  The Euler and Kahan updates
write into fixed buffers, in the same IEEE operation order as the plain
expressions.  Divergence (a coordinate at
least 1e12 in magnitude, NaN or inf) is screened by one reduction over the
whole batch per step; the per-replicate check runs only when it trips.  A
diverged replicate restarts from its x0 inside the driver, so it does not
trip the screen on every later step; every output shows it as NaN.

A potential with a ``kernel`` field (the built-in Gaussian, the logistic
potentials, and the Gaussian-location and logistic posteriors) is stepped
instead by the compiled loop of ``_kernel.c`` (built on first use), with
the gradient code its compiled evaluators run and the same IEEE
operations in the same order as this driver, with normals drawn by
numpy's own ``random_standard_normal`` on the replicate's Philox
generator.  It needs no noise block and gives
the same bits as this driver stepping the same potential without its
kernel field.  ``_kernel.Kernel.step`` splits a large batch into
contiguous replicate ranges and steps them on threads, at most one per CPU
of the process's affinity mask (there is no setting); each replicate owns
its stream and its rows, so the split moves no bit.  When the loop
cannot be built, Gaussian chains run here instead (the logistic family
cannot be built at all then).  The path is chosen from the kernel field,
never from the identity of ``pot.grad``; every other potential uses this
driver.

Diagnostics observe the chain rather than step a copy of it.  An observer
is a callable ``ob(k0, states, diverged)`` that the driver calls once per
noise block: ``states`` is (replicates, rows, d), the state before each
fine substep of the block's coarse steps k0, k0 + 1, ... (so
``states[:, ::K]`` are the coarse states), and ``diverged`` holds each
replicate's divergence step so far (-1 while alive).  A diverged
replicate's states are NaN from the step after its divergence on.  The
buffer is reused, so observers copy what they keep.  The tangent trace
(first-variation matrix Y, co-integrated by explicit Euler with the
Hessian at each pre-substep state), ``dump_trajectory`` and
``diagnostics.moment_check`` are observers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import DivergenceError, ParameterError
from .potentials import Potential, hess_columns
from .rng import mix64, stream
from .tuning import sc_gamma_clamp

_DIVERGE_LIMIT = 1e12


def moment_clamp(pot: Potential) -> float:
    """Step-size ceiling 1/(4 d L + 1) under which moment bounds hold."""
    return sc_gamma_clamp(pot.dim, pot.smoothness.L)


@dataclass(frozen=True)
class ChainConfig:
    """Parameters of one Euler chain.

    The Cesaro estimate is the plain average of all ``n_steps`` states
    from ``x0`` on, x0 included; no prefix is discarded.
    ``fine_substeps`` = K advances the dynamics with step gamma/K between
    the coarse Cesaro grid points; ``checkpoints`` spaces the tangent
    trace's log.
    """

    gamma: float
    n_steps: int
    x0: np.ndarray
    seed: int
    track_tangent: bool = False
    fine_substeps: int = 1
    checkpoints: int = 200

    def __post_init__(self):
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))
        if not self.gamma > 0:
            raise ParameterError(f"gamma must be positive, got {self.gamma}")
        if self.n_steps < 1:
            raise ParameterError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.fine_substeps < 1:
            raise ParameterError("fine_substeps must be >= 1")


@dataclass(frozen=True)
class ChainRun:
    """Outputs of one chain: the Cesaro estimate and the optional tangent trace."""

    cesaro: np.ndarray
    final_state: np.ndarray
    steps_done: int
    tangent_log: Optional[List[tuple]] = None
    diverged_step: Optional[int] = None


def _spectral_norms(y: np.ndarray) -> np.ndarray:
    """Largest singular value of each (d, d) slice."""
    return np.linalg.svd(y, compute_uv=False)[..., 0]


def _drive(pot: Potential, cfg: ChainConfig, x0_batch: np.ndarray, seeds, observers=()):
    """Batched chain driver; one Philox stream per row of ``x0_batch``.

    Returns (cesaro, final, diverged_step) with a leading batch axis and
    calls each observer once per noise block (see the module docstring).
    Diverged rows are NaN in every output and the survivors keep running.
    A potential with a ``kernel`` field is stepped by the compiled loop when
    it loads, else by numpy; both give the same bits.
    """
    m, d = x0_batch.shape
    k_sub = cfg.fine_substeps
    h = cfg.gamma / k_sub
    sqrt2h = math.sqrt(2.0 * h)
    n = cfg.n_steps

    gens = [stream(int(s)) for s in seeds]
    x = x0_batch.copy()
    ces = np.zeros((m, d))
    comp = np.zeros((m, d))  # Kahan compensation
    diverged = np.full(m, -1, dtype=np.int64)

    # one noise block of at most 2^22 doubles (32 MiB), filled in place per
    # stream; single chains keep 8192-step blocks
    chunk = max(1, min(8192 // k_sub, n, (1 << 22) // max(1, m * d * k_sub)))
    kern = None
    if pot.kernel is not None:
        from . import _kernel  # at the first compiled chain, not at package import

        lib = _kernel.load()
        if lib is not None:
            kern = _kernel.Kernel(lib, pot.kernel, d)
    if kern is not None:
        bitgens = _kernel.bitgens(gens)
        if not observers:
            chunk = n  # the compiled loop needs no noise block
    else:
        block = np.empty((m, chunk * k_sub, d))
        t1, t2, hg = (np.empty((m, d)) for _ in range(3))
    states = np.empty((m, chunk * k_sub, d)) if observers else None
    step = 0
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is detected, not warned
        while step < n:
            todo = min(chunk, n - step)
            rows = todo * k_sub
            if kern is not None:
                kern.step(bitgens, h, sqrt2h, k_sub, step, todo, x, ces, comp, diverged, states)
            else:
                for i, g in enumerate(gens):
                    g.standard_normal((rows, d), out=block[i, :rows])
                block[:, :rows] *= sqrt2h
                for j in range(todo):
                    k = step + j
                    # Cesaro includes the current (pre-step) state: indices 0..N-1
                    np.subtract(x, comp, out=t1)
                    np.add(ces, t1, out=t2)
                    np.subtract(t2, ces, out=comp)
                    comp -= t1
                    ces, t2 = t2, ces
                    for r in range(j * k_sub, (j + 1) * k_sub):
                        if states is not None:
                            states[:, r] = x
                        # grad's output may alias x, so it is read, never written
                        np.multiply(pot.grad(x), h, out=hg)
                        x -= hg
                        x += block[:, r]
                    # NaN/inf fail the comparison: one whole-array reduction screens
                    # the batch, the per-row check runs only when it trips
                    if not np.abs(x).max() < _DIVERGE_LIMIT:
                        bad = (diverged < 0) & ~(np.max(np.abs(x), axis=1) < _DIVERGE_LIMIT)
                        diverged[bad] = k
                        ces[bad] = np.nan
                        # dead rows restart from x0 so they do not trip the screen
                        # on every later step; outputs show them as NaN
                        x[diverged >= 0] = x0_batch[diverged >= 0]
            if observers:
                _mask_dead(states[:, :rows], diverged, step, k_sub)
                for ob in observers:
                    ob(step, states[:, :rows], diverged)
            step += todo
    x[diverged >= 0] = np.nan
    return ces / n, x, diverged


def _mask_dead(states, diverged, k0, k_sub):
    """NaN the states of each diverged replicate from the coarse step after
    its divergence on (``states`` holds the block starting at step k0)."""
    dead = np.flatnonzero(diverged >= 0)
    if dead.size:
        first = (diverged[dead] + 1 - k0) * k_sub  # first NaN row of the block
        late = np.arange(states.shape[1]) >= first[:, None]
        states[dead] = np.where(late[..., None], np.nan, states[dead])


class _TangentTrace:
    """Observer: the first variation Y, stepped y -= h H(x) y at each
    pre-substep state, its spectral norm logged at the coarse checkpoints
    of the replicates still alive there."""

    def __init__(self, pot: Potential, cfg: ChainConfig, m: int):
        self.pot, self.cfg = pot, cfg
        self.h = cfg.gamma / cfg.fine_substeps
        self.every = max(1, cfg.n_steps // max(1, cfg.checkpoints))
        self.y = np.broadcast_to(np.eye(pot.dim), (m, pot.dim, pot.dim)).copy()
        self.logs = [[(0.0, float(v))] for v in _spectral_norms(self.y)]

    def __call__(self, k0, states, diverged):
        k_sub, n = self.cfg.fine_substeps, self.cfg.n_steps
        for r in range(states.shape[1]):
            self.y = self.y - self.h * hess_columns(self.pot, states[:, r], self.y)
            k, s = divmod(r, k_sub)
            k += k0
            if s == k_sub - 1 and (k % self.every == 0 or k == n - 1):
                live = np.flatnonzero((diverged < 0) | (diverged > k))
                t = (k + 1) * self.cfg.gamma
                for i, v in zip(live, _spectral_norms(self.y[live])):
                    self.logs[i].append((t, float(v)))


def _check_x0(pot: Potential, cfg: ChainConfig):
    if cfg.x0.shape[-1] != pot.dim:
        raise ParameterError("x0 dimension does not match the potential")


def _runs(pot: Potential, cfg: ChainConfig, x0: np.ndarray, seeds) -> List[ChainRun]:
    """Drive a batch (with the tangent trace if ``cfg`` asks) into ChainRuns."""
    tangent = _TangentTrace(pot, cfg, len(seeds)) if cfg.track_tangent else None
    ces, final, diverged = _drive(pot, cfg, x0, seeds, (tangent,) if tangent else ())
    return [
        ChainRun(
            cesaro=ces[i],
            final_state=final[i],
            steps_done=cfg.n_steps if bad is None else bad,
            tangent_log=tangent.logs[i] if tangent else None,
            diverged_step=bad,
        )
        for i, bad in enumerate(int(k) if k >= 0 else None for k in diverged)
    ]


def _observe_chain(pot: Potential, cfg: ChainConfig, observer):
    """Drive the single chain of ``cfg`` for one diagnostic observer.

    Not :func:`run_chain`, so a diagnostic's time is not also counted as a
    chain run.  Raises DivergenceError when the chain diverges.
    """
    _check_x0(pot, cfg)
    _, _, diverged = _drive(pot, cfg, cfg.x0[None, :], [cfg.seed], (observer,))
    if diverged[0] >= 0:
        raise DivergenceError(f"chain diverged at step {diverged[0]}", step=int(diverged[0]))


def run_chain(pot: Potential, cfg: ChainConfig) -> ChainRun:
    """Run one chain; raises DivergenceError carrying the partial run."""
    _check_x0(pot, cfg)
    if not np.all(np.isfinite(pot.grad(cfg.x0))):
        raise ParameterError("potential gradient is not finite at x0")
    run = _runs(pot, cfg, cfg.x0[None, :], [cfg.seed])[0]
    if run.diverged_step is not None:
        raise DivergenceError(
            f"chain diverged at step {run.diverged_step}", payload=run, step=run.diverged_step
        )
    return run


def dump_trajectory(pot: Potential, cfg: ChainConfig, frames_path, header_path, stride: int = 1):
    """Write every ``stride``-th chain state as little-endian float64 frames.

    The JSON header records {d, gamma, stride, seed} so a dump identifies
    the chain that produced it.  Diagnostics-only; the hot path never dumps.
    A diverging chain raises DivergenceError and writes nothing.
    """
    if stride < 1:
        raise ParameterError("stride must be >= 1")
    frames = []

    def keep(k0, states, diverged):
        coarse = states[0, :: cfg.fine_substeps]
        frames.append(coarse[(k0 + np.arange(coarse.shape[0])) % stride == 0])

    _observe_chain(pot, cfg, keep)
    data = np.concatenate(frames).astype("<f8", copy=False)
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
    _check_x0(pot, cfg)
    seeds = [mix64(base_seed, index_offset + i) for i in range(m)]
    x0 = np.broadcast_to(cfg.x0, (m, pot.dim)).copy()
    return _runs(pot, cfg, x0, seeds)
