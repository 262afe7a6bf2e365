"""Per-layer spans around calls into cesaro_lmc, installed from outside.

No package source is edited.  Entry points are rebound in every loaded
``cesaro_lmc`` module that holds them (``from .x import f`` copies the
function into each importer), Potential evaluators are swapped through
``dataclasses.replace`` on the objects the factories return, and the
generators handed out by ``rng.stream`` are proxied.  Every wrapper
returns exactly what the wrapped call returned, so a traced run computes
the same bits as an untraced one.

A span is (name, start, end, parent, n): ``n`` counts the work inside it
(rows for evaluators, variates for the generators, replicate-steps for the
chains).  Spans stay in memory until :meth:`Recorder.write`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict

import numpy as np

# (module, function) -> span name; the span's layer is the part before the dot
ENTRY_POINTS = {
    ("rng", "stream"): "rng.stream",
    ("sampler", "run_chain"): "sampler.run_chain",
    ("sampler", "replicate_runs"): "sampler.replicate_runs",
    ("sampler", "dump_trajectory"): "sampler.dump_trajectory",
    ("sampler", "read_trajectory"): "sampler.read_trajectory",
    ("diagnostics", "mse_experiment"): "diagnostics.mse_experiment",
    ("diagnostics", "moment_check"): "diagnostics.moment_check",
    ("bayes", "sample_dataset"): "bayes.sample_dataset",
    ("bayes", "build_posterior"): "bayes.build_posterior",
    ("oracle", "quadrature_posterior_mean"): "oracle.quadrature",
    ("tuning", "tune_sc"): "tuning.tune_sc",
    ("tuning", "tune_weak"): "tuning.tune_weak",
    ("tuning", "tune_bayes"): "tuning.tune_bayes",
    ("tuning", "compute_upsilon"): "tuning.compute_upsilon",
    ("cli", "main"): "cli.main",
}
POTENTIAL_FACTORIES = ("builtin_gaussian_location", "builtin_p_power", "builtin_logistic")
LAYERS = ("rng", "potentials", "bayes", "tuning", "sampler", "diagnostics", "oracle", "cli")


def package_modules():
    return [m for name, m in sys.modules.items() if name.split(".")[0] == "cesaro_lmc"]


def rebind(old, new, skip=()):
    """Replace every module-level reference to ``old`` in the package."""
    for mod in package_modules():
        if mod.__name__ in skip:
            continue
        for name, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, name, new)


def module(name):
    return sys.modules["cesaro_lmc." + name]


def _rows(args, kwargs, out):
    return math.prod(np.shape(args[0])[:-1])


def chain_steps(args, kwargs, out):
    """Replicate-steps a chain-level call completed."""
    if isinstance(out, list):  # replicate_runs
        return sum(r.steps_done for r in out)
    if hasattr(out, "steps_done"):  # run_chain
        return out.steps_done
    return args[1].n_steps  # dump_trajectory, moment_check


def _chain_label(args):
    m = args[2] if len(args) > 2 and isinstance(args[2], int) else 1
    return args[0].name, m


CHAIN_SPANS = ("sampler.run_chain", "sampler.replicate_runs", "sampler.dump_trajectory",
               "diagnostics.moment_check")
COUNTERS = {name: chain_steps for name in CHAIN_SPANS}
COUNTERS["rng.stream"] = lambda a, k, out: 1


class Recorder:
    """Span store: parallel arrays indexed by span id, ids in start order."""

    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.n = array("q")
        self.stack = []
        self.labels = {}  # span id -> potential and batch size of chain spans
        self.diverged = 0
        self.on = True

    def wrap(self, name, fn, count=None, label=None):
        names, start, end, parent, n, stack = (
            self.names, self.start, self.end, self.parent, self.n, self.stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            n.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                n[idx] = count(args, kwargs, out)
            if label is not None:
                self.labels[idx] = label(args)
            return out

        return wrapper

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\tn\n")
            for i, name in enumerate(self.names):
                fh.write(f"{name}\t{self.start[i]!r}\t{self.end[i]!r}\t{self.parent[i]}\t{self.n[i]}\n")


class _TimedGenerator:
    """Proxy for a numpy Generator that times every method call."""

    __slots__ = ("_gen", "_rec", "_methods")

    def __init__(self, gen, rec):
        self._gen = gen
        self._rec = rec
        self._methods = {}

    def __getattr__(self, attr):
        if attr in self._methods:
            return self._methods[attr]
        val = getattr(self._gen, attr)
        if callable(val):
            val = self._rec.wrap("rng." + attr, val, _variates)
            self._methods[attr] = val
        return val


def _variates(args, kwargs, out):
    return getattr(out, "size", 1)


def _wrap_potential(rec, pot, layer):
    return dataclasses.replace(
        pot,
        value=rec.wrap(layer + ".value", pot.value, _rows),
        grad=rec.wrap(layer + ".grad", pot.grad, _rows),
        hess_vec=rec.wrap(layer + ".hess_vec", pot.hess_vec, _rows),
    )


def install(rec):
    """Rebind the package's entry points and evaluators to record into ``rec``."""
    adapters = {
        "rng.stream": lambda f: lambda seed: _TimedGenerator(f(seed), rec),
        "sampler.run_chain": lambda f: _counting_divergence(rec, f),
        "sampler.replicate_runs": lambda f: _counting_divergence(rec, f),
        "bayes.build_posterior": lambda f: _wrapping_posterior(rec, f),
    }
    for (mod, fname), span in ENTRY_POINTS.items():
        orig = getattr(module(mod), fname)
        fn = adapters[span](orig) if span in adapters else orig
        label = _chain_label if span in CHAIN_SPANS else None
        rebind(orig, rec.wrap(span, fn, COUNTERS.get(span), label))
    for fname in POTENTIAL_FACTORIES:
        factory = getattr(module("potentials"), fname)
        wrapped = functools.wraps(factory)(
            lambda *a, _f=factory, **k: _wrap_potential(rec, _f(*a, **k), "potentials")
        )
        # the posterior's inner logistic sum is timed as bayes.*, not twice
        rebind(factory, wrapped, skip=("cesaro_lmc.bayes",))


def _wrapping_posterior(rec, build):
    """Time the built posterior's evaluators as the bayes layer."""

    def fn(*args, **kwargs):
        post = build(*args, **kwargs)
        return dataclasses.replace(post, potential=_wrap_potential(rec, post.potential, "bayes"))

    return fn


def _counting_divergence(rec, chain_fn):
    """Add the replicates a sampler call lost to divergence to ``rec.diverged``."""
    errors = module("errors")

    def fn(*args, **kwargs):
        try:
            out = chain_fn(*args, **kwargs)
        except errors.DivergenceError:  # run_chain raises on its single chain
            rec.diverged += 1
            raise
        if isinstance(out, list):  # replicate_runs returns diverged rows
            rec.diverged += sum(r.diverged_step is not None for r in out)
        return out

    return fn


def install_alloc(peaks):
    """Record the tracemalloc peak (MiB above the entry level) of each batched
    sampler call and of the quadrature oracle into ``peaks``.

    Single chains (``run_chain``, ``dump_trajectory``) hold O(d) arrays, and
    tracemalloc would slow their per-step Python several times over, so they
    are not measured.
    """
    targets = {
        ("sampler", "replicate_runs"): "sampler",
        ("oracle", "quadrature_posterior_mean"): "oracle.quadrature",
    }
    for (mod, fname), key in targets.items():
        fn = getattr(module(mod), fname)

        def wrapper(*args, _f=fn, _key=key, **kwargs):
            if tracemalloc.is_tracing():
                return _f(*args, **kwargs)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                return _f(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                peaks[_key] = max(peaks.get(_key, 0.0), (peak - base) / 2**20)

        rebind(fn, functools.wraps(fn)(wrapper))


def summarize(rec):
    """Per-layer metrics from the recorded spans (see perfbench/METRICS.md)."""
    names, start, end, parent, n = rec.names, rec.start, rec.end, rec.parent, rec.n
    count = len(names)
    dur = [end[i] - start[i] for i in range(count)]
    child = [0.0] * count
    bit = {layer: 1 << k for k, layer in enumerate(LAYERS)}
    open_mask = [0] * count  # layers of the span's ancestors
    in_chain = [False] * count  # a chain-level span is open around the span
    by_name = defaultdict(lambda: [0, 0, 0.0, 0.0])  # calls, n, busy, self
    layer_busy = defaultdict(float)
    layer_self = defaultdict(float)
    for i in range(count):
        p = parent[i]
        if p >= 0:
            open_mask[i] = open_mask[p] | bit[names[p].split(".")[0]]
            in_chain[i] = in_chain[p] or names[p] in CHAIN_SPANS
    # rng spans outside a chain (the bootstrap, dataset sampling) are not
    # chain noise: they are dropped and their time stays with the caller
    keep = [in_chain[i] or not names[i].startswith("rng.") for i in range(count)]
    for i in range(count):
        if keep[i] and parent[i] >= 0:
            child[parent[i]] += dur[i]
    for i in range(count):
        if not keep[i]:
            continue
        layer = names[i].split(".")[0]
        self_t = dur[i] - child[i]
        agg = by_name[names[i]]
        agg[0] += 1
        agg[1] += n[i]
        agg[2] += dur[i]
        agg[3] += self_t
        layer_self[layer] += self_t
        if not open_mask[i] & bit[layer]:
            layer_busy[layer] += dur[i]

    def fn(name, k):
        return by_name[name][k] if name in by_name else 0

    def per(num, den, scale):
        return num * scale / den if den else 0.0

    draws = sum(v[1] for k, v in by_name.items() if k.startswith("rng.") and k != "rng.stream")
    sampler = [v for k, v in by_name.items() if k.startswith("sampler.")]
    steps = sum(v[1] for v in sampler)
    mc_steps = fn("diagnostics.moment_check", 1)
    return {
        "rng.streams": fn("rng.stream", 0),
        "rng.draws": draws,
        "rng.busy_s": layer_busy["rng"],
        "rng.ns_per_draw": per(layer_busy["rng"], draws, 1e9),
        "sampler.calls": sum(v[0] for v in sampler),
        "sampler.steps": steps,
        "sampler.diverged": rec.diverged,
        "sampler.busy_s": layer_busy["sampler"],
        "sampler.self_s": layer_self["sampler"],
        "sampler.self_us_per_step": per(layer_self["sampler"], steps, 1e6),
        "potentials.grad.calls": fn("potentials.grad", 0),
        "potentials.grad.rows": fn("potentials.grad", 1),
        "potentials.grad.busy_s": fn("potentials.grad", 2),
        "potentials.grad.ns_per_row": per(fn("potentials.grad", 2), fn("potentials.grad", 1), 1e9),
        "potentials.value.calls": fn("potentials.value", 0),
        "potentials.value.busy_s": fn("potentials.value", 2),
        "potentials.hess_vec.calls": fn("potentials.hess_vec", 0),
        "potentials.hess_vec.busy_s": fn("potentials.hess_vec", 2),
        "bayes.grad.calls": fn("bayes.grad", 0),
        "bayes.grad.rows": fn("bayes.grad", 1),
        "bayes.grad.busy_s": fn("bayes.grad", 2),
        "bayes.grad.ns_per_row": per(fn("bayes.grad", 2), fn("bayes.grad", 1), 1e9),
        "bayes.value.rows": fn("bayes.value", 1),
        "bayes.value.busy_s": fn("bayes.value", 2),
        "bayes.sample_dataset.busy_s": fn("bayes.sample_dataset", 2),
        "bayes.build_posterior.busy_s": fn("bayes.build_posterior", 2),
        "oracle.quadrature.busy_s": fn("oracle.quadrature", 2),
        "tuning.busy_s": layer_busy["tuning"],
        "diagnostics.mse_experiment.self_s": fn("diagnostics.mse_experiment", 3),
        "diagnostics.moment_check.busy_s": fn("diagnostics.moment_check", 2),
        "diagnostics.moment_check.self_us_per_step": per(
            fn("diagnostics.moment_check", 3), mc_steps, 1e6
        ),
        "cli.busy_s": layer_busy["cli"],
        "cli.self_s": layer_self["cli"],
    }


def shapes(rec):
    """Wall microseconds per replicate-step of each chain-level span."""
    return [
        {"span": rec.names[i], "potential": pot, "m": m, "steps": rec.n[i],
         "us_per_step": (rec.end[i] - rec.start[i]) * 1e6 / rec.n[i]}
        for i, (pot, m) in rec.labels.items() if rec.n[i]
    ]
