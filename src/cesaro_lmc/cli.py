"""Experiment runner: config parsing, subcommands, deterministic artifacts.

One JSON config fully determines a run; a canonical hash of the config
names the output files, so reruns are byte-identical and artifacts are
self-identifying.  All randomness flows from explicit seeds in the config;
there are no defaults for them.

Exit codes: 0 success, 2 config/parameter problem, 3 runtime divergence.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bayes import GaussianLocationModel, LogisticModel, build_posterior, sample_dataset
from .diagnostics import (
    SeparationMap,
    concentration_check,
    fit_line,
    mse_experiment,
    run_test_phi,
)
from .errors import (
    CapabilityError,
    DivergenceError,
    ExperimentError,
    NumericError,
    ParameterError,
)
from .oracle import (
    importance_posterior_mean,
    poisson_solve_1d,
    quadrature_posterior_mean,
)
from .potentials import (
    _vector,
    builtin_gaussian_location,
    builtin_logistic,
    builtin_p_power,
    verify_grad_bounds,
    verify_kl_profile,
)
from .rng import mix64
from .tuning import TuningInputs, tune_bayes, tune_sc, tune_weak

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


class ConfigError(ParameterError):
    pass


def config_hash(cfg: dict) -> str:
    """Canonical hash: key order and whitespace never matter."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _is_number(v) -> bool:
    return type(v) is int or (type(v) is float and math.isfinite(v))  # bool is refused


def _is_numbers(v) -> bool:
    """A JSON number, or a non-empty rectangular (nested) list of numbers."""
    if _is_number(v):
        return True
    return (
        isinstance(v, list)
        and len(v) > 0
        and all(_is_numbers(u) for u in v)
        and len({np.shape(u) for u in v}) == 1
    )


def _is_count(v) -> bool:
    return type(v) is int and v >= 1  # bool and float are refused


def _is(ok, kind: str):
    """A leaf of ``_SCHEMA``: ``ok(value)`` must hold; ``kind`` says what the value must be."""

    def check(where, value):
        if not ok(value):
            raise ConfigError(f"{where} must be {kind}, got {value!r}")

    return check


def _required(check):
    """``check``, on a key that must be present."""
    required = functools.partial(check)
    required.required = True
    return required


def _one_of(*names):
    return _is(lambda v: isinstance(v, str) and v in names, " or ".join(map(repr, names)))


def _flag_or(table):
    """true, false, or an object of options checked against ``table``."""

    def check(where, value):
        if not isinstance(value, (bool, dict)):
            raise ConfigError(f"{where} must be true, false or an object, got {value!r}")
        if isinstance(value, dict):
            _check(where, value, table)

    check.table = table
    return check


_NUMBER = _is(_is_number, "a number")
_NUMBERS = _is(_is_numbers, "a number or an array of numbers")
_NUMBER_LIST = _is(lambda v: isinstance(v, list) and all(map(_is_number, v)), "an array of numbers")
_INTEGER = _is(lambda v: type(v) is int, "an integer")  # bool and float are refused
_COUNT = _is(_is_count, "an integer >= 1")
_POSITIVE = _is(lambda v: _is_number(v) and v > 0, "a positive number")
_STRING = _is(lambda v: isinstance(v, str), "a string")
_SEED = _required(_INTEGER)  # seeds are never defaulted


def _family(families):
    """A model or potential block, checked against its family's table; an
    absent ``params`` is checked as empty, so a missing required param is named."""

    def check(where, block):
        if not isinstance(block, dict):
            raise ConfigError(f"{where} must be an object, got {block!r}")
        _one_of(*families)(f"{where}.family", block.get("family"))
        _check(where, {"params": {}, **block}, families[block["family"]][0])

    return check


def _given(block: dict, *keys) -> dict:
    """The ``keys`` that ``block`` gives, as keyword arguments: a key it leaves out takes
    the default of the function they are passed to."""
    return {k: block[k] for k in keys if k in block}


_MODEL = {"family": _STRING, "d": _COUNT, "theta_star": _NUMBERS, "alpha_c": _NUMBER, "b1": _NUMBER}
_LABELS = _is(lambda v: isinstance(v, list) and len(v) > 0
              and all(_is_number(u) and u in (1, -1) for u in v), "an array of +1/-1 labels")
# family -> (the keys its block may hold, params included; its builder(block), which passes
# the params and the model keys its constructor takes as keyword arguments)
_MODELS = {
    "gaussian_location": (
        {**_MODEL, "C_P": _is(lambda v: v is None, "null (its C_P is 1/precision)"),
         "params": {"precision": _NUMBER}},
        lambda b: GaussianLocationModel(b.get("d", 1), **b.get("params", {}),
                                        **_given(b, "alpha_c", "b1")),
    ),
    "logistic": (
        {**_MODEL, "C_P": _is(lambda v: v is None or _is_number(v), "a number or null"),
         "params": {"design": _required(_NUMBERS), "ridge": _NUMBER}},
        lambda b: LogisticModel(**b["params"], **_given(b, "alpha_c", "b1", "C_P")),
    ),
}
# family -> (its keys; its builder(block))
_POTENTIALS = {
    "gaussian": (
        {"family": _STRING, "d": _COUNT, "params": {"mean": _NUMBERS, "precision": _NUMBER}},
        lambda b: builtin_gaussian_location(b.get("d", 1), **b.get("params", {})),
    ),
    "p_power": (
        {"family": _STRING, "d": _COUNT, "params": {"center": _NUMBERS, "p": _NUMBER}},
        lambda b: builtin_p_power(b.get("d", 1), **b.get("params", {})),
    ),
    "logistic": (
        {"family": _STRING, "d": _COUNT, "params": {
            "features": _required(_NUMBERS), "labels": _required(_LABELS), "ridge": _NUMBER}},
        lambda b: builtin_logistic(**b["params"]),
    ),
}
_FAMILIES = {"model": _MODELS, "potential": _POTENTIALS}

# section -> key -> check; a nested dict checks an object's keys in turn, and
# its keys are the only ones the object may hold
_SCHEMA = {
    "model": _family(_MODELS),
    "potential": _family(_POTENTIALS),
    "prior": {"family": _one_of("standard_gaussian")},
    "data": {
        "n": _COUNT, "seed": _SEED,
        "n_grid": _is(lambda v: isinstance(v, list) and len(v) > 1 and all(map(_is_count, v))
                      and all(a < b for a, b in zip(v, v[1:])),
                      "an ascending array of two or more integers >= 1"),
    },
    "tuning": {
        "regime": _STRING, "eps": _NUMBER, "frak_e": _NUMBER,
        "eps_grid": _is(lambda v: isinstance(v, list) and len(v) > 1 and all(map(_is_number, v)),
                        "an array of two or more numbers"),
        "calib": _NUMBER, "x0_dist": _NUMBER,
        "certified_x0": _is(lambda v: type(v) is bool, "true or false"),
    },
    "run": {"M": _required(_COUNT), "base_seed": _SEED, "output_dir": _STRING},
    "diagnostics": {
        "kl_profile": _flag_or({"n_probes": _COUNT, "radius": _POSITIVE, "seed": _INTEGER}),
        "grad_bounds": _flag_or({"n_probes": _COUNT, "seed": _INTEGER}),
        # the options concentration and test_phi cannot run without are required
        "concentration": {
            "n": _required(_COUNT), "delta_grid": _required(_NUMBER_LIST),
            "M": _required(_COUNT), "seed": _SEED, "statistic": _one_of("psi", "score"),
        },
        "test_phi": {
            "theta_alt": _required(_NUMBERS), "n": _required(_COUNT), "r_n": _required(_POSITIVE),
            "M": _required(_COUNT), "seed": _SEED, "b1": _NUMBER, "b2": _NUMBER, "alpha_c": _NUMBER,
        },
    },
    "oracle": {
        "task": _STRING, "nodes_per_axis": _COUNT, "k_sigma": _NUMBER, "n_nodes": _COUNT,
        "f": _one_of("identity"),
    },
}


def _check(where: str, value, spec) -> None:
    """Check ``value`` against ``spec``: a leaf check, or a table (dict) that
    gives the check of each key an object may hold."""
    if callable(spec):
        return spec(where, value)
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    for key, sub in spec.items():
        if key not in value and getattr(sub, "required", False):
            raise ConfigError(f"{where}.{key} is required")
    for key, val in value.items():
        if key not in spec:
            raise ConfigError(f"unknown key {where}.{key!r}")
        _check(f"{where}.{key}", val, spec[key])


def validate_config(cfg: dict) -> dict:
    """Check ``cfg`` against ``_SCHEMA`` and return it as it is (defaults are
    never filled in: the manifest and the config hash embed the config)."""
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    for key, block in cfg.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config section {key!r}")
        _check(key, block, _SCHEMA[key])
    if "model" in cfg and "potential" in cfg:
        raise ConfigError("give either a model block or a potential block, not both")
    return cfg


def _refuse_constant(name):
    raise ConfigError(f"{name} is not a JSON number")


def load_config(path) -> dict:
    with open(path) as fh:
        return validate_config(json.load(fh, parse_constant=_refuse_constant))


def _build(cfg: dict, section: str):
    """The config's ``section`` block ("model" or "potential"), built by its family.  Its
    ``d``, if given, must be the width its params fix (a logistic design's)."""
    if section not in cfg:
        raise ConfigError(f"no {section} block in the config")
    block = cfg[section]
    built = _FAMILIES[section][block["family"]][1](block)
    d = built.d if section == "model" else built.dim
    if block.get("d", d) != d:
        raise ConfigError(f"{section}.d is {block['d']}, but its params have {d} columns")
    return built


def _reference(pot, base_seed: int):
    """The mean of e^{-W} that ``run`` scores chains against, and its provenance, from the
    first rule that applies: the potential's own ``mean`` ("closed-form"), "quadrature" at
    d <= 3, else "importance-sampling"."""
    if pot.mean is not None:
        return pot.mean, "closed-form"
    if pot.dim <= 3:
        return quadrature_posterior_mean(pot)[0], "quadrature"
    seed = mix64(base_seed, 0x15)  # its own stream, as the bootstrap's
    return importance_posterior_mean(pot, seed)[0], "importance-sampling"


def _theta_star(cfg: dict, model) -> np.ndarray:
    """The model block's theta_star (default 0) as a (d,) vector."""
    return _vector(cfg["model"].get("theta_star", 0.0), model.d, "model.theta_star")


# regime family -> the block it tunes
_TUNES = {"bayes": "model", "sc": "potential", "weak": "potential"}
# block -> the section and key of its grid's one point; the grid is that key + "_grid"
_GRID = {"model": ("data", "n"), "potential": ("tuning", "eps")}


def _tuned(cfg: dict):
    """The block the tuning regime tunes, built: a ``bayes-*`` regime tunes a model, an
    ``sc-*`` or ``weak-*`` regime a potential, and any other pairing is refused.  The
    config's own block is built first, so that its errors come first."""
    have = "model" if "model" in cfg else "potential"
    subject = _build(cfg, have) if have in cfg else None
    regime = cfg.get("tuning", {}).get("regime")
    if regime is None:
        raise ConfigError("tuning.regime is required")
    section = _TUNES.get(regime.partition("-")[0])
    if section is None:
        raise ConfigError(f"unknown tuning regime {regime!r}")
    if section != have or subject is None:
        raise ConfigError(f"tuning.regime {regime!r} tunes a {section} block, "
                          "which the config does not have")
    return subject


def _plans(cfg: dict):
    """The tuned block, its grid's key, and each grid point with its (gamma, N) plan, all
    from the config alone, before any dataset is sampled.  A model's grid is
    ``data.n_grid`` (default ``[data.n]``): a ``bayes-*`` regime tunes its per-observation
    constants at each n.  A potential's is ``tuning.eps_grid`` (default ``[tuning.eps]``,
    else ``[1.0]``): ``sc-*`` and ``weak-*`` tune it at each eps.  The other block's grid
    or point key, or a point key beside its grid key, is refused.  A tuning option the
    config leaves out takes the library's default."""
    subject = _tuned(cfg)
    tb = cfg["tuning"]
    family, _, variant = tb["regime"].partition("-")
    block = _TUNES[family]
    for other, (section, key) in _GRID.items():
        for name, what in ((f"{key}_grid", "grid"), (key, "point")):
            if other != block and name in cfg.get(section, {}):
                raise ConfigError(f"{section}.{name} is a {what} of a {other} block, "
                                  f"and the config has a {block} block")
    section, key = _GRID[block]
    given = cfg.get(section, {})
    if key in given and f"{key}_grid" in given:
        raise ConfigError(f"give {section}.{key} or {section}.{key}_grid, not both")
    if block == "model" and not {key, f"{key}_grid"} & given.keys():
        raise ConfigError("a bayes-* tuning needs data.n")
    grid = given.get(f"{key}_grid", [given.get(key, 1.0)])
    opts = {k: float(v) for k, v in _given(tb, "frak_e", "x0_dist", "calib").items()}
    if family == "bayes":
        # tune_bayes takes its target, eps_n, from n: the eps field is not read
        inputs = TuningInputs(subject.per_obs_profile, subject.per_obs_L, subject.d, 1.0, **opts)
        plans = [tune_bayes(inputs, n, subject.alpha_c, variant, subject.C_P,
                            **_given(tb, "certified_x0")) for n in grid]
    else:
        grid, s = [float(v) for v in grid], subject.smoothness
        tune = tune_sc if family == "sc" else tune_weak
        plans = [tune(TuningInputs(subject.profile, s.L, subject.dim, eps, L_tilde=s.L_tilde,
                                   lap_grad_sup=s.lap_grad_sup, rho_lap=s.rho_lap, **opts), variant)
                 for eps in grid]
    return subject, key, list(zip(grid, plans))


def _plan_to_json(plan) -> dict:
    """The plan's fields and horizon, an infinite constant written "inf"."""

    def clean(v):
        if isinstance(v, float) and math.isinf(v):
            return "inf"
        if isinstance(v, (list, tuple)):
            return [clean(u) for u in v]
        return v

    return {**dataclasses.asdict(plan), "t_horizon": plan.t_horizon,
            "constants": {k: clean(v) for k, v in plan.constants.items()}}


def cmd_tune(cfg: dict, out=None) -> int:
    """Print the plan of a one-point config, or the list of a grid's plans."""
    out = out or sys.stdout
    plans = [_plan_to_json(plan) for _, plan in _plans(cfg)[2]]
    json.dump(plans if len(plans) > 1 else plans[0], out, indent=2, sort_keys=True)
    out.write("\n")
    return EXIT_OK


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write_artifacts(outdir: Path, h: str, cfg: dict, header, rows, summary: dict) -> Path:
    """Write the run's ``-report.csv``, ``-summary.json`` (``summary`` with the config hash
    and the package version) and ``-manifest.json``; returns the report's path."""
    csv_path = outdir / f"{h}-report.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    summary = {**summary, "config_hash": h, "version": __version__}
    for name, record in (("summary", summary), ("manifest", {"config": cfg, "config_hash": h})):
        with open(outdir / f"{h}-{name}.json", "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return csv_path


def cmd_run(cfg: dict, output_dir=None, out=None) -> int:
    """Plan every grid point, then at each: a model's dataset of that n, drawn with
    ``data.seed``; the reference; M chains.  A one-point grid writes one row per
    replicate, a longer grid one row per point."""
    out = out or sys.stdout
    run_block = cfg.get("run")
    if run_block is None:
        raise ConfigError("run block is required for the run command")
    subject, key, points = _plans(cfg)
    base_seed = run_block["base_seed"]
    theta = _theta_star(cfg, subject) if "model" in cfg else None
    outdir = Path(output_dir or run_block.get("output_dir", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    h = config_hash(cfg)

    reports, reference = [], None
    for value, plan in points:
        pot = subject
        if theta is not None:
            data = sample_dataset(subject, theta, value, cfg["data"]["seed"])
            pot = build_posterior(subject, data).potential
        if theta is not None or reference is None:  # one reference serves a potential's grid
            reference = _reference(pot, base_seed)
        reports.append(mse_experiment(pot, plan, run_block["M"], reference[0], base_seed,
                                      reference_provenance=reference[1]))

    if len(points) == 1:
        (_, plan), (report,) = points[0], reports
        rows = (
            [i] + [_fmt(v) for v in row] + [_fmt(float(np.sum((row - report.reference) ** 2)))]
            for i, row in enumerate(report.estimates)
        )
        summary = {"mse": report.mse, "ci95": list(report.ci),
                   "reference": [float(v) for v in np.atleast_1d(report.reference)],
                   "reference_provenance": report.reference_provenance,
                   "plan": _plan_to_json(plan), "n_diverged": report.n_diverged}
        header = ["replicate"] + [f"estimate_{j}" for j in range(pot.dim)] + ["squared_error"]
        line = f"mse={report.mse:.6g}"
    else:
        # a bayes plan's target accuracy is its eps_n
        ratios = [r.mse / p.constants.get("eps_n", v) ** 2 for (v, p), r in zip(points, reports)]
        rows = [[_fmt(v), _fmt(p.gamma), p.n_steps, _fmt(r.mse), _fmt(q)]
                for (v, p), r, q in zip(points, reports, ratios)]
        summary = {"experiment": f"{key}_scaling", f"{key}_grid": [v for v, _ in points],
                   "mse_over_eps_sq": ratios, "spread": max(ratios) / min(ratios)}
        header = [key, "gamma", "n_steps", "mse", "mse_over_eps_sq"]
        line = f"spread={summary['spread']:.3f}"
        if theta is not None:  # the chains' error against theta_star, and its rate in n
            errs = [float(np.mean(np.sum((r.estimates - theta) ** 2, axis=1))) for r in reports]
            rows = [row + [_fmt(e)] for row, e in zip(rows, errs)]
            fit = fit_line(np.log([v for v, _ in points]), np.log(errs))
            summary.update(slope=fit.slope, r2=fit.r2)
            header.append("mse_theta_star")
            line += f" slope={fit.slope:.4f} r2={fit.r2:.4f}"
    csv_path = _write_artifacts(outdir, h, cfg, header, rows, summary)
    out.write(f"{h}: {line} -> {csv_path}\n")
    return EXIT_OK


def _verified(verify, pot, _theta, opts):
    """A potential check whose config options are its keyword arguments."""
    rep = verify(pot, **opts)
    return rep.passed, rep.worst


def _concentration(model, theta, opts):
    rows = concentration_check(model, theta, opts["n"], [float(x) for x in opts["delta_grid"]],
                               opts["M"], opts["seed"], **_given(opts, "statistic"))
    return all(r.passed for r in rows), [(r.delta, r.frequency, r.bound) for r in rows]


def _test_phi(model, theta, opts):
    c_map = SeparationMap(**{"b1": model.b1, "alpha_c": model.alpha_c,
                             **_given(opts, "b1", "b2", "alpha_c")})
    alt = _vector(opts["theta_alt"], model.d, "diagnostics.test_phi.theta_alt")
    rep = run_test_phi(model, theta, alt, opts["n"], float(opts["r_n"]), c_map, opts["M"],
                       opts["seed"])
    return rep.passed, {"type1": rep.type1_frequency, "type2": rep.type2_frequency,
                        "bound": rep.bound}


# (diagnostics key, the block the check runs on, the check)
_CHECKS = (
    ("kl_profile", "potential", functools.partial(_verified, verify_kl_profile)),
    ("grad_bounds", "potential", functools.partial(_verified, verify_grad_bounds)),
    ("concentration", "model", _concentration),
    ("test_phi", "model", _test_phi),
)


def cmd_verify(cfg: dict, strict: bool = False, out=None) -> int:
    """Run the requested checks.  A check is SKIPPED when its block is missing
    or it raises CapabilityError (it does not apply); other errors propagate."""
    out = out or sys.stdout
    subjects = {section: _build(cfg, section) for section in _FAMILIES if section in cfg}
    theta = _theta_star(cfg, subjects["model"]) if "model" in subjects else None
    lines, failed = [], False
    for name, block, check in _CHECKS:
        opts = cfg.get("diagnostics", {}).get(name)
        if opts is None or opts is False:  # an empty options object runs the defaults
            continue
        try:
            if block not in subjects:
                raise CapabilityError(f"no {block} block in the config")
            passed, detail = check(subjects[block], theta, opts if isinstance(opts, dict) else {})
            lines.append(f"{name}: {'PASS' if passed else 'FAIL'} {detail}\n")
            failed = failed or not passed
        except CapabilityError as exc:
            lines.append(f"{name}: SKIPPED ({exc})\n")
            failed = failed or strict
    out.write("".join(lines) or "no checks requested\n")
    return EXIT_DIVERGED if failed else EXIT_OK


def cmd_oracle(cfg: dict, out=None) -> int:
    out = out or sys.stdout
    ob = cfg.get("oracle", {})
    task = ob.get("task")
    pot = _build(cfg, "potential")
    if task == "quadrature":
        nodes = ob.get("nodes_per_axis", 161)
        mean, err = quadrature_posterior_mean(pot, nodes_per_axis=nodes, **_given(ob, "k_sigma"))
        record = ("posterior_mean", [float(v) for v in mean], err, "laplace-trapezoid",
                  {"nodes_per_axis": nodes})
    elif task == "poisson":
        n_nodes = ob.get("n_nodes", 20001)
        sol = poisson_solve_1d(pot, lambda x: x, n_nodes=n_nodes)
        record = ("poisson_solution", {"pi_f": sol.pi_f, "residual_sup": sol.residual_sup},
                  sol.residual_sup, "integrating-factor", {"n_nodes": n_nodes})
    else:
        raise ConfigError(f"unknown oracle task {task!r}")
    record = dict(zip(("target", "value", "error_estimate", "method", "settings"), record))
    json.dump(record, out, indent=2, sort_keys=True)
    out.write("\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cesaro-lmc",
        description="Posterior means by constant-step Langevin chains with Cesaro averaging",
    )
    parser.add_argument("command", choices=["tune", "run", "verify", "oracle"])
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--output", default=None, help="output directory (run command)")
    parser.add_argument("--strict", action="store_true", help="skipped checks count as failures")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.command == "tune":
            return cmd_tune(cfg)
        if args.command == "run":
            return cmd_run(cfg, output_dir=args.output)
        if args.command == "verify":
            return cmd_verify(cfg, strict=args.strict)
        return cmd_oracle(cfg)
    except (ConfigError, ParameterError, CapabilityError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DivergenceError, ExperimentError, NumericError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
