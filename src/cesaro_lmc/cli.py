"""Experiment runner: config parsing, subcommands, deterministic artifacts.

One JSON config fully determines a run; a canonical hash of the config
names the output files, so reruns are byte-identical and artifacts are
self-identifying.  All randomness flows from explicit seeds in the config;
there are no defaults for them.

Exit codes: 0 success, 2 config/parameter problem, 3 runtime divergence.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, oracle
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
from .sampler import check_steps
from .tuning import tune_bayes, tune_sc, tune_weak

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


class ConfigError(ParameterError):
    pass


def config_hash(cfg: dict) -> str:
    """Canonical hash: key order and whitespace never matter."""
    import hashlib  # here, not at import: only run names its artifacts by the hash
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _is_number(v) -> bool:
    if type(v) is int:  # bool is refused, and so is an integer beyond the float range
        return abs(v) <= sys.float_info.max
    return type(v) is float and math.isfinite(v)


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


def _is_positive(v) -> bool:
    return _is_number(v) and v > 0


def _is_length(v) -> bool:  # a probe radius or a deviation: 1e154^2 is still a finite double
    return _is_positive(v) and v < 1e154


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
_INTEGER = _is(lambda v: type(v) is int, "an integer")  # bool and float are refused
_COUNT = _is(_is_count, "an integer >= 1")
_POSITIVE = _is(_is_positive, "a positive number")
_LENGTH = _is(_is_length, "a positive number below 1e154")
_LENGTHS = _is(lambda v: isinstance(v, list) and len(v) > 0 and all(map(_is_length, v)),
               "an array of one or more positive numbers below 1e154")
_STRING = _is(lambda v: isinstance(v, str), "a string")
_SEED = _required(_INTEGER)  # seeds are never defaulted


def _keyed(key, rows):
    """A block checked against the table of the row (table, payload) its ``key`` names; an
    absent ``params`` is checked as empty, so a missing required param is named."""

    def check(where, block):
        if not isinstance(block, dict):
            raise ConfigError(f"{where} must be an object, got {block!r}")
        _one_of(*rows)(f"{where}.{key}", block.get(key))
        table = rows[block[key]][0]
        _check(where, {"params": {}, **block} if "params" in table else block, table)

    check.rows = rows
    return check


def _given(block: dict, *keys) -> dict:
    """The ``keys`` that ``block`` gives, as keyword arguments: a key it leaves out takes
    the default of the function they are passed to."""
    return {k: block[k] for k in keys if k in block}


_MODEL = {"family": _STRING, "d": _COUNT, "theta_star": _NUMBERS, "alpha_c": _NUMBER,
          "b1": _POSITIVE}
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
        {**_MODEL, "C_P": _is(lambda v: v is None or _is_positive(v),
                              "a positive number or null"),
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
_TUNING = {
    "regime": _STRING, "calib": _NUMBER, "eps": _NUMBER, "frak_e": _NUMBER, "x0_dist": _NUMBER,
    "eps_grid": _is(lambda v: isinstance(v, list) and len(v) > 1 and all(map(_is_number, v)),
                    "an array of two or more numbers"),
    "certified_x0": _is(lambda v: type(v) is bool, "true or false"),
}
# regime -> (the tuning keys it reads, the block it tunes); its tuner is tune_<family>, and a
# bayes-* plan takes its target from n, so no bayes-* regime reads eps
_REGIMES = {
    regime: ({k: _TUNING[k] for k in ("regime", "calib", *reads.split())},
             "model" if regime.startswith("bayes-") else "potential")
    for regime, reads in {
        "bayes-weak-i": "", "bayes-weak-ii": "", "bayes-weak-iii": "", "bayes-sc-i.a": "",
        "bayes-sc-i.b": "certified_x0",
        "sc-i": "eps eps_grid x0_dist", "sc-ii": "eps eps_grid x0_dist",
        "weak-i.a": "eps eps_grid frak_e x0_dist", "weak-i.b": "eps eps_grid frak_e",
        "weak-ii.a": "eps eps_grid frak_e", "weak-ii.b": "eps eps_grid frak_e",
    }.items()
}
# oracle task -> (the oracle keys it reads, the settings its record reports and their defaults)
_TASKS = {
    "quadrature": ({"task": _STRING, "nodes_per_axis": _COUNT, "k_sigma": _POSITIVE},
                   {"nodes_per_axis": oracle.QUADRATURE_NODES}),
    "poisson": ({"task": _STRING, "n_nodes": _COUNT}, {"n_nodes": oracle.POISSON_NODES}),
}
# block -> the section and key of its grid's one point, and the type its tuner takes the
# point as; the grid is that key + "_grid"
_GRID = {"model": ("data", "n", int), "potential": ("tuning", "eps", float)}

# section -> key -> check; a nested dict checks an object's keys in turn, and
# its keys are the only ones the object may hold
_SCHEMA = {
    "model": _keyed("family", _MODELS),
    "potential": _keyed("family", _POTENTIALS),
    "prior": {"family": _one_of("standard_gaussian")},
    "data": {
        "n": _COUNT, "seed": _SEED,
        "n_grid": _is(lambda v: isinstance(v, list) and len(v) > 1 and all(map(_is_count, v))
                      and all(a < b for a, b in zip(v, v[1:])),
                      "an ascending array of two or more integers >= 1"),
    },
    "tuning": _keyed("regime", _REGIMES),
    "run": {"M": _required(_COUNT), "base_seed": _SEED, "output_dir": _STRING},
    "diagnostics": {
        "kl_profile": _flag_or({"n_probes": _COUNT, "radius": _LENGTH, "seed": _INTEGER}),
        "grad_bounds": _flag_or({"n_probes": _COUNT, "seed": _INTEGER}),
        # the options concentration and test_phi cannot run without are required
        "concentration": {
            "n": _required(_COUNT), "delta_grid": _required(_LENGTHS),
            "M": _required(_COUNT), "seed": _SEED, "statistic": _one_of("psi", "score"),
        },
        "test_phi": {
            "theta_alt": _required(_NUMBERS), "n": _required(_COUNT), "r_n": _required(_POSITIVE),
            "M": _required(_COUNT), "seed": _SEED, "b2": _POSITIVE,
        },
    },
    "oracle": _keyed("task", _TASKS),
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
    """Check ``cfg`` against ``_SCHEMA`` and the rules between its sections, alike for every
    command, and return it as it is: the manifest and the config hash embed it, so defaults
    are never filled in."""
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    for key, block in cfg.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config section {key!r}")
        _check(key, block, _SCHEMA[key])
    if "model" in cfg and "potential" in cfg:
        raise ConfigError("give either a model block or a potential block, not both")
    if "data" in cfg and "potential" in cfg:
        raise ConfigError("a data block is read only with a model block, "
                          "and the config has a potential block")
    if "oracle" in cfg and "model" in cfg:
        raise ConfigError("an oracle block is read only with a potential block, "
                          "and the config has a model block")
    if "tuning" in cfg:
        regime = cfg["tuning"]["regime"]
        tunes = _REGIMES[regime][1]
        if tunes not in cfg:
            raise ConfigError(f"tuning.regime {regime!r} tunes a {tunes} block, "
                              "which the config does not have")
        if tunes == "model" and not {"n", "n_grid"} & cfg.get("data", {}).keys():
            raise ConfigError(f"tuning.regime {regime!r} needs data.n or data.n_grid")
    for section, key, _ in _GRID.values():
        if {key, f"{key}_grid"} <= cfg.get(section, {}).keys():
            raise ConfigError(f"give {section}.{key} or {section}.{key}_grid, not both")
    return cfg


def _refuse_constant(name):
    raise ConfigError(f"{name} is not a JSON number")


def load_config(path) -> dict:
    with open(path) as fh:
        return validate_config(json.load(fh, parse_constant=_refuse_constant))


def _block(cfg: dict, section: str) -> dict:
    """The config's ``section`` block, which the command cannot run without."""
    if section not in cfg:
        raise ConfigError(f"no {section} block in the config")
    return cfg[section]


def _build(cfg: dict, section: str):
    """The config's ``section`` block ("model" or "potential"), built by its family.  Its
    ``d``, if given, must be the width its params fix (a logistic design's)."""
    block = _block(cfg, section)
    built = _FAMILIES[section][block["family"]][1](block)
    d = built.d if section == "model" else built.dim
    if block.get("d", d) != d:
        raise ConfigError(f"{section}.d is {block['d']}, but its params have {d} columns")
    return built


def _reference(pot, base_seed: int):
    """The mean of e^{-W} that ``run`` scores chains against, and its provenance, from the
    first rule that applies: the potential's own ``mean`` ("closed-form"), "quadrature" at
    d <= 3, else "importance-sampling", from a stream that no replicate (0..M-1) shares."""
    if pot.mean is not None:
        return pot.mean, "closed-form"
    if pot.dim <= 3:
        return quadrature_posterior_mean(pot)[0], "quadrature"
    return importance_posterior_mean(pot, mix64(base_seed, 2**64 - 1))[0], "importance-sampling"


def _theta_star(cfg: dict, model) -> np.ndarray:
    """The model block's theta_star (default 0) as a (d,) vector."""
    return _vector(cfg["model"].get("theta_star", 0.0), model.d, "model.theta_star")


def _plans(cfg: dict):
    """The tuned block, its grid's key, and each grid point with its (gamma, N) plan, all
    from the config alone, before any dataset is sampled.  A model's grid is
    ``data.n_grid`` (default ``[data.n]``), a potential's ``tuning.eps_grid`` (default
    ``[tuning.eps]``, else ``[1.0]``).  Every regime is tuned by one call per point,
    ``tune_<family>(block, point, variant, **options)``: ``bayes-*`` reads the model's
    per-observation constants at n, ``sc-*`` and ``weak-*`` the potential's own at eps;
    an option the config leaves out takes the library's default.  A plan whose step count
    the chains cannot run is refused by the check ``ChainConfig`` runs (``check_steps``)."""
    tb = _block(cfg, "tuning")
    family, _, variant = tb["regime"].partition("-")
    block = _REGIMES[tb["regime"]][1]
    subject = _build(cfg, block)
    section, key, point = _GRID[block]
    given = cfg.get(section, {})
    grid = [point(v) for v in given.get(f"{key}_grid", [given.get(key, 1.0)])]
    opts = {k: float(v) for k, v in _given(tb, "frak_e", "x0_dist", "calib").items()}
    # the tuner is looked up by its name at each call, so that a rebound tune_* is the one called
    tune = {"bayes": tune_bayes, "sc": tune_sc, "weak": tune_weak}[family]
    plans = [tune(subject, v, variant, **_given(tb, "certified_x0"), **opts) for v in grid]
    for plan in plans:
        check_steps(plan.n_steps)
    return subject, key, list(zip(grid, plans))


def _plan_to_json(plan) -> dict:
    """The plan's fields and horizon, an infinite constant written "inf"."""

    def clean(v):
        if isinstance(v, float) and math.isinf(v):
            return "inf"
        if isinstance(v, (list, tuple)):
            return [clean(u) for u in v]
        return v

    return {**plan._asdict(), "t_horizon": plan.t_horizon,
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
    and the package version) and ``-manifest.json`` into ``outdir``, made here so that a run
    that fails leaves no directory; returns the report's path."""
    outdir.mkdir(parents=True, exist_ok=True)
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
    run_block = _block(cfg, "run")
    subject, key, points = _plans(cfg)
    base_seed = run_block["base_seed"]
    theta = _theta_star(cfg, subject) if "model" in cfg else None
    outdir = Path(output_dir or run_block.get("output_dir", "."))
    h = config_hash(cfg)

    reports, reference = [], None
    for value, plan in points:
        pot = subject
        if theta is not None:
            data = sample_dataset(subject, theta, value, cfg["data"]["seed"])
            pot = build_posterior(subject, data).potential
        if theta is not None or reference is None:  # one reference serves a potential's grid
            reference, provenance = _reference(pot, base_seed)
        reports.append(mse_experiment(pot, plan, run_block["M"], reference, base_seed))

    if len(points) == 1:
        (_, plan), (report,) = points[0], reports
        rows = (
            [i] + [_fmt(v) for v in row] + [_fmt(float(np.sum((row - report.reference) ** 2)))]
            for i, row in enumerate(report.estimates)
        )
        summary = {"mse": report.mse, "ci95": list(report.ci),
                   "reference": [float(v) for v in np.atleast_1d(report.reference)],
                   "reference_provenance": provenance,
                   "plan": _plan_to_json(plan), "n_diverged": report.n_diverged}
        header = ["replicate"] + [f"estimate_{j}" for j in range(pot.dim)] + ["squared_error"]
        line = f"mse={report.mse:.6g}"
    else:
        # a bayes plan's target accuracy is its eps_n
        ratios = [r.mse / p.constants.get("eps_n", v) ** 2 for (v, p), r in zip(points, reports)]
        rows = [[_fmt(v), _fmt(p.gamma), p.n_steps, _fmt(r.mse), _fmt(q)]
                for (v, p), r, q in zip(points, reports, ratios)]
        # a zero MSE (a chain started at the mean with N = 1) makes the spread infinite
        spread = max(ratios) / min(ratios) if min(ratios) > 0 else math.inf
        summary = {"experiment": f"{key}_scaling", f"{key}_grid": [v for v, _ in points],
                   "mse_over_eps_sq": ratios, "spread": "inf" if spread == math.inf else spread}
        header = [key, "gamma", "n_steps", "mse", "mse_over_eps_sq"]
        line = f"spread={spread:.3f}"
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
    c_map = SeparationMap(b1=model.b1, alpha_c=model.alpha_c, **_given(opts, "b2"))
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
    ob = _block(cfg, "oracle")
    pot = _build(cfg, "potential")
    settings = {k: ob.get(k, v) for k, v in _TASKS[ob["task"]][1].items()}
    if ob["task"] == "quadrature":
        mean, err = quadrature_posterior_mean(pot, **settings, **_given(ob, "k_sigma"))
        record = ("posterior_mean", [float(v) for v in mean], err, "laplace-trapezoid", settings)
    else:
        sol = poisson_solve_1d(pot, lambda x: x, **settings)
        record = ("poisson_solution", {"pi_f": sol.pi_f, "residual_sup": sol.residual_sup},
                  sol.residual_sup, "integrating-factor", settings)
    record = dict(zip(("target", "value", "error_estimate", "method", "settings"), record))
    json.dump(record, out, indent=2, sort_keys=True)
    out.write("\n")
    return EXIT_OK


def main(argv=None) -> int:
    import argparse  # here, not at import: only the command line parses arguments
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
