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
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bayes import (
    GaussianLocationModel,
    LogisticModel,
    build_posterior,
    sample_dataset,
    standard_gaussian_prior,
)
from .diagnostics import (
    SeparationMap,
    bayes_rate_experiment,
    concentration_check,
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
    PoissonGrid,
    poisson_solve_1d,
    quadrature_posterior_mean,
    reference_chain,
)
from .potentials import (
    _vector,
    builtin_gaussian_location,
    builtin_logistic,
    builtin_p_power,
    verify_grad_bounds,
    verify_kl_profile,
)
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


_SCHEMA = {
    "model": {"family", "d", "params", "theta_star", "alpha_c", "b1", "C_P"},
    "potential": {"family", "d", "params"},
    "prior": {"family"},
    "data": {"n", "n_grid", "seed"},
    "tuning": {"regime", "eps", "eps_grid", "frak_e", "calib", "x0_dist", "certified_x0"},
    "run": {"M", "base_seed", "output_dir"},
    "diagnostics": {"kl_profile", "grad_bounds", "concentration", "test_phi"},
    "oracle": {"task", "nodes_per_axis", "k_sigma", "n_nodes", "f", "eps_ref"},
}


def _is_number(v) -> bool:
    return type(v) in (int, float)  # bool is refused


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


def _is_labels(v) -> bool:
    return isinstance(v, list) and len(v) > 0 and all(_is_number(u) and u in (1, -1) for u in v)


# what each value must be, by section (``params`` for the model and potential
# blocks); keys not listed here are checked where they are read
_NUMBER = (_is_number, "a number")
_NUMBERS = (_is_numbers, "a number or an array of numbers")
_INTEGER = (lambda v: type(v) is int, "an integer")  # bool and float are refused
_STRING = (lambda v: isinstance(v, str), "a string")
_NUMBER_LIST = (lambda v: isinstance(v, list) and all(map(_is_number, v)), "an array of numbers")
_VALUES = {
    "params": {
        "precision": _NUMBER,
        "p": _NUMBER,
        "ridge": _NUMBER,
        "mean": _NUMBERS,
        "center": _NUMBERS,
        "design": _NUMBERS,
        "features": _NUMBERS,
        "labels": (_is_labels, "an array of +1/-1 labels"),
    },
    "model": {
        "alpha_c": _NUMBER,
        "b1": _NUMBER,
        "C_P": (lambda v: v is None or _is_number(v), "a number or null"),
        "theta_star": _NUMBERS,
    },
    "data": {
        "n": _INTEGER,
        "seed": _INTEGER,
        "n_grid": (lambda v: isinstance(v, list) and all(type(u) is int for u in v),
                   "an array of integers"),
    },
    "tuning": {
        "regime": _STRING,
        "eps": _NUMBER,
        "eps_grid": _NUMBER_LIST,
        "frak_e": _NUMBER,
        "calib": _NUMBER,
        "x0_dist": _NUMBER,
    },
    "run": {"M": _INTEGER, "base_seed": _INTEGER},
    "oracle": {
        "task": _STRING,
        "nodes_per_axis": _INTEGER,
        "k_sigma": _NUMBER,
        "n_nodes": _INTEGER,
        "f": _STRING,
        "eps_ref": _NUMBER,
    },
    # the options of each diagnostics check
    "diagnostics": {
        "n_probes": _INTEGER,
        "radius": _NUMBER,
        "seed": _INTEGER,
        "n": _INTEGER,
        "M": _INTEGER,
        "delta_grid": _NUMBER_LIST,
        "statistic": _STRING,
        "theta_alt": _NUMBERS,
        "r_n": _NUMBER,
        "b1": _NUMBER,
        "b2": _NUMBER,
        "alpha_c": _NUMBER,
    },
}


def _check_values(where: str, block: dict, table: dict) -> None:
    for key, val in block.items():
        check, kind = table.get(key, (None, None))
        if check and not check(val):
            raise ConfigError(f"{where}.{key} must be {kind}, got {val!r}")


def validate_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    for key, block in cfg.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config section {key!r}")
        if not isinstance(block, dict):
            raise ConfigError(f"config section {key!r} must be an object")
        for sub in block:
            if sub not in _SCHEMA[key]:
                raise ConfigError(f"unknown key {key}.{sub!r}")
    if "model" in cfg and "potential" in cfg:
        raise ConfigError("give either a model block or a potential block, not both")
    prior_family = cfg.get("prior", {}).get("family", "standard_gaussian")
    if prior_family != "standard_gaussian":
        raise ConfigError(f"unknown prior family {prior_family!r}")
    if "data" in cfg and "seed" not in cfg["data"]:
        raise ConfigError("data.seed is required; refusing to default a seed")
    if "run" in cfg and "base_seed" not in cfg["run"]:
        raise ConfigError("run.base_seed is required; refusing to default a seed")
    for section in ("model", "data", "tuning", "run", "oracle"):
        _check_values(section, cfg.get(section, {}), _VALUES[section])
    for check, opts in cfg.get("diagnostics", {}).items():
        if isinstance(opts, dict):
            _check_values(f"diagnostics.{check}", opts, _VALUES["diagnostics"])
        elif check in ("concentration", "test_phi"):  # these have no defaults
            raise ConfigError(f"diagnostics.{check} must be an object, got {opts!r}")
        elif type(opts) is not bool:
            raise ConfigError(f"diagnostics.{check} must be true, false or an object, got {opts!r}")
    run = cfg.get("run", {})
    if run.get("M", 1) < 1:
        raise ConfigError(f"run.M must be >= 1, got {run['M']}")
    for section in ("model", "potential"):
        block = cfg.get(section, {})
        params = block.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"{section}.params must be an object")
        _check_values(f"{section}.params", params, _VALUES["params"])
        d = block.get("d", 1)
        if type(d) is not int or d < 1:  # bool and float are refused too
            raise ConfigError(f"{section}.d must be an integer >= 1, got {d!r}")
    return cfg


def load_config(path) -> dict:
    with open(path) as fh:
        return validate_config(json.load(fh))


def _build_model(block: dict):
    family = block.get("family")
    params = block.get("params", {})
    d = int(block.get("d", 1))
    if family == "gaussian_location":
        return GaussianLocationModel(
            d,
            precision=float(params.get("precision", 1.0)),
            alpha_c=float(block.get("alpha_c", 1.0)),
            b1=float(block.get("b1", 1.0)),
        )
    if family == "logistic":
        return LogisticModel(
            np.asarray(params["design"], dtype=float),
            ridge=float(params.get("ridge", 0.0)),
            alpha_c=float(block.get("alpha_c", 1.0)),
            b1=float(block.get("b1", 1.0)),
            C_P=block.get("C_P"),
        )
    raise ConfigError(f"unknown model family {family!r}")


def _build_potential(block: dict):
    family = block.get("family")
    params = block.get("params", {})
    d = int(block.get("d", 1))
    if family == "gaussian":
        return builtin_gaussian_location(
            d, params.get("mean", 0.0), float(params.get("precision", 1.0))
        )
    if family == "p_power":
        return builtin_p_power(d, params.get("center", 0.0), float(params.get("p", 0.75)))
    if family == "logistic":
        return builtin_logistic(
            np.asarray(params["features"], dtype=float),
            params["labels"],
            ridge=float(params.get("ridge", 0.0)),
        )
    raise ConfigError(f"unknown potential family {family!r}")


def _theta_star(cfg: dict, model) -> np.ndarray:
    """The model block's theta_star (default 0) as a (d,) vector."""
    return _vector(cfg["model"].get("theta_star", 0.0), model.d, "model.theta_star")


def _plan_from_config(cfg: dict, pot, n_obs=None, model=None):
    tb = cfg.get("tuning", {})
    regime = tb.get("regime")
    if regime is None:
        raise ConfigError("tuning.regime is required")
    inputs = TuningInputs(
        profile=pot.profile if model is None else model.per_obs_profile,
        L=pot.smoothness.L if model is None else model.per_obs_L,
        d=pot.dim if model is None else model.d,
        eps=float(tb.get("eps", 1.0)),
        frak_e=float(tb.get("frak_e", 0.05)),
        L_tilde=pot.smoothness.L_tilde if pot is not None else None,
        lap_grad_sup=pot.smoothness.lap_grad_sup if pot is not None else None,
        rho_lap=pot.smoothness.rho_lap if pot is not None else None,
        x0_dist=float(tb.get("x0_dist", 0.0)),
        calib=float(tb.get("calib", 1.0)),
    )
    if regime.startswith("bayes-"):
        if model is None or n_obs is None:
            raise ConfigError("bayes tunings need a model block and data.n")
        return tune_bayes(
            inputs,
            n=n_obs,
            alpha_c=model.alpha_c,
            regime=regime.removeprefix("bayes-"),
            C_P=model.C_P if model.C_P is not None else 1.0,
            certified_x0=bool(tb.get("certified_x0", False)),
        )
    if regime.startswith("weak-"):
        return tune_weak(inputs, regime.removeprefix("weak-"))
    if regime.startswith("sc-"):
        return tune_sc(inputs, regime.removeprefix("sc-"))
    raise ConfigError(f"unknown tuning regime {regime!r}")


def _plan_to_json(plan) -> dict:
    def clean(v):
        if isinstance(v, float) and math.isinf(v):
            return "inf"
        if isinstance(v, (list, tuple)):
            return [clean(u) for u in v]
        return v

    return {
        "gamma": plan.gamma,
        "n_steps": plan.n_steps,
        "regime": plan.regime,
        "clamped": plan.clamped,
        "t_horizon": plan.t_horizon,
        "constants": {k: clean(v) for k, v in plan.constants.items()},
    }


def cmd_tune(cfg: dict, out=None) -> int:
    out = out or sys.stdout
    if "model" in cfg:
        model = _build_model(cfg["model"])
        n_obs = int(cfg.get("data", {}).get("n", 0)) or None
        plan = _plan_from_config(cfg, None, n_obs=n_obs, model=model)
    else:
        pot = _build_potential(cfg["potential"])
        plan = _plan_from_config(cfg, pot)
    json.dump(_plan_to_json(plan), out, indent=2, sort_keys=True)
    out.write("\n")
    return EXIT_OK


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write_artifacts(outdir: Path, h: str, cfg: dict, header, rows, summary: dict) -> Path:
    """Write the run's ``-report.csv``, ``-summary.json`` and ``-manifest.json``;
    returns the report's path."""
    csv_path = outdir / f"{h}-report.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    for name, record in (("summary", summary), ("manifest", {"config": cfg, "config_hash": h})):
        with open(outdir / f"{h}-{name}.json", "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return csv_path


def cmd_run(cfg: dict, output_dir=None, out=None) -> int:
    out = out or sys.stdout
    run_block = cfg.get("run")
    if run_block is None:
        raise ConfigError("run block is required for the run command")
    m_reps = int(run_block["M"])
    base_seed = int(run_block["base_seed"])
    outdir = Path(output_dir or run_block.get("output_dir", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    h = config_hash(cfg)

    if "model" in cfg and "n_grid" in cfg.get("data", {}):
        return _run_rate_experiment(cfg, outdir, h, m_reps, base_seed, out)
    if "potential" in cfg and "eps_grid" in cfg.get("tuning", {}):
        return _run_eps_scaling(cfg, outdir, h, m_reps, base_seed, out)

    if "model" in cfg:
        model = _build_model(cfg["model"])
        data_block = cfg.get("data", {})
        if "n" not in data_block:
            raise ConfigError("data.n is required for posterior experiments")
        n_obs = int(data_block["n"])
        data = sample_dataset(model, _theta_star(cfg, model), n_obs, int(data_block["seed"]))
        prior = standard_gaussian_prior(model.d)
        post = build_posterior(model, data, prior)
        pot = post.potential
        plan = _plan_from_config(cfg, pot, n_obs=n_obs, model=model)
        if pot.dim <= 3:
            reference, _ = quadrature_posterior_mean(pot)
            provenance = "quadrature"
        else:
            reference, _ = reference_chain(pot, eps_ref=plan.constants.get("eps_n", 0.1))
            provenance = "reference-chain"
        x0 = post.mode
    else:
        pot = _build_potential(cfg["potential"])
        plan = _plan_from_config(cfg, pot)
        reference = pot.minimizer_hint  # built-ins are symmetric around the center
        provenance = "closed-form"
        x0 = pot.minimizer_hint

    report = mse_experiment(
        pot, plan, m_reps, reference, base_seed, x0=x0, reference_provenance=provenance
    )
    rows = (
        [i] + [_fmt(v) for v in row] + [_fmt(float(np.sum((row - report.reference) ** 2)))]
        for i, row in enumerate(report.estimates)
    )
    summary = {
        "config_hash": h,
        "mse": report.mse,
        "ci95": list(report.ci),
        "reference": [float(v) for v in np.atleast_1d(report.reference)],
        "reference_provenance": report.reference_provenance,
        "plan": _plan_to_json(plan),
        "n_diverged": report.n_diverged,
        "version": __version__,
    }
    header = ["replicate"] + [f"estimate_{j}" for j in range(pot.dim)] + ["squared_error"]
    csv_path = _write_artifacts(outdir, h, cfg, header, rows, summary)
    out.write(f"{h}: mse={report.mse:.6g} -> {csv_path}\n")
    return EXIT_OK


def _run_rate_experiment(cfg, outdir, h, m_reps, base_seed, out) -> int:
    """Oracle posterior-mean MSE over a sample-size grid, with the rate fit."""
    model = _build_model(cfg["model"])
    prior = standard_gaussian_prior(model.d)
    n_grid = [int(v) for v in cfg["data"]["n_grid"]]
    fit = bayes_rate_experiment(model, prior, _theta_star(cfg, model), n_grid, m_reps, base_seed)
    rows = ([n, _fmt(x), _fmt(y)] for n, x, y in zip(n_grid, fit.x, fit.y))
    summary = {
        "config_hash": h,
        "experiment": "bayes_rate",
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r2": fit.r2,
        "slope_trustworthy": fit.slope_trustworthy(),
        "n_grid": n_grid,
        "version": __version__,
    }
    csv_path = _write_artifacts(outdir, h, cfg, ["n", "log_n_over_log_n", "log_mse"], rows, summary)
    out.write(f"{h}: slope={fit.slope:.4f} r2={fit.r2:.4f} -> {csv_path}\n")
    return EXIT_OK


def _run_eps_scaling(cfg, outdir, h, m_reps, base_seed, out) -> int:
    """MSE/eps^2 stability across a target-accuracy grid for one potential."""
    pot = _build_potential(cfg["potential"])
    eps_grid = [float(v) for v in cfg["tuning"]["eps_grid"]]
    if len(eps_grid) < 2:
        raise ConfigError("tuning.eps_grid needs at least two values")
    rows = []
    for eps in eps_grid:
        sub = dict(cfg)
        sub["tuning"] = {**cfg["tuning"], "eps": eps}
        sub["tuning"].pop("eps_grid")
        plan = _plan_from_config(sub, pot)
        report = mse_experiment(
            pot, plan, m_reps, pot.minimizer_hint, base_seed, reference_provenance="closed-form"
        )
        rows.append((eps, plan, report))
    table = (
        [_fmt(eps), _fmt(plan.gamma), plan.n_steps, _fmt(report.mse), _fmt(report.mse / eps**2)]
        for eps, plan, report in rows
    )
    ratios = [report.mse / eps**2 for eps, _, report in rows]
    summary = {
        "config_hash": h,
        "experiment": "eps_scaling",
        "eps_grid": eps_grid,
        "mse_over_eps_sq": ratios,
        "spread": max(ratios) / min(ratios),
        "version": __version__,
    }
    header = ["eps", "gamma", "n_steps", "mse", "mse_over_eps_sq"]
    csv_path = _write_artifacts(outdir, h, cfg, header, table, summary)
    out.write(f"{h}: spread={summary['spread']:.3f} -> {csv_path}\n")
    return EXIT_OK


def cmd_verify(cfg: dict, strict: bool = False, out=None) -> int:
    out = out or sys.stdout
    diag = cfg.get("diagnostics", {})
    checks = []
    pot = None
    model = None
    if "potential" in cfg:
        pot = _build_potential(cfg["potential"])
    if "model" in cfg:
        model = _build_model(cfg["model"])
        theta = _theta_star(cfg, model)
    if diag.get("kl_profile"):
        opts = diag["kl_profile"] if isinstance(diag["kl_profile"], dict) else {}
        try:
            if pot is None:
                raise CapabilityError("no potential block in the config")
            rep = verify_kl_profile(
                pot,
                n_probes=int(opts.get("n_probes", 10000)),
                radius=float(opts.get("radius", 10.0)),
                seed=int(opts.get("seed", 0)),
            )
            checks.append(("kl_profile", rep.passed, rep.worst))
        except (ParameterError, CapabilityError) as exc:
            checks.append(("kl_profile", None, str(exc)))
    if diag.get("grad_bounds"):
        opts = diag["grad_bounds"] if isinstance(diag["grad_bounds"], dict) else {}
        try:
            if pot is None:
                raise CapabilityError("no potential block in the config")
            rep = verify_grad_bounds(
                pot,
                n_probes=int(opts.get("n_probes", 1000)),
                seed=int(opts.get("seed", 0)),
            )
            checks.append(("grad_bounds", rep.passed, rep.worst))
        except (ParameterError, CapabilityError) as exc:
            checks.append(("grad_bounds", None, str(exc)))
    if diag.get("concentration"):
        opts = diag["concentration"]
        try:
            if model is None:
                raise CapabilityError("no model block in the config")
            rows = concentration_check(
                model,
                theta,
                int(opts["n"]),
                [float(x) for x in opts["delta_grid"]],
                int(opts["M"]),
                int(opts["seed"]),
                statistic=opts.get("statistic", "psi"),
            )
            checks.append(
                ("concentration", all(r.passed for r in rows),
                 [(r.delta, r.frequency, r.bound) for r in rows])
            )
        except (ParameterError, CapabilityError) as exc:
            checks.append(("concentration", None, str(exc)))
    if diag.get("test_phi"):
        opts = diag["test_phi"]
        try:
            if model is None:
                raise CapabilityError("no model block in the config")
            rep = run_test_phi(
                model,
                theta,
                np.asarray(opts["theta_alt"], dtype=float),
                int(opts["n"]),
                float(opts["r_n"]),
                SeparationMap(
                    b1=float(opts.get("b1", model.b1)),
                    b2=float(opts.get("b2", 1.0)),
                    alpha_c=float(opts.get("alpha_c", model.alpha_c)),
                ),
                int(opts["M"]),
                int(opts["seed"]),
            )
            checks.append(
                ("test_phi", rep.passed,
                 {"type1": rep.type1_frequency, "type2": rep.type2_frequency,
                  "bound": rep.bound})
            )
        except (ParameterError, CapabilityError) as exc:
            checks.append(("test_phi", None, str(exc)))

    failed = False
    for name, passed, detail in checks:
        if passed is None:
            out.write(f"{name}: SKIPPED ({detail})\n")
            if strict:
                failed = True
        else:
            out.write(f"{name}: {'PASS' if passed else 'FAIL'} {detail}\n")
            failed = failed or not passed
    if not checks:
        out.write("no checks requested\n")
    return EXIT_DIVERGED if failed else EXIT_OK


def cmd_oracle(cfg: dict, out=None) -> int:
    out = out or sys.stdout
    ob = cfg.get("oracle", {})
    task = ob.get("task")
    if "potential" not in cfg:
        raise ConfigError("oracle tasks need a potential block")
    pot = _build_potential(cfg["potential"])
    if task == "quadrature":
        mean, err = quadrature_posterior_mean(
            pot,
            nodes_per_axis=int(ob.get("nodes_per_axis", 161)),
            k_sigma=float(ob.get("k_sigma", 8.0)),
        )
        record = {
            "target": "posterior_mean",
            "value": [float(v) for v in mean],
            "error_estimate": err,
            "method": "laplace-trapezoid",
            "settings": {"nodes_per_axis": ob.get("nodes_per_axis", 161)},
        }
    elif task == "poisson":
        fspec = ob.get("f", "identity")
        if fspec != "identity":
            raise ConfigError("only f=identity is exposed through the CLI")
        sol = poisson_solve_1d(
            pot, lambda x: x, PoissonGrid(n_nodes=int(ob.get("n_nodes", 20001)))
        )
        record = {
            "target": "poisson_solution",
            "value": {"pi_f": sol.pi_f, "residual_sup": sol.residual_sup},
            "error_estimate": sol.residual_sup,
            "method": "integrating-factor",
            "settings": {"n_nodes": int(ob.get("n_nodes", 20001))},
        }
    elif task == "reference_chain":
        mean, se = reference_chain(pot, eps_ref=float(ob.get("eps_ref", 0.05)))
        record = {
            "target": "pi_identity",
            "value": [float(v) for v in mean],
            "error_estimate": se,
            "method": "replicated-cesaro",
            "settings": {"eps_ref": float(ob.get("eps_ref", 0.05))},
        }
    else:
        raise ConfigError(f"unknown oracle task {task!r}")
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
