import contextlib
import copy
import csv
import inspect
import io
import json
import math
import subprocess
import sys
from functools import reduce
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from cesaro_lmc import cli
from cesaro_lmc.bayes import GaussianLocationModel, sample_dataset
from cesaro_lmc.cli import config_hash, main, validate_config
from cesaro_lmc.errors import ParameterError


def write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def exits_2_with_one_line(tmp_path, command, cfg):
    """Run the CLI in a child process and check for exit 2 with a one-line
    message, which is returned."""
    argv = [command, "--config", write(tmp_path, "bad.json", cfg)]
    if command == "run":
        argv += ["--output", str(tmp_path / "o")]
    proc = subprocess.run([sys.executable, "-m", "cesaro_lmc.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    return proc.stderr


def strict_json(text):
    """Parse JSON, refusing NaN and +/-Infinity, which strict JSON has not."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def run_summary(tmp_path, cfg):
    """Run ``cfg`` (which must exit 0) and return its summary, parsed strictly."""
    out = tmp_path / "out"
    assert main(["run", "--config", write(tmp_path, "run.json", cfg), "--output", str(out)]) == 0
    return strict_json(next(out.glob("*-summary.json")).read_text())


def spy_reports(monkeypatch):
    """Keep every report the CLI's ``mse_experiment`` returns."""
    reports = []

    def keep(*args, **kwargs):
        reports.append(mse_experiment(*args, **kwargs))
        return reports[-1]

    mse_experiment = cli.mse_experiment
    monkeypatch.setattr(cli, "mse_experiment", keep)
    return reports


LOGISTIC_POTENTIAL = {"family": "logistic", "d": 2, "params": {
    "features": [[1.0, 0.5], [-0.5, 1.0], [0.3, -0.8]], "labels": [1, -1, 1], "ridge": 1.0}}


def bayes_cfg(**overrides):
    cfg = {
        "model": {
            "family": "gaussian_location", "d": 1, "params": {"precision": 1.0},
            "theta_star": [0.5], "alpha_c": 1.0, "b1": 1.0,
        },
        "prior": {"family": "standard_gaussian"},
        "data": {"n": 100, "seed": 7},
        "tuning": {"regime": "bayes-sc-i.a"},
        "run": {"M": 20, "base_seed": 99, "output_dir": "unused"},
    }
    cfg.update(overrides)
    return cfg


class TestConfigValidation:
    def test_unknown_section_rejected(self):
        with pytest.raises(ParameterError, match="unknown config section"):
            validate_config({"modle": {}})

    def test_unknown_key_named(self):
        with pytest.raises(ParameterError, match="tuning.'regmie'"):
            validate_config({"tuning": {"regmie": "x"}})

    def test_missing_seed_demanded(self):
        with pytest.raises(ParameterError, match="seed"):
            validate_config({"data": {"n": 10}})
        with pytest.raises(ParameterError, match="base_seed"):
            validate_config({"run": {"M": 5}})
        with pytest.raises(ParameterError, match="diagnostics.concentration.n is required"):
            validate_config({"diagnostics": {"concentration": {"delta_grid": [0.1], "M": 5,
                                                               "seed": 1}}})

    def test_dimension_and_tuning_numbers_typed(self):
        for bad in (0, 2.0, False):
            with pytest.raises(ParameterError, match="model.d"):
                validate_config(bayes_cfg(model={**bayes_cfg()["model"], "d": bad}))
        with pytest.raises(ParameterError, match="tuning.frak_e"):
            validate_config(bayes_cfg(tuning={"regime": "bayes-sc-i.a", "frak_e": True}))

    def test_params_values_typed(self):
        def potential(**params):
            return {"potential": {"family": "logistic", "d": 1, "params": params}}

        validate_config(potential(features=[[1.0], [-0.5]], labels=[1, -1.0], ridge=0.5))
        for params, key in [
            ({"features": [[1.0]], "labels": [0]}, "labels"),
            ({"features": [[1.0]], "labels": [True]}, "labels"),
            ({"features": [[1.0], [1.0, 2.0]], "labels": [1, 1]}, "features"),
            ({"features": [], "labels": []}, "features"),
            ({"features": [[1.0]], "labels": [1], "ridge": "0.5"}, "ridge"),
            ({"features": [[1.0]], "labels": [1], "ridge": None}, "ridge"),
        ]:
            with pytest.raises(ParameterError, match=f"potential.params.{key}"):
                validate_config(potential(**params))
        with pytest.raises(ParameterError, match="model.params.'?design"):
            validate_config(bayes_cfg(model={**bayes_cfg()["model"], "params": {"design": "x"}}))

    def test_model_and_data_values_typed(self):
        model = bayes_cfg()["model"]
        for block, key, bad in [
            ("model", "alpha_c", "x"),
            ("model", "theta_star", [0.5, "y"]),
            ("model", "C_P", True),
            ("data", "n", "x"),
            ("data", "n", 100.0),
            ("data", "seed", "7"),
            ("data", "n_grid", [100, 400.5]),
            ("data", "n_grid", []),
            ("data", "n_grid", [100]),
            ("data", "n_grid", [400, 100]),
            ("data", "n_grid", [100, 100]),
        ]:
            base = model if block == "model" else bayes_cfg()["data"]
            with pytest.raises(ParameterError, match=f"{block}.{key} must be"):
                validate_config(bayes_cfg(**{block: {**base, key: bad}}))
        validate_config(bayes_cfg(model={**model, "C_P": None}))

    def test_hash_ignores_key_order(self):
        a = {"data": {"n": 10, "seed": 1}, "tuning": {"regime": "sc-i"}}
        b = {"tuning": {"regime": "sc-i"}, "data": {"seed": 1, "n": 10}}
        assert config_hash(a) == config_hash(b)

    def test_hash_sensitive_to_values(self):
        a = {"data": {"n": 10, "seed": 1}}
        b = {"data": {"n": 11, "seed": 1}}
        assert config_hash(a) != config_hash(b)


class TestTuneCommand:
    def test_bayes_example_output(self, tmp_path, capsys):
        cfg = bayes_cfg()
        cfg["model"]["d"] = 4
        path = write(tmp_path, "t.json", cfg)
        assert main(["tune", "--config", path]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["gamma"] == pytest.approx(1e-4)
        assert plan["n_steps"] == 100
        assert "constants" in plan

    def test_malformed_key_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", {"tuning": {"regmie": "sc-i"}})
        assert main(["tune", "--config", path]) == 2

    def test_missing_seed_exits_2(self, tmp_path):
        cfg = bayes_cfg()
        del cfg["data"]["seed"]
        path = write(tmp_path, "noseed.json", cfg)
        assert main(["tune", "--config", path]) == 2

    def test_potential_tuning(self, tmp_path, capsys):
        cfg = {
            "potential": {"family": "p_power", "d": 1, "params": {"p": 0.75}},
            "tuning": {"regime": "weak-i.b", "eps": 0.1},
        }
        path = write(tmp_path, "pp.json", cfg)
        assert main(["tune", "--config", path]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["regime"] == "weak-i.b"


class TestRunCommand:
    def test_artifacts_and_determinism(self, tmp_path, capsys):
        path = write(tmp_path, "run.json", bayes_cfg())
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        assert main(["run", "--config", path, "--output", str(out1)]) == 0
        assert main(["run", "--config", path, "--output", str(out2)]) == 0
        csv1 = sorted(out1.glob("*-report.csv"))[0]
        csv2 = sorted(out2.glob("*-report.csv"))[0]
        assert csv1.read_bytes() == csv2.read_bytes()
        h = csv1.name.split("-")[0]
        summary = json.loads((out1 / f"{h}-summary.json").read_text())
        assert summary["config_hash"] == h
        assert summary["reference_provenance"] == "closed-form"
        manifest = json.loads((out1 / f"{h}-manifest.json").read_text())
        assert manifest["config"]["data"]["seed"] == 7

    def test_csv_17_digit_floats(self, tmp_path):
        path = write(tmp_path, "run.json", bayes_cfg())
        out = tmp_path / "o"
        main(["run", "--config", path, "--output", str(out)])
        lines = sorted(out.glob("*-report.csv"))[0].read_text().splitlines()
        value = lines[1].split(",")[1]
        assert float(value) != 0.0
        assert len(value.replace("-", "").replace(".", "").lstrip("0")) >= 15

    def test_potential_run(self, tmp_path):
        cfg = {
            "potential": {"family": "gaussian", "d": 1, "params": {"precision": 1.0}},
            "tuning": {"regime": "sc-i", "eps": 0.3},
            "run": {"M": 10, "base_seed": 3, "output_dir": "unused"},
        }
        path = write(tmp_path, "pot.json", cfg)
        out = tmp_path / "po"
        assert main(["run", "--config", path, "--output", str(out)]) == 0
        summary = json.loads(sorted(out.glob("*-summary.json"))[0].read_text())
        assert summary["reference_provenance"] == "closed-form"
        assert summary["mse"] < 0.3**2 * 10

    @pytest.mark.compiled
    def test_logistic_potential_is_scored_by_quadrature(self, tmp_path, monkeypatch):
        # the logistic built-in has no centre of symmetry: its mean is not its mode
        reports = spy_reports(monkeypatch)
        summary = run_summary(tmp_path, {
            "potential": LOGISTIC_POTENTIAL, "tuning": {"regime": "sc-i", "eps": 0.3},
            "run": {"M": 20, "base_seed": 3}})
        assert summary["reference_provenance"] == "quadrature"
        assert math.isfinite(summary["mse"]) and all(map(math.isfinite, summary["ci95"]))
        quad, _ = cli.quadrature_posterior_mean(cli._build({"potential": LOGISTIC_POTENTIAL},
                                                           "potential"))
        assert summary["reference"] == quad.tolist() == reports[0].reference.tolist()

    @pytest.mark.compiled
    def test_logistic_potential_eps_grid_is_scored_by_quadrature(self, tmp_path, monkeypatch):
        reports = spy_reports(monkeypatch)
        quad = cli.quadrature_posterior_mean
        calls = []
        monkeypatch.setattr(cli, "quadrature_posterior_mean",
                            lambda pot: calls.append(pot) or quad(pot))
        summary = run_summary(tmp_path, {
            "potential": LOGISTIC_POTENTIAL, "tuning": {"regime": "sc-i", "eps_grid": [0.4, 0.3]},
            "run": {"M": 20, "base_seed": 3}})
        assert len(calls) == 1  # one reference for the whole grid
        assert [r.reference_provenance for r in reports] == ["quadrature", "quadrature"]
        assert all(map(math.isfinite, [summary["spread"], *summary["mse_over_eps_sq"]]))

    @pytest.mark.parametrize("d", [2, 5])
    def test_gaussian_location_is_scored_by_its_conjugate_mean(self, tmp_path, d):
        # at d <= 3 too: the exact mean comes before quadrature
        theta_star = [0.5, -0.5, 0.0, 1.0, 0.2][:d]
        cfg = bayes_cfg(model={"family": "gaussian_location", "d": d,
                               "params": {"precision": 1.3}, "theta_star": theta_star})
        cfg["run"] = {"M": 10, "base_seed": 4}
        summary = run_summary(tmp_path, cfg)
        s = sample_dataset(GaussianLocationModel(d, 1.3), theta_star, 100, 7).observations.sum(axis=0)
        assert summary["reference_provenance"] == "closed-form"
        assert summary["reference"] == (1.3 * s / (100 * 1.3 + 1.0)).tolist()

    @pytest.mark.compiled
    def test_logistic_model_d5_is_scored_by_importance_sampling(self, tmp_path):
        design = np.round(np.random.default_rng(5).normal(size=(50, 5)), 6).tolist()
        cfg = bayes_cfg(model={"family": "logistic", "d": 5,
                               "params": {"design": design, "ridge": 0.5},
                               "theta_star": [0.3, -0.2, 0.1, 0.0, 0.4]},
                        data={"n": 1000, "seed": 8})
        cfg["run"] = {"M": 10, "base_seed": 4}
        summary = run_summary(tmp_path, cfg)
        assert summary["reference_provenance"] == "importance-sampling"
        assert math.isfinite(summary["mse"])
        assert summary["mse"] < summary["plan"]["constants"]["eps_n"] ** 2


class TestPlanRule:
    """A bayes-* regime tunes a model block over data.n_grid, an sc-* or weak-* regime a
    potential block over tuning.eps_grid."""

    @pytest.mark.parametrize("command", ["tune", "run"])
    @pytest.mark.parametrize("regime, tunes", [
        ("bayes-sc-i.a", "model"), ("sc-i", "potential"), ("weak-i.b", "potential")])
    @pytest.mark.parametrize("block", ["model", "potential"])
    @pytest.mark.parametrize("grid", [None, "eps_grid", "n_grid"])
    def test_each_regime_family_tunes_one_block(self, tmp_path, capsys, monkeypatch, command,
                                                regime, tunes, block, grid):
        events = []  # every plan is tuned before the first dataset is sampled
        for name, event in [("sample_dataset", "sample"), ("tune_bayes", "plan"),
                            ("tune_sc", "plan"), ("tune_weak", "plan")]:
            monkeypatch.setattr(cli, name, lambda *a, f=getattr(cli, name), e=event, **k:
                                events.append(e) or f(*a, **k))
        # a bayes plan takes its target from n, so only a potential's tuning gives eps
        tuning = {"regime": regime, **({"eps": 0.5} if tunes == "potential" else {})}
        cfg = {"tuning": tuning, "run": {"M": 5, "base_seed": 1}}
        if block == "model":
            cfg["model"] = {"family": "gaussian_location", "d": 2, "theta_star": [0.4, -0.2]}
            cfg["data"] = {"n": 400, "seed": 1}
        else:  # a potential each regime applies to
            cfg["potential"] = {"family": "p_power" if regime == "weak-i.b" else "gaussian", "d": 2}
        if grid == "eps_grid":
            cfg["tuning"] = {"regime": regime, "eps_grid": [0.5, 0.4]}
        if grid == "n_grid":
            cfg["data"] = {"n_grid": [100, 400], "seed": 1}
        code = main([command, "--config", write(tmp_path, "c.json", cfg),
                     "--output", str(tmp_path / "o")])
        out, err = capsys.readouterr()
        points = 1 if grid is None else 2
        grid_of = {"eps_grid": ("tuning", "potential"), "n_grid": ("data", "model")}
        if block != tunes:
            assert (code, events) == (2, [])
            assert err == (f"error: tuning.regime {regime!r} tunes a {tunes} block, "
                           "which the config does not have\n")
        elif grid is not None and grid_of[grid][1] != block:
            assert (code, events) == (2, [])
            assert err == (f"error: {grid_of[grid][0]}.{grid} is a grid of a {grid_of[grid][1]} "
                           f"block, and the config has a {block} block\n")
        else:
            assert (code, err) == (0, "")
            sampled = points if command == "run" and block == "model" else 0
            assert events == ["plan"] * points + ["sample"] * sampled
            if command == "tune":  # a grid prints the list of its plans
                printed = json.loads(out)
                assert (type(printed), len(printed)) == ((list, 2) if grid else (dict, 6))

    @pytest.mark.parametrize("command", ["tune", "run"])
    @pytest.mark.parametrize("config, changes, message", [
        # the regime is paired with its block before the grid is read
        ("conjugate_posterior.json", {"data": {"n_grid": [10, 20, 40, 80]},
                                      "tuning": {"regime": "sc-i"}},
         "tuning.regime 'sc-i' tunes a potential block, which the config does not have"),
        ("conjugate_posterior.json", {"tuning": {"eps_grid": [0.3, 0.2]}},
         "tuning.eps_grid is a grid of a potential block, and the config has a model block"),
        ("conjugate_posterior.json", {"tuning": {"eps": 0.01}},
         "tuning.eps is a point of a potential block, and the config has a model block"),
        ("ou_smoke.json", {"data": {"n": 100, "seed": 1}},
         "data.n is a point of a model block, and the config has a potential block"),
        ("ou_smoke.json", {"data": {"n_grid": [100, 400], "seed": 1}},
         "data.n_grid is a grid of a model block, and the config has a potential block"),
        ("ou_smoke.json", {"tuning": {"eps_grid": [0.3, 0.2]}},
         "give tuning.eps or tuning.eps_grid, not both"),
        ("conjugate_posterior.json", {"data": {"n_grid": [100, 400]}},
         "give data.n or data.n_grid, not both"),
    ])
    def test_a_grid_key_the_block_cannot_use_is_refused(self, tmp_path, command, config,
                                                        changes, message):
        cfg = json.loads((CONFIGS / config).read_text())
        for section, values in changes.items():
            cfg[section] = {**cfg.get(section, {}), **values}
        assert exits_2_with_one_line(tmp_path, command, cfg) == f"error: {message}\n"

    @pytest.mark.parametrize("command, cfg, block", [
        ("tune", {"tuning": {"regime": "sc-i"}}, "potential"),
        ("tune", {"data": {"n": 100, "seed": 1}, "tuning": {"regime": "bayes-sc-i.a"}}, "model"),
        ("run", {"tuning": {"regime": "weak-i.b"}, "run": {"M": 5, "base_seed": 1}}, "potential"),
        ("oracle", {"oracle": {"task": "quadrature"}}, "potential"),
    ])
    def test_a_missing_block_is_named(self, tmp_path, command, cfg, block):
        assert f" {block} block" in exits_2_with_one_line(tmp_path, command, cfg)

    @pytest.mark.parametrize("command, cfg", [
        ("run", bayes_cfg(model={"family": "gaussian_location", "d": 1, "theta_star": [0.5],
                                 "params": {"precision": 2.0}, "alpha_c": 1.0, "b1": 1.0},
                          tuning={"regime": "bayes-sc-i.a", "calib": 2.0})),
        ("run", {"potential": {"family": "gaussian", "d": 1,
                               "params": {"mean": 1.0, "precision": 2.0}},
                 "tuning": {"regime": "sc-i", "eps": 1.0, "calib": 2.0, "x0_dist": 1.0},
                 "run": {"M": 10, "base_seed": 3}}),
        ("tune", {"model": {"family": "logistic", "C_P": 2.0,
                            "params": {"design": [[1.0, 0.5], [-0.3, 1.2]], "ridge": 1.0}},
                  "data": {"n": 100, "seed": 1},
                  "tuning": {"regime": "bayes-sc-i.a", "calib": 2.0}}),
    ])
    def test_json_integers_give_the_bytes_of_floats(self, tmp_path, capsys, command, cfg):
        def integral(v):  # the config with each integer-valued float written as an integer
            if isinstance(v, dict):
                return {k: integral(u) for k, u in v.items()}
            if isinstance(v, list):
                return [integral(u) for u in v]
            return int(v) if type(v) is float and v.is_integer() else v

        outputs = []
        for i, c in enumerate((cfg, integral(cfg))):
            out = tmp_path / f"o{i}"
            assert main([command, "--config", write(tmp_path, f"{i}.json", c),
                         "--output", str(out)]) == 0
            printed = capsys.readouterr().out
            if command == "tune":
                outputs.append(printed)
                continue
            # the files' names and the summary carry the hash of the config, whose bytes differ
            h = next(out.glob("*-summary.json")).name.split("-")[0]
            summary = (out / f"{h}-summary.json").read_text().replace(h, "")
            outputs.append((summary, (out / f"{h}-report.csv").read_bytes()))
        assert outputs[0] == outputs[1]


class TestVerifyCommand:
    def test_p_power_battery_passes(self, tmp_path, capsys):
        cfg = {
            "potential": {"family": "p_power", "d": 2, "params": {"p": 0.75}},
            "diagnostics": {
                "kl_profile": {"n_probes": 500, "seed": 1},
                "grad_bounds": {"n_probes": 200, "seed": 2},
            },
        }
        path = write(tmp_path, "v.json", cfg)
        assert main(["verify", "--config", path]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2

    def test_pass_through_options_are_keywords(self):
        """A pass-through check hands its config options to its function as
        keyword arguments, so every option its schema admits must be one."""
        passed_through = []
        for name, _, check in cli._CHECKS:
            if getattr(check, "func", None) is cli._verified:
                params = list(inspect.signature(check.args[0]).parameters.values())[1:]
                keywords = {p.name for p in params if p.kind in (p.POSITIONAL_OR_KEYWORD,
                                                                 p.KEYWORD_ONLY)}
                assert set(cli._SCHEMA["diagnostics"][name].table) <= keywords, name
                passed_through.append(name)
        assert passed_through == ["kl_profile", "grad_bounds"]

    def test_wrong_poincare_flagged(self, tmp_path, capsys, monkeypatch):
        cfg = {
            "model": {
                "family": "gaussian_location", "d": 1, "params": {"precision": 1.0},
                "theta_star": [0.0],
            },
            "diagnostics": {
                "concentration": {"n": 100, "delta_grid": [0.05], "M": 40000, "seed": 5}
            },
        }
        path = write(tmp_path, "vc.json", cfg)
        # a gaussian_location model's C_P is 1/precision; rebuild it with a bad constant
        import cesaro_lmc.cli as cli_mod

        real_build = cli_mod._build

        def patched(cfg, section):
            model = real_build(cfg, section)
            model.C_P = 0.01
            return model

        monkeypatch.setattr(cli_mod, "_build", patched)
        assert main(["verify", "--config", path]) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_score_check_of_a_model_without_score_skips(self, tmp_path, capsys):
        cfg = {
            "model": {"family": "logistic", "d": 2, "C_P": 1.0, "theta_star": [0.1, 0.2],
                      "params": {"design": [[1.0, 0.5], [-0.3, 1.2]], "ridge": 0.5}},
            "diagnostics": {"concentration": {"n": 50, "delta_grid": [0.5], "M": 100, "seed": 1,
                                              "statistic": "score"}},
        }
        path = write(tmp_path, "score.json", cfg)
        assert main(["verify", "--config", path]) == 0
        assert capsys.readouterr().out.startswith("concentration: SKIPPED (")
        assert main(["verify", "--config", path, "--strict"]) == 3

    def test_strict_mode_fails_on_skip(self, tmp_path):
        cfg = {
            "model": {"family": "gaussian_location", "d": 1, "theta_star": [0.0]},
            "diagnostics": {"kl_profile": True},
        }
        path = write(tmp_path, "vs.json", cfg)
        assert main(["verify", "--config", path, "--strict"]) == 3
        assert main(["verify", "--config", path]) == 0

    @pytest.mark.parametrize(
        "check, opts",
        [
            ("concentration", {"n": 100, "delta_grid": [0.05], "M": 10, "seed": 1}),
            ("test_phi", {"theta_alt": [1.0], "n": 200, "r_n": 1.0, "M": 10, "seed": 1}),
        ],
    )
    def test_missing_model_block_skips(self, tmp_path, capsys, check, opts):
        cfg = {"potential": {"family": "gaussian", "d": 1}, "diagnostics": {check: opts}}
        path = write(tmp_path, "nm.json", cfg)
        assert main(["verify", "--config", path]) == 0
        assert f"{check}: SKIPPED (no model block in the config)" in capsys.readouterr().out
        assert main(["verify", "--config", path, "--strict"]) == 3


class TestOracleCommand:
    def test_quadrature_record(self, tmp_path, capsys):
        cfg = {
            "potential": {"family": "gaussian", "d": 1, "params": {"mean": 0.4}},
            "oracle": {"task": "quadrature"},
        }
        path = write(tmp_path, "oq.json", cfg)
        assert main(["oracle", "--config", path]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["value"][0] == pytest.approx(0.4, abs=1e-9)
        assert set(rec) == {"target", "value", "error_estimate", "method", "settings"}

    def test_poisson_record(self, tmp_path, capsys):
        cfg = {
            "potential": {"family": "gaussian", "d": 1, "params": {}},
            "oracle": {"task": "poisson", "n_nodes": 4001},
        }
        path = write(tmp_path, "op.json", cfg)
        assert main(["oracle", "--config", path]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["value"]["residual_sup"] < 1e-6

    def test_unknown_task_exits_2(self, tmp_path):
        cfg = {"potential": {"family": "gaussian", "d": 1}, "oracle": {"task": "nope"}}
        path = write(tmp_path, "ot.json", cfg)
        assert main(["oracle", "--config", path]) == 2


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cesaro_lmc.cli", "tune", "--config", "/nonexistent.json"],
        capture_output=True,
    )
    assert proc.returncode == 2


class TestShippedConfigs:
    def test_ou_smoke_completes_quickly(self, tmp_path):
        import time

        t0 = time.time()
        out = tmp_path / "smoke"
        assert main(["run", "--config", str(CONFIGS / "ou_smoke.json"), "--output", str(out)]) == 0
        elapsed = time.time() - t0
        assert elapsed < 60.0
        assert len(list(out.glob("*-summary.json"))) == 1

    def test_conjugate_n_grid_meets_eps_n_at_every_n(self, tmp_path):
        out = tmp_path / "n_grid"
        assert main(["run", "--config", str(CONFIGS / "conjugate_n_grid.json"),
                     "--output", str(out)]) == 0
        with open(next(out.glob("*-report.csv")), newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert all(float(row["mse_over_eps_sq"]) <= 1.0 for row in rows)

    def test_verify_config_passes(self, tmp_path, capsys):
        assert main(["verify", "--config", str(CONFIGS / "p_power_verify.json")]) == 0
        explicit = capsys.readouterr().out
        assert explicit.count("PASS") == 2
        # the shipped options are the defaults, so empty options objects print the same lines
        cfg = json.loads((CONFIGS / "p_power_verify.json").read_text())
        cfg["diagnostics"] = {"kl_profile": {}, "grad_bounds": {}}
        assert main(["verify", "--config", write(tmp_path, "empty.json", cfg)]) == 0
        assert capsys.readouterr().out == explicit


class TestExitCodeMapping:
    def test_divergence_maps_to_exit_3(self, tmp_path, monkeypatch):
        import cesaro_lmc.cli as cli_mod
        from cesaro_lmc.errors import ExperimentError

        def explode(*args, **kwargs):
            raise ExperimentError("7/20 replicates diverged")

        monkeypatch.setattr(cli_mod, "mse_experiment", explode)
        path = write(tmp_path, "d.json", bayes_cfg())
        assert main(["run", "--config", path, "--output", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("run", "M", "abc"),
            ("run", "base_seed", "x"),
            ("potential", "params", []),
            ("run", "M", 2.5),
            ("potential", "d", "x"),
            ("tuning", "eps", "x"),
            ("potential", "d", 1.5),
            ("potential", "d", True),
            ("potential", "params", {"mean": 0.0, "precision": "x"}),
            ("potential", "params", {"mean": [0.0, "a"]}),
            ("potential", "params", {"mean": [[0.0], [1.0, 2.0]]}),
            ("potential", "params", {"mean": [1.0, 2.0, 3.0]}),
            ("tuning", "regime", 5),
            ("tuning", "eps_grid", [0.3, "x"]),
            ("tuning", "calib", None),
            ("tuning", "certified_x0", "no"),
            ("run", "output_dir", 5),
            # json.dumps writes these as the non-JSON tokens Infinity, -Infinity and NaN
            ("tuning", "eps", math.inf),
            ("tuning", "eps", -math.inf),
            ("potential", "params", {"mean": math.nan, "precision": 1.0}),
            ("potential", "params", {"mean": 0.0, "precision": math.inf}),
        ],
    )
    def test_malformed_run_values_exit_2(self, tmp_path, section, key, value):
        cfg = json.loads((CONFIGS / "ou_smoke.json").read_text())
        cfg[section][key] = value
        exits_2_with_one_line(tmp_path, "run", cfg)

    def test_overflowing_number_literal_exits_2(self, tmp_path):
        """``1e400`` is valid JSON that parses to an infinite float."""
        path = tmp_path / "big.json"
        text = (CONFIGS / "ou_smoke.json").read_text()
        path.write_text(text.replace('"eps": 0.1', '"eps": 1e400'))
        proc = subprocess.run([sys.executable, "-m", "cesaro_lmc.cli", "run", "--config", str(path),
                               "--output", str(tmp_path / "o")], capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: tuning.eps") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "command, config, section, value",
        [
            ("oracle", "ou_smoke.json", "oracle", {"task": "quadrature", "nodes_per_axis": "x"}),
            ("oracle", "ou_smoke.json", "oracle", {"task": "quadrature", "k_sigma": "x"}),
            ("oracle", "ou_smoke.json", "oracle", {"task": "poisson", "n_nodes": 2.5}),
            ("oracle", "ou_smoke.json", "oracle", {"task": "reference_chain"}),  # a deleted task
            ("oracle", "ou_smoke.json", "oracle", {"task": 3}),
            ("verify", "p_power_verify.json", "diagnostics", {"kl_profile": {"n_probes": "x"}}),
            ("verify", "p_power_verify.json", "diagnostics", {"kl_profile": {"radius": "x"}}),
            ("verify", "p_power_verify.json", "diagnostics", {"grad_bounds": {"seed": 1.5}}),
            ("verify", "p_power_verify.json", "diagnostics", {"kl_profile": 5}),
            ("verify", "conjugate_posterior.json", "diagnostics",
             {"concentration": {"n": "x", "delta_grid": [0.05], "M": 10, "seed": 1}}),
            ("verify", "conjugate_posterior.json", "diagnostics",
             {"concentration": {"n": 100, "delta_grid": ["x"], "M": 10, "seed": 1}}),
            ("verify", "conjugate_posterior.json", "diagnostics",
             {"concentration": {"n": 100, "delta_grid": [0.05], "M": True, "seed": 1}}),
            ("verify", "conjugate_posterior.json", "diagnostics", {"concentration": True}),
            ("verify", "conjugate_posterior.json", "diagnostics",
             {"test_phi": {"theta_alt": [1.0, 0.0], "n": 200, "r_n": "x", "M": 10, "seed": 1}}),
            ("verify", "conjugate_posterior.json", "diagnostics",
             {"test_phi": {"theta_alt": [1.0, 0.0], "n": 200, "r_n": 1.0, "M": 10, "seed": "x",
                           "b1": 1.0, "b2": "y", "alpha_c": 1.0}}),
            # a model block but no potential block
            ("oracle", "conjugate_posterior.json", "oracle", {"task": "quadrature"}),
            ("verify", "conjugate_posterior.json", "diagnostics",
             {"concentration": {"n": 100, "delta_grid": [0.05], "M": 10, "seed": 1,
                                "statistic": "nope"}}),
            ("verify", "conjugate_posterior.json", "diagnostics",
             {"test_phi": {"theta_alt": [1.0, 0.0, 0.0], "n": 200, "r_n": 1.0, "M": 10,
                           "seed": 1}}),
            ("verify", "p_power_verify.json", "diagnostics", {"kl_profile": {"nprobes": 500}}),
            ("verify", "p_power_verify.json", "diagnostics", {"kl_profile": {"statistic": "psi"}}),
            ("verify", "p_power_verify.json", "diagnostics", {"grad_bounds": {"n_probes": 0}}),
            ("verify", "conjugate_posterior.json", "diagnostics",
             {"concentration": {"n": 100, "delta_grid": [0.05], "M": 0, "seed": 1}}),
            ("verify", "conjugate_posterior.json", "diagnostics",
             {"concentration": {"delta_grid": [0.05], "M": 10, "seed": 1}}),
            # theta_star is (0.4, -0.2): this alternative is 0.1 away, closer than r_n
            ("verify", "conjugate_posterior.json", "diagnostics",
             {"test_phi": {"theta_alt": [0.5, -0.2], "n": 200, "r_n": 1.0, "M": 10, "seed": 1}}),
            # values the family would drop: C_P is 1/precision, d is the design's width
            ("tune", "conjugate_posterior.json", "model",
             {"family": "gaussian_location", "d": 2, "params": {"precision": 1.0},
              "theta_star": [0.4, -0.2], "C_P": 0.01}),
            pytest.param(
                "tune", "ou_smoke.json", "potential",
                {"family": "logistic", "d": 7,
                 "params": {"features": [[1.0, 0.5], [-0.5, 1.0]], "labels": [1, -1], "ridge": 1.0}},
                marks=pytest.mark.compiled),
            # a key of a deleted task
            ("oracle", "ou_smoke.json", "oracle", {"task": "quadrature", "eps_ref": 0.05}),
        ],
    )
    def test_malformed_oracle_and_diagnostics_values_exit_2(
        self, tmp_path, command, config, section, value
    ):
        cfg = json.loads((CONFIGS / config).read_text())
        cfg[section] = value
        exits_2_with_one_line(tmp_path, command, cfg)

    @pytest.mark.parametrize(
        "section, block, key",
        [
            # a param another family takes
            ("model", {"family": "gaussian_location", "params": {"design": [[1.0]]}}, "design"),
            ("model", {"family": "gaussian_location", "params": {"ridge": 1.0}}, "ridge"),
            ("model", {"family": "logistic", "params": {"design": [[1.0]], "precision": 1.0}},
             "precision"),
            ("potential", {"family": "gaussian", "params": {"p": 0.75}}, "p"),
            ("potential", {"family": "gaussian", "params": {"features": [[1.0]]}}, "features"),
            ("potential", {"family": "p_power", "params": {"precision": 1.0}}, "precision"),
            ("potential", {"family": "p_power", "params": {"mean": 0.0}}, "mean"),
            ("potential", {"family": "logistic",
                           "params": {"features": [[1.0]], "labels": [1], "center": 0.0}}, "center"),
            # a required param left out, with or without a params object
            ("model", {"family": "logistic", "params": {"ridge": 1.0}}, "design"),
            ("model", {"family": "logistic"}, "design"),
            ("potential", {"family": "logistic", "params": {"labels": [1]}}, "features"),
            ("potential", {"family": "logistic", "params": {"features": [[1.0]]}}, "labels"),
            ("potential", {"family": "logistic"}, "features"),
        ],
    )
    def test_params_follow_the_family(self, tmp_path, section, block, key):
        cfg = {section: block, "tuning": {"regime": "sc-i"}}
        err = exits_2_with_one_line(tmp_path, "tune", cfg)
        assert f"{section}.params.{key}" in err.replace("'", "")

    # |a|^2 overflows; checked before the compiled kernel is loaded, so no compiler is needed
    @pytest.mark.parametrize("section, block, name", [
        ("potential", {"family": "logistic", "d": 2, "params": {
            "features": [[1e300, 1e300], [1.0, 0.5]], "labels": [1, -1]}}, "features"),
        ("model", {"family": "logistic", "d": 2,
                   "params": {"design": [[1e300, 1e300], [1.0, 0.5]]}}, "design"),
    ])
    def test_overflowing_rows_are_named(self, tmp_path, section, block, name):
        cfg = {section: block, "tuning": {"regime": "sc-i"}}
        assert exits_2_with_one_line(tmp_path, "tune", cfg).startswith(f"error: {name}: ")

    @pytest.mark.parametrize("family", [None, ["gaussian"], "probit"])
    def test_family_must_be_known(self, tmp_path, family):
        cfg = {"potential": {"family": family, "d": 1}, "tuning": {"regime": "sc-i"}}
        if family is None:
            del cfg["potential"]["family"]
        assert "potential.family must be" in exits_2_with_one_line(tmp_path, "tune", cfg)

    @pytest.mark.parametrize(
        "command, diagnostics",
        [
            ("run", {}),
            ("verify", {"concentration": {"n": 100, "delta_grid": [0.05], "M": 10, "seed": 1}}),
            ("verify", {"test_phi": {"theta_alt": [1.0, 0.0], "n": 200, "r_n": 1.0, "M": 10,
                                     "seed": 1}}),
        ],
    )
    def test_theta_star_of_wrong_length_exits_2(self, tmp_path, command, diagnostics):
        cfg = json.loads((CONFIGS / "conjugate_posterior.json").read_text())
        cfg["model"]["theta_star"] = [0.4, -0.2, 0.1]  # d = 2
        cfg["diagnostics"] = diagnostics
        exits_2_with_one_line(tmp_path, command, cfg)


# small valid configs; the fuzz test breaks one value or adds one key
FUZZ_BASES = [
    ("tune", {
        "model": {"family": "gaussian_location", "d": 2, "params": {"precision": 1.0},
                  "theta_star": [0.4, -0.2], "alpha_c": 1.0, "b1": 1.0, "C_P": None},
        "prior": {"family": "standard_gaussian"},
        "data": {"n": 100, "seed": 7},
        "tuning": {"regime": "bayes-sc-i.a", "frak_e": 0.05, "calib": 1.0,
                   "x0_dist": 0.0, "certified_x0": False},
    }),
    ("verify", {
        "potential": {"family": "p_power", "d": 2, "params": {"p": 0.75, "center": 0.0}},
        "diagnostics": {"kl_profile": {"n_probes": 5, "radius": 1.0, "seed": 0},
                        "grad_bounds": {"n_probes": 5, "seed": 0}},
    }),
    ("verify", {
        "model": {"family": "gaussian_location", "d": 1, "params": {"precision": 1.0},
                  "theta_star": [0.0]},
        "diagnostics": {
            "concentration": {"n": 10, "delta_grid": [0.5], "M": 10, "seed": 1,
                              "statistic": "psi"},
            "test_phi": {"theta_alt": [1.0], "n": 10, "r_n": 1.0, "M": 10, "seed": 1,
                         "b1": 1.0, "b2": 1.0, "alpha_c": 1.0},
        },
    }),
    ("run", {
        "model": {"family": "gaussian_location", "d": 1, "params": {"precision": 1.0},
                  "theta_star": [0.5]},
        "prior": {"family": "standard_gaussian"},
        "data": {"n": 50, "seed": 7},
        "tuning": {"regime": "bayes-sc-i.a"},
        "run": {"M": 10, "base_seed": 3, "output_dir": "out"},
    }),
    ("run", {
        "potential": {"family": "gaussian", "d": 2,
                      "params": {"mean": [0.5, -0.5], "precision": 1.0}},
        "tuning": {"regime": "sc-i", "eps_grid": [0.4, 0.3]},
        "run": {"M": 10, "base_seed": 3},
    }),
    pytest.param("run", {
        "potential": LOGISTIC_POTENTIAL, "tuning": {"regime": "sc-i", "eps": 0.4},
        "run": {"M": 10, "base_seed": 3},
    }, marks=pytest.mark.compiled),
]
_NUM = {"int", "float"}
# the JSON types each key of FUZZ_BASES takes; any other key takes only objects
FUZZ_TAKES = {
    "family": {"str"}, "regime": {"str"}, "statistic": {"str"}, "certified_x0": {"bool"},
    "d": {"int"}, "n": {"int"}, "seed": {"int"}, "M": {"int"}, "n_probes": {"int"},
    "precision": _NUM, "p": _NUM, "alpha_c": _NUM, "b1": _NUM, "b2": _NUM, "eps": _NUM,
    "frak_e": _NUM, "calib": _NUM, "x0_dist": _NUM, "radius": _NUM, "r_n": _NUM,
    "C_P": _NUM | {"null"}, "theta_star": _NUM | {"list"}, "center": _NUM | {"list"},
    "theta_alt": _NUM | {"list"}, "delta_grid": {"list"},
    "kl_profile": {"bool", "dict"}, "grad_bounds": {"bool", "dict"},
    "base_seed": {"int"}, "output_dir": {"str"}, "mean": _NUM | {"list"}, "eps_grid": {"list"},
    "features": _NUM | {"list"}, "labels": {"list"}, "ridge": _NUM,
}
_SCALARS = {"null": st.none(), "bool": st.booleans(), "int": st.integers(),
            "float": st.floats(allow_nan=False, allow_infinity=False), "str": st.text(max_size=4)}
_JSON = st.recursive(st.one_of(*_SCALARS.values()),
                     lambda kids: st.lists(kids, max_size=3)
                     | st.dictionaries(st.text(max_size=4), kids, max_size=3),
                     max_leaves=4)
_JSON_TYPES = {**_SCALARS, "list": st.lists(_JSON, max_size=3),
               "dict": st.dictionaries(st.text(max_size=4), _JSON, max_size=3)}


def _paths(node, prefix=()):
    for key, val in node.items():
        yield prefix + (key,)
        if isinstance(val, dict):
            yield from _paths(val, prefix + (key,))


@st.composite
def malformed_configs(draw):
    command, base = draw(st.sampled_from([getattr(b, "values", b) for b in FUZZ_BASES]))
    cfg = copy.deepcopy(base)
    *parents, key = draw(st.sampled_from(list(_paths(cfg))))
    block = reduce(dict.__getitem__, parents, cfg)
    if draw(st.booleans()):
        takes = FUZZ_TAKES.get(key, {"dict"})
        block[key] = draw(st.one_of(*(s for t, s in _JSON_TYPES.items() if t not in takes)))
    else:  # no config key has an upper-case letter
        target = block[key] if isinstance(block[key], dict) else block
        target[draw(st.text("ABXYZ_", min_size=1, max_size=6))] = draw(_JSON)
    return command, cfg


@pytest.mark.parametrize("command, cfg", FUZZ_BASES)
def test_fuzz_bases_are_valid(tmp_path, capsys, command, cfg):
    if command != "run":
        assert main([command, "--config", write(tmp_path, "base.json", cfg)]) == 0
        return
    summary = run_summary(tmp_path, cfg)  # strict JSON: an exit-0 run writes no NaN
    assert summary.get("n_diverged", 0) > 0 or math.isfinite(summary.get("mse", 0.0))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=malformed_configs())
def test_malformed_config_exits_2_in_one_line(tmp_path_factory, case):
    command, cfg = case
    path = write(tmp_path_factory.getbasetemp(), "fuzz.json", cfg)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, "--config", path])
    assert code == 2
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


class TestGridExperiments:
    @pytest.mark.parametrize("cfg, section, key", [
        ({"potential": {"family": "gaussian", "d": 2, "params": {"mean": [0.5, -0.5]}},
          "tuning": {"regime": "sc-i", "eps_grid": [0.3, 0.2]}, "run": {"M": 20, "base_seed": 13}},
         "tuning", "eps"),
        (bayes_cfg(data={"n_grid": [100, 400, 1600], "seed": 7}), "data", "n"),
    ])
    def test_each_grid_row_is_the_one_point_run(self, tmp_path, capsys, cfg, section, key):
        grid = cfg[section][f"{key}_grid"]
        out = tmp_path / "grid"
        path = write(tmp_path, "grid.json", cfg)
        assert main(["run", "--config", path, "--output", str(out)]) == 0
        capsys.readouterr()
        assert main(["tune", "--config", path]) == 0
        plans = json.loads(capsys.readouterr().out)
        with open(next(out.glob("*-report.csv")), newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(row[key]) for row in rows] == grid
        for value, row, plan in zip(grid, rows, plans):
            one = copy.deepcopy(cfg)
            del one[section][f"{key}_grid"]
            one[section][key] = value
            (tmp_path / str(value)).mkdir()
            summary = run_summary(tmp_path / str(value), one)
            assert (float(row["mse"]), float(row["gamma"]), int(row["n_steps"])) == (
                summary["mse"], summary["plan"]["gamma"], summary["plan"]["n_steps"])
            assert plan == summary["plan"]  # tune prints the plans run uses
            eps = value if key == "eps" else plan["constants"]["eps_n"]  # a bayes plan's target
            assert float(row["mse_over_eps_sq"]) == summary["mse"] / eps**2
            if key == "n":  # the mean over the chains of |estimate - theta*|^2
                report = np.loadtxt(next((tmp_path / str(value) / "out").glob("*-report.csv")),
                                    delimiter=",", skiprows=1)
                errs = np.sum((report[:, 1:-1] - cfg["model"]["theta_star"]) ** 2, axis=1)
                assert float(row["mse_theta_star"]) == pytest.approx(errs.mean(), rel=1e-12)
        summary = strict_json(next(out.glob("*-summary.json")).read_text())
        assert summary["experiment"] == f"{key}_scaling" and summary[f"{key}_grid"] == grid
        assert summary["mse_over_eps_sq"] == [float(row["mse_over_eps_sq"]) for row in rows]
        if key == "n":  # the chains' error against theta_star, fitted on log n
            assert math.isfinite(summary["slope"]) and math.isfinite(summary["r2"])

    def test_eps_scaling_summary(self, tmp_path):
        cfg = {
            "potential": {"family": "gaussian", "d": 1, "params": {"precision": 1.0}},
            "tuning": {"regime": "sc-i", "eps_grid": [0.3, 0.2]},
            "run": {"M": 50, "base_seed": 13, "output_dir": "unused"},
        }
        path = write(tmp_path, "eps.json", cfg)
        out = tmp_path / "eps_out"
        assert main(["run", "--config", path, "--output", str(out)]) == 0
        summary = json.loads(sorted(out.glob("*-summary.json"))[0].read_text())
        assert summary["experiment"] == "eps_scaling"
        assert len(summary["mse_over_eps_sq"]) == 2
        assert summary["spread"] >= 1.0

    def test_phi_toggle(self, tmp_path, capsys):
        cfg = {
            "model": {"family": "gaussian_location", "d": 1, "params": {"precision": 1.0},
                      "theta_star": [0.0]},
            "diagnostics": {"test_phi": {"theta_alt": [1.0], "n": 200, "r_n": 1.0,
                                          "M": 2000, "seed": 17}},
        }
        path = write(tmp_path, "phi.json", cfg)
        assert main(["verify", "--config", path]) == 0
        assert "test_phi: PASS" in capsys.readouterr().out

    @pytest.mark.compiled
    def test_logistic_potential_block(self, tmp_path, capsys):
        cfg = {
            "potential": {"family": "logistic", "d": 1,
                          "params": {"features": [[1.0]], "labels": [1], "ridge": 1.0}},
            "tuning": {"regime": "sc-i", "eps": 0.2},
        }
        path = write(tmp_path, "lg.json", cfg)
        assert main(["tune", "--config", path]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["regime"] == "sc-i"
