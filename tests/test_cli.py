"""End-to-end tests for the command-line interface.

Every test drives ``cusplab.cli.main`` directly with an argv list and
inspects the JSON written to stdout plus any artifacts under a temporary
output directory, so the full parse -> run -> emit pipeline is covered
without spawning subprocesses.  Only ``TestVerbose`` runs the CLI in a
child process, to read the standard error its logging writes to, and
``TestNumpyOnlyRuntime``, to see the modules a fresh process imports.
"""

import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import cusplab
from cusplab import cli, experiments
from cusplab.cli import main
from cusplab.estimators import bayes
from cusplab.path_sim import TimeGrid, replication_rng, simulate_path
from cusplab.signal_models import signal_from_config
from cusplab.limit_laws import (
    default_xi_window,
    default_zeta_window,
    fisher_info_kappa,
    gamma_squared,
)

GAMMA_SQ_REF = 0.511988584660
FISHER_REF = 1.081184249478
CUSP_BLOCK = {"family": "cusp", "a": 1.0, "kappa": 0.25, "T": 1.0,
              "theta_bounds": [0.35, 0.65]}
QUADRATIC_BLOCK = {"family": "quadratic", "c0": 0.0, "c1": 1.0, "c2": 0.5, "T": 1.0}


def _run(capsys, argv):
    """Invoke the CLI and return (exit_code, parsed_stdout_json)."""
    code = main(argv)
    out = capsys.readouterr().out
    payload = json.loads(out) if out.strip() else None
    return code, payload


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestConstants:
    def test_default_constants(self, capsys):
        code, payload = _run(capsys, ["constants"])
        assert code == 0
        assert payload["a"] == 1.0
        assert payload["kappa"] == 0.25
        assert payload["hurst"] == pytest.approx(0.75)
        assert payload["gamma_sq"] == pytest.approx(GAMMA_SQ_REF, rel=1e-9)
        assert payload["gamma"] == pytest.approx(math.sqrt(GAMMA_SQ_REF), rel=1e-9)
        assert payload["fisher_kappa"] == pytest.approx(FISHER_REF, rel=1e-9)
        assert payload["location_rate_exponent"] == pytest.approx(1.0 / 0.75)
        assert payload["misspec_rate_exponent"] == pytest.approx(0.8)
        assert "schema_version" in payload

    def test_custom_parameters(self, capsys):
        code, payload = _run(
            capsys, ["constants", "--a", "2.0", "--kappa", "0.4", "--rho", "0.3"]
        )
        assert code == 0
        assert payload["hurst"] == pytest.approx(0.9)
        assert payload["gamma_sq"] == pytest.approx(gamma_squared(2.0, 0.4), rel=1e-12)
        assert payload["fisher_kappa"] == pytest.approx(
            fisher_info_kappa(2.0, 0.3, 1.0, 0.4), rel=1e-12
        )
        assert payload["misspec_rate_exponent"] == pytest.approx(2.0 / 2.2)

    def test_invalid_kappa_exits_1(self, capsys):
        code, _ = _run(capsys, ["constants", "--kappa", "0.6"])
        assert code == 1


class TestSimulate:
    def test_zero_noise_dump(self, capsys, tmp_path):
        config = _write_config(
            tmp_path,
            {"theta_true": 0.5, "epsilon": 0.02, "n_steps": 600},
        )
        out = tmp_path / "paths"
        code, payload = _run(
            capsys,
            [
                "simulate", "--config", config, "--zero-noise",
                "--dump-paths", "--replications", "2",
                "--out", str(out), "--seed", "3",
            ],
        )
        assert code == 0
        assert payload["replications"] == 2
        assert payload["zero_noise"] is True
        assert payload["master_seed"] == 3
        assert len(payload["files"]) == 2
        # Zero-noise final value approximates the integral of the drift.
        integral = 2.0 * 0.5**1.25 / 1.25
        assert payload["final_values"][0] == pytest.approx(integral, abs=5e-3)
        for name in payload["files"]:
            with open(name, "r", encoding="utf-8") as handle:
                rows = list(csv.reader(handle))
            assert rows[0] == ["t", "x"]
            assert len(rows) == 600 + 2  # header plus n+1 cumulative values
        # The dumped path agrees with the reported final value exactly.
        assert float(rows[-1][1]) == payload["final_values"][1]

    def test_same_seed_reproduces(self, capsys, tmp_path):
        argv = ["simulate", "--seed", "11", "--replications", "3",
                "--out", str(tmp_path),
                "--config", _write_config(tmp_path, {"n_steps": 300, "epsilon": 0.05})]
        code_a, payload_a = _run(capsys, argv)
        code_b, payload_b = _run(capsys, argv)
        assert code_a == code_b == 0
        assert payload_a["final_values"] == payload_b["final_values"]

    def test_domain_error_leaves_no_output_directory(self, capsys, caplog, tmp_path):
        config = _write_config(tmp_path, {"theta_true": 0.9, "epsilon": 0.05,
                                          "n_steps": 300})
        code, payload = _run(capsys, ["simulate", "--config", config,
                                      "--out", str(tmp_path / "o1")])
        assert code == 1
        assert payload is None
        assert "theta=0.9 outside theta_bounds [0.35, 0.65]" in caplog.text
        assert not (tmp_path / "o1").exists()

    def test_seeds_differ(self, capsys, tmp_path):
        config = _write_config(tmp_path, {"n_steps": 300, "epsilon": 0.05})
        base = ["simulate", "--config", config, "--out", str(tmp_path)]
        _, payload_a = _run(capsys, base + ["--seed", "1"])
        _, payload_b = _run(capsys, base + ["--seed", "2"])
        assert payload_a["final_values"] != payload_b["final_values"]

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_nonpositive_replications_exit_1(self, capsys, tmp_path, count):
        # a count below 1 is an error, not a fallback to the config count
        config = _write_config(tmp_path, {"n_steps": 300, "replications": 2})
        code, payload = _run(capsys, ["simulate", "--config", config,
                                      "--replications", count,
                                      "--out", str(tmp_path)])
        assert code == 1
        assert payload is None


class TestEstimate:
    def test_zero_noise_mle_recovers_location(self, capsys, tmp_path):
        config = _write_config(
            tmp_path,
            {"theta_true": 0.45, "epsilon": 0.02, "n_steps": 2000},
        )
        code, payload = _run(
            capsys, ["estimate", "--config", config, "--zero-noise"]
        )
        assert code == 0
        assert payload["estimator"] == "mle"
        assert payload["estimate"] == pytest.approx(0.45, abs=5e-4)
        assert payload["boundary"] is False
        assert payload["rate"] == pytest.approx(0.02 ** (1.0 / 0.75), rel=1e-12)
        assert payload["grid_step"] <= payload["rate"] / 50.0 + 1e-15
        assert payload["refinement_levels"] >= 1

    def test_bayes_with_prior_config(self, capsys, tmp_path):
        config = _write_config(
            tmp_path,
            {
                "estimator": "bayes",
                "theta_true": 0.5,
                "epsilon": 0.05,
                "n_steps": 800,
                "prior": {"name": "truncated_normal", "mean": 0.5, "std": 0.1},
            },
        )
        code, payload = _run(
            capsys, ["estimate", "--config", config, "--zero-noise"]
        )
        assert code == 0
        assert payload["estimator"] == "bayes"
        assert payload["estimate"] == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("estimator", ["mle", "bayes"])
    def test_emits_boundary_mass(self, capsys, tmp_path, estimator):
        # bounds narrower than the rate: the posterior spreads to the edges
        signal = {**CUSP_BLOCK, "theta_bounds": [0.49, 0.51]}
        settings = {"estimator": estimator, "signal": signal, "theta_true": 0.5,
                    "epsilon": 0.05, "n_steps": 800, "master_seed": 4}
        code, payload = _run(capsys, ["estimate", "--config",
                                      _write_config(tmp_path, settings)])
        assert code == 0
        if estimator == "mle":
            assert payload["boundary_mass"] == 0.0
            return
        cusp = signal_from_config(signal)
        path = simulate_path(cusp, 0.5, 0.05, TimeGrid(1.0, 800),
                             rng=replication_rng(4, 0))
        assert payload["boundary_mass"] == bayes(path, cusp).boundary_mass
        assert 0.0 < payload["boundary_mass"] < 1.0

    def test_unknown_estimator_exits_1(self, capsys, tmp_path):
        config = _write_config(tmp_path, {"estimator": "ridge"})
        code, _ = _run(capsys, ["estimate", "--config", config])
        assert code == 1

    @pytest.mark.parametrize("config,message", [
        ({"estimator": "ridge"}, "unknown estimator 'ridge'"),
        ({"estimator": "mle", "prior": {"name": "bogus"}}, "unknown prior 'bogus'"),
        ({"estimator": "mle", "prior": {"name": "truncated_normal", "mean": 0.5}},
         "missing ['std']"),
    ])
    def test_whole_config_read_before_simulating(
        self, capsys, caplog, tmp_path, monkeypatch, config, message
    ):
        def simulated(*args, **kwargs):
            raise AssertionError("path simulated before the config was read")

        monkeypatch.setattr("cusplab.cli.simulate_path", simulated)
        code, payload = _run(capsys, ["estimate", "--config",
                                      _write_config(tmp_path, config)])
        assert code == 1
        assert payload is None
        assert message in caplog.text

    @pytest.mark.parametrize("estimator", ["mle", "bayes"])
    def test_signal_without_cusp_exponent_exits_1(self, capsys, caplog, tmp_path, estimator):
        signal = {"family": "quadratic", "c0": 0.0, "c1": 1.0, "c2": 0.5, "T": 1.0}
        config = _write_config(tmp_path, {"estimator": estimator, "signal": signal,
                                          "n_steps": 400})
        code, payload = _run(capsys, ["estimate", "--config", config])
        assert code == 1
        assert payload is None
        assert "QuadraticSignal" in caplog.text


class TestLimitLaw:
    def test_xi_samples_csv(self, capsys, tmp_path):
        code, payload = _run(
            capsys,
            ["limit-law", "--replications", "10", "--out", str(tmp_path),
             "--seed", "5"],
        )
        assert code == 0
        assert payload["law"] == "xi"
        assert payload["count"] == 10
        assert payload["gamma_sq"] == pytest.approx(GAMMA_SQ_REF, rel=1e-9)
        with open(payload["csv"], "r", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["sample_id", "xi_hat", "xi_tilde", "edge_flag"]
        assert len(rows) == 11
        values = [float(r[1]) for r in rows[1:]]
        assert np.all(np.isfinite(values))
        assert payload["mean_abs_xi_hat"] == pytest.approx(
            np.abs(values).mean(), rel=1e-12
        )
        w = default_xi_window(payload["gamma_sq"], 0.75)
        assert payload["window"] == {"U": w.U, "du": w.du, "node_count": w.node_count}

    def test_kappa_law_csv(self, capsys, tmp_path):
        config = _write_config(tmp_path, {"law": "kappa", "count": 5000})
        code, payload = _run(
            capsys, ["limit-law", "--config", config, "--out", str(tmp_path)]
        )
        assert code == 0
        assert payload["law"] == "kappa"
        assert payload["count"] == 5000
        assert payload["limit_variance"] == pytest.approx(1.0 / FISHER_REF, rel=1e-9)
        assert payload["variance"] == pytest.approx(1.0 / FISHER_REF, rel=0.1)
        with open(payload["csv"], "r", encoding="utf-8") as handle:
            header = handle.readline().strip()
        assert header == "sample_id,kappa_limit"

    def test_zeta_law_with_explicit_curvature(self, capsys, tmp_path):
        config = _write_config(
            tmp_path, {"law": "zeta", "curvature": 1.9606, "count": 50}
        )
        code, payload = _run(
            capsys, ["limit-law", "--config", config, "--out", str(tmp_path)]
        )
        assert code == 0
        assert payload["law"] == "zeta"
        assert payload["curvature"] == pytest.approx(1.9606)
        assert payload["mean_sq_zeta"] > 0.0
        w = default_zeta_window(payload["noise_scale"], payload["curvature"], 0.75)
        assert payload["window"] == {"U": w.U, "du": w.du, "node_count": w.node_count}
        with open(payload["csv"], "r", encoding="utf-8") as handle:
            header = handle.readline().strip()
        assert header == "sample_id,zeta_hat,edge_flag"

    @pytest.mark.parametrize("law,count,flag", [
        ("xi", 5, "0"),
        ("zeta", 5, "-1"),
        ("kappa", -3, None),
        ("kappa", 1, None),
        ("kappa", 5, "1"),
    ])
    def test_bad_count_exits_1(self, capsys, tmp_path, law, count, flag):
        # the kappa summary is a ddof=1 variance, so it needs two draws
        argv = ["limit-law", "--config",
                _write_config(tmp_path, {"law": law, "count": count}),
                "--out", str(tmp_path)]
        code, payload = _run(capsys, argv + (["--replications", flag] if flag else []))
        assert code == 1
        assert payload is None
        assert not (tmp_path / f"limit_{law}_samples.csv").exists()

    def test_kappa_law_two_draws(self, capsys, tmp_path):
        config = _write_config(tmp_path, {"law": "kappa", "count": 2})
        code, payload = _run(capsys, ["limit-law", "--config", config,
                                      "--out", str(tmp_path)])
        assert code == 0
        assert math.isfinite(payload["variance"])

    def test_unknown_law_exits_1(self, capsys, tmp_path):
        config = _write_config(tmp_path, {"law": "eta"})
        code, _ = _run(capsys, ["limit-law", "--config", config,
                                "--out", str(tmp_path / "out")])
        assert code == 1
        assert not (tmp_path / "out").exists()

    def test_domain_error_leaves_no_output_directory(self, capsys, caplog, tmp_path):
        config = _write_config(tmp_path, {"law": "xi", "kappa": 0.7})
        code, payload = _run(capsys, ["limit-law", "--config", config,
                                      "--out", str(tmp_path / "o1")])
        assert code == 1
        assert payload is None
        assert "kappa must lie in (0, 1/2)" in caplog.text
        assert not (tmp_path / "o1").exists()


class TestMisspec:
    def test_solution_record(self, capsys, tmp_path):
        code, payload = _run(capsys, ["misspec", "--out", str(tmp_path)])
        assert code == 0
        assert payload["theta_hat"] == pytest.approx(0.5, abs=1e-6)
        assert payload["min_distance"] == pytest.approx(0.04189245, rel=1e-4)
        assert payload["curvature_closed"] == pytest.approx(1.960601, rel=1e-5)
        assert abs(
            payload["curvature_closed"] - payload["curvature_fd"]
        ) / payload["curvature_closed"] < 1e-3
        assert payload["uniqueness_certificate"] > 0.0
        assert payload["rate_exponent"] == pytest.approx(0.8)
        on_disk = json.loads(
            (tmp_path / "misspec_solution.json").read_text(encoding="utf-8")
        )
        assert on_disk == payload

    def test_minimizer_on_the_bound_exits_1(self, capsys, caplog, tmp_path):
        config = _write_config(tmp_path, {"center": 0.6499})
        code, payload = _run(capsys, ["misspec", "--config", config,
                                      "--out", str(tmp_path / "out")])
        assert code == 1
        assert payload is None
        assert "must be interior to (0.35, 0.65)" in caplog.text
        assert "outside parameter bounds" not in caplog.text


class TestSweeps:
    def test_rate_sweep_writes_artifacts(self, capsys, tmp_path):
        config = _write_config(
            tmp_path,
            {
                "scenario": "cusp-mle",
                "epsilons": [0.05],
                "replications": 6,
                "n_steps": 400,
                "limit_samples": 10,
                "master_seed": 1,
            },
        )
        out = tmp_path / "results"
        code, payload = _run(
            capsys,
            ["rate", "--config", config, "--out", str(out), "--zero-noise"],
        )
        assert code == 0
        assert payload["schema_version"] >= 1
        effective = payload["effective_config"]
        assert effective["scenario"] == "cusp-mle"
        assert effective["zero_noise"] is True
        assert effective["out_dir"] == str(out)
        assert (out / "cusp_mle_samples.csv").exists()
        assert (out / "cusp_mle_report.json").exists()
        assert "rows" not in payload
        summary = payload["summaries"][0]
        assert summary["estimator"] == "mle"
        assert summary["count"] == 6
        assert summary["mean_abs_error"] < 1e-3

    def test_coarse_step_at_target_gives_finite_rows(self, capsys, tmp_path):
        # at eps 0.05 the coarse step of bounds (0.4999, 0.5001) is already
        # below the refinement target: no level runs, no row may be nan
        config = _write_config(tmp_path, {
            "scenario": "cusp-mle", "epsilons": [0.05], "replications": 4,
            "n_steps": 400, "limit_samples": 10,
            "signal": {"theta_bounds": [0.4999, 0.5001]},
        })
        out = tmp_path / "results"
        code, payload = _run(capsys, ["rate", "--config", config, "--out", str(out)])
        assert code == 0
        (summary,) = payload["summaries"]
        assert summary["failures"] == 0
        assert math.isfinite(summary["mean_abs_error"])
        with open(out / "cusp_mle_samples.csv", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4
        assert all(0.4999 <= float(r["estimate"]) <= 0.5001 for r in rows)

    def test_cli_overrides_win(self, capsys, tmp_path):
        config = _write_config(
            tmp_path,
            {
                "scenario": "cusp-mle",
                "epsilons": [0.05, 0.02],
                "replications": 9,
                "n_steps": 400,
                "limit_samples": 10,
                "master_seed": 1,
            },
        )
        code, payload = _run(
            capsys,
            [
                "rate", "--config", config, "--out", str(tmp_path / "o"),
                "--zero-noise", "--seed", "7", "--replications", "4",
                "--epsilon", "0.04",
            ],
        )
        assert code == 0
        effective = payload["effective_config"]
        assert effective["master_seed"] == 7
        assert effective["replications"] == 4
        assert effective["epsilons"] == [0.04]

    @pytest.mark.parametrize("text", ["abc", ",", "0.05,x"])
    def test_unparsable_epsilon_list_is_usage_error(self, capsys, tmp_path, text):
        config = _write_config(tmp_path, {"scenario": "cusp-mle", "epsilons": [0.05]})
        code, payload = _run(capsys, ["rate", "--config", config, "--epsilon", text,
                                      "--out", str(tmp_path / "e")])
        assert code == 1
        assert payload is None
        assert not (tmp_path / "e").exists()

    def test_kappa_subcommand_forces_scenario(self, capsys, tmp_path):
        config = _write_config(
            tmp_path,
            {
                "scenario": "cusp-mle",
                "epsilons": [0.05],
                "replications": 3,
                "n_steps": 400,
                "limit_samples": 10,
            },
        )
        code, payload = _run(
            capsys,
            ["kappa", "--config", config, "--out", str(tmp_path / "k"),
             "--zero-noise"],
        )
        assert code == 0
        assert payload["effective_config"]["scenario"] == "kappa"
        summary = payload["summaries"][0]
        assert summary["estimator"] == "kappa_mle"
        assert summary["mean_abs_error"] < 1e-3

    def test_boundary_pileup_exits_2(self, capsys, tmp_path):
        config = _write_config(
            tmp_path,
            {
                "scenario": "cusp-mle",
                "epsilons": [0.05],
                "replications": 120,
                "n_steps": 300,
                "limit_samples": 10,
                "signal": {"theta0": 0.35},
            },
        )
        code, _ = _run(
            capsys,
            ["rate", "--config", config, "--out", str(tmp_path / "b"),
             "--zero-noise"],
        )
        assert code == 2

    def test_true_parameter_outside_bounds_exits_1(self, capsys, tmp_path):
        config = _write_config(
            tmp_path,
            {
                "scenario": "cusp-mle",
                "epsilons": [0.05],
                "replications": 8,
                "n_steps": 200,
                "signal": {"theta0": 0.9},
            },
        )
        code, payload = _run(
            capsys,
            ["rate", "--config", config, "--out", str(tmp_path / "t")],
        )
        assert code == 1
        assert payload is None

    def test_joint_kappa_bounds_reaching_half_exits_1(self, capsys, caplog, tmp_path):
        # the exponent bounds must stay below 1/2, where the location rate
        # is defined; the sweep used to die mid-run naming no config key
        config = _write_config(tmp_path, {
            "epsilons": [0.05], "replications": 20, "n_steps": 1000,
            "signal": {"kappa0": 0.45, "kappa_bounds": [0.05, 0.6]},
        })
        out = tmp_path / "j"
        code, payload = _run(
            capsys, ["joint", "--config", config, "--seed", "1", "--out", str(out)]
        )
        assert code == 1
        assert payload is None
        assert "kappa_bounds" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("command,scenario", [
        ("rate", "cusp-bayes"), ("joint", "joint"),
    ])
    def test_single_replication_exits_1_before_any_output(
        self, capsys, caplog, tmp_path, command, scenario
    ):
        # one replication per level leaves every standard error of the
        # report NaN (moment comparison, component correlation)
        config = _write_config(tmp_path, {
            "scenario": scenario, "epsilons": [0.05], "n_steps": 2000,
            "replications": 1,
        })
        out = tmp_path / "one"
        code, payload = _run(capsys, [command, "--config", config, "--out", str(out)])
        assert code == 1
        assert payload is None
        assert "replications must be >= 2, got 1" in caplog.text
        assert not out.exists()

    def test_domain_error_exits_1(self, capsys, tmp_path):
        config = _write_config(
            tmp_path,
            {
                "scenario": "kappa",
                "epsilons": [0.05],
                "replications": 2,
                "n_steps": 200,
                "signal": {"kappa0": 0.5},
            },
        )
        code, _ = _run(
            capsys,
            ["rate", "--config", config, "--out", str(tmp_path / "d")],
        )
        assert code == 1


#: (subcommand, flag) pairs where the subcommand does not read the flag.
DEAD_FLAGS = [
    ("simulate", "--threads"), ("simulate", "--epsilon"),
    ("estimate", "--out"), ("estimate", "--threads"), ("estimate", "--epsilon"),
    ("estimate", "--replications"),
    ("limit-law", "--threads"), ("limit-law", "--zero-noise"), ("limit-law", "--epsilon"),
    ("misspec", "--seed"), ("misspec", "--threads"), ("misspec", "--zero-noise"),
    ("misspec", "--epsilon"), ("misspec", "--replications"),
]
FLAG_VALUES = {"--threads": ["2"], "--epsilon": ["0.5"], "--out": ["out"],
               "--replications": ["3"], "--zero-noise": [], "--seed": ["1"]}


class TestVerbose:
    """``-v`` adds the sweep's wall times to stderr and changes no output."""

    def test_sweep_timings_on_stderr_only(self, tmp_path):
        config = _write_config(tmp_path, {
            "scenario": "cusp-bayes", "epsilons": [0.05], "replications": 8,
            "n_steps": 400, "limit_samples": 50,
        })
        out = tmp_path / "out"
        env = _child_env()
        runs = []
        for verbose in ([], ["-v"]):
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from cusplab.cli import main; "
                 "sys.exit(main(sys.argv[1:]))", "rate", "--config", config,
                 "--seed", "3", "--out", str(out), *verbose],
                capture_output=True, text=True, env=env, timeout=300, check=True)
            runs.append((proc, (out / "cusp_bayes_report.json").read_bytes()))
        (quiet, quiet_report), (loud, loud_report) = runs
        message = "cusp-bayes: cells took"
        assert message in loud.stderr and "compare waited" in loud.stderr
        assert message not in quiet.stderr
        assert message not in loud.stdout
        assert loud.stdout == quiet.stdout
        assert loud_report == quiet_report

    def test_verbose_holds_for_a_later_call_in_the_process(self, caplog, tmp_path):
        config = _write_config(tmp_path, {
            "scenario": "cusp-bayes", "epsilons": [0.05], "replications": 4,
            "n_steps": 400, "limit_samples": 50,
        })
        argv = ["rate", "--config", config, "--seed", "3", "--out", str(tmp_path / "out")]
        messages = []
        for verbose in ([], ["-v"]):
            caplog.clear()
            assert main(argv + verbose) == 0
            messages.append(caplog.text)
        quiet, loud = messages
        assert "cells took" not in quiet
        assert "cells took" in loud


def _child_env() -> dict:
    """The environment with this checkout's ``src`` first on ``PYTHONPATH``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cusplab.__file__)))
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestNumpyOnlyRuntime:
    """No subcommand imports scipy: the runtime needs numpy alone."""

    CHILD = (
        "import json, sys\n"
        "from cusplab.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "names = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "with open(sys.argv[2], 'w') as handle:\n"
        "    json.dump(sorted(names), handle)\n"
    )

    def test_subcommands_leave_scipy_unimported(self, tmp_path):
        out = str(tmp_path / "out")
        misspec = _write_config(tmp_path, {}, "misspec.json")
        xi = _write_config(tmp_path, {"law": "xi", "count": 50}, "xi.json")
        zeta = _write_config(tmp_path, {"law": "zeta", "count": 50}, "zeta.json")
        rate = _write_config(tmp_path, {
            "scenario": "cusp-bayes", "epsilons": [0.05], "replications": 8,
            "n_steps": 400, "limit_samples": 50,
        }, "rate.json")
        joint = _write_config(tmp_path, {
            "epsilons": [0.01], "replications": 10, "n_steps": 1000, "limit_samples": 50,
        }, "joint.json")
        argvs = [
            ["constants"],
            ["misspec", "--config", misspec, "--out", out],
            ["limit-law", "--config", xi, "--out", out],
            ["limit-law", "--config", zeta, "--out", out],
            ["rate", "--config", rate, "--out", out],
            ["joint", "--config", joint, "--out", out],
        ]
        found = tmp_path / "scipy_modules.json"
        subprocess.run(
            [sys.executable, "-c", self.CHILD, json.dumps(argvs), str(found)],
            capture_output=True, text=True, env=_child_env(), timeout=300, check=True)
        assert json.loads(found.read_text()) == []


class TestOneDefinitionPerLaw:
    """``limit-law`` draws the laws of ``cusplab.experiments``, which the
    sweeps draw too, and derives none of their chains itself."""

    @pytest.mark.parametrize("name", [
        "sample_xi_batch", "sample_zeta_batch", "sample_kappa_limit",
        "default_xi_window", "default_zeta_window", "zeta_scale",
    ])
    def test_cli_binds_no_sampler_or_window(self, name):
        assert not hasattr(cli, name)

    @pytest.mark.parametrize("config,law", [
        ({"law": "xi", "a": 1.5, "kappa": 0.3}, lambda: experiments.xi_law(1.5, 0.3)),
        ({"law": "zeta", "kappa": 0.2, "delta": 0.04},
         lambda: experiments.zeta_law(
             experiments.misspec_problem({"kappa": 0.2, "delta": 0.04}), None)),
        ({"law": "zeta", "curvature": 1.9606},
         lambda: experiments.zeta_law(experiments.misspec_problem({}), 1.9606)),
        ({"law": "kappa", "a": 2.0, "rho": 0.4, "kappa": 0.15},
         lambda: experiments.kappa_law(2.0, 0.4, 1.0, 0.15)),
    ])
    def test_samples_csv_is_the_law_draw(self, capsys, tmp_path, config, law):
        path = _write_config(tmp_path, {**config, "count": 40, "master_seed": 11})
        code, payload = _run(capsys, ["limit-law", "--config", path,
                                      "--out", str(tmp_path)])
        assert code == 0
        law = law()
        with open(payload["csv"], "r", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["sample_id", *law.columns]
        assert [int(r[0]) for r in rows[1:]] == list(range(40))
        drawn = law.draw(40, replication_rng(11, 0))
        for j, column in enumerate(drawn, start=1):
            cast = int if column.dtype == bool else float
            assert [cast(r[j]) for r in rows[1:]] == column.astype(cast).tolist()
        assert {k: payload[k] for k in law.constants} == law.constants


class TestFlagsAndKeys:
    @pytest.mark.parametrize("command,flag", DEAD_FLAGS)
    def test_flag_the_subcommand_does_not_read_is_usage_error(
        self, capsys, tmp_path, monkeypatch, command, flag
    ):
        monkeypatch.chdir(tmp_path)
        code, payload = _run(capsys, [command, flag, *FLAG_VALUES[flag]])
        assert code == 1
        assert payload is None
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command,config", [
        ("simulate", {"epsilon": 0.05, "n_step": 300}),
        ("estimate", {"estmator": "bayes"}),
        ("limit-law", {"law": "xi", "cont": 5}),
        ("limit-law", {"law": "zeta", "count": 5, "noise_coefficient": "amplitude"}),
        ("misspec", {"kapa": 0.3}),
        ("rate", {"replication": 5}),
    ])
    def test_unknown_config_key_exits_1_before_any_output(
        self, capsys, caplog, tmp_path, monkeypatch, command, config
    ):
        monkeypatch.chdir(tmp_path)
        argv = [command, "--config", _write_config(tmp_path, config)]
        if command != "estimate":
            argv += ["--out", str(tmp_path / "out")]
        code, payload = _run(capsys, argv)
        assert code == 1
        assert payload is None
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
        (unknown,) = set(config) - {"law", "epsilon", "count"}
        assert unknown in caplog.text

    @pytest.mark.parametrize("command,config,key", [
        ("simulate", {"epsilon": "0.05"}, "epsilon"),
        ("limit-law", {"law": "xi", "count": "5"}, "count"),
        ("limit-law", {"law": "kappa", "count": 2.5}, "count"),
        ("rate", {"replications": "5"}, "replications"),
        ("rate", {"replications": 2.5}, "replications"),
        ("rate", {"epsilons": "0.05"}, "epsilons"),
        ("rate", {"master_seed": "x"}, "master_seed"),
        ("rate", {"signal": {"kappa": "0.25"}}, "signal.kappa"),
        ("rate", {"scenario": ["cusp-mle"]}, "scenario"),
        ("rate", {"scenario": "cusp"}, "scenario"),
        # a tuple default fixes the length: bounds are pairs
        ("misspec", {"theta_bounds": [0.35]}, "theta_bounds"),
        ("limit-law", {"law": "zeta", "theta_bounds": [0.35]}, "theta_bounds"),
        ("kappa", {"signal": {"kappa_bounds": [0.05]}}, "signal.kappa_bounds"),
        ("joint", {"signal": {"theta_bounds": [0.35, 0.5, 0.65]}},
         "signal.theta_bounds"),
    ])
    def test_mistyped_config_value_exits_1_before_any_output(
        self, capsys, caplog, tmp_path, command, config, key
    ):
        argv = [command, "--config", _write_config(tmp_path, config),
                "--out", str(tmp_path / "out")]
        code, payload = _run(capsys, argv)
        assert code == 1
        assert payload is None
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
        assert f"config.{key}=" in caplog.text

    @pytest.mark.parametrize("command", [
        "simulate", "limit-law", "misspec", "rate", "kappa", "joint",
    ])
    def test_mistyped_value_of_a_flagged_key_exits_1(
        self, capsys, caplog, tmp_path, command
    ):
        # the file is checked before --out overrides its out_dir; the rest
        # of the config keeps a sweep that got past the check small
        config = {"out_dir": 5}
        if command in ("rate", "kappa", "joint"):
            config.update(replications=2, epsilons=[0.05], n_steps=200,
                          limit_samples=10)
        argv = [command, "--config", _write_config(tmp_path, config),
                "--out", str(tmp_path / "out")]
        code, payload = _run(capsys, argv)
        assert code == 1
        assert payload is None
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
        assert "config.out_dir=5 must be a string" in caplog.text

    @pytest.mark.parametrize("command,config,named", [
        ("estimate", {"estimator": "bayes", "prior": {
            "name": "truncated_normal", "mean": "0.5", "std": 0.1}}, "mean='0.5'"),
        ("estimate", {"estimator": "bayes", "prior": {
            "name": "truncated_normal", "mean": 0.5, "std": True}}, "std=True"),
        ("estimate", {"estimator": "bayes", "prior": {
            "name": "truncated_normal", "mean": "x", "std": 0.1}}, "mean='x'"),
        ("estimate", {"signal": {**CUSP_BLOCK, "nuisance": {
            "name": "constant", "level": "0.3"}}}, "level='0.3'"),
        ("simulate", {"signal": {**QUADRATIC_BLOCK, "c0": "1.5"}}, "c0='1.5'"),
        ("simulate", {"signal": {**QUADRATIC_BLOCK, "c0": "x"}}, "c0='x'"),
        ("simulate", {"signal": {**CUSP_BLOCK, "typo": 3}}, "unknown ['typo']"),
        ("kappa", {"prior": {"name": "bogus"}}, "unknown prior 'bogus'"),
    ])
    def test_mistyped_block_parameter_exits_1_before_any_output(
        self, capsys, caplog, tmp_path, command, config, named
    ):
        argv = [command, "--config", _write_config(tmp_path, config)]
        if command != "estimate":
            argv += ["--out", str(tmp_path / "out")]
        code, payload = _run(capsys, argv)
        assert code == 1
        assert payload is None
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
        assert named in caplog.text

    def test_values_of_the_default_type_accepted(self, capsys, tmp_path):
        # an int where the default is a float, a null curvature (its default)
        config = _write_config(tmp_path, {"law": "zeta", "count": 3, "a": 1,
                                          "curvature": None})
        code, payload = _run(capsys, ["limit-law", "--config", config,
                                      "--out", str(tmp_path)])
        assert code == 0
        assert payload["count"] == 3

    @pytest.mark.parametrize("command,config,count_key", [
        ("simulate", {"n_steps": 300, "epsilon": 0.05}, "replications"),
        ("limit-law", {"law": "xi"}, "count"),
        ("rate", {"scenario": "cusp-mle", "epsilons": [0.05], "n_steps": 400,
                  "limit_samples": 10}, "replications"),
    ])
    def test_seed_and_replications_override_config(
        self, capsys, tmp_path, command, config, count_key
    ):
        out = ["--out", str(tmp_path)]
        flagged = _write_config(tmp_path, {**config, "master_seed": 1, count_key: 5},
                                "flagged.json")
        code, payload = _run(capsys, [command, "--config", flagged, *out,
                                      "--seed", "9", "--replications", "3"])
        assert code == 0
        # a sweep report echoes its settings under effective_config
        effective = payload.get("effective_config", payload)
        assert effective["master_seed"] == 9
        assert effective[count_key] == 3
        plain = _write_config(tmp_path, {**config, "master_seed": 9, count_key: 3},
                              "plain.json")
        assert _run(capsys, [command, "--config", plain, *out]) == (0, payload)


class TestErrorHandling:
    def test_missing_config_exits_1(self, capsys, tmp_path):
        code, _ = _run(
            capsys, ["simulate", "--config", str(tmp_path / "nope.json")]
        )
        assert code == 1

    def test_invalid_json_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json", encoding="utf-8")
        code, _ = _run(capsys, ["estimate", "--config", str(path)])
        assert code == 1

    def test_non_object_json_exits_1(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        code, _ = _run(capsys, ["estimate", "--config", str(path)])
        assert code == 1

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
