"""Tests for the Monte Carlo experiment harness."""

import csv
import json
import math
import threading
import time
import traceback

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cusplab import estimators, experiments, limit_laws
from cusplab.cli import _load_config, main
from cusplab.errors import (
    ConfigError,
    DomainError,
    ExperimentError,
    NumericalDegeneracyError,
)
from cusplab.estimators import (
    bayes,
    joint_mle,
    kappa_mle,
    location_rate,
    misspec_rate,
    mle,
    prior_from_config,
    pseudo_mle,
)
from cusplab.experiments import (
    CSV_HEADER,
    SCHEMA_VERSION,
    ExperimentConfig,
    experiment_config_from_dict,
    fit_rate,
    ks_statistic,
    separation_bound_fit,
    tail_bound_fit,
    moment_compare,
    run_and_write,
    run_experiment,
    write_rows_csv,
)
from cusplab.limit_laws import sample_kappa_limit, sample_xi_batch
from cusplab.path_sim import TimeGrid, replication_rng, simulate_path
from cusplab.signal_models import CuspSignal, MultiCuspSignal

EPS_SINGLE = (0.05,)

#: Small settings each scenario runs at in a few seconds.
SMALL = {
    "cusp-mle": {},
    "cusp-bayes": {},
    "multi-cusp": {},
    "misspec": {"replications": 12},
    "kappa": {"epsilons": (0.01,), "replications": 12, "n_steps": 2000},
    "joint": {"epsilons": (0.01,), "replications": 10, "n_steps": 1000},
}


def _tiny(scenario="cusp-mle", **kwargs):
    defaults = dict(
        scenario=scenario,
        epsilons=EPS_SINGLE,
        replications=16,
        master_seed=1,
        n_steps=400,
        limit_samples=50,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestKsStatistic:
    def test_identical_samples(self):
        x = [0.1, 0.5, 0.9]
        assert ks_statistic(x, x) == 0.0

    def test_disjoint_supports(self):
        a = [0.0, 0.2, 0.4]
        b = [1.0, 1.5, 2.0]
        assert ks_statistic(a, b) == 1.0

    def test_hand_computed_example(self):
        assert ks_statistic([0.0, 1.0], [0.5]) == pytest.approx(0.5)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scipy_on_random_input(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=rng.integers(5, 60))
        b = rng.normal(0.3, 1.2, size=rng.integers(5, 60))
        assert ks_statistic(a, b) == pytest.approx(
            stats.ks_2samp(a, b, method="exact").statistic, abs=1e-12
        )

    def test_symmetric(self):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=20), rng.normal(size=30)
        assert ks_statistic(a, b) == ks_statistic(b, a)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            ks_statistic([], [1.0])


class TestMomentCompare:
    def test_clear_separation_is_significant(self):
        rng = np.random.default_rng(0)
        a = 3.0 + rng.normal(size=400) * 0.1
        b = rng.normal(size=400) * 0.1
        mean_a, mean_b, se, significant = moment_compare(a, b, p=1.0)
        assert mean_a > mean_b
        assert significant

    def test_identical_samples_not_significant(self):
        x = np.linspace(-1.0, 1.0, 100)
        mean_a, mean_b, se, significant = moment_compare(x, x, p=2.0)
        assert mean_a == mean_b
        assert not significant


class TestFitRate:
    def test_exact_power_law(self):
        eps = np.array([0.05, 0.02, 0.01, 0.005])
        fit = fit_rate(eps, eps**1.4)
        assert fit.slope == pytest.approx(1.4, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.half_width == pytest.approx(0.0, abs=1e-10)

    def test_needs_three_points(self):
        with pytest.raises(DomainError):
            fit_rate([0.05, 0.02], [0.1, 0.05])

    def test_needs_positive_values(self):
        with pytest.raises(DomainError):
            fit_rate([0.05, 0.02, 0.01], [0.1, 0.0, 0.01])

    @given(slope=st.floats(0.2, 3.0), scale=st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_recovers_any_power_law(self, slope, scale):
        eps = np.array([0.08, 0.04, 0.02, 0.01, 0.005])
        fit = fit_rate(eps, scale * eps**slope)
        assert fit.slope == pytest.approx(slope, rel=1e-9)


class TestExperimentConfig:
    def test_defaults_fill_signal(self):
        cfg = _tiny()
        assert cfg.signal["a"] == 1.0
        assert cfg.signal["theta_bounds"] == (0.35, 0.65)

    def test_rejects_unknown_scenario(self):
        with pytest.raises(ConfigError, match="scenario"):
            _tiny(scenario="bootstrap")

    def test_rejects_nondecreasing_epsilons(self):
        with pytest.raises(ConfigError):
            _tiny(epsilons=(0.01, 0.05))

    def test_rejects_epsilon_above_one(self):
        with pytest.raises(ConfigError):
            _tiny(epsilons=(1.5,))

    def test_rejects_small_replication_count_for_rate_fits(self):
        with pytest.raises(ConfigError):
            _tiny(epsilons=(0.05, 0.02, 0.01), replications=50)

    def test_rejects_unknown_signal_key(self):
        with pytest.raises(ConfigError, match="unknown signal"):
            _tiny(signal={"amplitude": 2.0})

    @pytest.mark.parametrize("key,value,message", [
        ("zero_noise", "no", "config.zero_noise='no' must be a boolean"),
        ("master_seed", 1.5, "config.master_seed=1.5 must be an integer"),
        ("replications", 2.5, "config.replications=2.5 must be an integer"),
        ("threads", True, "config.threads=True must be an integer"),
        ("epsilons", ("0.05",), "config.epsilons[0]='0.05' must be a number"),
        ("signal", {"kappa": "0.3"}, "config.signal.kappa='0.3' must be a number"),
        ("prior", [1], "config.prior=[1] must be a mapping"),
    ], ids=["zero_noise", "master_seed", "replications", "threads", "epsilons",
            "signal", "prior"])
    def test_direct_construction_checks_field_types(self, key, value, message):
        # the same check as a config dict: a mistyped field never runs silently
        with pytest.raises(ConfigError) as info:
            _tiny(**{key: value})
        assert str(info.value) == message

    def test_signal_overrides_merge_with_defaults(self):
        cfg = _tiny(signal={"kappa": 0.3})
        assert cfg.signal["kappa"] == 0.3
        assert cfg.signal["a"] == 1.0

    def test_dict_roundtrip(self):
        cfg = _tiny(signal={"kappa": 0.3}, threads=2)
        clone = experiment_config_from_dict(cfg.to_dict())
        assert clone == cfg

    def test_json_roundtrip(self, tmp_path):
        cfg = _tiny()
        target = tmp_path / "config.json"
        target.write_text(json.dumps(cfg.to_dict()))
        assert experiment_config_from_dict(_load_config(str(target))) == cfg

    @pytest.mark.parametrize("data", [
        {"epsilons": [0.05]}, {"scenario": "bootstrap"}, {"scenario": ["cusp-mle"]},
    ], ids=["missing", "unknown", "list"])
    def test_dict_must_name_a_scenario(self, data):
        with pytest.raises(ConfigError, match=r"^config\.scenario=.* is not a scenario"):
            experiment_config_from_dict(data)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            experiment_config_from_dict({
                "scenario": "cusp-mle", "epsilons": [0.05], "jobs": 4,
            })

    @pytest.mark.parametrize("key,value", [
        ("search", {"span": 10}), ("noise_coefficient", "amplitude"),
    ], ids=["search", "noise_coefficient"])
    def test_removed_setting_rejected(self, key, value):
        # the grid-search settings and the misspec noise coefficient are
        # fixed; a config that still sets them fails like any unknown key
        with pytest.raises(ConfigError, match="unknown config keys"):
            experiment_config_from_dict({
                "scenario": "cusp-mle", "epsilons": [0.05], key: value,
            })


class TestRunExperimentDeterminism:
    def test_repeat_runs_identical(self):
        cfg = _tiny()
        rows1 = run_experiment(cfg).rows
        rows2 = run_experiment(cfg).rows
        assert rows1 == rows2

    @pytest.mark.parametrize("scenario", sorted(SMALL))
    def test_thread_count_does_not_change_results(self, scenario):
        base = run_experiment(_tiny(scenario, **SMALL[scenario]))
        threaded = run_experiment(_tiny(scenario, threads=3, **SMALL[scenario]))
        assert base.rows == threaded.rows
        assert base.summaries == threaded.summaries
        assert base.ks_results == threaded.ks_results
        assert base.moment_comparison == threaded.moment_comparison
        for entry in base.ks_results.values():
            assert 0.0 <= entry.get("limit_edge_fraction", 0.0) <= 1.0

    def test_master_seed_changes_results(self):
        a = run_experiment(_tiny()).rows
        b = run_experiment(_tiny(master_seed=2)).rows
        assert a != b


def _stand_alone(scenario, p):
    """``(drift signal, location, path -> {row name: estimate})`` of a
    scenario, each estimator called without a precomputed coarse field."""
    bounds = p.get("theta_bounds", (0.35, 0.65))
    cusp = lambda kappa: CuspSignal(a=p["a"], kappa=kappa, T=p["T"], theta_bounds=bounds)
    if scenario == "misspec":
        problem, _ = experiments.misspec_problem(p)
        return problem.real, None, lambda path: {
            "pseudo_mle": pseudo_mle(path, problem.theoretical).estimate}
    if scenario == "kappa":
        return cusp(p["kappa0"]), p["rho"], lambda path: {
            "kappa_mle": kappa_mle(path, p["a"], p["rho"], p["kappa_bounds"]).estimate}
    if scenario == "joint":
        def joint(path):
            res = joint_mle(path, p["a"], bounds, p["kappa_bounds"])
            return {"joint_rho": res.rho_hat, "joint_kappa": res.kappa_hat}
        return cusp(p["kappa0"]), p["rho0"], joint
    signal = (MultiCuspSignal(terms=p["terms"], T=p["T"], theta_bounds=bounds)
              if scenario == "multi-cusp" else cusp(p["kappa"]))
    calls = {"mle": mle, "bayes": bayes} if scenario == "cusp-bayes" else {"mle": mle}
    return signal, p["theta0"], lambda path: {
        name: call(path, signal).estimate for name, call in calls.items()}


class TestSweepRowsMatchStandAloneCalls:
    @pytest.mark.parametrize("scenario", sorted(SMALL))
    def test_row_equals_call_without_coarse(self, scenario):
        # a sweep hands each estimator its precomputed coarse field; the
        # estimate must be the one the estimator finds on its own
        cfg = _tiny(scenario, **SMALL[scenario])
        rows = run_experiment(cfg).rows
        signal, theta, call = _stand_alone(scenario, cfg.signal)
        grid = TimeGrid(cfg.signal["T"], cfg.n_steps)
        alone = {}
        for rep, eps in dict.fromkeys((r["replication"], r["epsilon"]) for r in rows):
            rng = replication_rng(cfg.master_seed, rep)
            alone[rep] = call(simulate_path(signal, theta, eps, grid, rng=rng))
        differ = [r for r in rows if r["estimate"] != alone[r["replication"]][r["estimator"]]]
        assert rows and differ == []

    def test_bayes_rows_equal_stand_alone_calls(self):
        # bayes takes no coarse scan: its sweep rows are the plain calls
        prior = {"name": "truncated_normal", "mean": 0.48, "std": 0.05}
        cfg = _tiny("cusp-bayes", epsilons=(0.05, 0.02), prior=prior)
        rows = [r for r in run_experiment(cfg).rows if r["estimator"] == "bayes"]
        signal = CuspSignal(a=1.0, kappa=0.25, T=1.0, theta_bounds=(0.35, 0.65))
        grid = TimeGrid(1.0, cfg.n_steps)
        for row in rows:
            path = simulate_path(signal, 0.5, row["epsilon"], grid,
                                 rng=replication_rng(cfg.master_seed, row["replication"]))
            result = bayes(path, signal, prior_from_config(prior))
            assert (row["estimate"], row["boundary_flag"], row["boundary_mass"]) == (
                result.estimate, result.boundary, result.boundary_mass)
            assert row["normalized_error"] == (result.estimate - 0.5) / result.rate
        assert len(rows) == 2 * cfg.replications

    @pytest.mark.parametrize("threads", [1, 4])
    def test_one_lattice_per_noise_level(self, monkeypatch, threads):
        # every bayes call of a cell finds the lattice the first one built,
        # also when pool threads reach their first bayes call while it builds
        built = []
        init = estimators.FineLattice.__init__

        def slow_init(self, *args):
            built.append(args[-1])
            time.sleep(0.2)
            init(self, *args)

        monkeypatch.setattr(estimators.FineLattice, "__init__", slow_init)
        estimators._lattice.cache_clear()
        cfg = _tiny("cusp-bayes", epsilons=(0.05, 0.02, 0.01), replications=100,
                    n_steps=1000, threads=threads)
        run_experiment(cfg)
        assert len(built) == len(cfg.epsilons)

    @pytest.mark.parametrize("scenario", sorted(SMALL))
    def test_normalized_error_is_against_the_truth_at_the_rate(self, scenario):
        # the estimators see no true value: each row scores its estimate
        # against the scenario's truth at the theoretical rate
        report = run_experiment(_tiny(scenario, **SMALL[scenario]))
        p, hurst = report.effective_config["signal"], report.constants.get("hurst")
        joint_kappa = {r["replication"]: r["estimate"] for r in report.rows
                       if r["estimator"] == "joint_kappa"}
        truth_and_rate = {
            "mle": lambda r: (p["theta0"], location_rate(r["epsilon"], hurst)),
            "bayes": lambda r: (p["theta0"], location_rate(r["epsilon"], hurst)),
            "pseudo_mle": lambda r: (report.constants["theta_hat"],
                                     misspec_rate(r["epsilon"], p["kappa"])),
            "kappa_mle": lambda r: (p["kappa0"], r["epsilon"]),
            "joint_rho": lambda r: (p["rho0"], location_rate(
                r["epsilon"], joint_kappa[r["replication"]] + 0.5)),
            "joint_kappa": lambda r: (p["kappa0"], r["epsilon"]),
        }
        for row in report.rows:
            truth, rate = truth_and_rate[row["estimator"]](row)
            assert row["target"] == truth
            assert row["normalized_error"] == pytest.approx(
                (row["estimate"] - truth) / rate, rel=1e-12, abs=1e-12)


class TestRunExperimentScenarios:
    def test_zero_noise_recovers_target(self):
        cfg = _tiny(zero_noise=True, replications=8)
        report = run_experiment(cfg)
        for row in report.rows:
            assert row["estimate"] == pytest.approx(0.5, abs=1e-3)
        assert report.rate_fits == {}
        assert report.ks_results == {}

    def test_cusp_mle_report_structure(self):
        report = run_experiment(_tiny())
        assert report.scenario == "cusp-mle"
        assert report.effective_config["replications"] == 16
        assert {s["estimator"] for s in report.summaries} == {"mle"}
        assert "mle" in report.ks_results
        entry = report.ks_results["mle"]
        assert 0.0 <= entry["statistic"] <= 1.0
        assert entry["n_limit"] == 50
        assert "gamma_sq" in report.constants

    def test_cusp_bayes_emits_both_estimators(self):
        report = run_experiment(_tiny(scenario="cusp-bayes"))
        names = {s["estimator"] for s in report.summaries}
        assert names == {"mle", "bayes"}
        assert (report.ks_results["bayes"]["limit_edge_fraction"]
                == report.ks_results["mle"]["limit_edge_fraction"])
        assert report.moment_comparison is not None
        assert set(report.moment_comparison) >= {
            "p", "mean_mle", "mean_bayes", "pooled_se", "significant",
        }

    def test_summaries_carry_search_counters(self):
        # the counters the estimators report per call, reduced per cell
        report = run_experiment(_tiny(scenario="cusp-bayes"))
        by_name = {s["estimator"]: s for s in report.summaries}
        bayes_rows = [r for r in report.rows if r["estimator"] == "bayes"]
        mle_, bayes_ = by_name["mle"], by_name["bayes"]
        assert 1 <= mle_["refinement_levels_mean"] <= mle_["refinement_levels_max"]
        assert isinstance(mle_["refinement_levels_max"], int)
        assert 0.0 < mle_["step_over_rate_max"] <= 1.0 / 50.0
        assert mle_["boundary_mass_max"] == 0.0
        assert (bayes_["refinement_levels_mean"], bayes_["refinement_levels_max"]) == (1.0, 1)
        assert 0.0 < bayes_["step_over_rate_max"] <= 1.0 / 10.0
        assert bayes_["boundary_mass_max"] == max(r["boundary_mass"] for r in bayes_rows)
        assert 0.0 <= bayes_["boundary_mass_max"] <= 1.0

    def test_multi_cusp_uses_smallest_exponent_rate(self):
        report = run_experiment(_tiny(scenario="multi-cusp"))
        # the rate exponent in the echoed constants matches kappa_eff=0.2
        assert report.constants["hurst"] == pytest.approx(0.7)

    def test_misspec_constants_echo_solution(self):
        cfg = _tiny(scenario="misspec", replications=12, n_steps=400)
        report = run_experiment(cfg)
        assert report.constants["theta_hat"] == pytest.approx(0.5, abs=1e-6)
        assert report.constants["curvature_closed"] == pytest.approx(
            1.960601, rel=1e-5
        )
        assert "zeta_scale" in report.constants
        assert {s["estimator"] for s in report.summaries} == {"pseudo_mle"}
        edge = report.ks_results["pseudo_mle"]["limit_edge_fraction"]
        assert 0.0 <= edge <= 1.0

    def test_kappa_scenario(self):
        cfg = _tiny(scenario="kappa", epsilons=(0.01,), replications=12,
                    n_steps=2000)
        report = run_experiment(cfg)
        assert {s["estimator"] for s in report.summaries} == {"kappa_mle"}
        assert report.constants["fisher_kappa"] == pytest.approx(
            1.081184, rel=1e-5
        )

    def test_joint_scenario(self):
        cfg = _tiny(scenario="joint", epsilons=(0.01,), replications=10,
                    n_steps=1000)
        report = run_experiment(cfg)
        names = {s["estimator"] for s in report.summaries}
        assert names == {"joint_rho", "joint_kappa"}
        assert "component_correlation" in report.ks_results["joint_rho"]
        edge = report.ks_results["joint_rho"]["limit_edge_fraction"]
        assert 0.0 <= edge <= 1.0

    def test_boundary_pileup_raises(self):
        # true location pinned to the boundary: every zero-noise estimate
        # lands there, tripping the boundary guard at production scale
        cfg = _tiny(
            zero_noise=True, replications=120, n_steps=300,
            signal={"theta0": 0.35},
        )
        with pytest.raises(ExperimentError, match="boundary"):
            run_experiment(cfg)

    @pytest.mark.parametrize("scenario, kwargs", [
        # kappa bounds hugging the truth: every estimate lands on the edge
        ("kappa", {"epsilons": (0.01,), "n_steps": 1000,
                   "signal": {"kappa_bounds": (0.05, 0.2501)}}),
        # rho0 on the location bound: every joint estimate lands there
        ("joint", {"epsilons": (0.02,), "n_steps": 300, "signal": {"rho0": 0.35}}),
    ])
    def test_boundary_pileup_raises_for_exponent_scenarios(self, scenario, kwargs):
        cfg = _tiny(scenario, zero_noise=True, replications=100, **kwargs)
        with pytest.raises(ExperimentError, match="boundary"):
            run_experiment(cfg)

    @pytest.mark.parametrize("scenario, kwargs, raises", [
        # 60 paths on the bound: the location guard pools the mle and
        # bayes rows, so only cusp-bayes reaches the 100-estimate scale...
        ("cusp-mle", {"signal": {"theta0": 0.35}}, False),
        ("cusp-bayes", {"signal": {"theta0": 0.35}}, True),
        # ...while a joint estimate counts once per path
        ("joint", {"epsilons": (0.02,), "signal": {"rho0": 0.35}}, False),
    ])
    def test_boundary_guard_scale(self, scenario, kwargs, raises):
        cfg = _tiny(scenario, zero_noise=True, replications=60, n_steps=300, **kwargs)
        if raises:
            with pytest.raises(ExperimentError, match="boundary"):
                run_experiment(cfg)
        else:
            rows = run_experiment(cfg).rows
            assert all(r["boundary_flag"] for r in rows)

    def test_kappa_true_outside_bounds_rejected(self):
        with pytest.raises(DomainError):
            run_experiment(_tiny(
                scenario="kappa", epsilons=(0.01,), replications=8,
                signal={"kappa0": 0.5},
            ))

    @pytest.mark.parametrize("scenario, signal", [
        ("cusp-mle", {"theta0": 0.9}),
        ("cusp-bayes", {"theta0": 0.3}),
        ("multi-cusp", {"theta0": 0.2}),
        ("kappa", {"kappa0": 0.45}),
        ("joint", {"rho0": 0.8}),
        ("joint", {"kappa0": 0.48}),
    ])
    def test_true_parameter_outside_bounds_rejected(self, scenario, signal):
        with pytest.raises(ConfigError, match="must lie"):
            run_experiment(_tiny(scenario, replications=8, signal=signal))


class TestFailureGuard:
    """Estimators that fail numerically give failed rows, then an error.

    The estimators are replaced through ``cusplab.experiments``: the cell
    runner looks them up there at call time.
    """

    CASES = [
        ("cusp-mle", "mle", {}),
        ("kappa", "kappa_mle", {"epsilons": (0.01,), "n_steps": 1000}),
        ("joint", "joint_mle", {"epsilons": (0.02,), "n_steps": 300}),
    ]

    @staticmethod
    def _fail_on(monkeypatch, name, replications):
        real = getattr(experiments, name)

        def flaky(path, *args, **kwargs):
            if path.seed in replications:
                raise NumericalDegeneracyError("forced failure")
            return real(path, *args, **kwargs)

        monkeypatch.setattr(experiments, name, flaky)

    @pytest.mark.parametrize("scenario, name, kwargs", CASES)
    def test_one_percent_failures_give_failed_rows(
        self, monkeypatch, scenario, name, kwargs
    ):
        self._fail_on(monkeypatch, name, {7})
        cfg = _tiny(scenario, replications=100, zero_noise=True, **kwargs)
        report = run_experiment(cfg)
        failed = [r for r in report.rows if r["failed"]]
        assert failed and {r["replication"] for r in failed} == {7}
        assert all(math.isnan(r["estimate"]) for r in failed)
        assert all(s["failures"] == 1 for s in report.summaries)

    @pytest.mark.parametrize("scenario, name, kwargs", CASES)
    def test_more_failures_raise(self, monkeypatch, scenario, name, kwargs):
        self._fail_on(monkeypatch, name, {3, 11})
        cfg = _tiny(scenario, replications=100, zero_noise=True, **kwargs)
        with pytest.raises(ExperimentError, match="2/100 replications failed"):
            run_experiment(cfg)


class TestLimitDrawBesideCells:
    """The limit-law sample is drawn on a helper thread while the cells run.

    The samplers and the cell runner are replaced through
    ``cusplab.experiments``, where each spec's ``draw`` and
    ``run_experiment`` look them up at call time.
    """

    SAMPLERS = ("sample_xi_batch", "sample_zeta_batch", "sample_kappa_limit")

    def _before_samplers(self, monkeypatch, before):
        """Call ``before()`` ahead of every limit-law sampler."""
        for name in self.SAMPLERS:
            def sampler(*args, _real=getattr(experiments, name), **kwargs):
                before()
                return _real(*args, **kwargs)
            monkeypatch.setattr(experiments, name, sampler)

    def test_draw_starts_before_the_cells_finish(self, monkeypatch):
        started = threading.Event()
        self._before_samplers(monkeypatch, started.set)
        real_cell = experiments._run_cell

        def cell(*args):
            # a draw made after the cells would leave this waiting
            assert started.wait(timeout=30), "the limit draw did not start beside the cells"
            return real_cell(*args)

        monkeypatch.setattr(experiments, "_run_cell", cell)
        report = run_experiment(_tiny("cusp-bayes", epsilons=(0.05, 0.02)))
        assert set(report.ks_results) == {"mle", "bayes"}

    def test_later_cells_start_once_the_draw_is_done(self, monkeypatch):
        # a slow draw outlasts the first cell; the second must wait for it
        drawn, seen = threading.Event(), {}
        for name in self.SAMPLERS:
            def sampler(*args, _real=getattr(experiments, name), **kwargs):
                time.sleep(0.3)
                sample = _real(*args, **kwargs)
                drawn.set()
                return sample
            monkeypatch.setattr(experiments, name, sampler)
        real_cell = experiments._run_cell

        def cell(config, spec, grid, ei, eps):
            seen[ei] = drawn.is_set()
            return real_cell(config, spec, grid, ei, eps)

        monkeypatch.setattr(experiments, "_run_cell", cell)
        run_experiment(_tiny("cusp-bayes", epsilons=(0.05, 0.02)))
        assert seen == {0: False, 1: True}

    @pytest.mark.parametrize("scenario", ["cusp-bayes", "misspec", "kappa", "joint"])
    def test_report_equals_serial_reference(self, monkeypatch, scenario):
        cfg = _tiny(scenario, threads=2, **SMALL[scenario])
        beside = run_experiment(cfg)
        cells_done = threading.Event()

        def after_cells():
            if not cells_done.wait(timeout=60):
                raise AssertionError("the cells did not finish")

        self._before_samplers(monkeypatch, after_cells)
        real_cell = experiments._run_cell

        def cell(config, spec, grid, ei, eps):
            rows = real_cell(config, spec, grid, ei, eps)
            if ei == len(config.epsilons) - 1:
                cells_done.set()
            return rows

        monkeypatch.setattr(experiments, "_run_cell", cell)
        serial = run_experiment(cfg)
        assert beside.ks_results
        assert json.dumps(beside.to_dict(), sort_keys=True) == json.dumps(
            serial.to_dict(), sort_keys=True)
        assert beside.rows == serial.rows

    def test_joint_sample_is_xi_then_kappa_from_the_limit_stream(self):
        cfg = _tiny("joint", **SMALL["joint"])
        report = run_experiment(cfg)
        rng = replication_rng(cfg.master_seed, experiments._LIMIT_STREAM)
        c = report.constants
        xi_hat, _, _ = sample_xi_batch(c["gamma_sq"], c["hurst"], cfg.limit_samples, rng)
        kappa = sample_kappa_limit(c["fisher_kappa"], cfg.limit_samples, rng)
        for name, limit in (("joint_rho", xi_hat), ("joint_kappa", kappa)):
            errors = [r["normalized_error"] for r in report.rows if r["estimator"] == name]
            assert report.ks_results[name]["statistic"] == ks_statistic(errors, limit)

    def test_cell_error_surfaces_once_the_draw_is_joined(self, monkeypatch):
        started = threading.Event()

        def slow_start():
            started.set()
            time.sleep(0.2)

        self._before_samplers(monkeypatch, slow_start)

        def cell(*args):
            assert started.wait(timeout=30), "the limit draw did not start beside the cells"
            raise ExperimentError("forced cell failure")

        monkeypatch.setattr(experiments, "_run_cell", cell)
        before = threading.active_count()
        with pytest.raises(ExperimentError, match="forced cell failure"):
            run_experiment(_tiny("cusp-bayes"))
        assert threading.active_count() == before

    def test_cell_error_stops_the_draw_within_a_block(self, monkeypatch):
        # 2e4 draws are 313 blocks of FBM_BLOCK paths; the draw stops at
        # the first block boundary after the cell fails, and a stopped
        # draw is no draw error to chain
        transformed, started = [], threading.Event()
        real = limit_laws._fbm_paths

        def counted(*args):
            transformed.append(1)
            started.set()
            return real(*args)

        def cell(*args):
            assert started.wait(timeout=30), "the limit draw did not start beside the cells"
            raise ExperimentError("forced cell failure")

        monkeypatch.setattr(limit_laws, "_fbm_paths", counted)
        monkeypatch.setattr(experiments, "_run_cell", cell)
        with pytest.raises(ExperimentError, match="forced cell failure") as info:
            run_experiment(_tiny("cusp-bayes", limit_samples=20000))
        assert info.value.__cause__ is None
        assert len(transformed) <= 3

    def test_draw_error_is_chained_to_a_cell_error(self, monkeypatch):
        def degenerate(*args, **kwargs):
            raise NumericalDegeneracyError("forced degenerate limit law")

        def cell(*args):
            raise ExperimentError("forced cell failure")

        monkeypatch.setattr(experiments, "sample_xi_batch", degenerate)
        monkeypatch.setattr(experiments, "_run_cell", cell)
        with pytest.raises(ExperimentError, match="forced cell failure") as info:
            run_experiment(_tiny("cusp-bayes"))
        assert isinstance(info.value.__cause__, NumericalDegeneracyError)
        shown = "".join(traceback.format_exception(info.value))
        assert "forced cell failure" in shown and "forced degenerate limit law" in shown

    def test_cli_logs_the_draw_error_beside_the_cell_error(self, monkeypatch, tmp_path, caplog):
        def degenerate(*args, **kwargs):
            raise NumericalDegeneracyError("forced degenerate limit law")

        def cell(*args):
            raise ExperimentError("forced cell failure")

        monkeypatch.setattr(experiments, "sample_xi_batch", degenerate)
        monkeypatch.setattr(experiments, "_run_cell", cell)
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"scenario": "cusp-bayes", "epsilons": [0.05]}))
        assert main(["rate", "--config", str(config), "--out", str(tmp_path)]) == 2
        # the CLI logs to stderr; under pytest the records land in caplog
        assert "forced cell failure" in caplog.text
        assert "forced degenerate limit law" in caplog.text

    def test_draw_error_surfaces_after_the_cells(self, monkeypatch, tmp_path, capsys):
        def degenerate(*args, **kwargs):
            raise NumericalDegeneracyError("forced degenerate limit law")

        monkeypatch.setattr(experiments, "sample_xi_batch", degenerate)
        cells = []
        real_cell = experiments._run_cell
        monkeypatch.setattr(experiments, "_run_cell",
                            lambda *args: cells.append(args[-1]) or real_cell(*args))
        with pytest.raises(NumericalDegeneracyError, match="forced degenerate"):
            run_experiment(_tiny("cusp-bayes", epsilons=(0.05, 0.02)))
        assert cells == [0.05, 0.02]
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"scenario": "cusp-bayes", "epsilons": [0.05],
                                      "replications": 8, "n_steps": 400,
                                      "limit_samples": 50}))
        out = tmp_path / "out"
        assert main(["rate", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()


class TestArtifacts:
    def test_write_rows_csv_roundtrip(self, tmp_path):
        report = run_experiment(_tiny(replications=6))
        target = tmp_path / "rows.csv"
        write_rows_csv(report.rows, str(target))
        lines = target.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(report.rows) + 1
        with open(target) as handle:
            parsed = list(csv.DictReader(handle))
        for row, raw in zip(report.rows, parsed):
            assert float(raw["estimate"]) == row["estimate"]
            assert int(raw["replication"]) == row["replication"]
            assert raw["boundary_flag"] in {"0", "1"}

    def test_run_and_write_creates_artifacts(self, tmp_path):
        cfg = _tiny(replications=6, out_dir=str(tmp_path))
        report, csv_path, report_path = run_and_write(cfg)
        assert csv_path.endswith("cusp_mle_samples.csv")
        assert report_path.endswith("cusp_mle_report.json")
        with open(report_path) as fh:
            payload = json.load(fh)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["effective_config"] == cfg.to_dict()
        assert "rows" not in payload

    def test_report_json_sorted_and_stable(self, tmp_path):
        cfg = _tiny(replications=6, out_dir=str(tmp_path))
        _, _, report_path = run_and_write(cfg)
        with open(report_path) as fh:
            text = fh.read()
        assert json.dumps(
            json.loads(text), indent=2, sort_keys=True
        ) + "\n" == text


class TestBoundFits:
    SIG = CuspSignal(a=1.0, kappa=0.25, T=1.0, theta_bounds=(0.35, 0.65))

    def test_lower_bound_constant_positive(self):
        mu = separation_bound_fit(self.SIG, 0.5, n_steps=2000, grid_count=41)
        assert mu > 0.0

    def test_tail_constant_positive(self):
        c = tail_bound_fit(
            self.SIG, 0.5, replications=40, n_steps=2000, master_seed=3
        )
        assert c > 0.0
