"""Monte Carlo experiment engine.

Ties the other modules together: for each noise level in a decreasing
list, simulate ``N`` observation paths, run the scenario's estimators,
normalize errors by the theoretical rate, and aggregate into a report
holding rate fits, Kolmogorov-Smirnov comparisons against limit-law
samples, and moment orderings.

Scenarios
---------
``cusp-mle``
    Location MLE under a correctly specified cusp; rate ``eps**(1/H)``.
``cusp-bayes``
    MLE and posterior mean on the *same* paths (pairing sharpens the
    second-moment comparison).
``multi-cusp``
    Several superposed cusps; the smallest exponent controls the rate.
``misspec``
    Pure-cusp likelihood fitted to a smoothed-cusp real drift; errors
    are measured against the pseudo-true location at rate
    ``eps**(2/(3-2*kappa))``.
``kappa``
    Exponent estimation with known amplitude/location; regular problem,
    rate ``eps``, Gaussian limit.
``joint``
    Simultaneous (location, exponent) estimation; the two normalized
    errors are asymptotically independent.

Determinism: each replication owns generator ``SeedSequence([master,
rep])`` where ``rep`` is a global replication index, and summaries
reduce records in replication order, so identical configs produce
bit-identical CSV and JSON outputs regardless of thread count.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    ConditionViolationError,
    ConfigError,
    DomainError,
    ExperimentError,
    NumericalDegeneracyError,
)
from .estimators import (
    SearchConfig,
    bayes,
    coarse_grid,
    joint_coarse_nodes,
    joint_mle,
    kappa_mle,
    location_rate,
    log_likelihood_field,
    misspec_rate,
    mle,
    prior_from_config,
    pseudo_mle,
)
from .limit_laws import (
    default_zeta_window,
    fisher_info_kappa,
    gamma_squared,
    sample_xi_batch,
    sample_zeta_batch,
    zeta_scale,
)
from .misspec_analysis import MisspecProblem, solve_theta_hat
from .path_sim import (
    DEFAULT_N_STEPS,
    DiscretizationWarning,
    ObservationPath,
    TimeGrid,
    replication_rng,
    simulate_path,
)
from .signal_models import CuspSignal, MultiCuspSignal, SmoothedCuspSignal

__all__ = [
    "SCENARIOS",
    "ExperimentConfig",
    "ExperimentReport",
    "RateFit",
    "experiment_config_from_dict",
    "experiment_config_from_json",
    "run_experiment",
    "run_and_write",
    "write_rows_csv",
    "write_report_json",
    "fit_rate",
    "ks_statistic",
    "moment_compare",
    "separation_bound_fit",
    "tail_bound_fit",
]

SCENARIOS = ("cusp-mle", "cusp-bayes", "multi-cusp", "misspec", "kappa", "joint")

SCHEMA_VERSION = 1

#: Replication index reserved for the limit-law comparison stream, far
#: beyond any realistic path count so the streams never collide.
_LIMIT_STREAM = 2**40

_MAX_FAILURE_FRACTION = 0.01
_MAX_BOUNDARY_FRACTION = 0.01

CSV_HEADER = "replication,epsilon,estimator,estimate,normalized_error,boundary_flag"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_SIGNAL_DEFAULTS = {
    "cusp-mle": {
        "a": 1.0, "kappa": 0.25, "T": 1.0,
        "theta0": 0.5, "theta_bounds": (0.35, 0.65),
    },
    "cusp-bayes": {
        "a": 1.0, "kappa": 0.25, "T": 1.0,
        "theta0": 0.5, "theta_bounds": (0.35, 0.65),
    },
    "multi-cusp": {
        "terms": ((1.0, 0.2), (1.0, 0.4)), "T": 1.0,
        "theta0": 0.5, "theta_bounds": (0.35, 0.65),
    },
    "misspec": {
        "a": 1.0, "kappa": 0.25, "T": 1.0, "center": 0.5, "delta": 0.05,
        "theta_bounds": (0.35, 0.65),
    },
    "kappa": {
        "a": 1.0, "rho": 0.5, "kappa0": 0.25, "T": 1.0,
        "kappa_bounds": (0.05, 0.45),
    },
    "joint": {
        "a": 1.0, "rho0": 0.5, "kappa0": 0.25, "T": 1.0,
        "theta_bounds": (0.35, 0.65), "kappa_bounds": (0.05, 0.45),
    },
}

_DEFAULT_EPSILONS = {
    "kappa": (0.01,),
    "joint": (0.01,),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Full specification of one Monte Carlo sweep.

    ``signal`` holds scenario-specific parameters (defaults above);
    unknown keys are rejected to catch typos.  Noise levels must be
    strictly decreasing and at least 100 replications are required as
    soon as a rate fit is possible (three or more levels).
    """

    scenario: str
    epsilons: tuple[float, ...]
    replications: int = 500
    master_seed: int = 0
    n_steps: int = DEFAULT_N_STEPS
    threads: int = 1
    zero_noise: bool = False
    limit_samples: int = 2000
    out_dir: str = "."
    signal: dict = field(default_factory=dict)
    search: SearchConfig = field(default_factory=SearchConfig)
    prior: dict = field(default_factory=lambda: {"name": "uniform"})
    noise_coefficient: str = "gamma"

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario {self.scenario!r}; valid: {sorted(SCENARIOS)}"
            )
        eps = tuple(float(e) for e in self.epsilons)
        if not eps:
            raise ConfigError("epsilons must be non-empty")
        if any(not 0.0 < e <= 1.0 for e in eps):
            raise ConfigError(f"epsilons must lie in (0, 1], got {eps!r}")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ConfigError(f"epsilons must be strictly decreasing, got {eps!r}")
        object.__setattr__(self, "epsilons", eps)
        if self.replications < 1:
            raise ConfigError(f"replications must be >= 1, got {self.replications!r}")
        if len(eps) >= 3 and self.replications < 100:
            raise ConfigError(
                f"rate fits need at least 100 replications per level, got "
                f"{self.replications!r}"
            )
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads!r}")
        if self.limit_samples < 10:
            raise ConfigError(f"limit_samples must be >= 10, got {self.limit_samples!r}")
        if self.noise_coefficient not in ("gamma", "amplitude"):
            raise ConfigError(
                f"noise_coefficient must be 'gamma' or 'amplitude', got "
                f"{self.noise_coefficient!r}"
            )
        defaults = _SIGNAL_DEFAULTS[self.scenario]
        unknown = set(self.signal) - set(defaults)
        if unknown:
            raise ConfigError(
                f"unknown signal parameters for {self.scenario!r}: "
                f"{sorted(unknown)}; valid: {sorted(defaults)}"
            )
        merged = {**defaults, **self.signal}
        object.__setattr__(self, "signal", merged)

    def to_dict(self) -> dict:
        signal = {
            k: (list(map(list, v)) if k == "terms" else
                (list(v) if isinstance(v, tuple) else v))
            for k, v in self.signal.items()
        }
        return {
            "scenario": self.scenario,
            "epsilons": list(self.epsilons),
            "replications": self.replications,
            "master_seed": self.master_seed,
            "n_steps": self.n_steps,
            "threads": self.threads,
            "zero_noise": self.zero_noise,
            "limit_samples": self.limit_samples,
            "out_dir": self.out_dir,
            "signal": signal,
            "search": {
                "coarse_step": self.search.coarse_step,
                "target_step": self.search.target_step,
                "shrink": self.search.shrink,
                "span": self.search.span,
                "starts": self.search.starts,
            },
            "prior": dict(self.prior),
            "noise_coefficient": self.noise_coefficient,
        }


_CONFIG_KEYS = {
    "scenario", "epsilons", "replications", "master_seed", "n_steps", "threads",
    "zero_noise", "limit_samples", "out_dir", "signal", "search", "prior",
    "noise_coefficient",
}


def experiment_config_from_dict(data: dict) -> ExperimentConfig:
    """Build a validated config from a plain mapping (parsed JSON)."""
    if "scenario" not in data:
        raise ConfigError("config must name a scenario")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(
            f"unknown config keys: {sorted(unknown)}; valid: {sorted(_CONFIG_KEYS)}"
        )
    scenario = data["scenario"]
    kwargs = dict(data)
    kwargs.setdefault(
        "epsilons", _DEFAULT_EPSILONS.get(scenario, (0.05, 0.02, 0.01, 0.005))
    )
    kwargs["epsilons"] = tuple(kwargs["epsilons"])
    signal = dict(kwargs.get("signal", {}))
    for key in ("theta_bounds", "kappa_bounds"):
        if key in signal:
            signal[key] = tuple(signal[key])
    if "terms" in signal:
        signal["terms"] = tuple(tuple(term) for term in signal["terms"])
    kwargs["signal"] = signal
    search = kwargs.get("search", {})
    if isinstance(search, dict):
        kwargs["search"] = SearchConfig(**search)
    return ExperimentConfig(**kwargs)


def experiment_config_from_json(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    return experiment_config_from_dict(data)


# ---------------------------------------------------------------------------
# statistics helpers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of ``ln mean|error|`` against ``ln epsilon``."""

    slope: float
    intercept: float
    r_squared: float
    half_width: float


def fit_rate(epsilons: Sequence[float], mean_abs_errors: Sequence[float]) -> RateFit:
    """Fit the empirical convergence rate on the log-log scale.

    ``half_width`` is ``1.96 * SE(slope)``, the 95% half-interval under
    the usual homoskedastic regression model.
    """
    x = np.asarray(epsilons, dtype=float)
    y = np.asarray(mean_abs_errors, dtype=float)
    if x.size < 3:
        raise DomainError(f"rate fit needs >= 3 points, got {x.size}")
    if x.size != y.size:
        raise DomainError("epsilons and errors must have equal length")
    if (x <= 0).any() or (y <= 0).any():
        raise DomainError("rate fit needs strictly positive inputs")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    dof = x.size - 2
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    se = math.sqrt(ss_res / dof / sxx) if dof > 0 else 0.0
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        half_width=1.96 * se,
    )


def ks_statistic(samples_a: Sequence[float], samples_b: Sequence[float]) -> float:
    """Exact two-sample Kolmogorov-Smirnov statistic.

    The supremum of the CDF difference is attained at pooled sample
    points, so evaluating both empirical CDFs there is exact.
    """
    a = np.sort(np.asarray(samples_a, dtype=float))
    b = np.sort(np.asarray(samples_b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise DomainError("ks_statistic needs non-empty samples")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def moment_compare(
    samples_a: Sequence[float], samples_b: Sequence[float], p: float
) -> tuple[float, float, float, bool]:
    """Compare ``E|a|^p`` against ``E|b|^p`` with a pooled standard error.

    Returns ``(mean_a, mean_b, pooled_se, significant)`` where the flag
    is set when ``mean_a`` exceeds ``mean_b`` by more than two pooled
    standard errors.
    """
    if not p > 0:
        raise DomainError(f"moment order p must be positive, got {p!r}")
    a = np.abs(np.asarray(samples_a, dtype=float)) ** p
    b = np.abs(np.asarray(samples_b, dtype=float)) ** p
    mean_a, mean_b = float(a.mean()), float(b.mean())
    se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    return mean_a, mean_b, se, bool(mean_a - mean_b > 2.0 * se)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass
class ExperimentReport:
    """Aggregated outcome of one sweep, JSON-serializable via to_dict."""

    scenario: str
    effective_config: dict
    constants: dict
    summaries: list
    rate_fits: dict
    ks_results: dict
    moment_comparison: Optional[dict]
    notes: list
    rows: list = field(repr=False, default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario,
            "effective_config": self.effective_config,
            "constants": self.constants,
            "summaries": self.summaries,
            "rate_fits": self.rate_fits,
            "ks_results": self.ks_results,
            "moment_comparison": self.moment_comparison,
            "notes": self.notes,
        }


def _rate_fit_dict(fit: RateFit) -> dict:
    return {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "half_width": fit.half_width,
    }


# ---------------------------------------------------------------------------
# simulation helpers
# ---------------------------------------------------------------------------

def _increments_matrix(drift, grid, eps, master_seed, rep_ids, zero_noise):
    base = drift * grid.dt
    out = np.empty((len(rep_ids), grid.n))
    sqdt = math.sqrt(grid.dt)
    for i, rep in enumerate(rep_ids):
        if zero_noise:
            out[i] = base
        else:
            rng = replication_rng(master_seed, rep)
            out[i] = base + eps * sqdt * rng.standard_normal(grid.n)
    return out


def _run_indexed(worker: Callable[[int], list], count: int, threads: int) -> list:
    """Run ``worker`` over 0..count-1, preserving index order in the output."""
    results: list = [None] * count
    if threads <= 1:
        for i in range(count):
            results[i] = worker(i)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for i, res in enumerate(pool.map(worker, range(count))):
                results[i] = res
    return [row for chunk in results for row in chunk]


def _field_matrix(drift_matrix, increments, dt, eps):
    # ln V for every (parameter node, path) pair in two BLAS products.
    inv_var = 1.0 / (eps * eps)
    energy = 0.5 * dt * np.einsum("ij,ij->i", drift_matrix, drift_matrix)
    return inv_var * (drift_matrix @ increments.T - energy[:, None])


def _guard_failures(scenario, eps, failures, total):
    if failures > _MAX_FAILURE_FRACTION * total:
        raise ExperimentError(
            f"{scenario} at epsilon={eps}: {failures}/{total} replications "
            f"failed numerically (> {_MAX_FAILURE_FRACTION:.0%})"
        )


def _guard_boundary(scenario, eps, hits, total, bounds_name):
    # Enforced only at production scale; tiny smoke runs would trip on a
    # single unlucky path.
    if total >= 100 and hits >= _MAX_BOUNDARY_FRACTION * total:
        raise ExperimentError(
            f"{scenario} at epsilon={eps}: {hits}/{total} estimates sat on the "
            f"parameter boundary; widen {bounds_name} so the optimum is interior"
        )


def _summarize(rows, eps, estimator):
    sub = [r for r in rows if r["epsilon"] == eps and r["estimator"] == estimator]
    ok = [r for r in sub if not r["failed"]]
    errors = np.array([r["estimate"] - r["target"] for r in ok])
    normalized = np.array([r["normalized_error"] for r in ok])
    abs_err = np.abs(errors)
    return {
        "epsilon": eps,
        "estimator": estimator,
        "count": len(ok),
        "failures": len(sub) - len(ok),
        "boundary_hits": int(sum(r["boundary_flag"] for r in ok)),
        "mean_abs_error": float(abs_err.mean()) if ok else math.nan,
        "se_abs_error": (
            float(abs_err.std(ddof=1) / math.sqrt(len(ok))) if len(ok) > 1 else math.nan
        ),
        "mean_sq_error": float((errors**2).mean()) if ok else math.nan,
        "mean_abs_normalized": float(np.abs(normalized).mean()) if ok else math.nan,
        "mean_sq_normalized": float((normalized**2).mean()) if ok else math.nan,
    }


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------

def _location_scenario_rows(config, estimation_signal, drift, target, rate_fn, kind):
    """Shared driver for cusp-mle / cusp-bayes / multi-cusp / misspec cells.

    The coarse field over the theta grid is one matrix product per cell;
    each replication then refines through the ordinary estimator entry
    points, so results are identical to calling them stand-alone.
    """
    grid = TimeGrid(estimation_signal.T, config.n_steps)
    t = grid.left_nodes
    if drift is None:
        # correctly specified scenarios: generate from the estimation
        # signal at the target location
        drift = np.asarray(estimation_signal.value(target, t), dtype=float)
    prior = prior_from_config(
        config.prior.get("name", "uniform"),
        {k: v for k, v in config.prior.items() if k != "name"},
    )
    rows: list[dict] = []
    with_bayes = kind == "cusp-bayes"
    for ei, eps in enumerate(config.epsilons):
        rate = rate_fn(eps)
        _check_discretization(estimation_signal.kappa_eff, grid, eps)
        cgrid = coarse_grid(estimation_signal.theta_bounds, rate, config.search)
        drift_matrix = estimation_signal.value(cgrid[:, None], t[None, :])
        rep_ids = [ei * config.replications + i for i in range(config.replications)]
        increments = _increments_matrix(
            drift, grid, eps, config.master_seed, rep_ids, config.zero_noise
        )
        coarse_values = _field_matrix(drift_matrix, increments, grid.dt, eps)

        def worker(i: int) -> list:
            path = ObservationPath(
                grid=grid, increments=increments[i], epsilon=eps,
                theta_true=target, seed=rep_ids[i],
            )
            coarse = (cgrid, coarse_values[:, i])
            out = []
            try:
                if kind == "misspec":
                    res = pseudo_mle(
                        path, estimation_signal, config.search,
                        target=target, coarse=coarse,
                    )
                else:
                    res = mle(
                        path, estimation_signal, config.search,
                        target=target, coarse=coarse,
                    )
                out.append(_row(rep_ids[i], eps, res.estimator, res, target))
            except (NumericalDegeneracyError, ConditionViolationError):
                out.append(_failed_row(rep_ids[i], eps,
                                       "pseudo_mle" if kind == "misspec" else "mle",
                                       target))
            if with_bayes:
                try:
                    res_b = bayes(
                        path, estimation_signal, prior, config.search,
                        target=target, coarse=coarse,
                    )
                    out.append(_row(rep_ids[i], eps, "bayes", res_b, target))
                except (NumericalDegeneracyError, ConditionViolationError):
                    out.append(_failed_row(rep_ids[i], eps, "bayes", target))
            return out

        cell = _run_indexed(worker, config.replications, config.threads)
        rows.extend(cell)
        for estimator in {r["estimator"] for r in cell}:
            failed = sum(r["failed"] for r in cell if r["estimator"] == estimator)
            _guard_failures(config.scenario, eps, failed, config.replications)
        if eps == config.epsilons[-1]:
            hits = sum(r["boundary_flag"] for r in cell if not r["failed"])
            _guard_boundary(
                config.scenario, eps, hits,
                len(cell), "theta_bounds",
            )
    return rows


def _row(rep, eps, estimator, result, target):
    return {
        "replication": rep,
        "epsilon": eps,
        "estimator": estimator,
        "estimate": result.estimate,
        "normalized_error": result.normalized_error,
        "boundary_flag": bool(result.boundary),
        "target": target,
        "failed": False,
    }


def _joint_rows(rep, eps, result, rho0, kappa0):
    common = {"replication": rep, "epsilon": eps, "failed": False,
              "boundary_flag": bool(result.boundary)}
    return [
        {**common, "estimator": "joint_rho", "estimate": result.rho_hat,
         "normalized_error": result.rho_normalized_error, "target": rho0},
        {**common, "estimator": "joint_kappa", "estimate": result.kappa_hat,
         "normalized_error": result.kappa_normalized_error, "target": kappa0},
    ]


def _failed_row(rep, eps, estimator, target):
    return {
        "replication": rep,
        "epsilon": eps,
        "estimator": estimator,
        "estimate": math.nan,
        "normalized_error": math.nan,
        "boundary_flag": False,
        "target": target,
        "failed": True,
    }


def _check_discretization(kappa_eff, grid, eps):
    if grid.dt ** (kappa_eff + 0.5) > eps:
        warnings.warn(
            f"time step dt={grid.dt:g} too coarse for epsilon={eps:g}: "
            f"dt**(kappa+1/2)={grid.dt ** (kappa_eff + 0.5):.3g} exceeds the "
            f"noise level; increase n_steps",
            DiscretizationWarning,
            stacklevel=3,
        )


def _kappa_scenario_rows(config):
    p = config.signal
    a, rho, kappa0, T = p["a"], p["rho"], p["kappa0"], p["T"]
    bounds = p["kappa_bounds"]
    if not bounds[0] < kappa0 < bounds[1]:
        raise ConfigError(
            f"kappa0={kappa0!r} must lie inside kappa_bounds={bounds!r}"
        )
    grid = TimeGrid(T, config.n_steps)
    t = grid.left_nodes
    dist = np.abs(t - rho)
    drift = a * dist**kappa0
    rows: list[dict] = []
    for ei, eps in enumerate(config.epsilons):
        _check_discretization(kappa0, grid, eps)
        kgrid = coarse_grid(bounds, eps, config.search)
        drift_matrix = a * dist[None, :] ** kgrid[:, None]
        rep_ids = [ei * config.replications + i for i in range(config.replications)]
        increments = _increments_matrix(
            drift, grid, eps, config.master_seed, rep_ids, config.zero_noise
        )
        coarse_values = _field_matrix(drift_matrix, increments, grid.dt, eps)

        def worker(i: int) -> list:
            path = ObservationPath(
                grid=grid, increments=increments[i], epsilon=eps, seed=rep_ids[i]
            )
            try:
                res = kappa_mle(
                    path, a, rho, bounds, config.search,
                    target=kappa0, coarse=(kgrid, coarse_values[:, i]),
                )
                return [_row(rep_ids[i], eps, "kappa_mle", res, kappa0)]
            except (NumericalDegeneracyError, ConditionViolationError):
                return [_failed_row(rep_ids[i], eps, "kappa_mle", kappa0)]

        cell = _run_indexed(worker, config.replications, config.threads)
        rows.extend(cell)
        _guard_failures(
            config.scenario, eps, sum(r["failed"] for r in cell), len(cell)
        )
        if eps == config.epsilons[-1]:
            hits = sum(r["boundary_flag"] for r in cell if not r["failed"])
            _guard_boundary(config.scenario, eps, hits, len(cell), "kappa_bounds")
    return rows


def _joint_scenario_rows(config):
    p = config.signal
    a, rho0, kappa0, T = p["a"], p["rho0"], p["kappa0"], p["T"]
    tbounds, kbounds = p["theta_bounds"], p["kappa_bounds"]
    grid = TimeGrid(T, config.n_steps)
    t = grid.left_nodes
    drift = a * np.abs(t - rho0) ** kappa0
    rho_nodes, kappa_nodes = joint_coarse_nodes(tbounds, kbounds)
    rows: list[dict] = []
    for ei, eps in enumerate(config.epsilons):
        _check_discretization(kappa0, grid, eps)
        rep_ids = [ei * config.replications + i for i in range(config.replications)]
        increments = _increments_matrix(
            drift, grid, eps, config.master_seed, rep_ids, config.zero_noise
        )
        coarse_values = np.stack([
            _field_matrix(
                a * np.abs(t[None, :] - rho_nodes[:, None]) ** float(k),
                increments, grid.dt, eps,
            )
            for k in kappa_nodes
        ])  # (n_kappa, n_rho, n_paths)

        def worker(i: int) -> list:
            path = ObservationPath(
                grid=grid, increments=increments[i], epsilon=eps,
                theta_true=rho0, seed=rep_ids[i],
            )
            try:
                res = joint_mle(
                    path, a, tbounds, kbounds, config.search,
                    rho_true=rho0, kappa_true=kappa0,
                    coarse=(rho_nodes, kappa_nodes, coarse_values[:, :, i]),
                )
                return _joint_rows(rep_ids[i], eps, res, rho0, kappa0)
            except (NumericalDegeneracyError, ConditionViolationError):
                return [
                    _failed_row(rep_ids[i], eps, "joint_rho", rho0),
                    _failed_row(rep_ids[i], eps, "joint_kappa", kappa0),
                ]

        cell = _run_indexed(worker, config.replications, config.threads)
        rows.extend(cell)
        _guard_failures(
            config.scenario, eps,
            sum(r["failed"] for r in cell if r["estimator"] == "joint_rho"),
            config.replications,
        )
        if eps == config.epsilons[-1]:
            hits = sum(
                r["boundary_flag"] for r in cell
                if not r["failed"] and r["estimator"] == "joint_rho"
            )
            _guard_boundary(
                config.scenario, eps, hits, config.replications,
                "theta_bounds/kappa_bounds",
            )
    return rows


# ---------------------------------------------------------------------------
# the experiment entry point
# ---------------------------------------------------------------------------

def _normalized_errors(rows, eps, estimator):
    return np.array([
        r["normalized_error"] for r in rows
        if r["epsilon"] == eps and r["estimator"] == estimator and not r["failed"]
    ])


def _ks_entry(samples, limit_samples, extra=None):
    entry = {
        "statistic": ks_statistic(samples, limit_samples),
        "n_sample": int(len(samples)),
        "n_limit": int(len(limit_samples)),
        "empirical_mean_abs": float(np.abs(samples).mean()),
        "limit_mean_abs": float(np.abs(limit_samples).mean()),
    }
    entry["scale_ratio"] = entry["empirical_mean_abs"] / entry["limit_mean_abs"]
    if extra:
        entry.update(extra)
    return entry


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the configured sweep and aggregate the report.

    Raises ``ExperimentError`` when more than 1% of replications fail in
    a cell or when at the smallest noise level at least 1% of estimates
    sit on the parameter boundary.
    """
    p = config.signal
    constants: dict = {}
    notes: list[str] = []
    moment_comparison = None
    ks_results: dict = {}

    if config.scenario in ("cusp-mle", "cusp-bayes"):
        signal = CuspSignal(
            a=p["a"], kappa=p["kappa"], T=p["T"],
            theta_bounds=tuple(p["theta_bounds"]),
        )
        hurst = signal.hurst
        gamma_sq = gamma_squared(p["a"], p["kappa"])
        constants = {"gamma_sq": gamma_sq, "hurst": hurst, "rate_target": 1.0 / hurst}
        rows = _location_scenario_rows(
            config, signal, None, p["theta0"],
            lambda e: location_rate(e, hurst), config.scenario,
        )
        estimators = ("mle", "bayes") if config.scenario == "cusp-bayes" else ("mle",)
        if not config.zero_noise:
            rng = replication_rng(config.master_seed, _LIMIT_STREAM)
            xi_hat, xi_tilde, flags = sample_xi_batch(
                gamma_sq, hurst, config.limit_samples, rng
            )
            edge = {"limit_edge_fraction": float(flags.mean())}
            eps_min = config.epsilons[-1]
            ks_results["mle"] = _ks_entry(
                _normalized_errors(rows, eps_min, "mle"), xi_hat, extra=edge
            )
            if "bayes" in estimators:
                ks_results["bayes"] = _ks_entry(
                    _normalized_errors(rows, eps_min, "bayes"), xi_tilde, extra=edge
                )
                a_s = _normalized_errors(rows, eps_min, "mle")
                b_s = _normalized_errors(rows, eps_min, "bayes")
                mean_a, mean_b, se, flag = moment_compare(a_s, b_s, 2.0)
                moment_comparison = {
                    "p": 2.0, "mean_mle": mean_a, "mean_bayes": mean_b,
                    "pooled_se": se, "significant": flag,
                }

    elif config.scenario == "multi-cusp":
        signal = MultiCuspSignal(
            terms=tuple(tuple(term) for term in p["terms"]), T=p["T"],
            theta_bounds=tuple(p["theta_bounds"]),
        )
        hurst = signal.hurst
        constants = {"hurst": hurst, "rate_target": 1.0 / hurst,
                     "kappa_eff": signal.kappa_eff}
        notes.append(
            "multi-cusp rate uses the smallest exponent; no limit-law sample "
            "comparison is wired for superposed cusps"
        )
        rows = _location_scenario_rows(
            config, signal, None, p["theta0"],
            lambda e: location_rate(e, hurst), "multi-cusp",
        )

    elif config.scenario == "misspec":
        theoretical = CuspSignal(
            a=p["a"], kappa=p["kappa"], T=p["T"],
            theta_bounds=tuple(p["theta_bounds"]),
        )
        real = SmoothedCuspSignal(
            a=p["a"], kappa=p["kappa"], center=p["center"],
            delta=p["delta"], T=p["T"],
        )
        solution = solve_theta_hat(MisspecProblem(theoretical=theoretical, real=real))
        curv = solution.curvature_closed
        noise_scale = (
            math.sqrt(gamma_squared(p["a"], p["kappa"]))
            if config.noise_coefficient == "gamma" else p["a"]
        )
        hurst = theoretical.hurst
        constants = {
            "theta_hat": solution.theta_hat,
            "min_distance": solution.min_distance,
            "curvature_closed": solution.curvature_closed,
            "curvature_fd": solution.curvature_fd,
            "uniqueness_certificate": solution.uniqueness_certificate,
            "noise_scale": noise_scale,
            "zeta_scale": zeta_scale(noise_scale, curv, hurst),
            "rate_target": 2.0 / (3.0 - 2.0 * p["kappa"]),
        }
        grid = TimeGrid(p["T"], config.n_steps)
        drift = np.asarray(real.value(grid.left_nodes), dtype=float)
        rows = _location_scenario_rows(
            config, theoretical, drift, solution.theta_hat,
            lambda e: misspec_rate(e, p["kappa"]), "misspec",
        )
        if not config.zero_noise:
            rng = replication_rng(config.master_seed, _LIMIT_STREAM)
            zeta, flags = sample_zeta_batch(
                noise_scale, curv, hurst, config.limit_samples, rng,
                window=default_zeta_window(noise_scale, curv, hurst),
            )
            ks_results["pseudo_mle"] = _ks_entry(
                _normalized_errors(rows, config.epsilons[-1], "pseudo_mle"), zeta,
                extra={"limit_edge_fraction": float(flags.mean())},
            )

    elif config.scenario == "kappa":
        fisher = fisher_info_kappa(p["a"], p["rho"], p["T"], p["kappa0"])
        constants = {"fisher_kappa": fisher, "rate_target": 1.0,
                     "limit_variance": 1.0 / fisher}
        rows = _kappa_scenario_rows(config)
        if not config.zero_noise:
            rng = replication_rng(config.master_seed, _LIMIT_STREAM)
            delta = rng.normal(0.0, math.sqrt(fisher), config.limit_samples)
            ks_results["kappa_mle"] = _ks_entry(
                _normalized_errors(rows, config.epsilons[-1], "kappa_mle"),
                delta / fisher,
            )

    elif config.scenario == "joint":
        gamma_sq = gamma_squared(p["a"], p["kappa0"])
        fisher = fisher_info_kappa(p["a"], p["rho0"], p["T"], p["kappa0"])
        hurst = p["kappa0"] + 0.5
        constants = {
            "gamma_sq": gamma_sq, "fisher_kappa": fisher, "hurst": hurst,
            "rho_rate_target": 1.0 / hurst, "kappa_rate_target": 1.0,
        }
        rows = _joint_scenario_rows(config)
        if not config.zero_noise:
            eps_min = config.epsilons[-1]
            rho_errs = _normalized_errors(rows, eps_min, "joint_rho")
            kap_errs = _normalized_errors(rows, eps_min, "joint_kappa")
            rng = replication_rng(config.master_seed, _LIMIT_STREAM)
            xi_hat, _, flags = sample_xi_batch(
                gamma_sq, hurst, config.limit_samples, rng
            )
            delta = rng.normal(0.0, math.sqrt(fisher), config.limit_samples)
            corr = float(np.corrcoef(rho_errs, kap_errs)[0, 1])
            ks_results["joint_rho"] = _ks_entry(
                rho_errs, xi_hat, extra={
                    "component_correlation": corr,
                    "limit_edge_fraction": float(flags.mean()),
                },
            )
            ks_results["joint_kappa"] = _ks_entry(kap_errs, delta / fisher)

    else:  # pragma: no cover - scenario set is validated in the config
        raise ConfigError(f"unhandled scenario {config.scenario!r}")

    estimators = sorted({r["estimator"] for r in rows})
    summaries = [
        _summarize(rows, eps, est)
        for eps in config.epsilons
        for est in estimators
    ]
    rate_fits = {}
    if len(config.epsilons) >= 3 and not config.zero_noise:
        for est in estimators:
            means = [
                s["mean_abs_error"] for s in summaries if s["estimator"] == est
            ]
            rate_fits[est] = _rate_fit_dict(
                fit_rate(list(config.epsilons), means)
            )

    return ExperimentReport(
        scenario=config.scenario,
        effective_config=config.to_dict(),
        constants=constants,
        summaries=summaries,
        rate_fits=rate_fits,
        ks_results=ks_results,
        moment_comparison=moment_comparison,
        notes=notes,
        rows=rows,
    )


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def write_rows_csv(rows: Sequence[dict], path: str) -> None:
    """Per-replication records; float fields use repr for bit-stability."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(CSV_HEADER + "\n")
        for r in rows:
            handle.write(
                f"{r['replication']},{r['epsilon']!r},{r['estimator']},"
                f"{r['estimate']!r},{r['normalized_error']!r},"
                f"{int(r['boundary_flag'])}\n"
            )


def write_report_json(report: ExperimentReport, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def run_and_write(config: ExperimentConfig) -> tuple[ExperimentReport, str, str]:
    """Run the sweep and write ``<scenario>_samples.csv`` / ``_report.json``."""
    report = run_experiment(config)
    os.makedirs(config.out_dir, exist_ok=True)
    stem = config.scenario.replace("-", "_")
    csv_path = os.path.join(config.out_dir, f"{stem}_samples.csv")
    report_path = os.path.join(config.out_dir, f"{stem}_report.json")
    write_rows_csv(report.rows, csv_path)
    write_report_json(report, report_path)
    return report, csv_path, report_path


# ---------------------------------------------------------------------------
# empirical likelihood-bound checks
# ---------------------------------------------------------------------------

def separation_bound_fit(
    signal,
    theta0: float,
    epsilon: float = 0.01,
    n_steps: int = DEFAULT_N_STEPS,
    grid_count: int = 81,
) -> float:
    """Fitted constant of the noiseless likelihood lower bound.

    On a zero-noise path from ``theta0``,
    ``-2*eps**2 * (ln V(theta) - ln V(theta0))`` equals the discrete
    squared drift gap, which the theory bounds below by
    ``mu * |theta - theta0|**(2H)``.  Returns the largest such ``mu``
    over the scan grid, i.e. the minimum of the ratios; positivity is
    the empirical content of the bound.
    """
    alpha, beta = signal.theta_bounds
    if not alpha <= theta0 <= beta:
        raise DomainError(f"theta0={theta0!r} outside bounds ({alpha!r}, {beta!r})")
    grid = TimeGrid(signal.T, n_steps)
    path = simulate_path(signal, theta0, epsilon, grid, zero_noise=True)
    thetas = np.unique(np.append(np.linspace(alpha, beta, grid_count), theta0))
    fld = log_likelihood_field(path, signal, thetas)
    raw = fld.log_values + fld.shift
    at_truth = raw[np.searchsorted(thetas, theta0)]
    gap = -2.0 * epsilon**2 * (raw - at_truth)
    mask = np.abs(thetas - theta0) > 1e-9
    ratios = gap[mask] / np.abs(thetas[mask] - theta0) ** (2.0 * signal.hurst)
    return float(ratios.min())


def tail_bound_fit(
    signal,
    theta0: float,
    epsilon: float = 0.01,
    u_values: Sequence[float] = (-8.0, -6.0, -4.0, -2.0, 2.0, 4.0, 6.0, 8.0),
    replications: int = 300,
    master_seed: int = 20,
    n_steps: int = DEFAULT_N_STEPS,
) -> float:
    """Fitted exponent of the square-root likelihood-ratio tail bound.

    Estimates ``E Z_eps(u)**0.5`` by Monte Carlo at
    ``theta = theta0 + u * eps**(1/H)`` and fits
    ``-ln E Z**0.5 = c * |u|**(2H)`` through the origin; the theory
    guarantees some positive ``c`` (the limit value is ``Gamma**2/8``).
    """
    rate = location_rate(epsilon, signal.hurst)
    alpha, beta = signal.theta_bounds
    us = np.asarray(u_values, dtype=float)
    if (us == 0.0).any():
        raise DomainError("u grid must exclude 0 (Z(0) = 1 identically)")
    thetas = theta0 + rate * us
    if thetas.min() < alpha or thetas.max() > beta:
        raise DomainError(
            "u grid leaves the parameter bounds; shrink u_values or epsilon"
        )
    grid = TimeGrid(signal.T, n_steps)
    t = grid.left_nodes
    all_thetas = np.append(thetas, theta0)
    drift_matrix = signal.value(all_thetas[:, None], t[None, :])
    drift0 = drift_matrix[-1]
    rep_ids = list(range(replications))
    increments = _increments_matrix(
        drift0, grid, epsilon, master_seed, rep_ids, zero_noise=False
    )
    field = _field_matrix(drift_matrix, increments, grid.dt, epsilon)
    ln_z = field[:-1] - field[-1]
    half_means = np.exp(0.5 * ln_z).mean(axis=1)
    y = -np.log(half_means)
    x = np.abs(us) ** (2.0 * signal.hurst)
    return float((x @ y) / (x @ x))
