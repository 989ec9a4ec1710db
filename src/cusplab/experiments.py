"""Monte Carlo experiment engine.

Ties the other modules together.  Each limit law is defined once, for the
sweeps and ``cusplab limit-law`` alike: ``xi_law``, ``zeta_law`` and
``kappa_law`` return its constants, sample columns, fBm window and draw.
A table maps each scenario to a setup that binds its parameters into a
spec: constants, true values, drift, coarse scan, per-path estimator calls,
and the draw and comparison of its limit laws.  One cell runner serves
every spec at each noise level: Euler increments for ``N`` paths, one
coarse likelihood scan over all of them (the estimators' own,
``estimators.location_coarse`` and its kin), per-path estimator calls and
the guards.  The estimators see the observations alone; each row's error
against the true value is normalized by the estimate's theoretical rate
(``_rows``).  The report holds rate fits, Kolmogorov-Smirnov comparisons
against limit-law samples, and moment orderings.  The limit-law sample
depends on no replication, so one helper thread draws it beside the first
cell, the later cells start once it is drawn, and the comparison takes it
once the last cell is done.  ``write_csv`` writes every CSV of both.

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
rep])`` where ``rep`` is a global replication index, the limit-law
sample its own stream, and summaries reduce records in replication
order, so identical configs produce bit-identical CSV and JSON outputs
regardless of thread count and of how the draw and the cells interleave.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    ConditionViolationError,
    ConfigError,
    DomainError,
    ExperimentError,
    NumericalDegeneracyError,
    StoppedError,
)
from .estimators import (
    JointEstimationResult,
    bayes,
    ito_loglik,
    joint_coarse,
    joint_mle,
    kappa_coarse,
    kappa_mle,
    location_coarse,
    location_rate,
    misspec_rate,
    mle,
    prior_from_config,
    pseudo_mle,
)
from .limit_laws import (
    WindowConfig,
    default_xi_window,
    default_zeta_window,
    fisher_info_kappa,
    gamma_squared,
    sample_kappa_limit,
    sample_xi_batch,
    sample_zeta_batch,
    zeta_scale,
)
from .misspec_analysis import MisspecProblem, solve_theta_hat
from .path_sim import (
    DEFAULT_N_STEPS,
    ObservationPath,
    TimeGrid,
    euler_increments,
    replication_rng,
    simulate_path,
    warn_if_coarse,
)
from .signal_models import CuspSignal, SmoothedCuspSignal, check_config, cusp_term
from .signal_models import fill_config, signal_from_config

__all__ = [
    "SCENARIOS",
    "SIGNAL_DEFAULTS",
    "ExperimentConfig",
    "ExperimentReport",
    "LimitLaw",
    "RateFit",
    "config_defaults",
    "experiment_config_from_dict",
    "kappa_law",
    "misspec_problem",
    "run_experiment",
    "run_and_write",
    "write_csv",
    "write_rows_csv",
    "write_report_json",
    "fit_rate",
    "ks_statistic",
    "moment_compare",
    "separation_bound_fit",
    "tail_bound_fit",
    "xi_law",
    "zeta_law",
]

SCHEMA_VERSION = 1

log = logging.getLogger(__name__)

#: Replication index reserved for the limit-law comparison stream, far
#: beyond any realistic path count so the streams never collide.
_LIMIT_STREAM = 2**40

_MAX_FAILURE_FRACTION = 0.01
_MAX_BOUNDARY_FRACTION = 0.01

CSV_HEADER = "replication,epsilon,estimator,estimate,normalized_error,boundary_flag"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_CUSP_DEFAULTS = {
    "a": 1.0, "kappa": 0.25, "T": 1.0, "theta0": 0.5, "theta_bounds": (0.35, 0.65),
}

SIGNAL_DEFAULTS = {
    "cusp-mle": _CUSP_DEFAULTS,
    "cusp-bayes": _CUSP_DEFAULTS,
    "multi-cusp": {
        "terms": [(1.0, 0.2), (1.0, 0.4)], "T": 1.0,
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


@dataclass(frozen=True)
class ExperimentConfig:
    """Full specification of one Monte Carlo sweep.

    Each field must have its default's type (``check_config`` against
    ``config_defaults``).  ``signal`` holds scenario-specific parameters
    (defaults above), its bounds and terms as tuples; unknown keys are
    rejected to catch typos.  Noise levels must be strictly decreasing,
    every level needs at least 2 replications (its summaries take
    standard errors) and at least 100 as soon as a rate fit is possible
    (three or more levels).
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
    prior: dict = field(default_factory=lambda: {"name": "uniform"})

    def __post_init__(self) -> None:
        defaults = config_defaults(self.scenario)
        check_config({f.name: getattr(self, f.name) for f in dataclasses.fields(self)},
                     defaults)
        eps = tuple(float(e) for e in self.epsilons)
        if not eps:
            raise ConfigError("epsilons must be non-empty")
        if any(not 0.0 < e <= 1.0 for e in eps):
            raise ConfigError(f"epsilons must lie in (0, 1], got {eps!r}")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ConfigError(f"epsilons must be strictly decreasing, got {eps!r}")
        object.__setattr__(self, "epsilons", eps)
        if self.replications < 2:
            raise ConfigError(f"replications must be >= 2, got {self.replications!r}")
        if len(eps) >= 3 and self.replications < 100:
            raise ConfigError(
                f"rate fits need at least 100 replications per level, got "
                f"{self.replications!r}"
            )
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads!r}")
        if self.limit_samples < 10:
            raise ConfigError(f"limit_samples must be >= 10, got {self.limit_samples!r}")
        prior_from_config(self.prior)  # checked even where no estimator reads it
        merged = fill_config(self.signal, defaults["signal"], "signal")
        for key in {"theta_bounds", "kappa_bounds"} & set(merged):
            merged[key] = tuple(merged[key])
        if "terms" in merged:
            merged["terms"] = tuple(map(tuple, merged["terms"]))
        object.__setattr__(self, "signal", merged)

    def to_dict(self) -> dict:
        signal = {
            k: (list(map(list, v)) if k == "terms" else
                (list(v) if isinstance(v, tuple) else v))
            for k, v in self.signal.items()
        }
        return {
            **{f.name: getattr(self, f.name) for f in dataclasses.fields(self)},
            "epsilons": list(self.epsilons),
            "signal": signal,
            "prior": dict(self.prior),
        }


def config_defaults(scenario) -> dict:
    """The default of each ``ExperimentConfig`` field for ``scenario``.

    ``scenario`` must be one of ``SCENARIOS``, else ``ConfigError``; it is
    its own default, and ``epsilons`` and ``signal`` depend on it."""
    if not (isinstance(scenario, str) and scenario in SCENARIOS):
        raise ConfigError(
            f"config.scenario={scenario!r} is not a scenario; "
            f"valid: {sorted(SCENARIOS)}"
        )
    epsilons = [0.01] if scenario in ("kappa", "joint") else [0.05, 0.02, 0.01, 0.005]
    chosen = {"scenario": scenario, "epsilons": epsilons,
              "signal": SIGNAL_DEFAULTS[scenario]}
    return {
        f.name: chosen[f.name] if f.name in chosen
        else f.default_factory() if f.default is dataclasses.MISSING else f.default
        for f in dataclasses.fields(ExperimentConfig)
    }


def experiment_config_from_dict(data: dict) -> ExperimentConfig:
    """Build a validated config from a plain mapping (parsed JSON).

    The mapping must name a scenario; its keys are checked and filled
    from ``config_defaults`` by ``fill_config``.
    """
    return ExperimentConfig(**fill_config(data, config_defaults(data.get("scenario"))))


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
        """Every field but the per-replication rows, plus the schema version."""
        fields = dataclasses.fields(self)
        return {"schema_version": SCHEMA_VERSION,
                **{f.name: getattr(self, f.name) for f in fields if f.name != "rows"}}


# ---------------------------------------------------------------------------
# the limit laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitLaw:
    """A limit law bound to its parameters, with its constants by their report
    names.  ``draw(count, rng, stop=None)`` returns one array per name in
    ``columns``, drawn from ``rng`` alone by a sampler looked up in this module
    when it runs; an fBm law draws on ``window`` (else ``None``) and stops at
    its next block once the event ``stop`` is set."""

    constants: dict
    columns: tuple
    window: Optional[WindowConfig]
    draw: Callable[..., tuple]


def xi_law(a: float, kappa: float) -> LimitLaw:
    """``(xi_hat, xi_tilde)``, the limits of the location MLE and posterior
    mean, on the default window of ``Gamma**2 = gamma_squared(a, kappa)``."""
    gamma_sq, hurst = gamma_squared(a, kappa), kappa + 0.5
    window = default_xi_window(gamma_sq, hurst)
    return LimitLaw({"gamma_sq": gamma_sq}, ("xi_hat", "xi_tilde", "edge_flag"), window,
                    lambda count, rng, stop=None: sample_xi_batch(
                        gamma_sq, hurst, count, rng, window, stop))


def zeta_law(problem: MisspecProblem, curvature: Optional[float]) -> LimitLaw:
    """``zeta_hat``, the pseudo-MLE's limit under ``problem``, at ``curvature``
    (by default the closed form at the pseudo-true location).  The noise scale
    of the fBm is ``Gamma = sqrt(gamma_squared(a, kappa))``: the noise term
    ``int [M(theta_hat + phi*u, t) - M(theta_hat, t)] dW`` has standard
    deviation ``Gamma * phi**H * |u|**H``."""
    cusp = problem.theoretical
    noise_scale, hurst = math.sqrt(gamma_squared(cusp.a, cusp.kappa)), cusp.hurst
    if curvature is None:
        curvature = solve_theta_hat(problem).curvature_closed
    curvature = float(curvature)
    window = default_zeta_window(noise_scale, curvature, hurst)
    constants = {"noise_scale": noise_scale, "curvature": curvature,
                 "zeta_scale": zeta_scale(noise_scale, curvature, hurst)}
    return LimitLaw(constants, ("zeta_hat", "edge_flag"), window,
                    lambda count, rng, stop=None: sample_zeta_batch(
                        noise_scale, curvature, hurst, count, rng, window, stop))


def kappa_law(a: float, rho: float, T: float, kappa: float) -> LimitLaw:
    """The Gaussian limit ``N(0, 1/I)`` of the exponent MLE at a known
    location, ``I = fisher_info_kappa(a, rho, T, kappa)``."""
    fisher = fisher_info_kappa(a, rho, T, kappa)
    return LimitLaw({"fisher_kappa": fisher, "limit_variance": 1.0 / fisher},
                    ("kappa_limit",), None,
                    lambda count, rng, stop=None: (sample_kappa_limit(fisher, count, rng),))


def _edge(law: LimitLaw, flags: np.ndarray) -> dict:
    """The KS entry fields of an fBm sample: its edge fraction and window size."""
    return {"limit_edge_fraction": float(flags.mean()),
            "limit_node_count": law.window.node_count}


# ---------------------------------------------------------------------------
# the scenario table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Spec:
    """A scenario bound to its signal parameters: all that ``_run_cell`` varies.

    ``truth`` maps each true parameter to its value, in the order the
    estimators report their parameters.  ``drift`` is the generating
    drift on the left nodes and ``kappa`` the exponent of the resolution
    warning.  ``coarse(eps, increments)`` is the estimators' coarse scan of
    a cell's ``(paths, n)`` increments: its axes, then the field (and, for
    the location scan, the seeds' first windows), each with the path as its
    last axis.  ``estimators`` maps the row names of each per-path call
    ``(path, coarse) -> result`` to the call, in run order.
    ``draw`` is a ``LimitLaw.draw`` (joint: two laws' from one generator),
    so ``run_experiment`` runs it beside the first cell, and ``compare(errors,
    sample)`` returns ``(ks_results, moment_comparison)`` of the errors at the
    smallest noise level against its sample.  A spec without a limit law has
    neither.
    """

    constants: dict
    truth: dict
    drift: np.ndarray
    kappa: float
    coarse: Callable[[float, np.ndarray], tuple]
    estimators: dict
    draw: Optional[Callable[[int, np.random.Generator, threading.Event], object]] = None
    compare: Optional[Callable[[dict, object], tuple]] = None
    notes: tuple = ()


#: Admissible range of each true parameter: the signal key of its
#: bounds and whether they are excluded.  Locations may sit on a bound.
_TRUTH_BOUNDS = {
    "theta0": ("theta_bounds", False), "theta_hat": ("theta_bounds", False),
    "rho0": ("theta_bounds", False), "kappa0": ("kappa_bounds", True),
}


def misspec_problem(params: dict) -> MisspecProblem:
    """Misspecification problem for signal parameters: ``params`` overrides
    the ``misspec`` scenario defaults and its other keys are ignored here
    (the CLI has rejected those its subcommand does not read)."""
    p = {**SIGNAL_DEFAULTS["misspec"], **params}
    theoretical = CuspSignal(
        a=p["a"], kappa=p["kappa"], T=p["T"], theta_bounds=tuple(p["theta_bounds"]),
    )
    real = SmoothedCuspSignal(
        a=p["a"], kappa=p["kappa"], center=p["center"], delta=p["delta"], T=p["T"],
    )
    return MisspecProblem(theoretical=theoretical, real=real)


# The setups bind one scenario each.  Their per-path calls name the
# estimators as globals of this module, looked up when a call runs, so
# rebinding e.g. ``cusplab.experiments.mle`` reaches every replication.

def _location(config, grid, signal, truth, drift, rate, names, **rest) -> _Spec:
    """A location scenario running the estimators ``names`` per path."""
    prior = prior_from_config(config.prior)
    calls = {
        "mle": lambda path, c: mle(path, signal, coarse=c),
        "bayes": lambda path, _: bayes(path, signal, prior),
        "pseudo_mle": lambda path, c: pseudo_mle(path, signal, coarse=c),
    }
    return _Spec(
        truth=truth, drift=drift, kappa=signal.kappa_eff,
        coarse=lambda eps, dx: location_coarse(signal, rate(eps), grid, dx, eps),
        estimators={(name,): calls[name] for name in names}, **rest,
    )


def _cusp(p, config, grid, with_bayes=False) -> _Spec:
    family = {k: v for k, v in p.items() if k != "theta0"}
    signal = signal_from_config({"family": "cusp", **family})
    law, hurst = xi_law(p["a"], p["kappa"]), signal.hurst
    names = ("mle", "bayes") if with_bayes else ("mle",)

    def compare(errors, sample):
        xi_hat, xi_tilde, flags = sample
        ks = {"mle": _ks_entry(errors["mle"], xi_hat, _edge(law, flags))}
        if not with_bayes:
            return ks, None
        ks["bayes"] = _ks_entry(errors["bayes"], xi_tilde, _edge(law, flags))
        mean_a, mean_b, se, flag = moment_compare(errors["mle"], errors["bayes"], 2.0)
        return ks, {"p": 2.0, "mean_mle": mean_a, "mean_bayes": mean_b,
                    "pooled_se": se, "significant": flag}

    return _location(
        config, grid, signal, {"theta0": p["theta0"]},
        np.asarray(signal.value(p["theta0"], grid.left_nodes), dtype=float),
        lambda e: location_rate(e, hurst), names, draw=law.draw, compare=compare,
        constants={**law.constants, "hurst": hurst, "rate_target": 1.0 / hurst},
    )


def _multi_cusp(p, config, grid) -> _Spec:
    family = {k: v for k, v in p.items() if k != "theta0"}
    signal = signal_from_config({"family": "multi_cusp", **family})
    hurst = signal.hurst
    return _location(
        config, grid, signal, {"theta0": p["theta0"]},
        np.asarray(signal.value(p["theta0"], grid.left_nodes), dtype=float),
        lambda e: location_rate(e, hurst), ("mle",),
        constants={"hurst": hurst, "rate_target": 1.0 / hurst,
                   "kappa_eff": signal.kappa_eff},
        notes=("multi-cusp rate uses the smallest exponent; no limit-law sample "
               "comparison is wired for superposed cusps",),
    )


def _misspec(p, config, grid) -> _Spec:
    problem = misspec_problem(p)
    solution = solve_theta_hat(problem)
    law = zeta_law(problem, solution.curvature_closed)

    def compare(errors, sample):
        zeta, flags = sample
        return {"pseudo_mle": _ks_entry(errors["pseudo_mle"], zeta, _edge(law, flags))}, None

    return _location(
        config, grid, problem.theoretical, {"theta_hat": solution.theta_hat},
        np.asarray(problem.real.value(grid.left_nodes), dtype=float),
        lambda e: misspec_rate(e, p["kappa"]), ("pseudo_mle",),
        draw=law.draw, compare=compare,
        constants={
            **dataclasses.asdict(solution),
            **{k: law.constants[k] for k in ("noise_scale", "zeta_scale")},
            "rate_target": 2.0 / (3.0 - 2.0 * p["kappa"]),
        },
    )


def _kappa(p, config, grid) -> _Spec:
    a, rho, kappa0, bounds = p["a"], p["rho"], p["kappa0"], p["kappa_bounds"]
    law = kappa_law(a, rho, p["T"], kappa0)

    def compare(errors, sample):
        (limit,) = sample
        return {"kappa_mle": _ks_entry(errors["kappa_mle"], limit)}, None

    return _Spec(
        constants={**law.constants, "rate_target": 1.0},
        truth={"kappa0": kappa0}, drift=cusp_term(a, rho, kappa0, grid.left_nodes),
        kappa=kappa0, draw=law.draw, compare=compare,
        coarse=lambda eps, dx: kappa_coarse(a, rho, bounds, grid, dx, eps),
        estimators={("kappa_mle",): lambda path, c: kappa_mle(
            path, a, rho, bounds, coarse=c)},
    )


def _joint(p, config, grid) -> _Spec:
    a, rho0, kappa0 = p["a"], p["rho0"], p["kappa0"]
    tbounds, kbounds = p["theta_bounds"], p["kappa_bounds"]
    xi, exponent = xi_law(a, kappa0), kappa_law(a, rho0, p["T"], kappa0)
    hurst = kappa0 + 0.5

    def draw(count, rng, stop):
        # one generator, xi first: the order of the streams is part of the draw
        return xi.draw(count, rng, stop), exponent.draw(count, rng)

    def compare(errors, sample):
        (xi_hat, _, flags), (kappa_limit,) = sample
        rho_errs, kap_errs = errors["joint_rho"], errors["joint_kappa"]
        extra = {"component_correlation": float(np.corrcoef(rho_errs, kap_errs)[0, 1]),
                 **_edge(xi, flags)}
        return {"joint_rho": _ks_entry(rho_errs, xi_hat, extra),
                "joint_kappa": _ks_entry(kap_errs, kappa_limit)}, None

    return _Spec(
        constants={"gamma_sq": xi.constants["gamma_sq"],
                   "fisher_kappa": exponent.constants["fisher_kappa"], "hurst": hurst,
                   "rho_rate_target": 1.0 / hurst, "kappa_rate_target": 1.0},
        truth={"rho0": rho0, "kappa0": kappa0},
        drift=cusp_term(a, rho0, kappa0, grid.left_nodes), kappa=kappa0,
        draw=draw, compare=compare,
        coarse=lambda eps, dx: joint_coarse(a, tbounds, kbounds, grid, dx, eps),
        estimators={("joint_rho", "joint_kappa"): lambda path, c: joint_mle(
            path, a, tbounds, kbounds, coarse=c)},
    )


#: Scenario name -> setup ``(signal parameters, config, time grid) -> _Spec``.
_SCENARIOS = {
    "cusp-mle": _cusp,
    "cusp-bayes": lambda p, config, grid: _cusp(p, config, grid, with_bayes=True),
    "multi-cusp": _multi_cusp,
    "misspec": _misspec,
    "kappa": _kappa,
    "joint": _joint,
}

SCENARIOS = tuple(_SCENARIOS)


# ---------------------------------------------------------------------------
# the cell runner
# ---------------------------------------------------------------------------

def _run_indexed(worker: Callable[[int], list], count: int, threads: int) -> list:
    """Run ``worker`` over 0..count-1, preserving index order in the output.

    One thread runs them in the calling thread.  A pool worker would
    allocate from a malloc arena of its own, new each cell, and a one-thread
    sweep's peak RSS then read about 2.5 MB higher whenever a cell ended
    before the limit draw.
    """
    if threads == 1:
        results = [worker(i) for i in range(count)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(worker, range(count)))
    return [row for chunk in results for row in chunk]


def _rows(rep, eps, names, result, targets) -> list:
    """Records of one estimator call, one per name; ``None`` marks a failure.

    Each record's normalized error is ``(estimate - target) / rate``, with
    the call's estimate and rate for that name and the name's true value
    in ``targets``.  Besides the CSV fields each record keeps the call's
    search counters for the summaries: refinement levels, final grid step
    over rate and (Bayes, else 0) posterior mass near the bounds.
    """
    if result is None:
        parts = [(math.nan, math.nan, math.nan, False)] * len(names)
    elif isinstance(result, JointEstimationResult):
        parts = [(result.rho_hat, result.rho_rate, result.rho_step, result.boundary),
                 (result.kappa_hat, result.kappa_rate, result.kappa_step, result.boundary)]
    else:
        parts = [(result.estimate, result.rate, result.grid_step, result.boundary)]
    return [
        {
            "replication": rep,
            "epsilon": eps,
            "estimator": name,
            "estimate": estimate,
            "normalized_error": (estimate - target) / rate,
            "boundary_flag": bool(boundary),
            "target": target,
            "failed": result is None,
            "refinement_levels": getattr(result, "refinement_levels", 0),
            "step_over_rate": step / rate,
            "boundary_mass": getattr(result, "boundary_mass", 0.0),
        }
        for name, (estimate, rate, step, boundary), target
        in zip(names, parts, targets)
    ]


def _run_cell(config, spec, grid, ei, eps) -> list:
    """All replications at one noise level, with the cell's guards.

    The coarse scan over all paths is the estimators' own, one matrix
    product per block of drift rows; a location scan also scans the
    first window of every seed of its paths, each distinct seed's rows
    built once.  Each replication then refines from its part of the scan
    (every array but the 1-D axes, at its index on the last axis) through
    the ordinary estimator entry points, so results are identical to
    calling them stand-alone.  ``-v`` logs the time of the scan.
    """
    warn_if_coarse(spec.kappa, eps, grid)
    rep_ids = [ei * config.replications + i for i in range(config.replications)]
    increments = np.empty((config.replications, grid.n))
    for i, rep in enumerate(rep_ids):
        rng = None if config.zero_noise else replication_rng(config.master_seed, rep)
        increments[i] = euler_increments(spec.drift, eps, grid, rng)
    start = time.perf_counter()
    scan = spec.coarse(eps, increments)
    log.debug("%s at epsilon=%g: the coarse scan (with any first windows) took %.3f s",
              config.scenario, eps, time.perf_counter() - start)

    def worker(i: int) -> list:
        path = ObservationPath(
            grid=grid, increments=increments[i], epsilon=eps, seed=rep_ids[i]
        )
        coarse = tuple(part if part.ndim == 1 else part[..., i] for part in scan)
        out = []
        for names, call in spec.estimators.items():
            try:
                result = call(path, coarse)
            except (NumericalDegeneracyError, ConditionViolationError):
                result = None
            out += _rows(rep_ids[i], eps, names, result, spec.truth.values())
        return out

    cell = _run_indexed(worker, config.replications, config.threads)
    # The guards count each call once: the rows of one call fail together
    # and share one boundary flag.
    calls = [[r for r in cell if r["estimator"] == names[0]] for names in spec.estimators]
    for rows in calls:
        failures = sum(r["failed"] for r in rows)
        if failures > _MAX_FAILURE_FRACTION * config.replications:
            raise ExperimentError(
                f"{config.scenario} at epsilon={eps}: {failures}/"
                f"{config.replications} replications failed numerically "
                f"(> {_MAX_FAILURE_FRACTION:.0%})"
            )
    pooled = [r for rows in calls for r in rows]
    hits = sum(r["boundary_flag"] for r in pooled if not r["failed"])
    # Enforced only at production scale; tiny smoke runs would trip on a
    # single unlucky path.
    if eps == config.epsilons[-1] and len(pooled) >= 100 and (
        hits >= _MAX_BOUNDARY_FRACTION * len(pooled)
    ):
        bounds = "/".join(dict.fromkeys(_TRUTH_BOUNDS[n][0] for n in spec.truth))
        raise ExperimentError(
            f"{config.scenario} at epsilon={eps}: {hits}/{len(pooled)} estimates "
            f"sat on the parameter boundary; widen {bounds} so the optimum is "
            f"interior"
        )
    return cell


def _summarize(rows, eps, estimator):
    sub = [r for r in rows if r["epsilon"] == eps and r["estimator"] == estimator]
    ok = [r for r in sub if not r["failed"]]
    errors = np.array([r["estimate"] - r["target"] for r in ok])
    normalized = np.array([r["normalized_error"] for r in ok])
    levels = [r["refinement_levels"] for r in ok]
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
        "refinement_levels_mean": float(np.mean(levels)) if ok else math.nan,
        "refinement_levels_max": max(levels, default=0),
        "step_over_rate_max": max((r["step_over_rate"] for r in ok), default=math.nan),
        "boundary_mass_max": max((r["boundary_mass"] for r in ok), default=math.nan),
    }


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


# ---------------------------------------------------------------------------
# the experiment entry point
# ---------------------------------------------------------------------------

def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the configured sweep and aggregate the report.

    Raises ``ConfigError`` when a true parameter lies outside its bounds,
    and ``ExperimentError`` when more than 1% of replications fail in a
    cell or when at the smallest noise level at least 1% of estimates
    sit on the parameter boundary.  The limit-law sample is drawn on one
    helper thread beside the first cell (``config.threads`` bounds the
    cells' pool alone), and the later cells start once the draw is done:
    its working set then never meets a later cell's coarse scan, so a
    sweep's peak memory does not depend on which of the two ends first.
    An error of the draw surfaces once the cells are done.
    A cell's error stops the draw within about one fBm block and surfaces
    once the draw has been joined, with any draw error as its
    ``__cause__``.  The CLI's ``-v`` logs the cells' time and the waits
    for the draw.
    """
    p = config.signal
    grid = TimeGrid(p["T"], config.n_steps)
    spec = _SCENARIOS[config.scenario](p, config, grid)
    for name, value in spec.truth.items():
        key, strict = _TRUTH_BOUNDS[name]
        lo, hi = p[key]
        if not (lo < value < hi if strict else lo <= value <= hi):
            where = "inside" if strict else "within"
            raise ConfigError(f"{name}={value!r} must lie {where} {key}={p[key]!r}")
    limit = spec.draw is not None and not config.zero_noise
    # leaving the block joins the helper, on a raise too
    with ThreadPoolExecutor(max_workers=1) as beside:
        if limit:
            rng = replication_rng(config.master_seed, _LIMIT_STREAM)
            stop = threading.Event()
            drawn = beside.submit(spec.draw, config.limit_samples, rng, stop)
        start, waited = time.perf_counter(), 0.0
        try:
            rows = []
            for ei, eps in enumerate(config.epsilons):
                if ei == 1 and limit:
                    # an error of the draw is read after the last cell
                    before = time.perf_counter()
                    wait([drawn])
                    waited = time.perf_counter() - before
                rows += _run_cell(config, spec, grid, ei, eps)
        except Exception as error:
            if limit:
                stop.set()
                cause = drawn.exception()
                if cause is not None and not isinstance(cause, StoppedError):
                    raise error from cause
            raise
        cells_done = time.perf_counter()
        sample = drawn.result() if limit else None
        compared = time.perf_counter()
    log.debug("%s: cells took %.3f s; the second cell waited %.3f s and compare "
              "waited %.3f s on the limit draw", config.scenario,
              cells_done - start - waited, waited, compared - cells_done)
    names = [name for names in spec.estimators for name in names]

    ks_results: dict = {}
    moment_comparison = None
    if limit:
        last = [r for r in rows if r["epsilon"] == config.epsilons[-1] and not r["failed"]]
        errors = {name: np.array([r["normalized_error"] for r in last
                                  if r["estimator"] == name]) for name in names}
        ks_results, moment_comparison = spec.compare(errors, sample)

    estimators = sorted(names)
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
            rate_fits[est] = dataclasses.asdict(
                fit_rate(list(config.epsilons), means)
            )

    return ExperimentReport(
        scenario=config.scenario,
        effective_config=config.to_dict(),
        constants=spec.constants,
        summaries=summaries,
        rate_fits=rate_fits,
        ks_results=ks_results,
        moment_comparison=moment_comparison,
        notes=list(spec.notes),
        rows=rows,
    )


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def write_csv(path: str, header: str, rows) -> None:
    """``header``, then a line per row: flags 0/1, floats by their round-trip ``str``."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(header + "\n")
        for row in rows:
            handle.write(",".join(str(int(c) if isinstance(c, bool) else c) for c in row)
                         + "\n")


def write_rows_csv(rows: Sequence[dict], path: str) -> None:
    """Per-replication records, the ``CSV_HEADER`` fields of each."""
    write_csv(path, CSV_HEADER, ([r[k] for k in CSV_HEADER.split(",")] for r in rows))


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
    drift = signal.value(thetas[:, None], grid.left_nodes[None, :])
    raw = ito_loglik(drift, path.increments, grid.dt, epsilon)
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
    increments = np.stack([
        euler_increments(drift_matrix[-1], epsilon, grid,
                         replication_rng(master_seed, rep))
        for rep in range(replications)
    ])
    field = ito_loglik(drift_matrix, increments, grid.dt, epsilon)
    ln_z = field[:-1] - field[-1]
    half_means = np.exp(0.5 * ln_z).mean(axis=1)
    y = -np.log(half_means)
    x = np.abs(us) ** (2.0 * signal.hurst)
    return float((x @ y) / (x @ x))
