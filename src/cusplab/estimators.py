"""Likelihood fields and estimators for the small-noise observation model.

For observations ``dX_t = S(theta, t) dt + eps dW_t`` the discrete
log-likelihood of a candidate ``theta`` is the Ito sum

.. math::

    \\ln V(\\theta) = \\frac{1}{\\varepsilon^2} \\sum_i S(\\theta, t_{i-1})
    \\, \\Delta X_i - \\frac{1}{2 \\varepsilon^2} \\sum_i
    S(\\theta, t_{i-1})^2 \\, \\Delta t,

evaluated at left endpoints (``ito_loglik``, for any batch of candidate
drifts and paths).  The module provides the field itself plus four estimators:

* ``mle``: argmax over theta by derivative-free nested grid search (the
  cusp field is continuous but not differentiable at the truth, so
  gradient methods are out),
* ``bayes``: posterior mean under a positive continuous prior,
* ``pseudo_mle``: argmax under an intentionally misspecified cusp model,
* ``kappa_mle`` / ``joint_mle``: the smooth exponent problem and the
  two-parameter (location, exponent) version.

Estimates are reported together with errors normalized by the relevant
rate: ``eps**(1/H)`` for the location under a correct model (with
``H = kappa + 1/2``), ``eps**(2/(3-2*kappa))`` under misspecification,
and ``eps`` for the exponent.

The nested grid search has fixed settings, all tied to that rate: a
coarse step of twice the rate (at most a quarter of the parameter
range), refinement levels that shrink the step ``SHRINK``-fold and scan
``SPAN`` steps either side of the incumbent until it is at most
rate/50, and ``STARTS`` separated coarse candidates refined each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DomainError, NumericalDegeneracyError
from .path_sim import ObservationPath
from .signal_models import from_config, is_location_signal

__all__ = [
    "EstimationResult",
    "JointEstimationResult",
    "UniformPrior",
    "TruncatedNormalPrior",
    "prior_from_config",
    "location_rate",
    "misspec_rate",
    "ito_loglik",
    "refine_argmax",
    "coarse_grid",
    "joint_coarse_nodes",
    "mle",
    "bayes",
    "pseudo_mle",
    "kappa_mle",
    "joint_mle",
]


def location_rate(epsilon: float, hurst: float) -> float:
    """Convergence rate ``eps**(1/H)`` of the location estimators."""
    if not 0.0 < epsilon <= 1.0:
        raise DomainError(f"epsilon must lie in (0, 1], got {epsilon!r}")
    if not 0.5 < hurst < 1.0:
        raise DomainError(f"hurst must lie in (1/2, 1), got {hurst!r}")
    return epsilon ** (1.0 / hurst)


def misspec_rate(epsilon: float, kappa: float) -> float:
    """Convergence rate ``eps**(2/(3-2*kappa))`` of the pseudo-MLE."""
    if not 0.0 < epsilon <= 1.0:
        raise DomainError(f"epsilon must lie in (0, 1], got {epsilon!r}")
    if not 0.0 < kappa < 0.5:
        raise DomainError(f"kappa must lie in (0, 1/2), got {kappa!r}")
    return epsilon ** (2.0 / (3.0 - 2.0 * kappa))


# ---------------------------------------------------------------------------
# the log-likelihood field
# ---------------------------------------------------------------------------

def ito_loglik(
    drift_rows: np.ndarray, increments: np.ndarray, dt: float, eps: float
) -> np.ndarray:
    """Ito log-likelihood ``(sum S dX - dt/2 sum S**2) / eps**2`` per drift row.

    ``drift_rows`` is ``(m, n)``: one candidate drift per row on the left
    nodes.  One path of increments (shape ``(n,)``) gives ``m`` values by
    one matrix-vector product; a ``(paths, n)`` matrix gives the
    ``(m, paths)`` field by one matrix-matrix product.
    """
    inv_var = 1.0 / (eps * eps)
    dot = drift_rows @ increments.T  # .T leaves a single path as it is
    energy = dt * np.einsum("ij,ij->i", drift_rows, drift_rows)
    return inv_var * (dot - 0.5 * (energy if dot.ndim == 1 else energy[:, None]))


def _path_loglik(path: ObservationPath, drift_rows: np.ndarray) -> np.ndarray:
    return ito_loglik(drift_rows, path.increments, path.grid.dt, path.epsilon)


def _location_loglik(path: ObservationPath, signal, thetas: np.ndarray) -> np.ndarray:
    t = path.grid.left_nodes
    return _path_loglik(path, signal.value(thetas[:, None], t[None, :]))


def _check_horizon(path: ObservationPath, signal) -> None:
    if not math.isclose(signal.T, path.grid.T, rel_tol=1e-12, abs_tol=1e-12):
        raise DomainError(
            f"signal horizon T={signal.T!r} does not match path horizon "
            f"T={path.grid.T!r}"
        )


# ---------------------------------------------------------------------------
# nested grid search
# ---------------------------------------------------------------------------

#: Each refinement level shrinks the step ``SHRINK``-fold and scans
#: ``SPAN`` new steps either side of the incumbent; the ``STARTS`` best
#: separated coarse candidates are each refined, to guard against the
#: global maximum hiding in a secondary basin.
SHRINK = 10
SPAN = 20
STARTS = 3


def _scan_best(eval_fn, grid: np.ndarray) -> tuple[float, float]:
    values = np.asarray(eval_fn(grid), dtype=float)
    idx = int(np.argmax(values))
    return float(grid[idx]), float(values[idx])


def _window(bounds, center: float, step: float, span: int) -> np.ndarray:
    """Scan grid of ``span`` steps either side of ``center``, clipped to ``bounds``."""
    left = max(bounds[0], center - span * step)
    right = min(bounds[1], center + span * step)
    return np.linspace(left, right, max(2, int(round((right - left) / step)) + 1))


def _top_candidates(grid, values, count, separation):
    order = np.argsort(values, kind="stable")[::-1]
    picked: list[float] = []
    for idx in order:
        theta = float(grid[idx])
        if all(abs(theta - other) >= separation for other in picked):
            picked.append(theta)
        if len(picked) == count:
            break
    return picked


def refine_argmax(
    eval_fn: Callable[[np.ndarray], np.ndarray],
    bounds: tuple[float, float],
    candidates: Sequence[float],
    step: float,
    target_step: float,
) -> tuple[float, float, int, float]:
    """Refine each candidate by nested grid scans; keep the best.

    Returns ``(theta, value, levels, final_step)``.  Within each level
    the step shrinks ``SHRINK``-fold and the scan window is ``SPAN`` new
    steps either side of the incumbent, clipped to ``bounds``; ties
    resolve to the smallest theta.  When ``step`` is already at most
    ``target_step`` no level runs and each candidate keeps its own field
    value.
    """
    best_theta = math.nan
    best_value = -math.inf
    levels = 0
    final_step = step
    for start in candidates:
        theta, value = float(start), -math.inf
        cur = step
        depth = 0
        while cur > target_step:
            cur /= SHRINK
            depth += 1
            theta, value = _scan_best(eval_fn, _window(bounds, theta, cur, SPAN))
        if depth == 0:
            value = float(eval_fn(np.array([theta]))[0])
        if value > best_value or (value == best_value and theta < best_theta):
            best_theta, best_value = theta, value
            levels = depth
            final_step = cur
    return best_theta, best_value, levels, final_step


def coarse_grid(bounds: tuple[float, float], rate: float) -> np.ndarray:
    """Coarse scan grid over ``bounds`` at twice the convergence rate.

    The step is at most a quarter of the range, so the grid keeps at
    least five nodes.

    Experiment sweeps precompute field values on exactly this grid (one
    matrix product per cell) and hand them to the estimators, so the
    construction must stay in one place.
    """
    lo, hi = bounds
    step = min(2.0 * rate, (hi - lo) / 4.0)
    count = int(math.ceil((hi - lo) / step)) + 1
    return np.linspace(lo, hi, count)


def _coarse_scan(eval_fn, bounds, rate, coarse=None):
    """``(grid, values)`` of the coarse scan: ``coarse`` if given, else evaluated."""
    if coarse is None:
        grid = coarse_grid(bounds, rate)
        return grid, np.asarray(eval_fn(grid), dtype=float)
    grid, values = coarse
    return np.asarray(grid, dtype=float), np.asarray(values, dtype=float)


def _nested_argmax(eval_fn, bounds, rate, coarse=None):
    lo, hi = bounds
    grid, values = _coarse_scan(eval_fn, bounds, rate, coarse)
    actual_step = grid[1] - grid[0]
    candidates = _top_candidates(grid, values, STARTS, 2.0 * actual_step)
    theta, value, levels, final_step = refine_argmax(
        eval_fn, bounds, candidates, actual_step, rate / 50.0
    )
    boundary = theta <= lo + final_step or theta >= hi - final_step
    return float(np.clip(theta, lo, hi)), value, levels + 1, final_step, boundary


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

def _coerce_scalars(obj, **casts) -> None:
    """Replace numpy scalars with Python ones on a frozen dataclass.

    Grid arithmetic leaks ``np.float64``/``np.bool_`` into results, but
    results end up in JSON reports, which stdlib ``json`` only accepts
    with native scalars.
    """
    for name, cast in casts.items():
        value = getattr(obj, name)
        if value is not None:
            object.__setattr__(obj, name, cast(value))


@dataclass(frozen=True)
class EstimationResult:
    """One scalar estimate with its normalization and search diagnostics.

    ``normalized_error`` is ``(estimate - target)/rate`` when the target
    parameter value is known (simulation studies), else ``None``.
    ``boundary`` flags an estimate within one final grid step of the
    parameter bounds, where the interior-optimum theory does not apply.
    """

    estimator: str
    estimate: float
    rate: float
    normalized_error: Optional[float]
    boundary: bool
    grid_step: float
    refinement_levels: int
    boundary_mass: float = 0.0

    def __post_init__(self) -> None:
        _coerce_scalars(
            self, estimate=float, rate=float, normalized_error=float,
            boundary=bool, grid_step=float, refinement_levels=int,
            boundary_mass=float,
        )


@dataclass(frozen=True)
class JointEstimationResult:
    """Two-parameter (location, exponent) estimate with per-axis scaling."""

    rho_hat: float
    kappa_hat: float
    rho_rate: float
    kappa_rate: float
    rho_normalized_error: Optional[float]
    kappa_normalized_error: Optional[float]
    boundary: bool
    rho_step: float
    kappa_step: float
    refinement_levels: int

    def __post_init__(self) -> None:
        _coerce_scalars(
            self, rho_hat=float, kappa_hat=float, rho_rate=float,
            kappa_rate=float, rho_normalized_error=float,
            kappa_normalized_error=float, boundary=bool, rho_step=float,
            kappa_step=float, refinement_levels=int,
        )


def _normalized(estimate: float, target: Optional[float], rate: float):
    if target is None:
        return None
    return (estimate - target) / rate


# ---------------------------------------------------------------------------
# location estimators
# ---------------------------------------------------------------------------

def _require_cusp(signal, estimator: str) -> None:
    """Reject a signal without a cusp exponent before any of its attributes is read."""
    if not (is_location_signal(signal) and hasattr(signal, "hurst")):
        raise DomainError(
            f"{estimator} needs a location-parametric cusp signal, got "
            f"{type(signal).__name__}"
        )


def _location_mle(path, signal, rate, estimator, target, coarse=None):
    _check_horizon(path, signal)
    eval_fn = lambda thetas: _location_loglik(path, signal, thetas)
    theta, _, levels, step, boundary = _nested_argmax(
        eval_fn, signal.theta_bounds, rate, coarse=coarse
    )
    return EstimationResult(
        estimator=estimator,
        estimate=theta,
        rate=rate,
        normalized_error=_normalized(theta, target, rate),
        boundary=boundary,
        grid_step=step,
        refinement_levels=levels,
    )


def mle(
    path: ObservationPath,
    signal,
    target: Optional[float] = None,
    coarse=None,
) -> EstimationResult:
    """Maximum-likelihood location estimate by nested grid search.

    ``target`` defaults to the true location recorded on the path (if
    any) and only affects the reported normalized error.  ``coarse``
    optionally supplies precomputed ``(grid, values)`` for the coarse
    scan; the grid must come from ``coarse_grid``.
    """
    _require_cusp(signal, "mle")
    rate = location_rate(path.epsilon, signal.hurst)
    if target is None:
        target = path.theta_true
    return _location_mle(path, signal, rate, "mle", target, coarse=coarse)


def pseudo_mle(
    path: ObservationPath,
    theoretical_signal,
    target: Optional[float] = None,
    coarse=None,
) -> EstimationResult:
    """Location estimate under an assumed (possibly wrong) cusp model.

    The likelihood uses ``theoretical_signal`` regardless of how the
    path was generated.  ``target`` should be the best-approximation
    location (the minimizer of the L2 gap between the real and assumed
    drifts); errors are normalized by ``eps**(2/(3-2*kappa))``.
    """
    _require_cusp(theoretical_signal, "pseudo_mle")
    rate = misspec_rate(path.epsilon, theoretical_signal.kappa_eff)
    return _location_mle(
        path, theoretical_signal, rate, "pseudo_mle", target, coarse=coarse
    )


# ---------------------------------------------------------------------------
# Bayes estimator
# ---------------------------------------------------------------------------

class UniformPrior:
    """Flat prior; any positive constant, normalization cancels."""

    name = "uniform"

    def pdf(self, theta: np.ndarray) -> np.ndarray:
        return np.ones_like(theta)


class TruncatedNormalPrior:
    """Normal density restricted to the parameter interval.

    Only the shape matters (the ratio of integrals cancels the
    normalizing constant), so no truncation correction is applied.
    """

    name = "truncated_normal"

    def __init__(self, mean: float, std: float) -> None:
        if not std > 0.0:
            raise ConfigError(f"prior std must be positive, got {std!r}")
        self.mean = float(mean)
        self.std = float(std)

    def pdf(self, theta: np.ndarray) -> np.ndarray:
        z = (theta - self.mean) / self.std
        return np.exp(-0.5 * z * z)


_PRIORS = {"uniform": UniformPrior, "truncated_normal": TruncatedNormalPrior}


def prior_from_config(block: dict):
    """Build a prior from a ``{"name": ..., <parameters>}`` config block.

    The name defaults to ``uniform``; the parameters are checked by
    ``signal_models.from_config``.
    """
    return from_config(_PRIORS, block, "prior", default="uniform")


#: Log-likelihood drop below the observed maximum beyond which posterior
#: mass is negligible at double precision (exp(-60) ~ 9e-27).
_POSTERIOR_LOG_DROP = 60.0


def bayes(
    path: ObservationPath,
    signal,
    prior=None,
    target: Optional[float] = None,
    coarse=None,
) -> EstimationResult:
    """Posterior-mean location estimate under quadratic loss.

    The posterior concentrates on an ``eps**(1/H)``-neighbourhood of the
    maximum, so the ratio of integrals is computed on a fine trapezoid
    grid covering every coarse node within ``exp(-60)`` of the maximum,
    with max-shifted exponentials for stability.  ``coarse`` optionally
    supplies precomputed ``(grid, values)`` from ``coarse_grid``.
    """
    _require_cusp(signal, "bayes")
    _check_horizon(path, signal)
    prior = prior or UniformPrior()
    if target is None:
        target = path.theta_true
    rate = location_rate(path.epsilon, signal.hurst)
    alpha, beta = signal.theta_bounds
    cgrid, cvals = _coarse_scan(
        lambda thetas: _location_loglik(path, signal, thetas),
        (alpha, beta), rate, coarse,
    )
    keep = cvals >= cvals.max() - _POSTERIOR_LOG_DROP
    step = cgrid[1] - cgrid[0]
    lo = max(alpha, cgrid[keep].min() - step)
    hi = min(beta, cgrid[keep].max() + step)

    fine_step = rate / 10.0
    n_fine = max(50, int(math.ceil((hi - lo) / fine_step))) + 1
    grid = np.linspace(lo, hi, n_fine)
    log_vals = _location_loglik(path, signal, grid)
    weights = prior.pdf(grid) * np.exp(log_vals - log_vals.max())
    denom = np.trapezoid(weights, grid)
    if not (np.isfinite(denom) and denom > 0.0):
        raise NumericalDegeneracyError(
            f"posterior normalization degenerate (denominator={denom!r}) "
            f"at epsilon={path.epsilon!r}"
        )
    estimate = float(np.trapezoid(grid * weights, grid) / denom)
    estimate = float(np.clip(estimate, alpha, beta))

    edge = np.zeros_like(grid, dtype=bool)
    edge |= grid <= alpha + fine_step
    edge |= grid >= beta - fine_step
    if edge.any():
        boundary_mass = float(np.trapezoid(np.where(edge, weights, 0.0), grid) / denom)
    else:
        boundary_mass = 0.0
    actual_step = grid[1] - grid[0]
    return EstimationResult(
        estimator="bayes",
        estimate=estimate,
        rate=rate,
        normalized_error=_normalized(estimate, target, rate),
        boundary=estimate <= alpha + actual_step or estimate >= beta - actual_step,
        grid_step=actual_step,
        refinement_levels=1,
        boundary_mass=boundary_mass,
    )


# ---------------------------------------------------------------------------
# exponent estimators
# ---------------------------------------------------------------------------

def _parabolic_step(x: np.ndarray, f: np.ndarray) -> Optional[float]:
    # Vertex of the parabola through three points with uniform spacing h:
    # x1 + h/2 * (f0 - f2) / (f0 - 2 f1 + f2).
    h = x[1] - x[0]
    denom = f[0] - 2.0 * f[1] + f[2]
    if denom >= 0.0 or not np.isfinite(denom):
        return None
    vertex = x[1] + 0.5 * h * (f[0] - f[2]) / denom
    if not x[0] <= vertex <= x[2]:
        return None
    return float(vertex)


def kappa_mle(
    path: ObservationPath,
    a: float,
    rho: float,
    kappa_bounds: tuple[float, float] = (0.05, 0.45),
    target: Optional[float] = None,
    coarse=None,
) -> EstimationResult:
    """MLE of the cusp exponent with known amplitude and location.

    This is a regular (smooth) problem, rate ``eps``; after the nested
    grid search a three-point parabolic interpolation of the log-field
    polishes the estimate below the final grid step.
    """
    lo, hi = kappa_bounds
    if not (0.0 < lo < hi):
        raise DomainError(f"kappa bounds must satisfy 0 < lo < hi, got {kappa_bounds!r}")
    if not a > 0.0:
        raise DomainError(f"amplitude a must be positive, got {a!r}")
    if not 0.0 < rho < path.grid.T:
        raise DomainError(f"rho must lie in (0, T), got {rho!r}")
    rate = path.epsilon
    dist = np.abs(path.grid.left_nodes - rho)
    eval_fn = lambda kappas: _path_loglik(path, a * dist[None, :] ** kappas[:, None])
    kappa, _, levels, step, boundary = _nested_argmax(
        eval_fn, kappa_bounds, rate, coarse=coarse
    )
    inner = np.clip([kappa - step, kappa, kappa + step], lo, hi)
    if inner[0] < inner[1] < inner[2]:
        polished = _parabolic_step(inner, eval_fn(np.asarray(inner)))
        if polished is not None:
            kappa = polished
    return EstimationResult(
        estimator="kappa_mle",
        estimate=float(np.clip(kappa, lo, hi)),
        rate=rate,
        normalized_error=_normalized(kappa, target, rate),
        boundary=boundary,
        grid_step=step,
        refinement_levels=levels,
    )


def joint_coarse_nodes(
    theta_bounds: tuple[float, float], kappa_bounds: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Coarse axes of the two-parameter scan: dense in location, 9 exponents."""
    rho_nodes = np.linspace(theta_bounds[0], theta_bounds[1], 201)
    kappa_nodes = np.linspace(kappa_bounds[0], kappa_bounds[1], 9)
    return rho_nodes, kappa_nodes


def joint_mle(
    path: ObservationPath,
    a: float,
    theta_bounds: tuple[float, float],
    kappa_bounds: tuple[float, float] = (0.05, 0.45),
    rho_true: Optional[float] = None,
    kappa_true: Optional[float] = None,
    coarse=None,
) -> EstimationResult | JointEstimationResult:
    """Joint MLE of (location, exponent) with known amplitude.

    A coarse two-dimensional scan seeds alternating per-axis nested
    refinements; the location error is normalized by ``eps**(1/H)`` at
    the estimated exponent, the exponent error by ``eps``.  ``coarse``
    optionally supplies ``(rho_nodes, kappa_nodes, values)`` with
    ``values[i, j]`` the log-likelihood at ``(kappa_nodes[i],
    rho_nodes[j])``, as built by ``joint_coarse_nodes``.
    """
    if not a > 0.0:
        raise DomainError(f"amplitude a must be positive, got {a!r}")
    alo, ahi = theta_bounds
    klo, khi = kappa_bounds
    if not (0.0 < alo < ahi < path.grid.T):
        raise DomainError(f"invalid theta bounds {theta_bounds!r}")
    if not (0.0 < klo < khi):
        raise DomainError(f"invalid kappa bounds {kappa_bounds!r}")
    if rho_true is None:
        rho_true = path.theta_true
    eps = path.epsilon
    t = path.grid.left_nodes

    def field(rhos: np.ndarray, kappa: float) -> np.ndarray:
        return _path_loglik(path, a * np.abs(t[None, :] - rhos[:, None]) ** kappa)

    # Coarse scan: a handful of exponents, a dense location axis.
    if coarse is None:
        rho_nodes, kappa_nodes = joint_coarse_nodes(theta_bounds, kappa_bounds)
        values = np.stack([field(rho_nodes, float(k)) for k in kappa_nodes])
    else:
        rho_nodes, kappa_nodes, values = coarse
        rho_nodes = np.asarray(rho_nodes, dtype=float)
        kappa_nodes = np.asarray(kappa_nodes, dtype=float)
        values = np.asarray(values, dtype=float)
    coarse_rho_step = rho_nodes[1] - rho_nodes[0]
    coarse_kappa_step = kappa_nodes[1] - kappa_nodes[0]
    kappa_target = eps / 50.0

    def descend(rho: float, kappa: float):
        rho_step, kappa_step = coarse_rho_step, coarse_kappa_step
        value = -np.inf
        levels = 1
        while True:
            hurst = min(khi, max(klo, kappa)) + 0.5
            rho_target = location_rate(eps, hurst) / 50.0
            if rho_step <= rho_target and kappa_step <= kappa_target:
                break
            if rho_step > rho_target:
                rho_step /= SHRINK
            if kappa_step > kappa_target:
                kappa_step /= SHRINK
            # Two alternation passes per resolution level: a large move
            # along one axis shifts the conditional optimum of the other,
            # and the second pass lets the scan windows follow it.
            for _ in range(2):
                rho, _ = _scan_best(
                    lambda g: field(g, kappa),
                    _window(theta_bounds, rho, rho_step, SPAN),
                )
                # One row per exponent: batching them into one product
                # would change the last bits of the field.
                kappa, value = _scan_best(
                    lambda g: np.array(
                        [field(np.array([rho]), float(k))[0] for k in g]
                    ),
                    _window(kappa_bounds, kappa, kappa_step, SPAN),
                )
            levels += 1
            if levels > 12:
                break
        if not np.isfinite(value):
            value = float(field(np.array([rho]), kappa)[0])
        return rho, kappa, value, levels, rho_step, kappa_step

    # Multi-start: descend from the best few coarse cells that do not sit
    # in each other's basins, and keep the highest final log-likelihood.
    order = np.argsort(values, axis=None, kind="stable")[::-1]
    seeds: list[tuple[float, float]] = []
    for flat in order:
        ki, ri = np.unravel_index(int(flat), values.shape)
        cand = (float(rho_nodes[ri]), float(kappa_nodes[ki]))
        if any(
            abs(cand[0] - r0) <= 2.0 * coarse_rho_step
            and abs(cand[1] - k0) <= 2.0 * coarse_kappa_step
            for r0, k0 in seeds
        ):
            continue
        seeds.append(cand)
        if len(seeds) >= STARTS:
            break
    best = None
    for rho0, kappa0 in seeds:
        run = descend(rho0, kappa0)
        if (
            best is None
            or run[2] > best[2]
            or (run[2] == best[2] and (run[0], run[1]) < (best[0], best[1]))
        ):
            best = run
    rho, kappa, _, levels, rho_step, kappa_step = best

    rho_rate = location_rate(eps, kappa + 0.5)
    boundary = (
        rho <= alo + rho_step
        or rho >= ahi - rho_step
        or kappa <= klo + kappa_step
        or kappa >= khi - kappa_step
    )
    return JointEstimationResult(
        rho_hat=float(np.clip(rho, alo, ahi)),
        kappa_hat=float(np.clip(kappa, klo, khi)),
        rho_rate=rho_rate,
        kappa_rate=eps,
        rho_normalized_error=_normalized(rho, rho_true, rho_rate),
        kappa_normalized_error=_normalized(kappa, kappa_true, eps),
        boundary=boundary,
        rho_step=rho_step,
        kappa_step=kappa_step,
        refinement_levels=levels,
    )
