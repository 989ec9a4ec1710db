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
Each scan window is a linspace grid, and none is evaluated with one power
per candidate and node:

* a location window (``mle``, ``pseudo_mle`` and the ``joint_mle`` rho
  windows, ``_window_loglik``) sums the nodes within ``FAR`` half-widths of
  its centre directly; every other node is smooth in theta across the
  window and enters through ``CHEB`` Chebyshev points, interpolated to the
  window's thetas;
* an exponent window (``kappa_mle`` and the ``joint_mle`` kappa windows,
  ``_exponent_rows``) is arithmetic in kappa, so each drift row is the one
  before times ``|t - rho|**step``.

Both agree with direct rows to about 1e-14 relative; the coarse scans and
the exponent polish use direct rows.  Within one estimator call each
window is scanned once: starts that converge, and the joint search's
passes that leave the other coordinate where it was, reuse the stored
scan (``_scan_window``).

The Bayes posterior is instead integrated over the whole of
``theta_bounds`` on the half-offset lattice ``(m + 1/2) * dt/q`` at a step
of at most rate/10.  Every location family is a ``kernel`` of ``t - theta``
plus a nuisance affine in theta (``signal_models.LocationSignal``), so the
field on that lattice is one FFT correlation of one kernel vector plus
prefix sums of its square; no drift row is formed.  Everything but the
correlation with the increments is path-independent and held by a
``FineLattice``, which a sweep cell builds once (``bayes_lattice``) and a
stand-alone ``bayes`` call builds for itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.fft import next_fast_len

from .errors import ConfigError, DomainError, NumericalDegeneracyError
from .path_sim import ObservationPath, TimeGrid
from .signal_models import cusp_term, from_config, is_location_signal

__all__ = [
    "EstimationResult",
    "JointEstimationResult",
    "UniformPrior",
    "TruncatedNormalPrior",
    "prior_from_config",
    "location_rate",
    "misspec_rate",
    "ito_loglik",
    "FineLattice",
    "bayes_lattice",
    "refine_argmax",
    "coarse_grid",
    "location_coarse",
    "kappa_coarse",
    "joint_coarse",
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


#: A location window sums the nodes within ``FAR`` half-widths of its centre
#: directly; every other node enters through ``CHEB`` Chebyshev points.
FAR = 8
CHEB = 12

# Chebyshev points of the first kind on [-1, 1] and their barycentric weights.
_CHEB_ANGLES = (2 * np.arange(CHEB) + 1) * np.pi / (2 * CHEB)
_CHEB_X = np.cos(_CHEB_ANGLES)
_CHEB_WEIGHTS = (-1.0) ** np.arange(CHEB) * np.sin(_CHEB_ANGLES)


def _barycentric(x: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Matrix taking values at the Chebyshev ``nodes`` to their interpolant at ``x``.

    A point on a node takes that node's value (the first, if the nodes
    coincide in a window of zero width).
    """
    diff = x[:, None] - nodes
    hit = diff == 0.0
    first_hit = hit & (np.cumsum(hit, axis=1) == 1)
    terms = np.where(hit.any(axis=1, keepdims=True), first_hit,
                     _CHEB_WEIGHTS / np.where(hit, 1.0, diff))
    return terms / terms.sum(axis=1, keepdims=True)


def _window_loglik(path: ObservationPath, rows, thetas: np.ndarray) -> np.ndarray:
    """Field at the ascending window ``thetas``; ``rows(theta_column, t)`` gives drifts.

    With centre ``c`` and half-width ``w`` of the window, the nodes with
    ``|t_i - c| <= FAR*w`` (one slice of the sorted nodes) are summed
    directly for every theta.  For each other node, ``theta -> S(theta,
    t_i)`` is analytic on a Bernstein ellipse of the window with parameter
    at least ``FAR + sqrt(FAR**2 - 1)``: the cusp tip ``t_i`` lies outside
    it, and the nuisances are affine in theta.  So the sum over those
    nodes is evaluated at ``CHEB`` Chebyshev points of the window and
    interpolated (barycentric formula, Berrut & Trefethen 2004), with a
    relative error of order ``(8 + sqrt 63)**-12``, about 4e-15.  An empty
    far set adds zero.
    """
    t, dx = path.grid.left_nodes, path.increments
    dt, eps = path.grid.dt, path.epsilon
    c = 0.5 * (thetas[0] + thetas[-1])
    w = 0.5 * (thetas[-1] - thetas[0])
    i0 = int(np.searchsorted(t, c - FAR * w, side="left"))
    i1 = int(np.searchsorted(t, c + FAR * w, side="right"))
    near = ito_loglik(rows(thetas[:, None], t[i0:i1]), dx[i0:i1], dt, eps)
    nodes = c + w * _CHEB_X
    far_t = np.concatenate((t[:i0], t[i1:]))
    far_dx = np.concatenate((dx[:i0], dx[i1:]))
    far = ito_loglik(rows(nodes[:, None], far_t), far_dx, dt, eps)
    return near + _barycentric(thetas, nodes) @ far


def _exponent_rows(a: float, rho: float, kappas: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Rows ``cusp_term(a, rho, kappas[:, None], t)`` of an arithmetic ``kappas``.

    The first row is ``a*|t - rho|**kappas[0]``; each next row is the one
    before times ``|t - rho|**step``, with the step ``(kappas[-1] -
    kappas[0]) / (m - 1)`` of ``np.linspace``.  Two powers per node
    instead of one per row; a node at ``rho`` stays 0.
    """
    x = np.abs(t - rho)
    out = np.empty((kappas.size, t.size))
    out[0] = a * x ** kappas[0]
    if kappas.size > 1:
        ratio = x ** ((kappas[-1] - kappas[0]) / (kappas.size - 1))
        for j in range(1, kappas.size):
            np.multiply(out[j - 1], ratio, out=out[j])
    return out


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


def _scan_window(memo: dict, eval_fn, bounds, center: float, step: float, *fixed):
    """``_scan_best`` over ``_window(bounds, center, step, SPAN)``, once per window.

    ``memo`` belongs to one estimator call and maps ``(center, step,
    *fixed)`` to the scan's ``(argmax, value)``; ``fixed`` is whatever else
    ``eval_fn`` depends on (the other coordinate of the joint search).  A
    repeated window returns the stored result without building its grid.
    """
    key = (center, step, *fixed)
    if key not in memo:
        memo[key] = _scan_best(eval_fn, _window(bounds, center, step, SPAN))
    return memo[key]


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
    value.  Starts that converge share their later windows, which are
    scanned once (``_scan_window``).
    """
    best_theta = math.nan
    best_value = -math.inf
    levels = 0
    final_step = step
    memo: dict = {}
    for start in candidates:
        theta, value = float(start), -math.inf
        cur = step
        depth = 0
        while cur > target_step:
            cur /= SHRINK
            depth += 1
            theta, value = _scan_window(memo, eval_fn, bounds, theta, cur)
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
    least five nodes.  ``location_coarse`` and ``kappa_coarse`` scan it.
    """
    lo, hi = bounds
    step = min(2.0 * rate, (hi - lo) / 4.0)
    count = int(math.ceil((hi - lo) / step)) + 1
    return np.linspace(lo, hi, count)


# One coarse scan per estimator family: its axes, then its field over one path of
# increments ``(n,)`` or, with a trailing path axis, over a ``(paths, n)`` matrix.
# A sweep scans a cell's paths at once and passes each estimator its column.
def location_coarse(signal, rate, grid, increments, eps):
    """``(thetas, field)`` over ``coarse_grid(signal.theta_bounds, rate)``."""
    thetas = coarse_grid(signal.theta_bounds, rate)
    rows = signal.value(thetas[:, None], grid.left_nodes[None, :])
    return thetas, ito_loglik(rows, increments, grid.dt, eps)


def kappa_coarse(a, rho, kappa_bounds, grid, increments, eps):
    """``(kappas, field)`` over ``coarse_grid(kappa_bounds, eps)``."""
    kappas = coarse_grid(kappa_bounds, eps)
    rows = cusp_term(a, rho, kappas[:, None], grid.left_nodes)
    return kappas, ito_loglik(rows, increments, grid.dt, eps)


def joint_coarse(a, theta_bounds, kappa_bounds, grid, increments, eps):
    """``(rho_nodes, kappa_nodes, field)``: 201 locations, 9 exponents.

    ``field[i, j]`` is the log-likelihood at ``(kappa_nodes[i],
    rho_nodes[j])``; one ``201 x n`` drift matrix is alive at a time.
    """
    rho_nodes = np.linspace(theta_bounds[0], theta_bounds[1], 201)
    kappa_nodes = np.linspace(kappa_bounds[0], kappa_bounds[1], 9)
    field = np.stack([
        ito_loglik(cusp_term(a, rho_nodes[:, None], float(k), grid.left_nodes),
                   increments, grid.dt, eps)
        for k in kappa_nodes
    ])
    return rho_nodes, kappa_nodes, field


def _nested_argmax(eval_fn, bounds, rate, coarse):
    lo, hi = bounds
    grid, values = coarse
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
    """Reject a signal that is not a location family before any of its attributes is read."""
    if not is_location_signal(signal):
        raise DomainError(
            f"{estimator} needs a location-parametric cusp signal, got "
            f"{type(signal).__name__}"
        )


def _location_mle(path, signal, rate, estimator, target, coarse=None):
    _check_horizon(path, signal)
    if coarse is None:
        coarse = location_coarse(signal, rate, path.grid, path.increments, path.epsilon)
    eval_fn = lambda thetas: _window_loglik(path, signal.value, thetas)
    theta, _, levels, step, boundary = _nested_argmax(
        eval_fn, signal.theta_bounds, rate, coarse
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
    optionally supplies this path's ``location_coarse`` scan.
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
    drifts); errors are normalized by ``eps**(2/(3-2*kappa))``.  ``coarse``
    as in ``mle``, at this rate.
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


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.flags.writeable = False


class FineLattice:
    """Half-offset lattice ``(m + 1/2)*dt/q`` in ``[lo, hi]``, path-free half of its field.

    ``q = ceil(dt/h)`` and every ``p``-th node is kept, ``p = max(1,
    floor(h/dt))``, so one of ``p``, ``q`` is 1 and the step ``p*dt/q`` is
    at most ``h``.  The half-unit offset keeps every theta at least
    ``dt/(2q)`` from the time nodes, off the tips of the cusps
    ``|t_i - theta|**kappa``.

    Every location family is ``kernel(theta, t) = K(t - theta)`` plus an
    affine nuisance ``h = h0(t) + theta*h1(t)``, and ``t_i - theta_m =
    (i*q - m - 1/2) * dt/q``.  So with one kernel vector ``K[k] =
    signal.kernel(0, (k - m_max - 1/2) * dt/q)`` the drift row of
    ``theta_m`` is ``K[c + i*q]`` at ``c = m_max - m``, and no row is formed:

    * ``sum_i K[c + i*q] v_i`` for ``v`` = the increments, ``h0`` and
      ``h1`` is a real-FFT correlation of ``K`` with ``v`` upsampled by
      ``q``, every ``c`` at once;
    * ``sum_i K[c + i*q]**2`` is a difference of prefix sums of ``K**2``
      along the residue class of ``c`` mod ``q``;
    * the rest of the dot and energy terms are scalar sums times powers
      of theta.

    Only the first sum over the increments depends on the path.  The
    constructor does the rest once (the thetas, the spectrum of ``K``, the
    nuisance correlations, the prefix sums and the whole energy term), so
    that ``field`` costs one rfft and one irfft per path.  Its arrays are
    read-only, so pool threads may share one lattice.

    A window narrower than ``dt`` would make the kernel longer than the
    rows themselves; ``field`` is then the window field of
    ``_window_loglik`` at the same thetas.
    """

    def __init__(self, signal, grid: TimeGrid, lo: float, hi: float, h: float) -> None:
        dt, t, n = grid.dt, grid.left_nodes, grid.n
        q, p = math.ceil(dt / h), max(1, math.floor(h / dt))
        u = dt / q
        m_min = math.ceil(lo / u - 0.5)
        ms = m_min + p * np.arange(math.floor((hi / u - 0.5 - m_min) / p) + 1)
        self.signal, self.grid, self.bounds, self.max_step = signal, grid, (lo, hi), h
        self.thetas = thetas = (ms + 0.5) * u
        _read_only(thetas)
        width = q * (n - 1) + 1
        span = int(ms[-1] - m_min)
        self._spectrum = None
        if width + span > thetas.size * n:
            return
        nuisance = signal.nuisance
        if nuisance is None:
            h0, h1 = np.zeros(n), np.zeros(n)
        else:  # every nuisance class is affine in theta
            h0 = nuisance.value(0.0, t)
            h1 = nuisance.value(1.0, t) - h0
        K = signal.kernel(0.0, (np.arange(width + span) - ms[-1] - 0.5) * u)

        upsampled = np.zeros((2, width))
        upsampled[:, ::q] = (h0, h1)
        size = next_fast_len(K.size, real=True)  # >= K.size: no wrap-around
        spectrum = np.fft.rfft(K, size)
        offsets = span - p * np.arange(thetas.size)  # c = m_max - m of each theta
        k_h0, k_h1 = np.fft.irfft(
            spectrum * np.fft.rfft(upsampled, size).conj(), size)[:, offsets]

        classes = np.zeros((n + span // q + 1, q))
        classes.flat[q:q + K.size] = K * K
        prefix = np.cumsum(classes, axis=0)
        start, residue = np.divmod(offsets, q)
        k_sq = prefix[start + n, residue] - prefix[start, residue]

        energy = (k_sq + 2.0 * (k_h0 + thetas * k_h1) + h0 @ h0
                  + thetas * (2.0 * (h0 @ h1) + thetas * (h1 @ h1)))
        self._q, self._width, self._size, self._offsets = q, width, size, offsets
        self._spectrum, self._h0, self._h1 = spectrum, h0, h1
        self._half_energy = 0.5 * dt * energy
        _read_only(offsets, spectrum, h0, h1, self._half_energy)

    def field(self, path: ObservationPath) -> np.ndarray:
        """Log-likelihood of ``path`` at ``thetas``; the path must be on this grid."""
        if path.grid != self.grid:
            raise DomainError(f"path grid {path.grid!r} is not the lattice grid {self.grid!r}")
        if self._spectrum is None:
            return _window_loglik(path, self.signal.value, self.thetas)
        dx = path.increments
        upsampled = np.zeros(self._width)
        upsampled[::self._q] = dx
        # np.multiply, not ``*``: numpy would reuse the temporary conjugate as
        # the output, whose in-place loop rounds differently.
        product = np.multiply(self._spectrum, np.fft.rfft(upsampled, self._size).conj())
        k_dx = np.fft.irfft(product, self._size)[self._offsets]
        dot = k_dx + self._h0 @ dx + self.thetas * (self._h1 @ dx)
        return (dot - self._half_energy) / (path.epsilon * path.epsilon)


def _bayes_step(signal, epsilon: float) -> float:
    """Lattice step bound of ``bayes``: rate/10, and at most 1/51 of the bounds."""
    alpha, beta = signal.theta_bounds
    return min(location_rate(epsilon, signal.hurst) / 10.0, (beta - alpha) / 51.0)


def bayes_lattice(signal, grid: TimeGrid, epsilon: float) -> FineLattice:
    """The lattice ``bayes`` integrates on for paths on ``grid`` at ``epsilon``.

    A sweep cell builds it once and passes it to every ``bayes`` call of
    the cell; the estimates are those of the calls without it.
    """
    _require_cusp(signal, "bayes")
    return FineLattice(signal, grid, *signal.theta_bounds, _bayes_step(signal, epsilon))


def bayes(
    path: ObservationPath,
    signal,
    prior=None,
    target: Optional[float] = None,
    lattice: Optional[FineLattice] = None,
) -> EstimationResult:
    """Posterior-mean location estimate under quadratic loss.

    The ratio of integrals is computed by the trapezoid rule over the
    whole of ``theta_bounds``, with max-shifted exponentials for
    stability.  The grid is the half-offset lattice ``(m + 1/2) * dt/q`` at
    a step of at most rate/10 and at most 1/51 of the bounds, so at least
    50 intervals span them; its field is one FFT correlation plus prefix
    sums (``FineLattice``), with no coarse scan and no search.  ``lattice``
    optionally supplies ``bayes_lattice(signal, path.grid, path.epsilon)``,
    built once for many paths.
    """
    _require_cusp(signal, "bayes")
    _check_horizon(path, signal)
    prior = prior or UniformPrior()
    if target is None:
        target = path.theta_true
    rate = location_rate(path.epsilon, signal.hurst)
    alpha, beta = signal.theta_bounds
    if lattice is None:
        lattice = bayes_lattice(signal, path.grid, path.epsilon)
    elif (lattice.signal, lattice.bounds, lattice.max_step) != (
        signal, (alpha, beta), _bayes_step(signal, path.epsilon)
    ):
        raise DomainError("the lattice was built for another signal or noise level")
    grid, log_vals = lattice.thetas, lattice.field(path)
    step = grid[1] - grid[0]
    weights = prior.pdf(grid) * np.exp(log_vals - log_vals.max())
    denom = np.trapezoid(weights, grid)
    if not (np.isfinite(denom) and denom > 0.0):
        raise NumericalDegeneracyError(
            f"posterior normalization degenerate (denominator={denom!r}) "
            f"at epsilon={path.epsilon!r}"
        )
    estimate = float(np.trapezoid(grid * weights, grid) / denom)
    estimate = float(np.clip(estimate, alpha, beta))

    edge = (grid <= alpha + step) | (grid >= beta - step)
    boundary_mass = float(np.trapezoid(np.where(edge, weights, 0.0), grid) / denom)
    return EstimationResult(
        estimator="bayes",
        estimate=estimate,
        rate=rate,
        normalized_error=_normalized(estimate, target, rate),
        boundary=estimate <= alpha + step or estimate >= beta - step,
        grid_step=step,
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
    polishes the estimate below the final grid step.  ``coarse``
    optionally supplies this path's ``kappa_coarse`` scan.
    """
    lo, hi = kappa_bounds
    if not (0.0 < lo < hi):
        raise DomainError(f"kappa bounds must satisfy 0 < lo < hi, got {kappa_bounds!r}")
    if not a > 0.0:
        raise DomainError(f"amplitude a must be positive, got {a!r}")
    if not 0.0 < rho < path.grid.T:
        raise DomainError(f"rho must lie in (0, T), got {rho!r}")
    rate = path.epsilon
    if coarse is None:
        coarse = kappa_coarse(a, rho, kappa_bounds, path.grid, path.increments, rate)
    t = path.grid.left_nodes
    eval_fn = lambda kappas: _path_loglik(path, _exponent_rows(a, rho, kappas, t))
    kappa, _, levels, step, boundary = _nested_argmax(eval_fn, kappa_bounds, rate, coarse)
    inner = np.clip([kappa - step, kappa, kappa + step], lo, hi)
    if inner[0] < inner[1] < inner[2]:
        rows = cusp_term(a, rho, inner[:, None], t)
        polished = _parabolic_step(inner, _path_loglik(path, rows))
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


def joint_mle(
    path: ObservationPath,
    a: float,
    theta_bounds: tuple[float, float],
    kappa_bounds: tuple[float, float] = (0.05, 0.45),
    rho_true: Optional[float] = None,
    kappa_true: Optional[float] = None,
    coarse=None,
) -> JointEstimationResult:
    """Joint MLE of (location, exponent) with known amplitude, as a ``JointEstimationResult``.

    A coarse two-dimensional scan seeds alternating per-axis nested
    refinements of the field of ``cusp_term(a, rho, kappa, t)``.  A
    location window takes its far nodes through Chebyshev points
    (``_window_loglik``), an exponent window builds its rows by recurrence
    (``_exponent_rows``); a window already scanned in this call, with the
    same centre, step and other coordinate, is not scanned again.  The
    location error is normalized by ``eps**(1/H)`` at
    the estimated exponent, the exponent error by ``eps``.  The exponent
    bounds must lie in ``(0, 1/2)``, where the location rate is defined.
    ``coarse`` optionally supplies this path's ``joint_coarse`` scan.
    """
    if not a > 0.0:
        raise DomainError(f"amplitude a must be positive, got {a!r}")
    alo, ahi = theta_bounds
    klo, khi = kappa_bounds
    if not (0.0 < alo < ahi < path.grid.T):
        raise DomainError(f"theta_bounds need 0 < lo < hi < T, got {theta_bounds!r}")
    if not (0.0 < klo < khi < 0.5):
        raise DomainError(f"kappa_bounds need 0 < lo < hi < 1/2, got {kappa_bounds!r}")
    if rho_true is None:
        rho_true = path.theta_true
    eps = path.epsilon
    t = path.grid.left_nodes

    def rho_field(rhos, kappa) -> np.ndarray:
        return _window_loglik(path, lambda r, nodes: cusp_term(a, r, kappa, nodes), rhos)

    def kappa_field(rho, kappas) -> np.ndarray:
        return _path_loglik(path, _exponent_rows(a, rho, kappas, t))

    if coarse is None:
        coarse = joint_coarse(
            a, theta_bounds, kappa_bounds, path.grid, path.increments, eps
        )
    rho_nodes, kappa_nodes, values = coarse
    coarse_rho_step = rho_nodes[1] - rho_nodes[0]
    coarse_kappa_step = kappa_nodes[1] - kappa_nodes[0]
    kappa_target = eps / 50.0
    # A window that a descent or an earlier seed has scanned is not scanned again.
    rho_memo: dict = {}
    kappa_memo: dict = {}

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
                rho, _ = _scan_window(
                    rho_memo, lambda g: rho_field(g, kappa),
                    theta_bounds, rho, rho_step, kappa,
                )
                kappa, value = _scan_window(
                    kappa_memo, lambda g: kappa_field(rho, g),
                    kappa_bounds, kappa, kappa_step, rho,
                )
            levels += 1
            if levels > 12:
                break
        if not np.isfinite(value):
            value = float(kappa_field(rho, np.array([kappa]))[0])
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
