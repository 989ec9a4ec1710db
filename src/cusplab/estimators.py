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

Each estimator takes the observations and the model alone, and reports
its estimate with the relevant rate: ``eps**(1/H)`` for the location
under a correct model (with ``H = kappa + 1/2``), ``eps**(2/(3-2*kappa))``
under misspecification, and ``eps`` for the exponent.  The error
normalized by it needs the true value, which is the caller's.

``mle``, ``pseudo_mle`` and ``joint_mle`` each make one call of the nested
grid search ``_search``, which refines ``STARTS`` separated points of a
coarse scan down to a step of rate/50.  Each coarse scan (``location_coarse``
and its kin) is its axes plus one ``_scan``, which holds at most
``SCAN_BLOCK`` drift rows however fine the grid.  The search windows
(``_window_loglik``, ``_exponent_rows``) take no power per candidate and
node, and each is scanned once per search (``_scan_window``).  The
exponent field is regular, so both exponent estimates end in Newton
scoring on its exact score and Hessian (``_kappa_newton``): ``kappa_mle``
from the argmax of the 9-node exponent axis, ``joint_mle`` from its
search's point at the location found.

The Bayes posterior is instead integrated over the whole of
``theta_bounds`` on the half-offset lattice of a ``FineLattice``, whose
field costs one FFT correlation per path.  ``bayes`` takes it from a
cache keyed by its inputs (``_lattice``), so the calls of a sweep cell
share one lattice.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, NumericalDegeneracyError
from .limit_laws import next_fast_len
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


def _window(bounds, center: float, step: float, span: int) -> np.ndarray:
    """Scan grid of ``span`` steps either side of ``center``, clipped to ``bounds``."""
    left = max(bounds[0], center - span * step)
    right = min(bounds[1], center + span * step)
    return np.linspace(left, right, max(2, int(round((right - left) / step)) + 1))


def _scan_window(memo: dict, eval_fn, bounds, center: float, step: float, *fixed):
    """``(argmax, value)`` of ``eval_fn`` over ``_window(bounds, center, step, SPAN)``, once.

    ``memo`` belongs to one estimator call and maps ``(center, step,
    *fixed)`` to the scan's ``(argmax, value)``; ``fixed`` is whatever else
    ``eval_fn`` depends on (the other coordinate of the joint search).  A
    repeated window returns the stored result without building its grid.
    """
    key = (center, step, *fixed)
    if key not in memo:
        grid = _window(bounds, center, step, SPAN)
        values = np.asarray(eval_fn(grid), dtype=float)
        memo[key] = float(grid[np.argmax(values)]), float(values.max())
    return memo[key]


def _seeds(nodes, values, close) -> list[tuple]:
    """The ``STARTS`` best points of a coarse scan, skipping any ``close`` to one kept.

    ``values`` is the field on the product grid of the axes ``nodes``; a
    point is a tuple with one coordinate per axis.
    """
    kept: list[tuple] = []
    for flat in np.argsort(values, axis=None, kind="stable")[::-1]:
        index = np.unravel_index(flat, values.shape)
        point = tuple(float(axis[i]) for axis, i in zip(nodes, index))
        if not any(close(point, other) for other in kept):
            kept.append(point)
            if len(kept) == STARTS:
                break
    return kept


def _search(coarse, bounds, fields, close, targets):
    """Refine each of the ``_seeds`` of ``coarse = (*axes, values)``; keep the best.

    ``fields[k](point, grid)`` is the field along axis ``k`` through
    ``point``, and ``targets(point)`` gives each axis its target step.  From
    the coarse steps, a level shrinks ``SHRINK``-fold each step above its
    target, then makes one pass per axis, each pass a ``_scan_window`` of
    every axis in turn (rho, kappa, rho, kappa jointly: a large move along
    one axis shifts the other's optimum), with one memo per axis.  At most
    12 levels run; when none does, the value is the field at the seed.

    Returns ``(point, value, levels, steps, boundary)``, ties to the smallest
    point: ``levels`` counts the coarse scan, ``steps`` are the final steps,
    and ``boundary`` flags a coordinate within its final step of a bound.
    """
    *axes, values = coarse
    memos = [{} for _ in axes]
    best = None
    for seed in _seeds(axes, values, close):
        point, value = list(seed), -math.inf
        steps = [axis[1] - axis[0] for axis in axes]
        levels = 1
        while levels <= 12:
            goals = targets(point)
            if all(s <= g for s, g in zip(steps, goals)):
                break
            steps = [s / SHRINK if s > g else s for s, g in zip(steps, goals)]
            for _ in axes:
                for k, field in enumerate(fields):
                    point[k], value = _scan_window(
                        memos[k], lambda grid: field(point, grid), bounds[k],
                        point[k], steps[k], *point[:k], *point[k + 1:],
                    )
            levels += 1
        if levels == 1:
            value = float(fields[-1](point, np.array([point[-1]]))[0])
        if best is None or value > best[1] or (value == best[1] and point < best[0]):
            best = (point, value, levels, steps)
    point, value, levels, steps = best
    boundary = any(p <= lo + s or p >= hi - s for p, s, (lo, hi) in zip(point, steps, bounds))
    point = tuple(min(max(p, lo), hi) for p, (lo, hi) in zip(point, bounds))
    return point, value, levels, tuple(steps), boundary


def coarse_grid(bounds: tuple[float, float], rate: float) -> np.ndarray:
    """Coarse location grid over ``bounds`` at twice the convergence rate.

    The step is at most a quarter of the range, so the grid keeps at
    least five nodes.  Only ``location_coarse`` scans it.
    """
    lo, hi = bounds
    step = min(2.0 * rate, (hi - lo) / 4.0)
    return np.linspace(lo, hi, int(math.ceil((hi - lo) / step)) + 1)


#: A coarse scan holds at most ``SCAN_BLOCK`` candidate drift rows at once.
SCAN_BLOCK = 64


def _scan(row, count, grid, increments, eps) -> np.ndarray:
    """Field of the candidate drifts ``row(j, t)``, ``j < count``, over ``increments``.

    ``increments`` is one path ``(n,)`` or a ``(paths, n)`` matrix, whose
    field gets a trailing path axis.  The rows are filled one at a time
    into near-equal blocks of at most ``SCAN_BLOCK``, one ``ito_loglik``
    product per block: a one-row tail, a matrix-vector product, would
    round differently.
    """
    t = grid.left_nodes
    field = np.empty((count, *increments.shape[:-1]))
    rows = np.empty((min(count, SCAN_BLOCK), t.size))
    for block in np.array_split(np.arange(count), -(-count // SCAN_BLOCK)):
        for i, j in enumerate(block):
            rows[i] = row(j, t)
        field[block] = ito_loglik(rows[:block.size], increments, grid.dt, eps)
    return field


def location_coarse(signal, rate, grid, increments, eps):
    """``(thetas, field)`` over ``coarse_grid(signal.theta_bounds, rate)``, by ``_scan``."""
    thetas = coarse_grid(signal.theta_bounds, rate)
    return thetas, _scan(lambda j, t: signal.value(thetas[j], t),
                         thetas.size, grid, increments, eps)


def _kappa_axis(kappa_bounds) -> np.ndarray:
    """The 9 exponents, bounds included, of both exponent scans at every eps."""
    return np.linspace(*kappa_bounds, 9)


def kappa_coarse(a, rho, kappa_bounds, grid, increments, eps):
    """``(kappas, field)`` over ``_kappa_axis(kappa_bounds)``, by ``_scan``."""
    kappas = _kappa_axis(kappa_bounds)
    return kappas, _scan(lambda j, t: cusp_term(a, rho, kappas[j], t),
                         kappas.size, grid, increments, eps)


def joint_coarse(a, theta_bounds, kappa_bounds, grid, increments, eps):
    """``(rho_nodes, kappa_nodes, field)``: 201 locations, the 9 of ``_kappa_axis``.

    ``field[i, j]`` is the log-likelihood at ``(rho_nodes[i],
    kappa_nodes[j])``, one ``_scan`` over the pairs in that order.
    """
    rho_nodes = np.linspace(theta_bounds[0], theta_bounds[1], 201)
    kappa_nodes = _kappa_axis(kappa_bounds)
    k = kappa_nodes.size
    field = _scan(lambda j, t: cusp_term(a, rho_nodes[j // k], kappa_nodes[j % k], t),
                  rho_nodes.size * k, grid, increments, eps)
    return rho_nodes, kappa_nodes, field.reshape(rho_nodes.size, k, *increments.shape[:-1])


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
    """One scalar estimate with its convergence rate and search diagnostics.

    ``boundary`` flags an estimate within one final grid step (``kappa_mle``:
    ``eps/50``) of the bounds, where the interior-optimum theory does not apply.
    """

    estimator: str
    estimate: float
    rate: float
    boundary: bool
    grid_step: float
    refinement_levels: int
    boundary_mass: float = 0.0

    def __post_init__(self) -> None:
        _coerce_scalars(
            self, estimate=float, rate=float, boundary=bool, grid_step=float,
            refinement_levels=int, boundary_mass=float,
        )


@dataclass(frozen=True)
class JointEstimationResult:
    """Two-parameter (location, exponent) estimate with per-axis rates."""

    rho_hat: float
    kappa_hat: float
    rho_rate: float
    kappa_rate: float
    boundary: bool
    rho_step: float
    kappa_step: float
    refinement_levels: int

    def __post_init__(self) -> None:
        _coerce_scalars(
            self, rho_hat=float, kappa_hat=float, rho_rate=float,
            kappa_rate=float, boundary=bool, rho_step=float, kappa_step=float,
            refinement_levels=int,
        )


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


def _location_mle(path, signal, rate, estimator, coarse=None):
    _check_horizon(path, signal)
    if coarse is None:
        coarse = location_coarse(signal, rate, path.grid, path.increments, path.epsilon)
    coarse_step = coarse[0][1] - coarse[0][0]
    (theta,), _, levels, (step,), boundary = _search(
        coarse, (signal.theta_bounds,),
        (lambda point, thetas: _window_loglik(path, signal.value, thetas),),
        lambda p, q: abs(p[0] - q[0]) < 2.0 * coarse_step,
        lambda point: (rate / 50.0,),
    )
    return EstimationResult(
        estimator=estimator,
        estimate=theta,
        rate=rate,
        boundary=boundary,
        grid_step=step,
        refinement_levels=levels,
    )


def mle(path: ObservationPath, signal, coarse=None) -> EstimationResult:
    """Maximum-likelihood location estimate by nested grid search.

    ``coarse`` optionally supplies this path's ``location_coarse`` scan.
    """
    _require_cusp(signal, "mle")
    rate = location_rate(path.epsilon, signal.hurst)
    return _location_mle(path, signal, rate, "mle", coarse=coarse)


def pseudo_mle(path: ObservationPath, theoretical_signal, coarse=None) -> EstimationResult:
    """Location estimate under an assumed (possibly wrong) cusp model.

    The likelihood uses ``theoretical_signal`` regardless of how the
    path was generated.  The estimate converges to the best-approximation
    location (the minimizer of the L2 gap between the real and assumed
    drifts) at the rate ``eps**(2/(3-2*kappa))``.  ``coarse`` as in
    ``mle``, at this rate.
    """
    _require_cusp(theoretical_signal, "pseudo_mle")
    rate = misspec_rate(path.epsilon, theoretical_signal.kappa_eff)
    return _location_mle(path, theoretical_signal, rate, "pseudo_mle", coarse=coarse)


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
    rows themselves; ``field`` then takes ``ito_loglik`` of those rows.
    """

    def __init__(self, signal, grid: TimeGrid, lo: float, hi: float, h: float) -> None:
        dt, t, n = grid.dt, grid.left_nodes, grid.n
        q, p = math.ceil(dt / h), max(1, math.floor(h / dt))
        u = dt / q
        m_min = math.ceil(lo / u - 0.5)
        ms = m_min + p * np.arange(math.floor((hi / u - 0.5 - m_min) / p) + 1)
        self.signal, self.grid = signal, grid
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
            rows = self.signal.value(self.thetas[:, None], path.grid.left_nodes)
            return _path_loglik(path, rows)
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


#: ``FineLattice`` of the arguments, built once for all the paths on its grid.
#: Callers hold ``_lattice_lock``, or concurrent first calls each build one.
_lattice = functools.lru_cache(maxsize=16)(FineLattice)
_lattice_lock = threading.Lock()


def bayes(path: ObservationPath, signal, prior=None) -> EstimationResult:
    """Posterior-mean location estimate under quadratic loss.

    The ratio of integrals is computed by the trapezoid rule over the
    whole of ``theta_bounds``, with max-shifted exponentials for
    stability.  The grid is the half-offset lattice ``(m + 1/2) * dt/q`` at
    a step of at most rate/10 and at most 1/51 of the bounds, so at least
    50 intervals span them; its field is one FFT correlation plus prefix
    sums (``FineLattice``), with no coarse scan and no search.  The lattice
    depends on the signal, the time grid and the step alone, and comes
    from the cache ``_lattice``: the paths of one grid and noise level
    share it.
    """
    _require_cusp(signal, "bayes")
    _check_horizon(path, signal)
    prior = prior or UniformPrior()
    rate = location_rate(path.epsilon, signal.hurst)
    alpha, beta = signal.theta_bounds
    with _lattice_lock:
        lattice = _lattice(signal, path.grid, alpha, beta, _bayes_step(signal, path.epsilon))
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
        boundary=estimate <= alpha + step or estimate >= beta - step,
        grid_step=step,
        refinement_levels=1,
        boundary_mass=boundary_mass,
    )


# ---------------------------------------------------------------------------
# exponent estimators
# ---------------------------------------------------------------------------

#: Newton scoring stops before a step below ``NEWTON_TOL * eps`` or after ``NEWTON_ITERATIONS``.
NEWTON_TOL = 1e-9
NEWTON_ITERATIONS = 20


def _kappa_newton(path, a, rho, kappa, lo, hi):
    """Newton ascent of the exponent field at location ``rho`` from ``kappa``.

    With ``S = a|t - rho|**kappa`` and ``L = log|t - rho|`` (0 where ``S``
    is), the score is ``sum S*L*(dX - S*dt)/eps**2`` and the Hessian ``sum
    S*L**2*(dX - 2*S*dt)/eps**2``.  A step goes to the Newton point, or
    where the Hessian is not negative to the bound the score points to; it
    is clipped to ``[lo, hi]`` and halved until the field does not drop.
    Returns ``(kappa, iterations, last step, within eps/50 of a bound)``.
    """
    x = np.abs(path.grid.left_nodes - rho)
    log_x = np.log(np.where(x > 0.0, x, 1.0))
    dx, dt, eps = path.increments, path.grid.dt, path.epsilon
    s = a * x**kappa

    def gain(step):  # eps**2 times the field's change; keeps its digits at the maximum
        change = s * np.expm1(step * log_x)
        return change @ (dx - dt * (s + 0.5 * change))

    for iterations in range(1, NEWTON_ITERATIONS + 1):
        sl = s * log_x
        score, hessian = sl @ (dx - dt * s), (sl * log_x) @ (dx - 2.0 * dt * s)
        trial = kappa - score / hessian if hessian < 0.0 else (hi if score > 0.0 else lo)
        trial = min(max(trial, lo), hi)
        while abs(trial - kappa) >= NEWTON_TOL * eps and gain(trial - kappa) < 0.0:
            trial = kappa + 0.5 * (trial - kappa)
        step = abs(trial - kappa)
        if step < NEWTON_TOL * eps:
            break
        kappa, s = trial, a * x**trial
    return kappa, iterations, step, min(kappa - lo, hi - kappa) <= eps / 50.0


def kappa_mle(
    path: ObservationPath,
    a: float,
    rho: float,
    kappa_bounds: tuple[float, float] = (0.05, 0.45),
    coarse=None,
) -> EstimationResult:
    """MLE of the cusp exponent with known amplitude and location.

    This is a regular (smooth) problem, rate ``eps``: Newton scoring
    (``_kappa_newton``) from the argmax of the ``kappa_coarse`` scan, which
    ``coarse`` optionally supplies.  ``refinement_levels`` is 1 plus the
    Newton iterations, ``grid_step`` the last step.
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
    start = float(coarse[0][np.argmax(coarse[1])])
    kappa, iterations, step, boundary = _kappa_newton(path, a, rho, start, lo, hi)
    return EstimationResult(
        estimator="kappa_mle",
        estimate=kappa,
        rate=rate,
        boundary=boundary,
        grid_step=step,
        refinement_levels=1 + iterations,
    )


def joint_mle(
    path: ObservationPath,
    a: float,
    theta_bounds: tuple[float, float],
    kappa_bounds: tuple[float, float] = (0.05, 0.45),
    coarse=None,
) -> JointEstimationResult:
    """Joint MLE of (location, exponent) with known amplitude, as a ``JointEstimationResult``.

    The field of ``cusp_term(a, rho, kappa, t)`` is searched by ``_search``
    on two axes from the ``joint_coarse`` scan, alternating location
    windows (``_window_loglik``) and exponent windows (``_exponent_rows``),
    then the exponent by Newton scoring (``_kappa_newton``) at the location
    found; ``kappa_step`` and ``refinement_levels`` are the search's.
    The location rate is ``eps**(1/H)`` at the estimated exponent, the
    exponent rate ``eps``.  The exponent bounds must lie
    in ``(0, 1/2)``, where the location rate is defined.  ``coarse``
    optionally supplies this path's ``joint_coarse`` scan.
    """
    if not a > 0.0:
        raise DomainError(f"amplitude a must be positive, got {a!r}")
    alo, ahi = theta_bounds
    klo, khi = kappa_bounds
    if not (0.0 < alo < ahi < path.grid.T):
        raise DomainError(f"theta_bounds need 0 < lo < hi < T, got {theta_bounds!r}")
    if not (0.0 < klo < khi < 0.5):
        raise DomainError(f"kappa_bounds need 0 < lo < hi < 1/2, got {kappa_bounds!r}")
    eps = path.epsilon
    t = path.grid.left_nodes

    def rho_field(point, rhos) -> np.ndarray:
        return _window_loglik(path, lambda r, nodes: cusp_term(a, r, point[1], nodes), rhos)

    def kappa_field(point, kappas) -> np.ndarray:
        return _path_loglik(path, _exponent_rows(a, point[0], kappas, t))

    def targets(point) -> tuple[float, float]:
        hurst = min(khi, max(klo, point[1])) + 0.5
        return location_rate(eps, hurst) / 50.0, eps / 50.0

    if coarse is None:
        coarse = joint_coarse(a, theta_bounds, kappa_bounds, path.grid, path.increments, eps)
    rho_nodes, kappa_nodes, _ = coarse
    coarse_rho, coarse_kappa = rho_nodes[1] - rho_nodes[0], kappa_nodes[1] - kappa_nodes[0]
    # A coarse cell within two steps of a better seed on both axes shares its basin.
    (rho, kappa), _, levels, (rho_step, kappa_step), boundary = _search(
        coarse, (theta_bounds, kappa_bounds), (rho_field, kappa_field),
        lambda p, q: (abs(p[0] - q[0]) <= 2.0 * coarse_rho
                      and abs(p[1] - q[1]) <= 2.0 * coarse_kappa),
        targets,
    )
    kappa, _, _, edge = _kappa_newton(path, a, rho, kappa, klo, khi)
    rho_rate = location_rate(eps, kappa + 0.5)
    return JointEstimationResult(
        rho_hat=rho,
        kappa_hat=kappa,
        rho_rate=rho_rate,
        kappa_rate=eps,
        boundary=boundary or edge,
        rho_step=rho_step,
        kappa_step=kappa_step,
        refinement_levels=levels,
    )
