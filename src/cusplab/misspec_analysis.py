"""Deterministic analysis of a misspecified cusp model.

The observed drift is a fixed smooth signal ``S`` while the fitted
family is the pure cusp ``M(theta, t) = a*|t-theta|**kappa``.  The
pseudo-true location is the minimizer of the squared L2 gap

.. math:: \\Phi_0(\\theta) = \\int_0^T (M(\\theta, t) - S(t))^2 \\, dt,

and the curvature ``gamma = Phi_0''(theta_hat)`` sets the scale of the
pseudo-MLE limit law.  Everything here is deterministic quadrature and
scalar minimization; uniqueness and positivity of the curvature are
*certified numerically*, with explicit thresholds, rather than assumed.

Quadrature notes: the integrand has a Holder-``kappa`` kink at
``t = theta``, so the cross term ``integral |t-theta|**kappa * g(t) dt``
is split at ``theta`` and evaluated with Gauss-Jacobi rules that absorb
the ``s**kappa`` endpoint weight exactly; naive uniform rules converge
far too slowly for the 1e-8 relative target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.special import roots_jacobi

from .errors import ConditionViolationError, DomainError
from .signal_models import ConstantNuisance, CuspSignal

__all__ = [
    "MisspecProblem",
    "MisspecSolution",
    "l2_gap",
    "phi",
    "solve_theta_hat",
    "curvature",
]

#: Order of the Gauss-Jacobi rules of the kinked cross term and of the
#: Gauss-Legendre rule of the smooth square term.
QUAD_ORDER = 200

#: Central-difference step for the finite-difference curvature route.
FD_STEP = 1e-4

#: Threshold below which the two best local minima are considered
#: indistinguishable and the minimizer ambiguous.
UNIQUENESS_THRESHOLD = 1e-10


@dataclass(frozen=True)
class MisspecProblem:
    """A pure-cusp fitted family against a fixed smooth real signal."""

    theoretical: CuspSignal
    real: object

    def __post_init__(self) -> None:
        if not isinstance(self.theoretical, CuspSignal):
            raise DomainError(
                f"theoretical model must be a pure cusp, got "
                f"{type(self.theoretical).__name__}"
            )
        nuis = self.theoretical.nuisance
        if nuis is not None and not (
            isinstance(nuis, ConstantNuisance) and nuis.level == 0.0
        ):
            raise DomainError("theoretical cusp must have zero nuisance term")
        if not hasattr(self.real, "value"):
            raise DomainError("real signal must expose value(t)")
        if not math.isclose(self.real.T, self.theoretical.T, rel_tol=1e-12):
            raise DomainError(
                f"real and theoretical horizons differ: {self.real.T!r} vs "
                f"{self.theoretical.T!r}"
            )


@dataclass(frozen=True)
class MisspecSolution:
    """Pseudo-true location with uniqueness and curvature certificates.

    ``uniqueness_certificate`` is the gap between the second-best and
    the best refined local minimum of the L2 gap (large is good);
    ``curvature_closed``/``curvature_fd`` are the two independent
    curvature routes, both ``None`` when the real signal lacks the
    derivatives the closed form needs.
    """

    theta_hat: float
    min_distance: float
    uniqueness_certificate: float
    curvature_closed: Optional[float] = None
    curvature_fd: Optional[float] = None


@lru_cache(maxsize=64)
def _jacobi_rule(kappa: float):
    # Nodes/weights for integral_{-1}^{1} (1+x)^kappa f(x) dx.
    return roots_jacobi(QUAD_ORDER, 0.0, kappa)


@lru_cache(maxsize=1)
def _legendre_rule():
    return np.polynomial.legendre.leggauss(QUAD_ORDER)


def _kink_weighted_integral(g, length: float, kappa: float) -> float:
    """``integral_0^length s**kappa * g(s) ds`` with the weight exact."""
    if length <= 0.0:
        return 0.0
    x, w = _jacobi_rule(kappa)
    s = 0.5 * length * (x + 1.0)
    return (0.5 * length) ** (kappa + 1.0) * float(w @ g(s))


def _cross_integral(problem: MisspecProblem, theta: float, fn) -> float:
    """``integral_0^T |t-theta|**kappa * fn(t) dt`` split at the kink."""
    kappa = problem.theoretical.kappa
    T = problem.theoretical.T
    left = _kink_weighted_integral(lambda s: fn(theta - s), theta, kappa)
    right = _kink_weighted_integral(lambda s: fn(theta + s), T - theta, kappa)
    return left + right


@lru_cache(maxsize=32)
def _square_integral(problem: MisspecProblem) -> float:
    # integral of S(t)^2 over [0, T]; theta-independent, cached.
    x, w = _legendre_rule()
    T = problem.theoretical.T
    t = 0.5 * T * (x + 1.0)
    s = np.asarray(problem.real.value(t), dtype=float)
    s = np.broadcast_to(s, t.shape)
    return 0.5 * T * float(w @ (s * s))


def _cusp_square(problem: MisspecProblem, theta: float) -> float:
    # integral of M(theta, t)^2: exact antiderivative of |t-theta|^(2k).
    a = problem.theoretical.a
    kappa = problem.theoretical.kappa
    T = problem.theoretical.T
    c = 2.0 * kappa + 1.0
    return a * a * (theta**c + (T - theta) ** c) / c


def l2_gap(problem: MisspecProblem, theta: float) -> float:
    """Squared L2 distance between the cusp at ``theta`` and the real drift.

    Expanded as ``int M^2 - 2*int M*S + int S^2``: the first term is an
    exact antiderivative, the cross term uses kink-splitting Gauss-Jacobi
    quadrature, the last a cached Gauss-Legendre rule.
    """
    alpha, beta = problem.theoretical.theta_bounds
    if not alpha <= theta <= beta:
        raise DomainError(
            f"theta={theta!r} outside parameter bounds ({alpha!r}, {beta!r})"
        )
    a = problem.theoretical.a
    real = problem.real
    cross = _cross_integral(problem, theta, lambda t: np.asarray(real.value(t)))
    return _cusp_square(problem, theta) - 2.0 * a * cross + _square_integral(problem)


def phi(problem: MisspecProblem, theta: float, solution: MisspecSolution) -> float:
    """Gap function ``Phi(theta) = Phi_0(theta) - Phi_0(theta_hat) >= 0``."""
    return l2_gap(problem, theta) - solution.min_distance**2


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section(fn, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Minimize a unimodal scalar function on [lo, hi] to bracket width tol."""
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = fn(x2)
    return 0.5 * (lo + hi)


def _local_minima(values: np.ndarray) -> list[int]:
    idx = []
    last = len(values) - 1
    for i in range(len(values)):
        left_ok = i == 0 or values[i] <= values[i - 1]
        right_ok = i == last or values[i] <= values[i + 1]
        if left_ok and right_ok:
            if i > 0 and values[i] == values[i - 1]:
                continue  # collapse plateaus to their left edge
            idx.append(i)
    return idx


def solve_theta_hat(problem: MisspecProblem) -> MisspecSolution:
    """Locate the pseudo-true location and certify its uniqueness.

    A 2001-node scan of the L2 gap over the parameter interval brackets
    every local minimum; the two best basins are polished by
    golden-section search to a 1e-10 bracket.  The certificate is the
    value gap between the runner-up and the winner; below 1e-10 the
    minimizer is declared ambiguous.  When the real signal has ``d2``
    the solution carries both curvatures, so a minimizer on the bound
    raises ``DomainError`` (see ``curvature``).
    """
    alpha, beta = problem.theoretical.theta_bounds
    grid = np.linspace(alpha, beta, 2001)
    gap = np.array([l2_gap(problem, float(t)) for t in grid])
    basins = _local_minima(gap)
    basins.sort(key=lambda i: gap[i])
    step = grid[1] - grid[0]

    refined: list[tuple[float, float]] = []
    for i in basins[:3]:
        lo = max(alpha, grid[i] - step)
        hi = min(beta, grid[i] + step)
        theta = _golden_section(lambda t: l2_gap(problem, t), lo, hi)
        refined.append((l2_gap(problem, theta), theta))
    refined.sort()
    best_val, theta_hat = refined[0]

    # Scan-grid dips within two steps of the winner refine into the same
    # basin; only a genuinely distinct runner-up can contest uniqueness.
    distinct = [v for v, t in refined[1:] if abs(t - theta_hat) > 2.0 * step]
    if distinct:
        certificate = min(distinct) - best_val
    else:
        # single basin: measure the climb to everywhere outside it
        outside = np.abs(grid - theta_hat) > 2.0 * step
        certificate = float(gap[outside].min() - best_val) if outside.any() else math.inf
    if certificate < UNIQUENESS_THRESHOLD:
        raise ConditionViolationError(
            f"L2-gap minimizer ambiguous: best two local minima differ by "
            f"{certificate:.3e} (< {UNIQUENESS_THRESHOLD:g}); the limit "
            f"theory requires a unique minimum"
        )

    solution = MisspecSolution(
        theta_hat=float(theta_hat),
        min_distance=math.sqrt(max(best_val, 0.0)),
        uniqueness_certificate=float(certificate),
    )
    if hasattr(problem.real, "d2"):
        closed, fd = curvature(problem, solution)
        solution = replace(solution, curvature_closed=closed, curvature_fd=fd)
    return solution


def curvature(problem: MisspecProblem, solution: MisspecSolution) -> tuple[float, float]:
    """Second derivative of the L2 gap at the minimizer, by two routes.

    The closed form assembles, term by term: the two boundary cusp terms
    with ``2*a*kappa*theta**(kappa-1)`` factors, the two
    ``[a|.|^kappa - S] * S'`` boundary products, the kink-weighted
    ``-2a * integral |t-theta|^kappa S''(t) dt``, and
    ``integral (S^2)'' dt`` (exact by the fundamental theorem of
    calculus).  The finite-difference route is a central second
    difference of the gap with one Richardson extrapolation step and
    serves as the independent cross-check; tests treat it as the
    authority.
    """
    real = problem.real
    if not (hasattr(real, "d1") and hasattr(real, "d2")):
        raise DomainError(
            f"closed-form curvature needs S' and S'' on the real signal; "
            f"{type(real).__name__} does not provide them"
        )
    th = solution.theta_hat
    a = problem.theoretical.a
    kappa = problem.theoretical.kappa
    T = problem.theoretical.T
    alpha, beta = problem.theoretical.theta_bounds
    # the finite-difference stencil reaches 2*FD_STEP either side
    if not (alpha <= th - 2.0 * FD_STEP and th + 2.0 * FD_STEP <= beta):
        raise DomainError(
            f"theta_hat={th!r} must be interior to ({alpha!r}, {beta!r}), at least "
            f"2*FD_STEP={2.0 * FD_STEP!r} from each bound"
        )

    s0, sT = float(real.value(0.0)), float(real.value(T))
    d0, dT = float(real.d1(0.0)), float(real.d1(T))
    cusp0 = a * th**kappa
    cuspT = a * (T - th) ** kappa
    boundary_cusp = 2.0 * a * kappa * (
        th ** (kappa - 1.0) * (cusp0 - s0) + (T - th) ** (kappa - 1.0) * (cuspT - sT)
    )
    boundary_slope = -2.0 * (cusp0 - s0) * d0 + 2.0 * (cuspT - sT) * dT
    kink_integral = -2.0 * a * _cross_integral(
        problem, th, lambda t: np.asarray(real.d2(t))
    )
    square_second = 2.0 * sT * dT - 2.0 * s0 * d0
    gamma_closed = boundary_cusp + boundary_slope + kink_integral + square_second

    def second_diff(delta: float) -> float:
        return (
            l2_gap(problem, th + delta)
            + l2_gap(problem, th - delta)
            - 2.0 * l2_gap(problem, th)
        ) / (delta * delta)

    gamma_fd = (4.0 * second_diff(FD_STEP) - second_diff(2.0 * FD_STEP)) / 3.0

    if gamma_closed <= 0.0:
        raise ConditionViolationError(
            f"curvature at theta_hat is not positive ({gamma_closed!r}); the "
            f"quadratic-minimum condition fails"
        )
    return float(gamma_closed), float(gamma_fd)
