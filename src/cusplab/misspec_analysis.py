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
far too slowly for the 1e-8 relative target.  The smooth square term
``integral S(t)**2 dt`` uses the same rule at exponent 0, which is
Gauss-Legendre.  The rules come from the eigenvalues of their Jacobi
matrix (Golub & Welsch, Math. Comp. 23, 1969).  Each basin of the gap is
polished by two least-squares parabolas, the second 2e-5 wide.
Everything runs on numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np

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

#: Order of the Gauss-Jacobi rules of the kinked cross term and, at
#: exponent 0 (Gauss-Legendre), of the smooth square term.
QUAD_ORDER = 200

#: Central-difference step for the finite-difference curvature route,
#: where the gap's rounding (about 1e-16 over ``FD_STEP**2``) and the
#: stencil's truncation balance: against the closed form, for a smoothed
#: cusp at 0.5 (delta 0.05) and kappa 0.05-0.45, it reads 1e-9 to 2e-9
#: relative, against 6e-9 to 5e-8 at a step of 1e-4.
FD_STEP = 3e-4

#: Threshold below which the two best local minima are considered
#: indistinguishable and the minimizer ambiguous.
UNIQUENESS_THRESHOLD = 1e-10

#: Points of each least-squares parabola of the basin polish.
POLISH_POINTS = 21

#: Half-width of the second polish round.  Within +-1e-8 of its minimum
#: the gap is flat to rounding.  At 1e-6 a gap of curvature 0.14 (kappa
#: 0.05) rises only 7e-14 against rounding near 1e-16, and the vertex was
#: 1e-9 off; at 1e-5 the vertices of fifteen problems stayed within 3e-11
#: of cubic fits over +-3e-5.
POLISH_WIDTH = 1e-5


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
        if not (hasattr(self.real, "value") and hasattr(self.real, "T")):
            raise DomainError("real signal must expose value(t) and a horizon T")
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
    """Nodes and weights for ``integral_{-1}^{1} (1+x)**kappa f(x) dx``.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric
    tridiagonal Jacobi matrix of the orthonormal Jacobi polynomials
    ``P^(0, kappa)``, and each weight is ``mu0`` times the squared first
    component of its eigenvector, ``mu0 = 2**(kappa+1)/(kappa+1)`` the
    integral of the weight.  Nodes ascend.
    """
    k = np.arange(QUAD_ORDER, dtype=float)
    s = 2.0 * k + kappa
    diag = np.empty(QUAD_ORDER)
    diag[0] = kappa / (kappa + 2.0)
    diag[1:] = kappa * kappa / (s[1:] * (s[1:] + 2.0))
    off = 2.0 * k[1:] * (k[1:] + kappa) / (s[1:] * np.sqrt(s[1:] * s[1:] - 1.0))
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    mu0 = 2.0 ** (kappa + 1.0) / (kappa + 1.0)
    return nodes, mu0 * vectors[0] ** 2


def _kink_weighted_integral(g, length, kappa: float):
    """``integral_0^length s**kappa * g(s) ds`` with the weight exact.

    ``length`` is a number or an array, one integral each (0 where
    ``length <= 0``); ``g`` takes the nodes with one trailing axis.
    """
    x, w = _jacobi_rule(kappa)
    half = 0.5 * np.maximum(length, 0.0)
    s = np.multiply.outer(half, x + 1.0)
    return half ** (kappa + 1.0) * np.vecdot(g(s), w)


def _cross_integral(problem: MisspecProblem, theta, fn):
    """``integral_0^T |t-theta|**kappa * fn(t) dt`` split at the kink.

    ``theta`` is a number or an array, one integral each.
    """
    kappa = problem.theoretical.kappa
    T = problem.theoretical.T
    t = np.asarray(theta, dtype=float)[..., None]
    left = _kink_weighted_integral(lambda s: fn(t - s), theta, kappa)
    right = _kink_weighted_integral(lambda s: fn(t + s), T - theta, kappa)
    return left + right


@lru_cache(maxsize=32)
def _square_integral(problem: MisspecProblem) -> float:
    # integral of S(t)^2 over [0, T]; theta-independent, cached.
    def square(t):
        s = np.asarray(problem.real.value(t), dtype=float)
        return np.broadcast_to(s * s, t.shape)

    return float(_kink_weighted_integral(square, problem.theoretical.T, 0.0))


def _cusp_square(problem: MisspecProblem, theta):
    # integral of M(theta, t)^2: exact antiderivative of |t-theta|^(2k).
    a = problem.theoretical.a
    kappa = problem.theoretical.kappa
    T = problem.theoretical.T
    c = 2.0 * kappa + 1.0
    return a * a * (theta**c + (T - theta) ** c) / c


def l2_gap(problem: MisspecProblem, theta):
    """Squared L2 distance between the cusp at ``theta`` and the real drift.

    Expanded as ``int M^2 - 2*int M*S + int S^2``: the first term is an
    exact antiderivative, the cross term uses kink-splitting Gauss-Jacobi
    quadrature, the last the same rule at exponent 0, cached.  ``theta``
    is a number, with a float gap, or an array of locations, with one gap
    each.
    """
    alpha, beta = problem.theoretical.theta_bounds
    if not np.all((alpha <= theta) & (theta <= beta)):
        raise DomainError(
            f"theta={theta!r} outside parameter bounds ({alpha!r}, {beta!r})"
        )
    a = problem.theoretical.a
    real = problem.real
    cross = _cross_integral(problem, theta, lambda t: np.asarray(real.value(t)))
    gap = _cusp_square(problem, theta) - 2.0 * a * cross + _square_integral(problem)
    return gap if np.ndim(gap) else float(gap)


def phi(problem: MisspecProblem, theta: float, solution: MisspecSolution) -> float:
    """Gap function ``Phi(theta) = Phi_0(theta) - Phi_0(theta_hat) >= 0``."""
    return l2_gap(problem, theta) - solution.min_distance**2


def _local_minima(values: np.ndarray) -> list[int]:
    """Indices of the local minima of ``values``, plateaus at their left edge."""
    below_left = np.r_[True, values[1:] < values[:-1]]
    below_right = np.r_[values[:-1] <= values[1:], True]
    return np.flatnonzero(below_left & below_right).tolist()


def _polish(problem: MisspecProblem, lo: float, hi: float) -> tuple[float, float]:
    """``(gap, theta)`` at the minimizer of the L2 gap on ``[lo, hi]``.

    The minimizer is found by two parabola fits.  Each round makes one
    ``l2_gap`` call on ``POLISH_POINTS`` equispaced points and moves to
    the vertex of the least-squares parabola through them, kept within
    those points (their lowest point if the parabola is not convex).  The
    first round spans ``[lo, hi]``, the second ``+-POLISH_WIDTH`` about the
    first vertex, within ``[lo, hi]``.
    """
    u = np.linspace(-1.0, 1.0, POLISH_POINTS)
    basis = np.stack([u * u, u, np.ones_like(u)], axis=1)
    left, right = lo, hi
    for _ in range(2):
        gap = l2_gap(problem, np.linspace(left, right, POLISH_POINTS))
        (c2, c1, _), *_ = np.linalg.lstsq(basis, gap)
        vertex = min(max(-0.5 * c1 / c2, -1.0), 1.0) if c2 > 0.0 else u[np.argmin(gap)]
        theta = min(max(0.5 * (left + right + (right - left) * vertex), lo), hi)
        left, right = max(lo, theta - POLISH_WIDTH), min(hi, theta + POLISH_WIDTH)
    return l2_gap(problem, theta), theta


def solve_theta_hat(problem: MisspecProblem) -> MisspecSolution:
    """Locate the pseudo-true location and certify its uniqueness.

    A 2001-node scan of the L2 gap over the parameter interval, one
    ``l2_gap`` call on the array of nodes, brackets every local minimum;
    the three best basins are polished within one scan step of their
    node (``_polish``: two parabola fits, the second within 1e-5).  The
    certificate is the value gap between the runner-up and the winner:
    the best other polished basin more than two scan nodes from the
    winner's, else the lowest scan node more than two nodes from it;
    below 1e-10 the minimizer is declared ambiguous.  When the real
    signal has ``d2`` the solution carries both curvatures, so a
    minimizer on the bound raises ``DomainError`` (see ``curvature``).
    """
    alpha, beta = problem.theoretical.theta_bounds
    grid = np.linspace(alpha, beta, 2001)
    gap = l2_gap(problem, grid)
    basins = _local_minima(gap)
    basins.sort(key=lambda i: gap[i])
    step = grid[1] - grid[0]

    refined: list[tuple[float, float, int]] = []
    for i in basins[:3]:
        polished = _polish(problem, max(alpha, grid[i] - step), min(beta, grid[i] + step))
        refined.append((*polished, i))
    refined.sort()
    best_val, theta_hat, winner = refined[0]

    # Scan-grid dips within two nodes of the winner's refine into the same
    # basin; only a genuinely distinct runner-up can contest uniqueness.
    # Basins are told apart by scan index, not by the distance of polished
    # points, so the certificate does not hinge on the last bits of theta_hat.
    distinct = [v for v, _, i in refined[1:] if abs(i - winner) > 2]
    if distinct:
        certificate = min(distinct) - best_val
    else:
        # single basin: measure the climb to every node outside it
        outside = np.abs(np.arange(grid.size) - winner) > 2
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
    calculus).  The closed form is the authority: it is the curvature the
    limit laws and sweeps use.  The finite-difference route is a central
    second difference of the gap with one Richardson extrapolation step,
    kept as the independent cross-check; its stencil reaches
    ``2*FD_STEP`` (6e-4) either side, so ``theta_hat`` must lie at least
    that far from each bound.
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
