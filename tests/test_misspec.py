"""Tests for the deterministic misspecification analysis."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from cusplab.errors import DomainError
from cusplab.misspec_analysis import (
    MisspecProblem,
    MisspecSolution,
    curvature,
    l2_gap,
    phi,
    solve_theta_hat,
)
from cusplab.signal_models import (
    ConstantNuisance,
    CuspSignal,
    QuadraticSignal,
    SmoothedCuspSignal,
)

BOUNDS = (0.35, 0.65)
THEORETICAL = CuspSignal(a=1.0, kappa=0.25, T=1.0, theta_bounds=BOUNDS)
REAL = SmoothedCuspSignal(a=1.0, kappa=0.25, center=0.5, delta=0.05, T=1.0)

# Reference values for the default problem, frozen from high-resolution
# independent quadrature/optimization runs.
THETA_HAT_REF = 0.5
MIN_DIST_REF = 0.04189245
CURVATURE_REF = 1.960601


@pytest.fixture(scope="module")
def default_problem():
    return MisspecProblem(theoretical=THEORETICAL, real=REAL)


@pytest.fixture(scope="module")
def default_solution(default_problem):
    return solve_theta_hat(default_problem)


class TestProblemValidation:
    def test_accepts_zero_constant_nuisance(self):
        sig = CuspSignal(
            a=1.0, kappa=0.25, T=1.0, theta_bounds=BOUNDS,
            nuisance=ConstantNuisance(0.0),
        )
        MisspecProblem(theoretical=sig, real=REAL)

    def test_rejects_nonzero_nuisance(self):
        sig = CuspSignal(
            a=1.0, kappa=0.25, T=1.0, theta_bounds=BOUNDS,
            nuisance=ConstantNuisance(0.5),
        )
        with pytest.raises(DomainError):
            MisspecProblem(theoretical=sig, real=REAL)

    def test_rejects_horizon_mismatch(self):
        real = SmoothedCuspSignal(a=1.0, kappa=0.25, center=0.5, delta=0.05, T=2.0)
        with pytest.raises(DomainError):
            MisspecProblem(theoretical=THEORETICAL, real=real)

    def test_rejects_real_signal_without_value(self):
        with pytest.raises(DomainError):
            MisspecProblem(theoretical=THEORETICAL, real=3.14)


class TestL2Gap:
    @pytest.mark.parametrize("theta", [0.38, 0.42, 0.5, 0.61])
    def test_matches_direct_quadrature(self, default_problem, theta):
        def integrand(t):
            m = abs(t - theta) ** 0.25
            s = float(REAL.value(t))
            return (m - s) ** 2

        ref, _ = quad(
            integrand, 0.0, 1.0, points=[theta, 0.5], limit=200,
            epsabs=1e-13, epsrel=1e-12,
        )
        assert l2_gap(default_problem, theta) == pytest.approx(ref, rel=1e-8)

    def test_nonnegative_across_grid(self, default_problem):
        thetas = np.linspace(0.35, 0.65, 41)
        gaps = [l2_gap(default_problem, t) for t in thetas]
        assert min(gaps) >= 0.0

    def test_rejects_theta_outside_bounds(self, default_problem):
        with pytest.raises(DomainError):
            l2_gap(default_problem, 0.7)


class TestSolveThetaHat:
    def test_minimizer_at_symmetry_center(self, default_solution):
        assert default_solution.theta_hat == pytest.approx(THETA_HAT_REF, abs=1e-6)

    def test_min_distance_reference(self, default_solution):
        assert default_solution.min_distance == pytest.approx(MIN_DIST_REF, rel=1e-5)

    def test_uniqueness_certificate_positive(self, default_solution):
        assert default_solution.uniqueness_certificate > 0.0

    def test_curvatures_filled_and_close(self, default_solution):
        gc = default_solution.curvature_closed
        gf = default_solution.curvature_fd
        assert gc == pytest.approx(CURVATURE_REF, rel=1e-5)
        assert abs(gc - gf) / gc < 1e-6

    def test_min_distance_is_global_over_grid(self, default_problem, default_solution):
        thetas = np.linspace(0.35, 0.65, 201)
        gaps = np.array([l2_gap(default_problem, t) for t in thetas])
        assert default_solution.min_distance**2 <= gaps.min() + 1e-12


class TestPhi:
    def test_zero_at_minimizer(self, default_problem, default_solution):
        assert phi(
            default_problem, default_solution.theta_hat, default_solution
        ) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_and_grows_away(self, default_problem, default_solution):
        th = default_solution.theta_hat
        values = [
            phi(default_problem, t, default_solution)
            for t in (th - 0.1, th - 0.05, th, th + 0.05, th + 0.1)
        ]
        assert all(v >= -1e-12 for v in values)
        assert values[0] > values[1] > values[2]
        assert values[4] > values[3] > values[2]


class TestCurvature:
    def test_quadratic_real_signal(self):
        # symmetric parabola around 0.5: the minimizer is the symmetry
        # center and both curvature routes must agree tightly
        real = QuadraticSignal(c0=0.85, c1=-1.2, c2=1.2, T=1.0)
        problem = MisspecProblem(theoretical=THEORETICAL, real=real)
        solution = solve_theta_hat(problem)
        assert solution.theta_hat == pytest.approx(0.5, abs=1e-6)
        gc, gf = curvature(problem, solution)
        assert gc > 0.0
        assert abs(gc - gf) / gc < 1e-5

    def test_missing_derivatives_rejected(self, default_problem):
        class ValueOnly:
            T = 1.0

            def value(self, t):
                return np.full_like(np.asarray(t, dtype=float), 0.8)

        problem = MisspecProblem(theoretical=THEORETICAL, real=ValueOnly())
        solution = solve_theta_hat(problem)
        assert solution.curvature_closed is None
        with pytest.raises(DomainError):
            curvature(problem, solution)

    def test_boundary_minimizer_rejected(self):
        # real cusp centered far right of the admissible window drags the
        # projection onto the boundary, where curvature is undefined
        real = SmoothedCuspSignal(a=1.0, kappa=0.25, center=0.95, delta=0.05, T=1.0)
        problem = MisspecProblem(theoretical=THEORETICAL, real=real)
        with pytest.raises(DomainError, match="interior"):
            solve_theta_hat(problem)

    @pytest.mark.parametrize("center", [0.6499, 0.66])
    def test_minimizer_within_stencil_of_bound_rejected(self, center):
        # the golden section stops a hair inside the bound, where the
        # finite-difference stencil would step outside it
        real = SmoothedCuspSignal(a=1.0, kappa=0.25, center=center, delta=0.05, T=1.0)
        problem = MisspecProblem(theoretical=THEORETICAL, real=real)
        with pytest.raises(DomainError, match="interior"):
            solve_theta_hat(problem)


class TestSolutionContainer:
    def test_fields(self):
        s = MisspecSolution(
            theta_hat=0.5, min_distance=0.04, uniqueness_certificate=1e-3
        )
        assert s.curvature_closed is None and s.curvature_fd is None
