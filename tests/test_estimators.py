"""Tests for the likelihood field and the estimator family."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cusplab.errors import ConfigError, DomainError
from cusplab.estimators import (
    EstimationResult,
    JointEstimationResult,
    TruncatedNormalPrior,
    UniformPrior,
    bayes,
    coarse_grid,
    ito_loglik,
    joint_coarse_nodes,
    joint_mle,
    kappa_mle,
    location_rate,
    misspec_rate,
    mle,
    prior_from_config,
    pseudo_mle,
    refine_argmax,
)
from cusplab.path_sim import ObservationPath, TimeGrid, replication_rng, simulate_path
from cusplab.signal_models import (
    CuspSignal,
    QuadraticSignal,
    SignumSignal,
    SmoothedCuspSignal,
)

BOUNDS = (0.35, 0.65)
SIG = CuspSignal(a=1.0, kappa=0.25, T=1.0, theta_bounds=BOUNDS)
GRID = TimeGrid(1.0, 2000)


def _zero_noise_path(theta=0.5, eps=0.01, grid=GRID, signal=SIG):
    return simulate_path(signal, theta, eps, grid, zero_noise=True)


def _direct_ito_sum(drift, increments, dt, eps):
    """The Ito log-likelihood node by node, in plain Python."""
    total = 0.0
    for s, dx in zip(drift, increments):
        total += s * dx - 0.5 * s * s * dt
    return total / (eps * eps)


class TestItoLoglik:
    @given(
        rows=st.integers(1, 5),
        n=st.integers(2, 60),
        eps=st.floats(1e-3, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_one_path_matches_direct_sum(self, rows, n, eps, seed):
        rng = np.random.default_rng(seed)
        dt = 1.0 / n
        drift = rng.uniform(0.0, 2.0, size=(rows, n))
        increments = rng.normal(0.0, 0.1, size=n)
        got = ito_loglik(drift, increments, dt, eps)
        assert got.shape == (rows,)
        for j in range(rows):
            want = _direct_ito_sum(drift[j], increments, dt, eps)
            assert got[j] == pytest.approx(want, rel=1e-9, abs=1e-9 / eps**2)

    @given(
        rows=st.integers(1, 5),
        paths=st.integers(1, 4),
        n=st.integers(2, 60),
        eps=st.floats(1e-3, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_path_matrix_matches_direct_sum(self, rows, paths, n, eps, seed):
        rng = np.random.default_rng(seed)
        dt = 1.0 / n
        drift = rng.uniform(0.0, 2.0, size=(rows, n))
        increments = rng.normal(0.0, 0.1, size=(paths, n))
        got = ito_loglik(drift, increments, dt, eps)
        assert got.shape == (rows, paths)
        for j in range(rows):
            for k in range(paths):
                want = _direct_ito_sum(drift[j], increments[k], dt, eps)
                assert got[j, k] == pytest.approx(want, rel=1e-9, abs=1e-9 / eps**2)


class TestRates:
    def test_location_rate(self):
        assert location_rate(0.01, 0.75) == pytest.approx(0.01 ** (4.0 / 3.0))

    def test_misspec_rate(self):
        assert misspec_rate(0.01, 0.25) == pytest.approx(0.01**0.8)

    def test_location_rate_monotone_in_epsilon(self):
        assert location_rate(0.001, 0.75) < location_rate(0.01, 0.75)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            location_rate(0.0, 0.75)
        with pytest.raises(DomainError):
            location_rate(0.01, 0.4)
        with pytest.raises(DomainError):
            misspec_rate(0.01, 0.6)


class TestCoarseGrid:
    def test_step_bounded_by_twice_rate(self):
        rate = location_rate(0.05, 0.75)
        grid = coarse_grid(BOUNDS, rate)
        step = grid[1] - grid[0]
        assert step <= 2.0 * rate + 1e-15
        assert grid[0] == BOUNDS[0]
        assert grid[-1] == BOUNDS[1]

    def test_step_never_wider_than_quarter_range(self):
        # even at huge rates the coarse scan keeps at least five nodes
        grid = coarse_grid(BOUNDS, 10.0)
        assert grid.size >= 5


class TestRefineArgmax:
    def test_never_decreases_attained_maximum(self):
        # refining around the coarse argmax can only improve the field value
        fn = lambda g: -((np.asarray(g) - 0.5234567) ** 2)
        grid = np.linspace(0.35, 0.65, 16)
        best_coarse = float(np.max(fn(grid)))
        theta, value, levels, step = refine_argmax(
            fn, BOUNDS, [grid[int(np.argmax(fn(grid)))]],
            step=grid[1] - grid[0], target_step=1e-6,
        )
        assert value >= best_coarse
        assert theta == pytest.approx(0.5234567, abs=1e-5)
        assert step <= 1e-6

    def test_tie_breaks_toward_smaller_theta(self):
        fn = lambda g: np.zeros_like(np.asarray(g, dtype=float))
        theta, _, _, _ = refine_argmax(
            fn, BOUNDS, [0.5], step=0.01, target_step=1e-3
        )
        assert theta <= 0.5

    def test_step_at_target_keeps_best_start(self):
        # no level runs: each start keeps its own value and the best wins
        fn = lambda g: -((np.asarray(g) - 0.5) ** 2)
        theta, value, levels, step = refine_argmax(
            fn, BOUNDS, [0.4, 0.52, 0.45], step=1e-3, target_step=1e-2
        )
        assert (theta, value, levels, step) == (0.52, fn(0.52), 0, 1e-3)

    def test_multiple_candidates_keep_global_best(self):
        # two local maxima; the better one wins regardless of seed order
        fn = lambda g: np.where(
            np.asarray(g) < 0.5,
            -100.0 * (np.asarray(g) - 0.42) ** 2 + 1.0,
            -100.0 * (np.asarray(g) - 0.58) ** 2 + 1.5,
        )
        theta, _, _, _ = refine_argmax(
            fn, BOUNDS, [0.42, 0.58], step=0.01, target_step=1e-7
        )
        assert theta == pytest.approx(0.58, abs=1e-5)


class TestMle:
    def test_zero_noise_recovers_truth(self):
        path = _zero_noise_path(theta=0.5)
        result = mle(path, SIG)
        assert result.estimator == "mle"
        assert result.estimate == pytest.approx(0.5, abs=result.grid_step)
        assert not result.boundary
        assert result.rate == pytest.approx(location_rate(0.01, 0.75))
        assert result.normalized_error == pytest.approx(
            (result.estimate - 0.5) / result.rate
        )

    def test_zero_noise_off_center_truth(self):
        path = _zero_noise_path(theta=0.412345)
        result = mle(path, SIG)
        assert result.estimate == pytest.approx(0.412345, abs=5e-5)

    def test_boundary_flag_at_edge(self):
        path = _zero_noise_path(theta=0.35)
        result = mle(path, SIG)
        assert result.estimate == pytest.approx(0.35, abs=result.grid_step)
        assert result.boundary

    def test_estimate_within_bounds_on_noisy_path(self):
        path = simulate_path(SIG, 0.5, 0.05, GRID, rng=replication_rng(0, 0))
        result = mle(path, SIG)
        assert BOUNDS[0] <= result.estimate <= BOUNDS[1]

    def test_coarse_values_shortcut_matches_standalone(self):
        path = simulate_path(SIG, 0.5, 0.02, GRID, rng=replication_rng(2, 7))
        rate = location_rate(path.epsilon, SIG.hurst)
        grid = coarse_grid(BOUNDS, rate)
        drift = SIG.value(grid[:, None], GRID.left_nodes[None, :])
        values = ito_loglik(drift, path.increments, GRID.dt, path.epsilon)
        baseline = mle(path, SIG)
        shortcut = mle(path, SIG, coarse=(grid, values))
        assert shortcut.estimate == baseline.estimate

    def test_coarse_step_at_target_returns_coarse_argmax(self):
        # on bounds (0.4999, 0.5001) the coarse step range/4 is already
        # below rate/50 at eps 0.05, so no refinement level runs
        sig = CuspSignal(a=1.0, kappa=0.25, T=1.0, theta_bounds=(0.4999, 0.5001))
        path = simulate_path(sig, 0.5, 0.05, GRID, rng=replication_rng(0, 0))
        grid = coarse_grid(sig.theta_bounds, location_rate(0.05, sig.hurst))
        assert grid[1] - grid[0] <= location_rate(0.05, sig.hurst) / 50.0
        drift = sig.value(grid[:, None], GRID.left_nodes[None, :])
        values = ito_loglik(drift, path.increments, GRID.dt, path.epsilon)
        result = mle(path, sig)
        assert result.estimate == grid[int(np.argmax(values))]
        assert np.isfinite(result.normalized_error)
        assert result.grid_step == grid[1] - grid[0]

    def test_horizon_mismatch_rejected(self):
        path = simulate_path(SIG, 0.5, 0.01, TimeGrid(1.0, 50), zero_noise=True)
        other = CuspSignal(a=1.0, kappa=0.25, T=0.9, theta_bounds=(0.3, 0.6))
        with pytest.raises(DomainError):
            mle(path, other)

    @pytest.mark.parametrize("estimator", [mle, bayes, pseudo_mle])
    @pytest.mark.parametrize("signal", [
        SignumSignal(a=1.0, T=1.0, theta_bounds=BOUNDS),
        QuadraticSignal(c0=0.0, c1=1.0, c2=0.5, T=1.0),
    ])
    def test_signal_without_cusp_exponent_rejected(self, estimator, signal):
        # the family is named before any cusp attribute (hurst) is read
        path = _zero_noise_path()
        with pytest.raises(DomainError, match=type(signal).__name__):
            estimator(path, signal)


class TestBayes:
    def test_zero_noise_recovers_truth(self):
        path = _zero_noise_path(theta=0.5)
        result = bayes(path, SIG)
        assert result.estimator == "bayes"
        assert result.estimate == pytest.approx(0.5, abs=1e-6)

    def test_estimate_is_convex_combination_of_grid(self):
        path = simulate_path(SIG, 0.5, 0.05, GRID, rng=replication_rng(1, 3))
        result = bayes(path, SIG)
        assert BOUNDS[0] <= result.estimate <= BOUNDS[1]

    def test_truncated_normal_prior_agrees_on_sharp_posterior(self):
        path = _zero_noise_path(theta=0.5, eps=0.005)
        flat = bayes(path, SIG, prior=UniformPrior())
        informative = bayes(path, SIG, prior=TruncatedNormalPrior(0.45, 0.1))
        # the zero-noise likelihood dominates any smooth prior
        assert flat.estimate == pytest.approx(informative.estimate, abs=1e-4)

    def test_boundary_mass_reported(self):
        path = simulate_path(SIG, 0.5, 0.05, GRID, rng=replication_rng(1, 4))
        result = bayes(path, SIG)
        assert 0.0 <= result.boundary_mass <= 1.0

    def test_prior_from_config(self):
        assert isinstance(prior_from_config({"name": "uniform"}), UniformPrior)
        assert isinstance(prior_from_config({}), UniformPrior)
        prior = prior_from_config({"name": "truncated_normal", "mean": 0.5, "std": 0.1})
        assert isinstance(prior, TruncatedNormalPrior)
        assert (prior.mean, prior.std) == (0.5, 0.1)
        for block in (
            {"name": "cauchy"},
            {"name": "truncated_normal", "mean": 0.5},
            {"name": "uniform", "std": 0.1},
            {"name": "truncated_normal", "mean": 0.5, "std": 0.1, "sd": 0.1},
        ):
            with pytest.raises(ConfigError):
                prior_from_config(block)

    @pytest.mark.parametrize("params,named", [
        ({"mean": "0.5", "std": 0.1}, "mean='0.5'"),
        ({"mean": "x", "std": 0.1}, "mean='x'"),
        ({"mean": 0.5, "std": True}, "std=True"),
        ({"mean": None, "std": 0.1}, "mean=None"),
    ])
    def test_prior_parameters_must_be_numbers(self, params, named):
        with pytest.raises(ConfigError, match="must be a number") as info:
            prior_from_config({"name": "truncated_normal", **params})
        assert named in str(info.value)

    def test_prior_ints_passed_on_as_floats(self):
        prior = prior_from_config({"name": "truncated_normal", "mean": 0, "std": 1})
        assert (prior.mean, prior.std) == (0.0, 1.0)
        assert type(prior.mean) is float and type(prior.std) is float


class TestPseudoMle:
    def test_degenerate_case_recovers_truth(self):
        # real model equals the theoretical model: zero-noise path at theta0
        path = _zero_noise_path(theta=0.5)
        result = pseudo_mle(path, SIG)
        assert result.estimator == "pseudo_mle"
        assert result.estimate == pytest.approx(0.5, abs=result.grid_step)

    def test_smoothed_cusp_target_is_center(self):
        real = SmoothedCuspSignal(a=1.0, kappa=0.25, center=0.5, delta=0.05, T=1.0)
        path = simulate_path(real, None, 0.01, GRID, zero_noise=True)
        result = pseudo_mle(path, SIG, target=0.5)
        # the L2 projection of the symmetric smoothed cusp is its center
        assert result.estimate == pytest.approx(0.5, abs=1e-4)
        assert result.rate == pytest.approx(misspec_rate(0.01, 0.25))


class TestNonFiniteIncrements:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("estimate", [
        lambda path: mle(path, SIG),
        lambda path: bayes(path, SIG),
        lambda path: kappa_mle(path, 1.0, 0.5),
    ], ids=["mle", "bayes", "kappa_mle"])
    def test_path_with_non_finite_increment_never_reaches_estimator(self, bad, estimate):
        # unchecked, one such increment gives mle a nan (for inf, a finite
        # wrong estimate) and bayes a raw numpy ValueError
        increments = simulate_path(SIG, 0.5, 0.02, GRID, rng=replication_rng(0, 0)).increments
        increments[700] = bad
        with pytest.raises(DomainError, match="finite"):
            estimate(ObservationPath(GRID, increments, 0.02, theta_true=0.5))


class TestKappaMle:
    def test_zero_noise_recovers_exponent(self):
        grid = TimeGrid(1.0, 10_000)
        path = simulate_path(SIG, 0.5, 0.01, grid, zero_noise=True)
        result = kappa_mle(path, 1.0, 0.5)
        assert result.estimator == "kappa_mle"
        assert result.estimate == pytest.approx(0.25, abs=1e-4)
        assert result.rate == 0.01

    def test_rejects_bad_bounds(self):
        path = _zero_noise_path()
        with pytest.raises(DomainError):
            kappa_mle(path, 1.0, 0.5, kappa_bounds=(0.4, 0.2))
        with pytest.raises(DomainError):
            kappa_mle(path, 1.0, 1.5)

    def test_rejects_bad_amplitude(self):
        path = _zero_noise_path()
        with pytest.raises(DomainError):
            kappa_mle(path, -1.0, 0.5)

    def test_coarse_step_at_target_returns_finite_estimate(self):
        # the coarse step range/4 = 5e-5 is already below eps/50 = 2e-4
        path = _zero_noise_path()
        result = kappa_mle(path, 1.0, 0.5, kappa_bounds=(0.2499, 0.2501), target=0.25)
        assert result.estimate == pytest.approx(0.25, abs=1e-5)
        assert np.isfinite(result.normalized_error)
        assert result.refinement_levels == 1


class TestJointMle:
    def test_zero_noise_recovers_pair(self):
        grid = TimeGrid(1.0, 10_000)
        path = simulate_path(SIG, 0.5, 0.01, grid, zero_noise=True)
        result = joint_mle(path, 1.0, BOUNDS)
        assert isinstance(result, JointEstimationResult)
        assert result.rho_hat == pytest.approx(0.5, abs=5.0 * result.rho_step)
        assert result.kappa_hat == pytest.approx(0.25, abs=5.0 * result.kappa_step)
        assert not result.boundary
        assert result.kappa_rate == 0.01

    def test_normalized_errors_consistent(self):
        grid = TimeGrid(1.0, 2000)
        path = simulate_path(SIG, 0.5, 0.01, grid, rng=replication_rng(4, 2))
        result = joint_mle(path, 1.0, BOUNDS, rho_true=0.5, kappa_true=0.25)
        assert result.rho_normalized_error == pytest.approx(
            (result.rho_hat - 0.5) / result.rho_rate
        )
        assert result.kappa_normalized_error == pytest.approx(
            (result.kappa_hat - 0.25) / 0.01
        )

    def test_rho_rate_uses_estimated_exponent(self):
        grid = TimeGrid(1.0, 2000)
        path = simulate_path(SIG, 0.5, 0.01, grid, rng=replication_rng(4, 3))
        result = joint_mle(path, 1.0, BOUNDS)
        assert result.rho_rate == pytest.approx(
            location_rate(0.01, result.kappa_hat + 0.5)
        )

    def test_rejects_bad_bounds(self):
        path = _zero_noise_path()
        with pytest.raises(DomainError):
            joint_mle(path, 1.0, (0.0, 0.65))
        with pytest.raises(DomainError):
            joint_mle(path, 1.0, BOUNDS, kappa_bounds=(-0.1, 0.45))

    def test_joint_coarse_nodes_cover_bounds(self):
        rho_nodes, kappa_nodes = joint_coarse_nodes(BOUNDS, (0.05, 0.45))
        assert rho_nodes[0] == BOUNDS[0] and rho_nodes[-1] == BOUNDS[1]
        assert kappa_nodes[0] == 0.05 and kappa_nodes[-1] == 0.45


class TestEstimationResult:
    def test_fields_roundtrip(self):
        r = EstimationResult(
            estimator="mle", estimate=0.5, rate=0.01, normalized_error=0.0,
            boundary=False, grid_step=1e-5, refinement_levels=4,
        )
        assert r.boundary_mass == 0.0
