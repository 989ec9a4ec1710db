"""Tests for the likelihood field and the estimator family."""

import dataclasses
import tracemalloc
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cusplab import estimators
from cusplab.errors import ConfigError, DomainError
from cusplab.estimators import (
    EstimationResult,
    JointEstimationResult,
    TruncatedNormalPrior,
    UniformPrior,
    bayes,
    coarse_grid,
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
    refine_argmax,
)
from cusplab.path_sim import ObservationPath, TimeGrid, replication_rng, simulate_path
from cusplab.signal_models import (
    ConstantNuisance,
    CosineNuisance,
    CuspSignal,
    MultiCuspSignal,
    QuadraticSignal,
    SmoothedCuspSignal,
    ThetaRampNuisance,
    TwoSidedCuspSignal,
    SIGNAL_FAMILIES,
    _NUISANCES,
    cusp_term,
    is_location_signal,
    signal_from_config,
)

BOUNDS = (0.35, 0.65)
SIG = CuspSignal(a=1.0, kappa=0.25, T=1.0, theta_bounds=BOUNDS)
GRID = TimeGrid(1.0, 2000)

_NUISANCE_CHOICES = {
    "none": None,
    "constant": ConstantNuisance(level=0.7),
    "cosine": CosineNuisance(amplitude=0.5, frequency=9.0),
    "theta_ramp": ThetaRampNuisance(gain=1.5),
}


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


class TestExponentRows:
    """One ``ito_loglik`` product over ``cusp_term`` rows, with a column of
    exponents or of locations, matches the direct sum node by node."""

    @pytest.mark.parametrize("axis", ["kappa", "rho"])
    @given(
        rows=st.integers(1, 5),
        n=st.integers(2, 60),
        eps=st.floats(1e-3, 1.0),
        a=st.floats(0.1, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_column_matches_direct_sum(self, axis, rows, n, eps, a, seed):
        rng = np.random.default_rng(seed)
        dt = 1.0 / n
        t = np.arange(n) * dt
        increments = rng.normal(0.0, 0.1, size=n)
        rhos = rng.uniform(0.0, 1.0, rows)
        kappas = rng.uniform(0.05, 0.45, rows)
        if axis == "kappa":  # one location, a column of exponents
            rhos[:] = rhos[0]
            drift = cusp_term(a, rhos[0], kappas[:, None], t)
        else:  # one exponent, a column of locations
            kappas[:] = kappas[0]
            drift = cusp_term(a, rhos[:, None], kappas[0], t)
        got = ito_loglik(drift, increments, dt, eps)
        assert got.shape == (rows,)
        for j in range(rows):
            rho, k = float(rhos[j]), float(kappas[j])
            nodes = [a * abs(float(ti) - rho) ** k for ti in t]
            want = _direct_ito_sum(nodes, increments, dt, eps)
            assert got[j] == pytest.approx(want, rel=1e-9, abs=1e-9 / eps**2)


class TestCoarseScans:
    """Column ``i`` of a coarse scan over a ``(paths, n)`` matrix is the
    one-path scan of row ``i``, and each node is the direct Ito sum over the
    drift at its axis values: ``field[i, j]`` is at ``(kappa_nodes[i],
    rho_nodes[j])`` for the joint scan."""

    @pytest.mark.parametrize("scan", ["location", "kappa", "joint"])
    @given(
        paths=st.integers(1, 3),
        n=st.integers(2, 30),
        eps=st.floats(0.05, 1.0),
        a=st.floats(0.1, 3.0),
        kappa=st.floats(0.05, 0.45),
        rho=st.floats(0.1, 0.9),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=10, deadline=None)
    def test_columns_match_one_path_and_direct_sum(
        self, scan, paths, n, eps, a, kappa, rho, seed
    ):
        grid = TimeGrid(1.0, n)
        increments = np.random.default_rng(seed).normal(0.0, 0.1, size=(paths, n))
        if scan == "location":
            sig = CuspSignal(a=a, kappa=kappa, T=1.0, theta_bounds=(0.3, 0.7))
            rate = location_rate(eps, sig.hurst)
            run = lambda dx: location_coarse(sig, rate, grid, dx, eps)
            node = lambda axes, idx: (axes[0][idx[0]], kappa)
        elif scan == "kappa":
            run = lambda dx: kappa_coarse(a, rho, (0.1, 0.4), grid, dx, eps)
            node = lambda axes, idx: (rho, axes[0][idx[0]])
        else:
            run = lambda dx: joint_coarse(a, (0.3, 0.7), (0.1, 0.4), grid, dx, eps)
            node = lambda axes, idx: (axes[0][idx[1]], axes[1][idx[0]])
        *axes, field = run(increments)
        assert field.shape[-1] == paths
        for i in range(paths):
            *_, single = run(increments[i])
            np.testing.assert_allclose(
                field[..., i], single, rtol=1e-12, atol=1e-12 * np.abs(single).max())
        t = [float(ti) for ti in grid.left_nodes]
        for idx in np.ndindex(field.shape[:-1]):
            r, k = (float(v) for v in node(axes, idx))
            drift = [a * abs(ti - r) ** k for ti in t]
            for i in range(paths):
                want = _direct_ito_sum(drift, increments[i], grid.dt, eps)
                assert field[idx + (i,)] == pytest.approx(want, rel=1e-9, abs=1e-9 / eps**2)


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
        # a sweep scans three paths at once and hands each its column
        paths = [simulate_path(SIG, 0.5, 0.02, GRID, rng=replication_rng(2, rep))
                 for rep in (6, 7, 8)]
        rate = location_rate(0.02, SIG.hurst)
        increments = np.stack([path.increments for path in paths])
        thetas, field = location_coarse(SIG, rate, GRID, increments, 0.02)
        for i, path in enumerate(paths):
            shortcut = mle(path, SIG, coarse=(thetas, field[:, i]))
            assert shortcut.estimate == mle(path, SIG).estimate

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
        path = simulate_path(SIG, 0.5, 0.01, TimeGrid(1.0, 1000), zero_noise=True)
        other = CuspSignal(a=1.0, kappa=0.25, T=0.9, theta_bounds=(0.3, 0.6))
        with pytest.raises(DomainError):
            mle(path, other)

    @pytest.mark.parametrize("estimator", [mle, bayes, pseudo_mle])
    def test_signal_without_cusp_exponent_rejected(self, estimator):
        # the family is named before any cusp attribute (hurst) is read
        signal = QuadraticSignal(c0=0.0, c1=1.0, c2=0.5, T=1.0)
        path = _zero_noise_path()
        with pytest.raises(DomainError, match=type(signal).__name__):
            estimator(path, signal)

    # one parameter block per catalog family: a family added without one fails
    _FAMILY_PARAMS = {
        "cusp": {"a": 1.0, "kappa": 0.25, "T": 1.0, "theta_bounds": BOUNDS},
        "multi_cusp": {"terms": [[1.0, 0.2], [0.6, 0.4]], "T": 1.0,
                       "theta_bounds": BOUNDS},
        "two_sided_cusp": {"a": 0.8, "b": 1.6, "kappa": 0.3, "T": 1.0,
                           "theta_bounds": BOUNDS},
        "constant": {"c": 1.0, "T": 1.0},
        "quadratic": {"c0": 0.0, "c1": 1.0, "c2": 0.5, "T": 1.0},
        "cosine": {"c0": 0.0, "c1": 1.0, "omega": 3.0, "T": 1.0},
        "smoothed_cusp": {"a": 1.0, "kappa": 0.25, "center": 0.5, "delta": 0.05,
                          "T": 1.0},
    }

    @pytest.mark.parametrize("estimator", [mle, bayes, pseudo_mle])
    @pytest.mark.parametrize("family", sorted(SIGNAL_FAMILIES))
    def test_every_catalog_family_estimated_or_named(self, family, estimator):
        # every location family runs through every location estimator;
        # every other family is refused by its class name
        signal = signal_from_config({"family": family, **self._FAMILY_PARAMS[family]})
        if not is_location_signal(signal):
            with pytest.raises(DomainError, match=type(signal).__name__):
                estimator(_zero_noise_path(), signal)
            return
        result = estimator(_zero_noise_path(signal=signal), signal, target=0.5)
        assert abs(result.normalized_error) <= 0.1


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

    def test_bounds_hugging_the_truth(self):
        # bounds two time steps wide: the lattice step is a fraction of dt
        signal = CuspSignal(a=1.0, kappa=0.25, T=1.0, theta_bounds=(0.4999, 0.5001))
        grid = TimeGrid(1.0, 10_000)
        path = simulate_path(signal, 0.5, 0.01, grid, rng=replication_rng(2, 0))
        result = bayes(path, signal)
        assert np.isfinite(result.estimate)
        assert 0.4999 <= result.estimate <= 0.5001
        lattice = estimators.bayes_lattice(signal, grid, 0.01)
        assert lattice.thetas.size - 1 >= 50  # intervals of the fine grid
        assert result.grid_step <= 0.0002 / 50

    def test_memory_stays_bounded_at_small_eps(self):
        # 4e4 nodes at eps 1e-3: 36,000 lattice thetas over the bounds; dense
        # drift rows over them would hold 1.4e9 doubles
        grid = TimeGrid(1.0, 40_000)
        path = simulate_path(SIG, 0.5, 1e-3, grid, rng=replication_rng(3, 0))
        tracemalloc.start()
        try:
            result = bayes(path, SIG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(result.estimate)
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("nuisance", sorted(_NUISANCE_CHOICES))
    @pytest.mark.parametrize("bounds", [BOUNDS, (0.4999, 0.5001)], ids=["fft", "narrow"])
    def test_shared_lattice_matches_standalone(self, nuisance, bounds):
        # a sweep cell builds the lattice once and hands it to every path
        extra = {} if nuisance == "none" else {"nuisance": _NUISANCE_CHOICES[nuisance]}
        signal = CuspSignal(a=1.0, kappa=0.25, T=1.0, theta_bounds=bounds, **extra)
        paths = [simulate_path(signal, 0.5, 0.02, GRID, rng=replication_rng(2, rep))
                 for rep in (6, 7, 8)]
        lattice = estimators.bayes_lattice(signal, GRID, 0.02)
        for path in paths:
            assert bayes(path, signal, lattice=lattice) == bayes(path, signal)

    def test_shared_lattice_is_read_only(self):
        lattice = estimators.bayes_lattice(SIG, GRID, 0.02)
        arrays = [value for value in vars(lattice).values() if isinstance(value, np.ndarray)]
        assert len(arrays) >= 6
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    @pytest.mark.parametrize("built", [
        lambda: estimators.bayes_lattice(SIG, GRID, 0.01),
        lambda: estimators.bayes_lattice(SIG, TimeGrid(1.0, 1000), 0.02),
        lambda: estimators.bayes_lattice(
            CuspSignal(a=2.0, kappa=0.25, T=1.0, theta_bounds=BOUNDS), GRID, 0.02),
    ], ids=["epsilon", "grid", "signal"])
    def test_lattice_of_another_cell_rejected(self, built):
        path = simulate_path(SIG, 0.5, 0.02, GRID, rng=replication_rng(2, 6))
        with pytest.raises(DomainError, match="lattice"):
            bayes(path, SIG, lattice=built())

    def test_lattice_does_not_alias_the_cusp_tips(self):
        # a theta lattice through the time nodes puts a tip of every
        # |t_i - theta|**kappa on a node; on this path that moves the
        # posterior mean by 0.069 rates
        grid = TimeGrid(1.0, 10_000)
        path = simulate_path(SIG, 0.5, 0.005, grid, rng=replication_rng(1, 74))
        result = bayes(path, SIG)
        rate = result.rate
        center = mle(path, SIG).estimate
        fine = np.linspace(center - 25.0 * rate, center + 25.0 * rate, 5001)
        values = np.concatenate([
            ito_loglik(cusp_term(1.0, chunk[:, None], 0.25, grid.left_nodes),
                       path.increments, grid.dt, path.epsilon)
            for chunk in np.array_split(fine, 10)
        ])
        weights = np.exp(values - values.max())
        reference = np.trapezoid(fine * weights, fine) / np.trapezoid(weights, fine)
        assert abs(result.estimate - reference) <= 0.02 * rate


class TestFineLattice:
    """The Bayes fine field from one kernel vector equals ``ito_loglik`` over
    drift rows evaluated directly at the same thetas."""

    @pytest.mark.parametrize("family,nuisance", [
        (family, nuisance)
        for family in ("cusp", "two_sided_cusp") for nuisance in _NUISANCE_CHOICES
    ] + [("multi_cusp", "none")])
    @pytest.mark.parametrize("branch", ["q", "p", "narrow"])
    @given(
        n=st.integers(500, 2000),
        eps=st.floats(0.02, 0.2),
        lo=st.floats(0.3, 0.5),
        width=st.floats(0.05, 0.15),
        ratio=st.floats(1.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=5, deadline=None)
    def test_matches_direct_rows(
        self, family, nuisance, branch, n, eps, lo, width, ratio, seed
    ):
        bounds = (0.2, 0.8)
        extra = {} if nuisance == "none" else {"nuisance": _NUISANCE_CHOICES[nuisance]}
        if family == "cusp":
            signal = CuspSignal(1.3, 0.25, 1.0, bounds, **extra)
        elif family == "two_sided_cusp":
            signal = TwoSidedCuspSignal(0.8, 1.6, 0.3, 1.0, bounds, **extra)
        else:
            signal = MultiCuspSignal(((1.0, 0.2), (0.6, 0.4)), 1.0, bounds)
        grid = TimeGrid(1.0, n)
        dt = grid.dt
        rng = replication_rng(seed, 0)
        path = simulate_path(signal, lo + width / 2, eps, grid, rng=rng)
        if branch == "q":  # step dt/q with q > 1, the kernel path
            h = dt / (1.0 + ratio)
        elif branch == "p":  # step p*dt with p > 1, the kernel path
            h = dt * (1.0 + ratio)
        else:  # a window below dt: the same lattice, through _window_loglik
            width, h = dt * ratio / 8.0, dt * ratio / 400.0
        hi = lo + width
        lattice = estimators.FineLattice(signal, grid, lo, hi, h)
        thetas, field = lattice.thetas, lattice.field(path)
        # inside the window and at most h apart, up to rounding
        assert lo - 1e-12 <= thetas[0] and thetas[-1] <= hi + 1e-12
        steps = np.diff(thetas)
        assert steps.max() <= h * (1 + 1e-9)
        assert np.allclose(steps, steps[0], rtol=1e-9)
        # no lattice theta sits on a time node
        nodes = grid.left_nodes
        gaps = np.abs(thetas[:, None] - nodes[None, :]).min(axis=1)
        assert gaps.min() > 1e-6 * dt
        rows = signal.value(thetas[:, None], nodes)
        want = ito_loglik(rows, path.increments, dt, eps)
        np.testing.assert_allclose(field, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())


    @pytest.mark.parametrize("eps,q,p", [(0.01, 1, 2), (0.005, 2, 1)])
    def test_whole_bounds_at_bench_size(self, eps, q, p):
        # the field bayes integrates: all of theta_bounds at n = 1e4
        grid = TimeGrid(1.0, 10_000)
        path = simulate_path(SIG, 0.5, eps, grid, rng=replication_rng(5, 0))
        rate = location_rate(eps, SIG.hurst)
        h = min(rate / 10.0, (BOUNDS[1] - BOUNDS[0]) / 51.0)
        lattice = estimators.FineLattice(SIG, grid, *BOUNDS, h)
        thetas, field = lattice.thetas, lattice.field(path)
        step = p * grid.dt / q
        assert np.diff(thetas).mean() == pytest.approx(step)
        assert thetas[0] - BOUNDS[0] < step and BOUNDS[1] - thetas[-1] < step
        want = np.concatenate([
            ito_loglik(SIG.value(chunk[:, None], grid.left_nodes),
                       path.increments, grid.dt, eps)
            for chunk in np.array_split(thetas, 20)
        ])
        np.testing.assert_allclose(field, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())

    @pytest.mark.parametrize("name", sorted(_NUISANCES))
    @given(
        params=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2),
        theta=st.floats(0.0, 1.0),
        t=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
    )
    @settings(max_examples=30, deadline=None)
    def test_nuisances_are_affine_in_theta(self, name, params, theta, t):
        # the kernel correlation takes h(theta, t) = h0(t) + theta * h1(t)
        cls = _NUISANCES[name]
        nuisance = cls(*params[:len(dataclasses.fields(cls))])
        t = np.asarray(t)
        h0, h1 = nuisance.value(0.0, t), nuisance.value(1.0, t) - nuisance.value(0.0, t)
        scale = 1.0 + np.abs(h0).max() + np.abs(h1).max()
        np.testing.assert_allclose(nuisance.value(theta, t), h0 + theta * h1,
                                   rtol=0, atol=1e-14 * scale)


def _direct_window_loglik(path, rows, thetas):
    """``estimators._window_loglik`` with every node summed directly."""
    return estimators._path_loglik(path, rows(thetas[:, None], path.grid.left_nodes))


def _direct_exponent_rows(a, rho, kappas, t):
    """``estimators._exponent_rows`` with one power per row."""
    return cusp_term(a, rho, kappas[:, None], t)


class TestWindowFastPaths:
    """The two fast window fields equal ``ito_loglik`` over direct rows."""

    @pytest.mark.parametrize("family,nuisance", [
        (family, nuisance)
        for family in ("cusp", "two_sided_cusp") for nuisance in _NUISANCE_CHOICES
    ] + [("multi_cusp", "none")])
    @pytest.mark.parametrize("window", ["inside", "clipped", "wider", "narrow", "one"])
    @given(
        n=st.integers(300, 10_000),
        eps=st.floats(1e-3, 0.2),
        center=st.floats(0.2, 0.8),
        step=st.floats(1e-6, 1e-2),
        on_node=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=6, deadline=None)
    def test_location_window_matches_direct_rows(
        self, family, nuisance, window, n, eps, center, step, on_node, seed
    ):
        bounds = (0.2, 0.8)
        extra = {} if nuisance == "none" else {"nuisance": _NUISANCE_CHOICES[nuisance]}
        if family == "cusp":
            signal = CuspSignal(1.3, 0.25, 1.0, bounds, **extra)
        elif family == "two_sided_cusp":
            signal = TwoSidedCuspSignal(0.8, 1.6, 0.3, 1.0, bounds, **extra)
        else:
            signal = MultiCuspSignal(((1.0, 0.2), (0.6, 0.4)), 1.0, bounds)
        grid = TimeGrid(1.0, n)
        noise = np.random.default_rng(seed).normal(0.0, eps * grid.dt**0.5, n)
        path = ObservationPath(grid, signal.value(0.5, grid.left_nodes) * grid.dt + noise, eps)
        if on_node:  # centre on a time node inside the bounds, on a cusp tip
            inside = grid.left_nodes[(grid.left_nodes >= 0.2) & (grid.left_nodes <= 0.8)]
            center = inside[int((center - 0.2) / 0.6 * (inside.size - 1))]
        if window == "clipped":  # the window runs into a bound
            center = bounds[0] + 7.0 * step
        elif window == "wider":  # the window holds the bounds: no far node
            step = 0.1
        elif window == "narrow":  # the whole window inside one cell
            step = grid.dt / 400.0
        thetas = estimators._window(bounds, center, step, estimators.SPAN)
        if window == "one":
            thetas = thetas[[thetas.size // 2]]
        if window == "wider":
            half_width = (thetas[-1] - thetas[0]) / 2
            assert estimators.FAR * half_width > 1.0
        got = estimators._window_loglik(path, signal.value, thetas)
        want = _direct_window_loglik(path, signal.value, thetas)
        assert got.shape == thetas.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    @given(
        n=st.integers(2, 5000),
        a=st.floats(0.1, 3.0),
        lo=st.floats(0.05, 0.45),
        width=st.floats(1e-6, 0.4),
        m=st.integers(1, 41),
        rho=st.floats(0.01, 0.99),
        on_node=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_exponent_rows_match_cusp_term(self, n, a, lo, width, m, rho, on_node):
        t = np.arange(n) / n
        if on_node:  # one node exactly at rho: its entries are 0 in every row
            rho = t[int(rho * (n - 1))]
        kappas = np.linspace(lo, min(lo + width, 0.45), m)
        got = estimators._exponent_rows(a, rho, kappas, t)
        want = _direct_exponent_rows(a, rho, kappas, t)
        assert np.array_equal(got[0], want[0])
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


class TestSearchDecisions:
    """The searches decide alike on the fast window fields and on direct
    rows: the same searches, run once more with the fast paths replaced by
    ``ito_loglik`` over directly evaluated rows, reach the same points.

    For ``mle``, ``pseudo_mle`` and ``kappa_mle`` the point compared is the
    nested search's argmax; ``kappa_mle`` then polishes it by a parabola
    through three direct rows, whose vertex carries ~1e-12 of field noise.
    """

    REAL = SmoothedCuspSignal(a=1.0, kappa=0.25, center=0.5, delta=0.05, T=1.0)

    @staticmethod
    def _decisions(patch, path, real_path):
        found = []
        search = estimators._nested_argmax

        def spy(eval_fn, bounds, rate, coarse):
            result = search(eval_fn, bounds, rate, coarse)
            found.append((result[0], rate))
            return result

        patch.setattr(estimators, "_nested_argmax", spy)
        mle(path, SIG)
        pseudo_mle(real_path, SIG)
        kappa_mle(path, 1.0, 0.5)
        joint = joint_mle(path, 1.0, BOUNDS)
        return found + [(joint.rho_hat, joint.rho_rate), (joint.kappa_hat, joint.kappa_rate)]

    @pytest.mark.parametrize("eps", [0.01, 0.005])
    def test_decisions_match_direct_rows(self, monkeypatch, eps):
        grid = TimeGrid(1.0, 4000)
        for rep in range(20):
            path = simulate_path(SIG, 0.5, eps, grid, rng=replication_rng(17, rep))
            real_path = simulate_path(self.REAL, None, eps, grid,
                                      rng=replication_rng(18, rep))
            with monkeypatch.context() as patch:
                fast = self._decisions(patch, path, real_path)
            with monkeypatch.context() as patch:
                patch.setattr(estimators, "_window_loglik", _direct_window_loglik)
                patch.setattr(estimators, "_exponent_rows", _direct_exponent_rows)
                direct = self._decisions(patch, path, real_path)
            assert len(fast) == len(direct) == 5
            for name, (got, rate), (want, _) in zip(
                ("mle", "pseudo_mle", "kappa_mle", "joint_rho", "joint_kappa"), fast, direct
            ):
                assert abs(got - want) <= 1e-12 * rate, (rep, name, got, want)


def _scan_every_window(memo, eval_fn, bounds, center, step, *fixed):
    """``estimators._scan_window`` with a lookup that always misses."""
    return estimators._scan_best(
        eval_fn, estimators._window(bounds, center, step, estimators.SPAN))


class TestWindowMemo:
    """A window scanned once per estimator call gives the results of scanning
    every window requested."""

    REAL = SmoothedCuspSignal(a=1.0, kappa=0.25, center=0.5, delta=0.05, T=1.0)

    @staticmethod
    def _results(path, real_path):
        return [mle(path, SIG), pseudo_mle(real_path, SIG), kappa_mle(path, 1.0, 0.5),
                joint_mle(path, 1.0, BOUNDS)]

    @pytest.mark.parametrize("eps", [0.02, 0.005])
    def test_results_match_every_window_scanned(self, monkeypatch, eps):
        for rep in range(6):
            path = simulate_path(SIG, 0.5, eps, GRID, rng=replication_rng(19, rep))
            real_path = simulate_path(self.REAL, None, eps, GRID,
                                      rng=replication_rng(20, rep))
            memo = self._results(path, real_path)
            with monkeypatch.context() as patch:
                patch.setattr(estimators, "_scan_window", _scan_every_window)
                every = self._results(path, real_path)
            assert memo == every, rep

    def test_converging_starts_scan_shared_windows_once(self, monkeypatch):
        # on this path the first level takes all three starts to 0.5, so the
        # second-level window of the last two is the one the first scanned
        path = simulate_path(SIG, 0.5, 0.02, GRID, rng=replication_rng(2, 8))
        counts = {"requested": 0, "evaluated": 0}
        scan, window = estimators._scan_window, estimators._window_loglik

        def counting_scan(*args):
            counts["requested"] += 1
            return scan(*args)

        def counting_window(*args):
            counts["evaluated"] += 1
            return window(*args)

        monkeypatch.setattr(estimators, "_scan_window", counting_scan)
        monkeypatch.setattr(estimators, "_window_loglik", counting_window)
        mle(path, SIG)
        assert counts["evaluated"] < counts["requested"]


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

    @pytest.mark.parametrize("theta_bounds,kappa_bounds,named", [
        ((0.0, 0.65), (0.05, 0.45), "theta_bounds"),
        (BOUNDS, (-0.1, 0.45), "kappa_bounds"),
        # an upper exponent bound at or past 1/2 has no location rate; it
        # used to pass this check and fail mid-sweep in the refinement
        (BOUNDS, (0.05, 0.6), "kappa_bounds"),
        (BOUNDS, (0.05, 0.5), "kappa_bounds"),
    ])
    def test_rejects_bad_bounds(self, theta_bounds, kappa_bounds, named):
        sig = CuspSignal(a=1.0, kappa=0.45, T=1.0, theta_bounds=BOUNDS)
        path = simulate_path(sig, 0.5, 0.05, TimeGrid(1.0, 1000),
                             rng=replication_rng(1, 0))
        with pytest.raises(DomainError, match=named):
            joint_mle(path, 1.0, theta_bounds, kappa_bounds)

    def test_annotated_return_type(self):
        assert typing.get_type_hints(joint_mle)["return"] is JointEstimationResult

    def test_joint_coarse_axes_cover_bounds(self):
        path = _zero_noise_path()
        rho_nodes, kappa_nodes, field = joint_coarse(
            1.0, BOUNDS, (0.05, 0.45), GRID, path.increments, path.epsilon)
        assert rho_nodes[0] == BOUNDS[0] and rho_nodes[-1] == BOUNDS[1]
        assert kappa_nodes[0] == 0.05 and kappa_nodes[-1] == 0.45
        assert field.shape == (kappa_nodes.size, rho_nodes.size)


def _joint_estimates(path):
    result = joint_mle(path, 1.0, BOUNDS)
    return [(result.rho_hat, BOUNDS), (result.kappa_hat, (0.05, 0.45))]


class TestEpsilonOne:
    """At the largest admissible noise level every estimator still returns
    finite estimates inside its bounds."""

    @pytest.mark.parametrize("zero_noise", [False, True], ids=["noisy", "zero-noise"])
    @pytest.mark.parametrize("estimate", [
        lambda path: [(mle(path, SIG).estimate, BOUNDS)],
        lambda path: [(bayes(path, SIG).estimate, BOUNDS)],
        lambda path: [(pseudo_mle(path, SIG).estimate, BOUNDS)],
        lambda path: [(kappa_mle(path, 1.0, 0.5).estimate, (0.05, 0.45))],
        _joint_estimates,
    ], ids=["mle", "bayes", "pseudo_mle", "kappa_mle", "joint_mle"])
    def test_finite_in_bounds(self, estimate, zero_noise):
        path = simulate_path(SIG, 0.5, 1.0, GRID, rng=replication_rng(0, 0),
                             zero_noise=zero_noise)
        for value, (lo, hi) in estimate(path):
            assert np.isfinite(value) and lo <= value <= hi


class TestEstimationResult:
    def test_fields_roundtrip(self):
        r = EstimationResult(
            estimator="mle", estimate=0.5, rate=0.01, normalized_error=0.0,
            boundary=False, grid_step=1e-5, refinement_levels=4,
        )
        assert r.boundary_mass == 0.0
