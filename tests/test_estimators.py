"""Tests for the likelihood field and the estimator family."""

import dataclasses
import tracemalloc
import typing

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def _bayes_lattice(signal, grid, eps):
    """The cached lattice that ``bayes`` integrates on for ``signal`` on ``grid`` at ``eps``."""
    return estimators._lattice(signal, grid, *signal.theta_bounds,
                               estimators._bayes_step(signal, eps))


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


def _scan_blocks(monkeypatch) -> list:
    """Copies of the row blocks the coarse scans hand to ``ito_loglik``, in order."""
    blocks = []

    def record(rows, *args):
        blocks.append(rows.copy())
        return ito_loglik(rows, *args)

    monkeypatch.setattr(estimators, "ito_loglik", record)
    return blocks


def _assert_blocks_tile(blocks, rows) -> None:
    """The ``blocks`` are near-equal, at most ``SCAN_BLOCK`` rows, and stack to ``rows``."""
    sizes = [block.shape[0] for block in blocks]
    assert max(sizes) <= estimators.SCAN_BLOCK and max(sizes) - min(sizes) <= 1
    np.testing.assert_array_equal(np.concatenate(blocks), rows)


def _block_bytes(grid) -> int:
    """Bytes of one full block of coarse-scan drift rows on ``grid``."""
    return estimators.SCAN_BLOCK * grid.n * 8


class TestCoarseScans:
    """Column ``i`` of a coarse scan over a ``(paths, n)`` matrix is the
    one-path scan of row ``i``, and each node is the direct Ito sum over the
    drift at its axis values: ``field[i, j]`` is at ``(rho_nodes[i],
    kappa_nodes[j])`` for the joint scan."""

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
            node = lambda axes, idx: (axes[0][idx[0]], axes[1][idx[1]])
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

    @pytest.mark.parametrize("family,nuisance", [
        (family, nuisance)
        for family in ("cusp", "two_sided_cusp") for nuisance in _NUISANCE_CHOICES
    ] + [("multi_cusp", "none")])
    def test_location_blocks_have_the_bits_of_broadcast_rows(
        self, family, nuisance, monkeypatch
    ):
        # the rows are filled one theta at a time; the blocks handed to
        # ito_loglik must be the broadcast drift matrix, bit for bit
        extra = {} if nuisance == "none" else {"nuisance": _NUISANCE_CHOICES[nuisance]}
        if family == "cusp":
            signal = CuspSignal(1.3, 0.25, 1.0, BOUNDS, **extra)
        elif family == "two_sided_cusp":
            signal = TwoSidedCuspSignal(0.8, 1.6, 0.3, 1.0, BOUNDS, **extra)
        else:
            signal = MultiCuspSignal(((1.0, 0.2), (0.6, 0.4)), 1.0, BOUNDS)
        eps, rate = 0.005, location_rate(0.005, signal.hurst)
        increments = np.random.default_rng(9).normal(0.0, 0.03, size=(3, GRID.n))
        blocks = _scan_blocks(monkeypatch)
        thetas, _ = location_coarse(signal, rate, GRID, increments, eps)
        assert len(blocks) > 1
        _assert_blocks_tile(blocks, signal.value(thetas[:, None], GRID.left_nodes[None, :]))

    @pytest.mark.parametrize("scan", ["kappa", "joint"])
    def test_exponent_blocks_have_the_bits_of_broadcast_rows(self, scan, monkeypatch):
        grid, eps = TimeGrid(1.0, 1000), 0.01
        increments = np.random.default_rng(8).normal(0.0, 0.03, size=(3, grid.n))
        blocks = _scan_blocks(monkeypatch)
        t = grid.left_nodes
        if scan == "kappa":
            kappas, _ = kappa_coarse(1.2, 0.45, (0.05, 0.45), grid, increments, eps)
            rows = cusp_term(1.2, 0.45, kappas[:, None], t)
        else:
            rhos, kappas, _ = joint_coarse(1.2, BOUNDS, (0.05, 0.45), grid, increments, eps)
            rows = cusp_term(1.2, rhos[:, None, None], kappas[:, None], t).reshape(-1, t.size)
        _assert_blocks_tile(blocks, rows)

    @pytest.mark.parametrize("scan", ["location", "joint"])
    def test_scan_memory_is_bounded(self, scan):
        # the sweep cells of the benchmark (location: eps 0.005, n 1e4, 40
        # paths; joint: eps 0.01, n 4000, 100 paths) hold the field, one
        # block of drift rows and one row's temporaries
        if scan == "location":
            grid, eps, paths = TimeGrid(1.0, 10_000), 0.005, 40
            rate = location_rate(eps, SIG.hurst)
            run = lambda g, dx: location_coarse(SIG, rate, g, dx, eps)
        else:
            grid, eps, paths = TimeGrid(1.0, 4000), 0.01, 100
            run = lambda g, dx: joint_coarse(1.0, BOUNDS, (0.05, 0.45), g, dx, eps)
        increments = np.random.default_rng(4).normal(0.0, eps * 0.01, size=(paths, grid.n))
        run(TimeGrid(1.0, 100), increments[:, :100])
        tracemalloc.start()
        try:
            *_, field = run(grid, increments)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert field.shape[-1] == paths
        assert peak < 1.25 * _block_bytes(grid) + field.nbytes

    def test_mle_memory_is_bounded_at_small_eps(self):
        # eps 1e-3 puts 1501 nodes on the coarse grid: as one drift matrix
        # over 1e4 nodes they would hold 120 MB
        grid = TimeGrid(1.0, 10_000)
        path = simulate_path(SIG, 0.5, 1e-3, grid, rng=replication_rng(3, 0))
        assert coarse_grid(BOUNDS, location_rate(1e-3, SIG.hurst)).size == 1501
        tracemalloc.start()
        try:
            result = mle(path, SIG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(result.estimate - 0.5) <= 5 * result.rate
        assert peak < 1.25 * _block_bytes(grid)


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


def _line_search(fn, grid, target, close=None, values=None):
    """``estimators._search`` on one axis over ``BOUNDS``, coarse scan ``grid``."""
    step = grid[1] - grid[0]
    return estimators._search(
        (grid, fn(grid) if values is None else values), (BOUNDS,),
        (lambda point, g: fn(g),),
        close or (lambda p, q: abs(p[0] - q[0]) < 2.0 * step),
        lambda point: (target,),
    )


JOINT_BOUNDS = (BOUNDS, (0.05, 0.45))
JOINT_AXES = (np.linspace(*BOUNDS, 31), np.linspace(*JOINT_BOUNDS[1], 41))


def _joint_close(p, q):
    """The separation rule of ``joint_mle``, on the steps of ``JOINT_AXES``."""
    return all(abs(a - b) <= 2.0 * (axis[1] - axis[0]) for a, b, axis in zip(p, q, JOINT_AXES))


def _plane_coarse(fn):
    rhos, kappas = JOINT_AXES
    return rhos, kappas, fn(rhos[:, None], kappas[None, :])


def _plane_search(fn, target):
    """``estimators._search`` on two axes over ``JOINT_BOUNDS`` from the coarse
    scan of ``fn(rho, kappa)`` on ``JOINT_AXES``."""
    return estimators._search(
        _plane_coarse(fn), JOINT_BOUNDS,
        (lambda p, g: fn(g, p[1]), lambda p, g: fn(p[0], g)), _joint_close,
        lambda point: (target, target),
    )


def _bumps(x, y=None):
    """A low, wide mode at 0.42 and a high, narrow one at 0.583; in the plane
    they sit at ``y = 0.22`` and ``y = 0.137``."""
    low, high = (0.0, 0.0) if y is None else ((y - 0.22) ** 2, (y - 0.137) ** 2)
    return np.maximum(1.0 - 5000.0 * ((x - 0.42) ** 2 + low),
                      1.5 - 1e5 * ((x - 0.583) ** 2 + high))


class TestSearch:
    """``estimators._search``, the nested search of every MLE."""

    def test_never_decreases_attained_maximum(self):
        # refining the coarse argmax can only improve the field value
        fn = lambda g: -((np.asarray(g) - 0.5234567) ** 2)
        grid = np.linspace(0.35, 0.65, 16)
        (theta,), value, levels, (step,), _ = _line_search(fn, grid, 1e-6)
        assert value >= float(np.max(fn(grid)))
        assert theta == pytest.approx(0.5234567, abs=1e-5)
        assert step <= 1e-6

    def test_tie_breaks_toward_smaller_theta(self):
        # on a flat field every start ends at the left edge of its window
        fn = lambda g: np.zeros_like(np.asarray(g, dtype=float))
        grid = np.linspace(0.35, 0.65, 31)
        seeds = estimators._seeds((grid,), fn(grid), lambda p, q: abs(p[0] - q[0]) < 0.02)
        (theta,), _, levels, (step,), _ = _line_search(fn, grid, 2e-3)
        assert levels == 2
        assert theta == pytest.approx(min(seeds)[0] - estimators.SPAN * step)

    def test_step_at_target_keeps_best_start(self):
        # no level runs: each start takes the field at itself and the best
        # wins, whatever the coarse values that ranked the starts
        fn = lambda g: -((np.asarray(g) - 0.5) ** 2)
        grid = np.linspace(0.4, 0.6, 5)
        result = _line_search(fn, grid, 0.1, close=lambda p, q: False,
                              values=np.array([3.0, 0.0, 1.0, 0.0, 2.0]))
        assert result == ((0.5,), 0.0, 1, (grid[1] - grid[0],), False)

    def test_global_best_wins_over_seed_order(self):
        # the higher mode is narrow: the coarse scan ranks it second
        grid = np.linspace(0.35, 0.65, 31)
        seeds = estimators._seeds((grid,), _bumps(grid), lambda p, q: abs(p[0] - q[0]) < 0.02)
        assert seeds[0][0] == pytest.approx(0.42) and seeds[1][0] == pytest.approx(0.58)
        (theta,), value, _, _, _ = _line_search(_bumps, grid, 1e-7)
        assert theta == pytest.approx(0.583, abs=1e-5)
        assert value == pytest.approx(1.5)

    def test_plane_global_best_wins_over_seed_order(self):
        seeds = estimators._seeds(JOINT_AXES, _plane_coarse(_bumps)[-1], _joint_close)
        assert seeds[0] == pytest.approx((0.42, 0.22))
        assert seeds[1] == pytest.approx((0.58, 0.14))
        (rho, kappa), value, _, _, boundary = _plane_search(_bumps, 1e-5)
        assert (rho, kappa) == pytest.approx((0.583, 0.137), abs=1e-4)
        assert value == pytest.approx(1.5, abs=1e-6)
        assert not boundary

    def test_plane_tie_breaks_toward_smallest_point(self):
        # two plateaus of equal height; the coarse scan seeds the one at
        # larger rho (and smaller kappa) first, the smaller point wins
        def plateaus(rho, kappa):
            left = (np.abs(rho - 0.4) < 0.015) & (np.abs(kappa - 0.3) < 0.015)
            right = (np.abs(rho - 0.6) < 0.015) & (np.abs(kappa - 0.1) < 0.015)
            return np.where(left | right, 1.0, -np.hypot(rho - 0.5, kappa - 0.2))

        seeds = estimators._seeds(JOINT_AXES, _plane_coarse(plateaus)[-1], _joint_close)
        assert abs(seeds[0][0] - 0.6) < 0.015 and abs(seeds[1][0] - 0.4) < 0.015
        (rho, kappa), value, _, _, _ = _plane_search(plateaus, 1e-4)
        assert value == 1.0
        assert abs(rho - 0.4) < 0.015 and abs(kappa - 0.3) < 0.015

    def test_twelve_levels_at_most(self):
        fn = lambda g: -((np.asarray(g) - 0.5234567) ** 2)
        grid = np.linspace(0.35, 0.65, 16)
        _, _, levels, (step,), _ = _line_search(fn, grid, 0.0)
        assert levels == 13  # the coarse scan and 12 refinement levels
        assert step == pytest.approx((grid[1] - grid[0]) * 1e-12)
        _, _, levels, steps, _ = _plane_search(_bumps, 0.0)
        assert levels == 13
        assert steps == pytest.approx(
            tuple((axis[1] - axis[0]) * 1e-12 for axis in JOINT_AXES))


class TestMle:
    def test_zero_noise_recovers_truth(self):
        path = _zero_noise_path(theta=0.5)
        result = mle(path, SIG)
        assert result.estimator == "mle"
        assert result.estimate == pytest.approx(0.5, abs=result.grid_step)
        assert not result.boundary
        assert result.rate == pytest.approx(location_rate(0.01, 0.75))
        assert abs(result.estimate - 0.5) / result.rate <= 0.02  # rate/50

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
        result = estimator(_zero_noise_path(signal=signal), signal)
        assert abs(result.estimate - 0.5) / result.rate <= 0.1


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
        lattice = _bayes_lattice(signal, grid, 0.01)
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
    def test_cached_lattice_matches_a_cold_build(self, nuisance, bounds):
        # the paths of a sweep cell share the lattice the first call built
        extra = {} if nuisance == "none" else {"nuisance": _NUISANCE_CHOICES[nuisance]}
        signal = CuspSignal(a=1.0, kappa=0.25, T=1.0, theta_bounds=bounds, **extra)
        paths = [simulate_path(signal, 0.5, 0.02, GRID, rng=replication_rng(2, rep))
                 for rep in (6, 7, 8)]
        cold = []
        for path in paths:
            estimators._lattice.cache_clear()
            cold.append(bayes(path, signal))
        estimators._lattice.cache_clear()
        assert [bayes(path, signal) for path in paths] == cold
        info = estimators._lattice.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    @pytest.mark.parametrize("other", [
        lambda: (SIG, GRID, 0.01),
        lambda: (SIG, TimeGrid(1.0, 1000), 0.02),
        lambda: (CuspSignal(a=2.0, kappa=0.25, T=1.0, theta_bounds=BOUNDS), GRID, 0.02),
    ], ids=["epsilon", "grid", "signal"])
    def test_cache_keeps_cells_apart(self, other):
        # a lattice cached for another noise level, grid or signal is never reused
        signal, grid, eps = other()
        path = simulate_path(signal, 0.5, eps, grid, rng=replication_rng(2, 6))
        estimators._lattice.cache_clear()
        cold = bayes(path, signal)
        estimators._lattice.cache_clear()
        bayes(simulate_path(SIG, 0.5, 0.02, GRID, rng=replication_rng(2, 6)), SIG)
        assert bayes(path, signal) == cold
        assert estimators._lattice.cache_info().misses == 2

    def test_shared_lattice_is_read_only(self):
        lattice = _bayes_lattice(SIG, GRID, 0.02)
        arrays = [value for value in vars(lattice).values() if isinstance(value, np.ndarray)]
        assert len(arrays) >= 6
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

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
        else:  # a window below dt: the same lattice, through direct rows
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


def _direct_location_window(path, rows, thetas):
    """``estimators._location_window`` with every node summed directly."""
    return estimators._path_loglik(path, rows(thetas[:, None], path.grid.left_nodes))


def _direct_exponent_window(path, a, rho, kappas):
    """``estimators._exponent_window`` over ``cusp_term`` rows, every node summed directly."""
    return estimators._path_loglik(path, cusp_term(a, rho, kappas[:, None], path.grid.left_nodes))


def _summed_terms(path, rows) -> np.ndarray:
    """``sum |S dX| + dt/2 sum S**2`` per row: the scale of its rounding, times eps**2."""
    dt = path.grid.dt
    return np.abs(rows) @ np.abs(path.increments) + 0.5 * dt * (rows**2).sum(axis=1)


class TestWindowFastPaths:
    """The location and exponent windows equal ``ito_loglik`` over direct rows.

    Rounding is relative to the summed terms, of order 1/eps**2, not to the
    field, which is a small difference of them at large eps.
    """

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
    # Two-sided cusp cases that failed a tolerance scaled by the field itself.
    @example(n=9981, eps=0.140625, center=0.5, step=0.00390625, on_node=False, seed=2001)
    @example(n=776, eps=0.13671875, center=0.375, step=0.0078125, on_node=False, seed=448)
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
        got = estimators._location_window(path, signal.value, thetas)
        want = _direct_location_window(path, signal.value, thetas)
        assert got.shape == thetas.shape
        terms = _summed_terms(path, signal.value(thetas[:, None], grid.left_nodes))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * terms.max() / eps**2)

    KAPPA_BOUNDS = (0.05, 0.45)

    @pytest.mark.parametrize("window", ["inside", "clipped", "one"])
    @pytest.mark.parametrize("where", ["node", "near", "between"])
    @given(
        n=st.integers(2, 10_000),
        eps=st.floats(1e-3, 0.2),
        a=st.floats(0.1, 3.0),
        a0=st.floats(0.0, 3.0),
        u=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        offset=st.floats(1e-15, 1e-9),
        center=st.floats(0.05, 0.45),
        step=st.floats(5e-5, 2e-2),
        seed=st.integers(0, 2**32 - 1),
    )
    # Two nodes, the one at 0.5 just where w*|log|t - rho|| = 1/2 on the
    # widest window: a slice rule of 1/2 read 1.9e-13 of the terms on
    # pure noise, because the energy term's exponent is twice the drift's.
    @example(n=2, eps=1e-3, a=1.0, a0=0.0, u=0.41790679287623883, offset=1e-15,
             center=0.25, step=0.01, seed=0)
    @settings(max_examples=50, deadline=None)
    def test_exponent_window_matches_cusp_term(
        self, window, where, n, eps, a, a0, u, offset, center, step, seed
    ):
        # the path's drift has amplitude a0 (0: pure noise) and its tip at 0.5
        grid = TimeGrid(1.0, n)
        t = grid.left_nodes
        noise = np.random.default_rng(seed).normal(0.0, eps * grid.dt**0.5, n)
        path = ObservationPath(grid, cusp_term(a0, 0.5, 0.25, t) * grid.dt + noise, eps)
        i = int(u * (n - 1))
        if where == "node":  # every row has a zero at rho
            rho = t[max(i, 1)]
        elif where == "near":  # 1e-15 to 1e-9 from a node, either side
            rho = t[i] - offset if i and seed % 2 else t[i] + offset
        else:
            rho = u
        lo, hi = self.KAPPA_BOUNDS
        if window == "clipped":  # the window runs into a bound
            center = lo + 7.0 * step if u < 0.5 else hi - 7.0 * step
        kappas = estimators._window(self.KAPPA_BOUNDS, center, step, estimators.SPAN)
        if window == "one":
            kappas = kappas[[kappas.size // 2]]
        got = estimators._exponent_window(path, a, rho, kappas)
        want = _direct_exponent_window(path, a, rho, kappas)
        assert got.shape == kappas.shape
        terms = _summed_terms(path, cusp_term(a, rho, kappas[:, None], t))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * terms.max() / eps**2)

    @pytest.mark.parametrize("rho", [0.5, 500.0, 999.5])
    def test_exponent_window_on_a_long_horizon(self, rho):
        # On T = 1000 a window of half-width 0.2 has nodes with
        # w*|log|t - rho|| >= 1/4 far from rho too (|t - rho| >= e**1.25):
        # the slice runs from the first such node to the last.
        grid = TimeGrid(1000.0, 5000)
        t = grid.left_nodes
        noise = np.random.default_rng(3).normal(0.0, 0.01 * grid.dt**0.5, grid.n)
        path = ObservationPath(grid, cusp_term(1.0, 500.0, 0.25, t) * grid.dt + noise, 0.01)
        kappas = estimators._window(self.KAPPA_BOUNDS, 0.25, 0.01, estimators.SPAN)
        got = estimators._exponent_window(path, 1.0, rho, kappas)
        want = _direct_exponent_window(path, 1.0, rho, kappas)
        terms = _summed_terms(path, cusp_term(1.0, rho, kappas[:, None], t))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * terms.max() / 0.01**2)


class TestSearchDecisions:
    """The searches decide alike on the fast window fields and on direct
    rows: the same searches, run once more with the location and exponent
    windows replaced by ``ito_loglik`` over directly evaluated rows (the
    signal's, and ``cusp_term``'s), reach the same points.

    The points compared are those of the nested search, each coordinate
    with its rate (50 target steps), before ``joint_mle``'s Newton steps.
    """

    REAL = SmoothedCuspSignal(a=1.0, kappa=0.25, center=0.5, delta=0.05, T=1.0)

    @staticmethod
    def _decisions(patch, path, real_path):
        found = []
        search = estimators._search

        def spy(coarse, bounds, fields, close, targets):
            result = search(coarse, bounds, fields, close, targets)
            point = result[0]
            found.extend((p, 50.0 * g) for p, g in zip(point, targets(point)))
            return result

        patch.setattr(estimators, "_search", spy)
        mle(path, SIG)
        pseudo_mle(real_path, SIG)
        joint_mle(path, 1.0, BOUNDS)
        return found

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
                patch.setattr(estimators, "_location_window", _direct_location_window)
                patch.setattr(estimators, "_exponent_window", _direct_exponent_window)
                direct = self._decisions(patch, path, real_path)
            assert len(fast) == len(direct) == 4
            for name, (got, rate), (want, _) in zip(
                ("mle", "pseudo_mle", "joint_rho", "joint_kappa"), fast, direct
            ):
                assert abs(got - want) <= 1e-12 * rate, (rep, name, got, want)


def _scan_every_window(memo, eval_fn, bounds, center, step, *fixed,
                       _scan=estimators._scan_window):
    """``estimators._scan_window`` with a lookup that always misses."""
    return _scan({}, eval_fn, bounds, center, step, *fixed)


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
        result = pseudo_mle(path, SIG)
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
            estimate(ObservationPath(GRID, increments, 0.02))


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

    def test_bounds_narrower_than_the_rate_converge_to_truth(self):
        # the coarse step range/8 = 2.5e-5 is already below eps/50 = 2e-4;
        # Newton scoring still lands on the noiseless maximum
        path = _zero_noise_path()
        result = kappa_mle(path, 1.0, 0.5, kappa_bounds=(0.2499, 0.2501))
        assert result.estimate == pytest.approx(0.25, abs=1e-12)
        assert result.grid_step < estimators.NEWTON_TOL * 0.01
        assert 2 <= result.refinement_levels <= 1 + estimators.NEWTON_ITERATIONS

    def test_no_nested_search(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("kappa_mle ran the nested search")

        monkeypatch.setattr(estimators, "_search", refuse)
        path = simulate_path(SIG, 0.5, 0.01, GRID, rng=replication_rng(0, 1))
        assert not kappa_mle(path, 1.0, 0.5).boundary

    def test_coarse_scans_share_the_exponent_axis(self):
        path = _zero_noise_path()
        kappas, _ = kappa_coarse(1.0, 0.5, (0.05, 0.45), GRID, path.increments, 0.01)
        _, kappa_nodes, _ = joint_coarse(1.0, BOUNDS, (0.05, 0.45), GRID, path.increments, 0.01)
        assert kappas.size == 9
        np.testing.assert_array_equal(kappas, kappa_nodes)


def _kappa_field(path, a, rho, kappas):
    """The exponent field at ``rho`` on direct ``cusp_term`` rows."""
    rows = cusp_term(a, rho, np.atleast_1d(kappas)[:, None], path.grid.left_nodes)
    return ito_loglik(rows, path.increments, path.grid.dt, path.epsilon)


class TestKappaNewton:
    """``estimators._kappa_newton``, the exponent solver of ``kappa_mle`` and
    ``joint_mle``, against central differences and scans of direct rows."""

    GRID = TimeGrid(1.0, 10_000)

    def _path(self, kappa0, eps, rho, rep):
        signal = CuspSignal(a=1.0, kappa=kappa0, T=1.0, theta_bounds=BOUNDS)
        return simulate_path(signal, rho, eps, self.GRID, rng=replication_rng(23, rep))

    @pytest.mark.parametrize("kappa0", [0.1, 0.25, 0.4])
    @pytest.mark.parametrize("eps", [0.02, 0.005])
    @pytest.mark.parametrize("on_node", [True, False], ids=["on-node", "off-node"])
    def test_interior_estimate_is_a_maximum(self, kappa0, eps, on_node):
        # rho = 0.5 is node 5000; a third of a step off it is on none
        rho = 0.5 if on_node else 0.5 + self.GRID.dt / 3.0
        for rep in range(4):
            path = self._path(kappa0, eps, rho, rep)
            result = kappa_mle(path, 1.0, rho)
            kappa = result.estimate
            assert not result.boundary
            h = eps / 100.0
            low, mid, high = _kappa_field(path, 1.0, rho, kappa + h * np.arange(-1.0, 2.0))
            score, hessian = (high - low) / (2.0 * h), (high - 2.0 * mid + low) / h**2
            assert hessian < 0.0
            # the Newton step the differences imply; it would be about
            # eps/10 had the estimate stopped eps/10 short
            assert abs(score / hessian) < 1e-4 * eps, (rep, score, hessian)
            scan = kappa + eps / 50.0 * np.arange(-10, 11)
            values = _kappa_field(path, 1.0, rho, scan)
            assert values.max() - values[10] <= 1e-12 * abs(values[10]), rep

    @pytest.mark.parametrize("bounds,edge", [((0.3, 0.45), 0.3), ((0.05, 0.2), 0.2)])
    def test_outward_score_returns_the_bound(self, bounds, edge):
        # the noiseless maximum at 0.25 lies outside the bounds
        path = _zero_noise_path()
        result = kappa_mle(path, 1.0, 0.5, kappa_bounds=bounds)
        assert result.estimate == edge
        assert result.boundary
        kappa, _, step, boundary = estimators._kappa_newton(path, 1.0, 0.5, edge, *bounds)
        assert (kappa, step, boundary) == (edge, 0.0, True)

    def test_start_in_the_convex_region_still_ascends(self):
        # for kappa0 = 0.05 the noiseless field is convex at 0.45
        path = _zero_noise_path(grid=self.GRID, signal=CuspSignal(1.0, 0.05, 1.0, BOUNDS))
        h = 1e-3
        low, mid, high = _kappa_field(path, 1.0, 0.5, np.array([0.45 - h, 0.45, 0.45 + h]))
        assert high - 2.0 * mid + low > 0.0
        kappa, iterations, _, boundary = estimators._kappa_newton(
            path, 1.0, 0.5, 0.45, 0.02, 0.45)
        assert kappa == pytest.approx(0.05, abs=1e-9)
        assert iterations < estimators.NEWTON_ITERATIONS and not boundary

    def test_no_step_lowers_the_field(self, monkeypatch):
        # on this path the first Newton step from 0.45 lands at 0.0506, 236
        # log units below the start; the iterates must climb all the same
        path = self._path(0.25, 0.01, 0.5, 0)
        values = [_kappa_field(path, 1.0, 0.5, 0.45)[0]]
        for cap in range(1, 8):
            monkeypatch.setattr(estimators, "NEWTON_ITERATIONS", cap)
            kappa, *_ = estimators._kappa_newton(path, 1.0, 0.5, 0.45, 0.05, 0.45)
            values.append(_kappa_field(path, 1.0, 0.5, kappa)[0])
        assert values == sorted(values)
        assert kappa == pytest.approx(kappa_mle(path, 1.0, 0.5).estimate, abs=1e-9)

    @pytest.mark.parametrize("eps", [0.02, 0.01])
    def test_joint_kappa_beats_its_last_window(self, monkeypatch, eps):
        found = []
        search = estimators._search

        def spy(coarse, bounds, fields, close, targets):
            result = search(coarse, bounds, fields, close, targets)
            found.append(result)
            return result

        monkeypatch.setattr(estimators, "_search", spy)
        kappa_bounds = (0.05, 0.45)
        for rep in range(6):
            path = simulate_path(SIG, 0.5, eps, TimeGrid(1.0, 4000),
                                 rng=replication_rng(24, rep))
            result = joint_mle(path, 1.0, BOUNDS, kappa_bounds)
            (rho, kappa), _, _, (_, kappa_step), _ = found[-1]
            assert rho == result.rho_hat
            window = estimators._window(kappa_bounds, kappa, kappa_step, estimators.SPAN)
            values = _kappa_field(path, 1.0, rho, window)
            reported = _kappa_field(path, 1.0, rho, result.kappa_hat)[0]
            assert reported >= values.max() - 1e-12 * abs(reported), rep


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
        assert field.shape == (rho_nodes.size, kappa_nodes.size)


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
            estimator="mle", estimate=0.5, rate=0.01, boundary=False, grid_step=1e-5,
            refinement_levels=4,
        )
        assert r.boundary_mass == 0.0
