"""Tests for path simulation and the replication seeding scheme."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cusplab.errors import DomainError
from cusplab.path_sim import (
    DEFAULT_N_STEPS,
    DiscretizationWarning,
    ObservationPath,
    TimeGrid,
    replication_rng,
    simulate_path,
    write_path_csv,
)
from cusplab.signal_models import CuspSignal, QuadraticSignal

SIG = CuspSignal(a=1.0, kappa=0.25, T=1.0, theta_bounds=(0.35, 0.65))


class TestTimeGrid:
    def test_basic_geometry(self):
        grid = TimeGrid(2.0, 4)
        assert grid.dt == 0.5
        np.testing.assert_allclose(grid.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
        np.testing.assert_allclose(grid.left_nodes, [0.0, 0.5, 1.0, 1.5])

    def test_left_nodes_built_once_read_only(self):
        grid = TimeGrid(1.0, 7)
        nodes = grid.left_nodes
        assert grid.left_nodes is nodes
        assert np.array_equal(nodes, grid.dt * np.arange(7))
        with pytest.raises(ValueError, match="read-only"):
            nodes[0] = 1.0
        assert grid == TimeGrid(1.0, 7)

    def test_default_step_count(self):
        assert DEFAULT_N_STEPS == 10_000

    @pytest.mark.parametrize("n", [0, 1, 2.5])
    def test_rejects_bad_n(self, n):
        with pytest.raises(DomainError):
            TimeGrid(1.0, n)

    @pytest.mark.parametrize("T", [0.0, -1.0, float("inf")])
    def test_rejects_bad_horizon(self, T):
        with pytest.raises(DomainError):
            TimeGrid(T, 10)

    @given(n=st.integers(2, 500), T=st.floats(0.1, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_nodes_consistent_with_dt(self, n, T):
        grid = TimeGrid(T, n)
        nodes = grid.nodes
        assert nodes.shape == (n + 1,)
        assert nodes[0] == 0.0
        assert nodes[-1] == pytest.approx(T)
        np.testing.assert_allclose(np.diff(nodes), grid.dt, rtol=1e-9)


class TestObservationPath:
    def test_cumulative_starts_at_zero(self):
        grid = TimeGrid(1.0, 5)
        path = ObservationPath(grid, np.ones(5), 0.1)
        x = path.cumulative()
        assert x[0] == 0.0
        np.testing.assert_allclose(np.diff(x), path.increments)

    def test_shape_mismatch_rejected(self):
        grid = TimeGrid(1.0, 5)
        with pytest.raises(DomainError):
            ObservationPath(grid, np.ones(4), 0.1)

    @pytest.mark.parametrize("eps", [0.0, -0.5, 1.5])
    def test_epsilon_outside_unit_interval_rejected(self, eps):
        grid = TimeGrid(1.0, 5)
        with pytest.raises(DomainError):
            ObservationPath(grid, np.ones(5), eps)


class TestReplicationRng:
    def test_deterministic(self):
        a = replication_rng(7, 3).standard_normal(4)
        b = replication_rng(7, 3).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_distinct_replications_differ(self):
        a = replication_rng(7, 3).standard_normal(4)
        b = replication_rng(7, 4).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_distinct_masters_differ(self):
        a = replication_rng(7, 3).standard_normal(4)
        b = replication_rng(8, 3).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_streams_statistically_independent(self):
        draws = np.array(
            [replication_rng(0, rep).standard_normal(1)[0] for rep in range(500)]
        )
        # first draws across replications behave like an i.i.d. N(0,1) sample
        assert abs(draws.mean()) < 5.0 / np.sqrt(500)
        assert abs(draws.std(ddof=1) - 1.0) < 0.2


class TestSimulatePath:
    def test_zero_noise_increments_are_drift_times_dt(self):
        grid = TimeGrid(1.0, 1000)
        path = simulate_path(SIG, 0.5, 0.01, grid, zero_noise=True)
        expected = SIG.value(0.5, grid.left_nodes) * grid.dt
        np.testing.assert_array_equal(path.increments, expected)

    def test_reproducible_with_seeded_rng(self):
        grid = TimeGrid(1.0, 1000)
        p1 = simulate_path(SIG, 0.5, 0.01, grid, rng=replication_rng(1, 2))
        p2 = simulate_path(SIG, 0.5, 0.01, grid, rng=replication_rng(1, 2))
        np.testing.assert_array_equal(p1.increments, p2.increments)

    def test_noise_has_correct_scale(self):
        grid = TimeGrid(1.0, 20_000)
        eps = 0.3
        path = simulate_path(SIG, 0.5, eps, grid, rng=replication_rng(0, 0))
        drift = SIG.value(0.5, grid.left_nodes) * grid.dt
        noise = path.increments - drift
        observed = noise.std(ddof=1)
        expected = eps * np.sqrt(grid.dt)
        assert observed == pytest.approx(expected, rel=0.05)

    def test_rejects_bad_epsilon(self):
        grid = TimeGrid(1.0, 10)
        with pytest.raises(DomainError):
            simulate_path(SIG, 0.5, 0.0, grid)

    def test_location_signal_requires_theta(self):
        grid = TimeGrid(1.0, 100)
        with pytest.raises(DomainError):
            simulate_path(SIG, None, 0.1, grid)

    def test_theta_outside_bounds_rejected(self):
        grid = TimeGrid(1.0, 100)
        with pytest.raises(DomainError):
            simulate_path(SIG, 0.9, 0.1, grid)

    @pytest.mark.parametrize("signal", [SIG, QuadraticSignal(c0=1.0, c1=0.0, c2=0.0, T=1.0)])
    def test_grid_beyond_signal_horizon_rejected(self, signal):
        # the drift is never evaluated past the signal's horizon T=1
        with pytest.raises(DomainError, match="evaluation times"):
            simulate_path(signal, 0.5, 0.1, TimeGrid(2.0, 100))

    def test_smooth_signal_ignores_theta(self):
        grid = TimeGrid(1.0, 10)
        quad = QuadraticSignal(c0=1.0, c1=0.0, c2=0.0, T=1.0)
        path = simulate_path(quad, None, 0.1, grid, zero_noise=True)
        np.testing.assert_allclose(path.increments, grid.dt)

    def test_warns_when_grid_cannot_resolve_cusp(self):
        grid = TimeGrid(1.0, 4)
        with pytest.warns(DiscretizationWarning):
            simulate_path(SIG, 0.5, 0.005, grid, zero_noise=True)

    def test_no_warning_on_fine_grid(self):
        import warnings

        grid = TimeGrid(1.0, 10_000)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DiscretizationWarning)
            simulate_path(SIG, 0.5, 0.01, grid, zero_noise=True)

    def test_zero_noise_final_value_matches_integral(self):
        from scipy.integrate import quad

        grid = TimeGrid(1.0, 20_000)
        path = simulate_path(SIG, 0.5, 0.01, grid, zero_noise=True)
        integral, _ = quad(
            lambda t: float(SIG.value(0.5, t)), 0.0, 1.0, points=[0.5]
        )
        assert path.cumulative()[-1] == pytest.approx(integral, rel=1e-4)


class TestWritePathCsv:
    def test_roundtrip_through_repr(self, tmp_path):
        grid = TimeGrid(1.0, 32)
        path = simulate_path(SIG, 0.5, 0.1, grid, rng=replication_rng(0, 0))
        target = tmp_path / "path.csv"
        write_path_csv(path, str(target))
        raw = target.read_text().splitlines()
        assert raw[0] == "t,x"
        assert len(raw) == grid.n + 2
        data = np.array([[float(v) for v in line.split(",")] for line in raw[1:]])
        np.testing.assert_array_equal(data[:, 0], grid.nodes)
        np.testing.assert_array_equal(data[:, 1], path.cumulative())

    def test_accepts_open_stream(self):
        grid = TimeGrid(1.0, 3)
        path = ObservationPath(grid, np.array([0.1, 0.2, 0.3]), 0.5)
        buf = io.StringIO()
        write_path_csv(path, buf)
        assert buf.getvalue().startswith("t,x\n")
