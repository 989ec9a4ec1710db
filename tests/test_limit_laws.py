"""Tests for the analytic constants and limit-law samplers."""

import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.fft
from scipy import special, stats
from scipy.integrate import quad

from cusplab import limit_laws
from cusplab.errors import DomainError, NumericalDegeneracyError, StoppedError
from cusplab.limit_laws import (
    FBM_BLOCK,
    FbmPath,
    WindowConfig,
    cusp_log_moment,
    default_xi_window,
    default_zeta_window,
    fbm_covariance,
    fisher_info_kappa,
    gamma_squared,
    next_fast_len,
    rescale_fbm,
    sample_fbm,
    sample_kappa_limit,
    sample_xi_batch,
    sample_zeta_batch,
    xi_from_fbm,
    zeta_from_fbm,
    zeta_scale,
    _embedding_scale,
    _fbm_paths,
)
from cusplab.path_sim import replication_rng

# Independently computed reference values for the default cusp problem
# (a=1, kappa=1/4, rho=1/2, T=1), frozen to guard against regressions.
GAMMA_SQ_REF = 0.511988584660
FISHER_REF = 1.081184249478


def _gamma_sq_quad(kappa):
    """``integral (|v-1|**kappa - |v|**kappa)**2 dv`` by adaptive quadrature.

    The integrand is symmetric about ``v = 1/2``.  Beyond ``v = 2`` the
    substitution ``w = 1/v`` leaves ``w**(-2*kappa)`` times a smooth
    factor, whose algebraic weight QUADPACK's QAWS integrates exactly;
    ``expm1``/``log1p`` keep the difference of powers accurate near
    ``w = 0``.
    """
    near, _ = quad(
        lambda v: (abs(v - 1.0) ** kappa - v**kappa) ** 2, 0.5, 2.0,
        points=[1.0], limit=200, epsabs=0.0, epsrel=1e-13,
    )
    tail, _ = quad(
        lambda w: (math.expm1(kappa * math.log1p(-w)) / w if w else -kappa) ** 2,
        0.0, 0.5, weight="alg", wvar=(-2.0 * kappa, 0.0),
        limit=200, epsabs=0.0, epsrel=1e-13,
    )
    return 2.0 * (near + tail)


class TestGammaSquared:
    def test_reference_value(self):
        assert gamma_squared(1.0, 0.25) == pytest.approx(GAMMA_SQ_REF, rel=1e-11)

    def test_amplitude_scales_quadratically(self):
        assert gamma_squared(2.0, 0.3) == pytest.approx(
            4.0 * gamma_squared(1.0, 0.3), rel=1e-12
        )

    @pytest.mark.parametrize("kappa", [0.01, 0.05, 0.15, 0.25, 0.35, 0.45, 0.49])
    def test_closed_form_matches_quadrature(self, kappa):
        assert gamma_squared(1.0, kappa) == pytest.approx(
            _gamma_sq_quad(kappa), rel=1e-9
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            gamma_squared(-1.0, 0.25)
        with pytest.raises(DomainError):
            gamma_squared(1.0, 0.5)


class TestScipyOracle:
    """The numpy replacements give scipy's values: scipy is the oracle."""

    @pytest.mark.parametrize("real", [False, True])
    def test_next_fast_len_matches_scipy(self, real):
        targets = range(1, 20001)
        ours = [next_fast_len(t, real) for t in targets]
        assert ours == [scipy.fft.next_fast_len(t, real) for t in targets]

    def test_next_fast_len_rejects_nonpositive_target(self):
        with pytest.raises(DomainError):
            next_fast_len(0)

    @pytest.mark.parametrize("kappa", np.round(np.arange(0.05, 0.46, 0.05), 2))
    def test_gamma_squared_matches_scipy_beta_form(self, kappa):
        c = math.cos(math.pi * kappa)
        beta = float(special.beta(kappa + 1.0, kappa + 1.0))
        reference = 2.0 * (1.0 - c) * beta / c
        ulps = abs(gamma_squared(1.0, kappa) - reference) / np.spacing(reference)
        assert ulps <= 4.0
        if kappa in (0.15, 0.25, 0.35):
            assert ulps == 0.0

    @pytest.mark.parametrize("hurst", [0.55, 0.75, 0.95])
    @pytest.mark.parametrize("half_count", [7, 300, 2000, 3000])
    def test_embedding_and_paths_match_scipy_fft(self, hurst, half_count):
        # M = 28, 1200, 8000 and 12000
        window = WindowConfig(U=0.01 * half_count, du=0.01)
        h2 = 2.0 * hurst
        k = np.arange(scipy.fft.next_fast_len(2 * half_count - 1) + 1, dtype=float)
        acov = 0.5 * window.du**h2 * ((k + 1.0) ** h2 - 2.0 * k**h2 + np.abs(k - 1.0) ** h2)
        row = np.concatenate([acov, acov[-2:0:-1]])
        scale = np.sqrt(np.maximum(scipy.fft.fft(row).real, 0.0) / row.size)
        assert np.array_equal(_embedding_scale(hurst, window), scale)

        normals = replication_rng(3, half_count).standard_normal((5, 2 * scale.size))
        z = normals.view(np.complex128) * scale
        noise = scipy.fft.fft(z, axis=1)[:, : 2 * half_count]
        steps = np.empty((10, 2 * half_count))
        steps[0::2], steps[1::2] = noise.real, noise.imag
        paths = np.zeros((10, 2 * half_count + 1))
        np.cumsum(steps, axis=1, out=paths[:, 1:])
        paths -= paths[:, half_count, None].copy()
        assert np.array_equal(_fbm_paths(scale, half_count, normals.copy()), paths)


class TestCuspLogMoment:
    def test_unit_interval_closed_form(self):
        # integral of s^{2k} ln^2 s over (0,1) equals 2/(2k+1)^3
        for kappa in (0.1, 0.25, 0.4):
            c = 2.0 * kappa + 1.0
            assert cusp_log_moment(1.0, kappa) == pytest.approx(
                2.0 / c**3, rel=1e-12
            )

    @pytest.mark.parametrize("x", [0.3, 0.5, 1.7])
    def test_matches_quadrature(self, x):
        kappa = 0.25
        ref, _ = quad(
            lambda s: s ** (2.0 * kappa) * math.log(s) ** 2, 0.0, x,
            epsabs=1e-13, epsrel=1e-13,
        )
        assert cusp_log_moment(x, kappa) == pytest.approx(ref, rel=1e-10)

    def test_zero_limit(self):
        assert cusp_log_moment(0.0, 0.25) == 0.0


class TestFisherInfoKappa:
    def test_reference_value(self):
        assert fisher_info_kappa(1.0, 0.5, 1.0, 0.25) == pytest.approx(
            FISHER_REF, rel=1e-10
        )

    def test_symmetric_in_location(self):
        assert fisher_info_kappa(1.0, 0.3, 1.0, 0.25) == pytest.approx(
            fisher_info_kappa(1.0, 0.7, 1.0, 0.25), rel=1e-12
        )

    def test_amplitude_scales_quadratically(self):
        assert fisher_info_kappa(3.0, 0.5, 1.0, 0.25) == pytest.approx(
            9.0 * FISHER_REF, rel=1e-9
        )

    def test_matches_quadrature(self):
        a, rho, T, kappa = 1.0, 0.4, 1.0, 0.3

        def integrand(t):
            d = abs(t - rho)
            return d ** (2.0 * kappa) * math.log(d) ** 2

        ref, _ = quad(integrand, 0.0, T, points=[rho], epsabs=1e-13, limit=200)
        assert fisher_info_kappa(a, rho, T, kappa) == pytest.approx(ref, rel=1e-9)

    def test_rejects_location_outside_horizon(self):
        with pytest.raises(DomainError):
            fisher_info_kappa(1.0, 1.5, 1.0, 0.25)


class TestFbmCovariance:
    def test_wiener_special_case_closed_form(self):
        # H = 1/2 double-sided fBm is a two-sided Wiener process:
        # cov = min(|u|,|v|) for same-sign arguments and 0 otherwise
        grid = np.linspace(-2.0, 2.0, 65)
        u, v = np.meshgrid(grid, grid)
        got = fbm_covariance(u, v, 0.5)
        same_sign = (u * v) > 0
        expected = np.where(same_sign, np.minimum(np.abs(u), np.abs(v)), 0.0)
        np.testing.assert_allclose(got, expected, atol=1e-15)

    def test_variance_on_diagonal(self):
        u = np.array([-1.5, 0.5, 2.0])
        np.testing.assert_allclose(
            fbm_covariance(u, u, 0.75), np.abs(u) ** 1.5, rtol=1e-12
        )

    def test_zero_at_origin(self):
        assert fbm_covariance(0.0, 1.0, 0.75) == 0.0

    @pytest.mark.parametrize("hurst", [0.0, 1.0, 1.2])
    def test_rejects_bad_hurst(self, hurst):
        with pytest.raises(DomainError):
            fbm_covariance(0.5, 0.5, hurst)

    @given(
        u=st.floats(-3.0, 3.0),
        v=st.floats(-3.0, 3.0),
        hurst=st.floats(0.51, 0.99),
    )
    @settings(max_examples=80, deadline=None)
    def test_cauchy_schwarz(self, u, v, hurst):
        cov = float(fbm_covariance(u, v, hurst))
        bound = math.sqrt(
            float(fbm_covariance(u, u, hurst)) * float(fbm_covariance(v, v, hurst))
        )
        assert cov <= bound + 1e-12


class TestWindowConfig:
    def test_nodes_symmetric_with_zero_center(self):
        w = WindowConfig(U=2.0, du=0.5)
        nodes = w.nodes()
        assert w.node_count == 9
        assert nodes[w.half_count] == 0.0
        np.testing.assert_allclose(nodes, -nodes[::-1])

    @pytest.mark.parametrize("U,du", [(0.0, 0.1), (1.0, 0.0), (1.0, 2.0)])
    def test_rejects_bad_geometry(self, U, du):
        with pytest.raises(DomainError):
            WindowConfig(U=U, du=du)

    def test_default_xi_window_scaling(self):
        # doubling Gamma shrinks the window by 2^{-1/H}
        h = 0.75
        w1 = default_xi_window(1.0, h)
        w2 = default_xi_window(4.0, h)
        assert w2.U / w1.U == pytest.approx(2.0 ** (-1.0 / h), rel=1e-12)
        assert w1.du == pytest.approx(w1.U / 2000.0, rel=1e-12)

    def test_default_zeta_window_scaling(self):
        h = 0.75
        w1 = default_zeta_window(1.0, 1.0, h)
        w2 = default_zeta_window(2.0, 1.0, h)
        r = zeta_scale(2.0, 1.0, h) / zeta_scale(1.0, 1.0, h)
        assert w2.U / w1.U == pytest.approx(r, rel=1e-12)


class TestZetaScale:
    def test_formula(self):
        noise, curv, h = 0.7, 1.9, 0.75
        assert zeta_scale(noise, curv, h) == pytest.approx(
            (2.0 * noise / curv) ** (1.0 / (2.0 - h)), rel=1e-12
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            zeta_scale(-1.0, 1.0, 0.75)
        with pytest.raises(DomainError):
            zeta_scale(1.0, 0.0, 0.75)


class TestSampleFbm:
    def test_origin_pinned_to_zero(self):
        path = sample_fbm(0.75, 2.0, 0.25, 3, replication_rng(0, 0))
        zero_idx = np.where(path.window.nodes() == 0.0)[0]
        assert zero_idx.size == 1
        assert path.values.shape == (3, path.window.node_count)
        assert np.all(path.values[:, zero_idx[0]] == 0.0)

    def test_reproducible(self):
        p1 = sample_fbm(0.75, 1.0, 0.25, 2, replication_rng(3, 1))
        p2 = sample_fbm(0.75, 1.0, 0.25, 2, replication_rng(3, 1))
        np.testing.assert_array_equal(p1.values, p2.values)

    def test_rejects_hurst_outside_range(self):
        with pytest.raises(DomainError):
            sample_fbm(0.4, 1.0, 0.25, 1, replication_rng(0, 0))
        with pytest.raises(DomainError):
            sample_fbm(1.0, 1.0, 0.25, 1, replication_rng(0, 0))

    def test_empirical_variance_matches_theory(self):
        rng = replication_rng(0, 42)
        hurst, U, du = 0.75, 2.0, 0.5
        draws = sample_fbm(hurst, U, du, 600, rng).values
        grid = WindowConfig(U=U, du=du).nodes()
        theory = np.abs(grid) ** (2.0 * hurst)
        observed = draws.var(axis=0, ddof=1)
        # variance of a sample variance of N gaussians is 2 sigma^4 / (N-1)
        se = theory * np.sqrt(2.0 / 599.0)
        mask = grid != 0.0
        assert np.all(np.abs(observed[mask] - theory[mask]) < 5.0 * se[mask])

    def test_wiener_case_has_independent_increments(self):
        rng = replication_rng(0, 43)
        draws = sample_fbm(0.5, 2.0, 0.5, 800, rng).values
        grid = WindowConfig(U=2.0, du=0.5).nodes()
        i1 = np.where(grid == 0.5)[0][0]
        i2 = np.where(grid == 1.0)[0][0]
        i3 = np.where(grid == 2.0)[0][0]
        inc_a = draws[:, i2] - draws[:, i1]
        inc_b = draws[:, i3] - draws[:, i2]
        corr = np.corrcoef(inc_a, inc_b)[0, 1]
        assert abs(corr) < 5.0 / math.sqrt(800)


class TestCirculantEmbedding:
    HURSTS = [0.5, 0.6, 0.75, 0.9, 0.95]
    # 7 and 12 are padded: their 14 and 24 increments are embedded as 15
    # and 25 (M = 28 and 48, not 26 and 46; 13 and 23 are slow lengths)
    COVARIANCE_HALF_COUNTS = [1, 2, 7, 12]

    @pytest.mark.parametrize("hurst", HURSTS)
    @pytest.mark.parametrize("half_count", COVARIANCE_HALF_COUNTS)
    def test_implied_covariance_is_exact(self, hurst, half_count):
        # the sampler is linear in its normals: pushing the standard basis
        # through it gives the rows A with path = normals @ A, so A.T @ A
        # is the covariance it produces
        window = WindowConfig(U=0.25 * half_count, du=0.25)
        scale = _embedding_scale(hurst, window)
        basis = np.eye(2 * scale.size)
        paths = _fbm_paths(scale, half_count, basis)
        real, imag = paths[0::2], paths[1::2]
        grid = window.nodes()
        exact = fbm_covariance(grid[:, None], grid[None, :], hurst)
        atol = 1e-10 * np.abs(exact).max()
        np.testing.assert_allclose(real.T @ real, exact, rtol=1e-10, atol=atol)
        np.testing.assert_allclose(imag.T @ imag, exact, rtol=1e-10, atol=atol)
        # real and imaginary parts are independent paths
        np.testing.assert_allclose(real.T @ imag, 0.0, atol=atol)

    @pytest.mark.parametrize("hurst", HURSTS)
    @pytest.mark.parametrize("half_count", [1, 2, 1000, 2000, 2047, 2048, 20000])
    def test_eigenvalues_positive_past_old_node_cap(self, hurst, half_count):
        # node counts 3 .. 40001, straddling 4096: no eigenvalue is
        # clipped, since _embedding_scale raises on any beyond round-off;
        # 2000 is the default window, embedded in 8000 = 2^6 * 5^3 rather
        # than the minimal 7998 = 2 * 3 * 31 * 43
        window = WindowConfig(U=0.01 * half_count, du=0.01)
        assert window.half_count == half_count
        scale = _embedding_scale(hurst, window)
        assert scale.size == 2 * next_fast_len(2 * half_count - 1)
        assert np.all(scale > 0.0)

    def test_covariance_cases_include_padded_embeddings(self):
        # the exact-covariance test checks both minimal and padded sizes
        padded = []
        for half_count in self.COVARIANCE_HALF_COUNTS:
            window = WindowConfig(U=0.25 * half_count, du=0.25)
            minimal = 2 * (2 * half_count - 1)
            size = _embedding_scale(0.75, window).size
            assert size >= minimal
            padded.append(size > minimal)
        assert padded == [False, False, True, True]

    def test_negative_eigenvalue_raises_instead_of_clipping(self, monkeypatch):
        # a negative tolerance turns every eigenvalue below the max into
        # "negative beyond round-off"
        monkeypatch.setattr(limit_laws, "EIGEN_RTOL", -1.0)
        with pytest.raises(NumericalDegeneracyError):
            sample_fbm(0.75, 1.0, 0.25, 1, replication_rng(0, 0))

    def test_rejects_hurst_outside_unit_interval(self):
        # one check, [1/2, 1), serves every sampler
        window = WindowConfig(U=1.0, du=0.25)
        for hurst in (0.4, 1.0):
            with pytest.raises(DomainError):
                sample_xi_batch(0.5, hurst, 4, replication_rng(0, 0), window=window)
            with pytest.raises(DomainError):
                sample_zeta_batch(0.7, 2.0, hurst, 4, replication_rng(0, 0),
                                  window=window)

    def test_large_window_samples_without_cap(self):
        window = WindowConfig(U=10.0, du=0.0005)
        assert window.node_count == 40001
        path = sample_fbm(0.75, window.U, window.du, 1, replication_rng(2, 0))
        assert path.values.shape == (1, 40001)
        assert path.values[0, window.half_count] == 0.0
        assert path.window.nodes()[window.half_count] == 0.0
        assert np.all(np.isfinite(path.values))


class TestRescaleFbm:
    def test_exact_scaling(self):
        path = sample_fbm(0.75, 1.0, 0.25, 2, replication_rng(1, 0))
        c = 3.0
        scaled = rescale_fbm(path, c)
        assert scaled.window == WindowConfig(U=3.0, du=0.75)
        np.testing.assert_allclose(
            scaled.window.nodes(), c * path.window.nodes(), rtol=1e-15
        )
        np.testing.assert_array_equal(scaled.values, c**0.75 * path.values)
        assert scaled.hurst == path.hurst

    def test_rejects_nonpositive_factor(self):
        path = sample_fbm(0.75, 1.0, 0.25, 1, replication_rng(1, 1))
        with pytest.raises(DomainError):
            rescale_fbm(path, 0.0)


def _path(values, hurst=0.75, U=2.0, du=0.125):
    """Paths with the given rows of values on the window ``[-U, U]``."""
    window = WindowConfig(U=U, du=du)
    return FbmPath(hurst=hurst, window=window, values=np.atleast_2d(values))


def _flat_path():
    return _path(np.zeros(WindowConfig(U=2.0, du=0.125).node_count))


class TestXiFromFbm:
    def test_flat_path_gives_zero(self):
        # with W identically 0 the field is -Gamma^2/2*|u|^{2H}, peaked at 0
        xi_hat, xi_tilde, flags = xi_from_fbm(_flat_path(), gamma_sq=0.5)
        assert xi_hat.shape == xi_tilde.shape == flags.shape == (1,)
        assert xi_hat[0] == 0.0
        assert xi_tilde[0] == pytest.approx(0.0, abs=1e-12)
        assert not flags[0]

    def test_argmax_tie_breaks_toward_smaller_u(self):
        grid = WindowConfig(U=1.0, du=0.5).nodes()
        hurst = 0.75
        # craft values so the field is exactly equal at u = -0.5 and +0.5
        comp = 0.5 * np.abs(grid) ** (2.0 * hurst)
        values = np.where(np.abs(grid) == 0.5, comp + 1.0, comp)
        xi_hat, _, _ = xi_from_fbm(_path(values, hurst, 1.0, 0.5), gamma_sq=1.0)
        assert xi_hat[0] == -0.5

    def test_edge_flag_set_for_boundary_argmax(self):
        grid = WindowConfig(U=2.0, du=0.125).nodes()
        ramp = np.linspace(0.0, 100.0, grid.size)
        xi_hat, _, flags = xi_from_fbm(_path(ramp), gamma_sq=1e-6)
        assert xi_hat[0] == grid[-1]
        assert flags[0]

    def test_rejects_nonpositive_gamma_sq(self):
        with pytest.raises(DomainError):
            xi_from_fbm(_flat_path(), gamma_sq=0.0)

    def test_degenerate_normalization_raises(self):
        values = np.zeros((2, WindowConfig(U=2.0, du=0.125).node_count))
        values[1, 3] = np.nan
        with pytest.raises(NumericalDegeneracyError):
            xi_from_fbm(_path(values), gamma_sq=0.5)

    @pytest.mark.parametrize("hurst", [0.5, 0.75, 0.95])
    def test_mean_matches_trapezoid_reference(self, hurst):
        paths = sample_fbm(hurst, 2.0, 0.125, 7, replication_rng(4, 1))
        _, xi_tilde, _ = xi_from_fbm(paths, gamma_sq=0.5)
        u = paths.window.nodes()
        ln_z = math.sqrt(0.5) * paths.values - 0.25 * np.abs(u) ** (2.0 * hurst)
        z = np.exp(ln_z - ln_z.max(axis=1, keepdims=True))
        expected = np.trapezoid(u * z, u, axis=1) / np.trapezoid(z, u, axis=1)
        np.testing.assert_allclose(xi_tilde, expected, rtol=1e-13, atol=0.0)

    def test_block_reduces_like_single_rows(self):
        paths = sample_fbm(0.75, 2.0, 0.125, 5, replication_rng(4, 0))
        block = xi_from_fbm(paths, gamma_sq=0.5)
        for i in range(5):
            row = xi_from_fbm(_path(paths.values[i]), gamma_sq=0.5)
            for whole, single in zip(block, row):
                assert whole[i] == single[0]


class TestZetaFromFbm:
    def test_flat_path_gives_zero(self):
        zeta, flags = zeta_from_fbm(_flat_path(), noise_scale=0.7, curvature=2.0)
        assert zeta.shape == flags.shape == (1,)
        assert zeta[0] == 0.0
        assert not flags[0]

    def test_rejects_bad_constants(self):
        with pytest.raises(DomainError):
            zeta_from_fbm(_flat_path(), noise_scale=0.0, curvature=1.0)
        with pytest.raises(DomainError):
            zeta_from_fbm(_flat_path(), noise_scale=1.0, curvature=-1.0)


def _serial_paths(window, count, seed):
    """Reference for the batch samplers at H = 0.75, drawn serially.

    Returns the ``count`` paths ``_fbm_paths`` makes of one draw of all
    ``ceil(count/2)`` rows from ``default_rng(seed)``, and the next three
    normals of that generator.
    """
    rng = np.random.default_rng(seed)
    scale = _embedding_scale(0.75, window)
    normals = rng.standard_normal(((count + 1) // 2, 2 * scale.size))
    paths = _fbm_paths(scale, window.half_count, normals)[:count]
    return FbmPath(0.75, window, paths), rng.standard_normal(3)


class TestSamplers:
    WINDOW = WindowConfig(U=10.0, du=0.05)

    @pytest.mark.parametrize("law", ["xi", "zeta"])
    def test_batch_is_reduction_of_sample_fbm(self, law):
        # the same seed gives the same paths, blocks included, and one
        # reduction per law serves the batch and the per-path callers
        w, count = self.WINDOW, FBM_BLOCK + 3
        paths = sample_fbm(0.75, w.U, w.du, count, np.random.default_rng(11))
        if law == "xi":
            batch = sample_xi_batch(0.5, 0.75, count, np.random.default_rng(11), w)
            direct = xi_from_fbm(paths, 0.5)
        else:
            batch = sample_zeta_batch(0.7, 2.0, 0.75, count,
                                      np.random.default_rng(11), w)
            direct = zeta_from_fbm(paths, 0.7, 2.0)
        for a, b in zip(batch, direct):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("block", [FBM_BLOCK, 2])
    def test_batch_normalization_checked(self, monkeypatch, block):
        # at block 2 the helper is drawing the next block when the first
        # reduction raises; it is joined before the error propagates
        def nan_paths(scale, half_count, normals):
            return np.full((2 * normals.shape[0], 2 * half_count + 1), np.nan)

        monkeypatch.setattr(limit_laws, "_fbm_paths", nan_paths)
        monkeypatch.setattr(limit_laws, "FBM_BLOCK", block)
        threads = threading.active_count()
        with pytest.raises(NumericalDegeneracyError):
            sample_xi_batch(0.5, 0.75, 8, replication_rng(5, 3), window=self.WINDOW)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("law", ["xi", "zeta"])
    def test_stop_set_before_the_batch_draws_nothing(self, law):
        stop, rng = threading.Event(), np.random.default_rng(13)
        stop.set()
        threads = threading.active_count()
        with pytest.raises(StoppedError, match="after 0 of 8 paths"):
            if law == "xi":
                sample_xi_batch(0.5, 0.75, 8, rng, window=self.WINDOW, stop=stop)
            else:
                sample_zeta_batch(0.7, 2.0, 0.75, 8, rng, window=self.WINDOW, stop=stop)
        assert threading.active_count() == threads
        np.testing.assert_array_equal(
            rng.standard_normal(3), np.random.default_rng(13).standard_normal(3))

    def test_stop_set_during_the_batch_ends_it_at_the_next_block(self, monkeypatch):
        stop, transformed = threading.Event(), []
        real = limit_laws._fbm_paths

        def paths_then_stop(*args):
            transformed.append(1)
            if len(transformed) == 2:
                stop.set()
            return real(*args)

        monkeypatch.setattr(limit_laws, "_fbm_paths", paths_then_stop)
        with pytest.raises(StoppedError, match=f"after {2 * FBM_BLOCK} of"):
            sample_xi_batch(0.5, 0.75, 10 * FBM_BLOCK, replication_rng(5, 4),
                            window=self.WINDOW, stop=stop)
        assert len(transformed) == 2

    @pytest.mark.parametrize("block", [FBM_BLOCK, 2, 6])
    @pytest.mark.parametrize("blocks,extra", [(0, 1), (0, 3), (1, 1), (2, 1)])
    def test_pipeline_matches_serial_reference(self, monkeypatch, block, blocks, extra):
        # counts 1, 3, block + 1 and 2*block + 1: one serial draw of every
        # row, transformed at once, gives the batch bit for bit and leaves
        # the generator in the same state
        count = blocks * block + extra
        monkeypatch.setattr(limit_laws, "FBM_BLOCK", block)
        w = self.WINDOW
        ref, ref_next = _serial_paths(w, count, 12)
        draws = [
            (lambda rng: (sample_fbm(0.75, w.U, w.du, count, rng).values,),
             (ref.values,)),
            (lambda rng: sample_xi_batch(0.5, 0.75, count, rng, window=w),
             xi_from_fbm(ref, 0.5)),
            (lambda rng: sample_zeta_batch(0.7, 2.0, 0.75, count, rng, window=w),
             zeta_from_fbm(ref, 0.7, 2.0)),
        ]
        for draw, expected in draws:
            rng = np.random.default_rng(12)
            for got, want in zip(draw(rng), expected, strict=True):
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(rng.standard_normal(3), ref_next)

    def test_concurrent_batches_under_fast_switching(self, monkeypatch):
        # eight batches of eleven two-path blocks at once, each with its
        # own helper, switching threads every microsecond: a block read
        # before its helper filled it, or refilled while in use, would
        # differ from the serial reference
        monkeypatch.setattr(limit_laws, "FBM_BLOCK", 2)
        w, count = self.WINDOW, 21

        def batch(seed):
            rng = np.random.default_rng(seed)
            return sample_fbm(0.75, w.U, w.du, count, rng).values, rng.standard_normal(3)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = {seed: pool.submit(batch, seed) for seed in range(8)}
                results = {seed: f.result(timeout=60) for seed, f in futures.items()}
        finally:
            sys.setswitchinterval(interval)
        for seed, (values, after) in results.items():
            ref, ref_next = _serial_paths(w, count, seed)
            np.testing.assert_array_equal(values, ref.values)
            np.testing.assert_array_equal(after, ref_next)

    def test_default_window_batch_memory_is_bounded(self):
        # 2000 draws on the 4001-node default window: two buffers of
        # normals (one filled by the helper while the other is transformed
        # in place) and one block of paths live at a time, about 12 MiB at
        # FBM_BLOCK = 64; a sweep draws this beside its cells
        sample_xi_batch(GAMMA_SQ_REF, 0.75, 2, replication_rng(5, 6))
        tracemalloc.start()
        try:
            xi_hat, _, _ = sample_xi_batch(GAMMA_SQ_REF, 0.75, 2000,
                                           replication_rng(5, 6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert xi_hat.shape == (2000,)
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_one_rejected(self, count):
        w = self.WINDOW
        for draw in (
            lambda rng: sample_fbm(0.75, w.U, w.du, count, rng),
            lambda rng: sample_xi_batch(0.5, 0.75, count, rng, window=w),
            lambda rng: sample_zeta_batch(0.7, 2.0, 0.75, count, rng, window=w),
            lambda rng: sample_kappa_limit(FISHER_REF, count, rng),
        ):
            with pytest.raises(DomainError):
                draw(replication_rng(5, 4))

    @pytest.mark.parametrize("gamma_sq", [0.0, -1.0])
    def test_sample_xi_batch_rejects_nonpositive_gamma_sq(self, gamma_sq):
        # the default window is sized from gamma_sq, so it checks it first
        with pytest.raises(DomainError, match="gamma_sq"):
            sample_xi_batch(gamma_sq, 0.75, 4, replication_rng(5, 5))

    def test_sample_xi_batch_deterministic(self):
        a1 = sample_xi_batch(0.5, 0.75, 32, replication_rng(5, 0), window=self.WINDOW)
        a2 = sample_xi_batch(0.5, 0.75, 32, replication_rng(5, 0), window=self.WINDOW)
        np.testing.assert_array_equal(a1[0], a2[0])
        np.testing.assert_array_equal(a1[1], a2[1])
        np.testing.assert_array_equal(a1[2], a2[2])

    def test_sample_xi_batch_shapes_and_support(self):
        xi_hat, xi_tilde, flags = sample_xi_batch(
            0.5, 0.75, 64, replication_rng(5, 1), window=self.WINDOW
        )
        assert xi_hat.shape == xi_tilde.shape == flags.shape == (64,)
        assert flags.dtype == bool
        assert np.all(np.abs(xi_hat) <= self.WINDOW.U)
        assert np.all(np.abs(xi_tilde) <= self.WINDOW.U)

    def test_sample_zeta_batch_support(self):
        zeta, flags = sample_zeta_batch(
            0.7, 2.0, 0.75, 64, replication_rng(5, 2), window=self.WINDOW
        )
        assert zeta.shape == flags.shape == (64,)
        assert np.all(np.abs(zeta) <= self.WINDOW.U)

    @pytest.mark.parametrize("count", [1, 3, FBM_BLOCK + 1])
    def test_batches_of_odd_count(self, count):
        # odd counts leave the last real/imaginary pair half used
        w = self.WINDOW
        for draw in (
            lambda rng: sample_xi_batch(0.5, 0.75, count, rng, window=w),
            lambda rng: sample_zeta_batch(0.7, 2.0, 0.75, count, rng, window=w),
        ):
            first, again = draw(replication_rng(6, 0)), draw(replication_rng(6, 0))
            for a, b in zip(first, again):
                assert a.shape == (count,)
                np.testing.assert_array_equal(a, b)

    def test_sample_kappa_limit_variance(self):
        fisher = FISHER_REF
        draws = sample_kappa_limit(fisher, 20_000, replication_rng(9, 0))
        assert draws.shape == (20_000,)
        assert draws.var(ddof=1) == pytest.approx(1.0 / fisher, rel=0.05)
        assert abs(draws.mean()) < 4.0 / math.sqrt(20_000 * fisher)
        # the same stream as drawing Delta ~ N(0, I) and dividing by I
        delta = replication_rng(9, 0).normal(0.0, math.sqrt(fisher), 20_000)
        np.testing.assert_array_equal(draws, delta / fisher)

    def test_sample_kappa_limit_rejects_bad_fisher(self):
        with pytest.raises(DomainError):
            sample_kappa_limit(0.0, 10, replication_rng(9, 1))


def _yao_density(x):
    """Density of the argmax of ``W(u) - |u|/2``, two-sided Wiener ``W``.

    ``(3/2) e^|x| Phi(-3 sqrt|x| / 2) - (1/2) Phi(-sqrt|x| / 2)`` (Yao,
    Ann. Statist. 15, 1987); the first term in logs, where it is 0 * inf.
    """
    a = abs(x)
    s = math.sqrt(a)
    return 1.5 * math.exp(a + special.log_ndtr(-1.5 * s)) - 0.5 * special.ndtr(-0.5 * s)


def _yao_cdf(x):
    """CDF of ``_yao_density``, from its antiderivative in closed form.

    For ``x >= 0`` the upper tail is ``(5 + x)/2 Phi(-sqrt(x)/2) -
    sqrt(x) phi(sqrt(x)/2) - (3/2) e^x Phi(-3 sqrt(x)/2)``; the law is
    symmetric.
    """
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    s = np.sqrt(a)
    tail = (0.5 * (5.0 + a) * special.ndtr(-0.5 * s)
            - s * np.exp(-a / 8.0) / math.sqrt(2.0 * math.pi)
            - 1.5 * np.exp(a + special.log_ndtr(-1.5 * s)))
    return np.where(x >= 0.0, 1.0 - tail, tail)


class TestWienerAnchor:
    """At H = 1/2 and Gamma = 1 the xi laws are known in closed form, and so
    is the second moment of zeta_hat at curvature 4 (Chernoff's law)."""

    # the default window (U = 30, du = 0.015) truncates the law
    WINDOW = WindowConfig(U=60.0, du=0.015)
    XI_HAT_M2 = 26.0  # Terent'yev 1968; Ibragimov & Has'minskii 1981
    XI_TILDE_M2 = 16.0 * special.zeta(3)  # Rubin & Song, Ann. Statist. 23, 1995
    CHERNOFF_VAR = 0.26355964  # Groeneboom & Wellner, J. Comput. Graph. Statist. 10, 2001

    @pytest.mark.parametrize("x", [0.0, 0.5, 3.0, 20.0])
    def test_cdf_integrates_density(self, x):
        mass, _ = quad(_yao_density, 0.0, x, epsabs=1e-13)
        assert _yao_cdf(x) == pytest.approx(0.5 + mass, abs=1e-11)
        assert _yao_cdf(-x) == pytest.approx(0.5 - mass, abs=1e-11)

    def test_density_second_moment(self):
        m2, _ = quad(lambda x: x * x * _yao_density(x), 0.0, np.inf, epsabs=1e-10)
        assert 2.0 * m2 == pytest.approx(self.XI_HAT_M2, rel=1e-9)

    def test_xi_batch_matches_closed_forms(self):
        count = 20_000
        xi_hat, xi_tilde, _ = sample_xi_batch(
            1.0, 0.5, count, np.random.default_rng(1), window=self.WINDOW
        )
        assert stats.kstest(xi_hat, _yao_cdf).pvalue > 1e-3
        for draws, m2 in ((xi_hat, self.XI_HAT_M2), (xi_tilde, self.XI_TILDE_M2)):
            sq = draws * draws
            se = sq.std(ddof=1) / math.sqrt(count)
            assert abs(sq.mean() - m2) < 4.0 * se

    def test_zeta_batch_matches_chernoff(self):
        # argmax of W(u) - u**2: mean 0 and variance CHERNOFF_VAR
        count = 20_000
        zeta, _ = sample_zeta_batch(
            1.0, 4.0, 0.5, count, np.random.default_rng(0), window=WindowConfig(3.0, 0.0015)
        )
        assert abs(zeta.mean()) < 4.0 * zeta.std(ddof=1) / math.sqrt(count)
        sq = zeta * zeta
        se = sq.std(ddof=1) / math.sqrt(count)
        assert abs(sq.mean() - self.CHERNOFF_VAR) < 4.0 * se
