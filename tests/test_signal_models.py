"""Tests for the drift-signal catalog."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cusplab.errors import ConfigError, DomainError
from cusplab.signal_models import (
    ConstantNuisance,
    CosineNuisance,
    CosineSignal,
    CuspSignal,
    MultiCuspSignal,
    QuadraticSignal,
    SignumSignal,
    SmoothedCuspSignal,
    ThetaRampNuisance,
    TwoSidedCuspSignal,
    eval_signal,
    is_location_signal,
    signal_from_config,
)

BOUNDS = (0.35, 0.65)


def _fd1(fn, t, h=1e-6):
    return (fn(t + h) - fn(t - h)) / (2.0 * h)


def _fd2(fn, t, h=1e-4):
    return (fn(t + h) + fn(t - h) - 2.0 * fn(t)) / (h * h)


class TestCuspSignal:
    def test_value_matches_formula(self):
        sig = CuspSignal(a=2.0, kappa=0.3, T=1.0, theta_bounds=BOUNDS)
        t = np.linspace(0.0, 1.0, 11)
        np.testing.assert_allclose(
            sig.value(0.5, t), 2.0 * np.abs(t - 0.5) ** 0.3, rtol=0, atol=0
        )

    def test_zero_at_cusp_location(self):
        sig = CuspSignal(a=1.0, kappa=0.25, T=1.0, theta_bounds=BOUNDS)
        assert sig.value(0.5, 0.5) == 0.0

    def test_nuisance_is_added(self):
        base = CuspSignal(a=1.0, kappa=0.25, T=1.0, theta_bounds=BOUNDS)
        shifted = CuspSignal(
            a=1.0, kappa=0.25, T=1.0, theta_bounds=BOUNDS,
            nuisance=ConstantNuisance(level=0.7),
        )
        t = np.linspace(0.0, 1.0, 7)
        np.testing.assert_allclose(
            shifted.value(0.4, t), base.value(0.4, t) + 0.7
        )

    def test_hurst_is_kappa_plus_half(self):
        sig = CuspSignal(a=1.0, kappa=0.2, T=1.0, theta_bounds=BOUNDS)
        assert sig.hurst == pytest.approx(0.7)
        assert sig.kappa_eff == 0.2

    @pytest.mark.parametrize("kappa", [0.0, 0.5, -0.1, 0.9])
    def test_rejects_kappa_outside_open_interval(self, kappa):
        with pytest.raises(DomainError):
            CuspSignal(a=1.0, kappa=kappa, T=1.0, theta_bounds=BOUNDS)

    def test_rejects_nonpositive_amplitude(self):
        with pytest.raises(DomainError):
            CuspSignal(a=0.0, kappa=0.25, T=1.0, theta_bounds=BOUNDS)

    @pytest.mark.parametrize(
        "bounds", [(0.0, 0.5), (0.5, 0.4), (0.2, 1.0), (0.2, 1.5)]
    )
    def test_theta_bounds_must_lie_strictly_inside_horizon(self, bounds):
        with pytest.raises(DomainError):
            CuspSignal(a=1.0, kappa=0.25, T=1.0, theta_bounds=bounds)

    def test_rejects_bad_horizon(self):
        with pytest.raises(DomainError):
            CuspSignal(a=1.0, kappa=0.25, T=-1.0, theta_bounds=BOUNDS)

    @given(
        theta=st.floats(0.36, 0.64),
        s=st.floats(0.0, 0.3),
        kappa=st.floats(0.01, 0.49),
    )
    @example(theta=0.5, s=1e-9, kappa=0.25)  # 0.5 -+ 1e-9 round unevenly
    @settings(max_examples=50, deadline=None)
    def test_symmetric_around_location(self, theta, s, kappa):
        # on multiples of 2**-30 the points theta -+ s and their distances
        # to theta are exact, so both sides see the same |t - theta|
        theta, s = round(theta * 2**30) / 2**30, round(s * 2**30) / 2**30
        sig = CuspSignal(a=1.0, kappa=kappa, T=1.0, theta_bounds=BOUNDS)
        left = float(sig.value(theta, theta - s))
        right = float(sig.value(theta, theta + s))
        assert left == right


class TestMultiCuspSignal:
    def test_value_is_sum_of_terms(self):
        sig = MultiCuspSignal(
            terms=((1.0, 0.2), (2.0, 0.4)), T=1.0, theta_bounds=BOUNDS
        )
        t = np.linspace(0.0, 1.0, 9)
        d = np.abs(t - 0.5)
        np.testing.assert_allclose(sig.value(0.5, t), d**0.2 + 2.0 * d**0.4)

    def test_effective_exponent_is_minimum(self):
        sig = MultiCuspSignal(
            terms=((1.0, 0.4), (1.0, 0.2), (1.0, 0.3)), T=1.0, theta_bounds=BOUNDS
        )
        assert sig.kappa_eff == 0.2
        assert sig.hurst == pytest.approx(0.7)

    def test_rejects_empty_terms(self):
        with pytest.raises(DomainError):
            MultiCuspSignal(terms=(), T=1.0, theta_bounds=BOUNDS)

    def test_rejects_bad_term(self):
        with pytest.raises(DomainError):
            MultiCuspSignal(terms=((1.0, 0.2), (-1.0, 0.3)), T=1.0, theta_bounds=BOUNDS)
        with pytest.raises(DomainError):
            MultiCuspSignal(terms=((1.0, 0.6),), T=1.0, theta_bounds=BOUNDS)


class TestTwoSidedCuspSignal:
    def test_equal_amplitudes_match_single_cusp(self):
        two = TwoSidedCuspSignal(a=1.5, b=1.5, kappa=0.3, T=1.0, theta_bounds=BOUNDS)
        one = CuspSignal(a=1.5, kappa=0.3, T=1.0, theta_bounds=BOUNDS)
        t = np.linspace(0.0, 1.0, 13)
        np.testing.assert_allclose(two.value(0.45, t), one.value(0.45, t))

    def test_side_dependent_amplitudes(self):
        sig = TwoSidedCuspSignal(a=1.0, b=3.0, kappa=0.25, T=1.0, theta_bounds=BOUNDS)
        assert float(sig.value(0.5, 0.4)) == pytest.approx(0.1**0.25)
        assert float(sig.value(0.5, 0.6)) == pytest.approx(3.0 * 0.1**0.25)

    def test_rejects_nonpositive_side(self):
        with pytest.raises(DomainError):
            TwoSidedCuspSignal(a=1.0, b=0.0, kappa=0.25, T=1.0, theta_bounds=BOUNDS)


class TestSignumSignal:
    def test_values_are_plus_minus_a(self):
        sig = SignumSignal(a=2.0, T=1.0, theta_bounds=BOUNDS)
        np.testing.assert_allclose(
            sig.value(0.5, np.array([0.2, 0.8])), np.array([-2.0, 2.0])
        )


class TestSmoothSignals:
    def test_quadratic_derivatives(self):
        sig = QuadraticSignal(c0=1.0, c1=-2.0, c2=3.0, T=1.0)
        t = np.linspace(0.1, 0.9, 5)
        np.testing.assert_allclose(sig.d1(t), _fd1(sig.value, t), rtol=1e-6)
        np.testing.assert_allclose(sig.d2(t), _fd2(sig.value, t), rtol=1e-5)

    def test_cosine_derivatives(self):
        sig = CosineSignal(c0=0.5, c1=1.2, omega=3.0, T=1.0)
        t = np.linspace(0.1, 0.9, 5)
        np.testing.assert_allclose(sig.d1(t), _fd1(sig.value, t), rtol=1e-6)
        np.testing.assert_allclose(sig.d2(t), _fd2(sig.value, t), rtol=1e-4)

    def test_smoothed_cusp_derivatives(self):
        sig = SmoothedCuspSignal(a=1.0, kappa=0.25, center=0.5, delta=0.05, T=1.0)
        t = np.linspace(0.1, 0.9, 7)
        np.testing.assert_allclose(sig.d1(t), _fd1(sig.value, t), rtol=1e-5, atol=1e-9)
        np.testing.assert_allclose(sig.d2(t), _fd2(sig.value, t), rtol=1e-3, atol=1e-6)

    def test_smoothed_cusp_approaches_cusp(self):
        cusp = CuspSignal(a=1.0, kappa=0.25, T=1.0, theta_bounds=BOUNDS)
        smooth = SmoothedCuspSignal(a=1.0, kappa=0.25, center=0.5, delta=1e-9, T=1.0)
        t = np.array([0.2, 0.4, 0.6, 0.9])
        np.testing.assert_allclose(smooth.value(t), cusp.value(0.5, t), rtol=1e-6)

    @given(s=st.floats(-0.5, 0.5), delta=st.floats(1e-4, 0.2))
    @settings(max_examples=50, deadline=None)
    def test_smoothed_cusp_dominates_exact_cusp(self, s, delta):
        sig = SmoothedCuspSignal(a=1.0, kappa=0.25, center=0.5, delta=delta, T=1.0)
        t = 0.5 + s
        assert float(sig.value(t)) >= abs(s) ** 0.25 - 1e-12

    def test_smoothed_cusp_rejects_bad_delta(self):
        with pytest.raises(DomainError):
            SmoothedCuspSignal(a=1.0, kappa=0.25, center=0.5, delta=0.0, T=1.0)

    def test_smoothed_cusp_rejects_center_outside_horizon(self):
        with pytest.raises(DomainError):
            SmoothedCuspSignal(a=1.0, kappa=0.25, center=1.5, delta=0.05, T=1.0)


class TestEvalSignal:
    def test_location_signal_requires_theta(self):
        sig = CuspSignal(a=1.0, kappa=0.25, T=1.0, theta_bounds=BOUNDS)
        with pytest.raises(DomainError):
            eval_signal(sig, None, 0.5)

    def test_theta_outside_bounds_rejected(self):
        sig = CuspSignal(a=1.0, kappa=0.25, T=1.0, theta_bounds=BOUNDS)
        with pytest.raises(DomainError):
            eval_signal(sig, 0.7, 0.5)

    def test_times_outside_horizon_rejected(self):
        sig = CuspSignal(a=1.0, kappa=0.25, T=1.0, theta_bounds=BOUNDS)
        with pytest.raises(DomainError):
            eval_signal(sig, 0.5, np.array([0.5, 1.2]))

    def test_smooth_signal_ignores_theta(self):
        sig = QuadraticSignal(c0=1.0, c1=0.0, c2=0.0, T=1.0)
        assert float(eval_signal(sig, None, 0.3)) == 1.0

    def test_is_location_signal(self):
        cusp = CuspSignal(a=1.0, kappa=0.25, T=1.0, theta_bounds=BOUNDS)
        quad = QuadraticSignal(c0=0.0, c1=1.0, c2=0.0, T=1.0)
        assert is_location_signal(cusp)
        assert not is_location_signal(quad)


class TestSignalFromConfig:
    def test_cusp_roundtrip(self):
        sig = signal_from_config({
            "family": "cusp", "a": 1.0, "kappa": 0.25, "T": 1.0,
            "theta_bounds": [0.35, 0.65],
        })
        assert isinstance(sig, CuspSignal)
        assert sig.theta_bounds == (0.35, 0.65)

    def test_cusp_with_nuisance(self):
        sig = signal_from_config({
            "family": "cusp", "a": 1.0, "kappa": 0.25, "T": 1.0,
            "theta_bounds": [0.35, 0.65],
            "nuisance": {"name": "cosine", "amplitude": 0.1, "frequency": 2.0},
        })
        assert isinstance(sig.nuisance, CosineNuisance)

    @pytest.mark.parametrize("family,cls", [
        ("multi_cusp", MultiCuspSignal),
        ("two_sided_cusp", TwoSidedCuspSignal),
        ("signum", SignumSignal),
        ("quadratic", QuadraticSignal),
        ("cosine", CosineSignal),
        ("smoothed_cusp", SmoothedCuspSignal),
    ])
    def test_all_families_constructible(self, family, cls):
        params = {
            "multi_cusp": {"terms": [[1.0, 0.2], [1.0, 0.4]],
                           "T": 1.0, "theta_bounds": [0.35, 0.65]},
            "two_sided_cusp": {"a": 1.0, "b": 2.0, "kappa": 0.25, "T": 1.0,
                               "theta_bounds": [0.35, 0.65]},
            "signum": {"a": 1.0, "T": 1.0, "theta_bounds": [0.35, 0.65]},
            "quadratic": {"c0": 0.0, "c1": 1.0, "c2": -1.0, "T": 1.0},
            "cosine": {"c0": 0.0, "c1": 1.0, "omega": 3.0, "T": 1.0},
            "smoothed_cusp": {"a": 1.0, "kappa": 0.25, "center": 0.5,
                              "delta": 0.05, "T": 1.0},
        }[family]
        sig = signal_from_config({"family": family, **params})
        assert isinstance(sig, cls)

    def test_unknown_family_lists_valid_names(self):
        with pytest.raises(ConfigError, match="valid families"):
            signal_from_config({"family": "sawtooth"})

    def test_missing_parameter_names_it(self):
        with pytest.raises(ConfigError, match="kappa"):
            signal_from_config({"family": "cusp", "a": 1.0, "T": 1.0,
                                "theta_bounds": [0.35, 0.65]})

    def test_unknown_nuisance_rejected(self):
        with pytest.raises(ConfigError, match="nuisance"):
            signal_from_config({
                "family": "cusp", "a": 1.0, "kappa": 0.25, "T": 1.0,
                "theta_bounds": [0.35, 0.65], "nuisance": {"name": "spline"},
            })

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError):
            signal_from_config(["cusp"])


class TestNuisanceTerms:
    def test_constant(self):
        n = ConstantNuisance(level=0.3)
        np.testing.assert_allclose(n.value(0.5, np.zeros(3)), 0.3)

    def test_theta_ramp(self):
        n = ThetaRampNuisance(gain=2.0)
        t = np.array([0.0, 0.5, 1.0])
        np.testing.assert_allclose(n.value(0.4, t), 0.8 * t)
