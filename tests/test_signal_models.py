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
    SmoothedCuspSignal,
    ThetaRampNuisance,
    TwoSidedCuspSignal,
    check_config,
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

    @pytest.mark.parametrize("sig", [
        CuspSignal(1.3, 0.25, 1.0, BOUNDS, CosineNuisance(0.5, 9.0)),
        TwoSidedCuspSignal(0.8, 1.6, 0.3, 1.0, BOUNDS, ThetaRampNuisance(1.5)),
        MultiCuspSignal(((1.0, 0.2), (0.6, 0.4)), 1.0, BOUNDS),
    ], ids=["cusp", "two_sided_cusp", "multi_cusp"])
    def test_value_is_kernel_of_offset_plus_nuisance(self, sig):
        # the contract the Bayes lattice reads: one kernel vector at theta=0
        t = np.linspace(0.0, 1.0, 11)
        kernel = sig.kernel(0.45, t)
        np.testing.assert_array_equal(kernel, sig.kernel(0.0, t - 0.45))
        if sig.nuisance is not None:
            kernel = kernel + sig.nuisance.value(0.45, t)
        np.testing.assert_array_equal(sig.value(0.45, t), kernel)
        assert is_location_signal(sig)


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
            "quadratic": {"c0": 0.0, "c1": 1.0, "c2": -1.0, "T": 1.0},
            "cosine": {"c0": 0.0, "c1": 1.0, "omega": 3.0, "T": 1.0},
            "smoothed_cusp": {"a": 1.0, "kappa": 0.25, "center": 0.5,
                              "delta": 0.05, "T": 1.0},
        }[family]
        sig = signal_from_config({"family": family, **params})
        assert isinstance(sig, cls)

    def test_unknown_family_lists_valid_names(self):
        with pytest.raises(ConfigError, match=r"valid: \['constant', 'cosine', 'cusp'"):
            signal_from_config({"family": "sawtooth"})

    def test_missing_parameter_names_it(self):
        with pytest.raises(ConfigError, match=r"missing \['kappa'\]"):
            signal_from_config({"family": "cusp", "a": 1.0, "T": 1.0,
                                "theta_bounds": [0.35, 0.65]})

    def test_ints_passed_on_as_floats(self):
        sig = signal_from_config({"family": "cusp", "a": 2, "kappa": 0.25, "T": 1,
                                  "theta_bounds": [0.35, 0.65],
                                  "nuisance": {"name": "constant", "level": 0}})
        values = (sig.a, sig.T, sig.nuisance.level, *sig.theta_bounds)
        assert [type(v) for v in values] == [float] * 5
        multi = signal_from_config({"family": "multi_cusp", "terms": [[1, 0.2]],
                                    "T": 1.0, "theta_bounds": [0.35, 0.65]})
        assert multi.terms == ((1.0, 0.2),) and type(multi.terms[0][0]) is float

    def test_constant_is_a_flat_quadratic(self):
        sig = signal_from_config({"family": "constant", "c": 1.5, "T": 2.0})
        assert sig == QuadraticSignal(c0=1.5, c1=0.0, c2=0.0, T=2.0)

    @pytest.mark.parametrize("name,params", [
        ("constant", {"level": 0.3}),
        ("cosine", {"amplitude": 0.1, "frequency": 2.0}),
        ("theta_ramp", {"gain": 0.5}),
    ])
    def test_every_nuisance_constructible(self, name, params):
        sig = signal_from_config({"family": "two_sided_cusp", "a": 1.0, "b": 2.0,
                                  "kappa": 0.25, "T": 1.0, "theta_bounds": [0.35, 0.65],
                                  "nuisance": {"name": name, **params}})
        assert sig.nuisance == {"constant": ConstantNuisance, "cosine": CosineNuisance,
                                "theta_ramp": ThetaRampNuisance}[name](**params)

    @pytest.mark.parametrize("change,named", [
        ({"a": "1.0"}, "a='1.0'"),
        ({"a": True}, "a=True"),
        ({"kappa": None}, "kappa=None"),
        ({"kappa": [0.25]}, "kappa=[0.25]"),
        ({"theta_bounds": [0.35]}, "theta_bounds=[0.35]"),
        ({"theta_bounds": "0.35,0.65"}, "theta_bounds='0.35,0.65'"),
        ({"theta_bounds": [0.35, "0.65"]}, "theta_bounds[1]='0.65'"),
        ({"typo": 3}, "unknown ['typo']"),
        ({"nuisance": None}, "nuisance config must be a mapping"),
        ({"nuisance": {"name": "constant", "level": "0.3"}}, "level='0.3'"),
        ({"nuisance": {"name": "constant", "level": False}}, "level=False"),
        ({"nuisance": {"name": "cosine", "amplitude": 0.1}}, "missing ['frequency']"),
        ({"nuisance": {"name": "constant", "level": 0.3, "gain": 1.0}},
         "unknown ['gain']"),
    ])
    def test_mistyped_or_unknown_parameter_named(self, change, named):
        block = {"family": "cusp", "a": 1.0, "kappa": 0.25, "T": 1.0,
                 "theta_bounds": [0.35, 0.65], **change}
        with pytest.raises(ConfigError) as info:
            signal_from_config(block)
        assert named in str(info.value)

    @pytest.mark.parametrize("terms,named", [
        ("1.0,0.2", "terms='1.0,0.2'"),
        ([1.0, 0.2], "terms[0]=1.0"),
        ([[1.0, 0.2], [1.0]], "terms[1]=[1.0]"),
        ([[1.0, 0.2], [1.0, "0.4"]], "terms[1][1]='0.4'"),
    ])
    def test_terms_must_be_number_pairs(self, terms, named):
        with pytest.raises(ConfigError) as info:
            signal_from_config({"family": "multi_cusp", "terms": terms, "T": 1.0,
                                "theta_bounds": [0.35, 0.65]})
        assert named in str(info.value)

    @pytest.mark.parametrize("family,key", [
        ("quadratic", "c0"), ("cosine", "omega"), ("smoothed_cusp", "delta"),
        ("constant", "c"),
    ])
    def test_string_number_rejected_in_every_family(self, family, key):
        params = {
            "quadratic": {"c0": 0.0, "c1": 1.0, "c2": -1.0, "T": 1.0},
            "cosine": {"c0": 0.0, "c1": 1.0, "omega": 3.0, "T": 1.0},
            "smoothed_cusp": {"a": 1.0, "kappa": 0.25, "center": 0.5,
                              "delta": 0.05, "T": 1.0},
            "constant": {"c": 1.0, "T": 1.0},
        }[family]
        with pytest.raises(ConfigError, match=f"{key}='1.5' must be a number"):
            signal_from_config({"family": family, **params, key: "1.5"})

    def test_unknown_nuisance_rejected(self):
        with pytest.raises(ConfigError, match="nuisance"):
            signal_from_config({
                "family": "cusp", "a": 1.0, "kappa": 0.25, "T": 1.0,
                "theta_bounds": [0.35, 0.65], "nuisance": {"name": "spline"},
            })

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError):
            signal_from_config(["cusp"])


class TestCheckConfig:
    """One row per kind of default: a value it takes, one it rejects, and
    the dotted name and kind the rejection must state."""

    @pytest.mark.parametrize("default,accepted,rejected,message", [
        (0.5, 2, True, "config=True must be a number"),
        (None, 0.3, "x", "config='x' must be a number or null"),
        ([0.05, 0.02], (0.05, 0.02, 1), [0.05, "0.02"],
         "config[1]='0.02' must be a number"),
        ((0.35, 0.65), [0, 1.0], [0.35], "config=[0.35] must be a list of 2 values"),
        ({"signal": {"terms": [(1.0, 0.2)]}},
         {"signal": {"terms": [[1, 0.2], (2, 0.4)], "other": "x"}, "extra": None},
         {"signal": {"terms": [[1.0, 0.2], [1.0, "0.4"]]}},
         "config.signal.terms[1][1]='0.4' must be a number"),
        ("xi", "zeta", 3, "config=3 must be a string"),
        (2000, 5, 2.5, "config=2.5 must be an integer"),
        (False, True, 1, "config=1 must be a boolean"),
    ], ids=["float", "None", "list", "pair", "mapping", "str", "int", "bool"])
    def test_rules(self, default, accepted, rejected, message):
        check_config(accepted, default)
        with pytest.raises(ConfigError) as info:
            check_config(rejected, default)
        assert str(info.value) == message


class TestNuisanceTerms:
    def test_constant(self):
        n = ConstantNuisance(level=0.3)
        np.testing.assert_allclose(n.value(0.5, np.zeros(3)), 0.3)

    def test_theta_ramp(self):
        n = ThetaRampNuisance(gain=2.0)
        t = np.array([0.0, 0.5, 1.0])
        np.testing.assert_allclose(n.value(0.4, t), 0.8 * t)
