"""Catalog of drift signals for small-noise observation models.

The observation model throughout the package is

.. math::

    dX_t = S(\\vartheta, t)\\,dt + \\varepsilon\\,dW_t,
    \\qquad X_0 = 0,\\ 0 \\le t \\le T,

where the location parameter :math:`\\vartheta` lives in an interval
``theta_bounds`` = :math:`(\\alpha, \\beta)` with
:math:`0 < \\alpha < \\beta < T`.  The catalog contains two kinds of
signals:

* location families, parametrized by :math:`\\vartheta`: a single cusp
  :math:`a|t-\\vartheta|^\\kappa + h(\\vartheta, t)` with
  :math:`\\kappa \\in (0, 1/2)`, sums of cusps sharing one location, a
  two-sided cusp with distinct amplitudes, and a signum step (evaluation
  only);
* fixed smooth signals of the time variable alone, used as the "real"
  model in misspecification studies.  These expose first and second
  time derivatives analytically.

Every concrete signal is an immutable dataclass, so instances can be
shared freely between replications and processes.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, DomainError

ArrayLike = Union[float, Sequence[float], np.ndarray]


# ---------------------------------------------------------------------------
# nuisance terms h(theta, t)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantNuisance:
    """Constant background ``h(theta, t) = level``."""

    level: float

    def value(self, theta: float, t: ArrayLike) -> np.ndarray:
        return np.full_like(np.asarray(t, dtype=float), self.level)


@dataclass(frozen=True)
class CosineNuisance:
    """Smooth oscillating background ``h(theta, t) = amplitude * cos(frequency * t)``."""

    amplitude: float
    frequency: float

    def value(self, theta: float, t: ArrayLike) -> np.ndarray:
        return self.amplitude * np.cos(self.frequency * np.asarray(t, dtype=float))


@dataclass(frozen=True)
class ThetaRampNuisance:
    """Location-coupled ramp ``h(theta, t) = gain * theta * t``.

    The theta-derivative ``gain * t`` is bounded on ``[0, T]``, as the
    smoothness contract for nuisance terms requires.
    """

    gain: float

    def value(self, theta: float, t: ArrayLike) -> np.ndarray:
        return self.gain * theta * np.asarray(t, dtype=float)


Nuisance = Union[ConstantNuisance, CosineNuisance, ThetaRampNuisance]


def _check_horizon(T: float) -> None:
    if not (T > 0.0 and math.isfinite(T)):
        raise DomainError(f"horizon T must be positive and finite, got {T!r}")


def _check_bounds(bounds: tuple[float, float], T: float) -> None:
    alpha, beta = bounds
    if not (0.0 < alpha < beta < T):
        raise DomainError(
            f"theta_bounds must satisfy 0 < alpha < beta < T, got {bounds!r} with T={T}"
        )


def _check_kappa(kappa: float) -> None:
    if not (0.0 < kappa < 0.5):
        raise DomainError(f"cusp exponent kappa must lie in (0, 1/2), got {kappa!r}")


def cusp_term(a: ArrayLike, theta: ArrayLike, kappa: ArrayLike, t: np.ndarray) -> np.ndarray:
    """``a*|t-theta|**kappa``; a column ``theta`` or ``kappa`` gives one row per candidate."""
    return a * np.abs(t - theta) ** kappa


# ---------------------------------------------------------------------------
# location families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CuspSignal:
    """Single cusp ``S(theta, t) = a*|t-theta|**kappa + h(theta, t)``.

    Parameters
    ----------
    a : float
        Amplitude, ``a > 0``.
    kappa : float
        Cusp exponent, ``kappa in (0, 1/2)``.  The singularity is mild
        enough that the signal stays continuous but steep enough that
        the Fisher information diverges at ``t = theta``.
    T : float
        Observation horizon.
    theta_bounds : (float, float)
        Open interval ``(alpha, beta)`` containing the admissible
        locations, with ``0 < alpha < beta < T``.
    nuisance : optional
        Smooth background term with bounded theta-derivative.
    """

    a: float
    kappa: float
    T: float
    theta_bounds: tuple[float, float]
    nuisance: Optional[Nuisance] = None

    def __post_init__(self) -> None:
        if not self.a > 0.0:
            raise DomainError(f"amplitude a must be positive, got {self.a!r}")
        _check_kappa(self.kappa)
        _check_horizon(self.T)
        _check_bounds(tuple(self.theta_bounds), self.T)
        object.__setattr__(self, "theta_bounds", tuple(self.theta_bounds))

    @property
    def kappa_eff(self) -> float:
        return self.kappa

    @property
    def hurst(self) -> float:
        """Self-similarity index H = kappa + 1/2 of the limit experiment."""
        return self.kappa + 0.5

    def value(self, theta: float, t: ArrayLike) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = cusp_term(self.a, theta, self.kappa, t)
        if self.nuisance is not None:
            out = out + self.nuisance.value(theta, t)
        return out


@dataclass(frozen=True)
class MultiCuspSignal:
    """Sum of cusps sharing one location, ``sum_l a_l*|t-theta|**kappa_l``.

    The smallest exponent dominates the local behaviour, so the
    effective exponent of the family is ``min(kappa_l)``.
    """

    terms: tuple[tuple[float, float], ...]
    T: float
    theta_bounds: tuple[float, float]

    def __post_init__(self) -> None:
        terms = tuple((float(a), float(k)) for a, k in self.terms)
        if not terms:
            raise DomainError("multi-cusp signal needs at least one (a, kappa) term")
        for a, k in terms:
            if not a > 0.0:
                raise DomainError(f"all amplitudes must be positive, got {a!r}")
            _check_kappa(k)
        object.__setattr__(self, "terms", terms)
        _check_horizon(self.T)
        _check_bounds(tuple(self.theta_bounds), self.T)
        object.__setattr__(self, "theta_bounds", tuple(self.theta_bounds))

    @property
    def kappa_eff(self) -> float:
        return min(k for _, k in self.terms)

    @property
    def hurst(self) -> float:
        return self.kappa_eff + 0.5

    def value(self, theta: float, t: ArrayLike) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return sum(cusp_term(a, theta, k, t) for a, k in self.terms)


@dataclass(frozen=True)
class TwoSidedCuspSignal:
    """Cusp with side-dependent amplitudes.

    ``S(theta, t) = a*|t-theta|**kappa`` for ``t < theta`` and
    ``b*|t-theta|**kappa`` for ``t >= theta``, plus an optional nuisance.
    With ``a == b`` this coincides with :class:`CuspSignal`.
    """

    a: float
    b: float
    kappa: float
    T: float
    theta_bounds: tuple[float, float]
    nuisance: Optional[Nuisance] = None

    def __post_init__(self) -> None:
        if not (self.a > 0.0 and self.b > 0.0):
            raise DomainError(
                f"both amplitudes must be positive, got a={self.a!r}, b={self.b!r}"
            )
        _check_kappa(self.kappa)
        _check_horizon(self.T)
        _check_bounds(tuple(self.theta_bounds), self.T)
        object.__setattr__(self, "theta_bounds", tuple(self.theta_bounds))

    @property
    def kappa_eff(self) -> float:
        return self.kappa

    @property
    def hurst(self) -> float:
        return self.kappa + 0.5

    def value(self, theta: float, t: ArrayLike) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = cusp_term(np.where(t < theta, self.a, self.b), theta, self.kappa, t)
        if self.nuisance is not None:
            out = out + self.nuisance.value(theta, t)
        return out


@dataclass(frozen=True)
class SignumSignal:
    """Discontinuous step ``S(theta, t) = a*sign(t-theta)``.

    Included for evaluation only; the estimation machinery in this
    package targets the continuous cusp regime.
    """

    a: float
    T: float
    theta_bounds: tuple[float, float]

    def __post_init__(self) -> None:
        if not self.a > 0.0:
            raise DomainError(f"amplitude a must be positive, got {self.a!r}")
        _check_horizon(self.T)
        _check_bounds(tuple(self.theta_bounds), self.T)
        object.__setattr__(self, "theta_bounds", tuple(self.theta_bounds))

    def value(self, theta: float, t: ArrayLike) -> np.ndarray:
        return self.a * np.sign(np.asarray(t, dtype=float) - theta)


LocationSignal = Union[CuspSignal, MultiCuspSignal, TwoSidedCuspSignal, SignumSignal]


# ---------------------------------------------------------------------------
# fixed smooth signals (misspecification targets)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticSignal:
    """Polynomial signal ``S(t) = c0 + c1*t + c2*t**2``."""

    c0: float
    c1: float
    c2: float
    T: float

    def __post_init__(self) -> None:
        _check_horizon(self.T)

    def value(self, t: ArrayLike) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return self.c0 + self.c1 * t + self.c2 * t * t

    def d1(self, t: ArrayLike) -> np.ndarray:
        return self.c1 + 2.0 * self.c2 * np.asarray(t, dtype=float)

    def d2(self, t: ArrayLike) -> np.ndarray:
        return np.full_like(np.asarray(t, dtype=float), 2.0 * self.c2)


@dataclass(frozen=True)
class CosineSignal:
    """Oscillating signal ``S(t) = c0 + c1*cos(omega*t)``."""

    c0: float
    c1: float
    omega: float
    T: float

    def __post_init__(self) -> None:
        _check_horizon(self.T)

    def value(self, t: ArrayLike) -> np.ndarray:
        return self.c0 + self.c1 * np.cos(self.omega * np.asarray(t, dtype=float))

    def d1(self, t: ArrayLike) -> np.ndarray:
        return -self.c1 * self.omega * np.sin(self.omega * np.asarray(t, dtype=float))

    def d2(self, t: ArrayLike) -> np.ndarray:
        w = self.omega
        return -self.c1 * w * w * np.cos(w * np.asarray(t, dtype=float))


@dataclass(frozen=True)
class SmoothedCuspSignal:
    """Twice differentiable regularization of a cusp.

    ``S(t) = a*(delta**2 + (t-center)**2)**(kappa/2)``; as ``delta -> 0``
    the profile approaches ``a*|t-center|**kappa`` while staying smooth,
    which makes it the canonical "real" signal for misspecification
    studies against the exact cusp family.
    """

    a: float
    kappa: float
    center: float
    delta: float
    T: float

    def __post_init__(self) -> None:
        if not self.a > 0.0:
            raise DomainError(f"amplitude a must be positive, got {self.a!r}")
        _check_kappa(self.kappa)
        if not self.delta > 0.0:
            raise DomainError(f"smoothing width delta must be positive, got {self.delta!r}")
        _check_horizon(self.T)
        if not (0.0 <= self.center <= self.T):
            raise DomainError(
                f"center must lie in [0, T], got {self.center!r} with T={self.T}"
            )

    def value(self, t: ArrayLike) -> np.ndarray:
        s = np.asarray(t, dtype=float) - self.center
        return self.a * (self.delta**2 + s * s) ** (self.kappa / 2.0)

    def d1(self, t: ArrayLike) -> np.ndarray:
        s = np.asarray(t, dtype=float) - self.center
        return self.a * self.kappa * s * (self.delta**2 + s * s) ** (self.kappa / 2.0 - 1.0)

    def d2(self, t: ArrayLike) -> np.ndarray:
        s = np.asarray(t, dtype=float) - self.center
        q = self.delta**2 + s * s
        return self.a * self.kappa * q ** (self.kappa / 2.0 - 2.0) * (
            self.delta**2 + (self.kappa - 1.0) * s * s
        )


SmoothSignal = Union[QuadraticSignal, CosineSignal, SmoothedCuspSignal]
Signal = Union[LocationSignal, SmoothSignal]


def is_location_signal(signal: Signal) -> bool:
    """True when the signal depends on a location parameter theta."""
    return isinstance(
        signal, (CuspSignal, MultiCuspSignal, TwoSidedCuspSignal, SignumSignal)
    )


# ---------------------------------------------------------------------------
# evaluation entry points
# ---------------------------------------------------------------------------

def _check_theta(signal: LocationSignal, theta: float) -> None:
    alpha, beta = signal.theta_bounds
    if not (alpha <= theta <= beta):
        raise DomainError(
            f"theta={theta!r} outside theta_bounds [{alpha}, {beta}]"
        )


def _check_times(signal: Signal, t: np.ndarray) -> None:
    if t.size and (t.min() < 0.0 or t.max() > signal.T):
        raise DomainError(
            f"evaluation times must lie in [0, {signal.T}], got range "
            f"[{t.min()}, {t.max()}]"
        )


def eval_signal(signal: Signal, theta: Optional[float], t: ArrayLike) -> np.ndarray:
    """Evaluate a catalog signal at times ``t``.

    For location families ``theta`` is required and must lie inside the
    signal's ``theta_bounds``; fixed smooth signals ignore it (pass
    ``None``).  Times outside ``[0, T]`` raise :class:`DomainError`.
    """
    arr = np.asarray(t, dtype=float)
    _check_times(signal, np.atleast_1d(arr))
    if is_location_signal(signal):
        if theta is None:
            raise DomainError("location signals require a theta value")
        _check_theta(signal, float(theta))
        return signal.value(float(theta), arr)
    return signal.value(arr)


# ---------------------------------------------------------------------------
# construction from configuration dictionaries
# ---------------------------------------------------------------------------

def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}={value!r} must be a number")
    return float(value)


def _pair(value, where: str) -> tuple[float, float]:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ConfigError(f"{where}={value!r} must be a pair of numbers")
    return tuple(_number(v, f"{where}[{i}]") for i, v in enumerate(value))


def _pairs(value, where: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where}={value!r} must be a list of number pairs")
    return tuple(_pair(v, f"{where}[{i}]") for i, v in enumerate(value))


#: How a parameter of each name is checked and converted; any other
#: parameter is a number.
_PARAMETERS = {
    "theta_bounds": _pair,
    "terms": _pairs,
    "nuisance": lambda value, where: from_config(_NUISANCES, value, "nuisance"),
}


def from_config(table: dict, block, kind: str, key: str = "name", default=None):
    """Build ``table[block[key]]`` from the block's other keys.

    The keys must be the constructor's parameter names, all but those
    with a default required.  ``theta_bounds`` is a pair of numbers,
    ``terms`` a list of number pairs, ``nuisance`` a nuisance block, and
    every other parameter a number (not a bool), passed on as a float.
    An unknown name, or an unknown, missing or mistyped parameter, raises
    ``ConfigError`` naming it.
    """
    if not isinstance(block, dict):
        raise ConfigError(
            f"{kind} config must be a mapping, got {type(block).__name__}"
        )
    params = dict(block)
    name = params.pop(key, default)
    if not (isinstance(name, str) and name in table):
        raise ConfigError(f"unknown {kind} {name!r}; valid: {sorted(table)}")
    make = table[name]
    names = inspect.signature(make).parameters
    unknown = sorted(set(params) - set(names))
    missing = [n for n, p in names.items() if p.default is p.empty and n not in params]
    if unknown or missing:
        raise ConfigError(
            f"{kind} {name!r} takes parameters {list(names)}; "
            f"got unknown {unknown}, missing {missing}"
        )
    where = f"{kind} {name!r} parameter "
    return make(**{
        n: _PARAMETERS.get(n, _number)(v, where + n) for n, v in params.items()
    })


_NUISANCES = {
    "constant": ConstantNuisance,
    "cosine": CosineNuisance,
    "theta_ramp": ThetaRampNuisance,
}

SIGNAL_FAMILIES = {
    "cusp": CuspSignal,
    "multi_cusp": MultiCuspSignal,
    "two_sided_cusp": TwoSidedCuspSignal,
    "signum": SignumSignal,
    "constant": lambda c, T: QuadraticSignal(c0=c, c1=0.0, c2=0.0, T=T),
    "quadratic": QuadraticSignal,
    "cosine": CosineSignal,
    "smoothed_cusp": SmoothedCuspSignal,
}


def signal_from_config(cfg: dict) -> Signal:
    """Build a signal from a ``{"family": ..., <parameters>}`` config block.

    The parameters are the family's constructor parameters, checked by
    ``from_config``; an unknown family raises ``ConfigError`` listing the
    valid ones.
    """
    return from_config(SIGNAL_FAMILIES, cfg, "signal family", key="family")
