"""Analytic constants and limit-law samplers for the cusp estimation problem.

Two constants drive all asymptotic statements:

* ``gamma_squared(a, kappa)``, the squared noise scale

  .. math:: \\Gamma^2 = a^2 \\int_{\\mathbb R} (|v-1|^\\kappa - |v|^\\kappa)^2\\,dv,

* ``fisher_info_kappa(a, rho, T, kappa)``, the Fisher information of the
  exponent parameter in the regular sub-problem.

The limit variables are functionals of a double-sided fractional
Brownian motion :math:`W^H` with Hurst index ``H = kappa + 1/2``:

* ``xi_hat`` / ``xi_tilde``: argmax and normalized mean of
  ``Z(u) = exp(Gamma*W^H(u) - Gamma^2/2 * |u|^(2H))`` (location MLE and
  Bayes limits),
* ``zeta_hat``: argmax of ``exp(noise_scale*W^H(u) - curvature/4 * u^2)``
  (pseudo-MLE limit under misspecification; the noise scale is
  ``Gamma``, the standard deviation coefficient of the misspecified
  noise term),
* the Gaussian ``N(0, I^{-1})`` limit of the exponent estimate.

Paths are sampled exactly on a symmetric truncated grid by circulant
embedding of their fractional-Gaussian-noise increments (Davies & Harte,
Biometrika 74, 1987; Dietrich & Newsam, SIAM J. Sci. Comput. 18, 1997):
one FFT gives the embedding eigenvalues, one FFT per pair of paths maps
standard normals to increments, and a cumulative sum pinned at the
origin gives the path.  The cost is O(m log m) per path on any grid size
and nothing is cached.
The exponents ``2H`` and ``2*kappa + 1`` are the same number and are
used interchangeably.

Each limit law has one reduction of a block of paths, ``xi_from_fbm``
and ``zeta_from_fbm``; ``sample_fbm`` and the batch samplers draw paths
``FBM_BLOCK`` at a time from the same generator, so a batch sampler
gives exactly the reduction of ``sample_fbm`` paths drawn with the same
generator state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import integrate

from .errors import DomainError, NumericalDegeneracyError

__all__ = [
    "WindowConfig",
    "FbmPath",
    "gamma_squared",
    "fisher_info_kappa",
    "cusp_log_moment",
    "fbm_covariance",
    "sample_fbm",
    "rescale_fbm",
    "xi_from_fbm",
    "zeta_from_fbm",
    "sample_xi_batch",
    "sample_zeta_batch",
    "sample_kappa_limit",
    "zeta_scale",
    "default_xi_window",
    "default_zeta_window",
]

#: Paths generated and reduced together by the batch samplers; peak
#: memory is O(FBM_BLOCK * nodes) whatever the number of draws.
FBM_BLOCK = 256

#: Embedding eigenvalues below ``-EIGEN_RTOL * max`` are not round-off.
EIGEN_RTOL = 1e-12

#: Fraction of the window treated as "near the edge" for flagging.
EDGE_FRACTION = 0.9


# ---------------------------------------------------------------------------
# analytic constants
# ---------------------------------------------------------------------------

def _gamma_sq_tail(window: float, kappa: float) -> float:
    # Tail of int (|v-1|^k - |v|^k)^2 dv beyond +-window.  The odd-order
    # corrections cancel between the two sides; the series in 1/v leaves
    #   2 k^2 [ V^{2k-1}/(1-2k) + c4 V^{2k-3}/(3-2k) ],
    # and the second term is kept because the stated convergence budget
    # (V=50 vs V=200 within 1e-6 relative) is tighter than the leading
    # term alone can deliver.
    k = kappa
    c4 = (1.0 - k) ** 2 / 4.0 + (1.0 - k) * (2.0 - k) / 3.0
    lead = window ** (2.0 * k - 1.0) / (1.0 - 2.0 * k)
    nxt = c4 * window ** (2.0 * k - 3.0) / (3.0 - 2.0 * k)
    return 2.0 * k * k * (lead + nxt)


def gamma_squared(a: float, kappa: float, window: float = 100.0) -> float:
    """Squared noise scale of the cusp limit experiment.

    Parameters
    ----------
    a : float
        Cusp amplitude, ``a > 0``.
    kappa : float
        Cusp exponent in ``(0, 1/2)``; at ``kappa = 1/2`` the integral
        diverges.
    window : float
        Half-width ``V >= 50`` of the numerically integrated interval;
        the mass beyond it is added through an asymptotic tail
        correction, accurate well past the 1e-6 relative target.

    Returns
    -------
    float
        ``a**2 * integral((|v-1|**kappa - |v|**kappa)**2, v over R)``.
    """
    if not a > 0.0:
        raise DomainError(f"amplitude a must be positive, got {a!r}")
    if not (0.0 < kappa < 0.5):
        raise DomainError(
            f"kappa must lie in (0, 1/2), got {kappa!r} (integral diverges at 1/2)"
        )
    if not window >= 50.0:
        raise DomainError(f"window must be >= 50, got {window!r}")

    def integrand(v: float) -> float:
        return (abs(v - 1.0) ** kappa - abs(v) ** kappa) ** 2

    core, _ = integrate.quad(
        integrand,
        -window,
        window,
        points=[0.0, 1.0],
        limit=400,
        epsabs=0.0,
        epsrel=1e-11,
    )
    return a * a * (core + _gamma_sq_tail(window, kappa))


def cusp_log_moment(x: float, kappa: float) -> float:
    """Closed form of ``integral_0^x s**(2*kappa) * ln(s)**2 ds``.

    Obtained by integrating by parts twice; at ``x = 1`` it reduces to
    ``2/(2*kappa+1)**3``.
    """
    if x < 0.0:
        raise DomainError(f"upper limit must be nonnegative, got {x!r}")
    if x == 0.0:
        return 0.0
    c = 2.0 * kappa + 1.0
    lx = math.log(x)
    return x**c * (lx * lx / c - 2.0 * lx / c**2 + 2.0 / c**3)


def fisher_info_kappa(a: float, rho: float, T: float, kappa: float) -> float:
    """Fisher information of the cusp exponent at a known location.

    ``I(kappa) = a**2 * integral_0^T |t-rho|**(2*kappa) * ln(|t-rho|)**2 dt``,
    evaluated analytically by splitting at ``t = rho``.
    """
    if not a > 0.0:
        raise DomainError(f"amplitude a must be positive, got {a!r}")
    if not (0.0 < rho < T):
        raise DomainError(f"rho must lie in (0, T), got rho={rho!r}, T={T!r}")
    if not (0.0 < kappa < 0.5):
        raise DomainError(f"kappa must lie in (0, 1/2), got {kappa!r}")
    return a * a * (cusp_log_moment(rho, kappa) + cusp_log_moment(T - rho, kappa))


# ---------------------------------------------------------------------------
# fractional Brownian motion on a truncated symmetric grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowConfig:
    """Symmetric sampling window ``[-U, U]`` with grid step ``du``."""

    U: float
    du: float

    def __post_init__(self) -> None:
        if not (self.U > 0.0 and self.du > 0.0 and self.du <= self.U):
            raise DomainError(f"need 0 < du <= U, got U={self.U!r}, du={self.du!r}")

    @property
    def half_count(self) -> int:
        return int(round(self.U / self.du))

    @property
    def node_count(self) -> int:
        return 2 * self.half_count + 1

    def nodes(self) -> np.ndarray:
        m = self.half_count
        return self.du * np.arange(-m, m + 1)


@dataclass(frozen=True)
class FbmPath:
    """Double-sided fBm on ``window.nodes()``, one realization per row of ``values``."""

    hurst: float
    window: WindowConfig
    values: np.ndarray


def fbm_covariance(u, v, hurst: float):
    """Covariance ``(|u|^2H + |v|^2H - |u-v|^2H)/2`` of double-sided fBm."""
    if not (0.0 < hurst < 1.0):
        raise DomainError(f"hurst must lie in (0, 1), got {hurst!r}")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    h2 = 2.0 * hurst
    return 0.5 * (np.abs(u) ** h2 + np.abs(v) ** h2 - np.abs(u - v) ** h2)


def _embedding_scale(hurst: float, window: WindowConfig) -> np.ndarray:
    """``sqrt(lambda / M)`` of the minimal circulant embedding of the increments.

    The ``n = 2*half_count`` increments of ``W^H`` across the grid are
    fractional Gaussian noise with autocovariance
    ``gamma(k) = du^2H/2 * (|k+1|^2H - 2|k|^2H + |k-1|^2H)``.  Their
    minimal embedding is the symmetric circulant of size ``M = 2(n-1)``
    with first row ``gamma(0..n-1), gamma(n-2..1)``; its eigenvalues
    ``lambda`` are one FFT of that row.  They are nonnegative for fGn;
    a value negative beyond round-off raises instead of being clipped.
    """
    h2 = 2.0 * hurst
    k = np.arange(2 * window.half_count, dtype=float)
    acov = 0.5 * window.du**h2 * (
        (k + 1.0) ** h2 - 2.0 * k**h2 + np.abs(k - 1.0) ** h2
    )
    row = np.concatenate([acov, acov[-2:0:-1]])
    lam = np.fft.fft(row).real
    if lam.min() < -EIGEN_RTOL * lam.max():
        raise NumericalDegeneracyError(
            f"circulant embedding of fGn has eigenvalue {lam.min():.3e} "
            f"(max {lam.max():.3e}) for H={hurst}, {window}"
        )
    return np.sqrt(np.maximum(lam, 0.0) / row.size)


def _fbm_paths(scale: np.ndarray, half_count: int, normals: np.ndarray) -> np.ndarray:
    """Map standard normals of shape ``(r, 2M)`` to ``2r`` fBm paths.

    Each row is read as ``M`` complex normals ``z``; the real and the
    imaginary part of ``FFT(scale * z)`` are two independent fGn
    sequences.  Returns an array of shape ``(2r, 2*half_count + 1)``
    holding the real-part paths, then the imaginary-part paths, each
    pinned so that the value at the origin is exactly 0.
    """
    n = 2 * half_count
    noise = np.fft.fft(scale * normals.view(np.complex128), axis=1)[:, :n]
    rows = noise.shape[0]
    paths = np.empty((2 * rows, n + 1))
    paths[:, 0] = 0.0
    np.cumsum(noise.real, axis=1, out=paths[:rows, 1:])
    np.cumsum(noise.imag, axis=1, out=paths[rows:, 1:])
    paths -= paths[:, half_count : half_count + 1]
    return paths


def _reduce_fbm(
    hurst: float, window: WindowConfig, count: int, rng: np.random.Generator, reduce
) -> tuple:
    """``reduce`` over ``count`` paths drawn ``FBM_BLOCK`` at a time.

    ``reduce(FbmPath)`` maps a block of paths to a tuple of arrays with
    one row per path; the result holds those arrays for all ``count``
    paths.  The arguments are checked before anything is drawn.  A block
    of odd size drops the imaginary-part path of its last complex row.
    """
    if not (0.5 <= hurst < 1.0):
        raise DomainError(f"hurst must lie in [1/2, 1), got {hurst!r}")
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count!r}")
    scale = _embedding_scale(hurst, window)
    outputs = None
    for start in range(0, count, FBM_BLOCK):
        size = min(FBM_BLOCK, count - start)
        normals = rng.standard_normal(((size + 1) // 2, 2 * scale.size))
        paths = _fbm_paths(scale, window.half_count, normals)
        parts = reduce(FbmPath(hurst, window, paths[:size]))
        if outputs is None:
            outputs = tuple(np.empty((count, *p.shape[1:]), p.dtype) for p in parts)
        for out, part in zip(outputs, parts):
            out[start : start + size] = part
    return outputs


def sample_fbm(
    hurst: float, U: float, du: float, count: int, rng: np.random.Generator
) -> FbmPath:
    """Draw ``count`` double-sided fBm paths on the grid ``-U..U`` step ``du``.

    The exact circulant-embedding sampler of the batch samplers;
    ``W^H(0)`` is exactly 0 on every path.
    """
    window = WindowConfig(U=U, du=du)
    (values,) = _reduce_fbm(hurst, window, count, rng, lambda p: (p.values,))
    return FbmPath(hurst, window, values)


def rescale_fbm(path: FbmPath, c: float) -> FbmPath:
    """Exact self-similarity surrogate ``W^H(c*u) = c**H * w^H(u)``.

    Given paths on a window ``[-U, U]`` with step ``du``, returns the
    induced paths on ``[-c*U, c*U]`` with step ``c*du``; both represent
    the same underlying realization, which makes per-path scaling
    identities checkable without resampling.
    """
    if not c > 0.0:
        raise DomainError(f"scale factor must be positive, got {c!r}")
    return FbmPath(
        hurst=path.hurst,
        window=WindowConfig(U=c * path.window.U, du=c * path.window.du),
        values=c**path.hurst * path.values,
    )


# ---------------------------------------------------------------------------
# limit-law samples
# ---------------------------------------------------------------------------

def xi_from_fbm(path: FbmPath, gamma_sq: float):
    """``(xi_hat, xi_tilde, edge_flags)`` arrays, one entry per path.

    ``ln Z(u) = Gamma*W^H(u) - Gamma^2/2*|u|^(2H)``; the argmax breaks
    ties toward smaller u, the mean uses trapezoid weights on max-shifted
    exponentials.  A flag marks a path whose ``xi_hat`` or ``xi_tilde``
    lies beyond ``EDGE_FRACTION`` of the window, where truncation
    visibly affects the law.
    """
    if not gamma_sq > 0.0:
        raise DomainError(f"gamma_sq must be positive, got {gamma_sq!r}")
    gamma = math.sqrt(gamma_sq)
    u = path.window.nodes()
    ln_z = gamma * path.values - 0.5 * gamma_sq * np.abs(u) ** (2.0 * path.hurst)
    idx = np.argmax(ln_z, axis=1)
    xi_hat = u[idx]
    z = np.exp(ln_z - ln_z[np.arange(idx.size), idx][:, None])
    denom = np.trapezoid(z, u, axis=1)
    if not np.all(np.isfinite(denom) & (denom > 0.0)):
        raise NumericalDegeneracyError("degenerate limit-law normalization")
    xi_tilde = np.trapezoid(u * z, u, axis=1) / denom
    lim = EDGE_FRACTION * path.window.U
    return xi_hat, xi_tilde, (np.abs(xi_hat) > lim) | (np.abs(xi_tilde) > lim)


def zeta_from_fbm(path: FbmPath, noise_scale: float, curvature: float):
    """``(zeta_hat, edge_flags)`` arrays, one entry per path.

    ``zeta_hat`` is the argmax of ``exp(noise_scale*W^H(u) - curvature/4*u^2)``;
    a flag marks a path whose ``zeta_hat`` lies beyond ``EDGE_FRACTION``
    of the window.
    """
    if not noise_scale > 0.0:
        raise DomainError(f"noise_scale must be positive, got {noise_scale!r}")
    if not curvature > 0.0:
        raise DomainError(f"curvature must be positive, got {curvature!r}")
    u = path.window.nodes()
    zeta = u[np.argmax(noise_scale * path.values - 0.25 * curvature * u * u, axis=1)]
    return zeta, np.abs(zeta) > EDGE_FRACTION * path.window.U


def _scaled_window(scale: float) -> WindowConfig:
    """The default window: 30 scales either side, 2000 steps per side."""
    U = 30.0 * scale
    return WindowConfig(U=U, du=U / 2000.0)


def default_xi_window(gamma_sq: float, hurst: float) -> WindowConfig:
    """Window for xi sampling: U = 30 * Gamma^(-1/H), du = U/2000.

    The limit variable has scale ``Gamma^(-1/H)``, so the window covers
    thirty times its scale; empirically the edge-flag rate stays far
    below 0.1%.
    """
    if not gamma_sq > 0.0:
        raise DomainError(f"gamma_sq must be positive, got {gamma_sq!r}")
    return _scaled_window(gamma_sq ** (-0.5 / hurst))


def zeta_scale(noise_scale: float, curvature: float, hurst: float) -> float:
    """Scale ``r = (2*noise_scale/curvature)**(1/(2-H))`` of zeta_hat.

    Substituting ``u = r*v`` and using fBm self-similarity
    ``W^H(r*v) = r**H * w^H(v)`` turns the exponent into
    ``noise_scale*r**H * (w^H(v) - v**2/2)`` exactly when
    ``r**(2-H) = 2*noise_scale/curvature``.
    """
    if not (noise_scale > 0.0 and curvature > 0.0):
        raise DomainError("noise_scale and curvature must be positive")
    return (2.0 * noise_scale / curvature) ** (1.0 / (2.0 - hurst))


def default_zeta_window(noise_scale: float, curvature: float, hurst: float) -> WindowConfig:
    """Window for zeta sampling: U = 30 * ``zeta_scale``, du = U/2000."""
    return _scaled_window(zeta_scale(noise_scale, curvature, hurst))


def sample_xi_batch(
    gamma_sq: float,
    hurst: float,
    count: int,
    rng: np.random.Generator,
    window: Optional[WindowConfig] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw ``count`` xi pairs: ``(xi_hat, xi_tilde, edge_flags)`` arrays.

    One generator drives the whole batch, so a fixed seed reproduces it
    bit for bit; paths are generated and reduced ``FBM_BLOCK`` at a time.
    """
    if window is None:
        window = default_xi_window(gamma_sq, hurst)
    return _reduce_fbm(hurst, window, count, rng, lambda p: xi_from_fbm(p, gamma_sq))


def sample_zeta_batch(
    noise_scale: float,
    curvature: float,
    hurst: float,
    count: int,
    rng: np.random.Generator,
    window: Optional[WindowConfig] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` zeta_hat values: ``(zeta_hat, edge_flags)`` arrays."""
    if window is None:
        window = default_zeta_window(noise_scale, curvature, hurst)
    return _reduce_fbm(
        hurst, window, count, rng, lambda p: zeta_from_fbm(p, noise_scale, curvature)
    )


def sample_kappa_limit(fisher: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` draws of the exponent limit Delta/I with Delta~N(0, I).

    The quadratic exponent ``v*Delta - v**2*I/2`` peaks at ``v = Delta/I``
    analytically, so the argmax is drawn directly as ``N(0, 1/I)``.
    """
    if not fisher > 0.0:
        raise DomainError(f"fisher information must be positive, got {fisher!r}")
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count!r}")
    return rng.normal(0.0, math.sqrt(fisher), count) / fisher
