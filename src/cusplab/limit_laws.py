"""Analytic constants and limit-law samplers for the cusp estimation problem.

Two constants drive all asymptotic statements:

* ``gamma_squared(a, kappa)``, the squared noise scale

  .. math:: \\Gamma^2 = a^2 \\int_{\\mathbb R} (|v-1|^\\kappa - |v|^\\kappa)^2\\,dv,

* ``fisher_info_kappa(a, rho, T, kappa)``, the Fisher information of the
  exponent parameter in the regular sub-problem.

Both are closed forms: ``Gamma^2`` by Plancherel with the Fourier
transform of ``|v|**kappa``, ``I(kappa)`` by integration by parts.

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
one FFT gives the embedding eigenvalues, one FFT per row of complex
normals maps it to the increments of two paths, and a cumulative sum
pinned at the origin gives each path.  The embedding is padded to an
FFT-friendly length, which keeps it exact (Wood & Chan, J. Comput.
Graph. Statist. 3, 1994), so the cost is O(m log m) per path with a
small constant on any grid size.  Nothing is cached: each batch builds
its eigenvalues and two reused buffers of normals, one filled by a
helper thread while the other is transformed (``_reduce_fbm``).
The exponents ``2H`` and ``2*kappa + 1`` are the same number and are
used interchangeably.

Each limit law has one reduction of a block of paths, ``xi_from_fbm``
and ``zeta_from_fbm``; ``sample_fbm`` and the batch samplers generate
paths ``FBM_BLOCK`` at a time from the same serial stream of normals,
so a batch sampler gives exactly the reduction of ``sample_fbm`` paths
drawn with the same generator state, whatever the block size.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import fft, special

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
#: memory is O(FBM_BLOCK * nodes) whatever the number of draws, and the
#: draws themselves do not depend on it.
FBM_BLOCK = 128

#: Embedding eigenvalues below ``-EIGEN_RTOL * max`` are not round-off.
EIGEN_RTOL = 1e-12

#: Fraction of the window treated as "near the edge" for flagging.
EDGE_FRACTION = 0.9


# ---------------------------------------------------------------------------
# analytic constants
# ---------------------------------------------------------------------------

def gamma_squared(a: float, kappa: float) -> float:
    """Squared noise scale of the cusp limit experiment.

    Parameters
    ----------
    a : float
        Cusp amplitude, ``a > 0``.
    kappa : float
        Cusp exponent in ``(0, 1/2)``; at ``kappa = 1/2`` the integral
        diverges.

    Returns
    -------
    float
        ``a**2 * integral((|v-1|**kappa - |v|**kappa)**2, v over R)``,
        in the closed form
        ``a**2 * 2*(1 - cos(pi*kappa)) * B(kappa+1, kappa+1) / cos(pi*kappa)``
        (Plancherel with the Fourier transform of ``|v|**kappa``).
    """
    if not a > 0.0:
        raise DomainError(f"amplitude a must be positive, got {a!r}")
    if not (0.0 < kappa < 0.5):
        raise DomainError(
            f"kappa must lie in (0, 1/2), got {kappa!r} (integral diverges at 1/2)"
        )
    c = math.cos(math.pi * kappa)
    beta = float(special.beta(kappa + 1.0, kappa + 1.0))
    return a * a * 2.0 * (1.0 - c) * beta / c


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
    """``sqrt(lambda / M)`` of a circulant embedding of the increments.

    The ``n = 2*half_count`` increments of ``W^H`` across the grid are
    fractional Gaussian noise with autocovariance
    ``gamma(k) = du^2H/2 * (|k+1|^2H - 2|k|^2H + |k-1|^2H)``.  They are
    the first ``n`` of ``n' = next_fast_len(n-1) + 1 >= n`` increments,
    whose minimal embedding is the symmetric circulant of size
    ``M = 2(n'-1)``, a fast FFT length, with first row
    ``gamma(0..n'-1), gamma(n'-2..1)``; its eigenvalues ``lambda`` are one
    FFT of that row.  They are nonnegative for fGn at any size; a value
    negative beyond round-off raises instead of being clipped.
    """
    h2 = 2.0 * hurst
    k = np.arange(fft.next_fast_len(2 * window.half_count - 1) + 1, dtype=float)
    acov = 0.5 * window.du**h2 * (
        (k + 1.0) ** h2 - 2.0 * k**h2 + np.abs(k - 1.0) ** h2
    )
    row = np.concatenate([acov, acov[-2:0:-1]])
    lam = fft.fft(row).real
    if lam.min() < -EIGEN_RTOL * lam.max():
        raise NumericalDegeneracyError(
            f"circulant embedding of fGn has eigenvalue {lam.min():.3e} "
            f"(max {lam.max():.3e}) for H={hurst}, {window}"
        )
    return np.sqrt(np.maximum(lam, 0.0) / row.size)


def _fbm_paths(scale: np.ndarray, half_count: int, normals: np.ndarray) -> np.ndarray:
    """Map standard normals of shape ``(r, 2M)`` to ``2r`` fBm paths.

    Each row is read as ``M`` complex normals ``z``; the real and the
    imaginary part of the first ``n = 2*half_count`` entries of
    ``FFT(scale * z)`` are two independent fGn sequences.  ``normals``
    is consumed: ``z`` is scaled and transformed in place.  Returns an
    array of shape ``(2r, n + 1)`` whose paths ``2i`` and ``2i+1`` are
    the real-part and the imaginary-part path of row ``i``, each pinned
    so that the value at the origin is exactly 0.
    """
    n = 2 * half_count
    z = normals.view(np.complex128)
    z *= scale
    noise = fft.fft(z, axis=1, overwrite_x=True)[:, :n]
    paths = np.empty((2 * noise.shape[0], n + 1))
    paths[:, 0] = 0.0
    np.cumsum(noise.real, axis=1, out=paths[0::2, 1:])
    np.cumsum(noise.imag, axis=1, out=paths[1::2, 1:])
    # a copy of the origin column: an operand that overlaps the output
    # would make numpy buffer the whole subtraction
    paths -= paths[:, half_count, None].copy()
    return paths


def _reduce_fbm(
    hurst: float, window: WindowConfig, count: int, rng: np.random.Generator, reduce
) -> tuple:
    """``reduce`` over ``count`` paths, generated ``FBM_BLOCK`` at a time.

    ``reduce(FbmPath)`` maps a block of paths to a tuple of arrays with
    one row per path; the result holds those arrays for all ``count``
    paths.  The arguments are checked before anything is drawn.

    The batch runs as a two-stage pipeline: one helper thread draws the
    normals of block ``k+1`` into one of two reused buffers while the
    calling thread transforms and reduces block ``k`` from the other.
    Only the helper touches ``rng``, one block after another and nothing
    past the last, so the batch consumes the ``ceil(count/2)`` rows of
    normals a serial draw would and leaves ``rng`` where that draw does.
    Paths ``2r`` and ``2r+1`` are the two paths of row ``r`` (see
    ``_fbm_paths``), so the result does not depend on ``FBM_BLOCK``; an
    odd ``count`` drops the imaginary-part path of the last row.  The
    helper is joined before the call returns or raises; after a raise
    the state of ``rng`` is unspecified.
    """
    if not (0.5 <= hurst < 1.0):
        raise DomainError(f"hurst must lie in [1/2, 1), got {hurst!r}")
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count!r}")
    scale = _embedding_scale(hurst, window)
    starts = range(0, count, FBM_BLOCK)
    sizes = [min(FBM_BLOCK, count - start) for start in starts]
    buffers = [np.empty(((sizes[0] + 1) // 2, 2 * scale.size)) for _ in sizes[:2]]

    def draw(k: int) -> np.ndarray:
        return rng.standard_normal(out=buffers[k % 2][: (sizes[k] + 1) // 2])

    outputs = None
    with ThreadPoolExecutor(max_workers=1) as helper:
        drawn = helper.submit(draw, 0)
        for k, (start, size) in enumerate(zip(starts, sizes)):
            normals = drawn.result()
            if k + 1 < len(sizes):
                # the other buffer held block k-1, which is consumed
                drawn = helper.submit(draw, k + 1)
            paths = _fbm_paths(scale, window.half_count, normals)[:size]
            parts = reduce(FbmPath(hurst, window, paths))
            # dropped once used, so two blocks of paths are never held at once
            del paths
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
    ties toward smaller u, the mean uses trapezoid weights
    ``du*[1/2, 1, ..., 1, 1/2]`` on max-shifted exponentials, each sum a
    row-by-row ``einsum`` rather than a BLAS product, so that a row
    reduces alike in any block and at any thread count.  A flag marks a
    path whose ``xi_hat`` or ``xi_tilde`` lies beyond ``EDGE_FRACTION``
    of the window, where truncation visibly affects the law.
    """
    if not gamma_sq > 0.0:
        raise DomainError(f"gamma_sq must be positive, got {gamma_sq!r}")
    gamma = math.sqrt(gamma_sq)
    u = path.window.nodes()
    ln_z = gamma * path.values
    ln_z -= 0.5 * gamma_sq * np.abs(u) ** (2.0 * path.hurst)
    idx = np.argmax(ln_z, axis=1)
    xi_hat = u[idx]
    ln_z -= ln_z[np.arange(idx.size), idx][:, None]
    z = np.exp(ln_z, out=ln_z)
    weights = np.full(u.size, path.window.du)
    weights[[0, -1]] *= 0.5
    denom = np.einsum("ij,j->i", z, weights)
    if not np.all(np.isfinite(denom) & (denom > 0.0)):
        raise NumericalDegeneracyError("degenerate limit-law normalization")
    xi_tilde = np.einsum("ij,j->i", z, u * weights) / denom
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
    field = noise_scale * path.values
    field -= 0.25 * curvature * u * u
    zeta = u[np.argmax(field, axis=1)]
    return zeta, np.abs(zeta) > EDGE_FRACTION * path.window.U


def _scaled_window(scale: float) -> WindowConfig:
    """The default window: 30 scales either side, 2000 steps per side."""
    U = 30.0 * scale
    return WindowConfig(U=U, du=U / 2000.0)


def default_xi_window(gamma_sq: float, hurst: float) -> WindowConfig:
    """Window for xi sampling: U = 30 * Gamma^(-1/H), du = U/2000.

    The limit variable has scale ``Gamma^(-1/H)``, so the window covers
    thirty times its scale.  Measured edge-flag rates (``a = 1``, 2e4
    draws each): 1e-4 at kappa 0.05 and 0 at kappa 0.15, 0.25 and 0.35.
    At ``H = 1/2``, which the sampler accepts, they were 1.3e-3 to 1.8e-3:
    the window truncates that law (exact ``P(|xi_hat| > 27)`` is 2.9e-3).
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
    bit for bit; paths are generated and reduced ``FBM_BLOCK`` at a time
    (``_reduce_fbm``).
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
