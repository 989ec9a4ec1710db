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
helper thread while the other is transformed (``_reduce_fbm``); a batch
given a ``stop`` event ends at the next block once it is set.
The exponents ``2H`` and ``2*kappa + 1`` are the same number and are
used interchangeably.

The default windows are sized by the tail of their law.  In units of
its scale ``s`` a draw's argmax exceeds ``x`` with probability at most
``b * exp(-y/8) / y``, where ``y = x**(2H)`` for xi and ``x**(4-2H)``
for zeta: ``exp(-y/8)`` is the rate of ``P(W^H(x) > drift(x))``, exact
for xi at ``H = 1/2`` (Yao, Ann. Statist. 15, 1987), and ``b`` is fitted
on 2e5 draws per H on windows wider than the rule's.  The half-width is
the least ``x`` at which the bound reaches ``TAIL_MASS = 1e-6``; the
step is ``WINDOW_STEP = 0.015`` scales at every H.

The module needs numpy alone: the transforms are ``numpy.fft``, the
fast lengths come from ``next_fast_len`` and the beta function of
``Gamma^2`` from ``math.gamma``.

Each limit law has one reduction of a block of paths, ``xi_from_fbm``
and ``zeta_from_fbm``; ``sample_fbm`` and the batch samplers generate
paths ``FBM_BLOCK`` at a time from the same serial stream of normals,
so a batch sampler gives exactly the reduction of ``sample_fbm`` paths
drawn with the same generator state, whatever the block size.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, NumericalDegeneracyError, StoppedError

__all__ = [
    "WindowConfig",
    "FbmPath",
    "next_fast_len",
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
#: draws themselves do not depend on it.  64 keeps a 4001-node batch near
#: 12 MiB (tracemalloc) and a default-window batch at H = 0.75 (2323
#: nodes) near 7 MiB, small enough to run beside a sweep's cells.
FBM_BLOCK = 64

#: Embedding eigenvalues below ``-EIGEN_RTOL * max`` are not round-off.
EIGEN_RTOL = 1e-12

#: Fraction of the window treated as "near the edge" for flagging.
EDGE_FRACTION = 0.9

#: Tail mass ``p*`` a default window leaves beyond its edge.
TAIL_MASS = 1e-6

#: Grid step of a default window, in units of its law's scale.
WINDOW_STEP = 0.015


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
    # B(k+1, k+1) = Gamma(k+1)**2 / Gamma(2k+2), in the order of Cephes'
    # beta (scipy.special.beta): within 4 ulp of it at kappa 0.05, 0.1,
    # ..., 0.45, and equal to it at 0.15, 0.25 and 0.35
    g = math.gamma(kappa + 1.0)
    beta = g / math.gamma(2.0 * kappa + 2.0) * g
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

def next_fast_len(target: int, real: bool = False) -> int:
    """The least length ``>= target`` with no prime factor above 11.

    With ``real`` the factors are 2, 3 and 5 only.  These are the lengths
    numpy's pocketfft transforms fastest, complex and real respectively;
    the result equals ``scipy.fft.next_fast_len(target, real)``.
    """
    if target < 1:
        raise DomainError(f"target must be >= 1, got {target!r}")
    primes = (2, 3, 5) if real else (2, 3, 5, 7, 11)
    n = target
    while True:
        rest = n
        for p in primes:
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


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
    FFT of that row, taken as the real FFT of the half row mirrored (the
    row is symmetric, so its spectrum is too).  They are nonnegative for
    fGn at any size; a value negative beyond round-off raises instead of
    being clipped.
    """
    h2 = 2.0 * hurst
    k = np.arange(next_fast_len(2 * window.half_count - 1) + 1, dtype=float)
    acov = 0.5 * window.du**h2 * (
        (k + 1.0) ** h2 - 2.0 * k**h2 + np.abs(k - 1.0) ** h2
    )
    row = np.concatenate([acov, acov[-2:0:-1]])
    half = np.fft.rfft(row).real
    lam = np.concatenate([half, half[-2:0:-1]])
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
    noise = np.fft.fft(z, axis=1, out=z)[:, :n]
    paths = np.empty((2 * noise.shape[0], n + 1))
    paths[:, 0] = 0.0
    np.cumsum(noise.real, axis=1, out=paths[0::2, 1:])
    np.cumsum(noise.imag, axis=1, out=paths[1::2, 1:])
    # a copy of the origin column: an operand that overlaps the output
    # would make numpy buffer the whole subtraction
    paths -= paths[:, half_count, None].copy()
    return paths


def _reduce_fbm(
    hurst: float, window: WindowConfig, count: int, rng: np.random.Generator, reduce,
    stop: Optional[threading.Event] = None,
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

    Once ``stop`` is set, the helper draws no further block and the
    calling thread raises ``StoppedError`` before it transforms the next
    one, so a stop takes effect within about one block.
    """
    if not (0.5 <= hurst < 1.0):
        raise DomainError(f"hurst must lie in [1/2, 1), got {hurst!r}")
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count!r}")
    scale = _embedding_scale(hurst, window)
    starts = range(0, count, FBM_BLOCK)
    sizes = [min(FBM_BLOCK, count - start) for start in starts]
    buffers = [np.empty(((sizes[0] + 1) // 2, 2 * scale.size)) for _ in sizes[:2]]

    if stop is None:
        stop = threading.Event()

    def draw(k: int) -> Optional[np.ndarray]:
        if stop.is_set():
            return None
        return rng.standard_normal(out=buffers[k % 2][: (sizes[k] + 1) // 2])

    outputs = None
    with ThreadPoolExecutor(max_workers=1) as helper:
        drawn = helper.submit(draw, 0)
        for k, (start, size) in enumerate(zip(starts, sizes)):
            normals = drawn.result()
            if stop.is_set():
                raise StoppedError(f"fBm batch stopped after {start} of {count} paths")
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


def _tail_window(scale: float, power: float, log_b: float) -> WindowConfig:
    """The window whose tail bound ``b * exp(-y/8) / y`` is ``TAIL_MASS``.

    ``y = (U/scale)**power``, so ``y`` is the root of
    ``y/8 + ln(y) = ln(b/TAIL_MASS)``; Newton steps from ``8 ln(b/TAIL_MASS)``
    reach it to round-off in four.  The step is ``WINDOW_STEP`` scales.
    """
    target = log_b - math.log(TAIL_MASS)
    y = 8.0 * target
    for _ in range(5):
        y -= (y / 8.0 + math.log(y) - target) / (0.125 + 1.0 / y)
    return WindowConfig(U=y ** (1.0 / power) * scale, du=WINDOW_STEP * scale)


def default_xi_window(gamma_sq: float, hurst: float) -> WindowConfig:
    """Window for xi sampling: ``P(|xi_hat| > U) <= TAIL_MASS``, ``du`` fixed in scales.

    In units of the scale ``s = Gamma^(-1/H)`` of the limit variable,
    ``P(|xi_hat| > x*s) <= b * exp(-y/8) / y`` with ``y = x**(2H)`` and
    ``ln b = 1.3 - 7*(H - 1/2)``.  ``U`` is the half-width at which the
    bound is ``TAIL_MASS`` and ``du = WINDOW_STEP * s``, so ``U/s`` falls
    with H: 85.35 at H = 1/2, 55.42 at 0.55, 28.46 at 0.65, 17.41 at
    0.75, 11.93 at 0.85 and 8.82 at 0.95 (30 at every H before).

    ``b`` lies above the largest ``P * exp(y/8) * y`` over the measured
    tail (10 to 1e-3 of the draws beyond ``y``) of 2e5 draws per H =
    0.55, 0.6, ..., 0.95 and 1e5 more at 0.55, 0.65, ..., 0.95, drawn at
    this step on windows of ``y = 120``: 2.57 at H = 0.55, 0.87 at 0.65,
    0.45 at 0.75, 0.22 at 0.85 and 0.09 at 0.95.  The product falls as
    ``y`` grows at every H, so the bound holds beyond the measured tail.
    At ``H = 1/2`` Yao's closed form gives 2.30 at its 1e-3 quantile and
    1.95 at ``y = 80``, and leaves 5.2e-7 of the mass of ``xi_hat``
    beyond the window.  At H = 0.75, 5e6 draws on a 22-scale window put
    none beyond it (largest 16.0 scales).
    """
    if not gamma_sq > 0.0:
        raise DomainError(f"gamma_sq must be positive, got {gamma_sq!r}")
    log_b = 1.3 - 7.0 * (hurst - 0.5)
    return _tail_window(gamma_sq ** (-0.5 / hurst), 2.0 * hurst, log_b)


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
    """Window for zeta sampling: ``P(|zeta_hat| > U) <= TAIL_MASS``, ``du`` fixed in scales.

    In units of ``r = zeta_scale(...)``,
    ``P(|zeta_hat| > x*r) <= b * exp(-y/8) / y`` with ``y = x**(4-2H)``
    and ``ln b = -1.9``.  ``U`` is the half-width at which the bound is
    ``TAIL_MASS`` and ``du = WINDOW_STEP * r``, so ``U/r`` grows with H:
    3.96 at H = 1/2, 4.62 at 0.65, 5.22 at 0.75, 6.03 at 0.85 and 7.15
    at 0.95 (30 at every H before).

    ``b`` lies above the largest ``P * exp(y/8) * y`` over the measured
    tail of 2e5 draws per H = 0.5, 0.55, ..., 0.95 and 2e5 more at 0.5,
    0.55, 0.65, ..., 0.95, drawn at this step on windows of ``y = 200``:
    0.141 at H = 0.55, 0.134 at 1/2 and 0.065 at 0.95, each at 1e-3 of
    the draws; the product falls at least 2.5 times from there to 5e-5.
    At H = 0.55, 6.4e6 draws on windows of 6.1 scales or more put one
    beyond the window's 4.16 scales (at 4.25).
    """
    return _tail_window(zeta_scale(noise_scale, curvature, hurst), 4.0 - 2.0 * hurst, -1.9)


def sample_xi_batch(
    gamma_sq: float,
    hurst: float,
    count: int,
    rng: np.random.Generator,
    window: Optional[WindowConfig] = None,
    stop: Optional[threading.Event] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw ``count`` xi pairs: ``(xi_hat, xi_tilde, edge_flags)`` arrays.

    One generator drives the whole batch, so a fixed seed reproduces it
    bit for bit; paths are generated and reduced ``FBM_BLOCK`` at a time
    (``_reduce_fbm``), which raises ``StoppedError`` soon after ``stop``
    is set.
    """
    if window is None:
        window = default_xi_window(gamma_sq, hurst)
    return _reduce_fbm(
        hurst, window, count, rng, lambda p: xi_from_fbm(p, gamma_sq), stop
    )


def sample_zeta_batch(
    noise_scale: float,
    curvature: float,
    hurst: float,
    count: int,
    rng: np.random.Generator,
    window: Optional[WindowConfig] = None,
    stop: Optional[threading.Event] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` zeta_hat values: ``(zeta_hat, edge_flags)`` arrays.

    Generated like ``sample_xi_batch``, with the same ``stop``.
    """
    if window is None:
        window = default_zeta_window(noise_scale, curvature, hurst)
    return _reduce_fbm(
        hurst, window, count, rng,
        lambda p: zeta_from_fbm(p, noise_scale, curvature), stop,
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
