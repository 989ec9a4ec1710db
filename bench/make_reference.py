"""Write ``reference.npz``: independent reference values for the limit-laws workload.

Run from the repository root (takes about a minute, numpy/scipy only):

    python3 bench/make_reference.py

For each exponent kappa of the workload it stores

* the constants ``gamma_sq`` and ``fisher_kappa`` by direct quadrature,
* the pseudo-true location ``theta_hat`` and the curvature of the L2 gap
  for the smoothed-cusp misspecification, by bounded minimization and a
  central second difference of the quadrature gap,
* sorted reference samples of ``xi_hat``, ``xi_tilde`` and ``zeta_hat``
  on the same truncated windows the program uses by default
  (``U = 30 * scale``, ``du = U / 2000``), drawn by circulant embedding
  of fractional Gaussian noise (Davies & Harte 1987), a different exact
  sampler from the program's dense Cholesky factor.
"""

from __future__ import annotations

import math
import os

import numpy as np
from scipy import integrate, optimize

from workloads import LIMIT_KAPPAS, MISSPEC_SIGNAL

DRAWS = 20_000
KEEP = 4_000
HALF_NODES = 2000
SEED = 20_260_917
BATCH = 500


def gamma_squared(a: float, kappa: float) -> float:
    f = lambda v: (abs(v - 1.0) ** kappa - abs(v) ** kappa) ** 2
    pieces = [(-np.inf, -1.0), (-1.0, 0.0), (0.0, 1.0), (1.0, 2.0), (2.0, np.inf)]
    return a * a * sum(
        integrate.quad(f, lo, hi, limit=500, epsabs=0.0, epsrel=1e-10)[0]
        for lo, hi in pieces)


def fisher_kappa(a: float, rho: float, T: float, kappa: float) -> float:
    m = lambda x: integrate.quad(
        lambda s: s ** (2.0 * kappa) * math.log(s) ** 2, 0.0, x,
        limit=500, epsabs=0.0, epsrel=1e-12)[0]
    return a * a * (m(rho) + m(T - rho))


def misspec_solution(kappa: float) -> tuple[float, float]:
    """Minimizer and curvature of ``int (a|t-theta|^k - S(t))^2 dt``."""
    p = MISSPEC_SIGNAL
    a, center, delta, T = p["a"], p["center"], p["delta"], p["T"]
    real = lambda t: a * (delta**2 + (t - center) ** 2) ** (kappa / 2.0)

    def gap(theta: float) -> float:
        # a^2 |t-theta|^(2k) exactly, S^2 by plain quadrature, and the
        # kinked cross term with the algebraic weight |t-theta|^k (QAWS)
        cusp_sq = a * a * (theta ** (2 * kappa + 1) + (T - theta) ** (2 * kappa + 1)) / (
            2 * kappa + 1)
        real_sq = integrate.quad(lambda t: real(t) ** 2, 0.0, T, points=[center],
                                 epsabs=0.0, epsrel=1e-13, limit=500)[0]
        cross = sum(
            integrate.quad(real, lo, hi, weight="alg", wvar=wvar,
                           epsabs=0.0, epsrel=1e-13, limit=500)[0]
            for lo, hi, wvar in ((0.0, theta, (0.0, kappa)), (theta, T, (kappa, 0.0))))
        return cusp_sq - 2.0 * a * cross + real_sq

    lo, hi = p["theta_bounds"]
    theta = optimize.minimize_scalar(gap, bounds=(lo, hi), method="bounded",
                                     options={"xatol": 1e-10}).x
    h = 1e-3
    curvature = (gap(theta + h) + gap(theta - h) - 2.0 * gap(theta)) / (h * h)
    return float(theta), float(curvature)


def fbm_paths(hurst: float, du: float, count: int, rng) -> np.ndarray:
    """Double-sided fBm on ``du * (-HALF_NODES..HALF_NODES)``, pinned at 0."""
    n = 2 * HALF_NODES
    k = np.arange(n + 1, dtype=float)
    h2 = 2.0 * hurst
    gamma = 0.5 * du**h2 * ((k + 1) ** h2 - 2.0 * k**h2 + np.abs(k - 1) ** h2)
    circ = np.concatenate([gamma, gamma[-2:0:-1]])
    lam = np.fft.fft(circ).real
    if lam.min() < -1e-12 * lam.max():
        raise ArithmeticError("circulant embedding is not nonnegative")
    scale = np.sqrt(np.clip(lam, 0.0, None) / (2 * n))
    pairs = (count + 1) // 2
    z = rng.standard_normal((pairs, 2 * n)) + 1j * rng.standard_normal((pairs, 2 * n))
    w = np.fft.fft(scale * z, axis=1)
    noise = np.concatenate([w.real[:, :n], w.imag[:, :n]])[:count]
    paths = np.zeros((count, n + 1))
    np.cumsum(noise, axis=1, out=paths[:, 1:])
    return paths - paths[:, HALF_NODES:HALF_NODES + 1]


def sample_batch(hurst, U, count, rng, score):
    du = U / HALF_NODES
    u = du * np.arange(-HALF_NODES, HALF_NODES + 1)
    outs = []
    for start in range(0, count, BATCH):
        paths = fbm_paths(hurst, du, min(BATCH, count - start), rng)
        outs.append(score(u, paths))
    return [np.concatenate(parts) for parts in zip(*outs)]


def main() -> None:
    rng = np.random.default_rng(SEED)
    a = MISSPEC_SIGNAL["a"]
    data: dict[str, np.ndarray] = {"kappas": np.array(LIMIT_KAPPAS)}
    for kappa in LIMIT_KAPPAS:
        hurst = kappa + 0.5
        g2 = gamma_squared(a, kappa)
        fisher = fisher_kappa(a, 0.5, 1.0, kappa)
        theta_hat, curv = misspec_solution(kappa)
        gamma = math.sqrt(g2)
        h2 = 2.0 * hurst

        def xi_score(u, w):
            ln_z = gamma * w - 0.5 * g2 * np.abs(u) ** h2
            idx = np.argmax(ln_z, axis=1)
            z = np.exp(ln_z - ln_z[np.arange(len(w)), idx][:, None])
            tilde = np.trapezoid(u * z, u, axis=1) / np.trapezoid(z, u, axis=1)
            return u[idx], tilde

        def zeta_score(u, w):
            return (u[np.argmax(gamma * w - 0.25 * curv * u * u, axis=1)],)

        xi_hat, xi_tilde = sample_batch(
            hurst, 30.0 * g2 ** (-0.5 / hurst), DRAWS, rng, xi_score)
        zeta_u = 30.0 * (2.0 * gamma / curv) ** (1.0 / (2.0 - hurst))
        (zeta,) = sample_batch(hurst, zeta_u, DRAWS, rng, zeta_score)
        tag = f"{kappa:.2f}"
        data[f"gamma_sq_{tag}"] = np.array(g2)
        data[f"fisher_kappa_{tag}"] = np.array(fisher)
        data[f"theta_hat_{tag}"] = np.array(theta_hat)
        data[f"curvature_{tag}"] = np.array(curv)
        for name, values in (("xi_hat", xi_hat), ("xi_tilde", xi_tilde), ("zeta", zeta)):
            keep = rng.choice(values, KEEP, replace=False)
            data[f"{name}_{tag}"] = np.sort(keep).astype(np.float32)
        print(f"kappa={kappa}: gamma_sq={g2:.10g} fisher={fisher:.10g} "
              f"theta_hat={theta_hat:.10g} curvature={curv:.8g}")
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.npz")
    np.savez_compressed(path, **data)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
