"""Correctness checks that rescore cusplab's outputs without calling it.

Every check here uses numpy only.  Paths are regenerated from the same
splittable seed scheme the program uses (``SeedSequence([seed, rep])``),
drifts are built from their formula, and fields are the direct Ito sum

    ln V = (sum_i S_i dX_i - dt/2 * sum_i S_i**2) / eps**2

evaluated row by row with plain reductions (no matrix products), so a
fast path in the program is compared against an independent oracle.

The MLEs are nested grid searches: a coarse scan, then local scans that
shrink the step tenfold per level.  The check runs the same documented
search on the oracle field and counts an estimate as wrong when the
oracle search reaches a field value above the estimate's by more than
``SEARCH_TOLERANCE``.  A search that finds better points than the
documented one therefore passes; a field computed wrongly, or a search
that stops early or lands elsewhere, does not.  A plain scan of +-10
final steps around each estimate is kept as a diagnostic: it counts the
estimates that the nested search's last window left short of a better
point (one of about 700 checked MLEs when measured), which is the
search's documented approximation rather than an error.
"""

from __future__ import annotations

import math

import numpy as np

#: Field values are O(1e4) and compared at bit-identical grid points, so
#: a true difference is either 0 or far above double rounding.
SEARCH_TOLERANCE = 1e-6

#: Half-width of the diagnostic local scan, in final grid steps.
SCAN_STEPS = 10

#: A posterior mean is wrong when it differs from the benchmark's own
#: quadrature by more than this fraction of the rate eps**(1/H).  The
#: program's trapezoid on a rate/10 grid differs from the rate/20 one
#: here by at most ~0.013 rates in measurements.
BAYES_RATE_FRACTION = 0.1

#: Half-width (in rates) and step (fraction of a rate) of the own
#: posterior quadrature.
BAYES_HALF_WIDTH = 25.0
BAYES_STEP = 1.0 / 20.0

#: Significance of the two-sample KS check of limit-law batches; it runs
#: on nine batches per run, so a true law fails about once in 1e5 runs.
KS_ALPHA = 1e-6

#: The program's search settings (``SearchConfig`` defaults).
SHRINK = 10
SPAN = 20
STARTS = 3


def path_increments(drift: np.ndarray, dt: float, eps: float, seed: int, rep: int):
    """Euler increments ``S dt + eps sqrt(dt) Z`` of one replication."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(rep)]))
    return drift * dt + eps * math.sqrt(dt) * rng.standard_normal(drift.size)


def ito_field(drift_rows: np.ndarray, increments: np.ndarray, dt: float, eps: float):
    """Direct Ito-sum log-likelihood of each drift row."""
    drift_rows = np.atleast_2d(drift_rows)
    dot = np.sum(drift_rows * increments[None, :], axis=1)
    energy = np.sum(drift_rows * drift_rows, axis=1)
    return (dot - 0.5 * dt * energy) / (eps * eps)


def cusp_rows(a: float, kappa, thetas, t: np.ndarray) -> np.ndarray:
    """Rows ``a*|t - theta|**kappa`` for each (theta, kappa) pair."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    kappas = np.broadcast_to(np.asarray(kappa, dtype=float), thetas.shape)
    return a * np.abs(t[None, :] - thetas[:, None]) ** kappas[:, None]


def location_rate(eps: float, hurst: float) -> float:
    return eps ** (1.0 / hurst)


# ---------------------------------------------------------------------------
# the documented nested searches, on the oracle field
# ---------------------------------------------------------------------------

def coarse_nodes(lo: float, hi: float, rate: float) -> np.ndarray:
    """Coarse scan grid at twice the rate, at most a quarter of the range."""
    step = min(2.0 * rate, (hi - lo) / 4.0)
    return np.linspace(lo, hi, int(math.ceil((hi - lo) / step)) + 1)


def _window(center: float, step: float, lo: float, hi: float) -> np.ndarray:
    left, right = max(lo, center - SPAN * step), min(hi, center + SPAN * step)
    return np.linspace(left, right, max(2, int(round((right - left) / step)) + 1))


def _best(field_fn, grid: np.ndarray) -> tuple[float, float]:
    values = field_fn(grid)
    i = int(np.argmax(values))
    return float(grid[i]), float(values[i])


def location_search(field_fn, lo: float, hi: float, rate: float) -> tuple[float, float, float]:
    """Nested grid search for the argmax; returns (theta, value, final step)."""
    grid = coarse_nodes(lo, hi, rate)
    values = field_fn(grid)
    step = grid[1] - grid[0]
    picked: list[float] = []
    for i in np.argsort(values, kind="stable")[::-1]:
        if all(abs(grid[i] - other) >= 2.0 * step for other in picked):
            picked.append(float(grid[i]))
        if len(picked) == STARTS:
            break
    best = (math.nan, -math.inf, step)
    for theta in picked:
        cur, value = step, -math.inf
        while cur > rate / 50.0:
            cur /= SHRINK
            theta, value = _best(field_fn, _window(theta, cur, lo, hi))
        if value > best[1] or (value == best[1] and theta < best[0]):
            best = (theta, value, cur)
    return best


def joint_search(field_fn, spec: dict, eps: float) -> tuple[float, float, float, float, float]:
    """Alternating (location, exponent) search from the best coarse cells.

    ``field_fn(rhos, kappas)`` evaluates paired arrays.  Returns
    ``(rho, kappa, value, rho_step, kappa_step)``.
    """
    sig = spec["signal"]
    (alo, ahi), (klo, khi) = sig["theta_bounds"], sig["kappa_bounds"]
    rho_nodes = np.linspace(alo, ahi, 201)
    kappa_nodes = np.linspace(klo, khi, 9)
    values = np.stack([field_fn(rho_nodes, np.full(rho_nodes.size, k)) for k in kappa_nodes])
    rho0_step, kappa0_step = rho_nodes[1] - rho_nodes[0], kappa_nodes[1] - kappa_nodes[0]
    kappa_target = eps / 50.0

    def descend(rho: float, kappa: float):
        rho_step, kappa_step, value, levels = rho0_step, kappa0_step, -np.inf, 1
        while True:
            rho_target = location_rate(eps, min(khi, max(klo, kappa)) + 0.5) / 50.0
            if rho_step <= rho_target and kappa_step <= kappa_target:
                break
            if rho_step > rho_target:
                rho_step /= SHRINK
            if kappa_step > kappa_target:
                kappa_step /= SHRINK
            for _ in range(2):
                grid = _window(rho, rho_step, alo, ahi)
                rho, _ = _best(lambda g: field_fn(g, np.full(g.size, kappa)), grid)
                grid = _window(kappa, kappa_step, klo, khi)
                kappa, value = _best(lambda g: field_fn(np.full(g.size, rho), g), grid)
            levels += 1
            if levels > 12:
                break
        if not np.isfinite(value):
            value = float(field_fn(np.array([rho]), np.array([kappa]))[0])
        return rho, kappa, value, rho_step, kappa_step

    seeds: list[tuple[float, float]] = []
    for flat in np.argsort(values, axis=None, kind="stable")[::-1]:
        ki, ri = np.unravel_index(int(flat), values.shape)
        cand = (float(rho_nodes[ri]), float(kappa_nodes[ki]))
        if any(abs(cand[0] - r) <= 2.0 * rho0_step and abs(cand[1] - k) <= 2.0 * kappa0_step
               for r, k in seeds):
            continue
        seeds.append(cand)
        if len(seeds) >= STARTS:
            break
    best = None
    for rho, kappa in seeds:
        run = descend(rho, kappa)
        if best is None or run[2] > best[2] or (
                run[2] == best[2] and (run[0], run[1]) < (best[0], best[1])):
            best = run
    return best


def local_gain(field_fn, estimate: float, step: float, lo: float, hi: float) -> float:
    """Largest gain of the scan ``estimate + j*step``, ``|j| <= 10``, over the estimate."""
    offsets = step * np.arange(-SCAN_STEPS, SCAN_STEPS + 1)
    scan = estimate + offsets[(estimate + offsets >= lo) & (estimate + offsets <= hi)]
    return float(field_fn(scan).max() - field_fn(np.array([estimate]))[0])


def posterior_mean(field_fn, center: float, rate: float, lo: float, hi: float) -> float:
    """Uniform-prior posterior mean by trapezoid on the benchmark's own grid."""
    left = max(lo, center - BAYES_HALF_WIDTH * rate)
    right = min(hi, center + BAYES_HALF_WIDTH * rate)
    grid = np.linspace(left, right, int(math.ceil((right - left) / (BAYES_STEP * rate))) + 1)
    values = field_fn(grid)
    weights = np.exp(values - values.max())
    return float(np.sum((grid[1:] + grid[:-1]) * (weights[1:] + weights[:-1]))
                 / (2.0 * np.sum(weights[1:] + weights[:-1])))


def ks_statistic(a, b) -> float:
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_critical(n: int, m: int, alpha: float = KS_ALPHA) -> float:
    """Asymptotic two-sample KS critical value at level ``alpha``."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) * math.sqrt((n + m) / (n * m))


# ---------------------------------------------------------------------------
# per-scenario checks
# ---------------------------------------------------------------------------

class Verdicts(dict):
    """``{(replication, estimator): wrong}`` plus the local-scan diagnostic."""

    def __init__(self) -> None:
        super().__init__()
        self.local_misses = 0
        self.local_checked = 0


def check_location_rows(rows: list[dict], spec: dict, seed: int) -> Verdicts:
    """Rescore the checked replications of a cusp-mle / cusp-bayes sweep.

    ``rows`` are the program's records (``replication``, ``estimator``,
    ``estimate``, ``failed``); ``spec`` is the sweep config the benchmark
    asked for, with the replication indices to check under ``checked``.
    """
    sig = spec["signal"]
    a, kappa, T, theta0 = sig["a"], sig["kappa"], sig["T"], sig["theta0"]
    lo, hi = sig["theta_bounds"]
    n = spec["n_steps"]
    dt = T / n
    t = dt * np.arange(n)
    drift = a * np.abs(t - theta0) ** kappa
    by_key = {(r["replication"], r["estimator"]): r for r in rows}
    verdicts = Verdicts()
    for ei, eps in enumerate(spec["epsilons"]):
        rate = location_rate(eps, kappa + 0.5)
        for i in spec["checked"]:
            rep = ei * spec["replications"] + i
            inc = path_increments(drift, dt, eps, seed, rep)

            def field_fn(thetas):
                return ito_field(cusp_rows(a, kappa, thetas, t), inc, dt, eps)

            theta, value, step = location_search(field_fn, lo, hi, rate)
            mle = by_key.get((rep, "mle"))
            if mle is not None:
                wrong = mle["failed"] or (
                    value - field_fn(np.array([mle["estimate"]]))[0] > SEARCH_TOLERANCE)
                verdicts[(rep, "mle")] = bool(wrong)
                if not wrong:
                    verdicts.local_checked += 1
                    gain = local_gain(field_fn, mle["estimate"], step, lo, hi)
                    verdicts.local_misses += int(gain > SEARCH_TOLERANCE)
            bayes = by_key.get((rep, "bayes"))
            if bayes is not None:
                own = posterior_mean(field_fn, theta, rate, lo, hi)
                verdicts[(rep, "bayes")] = bool(bayes["failed"] or (
                    abs(bayes["estimate"] - own) > BAYES_RATE_FRACTION * rate))
    return verdicts


def check_joint_rows(rows: list[dict], spec: dict, seed: int) -> Verdicts:
    """Rescore the checked replications of a joint (location, exponent) sweep."""
    sig = spec["signal"]
    a, rho0, kappa0, T = sig["a"], sig["rho0"], sig["kappa0"], sig["T"]
    (alo, ahi), (klo, khi) = sig["theta_bounds"], sig["kappa_bounds"]
    n = spec["n_steps"]
    dt = T / n
    t = dt * np.arange(n)
    drift = a * np.abs(t - rho0) ** kappa0
    by_key = {(r["replication"], r["estimator"]): r for r in rows}
    verdicts = Verdicts()
    for ei, eps in enumerate(spec["epsilons"]):
        for i in spec["checked"]:
            rep = ei * spec["replications"] + i
            rho_row = by_key.get((rep, "joint_rho"))
            kappa_row = by_key.get((rep, "joint_kappa"))
            if rho_row is None or kappa_row is None:
                continue
            keys = ((rep, "joint_rho"), (rep, "joint_kappa"))
            if rho_row["failed"] or kappa_row["failed"]:
                verdicts.update(dict.fromkeys(keys, True))
                continue
            inc = path_increments(drift, dt, eps, seed, rep)

            def field_fn(rhos, kappas):
                return ito_field(cusp_rows(a, kappas, rhos, t), inc, dt, eps)

            rho, kappa = rho_row["estimate"], kappa_row["estimate"]
            _, _, value, rho_step, kappa_step = joint_search(field_fn, spec, eps)
            reported = field_fn(np.array([rho]), np.array([kappa]))[0]
            wrong = value - reported > SEARCH_TOLERANCE
            verdicts.update(dict.fromkeys(keys, bool(wrong)))
            if not wrong:
                verdicts.local_checked += 1
                gains = (
                    local_gain(lambda g: field_fn(g, np.full(g.size, kappa)),
                               rho, rho_step, alo, ahi),
                    local_gain(lambda g: field_fn(np.full(g.size, rho), g),
                               kappa, kappa_step, klo, khi),
                )
                verdicts.local_misses += int(max(gains) > SEARCH_TOLERANCE)
    return verdicts
