"""Acceptance suite: the twelve headline guarantees of the package.

Each test prints one ``[PASS]``/``[FAIL]`` line (bypassing capture) so a
full run yields a twelve-line scorecard, and then asserts the same
condition.  Scenario seeds, sample sizes, and tolerances are pinned;
the statistical checks were calibrated so that a correct implementation
passes with a comfortable margin at these seeds.

The criteria:

01  MLE location error decays at the predicted noise-rate exponent.
02  The Bayes location estimator beats the MLE in quadratic risk.
03  Normalized location errors match the argmax/mean limit laws.
04  The fBm sampler reproduces the fractional covariance (and the
    Wiener covariance at Hurst 1/2).
05  Limit-law sampling respects the exact self-similarity rescaling.
06  The analytic limit constants agree with brute-force oracles.
07  Under misspecification the error decays at the slower predicted
    rate and matches the Gaussian-quadratic limit law.
08  The closed-form misspecification curvature agrees with finite
    differences.
09  The exponent estimator is asymptotically normal with the inverse
    Fisher variance.
10  Joint location/exponent errors are asymptotically independent and
    the location component keeps its limit law.
11  Superimposed cusps are located at the rate set by the roughest
    exponent.
12  The fitted likelihood-gap and tail constants are strictly positive.
"""

import math

import numpy as np
import pytest

from cusplab.experiments import (
    ExperimentConfig,
    ks_statistic,
    separation_bound_fit,
    tail_bound_fit,
    run_experiment,
)
from cusplab.limit_laws import (
    WindowConfig,
    fbm_covariance,
    fisher_info_kappa,
    gamma_squared,
    rescale_fbm,
    sample_fbm,
    sample_xi_batch,
    xi_from_fbm,
)
from cusplab.misspec_analysis import MisspecProblem, solve_theta_hat
from cusplab.signal_models import CuspSignal, SmoothedCuspSignal

EPSILON_LADDER = (0.05, 0.02, 0.01, 0.005)


def _criterion(capfd, label, passed, detail):
    """Print one visible scorecard line, then assert."""
    with capfd.disabled():
        print(f"[{'PASS' if passed else 'FAIL'}] {label}: {detail}", flush=True)
    assert passed, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# shared Monte Carlo runs (module-scoped: each sweep is computed once)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cusp_sweep():
    return run_experiment(ExperimentConfig(
        scenario="cusp-bayes", epsilons=EPSILON_LADDER,
        replications=500, master_seed=0, threads=4, limit_samples=200,
    ))


@pytest.fixture(scope="module")
def cusp_limit_run():
    return run_experiment(ExperimentConfig(
        scenario="cusp-bayes", epsilons=(0.005,),
        replications=1000, master_seed=0, threads=4, limit_samples=2000,
    ))


@pytest.fixture(scope="module")
def misspec_sweep():
    return run_experiment(ExperimentConfig(
        scenario="misspec", epsilons=EPSILON_LADDER,
        replications=500, master_seed=0, threads=4, limit_samples=2000,
    ))


@pytest.fixture(scope="module")
def kappa_run():
    return run_experiment(ExperimentConfig(
        scenario="kappa", epsilons=(0.01,),
        replications=1000, master_seed=0, threads=4, limit_samples=2000,
    ))


@pytest.fixture(scope="module")
def joint_run():
    return run_experiment(ExperimentConfig(
        scenario="joint", epsilons=(0.01,), n_steps=4000,
        replications=1000, master_seed=0, threads=4, limit_samples=2000,
    ))


@pytest.fixture(scope="module")
def multicusp_sweep():
    return run_experiment(ExperimentConfig(
        scenario="multi-cusp", epsilons=EPSILON_LADDER,
        replications=500, master_seed=0, threads=4, limit_samples=200,
    ))


def _squared_errors(report, epsilon, estimator):
    return {
        r["replication"]: (r["estimate"] - r["target"]) ** 2
        for r in report.rows
        if r["estimator"] == estimator
        and r["epsilon"] == epsilon
        and not r["failed"]
    }


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_01_mle_rate_slope(cusp_sweep, capfd):
    """Location error 1/H-rate: log-log slope near 1/0.75 = 1.333."""
    fit = cusp_sweep.rate_fits["mle"]
    slope = fit["slope"]
    passed = 1.18 <= slope <= 1.48
    _criterion(
        capfd, "01 cusp location rate", passed,
        f"slope={slope:.4f} in [1.18, 1.48] (r^2={fit['r_squared']:.4f})",
    )


def test_02_bayes_beats_mle(cusp_sweep, capfd):
    """Quadratic risk: Bayes below MLE, gap resolved at two SE.

    Both estimators run on the same simulated paths, so the risk gap is
    read off the paired per-replication difference of squared errors and
    its standard error is the SE of that mean difference.
    """
    eps = EPSILON_LADDER[-1]
    mle_sq = _squared_errors(cusp_sweep, eps, "mle")
    bayes_sq = _squared_errors(cusp_sweep, eps, "bayes")
    common = sorted(set(mle_sq) & set(bayes_sq))
    diffs = np.array([mle_sq[k] - bayes_sq[k] for k in common])
    gap = float(diffs.mean())
    se = float(diffs.std(ddof=1) / math.sqrt(diffs.size))
    passed = gap > 0.0 and gap > 2.0 * se
    _criterion(
        capfd, "02 bayes risk below mle", passed,
        f"E[mle^2]-E[bayes^2]={gap:.4g} > 2*SE={2 * se:.4g} "
        f"(z={gap / se:.2f}, N={diffs.size}, eps={eps})",
    )


def test_03_location_limit_laws(cusp_limit_run, capfd):
    """Normalized errors vs. the argmax and posterior-mean limit laws."""
    ks_mle = cusp_limit_run.ks_results["mle"]["statistic"]
    ks_bayes = cusp_limit_run.ks_results["bayes"]["statistic"]
    passed = ks_mle < 0.1 and ks_bayes < 0.1
    _criterion(
        capfd, "03 location limit laws", passed,
        f"KS(mle)={ks_mle:.4f}, KS(bayes)={ks_bayes:.4f} < 0.1 "
        f"(N=1000 vs 2000 limit draws)",
    )


def test_04_fbm_sampler_covariance(capfd):
    """Sampled fBm covariance vs. the fractional form, plus H=1/2."""
    hurst, U, du, count = 0.75, 2.0, 0.0625, 2000
    values = sample_fbm(hurst, U, du, count, np.random.default_rng(4)).values
    grid = WindowConfig(U=U, du=du).nodes()
    empirical = values.T @ values / count
    theory = fbm_covariance(grid[:, None], grid[None, :], hurst)
    se = np.sqrt(
        (np.outer(np.diag(theory), np.diag(theory)) + theory**2) / count
    )
    mask = se > 0.0
    worst = float(
        np.max(np.abs(empirical - theory)[mask] / se[mask])
    )
    # At H=1/2 the covariance must collapse to the two-sided Wiener one.
    half = fbm_covariance(grid[:, None], grid[None, :], 0.5)
    uu, vv = np.meshgrid(grid, grid, indexing="ij")
    wiener = np.where(uu * vv > 0.0, np.minimum(np.abs(uu), np.abs(vv)), 0.0)
    wiener_gap = float(np.max(np.abs(half - wiener)))
    passed = worst <= 5.0 and wiener_gap <= 1e-12
    _criterion(
        capfd, "04 fbm sampler covariance", passed,
        f"max |emp-theory|/SE={worst:.2f} <= 5 over {int(mask.sum())} "
        f"entries (N={count}); H=1/2 Wiener gap={wiener_gap:.2e}",
    )


def test_05_self_similarity_rescaling(capfd):
    """Rescaled paths reproduce scaled limit draws, per path and in law."""
    gamma_sq = gamma_squared(1.0, 0.25)
    hurst, c = 0.75, 2.0
    window = WindowConfig(U=24.0, du=0.024)
    gamma_sq_scaled = gamma_sq / c ** (2.0 * hurst)
    paths = sample_fbm(hurst, window.U, window.du, 50, np.random.default_rng(9))
    base_hat, base_tilde, _ = xi_from_fbm(paths, gamma_sq)
    scaled_hat, scaled_tilde, _ = xi_from_fbm(rescale_fbm(paths, c), gamma_sq_scaled)
    worst_hat = float(np.max(np.abs(scaled_hat - c * base_hat)))
    worst_tilde = float(np.max(np.abs(scaled_tilde - c * base_tilde)))
    direct, _, _ = sample_xi_batch(
        gamma_sq, hurst, 2000, np.random.default_rng(7), window=window
    )
    rescaled_paths = sample_fbm(
        hurst, window.U, window.du, 2000, np.random.default_rng(8)
    )
    rescaled = xi_from_fbm(rescale_fbm(rescaled_paths, c), gamma_sq_scaled)[0] / c
    ks = ks_statistic(direct, rescaled)
    step = c * window.du
    passed = worst_hat <= step and worst_tilde <= step and ks < 0.05
    _criterion(
        capfd, "05 self-similarity rescaling", passed,
        f"per-path dev: argmax={worst_hat:.2e}, mean={worst_tilde:.2e} "
        f"<= c*du={step:.3g}; KS={ks:.4f} < 0.05 (2000 vs 2000)",
    )


def test_06_constants_against_oracles(capfd):
    """Analytic constants vs. independent brute-force evaluations."""
    # Brute-force oracle for the squared noise coefficient: midpoint rule
    # on a huge window plus the analytic tail of the integrand.
    kappa, V, n_nodes = 0.25, 1.0e4, 100_000_000
    h = (1.0 + 2.0 * V) / n_nodes
    total = 0.0
    chunk = 5_000_000
    for i in range(n_nodes // chunk):
        s = -V + (np.arange(i * chunk, (i + 1) * chunk) + 0.5) * h
        total += float(
            ((np.abs(s - 1.0) ** kappa - np.abs(s) ** kappa) ** 2).sum()
        ) * h
    tail = 2.0 * kappa**2 * V ** (2.0 * kappa - 1.0) / (1.0 - 2.0 * kappa)
    oracle = total + tail
    packaged = gamma_squared(1.0, kappa)
    rel_gamma = abs(packaged - oracle) / oracle
    # Closed antiderivative for the exponent Fisher information:
    # int_0^x (u^kappa ln u)^2 du expanded by repeated integration by parts.
    k1 = 2.0 * kappa + 1.0

    def antiderivative(x):
        lx = math.log(x)
        return x**k1 * (lx**2 / k1 - 2.0 * lx / k1**2 + 2.0 / k1**3)

    fisher_oracle = antiderivative(0.5) + antiderivative(0.5)
    fisher = fisher_info_kappa(1.0, 0.5, 1.0, kappa)
    rel_fisher = abs(fisher - fisher_oracle) / fisher_oracle
    passed = rel_gamma < 1e-4 and rel_fisher < 1e-8
    _criterion(
        capfd, "06 constants vs oracles", passed,
        f"gamma_sq rel err={rel_gamma:.2e} < 1e-4 "
        f"(midpoint, {n_nodes:.0e} nodes); "
        f"fisher rel err={rel_fisher:.2e} < 1e-8",
    )


def test_07_misspec_rate_and_limit(misspec_sweep, capfd):
    """Misspecified fit: slower rate exponent and quadratic limit law."""
    fit = misspec_sweep.rate_fits["pseudo_mle"]
    slope = fit["slope"]
    ks = misspec_sweep.ks_results["pseudo_mle"]["statistic"]
    passed = 0.68 <= slope <= 0.92 and ks < 0.12
    _criterion(
        capfd, "07 misspec rate and limit", passed,
        f"slope={slope:.4f} in [0.68, 0.92] "
        f"(r^2={fit['r_squared']:.4f}); KS={ks:.4f} < 0.12",
    )


def test_08_curvature_routes_agree(capfd):
    """Closed-form distance curvature vs. finite differences."""
    problem = MisspecProblem(
        theoretical=CuspSignal(
            a=1.0, kappa=0.25, T=1.0, theta_bounds=(0.35, 0.65)
        ),
        real=SmoothedCuspSignal(
            a=1.0, kappa=0.25, center=0.5, delta=0.05, T=1.0
        ),
    )
    solution = solve_theta_hat(problem)
    rel = abs(
        solution.curvature_closed - solution.curvature_fd
    ) / solution.curvature_closed
    passed = rel < 1e-3
    _criterion(
        capfd, "08 curvature routes agree", passed,
        f"|closed-fd|/closed={rel:.2e} < 1e-3 "
        f"(closed={solution.curvature_closed:.6f} at "
        f"theta_hat={solution.theta_hat:.4f})",
    )


def test_09_kappa_normality(kappa_run, capfd):
    """Exponent estimator: inverse-Fisher variance and Gaussian law."""
    errors = np.array([
        r["normalized_error"] for r in kappa_run.rows if not r["failed"]
    ])
    fisher = kappa_run.constants["fisher_kappa"]
    variance = float(errors.var(ddof=1))
    ratio = variance * fisher
    ks = kappa_run.ks_results["kappa_mle"]["statistic"]
    passed = abs(ratio - 1.0) <= 0.2 and ks < 0.1
    _criterion(
        capfd, "09 exponent estimator normality", passed,
        f"var*I={ratio:.4f} in [0.8, 1.2] (var={variance:.5f}, "
        f"1/I={1.0 / fisher:.5f}); KS={ks:.4f} < 0.1 (N={errors.size})",
    )


def test_10_joint_component_independence(joint_run, capfd):
    """Joint estimation: independent components, location law intact."""
    entry = joint_run.ks_results["joint_rho"]
    corr = entry["component_correlation"]
    ks_rho = entry["statistic"]
    passed = abs(corr) < 0.1 and ks_rho < 0.12
    _criterion(
        capfd, "10 joint component independence", passed,
        f"|corr|={abs(corr):.4f} < 0.1; KS(rho)={ks_rho:.4f} < 0.12 "
        f"(N=1000, eps=0.01)",
    )


def test_11_multicusp_rate_slope(multicusp_sweep, capfd):
    """Two superimposed cusps: the rougher one dictates the rate."""
    fit = multicusp_sweep.rate_fits["mle"]
    slope = fit["slope"]
    passed = 1.28 <= slope <= 1.58
    _criterion(
        capfd, "11 multi-cusp rate", passed,
        f"slope={slope:.4f} in [1.28, 1.58] "
        f"(target 1/0.7, r^2={fit['r_squared']:.4f})",
    )


def test_12_bound_constants_positive(capfd):
    """Fitted likelihood-gap and tail-bound constants are positive."""
    signal = CuspSignal(a=1.0, kappa=0.25, T=1.0, theta_bounds=(0.35, 0.65))
    mu_hat = separation_bound_fit(signal, 0.5)
    c_hat = tail_bound_fit(signal, 0.5)
    passed = mu_hat > 0.0 and c_hat > 0.0
    _criterion(
        capfd, "12 bound constants positive", passed,
        f"mu_hat={mu_hat:.4g} > 0, c_hat={c_hat:.4g} > 0 "
        f"(limit tail constant gamma_sq/8={gamma_squared(1.0, 0.25) / 8:.4g})",
    )
