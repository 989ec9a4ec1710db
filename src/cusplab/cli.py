"""Command-line interface.

Eight subcommands cover the workflows:

* ``simulate``   — draw observation paths, optionally dumping them to CSV,
* ``estimate``   — one simulated path through the MLE or Bayes estimator,
* ``limit-law``  — sample the limit variables (xi, zeta, or the Gaussian
  exponent limit) to CSV with a JSON summary,
* ``rate``       — a full Monte Carlo sweep from a JSON config,
* ``misspec``    — the deterministic misspecification analysis record,
* ``kappa`` / ``joint`` — convenience sweeps with the scenario pinned,
* ``constants``  — the analytic constants as JSON.

Conventions: results go to standard output and files under ``--out``;
diagnostics go to standard error.  Exit status is 0 on success, 1 on
configuration or domain errors (including usage errors), and 2 on
numerical failures (degeneracy, ambiguity, failed experiment guards).
Command-line overrides always win over config-file values, and every
report echoes the effective configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ConditionViolationError,
    ConfigError,
    DomainError,
    ExperimentError,
    NumericalDegeneracyError,
)
from .estimators import bayes, mle, prior_from_config
from .experiments import (
    SCHEMA_VERSION,
    experiment_config_from_dict,
    misspec_problem,
    run_and_write,
)
from .limit_laws import (
    fisher_info_kappa,
    gamma_squared,
    sample_kappa_limit,
    sample_xi_batch,
    sample_zeta_batch,
    zeta_scale,
)
from .misspec_analysis import solve_theta_hat
from .path_sim import TimeGrid, replication_rng, simulate_path, write_path_csv
from .signal_models import signal_from_config

__all__ = ["main"]

log = logging.getLogger("cusplab")


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    return data


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _parse_epsilons(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse epsilon list {text!r}: {exc}") from None
    if not values:
        raise ConfigError(f"empty epsilon list {text!r}")
    return values


def _count(args, config: dict, key: str, default: int, minimum: int = 1) -> int:
    """The ``--replications`` override, else ``config[key]``; at least ``minimum``."""
    count = args.replications
    if count is None:
        count = config.get(key, default)
    if count < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {count!r}")
    return count


def _out_dir(args, config: dict) -> str:
    out = args.out if args.out is not None else config.get("out_dir", ".")
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_constants(args) -> int:
    gamma_sq = gamma_squared(args.a, args.kappa)
    fisher = fisher_info_kappa(args.a, args.rho, args.T, args.kappa)
    hurst = args.kappa + 0.5
    _emit({
        "schema_version": SCHEMA_VERSION,
        "a": args.a,
        "kappa": args.kappa,
        "rho": args.rho,
        "T": args.T,
        "hurst": hurst,
        "gamma_sq": gamma_sq,
        "gamma": math.sqrt(gamma_sq),
        "fisher_kappa": fisher,
        "location_rate_exponent": 1.0 / hurst,
        "misspec_rate_exponent": 2.0 / (3.0 - 2.0 * args.kappa),
    })
    return 0


def _signal_from(config: dict):
    spec = config.get("signal", {"family": "cusp", "a": 1.0, "kappa": 0.25,
                                 "T": 1.0, "theta_bounds": [0.35, 0.65]})
    return signal_from_config(spec)


def _cmd_simulate(args) -> int:
    config = _load_config(args.config)
    signal = _signal_from(config)
    theta = config.get("theta_true", 0.5)
    epsilon = config.get("epsilon", 0.01)
    n_steps = config.get("n_steps", 10_000)
    count = _count(args, config, "replications", 1)
    seed = args.seed if args.seed is not None else config.get("master_seed", 0)
    out = _out_dir(args, config)
    grid = TimeGrid(signal.T, n_steps)
    files = []
    finals = []
    for rep in range(count):
        rng = replication_rng(seed, rep)
        path = simulate_path(
            signal, theta, epsilon, grid, rng=rng,
            zero_noise=args.zero_noise, seed=rep,
        )
        finals.append(float(path.cumulative()[-1]))
        if args.dump_paths:
            name = os.path.join(out, f"path_{rep:05d}.csv")
            with open(name, "w", encoding="utf-8", newline="\n") as handle:
                write_path_csv(path, handle)
            files.append(name)
    log.info("simulated %d path(s) at epsilon=%g", count, epsilon)
    _emit({
        "schema_version": SCHEMA_VERSION,
        "replications": count,
        "epsilon": epsilon,
        "n_steps": n_steps,
        "theta_true": theta,
        "zero_noise": bool(args.zero_noise),
        "master_seed": seed,
        "final_values": finals,
        "files": files,
    })
    return 0


def _cmd_estimate(args) -> int:
    config = _load_config(args.config)
    signal = _signal_from(config)
    theta = config.get("theta_true", 0.5)
    epsilon = config.get("epsilon", 0.01)
    n_steps = config.get("n_steps", 10_000)
    seed = args.seed if args.seed is not None else config.get("master_seed", 0)
    estimator = config.get("estimator", "mle")
    grid = TimeGrid(signal.T, n_steps)
    rng = replication_rng(seed, 0)
    path = simulate_path(
        signal, theta, epsilon, grid, rng=rng, zero_noise=args.zero_noise
    )
    if estimator == "mle":
        result = mle(path, signal)
    elif estimator == "bayes":
        prior_cfg = dict(config.get("prior", {"name": "uniform"}))
        prior = prior_from_config(
            prior_cfg.pop("name", "uniform"), prior_cfg
        )
        result = bayes(path, signal, prior)
    else:
        raise ConfigError(
            f"unknown estimator {estimator!r}; valid: ['bayes', 'mle']"
        )
    _emit({
        "schema_version": SCHEMA_VERSION,
        "estimator": result.estimator,
        "estimate": result.estimate,
        "theta_true": theta,
        "epsilon": epsilon,
        "rate": result.rate,
        "normalized_error": result.normalized_error,
        "boundary": result.boundary,
        "grid_step": result.grid_step,
        "refinement_levels": result.refinement_levels,
        "master_seed": seed,
    })
    return 0


def _cmd_limit_law(args) -> int:
    config = _load_config(args.config)
    law = config.get("law", "xi")
    a = config.get("a", 1.0)
    kappa = config.get("kappa", 0.25)
    hurst = kappa + 0.5
    count = _count(args, config, "count", 2000, minimum=2 if law == "kappa" else 1)
    seed = args.seed if args.seed is not None else config.get("master_seed", 0)
    out = _out_dir(args, config)
    rng = replication_rng(seed, 0)
    csv_path = os.path.join(out, f"limit_{law}_samples.csv")
    if law == "xi":
        gamma_sq = gamma_squared(a, kappa)
        xi_hat, xi_tilde, flags = sample_xi_batch(gamma_sq, hurst, count, rng)
        with open(csv_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("sample_id,xi_hat,xi_tilde,edge_flag\n")
            for i in range(count):
                handle.write(
                    f"{i},{float(xi_hat[i])!r},{float(xi_tilde[i])!r},"
                    f"{int(flags[i])}\n"
                )
        summary = {
            "law": "xi",
            "gamma_sq": gamma_sq,
            "mean_abs_xi_hat": float(np.abs(xi_hat).mean()),
            "mean_sq_xi_hat": float((xi_hat**2).mean()),
            "mean_sq_xi_tilde": float((xi_tilde**2).mean()),
            "edge_fraction": float(flags.mean()),
        }
    elif law == "zeta":
        problem, noise_scale = misspec_problem(config)
        if "curvature" in config:
            curvature = float(config["curvature"])
        else:
            curvature = solve_theta_hat(problem).curvature_closed
        zeta, flags = sample_zeta_batch(noise_scale, curvature, hurst, count, rng)
        with open(csv_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("sample_id,zeta_hat,edge_flag\n")
            for i in range(count):
                handle.write(f"{i},{float(zeta[i])!r},{int(flags[i])}\n")
        summary = {
            "law": "zeta",
            "noise_scale": noise_scale,
            "curvature": curvature,
            "zeta_scale": zeta_scale(noise_scale, curvature, hurst),
            "mean_abs_zeta": float(np.abs(zeta).mean()),
            "mean_sq_zeta": float((zeta**2).mean()),
            "edge_fraction": float(flags.mean()),
        }
    elif law == "kappa":
        rho = config.get("rho", 0.5)
        T = config.get("T", 1.0)
        fisher = fisher_info_kappa(a, rho, T, kappa)
        samples = sample_kappa_limit(fisher, count, rng)
        with open(csv_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("sample_id,kappa_limit\n")
            for i in range(count):
                handle.write(f"{i},{float(samples[i])!r}\n")
        summary = {
            "law": "kappa",
            "fisher_kappa": fisher,
            "variance": float(samples.var(ddof=1)),
            "limit_variance": 1.0 / fisher,
        }
    else:
        raise ConfigError(
            f"unknown limit law {law!r}; valid: ['kappa', 'xi', 'zeta']"
        )
    log.info("wrote %d %s samples to %s", count, law, csv_path)
    _emit({
        "schema_version": SCHEMA_VERSION,
        "count": count,
        "master_seed": seed,
        "csv": csv_path,
        **summary,
    })
    return 0


def _cmd_misspec(args) -> int:
    config = _load_config(args.config)
    problem, _ = misspec_problem(config, quad_order=config.get("quad_order", 200))
    cusp, real = problem.theoretical, problem.real
    record = {
        "schema_version": SCHEMA_VERSION,
        "a": cusp.a,
        "kappa": cusp.kappa,
        "T": cusp.T,
        "center": real.center,
        "delta": real.delta,
        **dataclasses.asdict(solve_theta_hat(problem)),
        "rate_exponent": 2.0 / (3.0 - 2.0 * cusp.kappa),
    }
    out = _out_dir(args, config)
    path = os.path.join(out, "misspec_solution.json")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    log.info("misspec solution written to %s", path)
    _emit(record)
    return 0


def _run_sweep(args, forced_scenario: Optional[str] = None) -> int:
    config = _load_config(args.config)
    if forced_scenario is not None:
        config["scenario"] = forced_scenario
    config.setdefault("scenario", "cusp-mle")
    if args.seed is not None:
        config["master_seed"] = args.seed
    if args.out is not None:
        config["out_dir"] = args.out
    if args.threads is not None:
        config["threads"] = args.threads
    if args.epsilon is not None:
        config["epsilons"] = list(_parse_epsilons(args.epsilon))
    if args.replications is not None:
        config["replications"] = args.replications
    if args.zero_noise:
        config["zero_noise"] = True
    experiment = experiment_config_from_dict(config)
    os.makedirs(experiment.out_dir, exist_ok=True)
    log.info(
        "running scenario %s: epsilons=%s, N=%d",
        experiment.scenario, list(experiment.epsilons), experiment.replications,
    )
    report, csv_path, report_path = run_and_write(experiment)
    log.info("samples: %s; report: %s", csv_path, report_path)
    _emit(report.to_dict())
    return 0


def _cmd_rate(args) -> int:
    return _run_sweep(args)


def _cmd_kappa(args) -> int:
    return _run_sweep(args, forced_scenario="kappa")


def _cmd_joint(args) -> int:
    return _run_sweep(args, forced_scenario="joint")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--out", help="output directory (created if missing)")
    parser.add_argument("--threads", type=int, help="worker thread cap")
    parser.add_argument(
        "--zero-noise", action="store_true",
        help="suppress the noise term (deterministic drift-only paths)",
    )
    parser.add_argument(
        "--epsilon", help="comma-separated noise levels, e.g. 0.05,0.02,0.01"
    )
    parser.add_argument(
        "--replications", type=int, help="replication / sample count override"
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="verbose diagnostics on stderr"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cusplab",
        description=(
            "Numerical laboratory for locating cusp-type signals observed "
            "in small Gaussian noise."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw observation paths")
    p.add_argument(
        "--dump-paths", action="store_true",
        help="write one t,x CSV per replication under --out",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="estimate the location on one path")
    _add_common(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("limit-law", help="sample limit variables to CSV")
    _add_common(p)
    p.set_defaults(func=_cmd_limit_law)

    p = sub.add_parser("rate", help="Monte Carlo sweep over noise levels")
    _add_common(p)
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("misspec", help="deterministic misspecification analysis")
    _add_common(p)
    p.set_defaults(func=_cmd_misspec)

    p = sub.add_parser("kappa", help="exponent-estimation sweep")
    _add_common(p)
    p.set_defaults(func=_cmd_kappa)

    p = sub.add_parser("joint", help="joint location/exponent sweep")
    _add_common(p)
    p.set_defaults(func=_cmd_joint)

    p = sub.add_parser("constants", help="print the analytic constants")
    p.add_argument("--a", type=float, default=1.0, help="cusp amplitude")
    p.add_argument("--kappa", type=float, default=0.25, help="cusp exponent")
    p.add_argument("--rho", type=float, default=0.5, help="known cusp location")
    p.add_argument("--T", type=float, default=1.0, help="observation horizon")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=_cmd_constants)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; fold usage
        # errors into the domain/config status
        return 0 if exc.code in (0, None) else 1
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if getattr(args, "verbose", False) else logging.INFO,
        format="%(levelname)s %(message)s",
    )
    try:
        return int(args.func(args))
    except (ConfigError, DomainError, FileNotFoundError) as exc:
        log.error("%s", exc)
        return 1
    except (NumericalDegeneracyError, ConditionViolationError, ExperimentError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
