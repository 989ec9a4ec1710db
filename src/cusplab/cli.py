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

Each subcommand takes only the flags it reads (``_FLAGS``) and the config
keys it reads: its ``_KEYS``, or for sweeps the ``ExperimentConfig``
fields (``experiments.config_defaults``).  One check,
``signal_models.fill_config``, rejects any other key and any value not of
its default's type and fills the defaults, before anything runs.  A flag
given always overrides the config key it maps to, and every report echoes
the effective configuration.
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
    SIGNAL_DEFAULTS,
    ExperimentConfig,
    config_defaults,
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
from .path_sim import DEFAULT_N_STEPS, TimeGrid, replication_rng, simulate_path
from .path_sim import write_path_csv
from .signal_models import fill_config, signal_from_config

__all__ = ["main"]

log = logging.getLogger("cusplab")


def _parse_epsilons(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        values = ()
    if not values:
        raise argparse.ArgumentTypeError(f"not a comma-separated number list: {text!r}")
    return values


_FLAG_ARGS = {
    "--seed": {"type": int, "help": "master seed override"},
    "--out": {"help": "output directory (created if missing)"},
    "--threads": {"type": int, "help": "worker thread cap"},
    "--zero-noise": {"action": "store_true", "help": "drift-only paths, no noise term"},
    "--epsilon": {"type": _parse_epsilons, "help": "noise levels, e.g. 0.05,0.02,0.01"},
    "--replications": {"type": int, "help": "replication / sample count override"},
    "--dump-paths": {"action": "store_true", "help": "one t,x CSV per path under --out"},
}

_SWEEP_FLAGS = {
    "--seed": "master_seed", "--out": "out_dir", "--threads": "threads",
    "--zero-noise": "zero_noise", "--epsilon": "epsilons",
    "--replications": "replications",
}

#: The flags of each config-driven subcommand besides ``--config`` and
#: ``-v``, each with the config key it overrides (``None``: a flag the
#: handler reads itself, with no config key).
_FLAGS = {
    "simulate": {"--seed": "master_seed", "--out": "out_dir",
                 "--replications": "replications", "--zero-noise": None,
                 "--dump-paths": None},
    "estimate": {"--seed": "master_seed", "--zero-noise": None},
    "limit-law": {"--seed": "master_seed", "--out": "out_dir",
                  "--replications": "count"},
    "misspec": {"--out": "out_dir"},
    "rate": _SWEEP_FLAGS,
    "kappa": _SWEEP_FLAGS,
    "joint": _SWEEP_FLAGS,
}

_CUSP = SIGNAL_DEFAULTS["cusp-mle"]
_MISSPEC = SIGNAL_DEFAULTS["misspec"]
_PATH_KEYS = {
    "signal": {"family": "cusp",
               **{k: _CUSP[k] for k in ("a", "kappa", "T", "theta_bounds")}},
    "theta_true": _CUSP["theta0"],
    "epsilon": 0.01,
    "n_steps": DEFAULT_N_STEPS,
    "master_seed": 0,
}

#: The config keys of each non-sweep subcommand and their defaults.
_KEYS = {
    "simulate": {**_PATH_KEYS, "replications": 1, "out_dir": "."},
    "estimate": {**_PATH_KEYS, "estimator": "mle", "prior": {"name": "uniform"}},
    "limit-law": {"law": "xi", "count": 2000, "master_seed": 0, "out_dir": ".",
                  **_MISSPEC, "rho": SIGNAL_DEFAULTS["kappa"]["rho"],
                  "curvature": None},
    "misspec": {**_MISSPEC, "out_dir": "."},
}


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


def _settings(args) -> dict:
    """The config file, checked and filled before each flag given overrides
    its key.

    A sweep's defaults are ``experiments.config_defaults`` of its scenario
    (``kappa`` and ``joint`` pin theirs; ``rate`` reads the config's, or
    runs ``cusp-mle``), any other subcommand's are its ``_KEYS``.  Every
    config goes through ``signal_models.fill_config``: a key without a
    default, or a value not of its default's type, is a ``ConfigError``,
    even for a key that a flag overrides."""
    config = _load_config(args.config)
    if args.command in ("kappa", "joint"):
        config["scenario"] = args.command
    defaults = _KEYS.get(args.command) or config_defaults(
        config.get("scenario", "cusp-mle"))
    config = fill_config(config, defaults)
    for key in filter(None, _FLAGS[args.command].values()):
        if getattr(args, key) is not None:
            config[key] = getattr(args, key)
    return config


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _count(config: dict, key: str, minimum: int = 1) -> int:
    """``config[key]``, which must be at least ``minimum``."""
    if config[key] < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {config[key]!r}")
    return config[key]


def _out_dir(config: dict) -> str:
    os.makedirs(config["out_dir"], exist_ok=True)
    return config["out_dir"]


def _write_samples(path: str, header: str, *columns: np.ndarray) -> None:
    """``sample_id,<header>``, then one row per draw: floats by ``repr``, flags 0/1."""
    cells = [(c.astype(int) if c.dtype == bool else c).tolist() for c in columns]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"sample_id,{header}\n")
        for i, row in enumerate(zip(*cells)):
            handle.write(",".join(map(repr, (i, *row))) + "\n")


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


def _cmd_simulate(args) -> int:
    config = _settings(args)
    signal = signal_from_config(config["signal"])
    epsilon = config["epsilon"]
    count = _count(config, "replications")
    grid = TimeGrid(signal.T, config["n_steps"])
    finals, dumped = [], []
    for rep in range(count):
        rng = replication_rng(config["master_seed"], rep)
        path = simulate_path(
            signal, config["theta_true"], epsilon, grid, rng=rng,
            zero_noise=args.zero_noise, seed=rep,
        )
        finals.append(float(path.cumulative()[-1]))
        if args.dump_paths:
            dumped.append(path)
    # As for limit-law, the output directory is made only once the paths
    # are simulated, so a run that fails a domain check leaves nothing.
    out = _out_dir(config)
    files = [os.path.join(out, f"path_{rep:05d}.csv") for rep in range(len(dumped))]
    for name, path in zip(files, dumped):
        with open(name, "w", encoding="utf-8", newline="\n") as handle:
            write_path_csv(path, handle)
    log.info("simulated %d path(s) at epsilon=%g", count, epsilon)
    _emit({
        "schema_version": SCHEMA_VERSION,
        **{k: config[k] for k in ("replications", "epsilon", "n_steps", "theta_true",
                                  "master_seed")},
        "zero_noise": args.zero_noise,
        "final_values": finals,
        "files": files,
    })
    return 0


def _cmd_estimate(args) -> int:
    config = _settings(args)
    signal = signal_from_config(config["signal"])
    prior = prior_from_config(config["prior"])
    estimator = config["estimator"]
    if estimator not in ("bayes", "mle"):
        raise ConfigError(
            f"unknown estimator {estimator!r}; valid: ['bayes', 'mle']"
        )
    grid = TimeGrid(signal.T, config["n_steps"])
    rng = replication_rng(config["master_seed"], 0)
    path = simulate_path(
        signal, config["theta_true"], config["epsilon"], grid, rng=rng,
        zero_noise=args.zero_noise,
    )
    result = mle(path, signal) if estimator == "mle" else bayes(path, signal, prior)
    _emit({
        "schema_version": SCHEMA_VERSION,
        "estimator": result.estimator,
        "estimate": result.estimate,
        **{k: config[k] for k in ("theta_true", "epsilon", "master_seed")},
        "rate": result.rate,
        "normalized_error": (result.estimate - config["theta_true"]) / result.rate,
        "boundary": result.boundary,
        "grid_step": result.grid_step,
        "refinement_levels": result.refinement_levels,
        "boundary_mass": result.boundary_mass,
    })
    return 0


def _cmd_limit_law(args) -> int:
    config = _settings(args)
    law, a, kappa = config["law"], config["a"], config["kappa"]
    if law not in ("kappa", "xi", "zeta"):
        raise ConfigError(f"unknown limit law {law!r}; valid: ['kappa', 'xi', 'zeta']")
    hurst = kappa + 0.5
    count = _count(config, "count", minimum=2 if law == "kappa" else 1)
    rng = replication_rng(config["master_seed"], 0)
    if law == "xi":
        gamma_sq = gamma_squared(a, kappa)
        xi_hat, xi_tilde, flags = sample_xi_batch(gamma_sq, hurst, count, rng)
        header, columns = "xi_hat,xi_tilde,edge_flag", (xi_hat, xi_tilde, flags)
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
        if config["curvature"] is None:
            curvature = solve_theta_hat(problem).curvature_closed
        else:
            curvature = float(config["curvature"])
        zeta, flags = sample_zeta_batch(noise_scale, curvature, hurst, count, rng)
        header, columns = "zeta_hat,edge_flag", (zeta, flags)
        summary = {
            "law": "zeta",
            "noise_scale": noise_scale,
            "curvature": curvature,
            "zeta_scale": zeta_scale(noise_scale, curvature, hurst),
            "mean_abs_zeta": float(np.abs(zeta).mean()),
            "mean_sq_zeta": float((zeta**2).mean()),
            "edge_fraction": float(flags.mean()),
        }
    else:
        fisher = fisher_info_kappa(a, config["rho"], config["T"], kappa)
        samples = sample_kappa_limit(fisher, count, rng)
        header, columns = "kappa_limit", (samples,)
        summary = {
            "law": "kappa",
            "fisher_kappa": fisher,
            "variance": float(samples.var(ddof=1)),
            "limit_variance": 1.0 / fisher,
        }
    # The output directory is made only once sampling has succeeded, so a
    # run that fails a domain check leaves nothing behind.
    csv_path = os.path.join(_out_dir(config), f"limit_{law}_samples.csv")
    _write_samples(csv_path, header, *columns)
    log.info("wrote %d %s samples to %s", count, law, csv_path)
    _emit({
        "schema_version": SCHEMA_VERSION,
        "count": count,
        "master_seed": config["master_seed"],
        "csv": csv_path,
        **summary,
    })
    return 0


def _cmd_misspec(args) -> int:
    config = _settings(args)
    problem, _ = misspec_problem(config)
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
    out = _out_dir(config)
    path = os.path.join(out, "misspec_solution.json")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    log.info("misspec solution written to %s", path)
    _emit(record)
    return 0


def _cmd_sweep(args) -> int:
    """``rate`` runs the config's scenario; ``kappa`` and ``joint`` pin theirs."""
    experiment = ExperimentConfig(**_settings(args))
    log.info(
        "running scenario %s: epsilons=%s, N=%d",
        experiment.scenario, list(experiment.epsilons), experiment.replications,
    )
    report, csv_path, report_path = run_and_write(experiment)
    log.info("samples: %s; report: %s", csv_path, report_path)
    _emit(report.to_dict())
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cusplab",
        description=(
            "Numerical laboratory for locating cusp-type signals observed "
            "in small Gaussian noise."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_text in (
        ("simulate", _cmd_simulate, "draw observation paths"),
        ("estimate", _cmd_estimate, "estimate the location on one path"),
        ("limit-law", _cmd_limit_law, "sample limit variables to CSV"),
        ("rate", _cmd_sweep, "Monte Carlo sweep over noise levels"),
        ("misspec", _cmd_misspec, "deterministic misspecification analysis"),
        ("kappa", _cmd_sweep, "exponent-estimation sweep"),
        ("joint", _cmd_sweep, "joint location/exponent sweep"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        for flag, key in _FLAGS[name].items():
            # an override left off the command line reads None, not False
            override = {"dest": key, "default": None} if key else {}
            p.add_argument(flag, **_FLAG_ARGS[flag], **override)
        p.add_argument(
            "-v", "--verbose", action="store_true", help="verbose diagnostics on stderr"
        )
        p.set_defaults(func=func)

    p = sub.add_parser("constants", help="print the analytic constants")
    p.add_argument("--a", type=float, default=1.0, help="cusp amplitude")
    p.add_argument("--kappa", type=float, default=0.25, help="cusp exponent")
    p.add_argument("--rho", type=float, default=0.5, help="known cusp location")
    p.add_argument("--T", type=float, default=1.0, help="observation horizon")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=_cmd_constants)

    return parser


def _log_error(exc: BaseException) -> None:
    """Log ``exc``, then each error it was raised from (a cell's limit draw, say)."""
    log.error("%s", exc)
    while exc.__cause__ is not None:
        exc = exc.__cause__
        log.error("caused by %s: %s", type(exc).__name__, exc)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; fold usage
        # errors into the domain/config status
        return 0 if exc.code in (0, None) else 1
    # basicConfig adds the handler once per process; the level is per call
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s")
    log.setLevel(logging.DEBUG if args.verbose else logging.INFO)
    try:
        return int(args.func(args))
    except (ConfigError, DomainError, FileNotFoundError) as exc:
        _log_error(exc)
        return 1
    except (NumericalDegeneracyError, ConditionViolationError, ExperimentError) as exc:
        _log_error(exc)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
