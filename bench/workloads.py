"""The three workloads of the cusplab benchmark and the CLI calls they make.

* ``location-bayes``: ``cusplab rate`` on scenario ``cusp-bayes``.  Most
  of its time is ``CuspSignal.value`` inside the MLE refinement and the
  Bayes fine grid; one cold fBm factor for the limit-law comparison.
  Single-threaded, so it is also the plain baseline.
* ``joint-exponent``: ``cusplab joint`` on two pool threads.  Its cost is
  tens of thousands of one-row joint field scans per cell; it never calls
  ``Signal.value`` during refinement, so it bypasses whatever speeds up
  the location field and exercises whatever batches the exponent scans.
* ``limit-laws``: ``cusplab constants``, ``misspec`` and ``limit-law``
  (xi and zeta) for three exponents in one process.  Six cold
  4001-node fBm factors and their draws; no estimator runs.

The seed given on the command line is passed to the program as its
master seed; everything else is fixed here.
"""

from __future__ import annotations

import json
import os

LOCATION_SIGNAL = {
    "a": 1.0, "kappa": 0.25, "T": 1.0, "theta0": 0.5, "theta_bounds": [0.35, 0.65],
}
JOINT_SIGNAL = {
    "a": 1.0, "rho0": 0.5, "kappa0": 0.25, "T": 1.0,
    "theta_bounds": [0.35, 0.65], "kappa_bounds": [0.05, 0.45],
}
MISSPEC_SIGNAL = {
    "a": 1.0, "T": 1.0, "center": 0.5, "delta": 0.05, "theta_bounds": [0.35, 0.65],
}
LIMIT_KAPPAS = (0.15, 0.25, 0.35)
LIMIT_DRAWS = 2000

SWEEPS = {
    "location-bayes": {
        "command": "rate",
        "scenario": "cusp-bayes",
        "epsilons": [0.01, 0.005],
        "replications": 40,
        "n_steps": 10_000,
        "limit_samples": 2000,
        "threads": 1,
        "signal": LOCATION_SIGNAL,
        # replications (per level) rescored by the correctness check
        "checked": [0, 8, 16, 24, 32],
    },
    "joint-exponent": {
        "command": "joint",
        "scenario": "joint",
        "epsilons": [0.01],
        "replications": 100,
        "n_steps": 4000,
        "limit_samples": 2000,
        "threads": 2,
        "signal": JOINT_SIGNAL,
        "checked": [0, 10, 20, 30, 40, 50, 60, 70, 80, 90],
    },
}

NAMES = ("location-bayes", "joint-exponent", "limit-laws")

_SWEEP_KEYS = ("scenario", "epsilons", "replications", "n_steps", "limit_samples",
               "threads", "signal")


def units_per_iteration(workload: str) -> int:
    """Replications (one path through all its estimators) or limit-law draws."""
    if workload in SWEEPS:
        spec = SWEEPS[workload]
        return spec["replications"] * len(spec["epsilons"])
    return 2 * LIMIT_DRAWS * len(LIMIT_KAPPAS)


def _write_json(path: str, data: dict) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    return path


def write_configs(workload: str, config_dir: str) -> None:
    """Write the JSON config files the workload's CLI calls read."""
    os.makedirs(config_dir, exist_ok=True)
    if workload in SWEEPS:
        spec = SWEEPS[workload]
        _write_json(os.path.join(config_dir, "sweep.json"),
                    {key: spec[key] for key in _SWEEP_KEYS})
        return
    for kappa in LIMIT_KAPPAS:
        _write_json(os.path.join(config_dir, f"misspec_{kappa}.json"),
                    {**MISSPEC_SIGNAL, "kappa": kappa})
        _write_json(os.path.join(config_dir, f"xi_{kappa}.json"),
                    {"law": "xi", "a": 1.0, "kappa": kappa, "count": LIMIT_DRAWS})
        _write_json(os.path.join(config_dir, f"zeta_{kappa}.json"),
                    {"law": "zeta", "kappa": kappa, "count": LIMIT_DRAWS,
                     **MISSPEC_SIGNAL})


def commands(workload: str, seed: int, config_dir: str, out_dir: str) -> list[list[str]]:
    """The ``cusplab`` argument lists one iteration runs, in order."""
    if workload in SWEEPS:
        return [[SWEEPS[workload]["command"],
                 "--config", os.path.join(config_dir, "sweep.json"),
                 "--seed", str(seed), "--out", out_dir]]
    argvs = []
    for kappa in LIMIT_KAPPAS:
        out = os.path.join(out_dir, f"kappa_{kappa}")
        argvs += [
            ["constants", "--kappa", str(kappa)],
            ["misspec", "--config", os.path.join(config_dir, f"misspec_{kappa}.json"),
             "--out", out],
            ["limit-law", "--config", os.path.join(config_dir, f"xi_{kappa}.json"),
             "--seed", str(seed), "--out", out],
            ["limit-law", "--config", os.path.join(config_dir, f"zeta_{kappa}.json"),
             "--seed", str(seed), "--out", out],
        ]
    return argvs
