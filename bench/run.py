"""cusplab benchmark: end-to-end and per-layer metrics for one workload.

Usage, from the root of a checkout:

    python3 bench/run.py --workload location-bayes --seed 1 --seconds 40 --trace 0

Workloads are defined in ``bench/workloads.py``.  Each iteration is a
fresh ``python3 bench/worker.py`` process that imports cusplab from
``src/``, validates its configs and then runs the workload's CLI calls
through ``cusplab.cli.main``; the same seed gives the same inputs to
every iteration.  Iterations repeat until the next one would end after
``--seconds``.  Before them, a few set-up-only processes sample
``setup_s`` (the first, which may compile bytecode, is discarded).

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics, with tracing off.  With ``--trace 1`` the first
iteration runs untraced and the rest traced (``bench/spans.py``); the
last line carries the per-layer metrics, and ``trace.overhead_s`` is the
traced minus the untraced wall time.  Either way the outputs of every
iteration are checked (``bench/checks.py``) and the line holds
``correct``, ``attempted`` and ``failed``.  Lines before it give the
metrics with units, ``error_frac`` and the provenance of the run; the
same record is written to ``.bench_out/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: Set-up-only processes per run; the first is a discarded warm-up.
SETUP_PROCESSES = 5
#: BLAS runs single-threaded in every worker, so location-bayes is a
#: plain one-thread baseline and joint-exponent's two pool threads do not
#: oversubscribe a two-core machine.  Provenance records the setting.
WORKER_BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}
#: Hard limit for one worker process.
WORKER_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The workload could not be measured; no result is printed."""


# ---------------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------------

def _spawn(workload: str, seed: int, configs: str, out: str, trace: bool,
           setup_only: bool, log_path: str) -> dict:
    """Run one worker; returns its set-up time, duration and parsed result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--configs", configs, "--out", out,
           "--trace", "1" if trace else "0"]
    if setup_only:
        cmd.append("--setup-only")
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=log,
                                text=True, env={**os.environ, **WORKER_BLAS_ENV})
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    outcome = {"setup_s": setup, "process_s": time.perf_counter() - start,
               "ok": ready.strip() == "READY" and proc.returncode == 0}
    if outcome["ok"] and not setup_only:
        lines = rest.strip().splitlines()
        try:
            outcome["result"] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            outcome["ok"] = False
    if not outcome["ok"]:
        with open(log_path, encoding="utf-8") as log:
            sys.stderr.write(f"worker failed (exit {proc.returncode}):\n{log.read()[-4000:]}\n")
    return outcome


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def _read_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as handle:
        return [
            {"replication": int(r["replication"]), "epsilon": float(r["epsilon"]),
             "estimator": r["estimator"], "estimate": float(r["estimate"]),
             "failed": not math.isfinite(float(r["estimate"])), "line": tuple(r.values())}
            for r in csv.DictReader(handle)
        ]


def _check_sweep(workload: str, seed: int, outs: list) -> tuple[int, int, dict]:
    """(attempted, failed, local-scan diagnostic) over all iterations' rows."""
    spec = workloads.SWEEPS[workload]
    # two rows per replication: mle and bayes, or joint_rho and joint_kappa
    expected = 2 * workloads.units_per_iteration(workload)
    stem = spec["scenario"].replace("-", "_")
    reference = None
    verdicts = checks.Verdicts()
    attempted = failed = 0
    for out in outs:
        path = os.path.join(out, f"{stem}_samples.csv") if out else None
        if path is None or not os.path.exists(path):
            attempted += expected
            failed += expected
            continue
        rows = _read_rows(path)
        if reference is None:
            reference = rows
            check = (checks.check_joint_rows if spec["scenario"] == "joint"
                     else checks.check_location_rows)
            verdicts = check(rows, spec, seed)
        attempted += max(expected, len(rows))
        failed += max(0, expected - len(rows))
        for i, row in enumerate(rows):
            key = (row["replication"], row["estimator"])
            same = i < len(reference) and reference[i]["line"] == row["line"]
            failed += int(row["failed"] or not same or verdicts.get(key, False))
    return attempted, failed, {"local_scan_misses": verdicts.local_misses,
                               "local_scan_checked": verdicts.local_checked}


def _load_reference() -> dict:
    with np.load(os.path.join(HERE, "reference.npz")) as data:
        return {key: data[key] for key in data.files}


def _close(value, expected, rel: float) -> bool:
    return value is not None and abs(value - expected) <= rel * abs(expected)


def _check_limit_call(argv: list, stdout: str, ref: dict) -> bool:
    """True when one constants / misspec / limit-law output is correct."""
    try:
        record = json.loads(stdout)
    except json.JSONDecodeError:
        return False
    if argv[0] == "constants":
        tag = f"{record['kappa']:.2f}"
        return (_close(record["gamma_sq"], ref[f"gamma_sq_{tag}"], 1e-7)
                and _close(record["fisher_kappa"], ref[f"fisher_kappa_{tag}"], 1e-7))
    if argv[0] == "misspec":
        tag = f"{record['kappa']:.2f}"
        return (abs(record["theta_hat"] - ref[f"theta_hat_{tag}"]) <= 1e-6
                and _close(record["curvature_closed"], ref[f"curvature_{tag}"], 1e-3))
    with open(argv[argv.index("--config") + 1], encoding="utf-8") as handle:
        tag = f"{json.load(handle)['kappa']:.2f}"
    with open(record["csv"], encoding="utf-8", newline="") as handle:
        table = list(csv.DictReader(handle))
    if record["law"] == "xi":
        columns = {"xi_hat": "xi_hat", "xi_tilde": "xi_tilde"}
    else:
        if not _close(record["curvature"], ref[f"curvature_{tag}"], 1e-3):
            return False
        columns = {"zeta_hat": "zeta"}
    for column, name in columns.items():
        sample = np.array([float(r[column]) for r in table])
        expect = ref[f"{name}_{tag}"]
        if sample.size != record["count"] or not np.isfinite(sample).all():
            return False
        if checks.ks_statistic(sample, expect) > checks.ks_critical(sample.size, expect.size):
            return False
    return True


def _check_limit_laws(results: list) -> tuple[int, int]:
    ref = _load_reference()
    per_iteration = 4 * len(workloads.LIMIT_KAPPAS)
    attempted = failed = 0
    for result in results:
        attempted += per_iteration
        if result is None:
            failed += per_iteration
            continue
        for call in result["calls"]:
            ok = call["rc"] == 0 and _check_limit_call(call["argv"], call["stdout"], ref)
            failed += int(not ok)
    return attempted, failed


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "cusplab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _blas() -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "vendor": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": WORKER_BLAS_ENV,
    }


def provenance(seed: int) -> dict:
    import scipy

    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
    }


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def _per_layer(traced: list, untraced_wall: float) -> tuple[dict, dict]:
    """Median per-layer times over traced iterations; counts from the first."""
    layers = [spans.per_layer(r["trace"]) for r in traced]
    metrics = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if spans.is_count(name):
            if len(set(values)) != 1:
                sys.stderr.write(f"count {name} differs between iterations: {values}\n")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    traced_wall = statistics.median([r["wall_s"] for r in traced])
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    self_sum = statistics.median([sum(r["trace"]["self_s"].values()) for r in traced])
    extra = {"traced_wall_s": traced_wall, "self_time_sum_s": self_sum,
             "unattributed_s": traced_wall - self_sum}
    return metrics, extra


def metric_units(trace: bool) -> dict:
    """Names and units of the metrics one run reports, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    base = os.path.join(ROOT, ".bench_out", workload)
    shutil.rmtree(base, ignore_errors=True)
    configs = os.path.join(base, "configs")
    workloads.write_configs(workload, configs)
    log = os.path.join(base, "worker.log")

    setups = []
    for i in range(SETUP_PROCESSES):
        sample = _spawn(workload, seed, configs, base, False, True, log)
        if not sample["ok"]:
            raise BenchError("set-up of the workload failed")
        if i > 0:
            setups.append(sample["setup_s"])

    iterations = []
    start = time.perf_counter()
    while True:
        k = len(iterations)
        out = os.path.join(base, f"iter_{k}")
        outcome = _spawn(workload, seed, configs, out, trace and k > 0, False, log)
        outcome["out"] = out
        iterations.append(outcome)
        if not outcome["ok"]:
            break
        setups.append(outcome["setup_s"])
        elapsed = time.perf_counter() - start
        if len(iterations) >= (2 if trace else 1) and elapsed + outcome["process_s"] > seconds:
            break

    results = [it.get("result") for it in iterations]
    if workload in workloads.SWEEPS:
        outs = [it["out"] if it["ok"] and it["result"]["calls"][0]["rc"] == 0 else None
                for it in iterations]
        attempted, failed, diagnostic = _check_sweep(workload, seed, outs)
    else:
        attempted, failed = _check_limit_laws(results)
        diagnostic = {}

    ok = [r for r in results if r is not None]
    if len(ok) < (2 if trace else 1):
        raise BenchError("the workload did not complete; see the worker log above")
    walls = [r["wall_s"] for r in ok]
    units = workloads.units_per_iteration(workload)
    record = {
        "workload": workload,
        "iterations": len(iterations),
        "units_per_iteration": units,
        "provenance": provenance(seed),
        "attempted": attempted,
        "failed": failed,
        "error_frac": failed / attempted,
        **diagnostic,
    }
    if trace:
        metrics, extra = _per_layer(ok[1:], ok[0]["wall_s"])
        record.update(extra)
        record["trace_overhead_s"] = metrics["trace.overhead_s"]
    else:
        record["trace_overhead_s"] = None  # measured by --trace 1 runs only
        metrics = {
            "work_per_s": statistics.median([units / w for w in walls]),
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in ok]),
        }
        record["setup_samples_s"] = setups
    record["metrics"] = {name: {"value": metrics[name], "unit": unit}
                         for name, unit in metric_units(trace).items()}
    with open(os.path.join(base, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cusplab", "__init__.py")):
        sys.stderr.write(f"no cusplab sources under {ROOT}/src; run from a checkout\n")
        return 2

    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    print(f"workload {record['workload']} seed {args.seed}: {record['iterations']} "
          f"iteration(s) of {record['units_per_iteration']} units")
    for name, metric in record["metrics"].items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'error_frac':40s} {record['error_frac']:>16.6g} ratio "
          f"({record['failed']} of {record['attempted']} operations failed or incorrect)")
    if "local_scan_misses" in record:
        print(f"  diagnostic: {record['local_scan_misses']} of {record['local_scan_checked']} "
              f"checked MLEs have a better point within {checks.SCAN_STEPS} final steps")
    if args.trace:
        print(f"  self times sum to {record['self_time_sum_s']:.4f} s of traced wall "
              f"{record['traced_wall_s']:.4f} s; tracing overhead "
              f"{record['trace_overhead_s']:.4f} s")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    if record["failed"]:
        sys.stderr.write("outputs failed the correctness check\n")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
