"""Tests of the benchmark itself: run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from cusplab.experiments import experiment_config_from_dict, run_experiment  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)

# A traced process running one small call of every kind the workloads make.
_TRACED_SNIPPET = """
import contextlib, io, json, os, sys
sys.path[:0] = [{here!r}, {src!r}]
import spans
from cusplab import cli
rec = spans.Recorder()
spans.install(rec)
out = {out!r}
with open(os.path.join(out, "sweep.json"), "w") as fh:
    json.dump({{"scenario": "cusp-bayes", "epsilons": [0.05], "replications": 4,
               "n_steps": 400, "limit_samples": 20}}, fh)
with open(os.path.join(out, "zeta.json"), "w") as fh:
    json.dump({{"law": "zeta", "kappa": 0.25, "count": 20}}, fh)
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["rate", "--config", os.path.join(out, "sweep.json"), "--seed", "3",
                  "--out", out],
                 ["limit-law", "--config", os.path.join(out, "zeta.json"), "--seed", "3",
                  "--out", out]):
        assert cli.main(argv) == 0
print(json.dumps(spans.per_layer(rec.summary())))
"""


def _traced_layers(tmp_path) -> dict:
    code = _TRACED_SNIPPET.format(here=HERE, src=os.path.join(ROOT, "src"),
                                  out=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# metric names
# ---------------------------------------------------------------------------

def test_metric_names_are_valid_and_unique():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)


def test_per_layer_names_present_for_every_workload(tmp_path):
    # per_layer() fills every name whether or not a layer ran, so the
    # empty trace (limit-laws never runs an estimator) and a real one
    # both carry the full set.
    expected = {m["name"] for m in BENCHMARK["per_layer"]}
    empty = spans.per_layer(spans.Recorder().summary())
    traced = _traced_layers(tmp_path)
    for layers in (empty, traced):
        assert set(layers) | {"trace.overhead_s"} == expected
    assert traced["estimators.mle_calls"] == traced["estimators.bayes_calls"] == 4
    assert traced["signal_models.value_calls"] > 0
    assert traced["misspec_analysis.solve_calls"] == 1
    assert traced["limit_laws.draws"] == 20 + 20
    assert traced["path_sim.rng_calls"] == 4 + 1 + 1


def test_traced_counts_repeat_exactly(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first, second = _traced_layers(tmp_path / "a"), _traced_layers(tmp_path / "b")
    counts = [name for name in first if spans.is_count(name)]
    assert counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


# ---------------------------------------------------------------------------
# the correctness check
# ---------------------------------------------------------------------------

LOCATION_SPEC = {
    "scenario": "cusp-bayes", "epsilons": [0.01], "replications": 6, "n_steps": 2000,
    "limit_samples": 20, "threads": 1, "signal": workloads.LOCATION_SIGNAL,
}
JOINT_SPEC = {
    "scenario": "joint", "epsilons": [0.01], "replications": 4, "n_steps": 2000,
    "limit_samples": 20, "threads": 1, "signal": workloads.JOINT_SIGNAL,
}


def _rows(spec: dict, seed: int) -> list[dict]:
    sweep = {key: value for key, value in spec.items() if key != "checked"}
    config = experiment_config_from_dict({**sweep, "master_seed": seed})
    return [dict(r) for r in run_experiment(config).rows]


def _shifted(rows, estimator, amount):
    return [{**r, "estimate": r["estimate"] + amount} if r["estimator"] == estimator
            else r for r in rows]


@pytest.mark.parametrize("seed", [0, 5, 123456])
def test_location_check_passes_the_program_and_flags_shifts(seed):
    spec = {**LOCATION_SPEC, "checked": list(range(LOCATION_SPEC["replications"]))}
    rows = _rows(spec, seed)
    assert not any(checks.check_location_rows(rows, spec, seed).values())
    rate = checks.location_rate(spec["epsilons"][0], spec["signal"]["kappa"] + 0.5)
    grid = checks.coarse_nodes(0.35, 0.65, rate)
    mle_step = (grid[1] - grid[0]) / 100.0  # two refinement levels
    bayes_step = rate / 10.0  # the fine grid of the posterior mean
    for estimator, step in (("mle", mle_step), ("bayes", bayes_step)):
        for sign in (1.0, -1.0):
            verdicts = checks.check_location_rows(
                _shifted(rows, estimator, sign * 10 * step), spec, seed)
            flagged = [wrong for (_, est), wrong in verdicts.items() if est == estimator]
            assert flagged and all(flagged), (estimator, sign)


@pytest.mark.parametrize("seed", [0, 77])
def test_joint_check_passes_the_program_and_flags_shifts(seed):
    spec = {**JOINT_SPEC, "checked": list(range(JOINT_SPEC["replications"]))}
    rows = _rows(spec, seed)
    assert not any(checks.check_joint_rows(rows, spec, seed).values())
    rho_step, kappa_step = 0.3 / 200 / 100, 0.4 / 8 / 1000  # final joint steps at eps=0.01
    for estimator, step in (("joint_rho", rho_step), ("joint_kappa", kappa_step)):
        for sign in (1.0, -1.0):
            verdicts = checks.check_joint_rows(
                _shifted(rows, estimator, sign * 10 * step), spec, seed)
            assert verdicts and all(verdicts.values()), (estimator, sign)


def test_failed_rows_count_as_wrong():
    spec = {**LOCATION_SPEC, "checked": [0]}
    rows = _rows(spec, 4)
    rows = [{**r, "failed": True} if r["replication"] == 0 else r for r in rows]
    assert all(checks.check_location_rows(rows, spec, 4).values())


def test_ks_check_accepts_the_reference_law_and_rejects_a_rescaled_one():
    ref = run._load_reference()
    sample = ref["xi_tilde_0.25"]
    half = sample[::2]
    crit = checks.ks_critical(half.size, sample.size)
    assert checks.ks_statistic(half, sample) <= crit
    assert checks.ks_statistic(1.5 * half, sample) > crit


def test_reference_constants_match_the_program():
    from cusplab.limit_laws import fisher_info_kappa, gamma_squared

    ref = run._load_reference()
    for kappa in workloads.LIMIT_KAPPAS:
        tag = f"{kappa:.2f}"
        assert gamma_squared(1.0, kappa) == pytest.approx(float(ref[f"gamma_sq_{tag}"]),
                                                          rel=1e-7)
        assert fisher_info_kappa(1.0, 0.5, 1.0, kappa) == pytest.approx(
            float(ref[f"fisher_kappa_{tag}"]), rel=1e-7)


# ---------------------------------------------------------------------------
# the driver end to end
# ---------------------------------------------------------------------------

def _bench(seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "joint-exponent",
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_two_runs_at_one_seed_agree_on_error_frac_and_counts():
    first, second = _bench(9), _bench(9)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert first["attempted"] == second["attempted"]
    counts = [name for name in first["metrics"] if spans.is_count(name)]
    assert {n: first["metrics"][n] for n in counts} == {
        n: second["metrics"][n] for n in counts}


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".npz")):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "limit-laws", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_checks_do_not_import_the_program():
    code = (f"import sys; sys.path.insert(0, {HERE!r}); import checks; "
            "print(any(m.startswith('cusplab') for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout.strip()
    assert out == "False"
