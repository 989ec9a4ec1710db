"""Outside-in tracing of cusplab: spans and counts around public functions.

``install(recorder)`` replaces public names in the cusplab modules with
wrappers that open a span for the call and read counts off its arguments
and return value.  Nothing under ``src/`` changes: the wrappers are bound
over the module attributes the callers look up at call time, e.g.
``cusplab.experiments.mle`` (which ``run_experiment`` calls) rather than
``cusplab.estimators.mle``.

A span belongs to one layer (a cusplab module).  Its parent is the
innermost open span of the same thread; a span opened in a pool thread
with nothing open in that thread takes the innermost open span of the
main thread as parent.  Self time of a span is its duration minus the
part of its interval its children cover (a union, so children running in
parallel threads are not counted twice).  Busy time of a layer is the sum
of its spans' durations over all threads.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

LAYERS = (
    "cli", "experiments", "estimators", "signal_models",
    "limit_laws", "misspec_analysis", "path_sim",
)

_TIMED_RNG_METHODS = ("standard_normal", "normal")


class Recorder:
    """Keeps spans and counts in memory until the run reports them."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, layer, name, start, end, parent]
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._seen: set = set()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            span = [len(self.spans), layer, name, time.perf_counter(), None, parent]
            self.spans.append(span)
        stack.append(span[0])
        return span

    def close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack().pop()

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def first_seen(self, key) -> bool:
        """True the first time ``key`` is passed, False after."""
        with self._lock:
            new = key not in self._seen
            self._seen.add(key)
        return new

    def peak(self, key: str, value: float) -> None:
        with self._lock:
            self.maxima[key] = max(self.maxima[key], value)

    def summary(self) -> dict:
        """Per-name busy time, per-layer self time and the recorded counts."""
        children = defaultdict(list)
        for span in self.spans:
            if span[5] is not None:
                children[span[5]].append((span[3], span[4]))
        busy: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        self_time: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        for sid, layer, name, start, end, _ in self.spans:
            busy[name] += end - start
            calls[name] += 1
            covered = _union_length(children.get(sid, ()), start, end)
            self_time[layer] += (end - start) - covered
        root = sum(s[4] - s[3] for s in self.spans if s[5] is None)
        return {
            "busy_s": dict(busy),
            "calls": dict(calls),
            "self_s": self_time,
            "root_s": root,
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _wrap(recorder: Recorder, layer: str, name: str, fn, after=None):
    """Span around ``fn``; ``after(args, kwargs, result)`` records counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(layer, name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


class _TimedGenerator:
    """Generator proxy that records a path_sim span around each draw."""

    def __init__(self, recorder: Recorder, rng) -> None:
        self._recorder = recorder
        self._rng = rng

    def __getattr__(self, attr):
        value = getattr(self._rng, attr)
        if attr in _TIMED_RNG_METHODS:
            return _wrap(self._recorder, "path_sim", "path_sim.draw", value)
        return value


def _patch(targets, attr: str, make) -> None:
    """Replace ``attr`` on every target module/class that defines it."""
    for target in targets:
        if hasattr(target, attr):
            setattr(target, attr, make(getattr(target, attr)))


def install(recorder: Recorder) -> None:
    """Wrap the public cusplab functions of every layer with spans."""
    import numpy as np

    import cusplab.cli as cli
    import cusplab.experiments as experiments
    import cusplab.limit_laws as limit_laws
    from cusplab.signal_models import CuspSignal

    rec = recorder
    users = (cli, experiments)

    # cli -----------------------------------------------------------------
    _patch([cli], "main", lambda f: _wrap(rec, "cli", "cli.main", f))

    # experiments ---------------------------------------------------------
    def count_rows(args, kwargs, report):
        rec.add("experiments.rows", len(report.rows))

    _patch([cli], "run_and_write",
           lambda f: _wrap(rec, "experiments", "experiments.run_and_write", f))
    _patch([experiments], "run_experiment",
           lambda f: _wrap(rec, "experiments", "experiments.run", f, count_rows))
    for writer in ("write_rows_csv", "write_report_json"):
        _patch([experiments], writer,
               lambda f: _wrap(rec, "experiments", "experiments.write", f))

    # estimators ----------------------------------------------------------
    def location_result(is_bayes: bool):
        def after(args, kwargs, res):
            rec.add("estimators.results", 1)
            rec.add("estimators.boundary_hits", int(res.boundary))
            rec.add("estimators.refine_levels", res.refinement_levels)
            if is_bayes:
                rec.peak("estimators.bayes_boundary_mass_max", res.boundary_mass)
            else:
                rec.peak("estimators.final_step_over_rate", res.grid_step / res.rate)
        return after

    def joint_result(args, kwargs, res):
        rec.add("estimators.results", 1)
        rec.add("estimators.boundary_hits", int(res.boundary))
        rec.add("estimators.refine_levels", res.refinement_levels)
        rec.peak("estimators.final_step_over_rate", res.rho_step / res.rho_rate)

    for name in ("mle", "pseudo_mle", "bayes"):
        _patch(users, name, lambda f, n=name: _wrap(
            rec, "estimators", f"estimators.{n}", f, location_result(n == "bayes")))
    _patch(users, "joint_mle",
           lambda f: _wrap(rec, "estimators", "estimators.joint_mle", f, joint_result))

    # signal_models: computed count of |t - theta|**kappa evaluations -----
    def value_elems(args, kwargs, out):
        rec.add("signal_models.value_elems", int(np.size(out)))

    CuspSignal.value = _wrap(rec, "signal_models", "signal_models.value",
                             CuspSignal.value, value_elems)

    # limit_laws ----------------------------------------------------------
    def factor(hurst: float, window) -> None:
        key = (round(hurst, 12), round(window.U, 12), round(window.du, 12))
        m = window.node_count - 1  # the origin is pinned, not factorized
        if rec.first_seen(key):
            rec.add("limit_laws.factor_flops_computed", m**3 / 3.0)
            rec.add("limit_laws.factor_bytes_computed", 8.0 * m * m)

    def xi_batch(args, kwargs, out):
        gamma_sq, hurst, count = args[:3]
        window = kwargs.get("window") or limit_laws.default_xi_window(gamma_sq, hurst)
        factor(hurst, window)
        rec.add("limit_laws.draws", count)
        rec.add("limit_laws.fbm_nodes", window.node_count * count)
        rec.add("limit_laws.edge_flags", int(np.sum(out[2])))

    def zeta_batch(args, kwargs, out):
        noise_scale, curvature, hurst, count = args[:4]
        window = kwargs.get("window") or limit_laws.default_zeta_window(
            noise_scale, curvature, hurst)
        factor(hurst, window)
        rec.add("limit_laws.draws", count)
        rec.add("limit_laws.fbm_nodes", window.node_count * count)
        rec.add("limit_laws.edge_flags", int(np.sum(out[1])))

    _patch(users, "sample_xi_batch", lambda f: _wrap(
        rec, "limit_laws", "limit_laws.xi_batch", f, xi_batch))
    _patch(users, "sample_zeta_batch", lambda f: _wrap(
        rec, "limit_laws", "limit_laws.zeta_batch", f, zeta_batch))
    for name in ("gamma_squared", "fisher_info_kappa"):
        _patch(users, name, lambda f: _wrap(rec, "limit_laws", "limit_laws.constants", f))

    # misspec_analysis ----------------------------------------------------
    _patch(users, "solve_theta_hat",
           lambda f: _wrap(rec, "misspec_analysis", "misspec_analysis.solve", f))

    # path_sim: generator construction plus every draw from it -------------
    def timed_rng(fn):
        inner = _wrap(rec, "path_sim", "path_sim.rng", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _TimedGenerator(rec, inner(*args, **kwargs))

        return wrapper

    _patch(users, "replication_rng", timed_rng)


def per_layer(summary: dict) -> dict:
    """Map a Recorder summary onto the benchmark's per-layer metric names."""
    busy, calls = summary["busy_s"], summary["calls"]
    counts, maxima, self_s = summary["counts"], summary["maxima"], summary["self_s"]
    results = counts.get("estimators.results", 0.0)
    draws = counts.get("limit_laws.draws", 0.0)
    return {
        "signal_models.value_s": busy.get("signal_models.value", 0.0),
        "signal_models.value_calls": calls.get("signal_models.value", 0),
        "signal_models.value_elems": counts.get("signal_models.value_elems", 0.0),
        "estimators.mle_s": busy.get("estimators.mle", 0.0),
        "estimators.mle_calls": calls.get("estimators.mle", 0),
        "estimators.bayes_s": busy.get("estimators.bayes", 0.0),
        "estimators.bayes_calls": calls.get("estimators.bayes", 0),
        "estimators.joint_mle_s": busy.get("estimators.joint_mle", 0.0),
        "estimators.joint_mle_calls": calls.get("estimators.joint_mle", 0),
        "estimators.self_s": self_s["estimators"],
        "estimators.refine_levels": counts.get("estimators.refine_levels", 0.0),
        "estimators.boundary_frac": (
            counts.get("estimators.boundary_hits", 0.0) / results if results else 0.0),
        "estimators.bayes_boundary_mass_max": maxima.get(
            "estimators.bayes_boundary_mass_max", 0.0),
        "estimators.final_step_over_rate": maxima.get(
            "estimators.final_step_over_rate", 0.0),
        "limit_laws.xi_batch_s": busy.get("limit_laws.xi_batch", 0.0),
        "limit_laws.zeta_batch_s": busy.get("limit_laws.zeta_batch", 0.0),
        "limit_laws.constants_s": busy.get("limit_laws.constants", 0.0),
        "limit_laws.draws": draws,
        "limit_laws.fbm_nodes": counts.get("limit_laws.fbm_nodes", 0.0),
        "limit_laws.factor_flops_computed": counts.get(
            "limit_laws.factor_flops_computed", 0.0),
        "limit_laws.factor_bytes_computed": counts.get(
            "limit_laws.factor_bytes_computed", 0.0),
        "limit_laws.edge_frac": (
            counts.get("limit_laws.edge_flags", 0.0) / draws if draws else 0.0),
        "misspec_analysis.solve_s": busy.get("misspec_analysis.solve", 0.0),
        "misspec_analysis.solve_calls": calls.get("misspec_analysis.solve", 0),
        "path_sim.rng_s": self_s["path_sim"],
        "path_sim.rng_calls": calls.get("path_sim.rng", 0),
        "experiments.run_s": busy.get("experiments.run", 0.0),
        "experiments.self_s": self_s["experiments"],
        "experiments.write_s": busy.get("experiments.write", 0.0),
        "experiments.rows": counts.get("experiments.rows", 0.0),
        "cli.self_s": self_s["cli"],
    }


def is_count(name: str) -> bool:
    """Counts repeat exactly at one seed; times do not."""
    return not name.endswith("_s")

