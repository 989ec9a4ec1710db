"""One iteration of a benchmark workload, in a fresh process.

Started by ``run.py``; not meant to be run by hand.  It imports cusplab
from ``src/`` of the checkout it sits in, parses and validates every
config the workload will use, prints ``READY`` (the parent times set-up
up to this line), then runs the workload's CLI calls through
``cusplab.cli.main`` and prints one JSON line: the timed section's wall
time, peak RSS, each call's exit code and standard output, and with
``--trace 1`` the span summary (the spans themselves go to
``spans.json`` in the output directory).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_cusplab():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import cusplab
    import cusplab.cli

    origin = os.path.abspath(cusplab.__file__)
    if not origin.startswith(src + os.sep):
        raise ImportError(f"cusplab imported from {origin}, not from {src}")
    return cusplab.cli


def _validate(cli, argvs: list[list[str]]) -> None:
    """Parse every argument list and config file the timed calls will use."""
    from cusplab.experiments import experiment_config_from_dict

    parser = cli.build_parser()
    for argv in argvs:
        args = parser.parse_args(argv)
        if getattr(args, "config", None) is None:
            continue
        with open(args.config, encoding="utf-8") as handle:
            config = json.load(handle)
        if args.command in ("rate", "joint"):
            experiment_config_from_dict(config)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--configs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, HERE)
    import workloads

    cli = _import_cusplab()
    argvs = workloads.commands(args.workload, args.seed, args.configs, args.out)
    _validate(cli, argvs)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)

    calls = []
    start = time.perf_counter()
    for argv in argvs:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv)
        calls.append({"argv": argv, "rc": code, "stdout": captured.getvalue()})
    wall = time.perf_counter() - start

    result = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": calls,
    }
    if recorder is not None:
        result["trace"] = recorder.summary()
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "spans.json"), "w", encoding="utf-8") as handle:
            json.dump({"columns": ["id", "layer", "name", "start", "end", "parent"],
                       "spans": recorder.spans}, handle)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
