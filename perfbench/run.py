"""The repository benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--scale paper|small]

Run from the root of a checkout.  Workloads, metric names and units are
read from ``BENCHMARK.json`` there; see ``README.md`` for what each
measures and why it exists.  Progress goes to stderr; the last
stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from common import (
    ROOT,
    BenchError,
    become_subreaper,
    log,
    make_workdir,
    require_program,
    result_line,
    stop_all,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("paper", "small"),
                        default="paper",
                        help="world preset; 'small' is for the self-tests")
    return parser.parse_args(argv)


def run(args) -> dict:
    """One invocation; returns the result record."""
    require_program()
    become_subreaper()
    workdir = make_workdir(args.workload)
    try:
        if args.workload == "serve-mixed":
            from serve_mixed import ServeRun

            outcome = ServeRun(args.scale, args.seed, args.seconds,
                               workdir).run(bool(args.trace))
        else:
            from figures import FiguresRun

            outcome = FiguresRun(args.workload, args.scale, args.seed,
                                 args.seconds, workdir).run(bool(args.trace))
    finally:
        stop_all()
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {}
    for entry in SPEC["per_layer" if args.trace else "end_to_end"]:
        # A layer the workload does not exercise did no work: 0.
        value, _unit = outcome["metrics"].get(entry["name"], (0, None))
        metrics[entry["name"]] = (value, entry["unit"])
    if args.trace:
        metrics["error_rate"] = (outcome["failed"] / outcome["attempted"],
                                 "ratio")
    outcome["metrics"] = metrics
    return outcome


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        outcome = run(args)
    except BenchError as exc:
        log(f"error: {exc}")
        return 2
    print(result_line(outcome["correct"], outcome["attempted"],
                      outcome["failed"], outcome["metrics"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
