"""The figures pipeline, traced from outside the program.

Makes the same calls into the program's layers, in the same order and
with the same arguments, as ``repro figures DIR --jobs J --store S``
(``repro.cli._cmd_figures``), with a benchmark span around each call
and a real metrics registry passed through ``metrics=``.  The CSVs it
writes pass the same gates as the CLI's, which keeps this copy honest.

Writes ``{"spans": [[name, seconds], ...], "registry": {...},
"runner_stats": [...]}`` to ``--report``.  Spans are top level and do
not overlap; their sum subtracted from the process wall is the
unattributed time.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402

SPANS = []


@contextlib.contextmanager
def span(name):
    started = time.perf_counter()
    try:
        yield
    finally:
        SPANS.append([name, time.perf_counter() - started])


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--report", required=True)
    args = parser.parse_args()
    SPANS.append(["startup", time.perf_counter() - STARTED])

    with span("import"):
        from repro.analysis.fig_data import (
            export_fig1_prices,
            export_fig2_transfers,
            export_fig4_leasing,
            export_fig5_rules,
            export_fig6_runner_stats,
            export_fig6_series,
        )
        from repro.delegation import (
            InferenceConfig,
            WorldStreamFactory,
            evaluate_rules_on_rpki,
            run_inference,
        )
        from repro.market.leasing import FIRST_SCRAPE, SECOND_WAVE
        from repro.obs.metrics import MetricsRegistry
        from repro.simulation import (
            World,
            internet_scenario,
            paper_scenario,
            small_scenario,
        )

    scenarios = {"small": small_scenario, "paper": paper_scenario,
                 "internet": internet_scenario}
    base = pathlib.Path(args.out)
    metrics = MetricsRegistry()
    with span("simulation.world"):
        world = World(scenarios[args.scale](seed=args.seed))
    with span("simulation.priced_transactions"):
        priced = world.priced_transactions()
    with span("analysis.fig1"):
        export_fig1_prices(priced, base / "fig1.csv", metrics=metrics)
    with span("simulation.transfer_ledger"):
        ledger = world.transfer_ledger()
    with span("analysis.fig2"):
        export_fig2_transfers(ledger, base / "fig2.csv", metrics=metrics)
    with span("simulation.scrape_log"):
        scrape_log = world.scrape_log()
    with span("analysis.fig4"):
        export_fig4_leasing(scrape_log, FIRST_SCRAPE, SECOND_WAVE,
                            base / "fig4.csv", metrics=metrics)
    with span("simulation.rpki"):
        rpki = world.rpki()
    with span("delegation.rpki_eval"):
        evaluations = evaluate_rules_on_rpki(
            rpki, (2, 5, 10, 20, 30, 50, 70, 90), (0, 1, 2, 3),
            jobs=args.jobs,
        )
    with span("analysis.fig5"):
        export_fig5_rules(evaluations, base / "fig5.csv", metrics=metrics)
    with span("simulation.as2org"):
        as2org = world.as2org()
    factory = WorldStreamFactory(world.config)
    results = {}
    for name, config, extra in (
        ("extended", InferenceConfig.extended(), {"as2org": as2org}),
        ("baseline", InferenceConfig.baseline(), {}),
    ):
        with span("delegation.run_inference"):
            results[name] = run_inference(
                factory, world.config.bgp_start, world.config.bgp_end,
                config, jobs=args.jobs, metrics=metrics,
                store_dir=args.store, **extra,
            )
    with span("analysis.fig6"):
        export_fig6_series(results["extended"], results["baseline"],
                           base / "fig6.csv", metrics=metrics)
    with span("analysis.fig6_runner"):
        export_fig6_runner_stats(results, base / "fig6_runner.csv",
                                 metrics=metrics)
    runner_stats = []
    for result in results.values():
        stats = result.runner_stats
        runner_stats.append({
            "days_total": stats.days_total,
            "days_computed": stats.days_computed,
            "days_from_cache": stats.days_from_cache,
        })
    pathlib.Path(args.report).write_text(json.dumps({
        "spans": SPANS,
        "registry": metrics.to_json(),
        "runner_stats": runner_stats,
    }))


if __name__ == "__main__":
    main()
