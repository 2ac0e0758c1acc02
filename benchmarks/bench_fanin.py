"""Fan-in smoke benchmark: shared-memory results at internet scale.

Runs the internet preset's multi-year window (subsampled with
``step_days``) through the runner's result-transport matrix — whole
days, per-/8 day shards, the incremental delta sweep, and a cold then
warm shard store — and asserts every arm byte-identical, with equal
attrition counters, to the sequential object-kernel reference.

The warm store must serve every day from a mapped result shard
(``store.result_hits``), no arm may fall back to pickled payloads
(``fanin.pickled_kb == 0``), and a final ``/dev/shm`` sweep asserts
the run leaked no segments.  Timings, transport gauges, and the warm
run's parent heap peak (tracemalloc, parent only — segment views are
mapped, not allocated) land in ``BENCH_fanin.json``.
"""

import pathlib
import time

from repro.delegation import (
    DelegationInference,
    InferenceConfig,
    WorldStreamFactory,
    run_inference,
    write_daily_delegations,
)
from repro.obs.metrics import MetricsRegistry
from repro.simulation import World, internet_scenario

#: Sample the 882-day window every N days (10 sampled days).
STEP_DAYS = 90

SHM_DIR = pathlib.Path("/dev/shm")


def _daily_bytes(result, path):
    write_daily_delegations(result.daily, path)
    return path.read_bytes()


def _segments():
    if not SHM_DIR.is_dir():
        return set()
    return {path.name for path in SHM_DIR.glob("rpfi*")}


def _max_peak_kb(metrics):
    peaks = {
        name: value
        for name, value in metrics.gauges().items()
        if name.startswith("profile.") and name.endswith(".peak_kb")
    }
    return max(peaks.values()), peaks


def _counters(result):
    return (
        result.pairs_seen,
        result.pairs_dropped_visibility,
        result.pairs_dropped_origin,
        result.delegations_dropped_same_org,
        result.sanitize_stats.bogon_prefix,
    )


def test_fanin_internet_sweep(record_bench_json, tmp_path):
    scenario = internet_scenario()
    factory = WorldStreamFactory(scenario)
    world = World(scenario)
    as2org = world.as2org()
    start, end = scenario.bgp_start, scenario.bgp_end
    days = len(range(0, (end - start).days, STEP_DAYS))
    store_dir = tmp_path / "store"
    segments_before = _segments()
    timings = {}

    # The oracle: the sequential object/trie kernel, no runner at all.
    t0 = time.perf_counter()
    reference = DelegationInference(
        InferenceConfig.extended(), as2org, kernel="object"
    ).infer_range(world.stream(), start, end, STEP_DAYS)
    timings["sequential_object"] = time.perf_counter() - t0
    expected = _daily_bytes(reference, tmp_path / "reference.jsonl")
    expected_counters = _counters(reference)
    del world, reference

    def sweep(label, *, profile=False, **kwargs):
        metrics = MetricsRegistry()
        if profile:
            metrics.enable_memory_profile()
        t0 = time.perf_counter()
        result = run_inference(
            factory, start, end, InferenceConfig.extended(),
            as2org=as2org, step_days=STEP_DAYS, jobs=2,
            metrics=metrics, **kwargs,
        )
        if not profile:  # tracemalloc skews wall-clock
            timings[label] = time.perf_counter() - t0
        assert _daily_bytes(
            result, tmp_path / f"{label}.jsonl"
        ) == expected, label
        assert _counters(result) == expected_counters, label
        assert metrics.gauge("fanin.pickled_kb") == 0, label
        return metrics

    # Byte-identity across the transport/scheduling matrix.
    shm_metrics = sweep("shm_columnar")
    assert shm_metrics.gauge("fanin.shm_kb") > 0
    sweep("shm_day_shards4", day_shards=4)
    sweep("incremental_shm", incremental=True)

    # The store: one cold sweep writes input *and* result shards; the
    # warm sweep serves mapped result shards and never computes a day.
    cold_metrics = sweep("cold_store_shm", store_dir=store_dir)
    assert cold_metrics.counter("store.result_writes") == days
    warm_metrics = sweep("warm_store_shm", store_dir=store_dir)
    assert warm_metrics.counter("store.result_hits") == days
    assert warm_metrics.counter("runner.cache.misses") == 0

    # The warm run's parent heap peak, from a separate profiled run.
    peak_metrics = sweep(
        "warm_store_shm_profiled", store_dir=store_dir, profile=True
    )
    warm_peak, warm_peaks = _max_peak_kb(peak_metrics)

    # Every exit path above unlinked its segments.
    assert _segments() == segments_before

    record_bench_json("fanin", {
        "scenario": "internet",
        "window_days": (end - start).days,
        "step_days": STEP_DAYS,
        "sampled_days": days,
        "jobs": 2,
        "byte_identity_vs_sequential_object": sorted(
            label for label in timings if label != "sequential_object"
        ) + ["warm_store_shm_profiled"],
        "timings_s": {
            key: round(value, 3) for key, value in timings.items()
        },
        "transport": {
            "shm_kb": shm_metrics.gauge("fanin.shm_kb"),
            "pickled_kb_under_shm": shm_metrics.gauge(
                "fanin.pickled_kb"
            ),
            "result_shard_writes": cold_metrics.counter(
                "store.result_writes"
            ),
            "result_shard_hits": warm_metrics.counter(
                "store.result_hits"
            ),
        },
        "parent_peak_kb": {
            "warm_shm": warm_peak,
            "warm_shm_stages": warm_peaks,
        },
    })
