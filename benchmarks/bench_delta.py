"""Multi-day sweep benchmark: full vs. result shards vs. incremental.

The question the delta subsystem exists to answer: once a sweep has
run once, what is the cheapest way to run it again (and to extend it
by a few days)?  Four contenders over the full ≥30-day small-scenario
window:

- ``full_cold`` — the columnar kernel, every day from the stream,
- ``store_warm`` — the shard store's per-day result shards, fully
  primed (one key hash + mmap + zero-copy decode per day),
- ``incremental_cold`` — the delta sweep, journaled, from nothing,
- ``incremental_warm`` — a pure journal replay (parse + row fold per
  day; no stream, no classification, no cover pass).

All four must be byte-identical; the acceptance bar is
``incremental_warm``'s median strictly beating ``store_warm``'s.
Every arm is timed ``REPEATS`` times (the cold arms on a fresh store
or journal each time); medians with their min/max land in
``BENCH_delta.json``.
"""

import itertools

from repro.delegation import (
    InferenceConfig,
    WorldStreamFactory,
    run_inference,
    write_daily_delegations,
)
from repro.simulation import World, small_scenario


def _counters(result):
    return {
        "pairs_seen": result.pairs_seen,
        "pairs_dropped_visibility": result.pairs_dropped_visibility,
        "pairs_dropped_origin": result.pairs_dropped_origin,
        "delegations_dropped_same_org":
            result.delegations_dropped_same_org,
        "bogon_prefix": result.sanitize_stats.bogon_prefix,
    }


def _daily_bytes(result, path):
    write_daily_delegations(result.daily, path)
    return path.read_bytes()


#: Samples per arm; every arm takes milliseconds on the small world.
REPEATS = 5


def test_bench_delta_sweep(record_bench_json, measure, tmp_path):
    scenario = small_scenario()
    world = World(scenario)
    as2org = world.as2org()
    start, end = scenario.bgp_start, scenario.bgp_end
    days = (end - start).days
    assert days >= 30, "acceptance requires a >=30-day sweep"
    factory = WorldStreamFactory(scenario)
    config = InferenceConfig.extended()
    fresh = itertools.count()
    timings = {}

    def run(**kwargs):
        return run_inference(
            factory, start, end, config, as2org=as2org, jobs=1,
            **kwargs,
        )

    def timed(label, fn):
        result, timings[label] = measure(fn, REPEATS)
        return result

    def fresh_dir(name):
        return tmp_path / f"{name}{next(fresh)}"

    store_dir = tmp_path / "store"
    journal_dir = tmp_path / "journal"

    full_cold = timed("full_cold", run)
    timed("store_cold", lambda: run(store_dir=fresh_dir("store")))
    run(store_dir=store_dir)
    store_warm = timed("store_warm", lambda: run(store_dir=store_dir))
    incremental_cold = timed("incremental_cold", lambda: run(
        incremental=True, journal_dir=fresh_dir("journal")
    ))
    run(incremental=True, journal_dir=journal_dir)
    incremental_warm = timed("incremental_warm", lambda: run(
        incremental=True, journal_dir=journal_dir
    ))

    # Byte-identity across every path, counters in exact agreement.
    reference = _daily_bytes(full_cold, tmp_path / "full.jsonl")
    for label, result in [
        ("store_warm", store_warm),
        ("incremental_cold", incremental_cold),
        ("incremental_warm", incremental_warm),
    ]:
        assert _daily_bytes(
            result, tmp_path / f"{label}.jsonl"
        ) == reference, label
        assert _counters(result) == _counters(full_cold), label
    assert store_warm.runner_stats.days_computed == 0
    assert incremental_warm.runner_stats.days_computed == 0
    assert incremental_warm.runner_stats.days_replayed == days

    def median(label):
        return timings[label]["median"]

    # The acceptance bar: a warm journal replay beats the warm result
    # shards (it skips per-day file opens, key hashing and payload
    # decode in favour of one sequential journal read).
    assert median("incremental_warm") < median("store_warm"), (
        f"warm replay median {median('incremental_warm'):.4f}s not "
        f"faster than warm result shards {median('store_warm'):.4f}s"
    )

    record_bench_json("delta", {
        "benchmark": "delta_sweep",
        "scenario": "small",
        "days": days,
        "byte_identical": True,
        "counters": _counters(full_cold),
        "delta_stats": {
            "days_replayed_warm":
                incremental_warm.runner_stats.days_replayed,
            "days_fastpathed_cold":
                incremental_cold.runner_stats.days_fastpathed,
        },
        "timings_seconds": {
            label: {
                key: value if key == "n" else round(value, 5)
                for key, value in timing.items()
            }
            for label, timing in timings.items()
        },
        "speedups": {
            "incremental_warm_vs_store_warm": round(
                median("store_warm") / median("incremental_warm"), 2
            ),
            "incremental_warm_vs_full_cold": round(
                median("full_cold") / median("incremental_warm"), 2
            ),
            "incremental_cold_vs_full_cold": round(
                median("full_cold") / median("incremental_cold"), 2
            ),
        },
    })
