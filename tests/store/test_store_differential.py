"""Differential tests: out-of-core store vs. the in-RAM paths.

The shard store is a pure data-plane change — a sweep fed from
memory-mapped shards must be byte-identical to the sequential
object-kernel reference fed from live announcement records,
sequentially and through the mmap fan-out (workers opening the shard
by path), and through the incremental delta path.  A warm store must
serve every day as a hit without rebuilding the stream, and a corrupt
result shard must degrade to a counted miss and a recompute.
"""

import datetime
import shutil

import pytest

from repro.delegation import (
    DelegationInference,
    InferenceConfig,
    WorldStreamFactory,
    run_inference,
    write_daily_delegations,
)
from repro.obs.metrics import MetricsRegistry
from repro.simulation import World, small_scenario
from repro.store import ShardStore

SCENARIO = small_scenario()
START = SCENARIO.bgp_start
END = START + datetime.timedelta(days=10)
DAYS = (END - START).days


@pytest.fixture(scope="module")
def factory():
    return WorldStreamFactory(SCENARIO)


@pytest.fixture(scope="module")
def as2org():
    return World(SCENARIO).as2org()


def _run(factory, as2org, **kwargs):
    return run_inference(
        factory, START, END,
        InferenceConfig.extended(), as2org=as2org, **kwargs
    )


def _result_bytes(result, path):
    write_daily_delegations(result.daily, path)
    return path.read_bytes()


def _counters(result):
    return (
        result.pairs_seen,
        result.pairs_dropped_visibility,
        result.pairs_dropped_origin,
        result.delegations_dropped_same_org,
        result.sanitize_stats.bogon_prefix,
    )


@pytest.fixture(scope="module")
def reference(as2org, tmp_path_factory):
    """Storeless sequential object-kernel output and counters."""
    result = DelegationInference(
        InferenceConfig.extended(), as2org, kernel="object"
    ).infer_range(World(SCENARIO).stream(), START, END)
    path = tmp_path_factory.mktemp("reference") / "object.jsonl"
    return _result_bytes(result, path), _counters(result)


class _StoreStream:
    """Serves the object kernel its per-day pairs out of the store."""

    def __init__(self, store, total_monitors):
        self.store = store
        self.total_monitors = total_monitors

    def monitor_count(self):
        return self.total_monitors

    def pairs_on(self, date):
        table, total_monitors = self.store.load(date)
        assert total_monitors == self.total_monitors
        return table.to_pairs()


class TestStoreBackedEquivalence:
    @pytest.mark.parametrize("jobs", [1, 2], ids=["seq", "pool"])
    def test_cold_store_matches_storeless(
        self, factory, as2org, reference, tmp_path, jobs
    ):
        metrics = MetricsRegistry()
        result = _run(
            factory, as2org, jobs=jobs,
            store_dir=tmp_path / "store", metrics=metrics,
        )
        expected_bytes, expected_counters = reference
        assert _result_bytes(result, tmp_path / "out.jsonl") == \
            expected_bytes
        assert _counters(result) == expected_counters
        assert result.runner_stats.store_dir == str(tmp_path / "store")
        # Cold: every day written exactly once, none served warm.
        counters = metrics.counters()
        assert counters.get("store.writes") == DAYS
        assert counters.get("store.hits") is None
        assert counters.get("store.malformed") is None

    @pytest.mark.parametrize("jobs", [1, 2], ids=["seq", "pool"])
    def test_warm_store_matches_and_hits_every_day(
        self, factory, as2org, reference, tmp_path, jobs
    ):
        # Warm only the input shards, under another config: its result
        # shards live under other keys, so this run must re-map every
        # *input* shard (the path under test); the result-shard
        # short-circuit has its own test below.
        run_inference(
            factory, START, END, InferenceConfig.baseline(), jobs=1,
            store_dir=tmp_path / "store",
        )
        metrics = MetricsRegistry()
        result = _run(
            factory, as2org, jobs=jobs,
            store_dir=tmp_path / "store", metrics=metrics,
        )
        assert _result_bytes(result, tmp_path / "out.jsonl") == \
            reference[0]
        assert _counters(result) == reference[1]
        counters = metrics.counters()
        assert counters.get("store.hits") == DAYS
        assert counters.get("store.misses") is None
        assert counters.get("store.writes") is None
        assert counters.get("store.result_misses") == DAYS

    @pytest.mark.parametrize("jobs", [1, 2], ids=["seq", "pool"])
    def test_warm_result_shards_skip_the_kernel(
        self, factory, as2org, reference, tmp_path, jobs
    ):
        _run(factory, as2org, jobs=1, store_dir=tmp_path / "store")
        assert (tmp_path / "store" / "results").is_dir()
        metrics = MetricsRegistry()
        result = _run(
            factory, as2org, jobs=jobs,
            store_dir=tmp_path / "store", metrics=metrics,
        )
        assert _result_bytes(result, tmp_path / "out.jsonl") == \
            reference[0]
        assert _counters(result) == reference[1]
        counters = metrics.counters()
        # Every day served straight from a mapped result shard: no
        # input-shard load, no kernel pass, nothing recomputed.
        assert counters.get("store.result_hits") == DAYS
        assert counters.get("store.hits") is None
        assert counters.get("store.writes") is None
        assert counters.get("runner.cache.hits") == DAYS

    def test_corrupt_result_shards_recomputed(
        self, factory, as2org, reference, tmp_path
    ):
        store_dir = tmp_path / "store"
        _run(factory, as2org, jobs=1, store_dir=store_dir)
        shards = sorted((store_dir / "results").rglob("*.rpd"))
        assert len(shards) == DAYS
        # One torn tail, one foreign magic: both must read as misses,
        # never as a wrong day.
        shards[0].write_bytes(shards[0].read_bytes()[:-3])
        data = shards[1].read_bytes()
        shards[1].write_bytes(b"XXXX" + data[4:])
        metrics = MetricsRegistry()
        healed = _run(
            factory, as2org, jobs=1, store_dir=store_dir, metrics=metrics,
        )
        counters = metrics.counters()
        assert counters.get("store.malformed") == 2
        assert counters.get("store.result_misses") == 2
        assert counters.get("store.result_hits") == DAYS - 2
        assert healed.runner_stats.days_computed == 2
        assert healed.runner_stats.days_from_cache == DAYS - 2
        assert _result_bytes(healed, tmp_path / "healed.jsonl") == \
            reference[0]
        assert _counters(healed) == reference[1]
        # The recompute wrote both shards back whole.
        assert counters.get("store.result_writes") == 2

    def test_store_is_shared_across_kernels_and_configs(
        self, factory, as2org, tmp_path
    ):
        # Warm with the columnar extended run, then feed every stored
        # day to the object kernel under the baseline config: the
        # content address excludes both, and the shards keep every
        # fact the object path reads.
        _run(factory, as2org, jobs=1, store_dir=tmp_path / "store")
        metrics = MetricsRegistry()
        store = ShardStore(
            tmp_path / "store", factory.fingerprint(), metrics=metrics
        )
        live = World(SCENARIO).stream()
        reference = DelegationInference(
            InferenceConfig.baseline(), kernel="object"
        )
        from_store = reference.infer_range(
            _StoreStream(store, live.monitor_count()), START, END
        )
        from_live = reference.infer_range(live, START, END)
        assert _result_bytes(from_store, tmp_path / "store.jsonl") == \
            _result_bytes(from_live, tmp_path / "live.jsonl")
        assert _counters(from_store) == _counters(from_live)
        assert metrics.counters().get("store.hits") == DAYS


class TestIncrementalEquivalence:
    @pytest.mark.parametrize("jobs", [1, 2], ids=["seq", "pool"])
    def test_incremental_store_backed_matches(
        self, factory, as2org, reference, tmp_path, jobs
    ):
        cold = _run(
            factory, as2org, jobs=jobs, incremental=True,
            store_dir=tmp_path / "store",
        )
        assert _result_bytes(cold, tmp_path / "cold.jsonl") == \
            reference[0]
        warm = _run(
            factory, as2org, jobs=jobs, incremental=True,
            store_dir=tmp_path / "store",
        )
        assert _result_bytes(warm, tmp_path / "warm.jsonl") == \
            reference[0]

    def test_store_composes_with_the_result_cache(
        self, factory, as2org, reference, tmp_path
    ):
        # Input shards feed computes, result shards skip them: with the
        # results namespace gone, a warm store recomputes every day off
        # mapped input shards and writes the results back.
        store_dir = tmp_path / "store"
        _run(factory, as2org, jobs=1, store_dir=store_dir)
        shutil.rmtree(store_dir / "results")
        metrics = MetricsRegistry()
        result = _run(
            factory, as2org, jobs=1, store_dir=store_dir, metrics=metrics,
        )
        assert _result_bytes(result, tmp_path / "out.jsonl") == \
            reference[0]
        counters = metrics.counters()
        assert counters.get("runner.cache.misses") == DAYS
        assert counters.get("store.hits") == DAYS
        assert counters.get("store.misses") is None
        assert counters.get("store.result_writes") == DAYS
