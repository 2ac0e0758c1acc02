"""Tests for the zero-copy result fan-in and per-/8 day sharding.

The contract: shared-memory fan-in and ``day_shards > 1`` are pure
transport/scheduling changes — output bytes and attrition counters are
identical to the sequential object-kernel reference, with or without
the store, and identical again when no segment can be created and
workers fall back to pickling — and no exit path (completion, worker
crash, interrupt) leaks a shared-memory segment or trips the resource
tracker.
"""

import datetime
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.delegation import (
    DelegationInference,
    InferenceConfig,
    WorldStreamFactory,
    run_inference,
    runner,
    write_daily_delegations,
)
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.simulation import World, small_scenario

SCENARIO = small_scenario()
START = SCENARIO.bgp_start
END = START + datetime.timedelta(days=8)

SHM_DIR = pathlib.Path("/dev/shm")


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


def _daily_bytes(result, path):
    write_daily_delegations(result.daily, path)
    return pathlib.Path(path).read_bytes()


def _counters(result):
    return (
        result.pairs_seen,
        result.pairs_dropped_visibility,
        result.pairs_dropped_origin,
        result.delegations_dropped_same_org,
        result.sanitize_stats.bogon_prefix,
    )


def _segments():
    """The fan-in segments currently named in /dev/shm."""
    if not SHM_DIR.is_dir():
        return set()
    return {path.name for path in SHM_DIR.glob("rpfi*")}


def _no_worker_segments(monkeypatch):
    """Make every worker-side segment creation fail, as on a full
    ``/dev/shm``; patched before the pool forks, so workers inherit it.
    """
    monkeypatch.setattr(
        runner, "_create_worker_segment", lambda size, prefix: None
    )


@pytest.fixture(scope="module")
def sequential(as2org, tmp_path_factory):
    """Sequential output of each kernel: bytes plus attrition counters."""
    base = tmp_path_factory.mktemp("fanin-sequential")
    outputs = {}
    for kernel in ("columnar", "object"):
        result = DelegationInference(
            InferenceConfig.extended(), as2org, kernel=kernel
        ).infer_range(World(SCENARIO).stream(), START, END)
        outputs[kernel] = (
            _daily_bytes(result, base / f"{kernel}.jsonl"),
            _counters(result),
        )
    assert outputs["columnar"] == outputs["object"]
    return outputs


@pytest.fixture(scope="module")
def reference(sequential):
    """The object-kernel oracle every parallel run is held to."""
    return sequential["object"]


@pytest.fixture(scope="module")
def pickle_baseline(factory, as2org, tmp_path_factory):
    """A parallel run whose workers cannot create segments, so every
    day crosses back pickled."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        _no_worker_segments(monkeypatch)
        result = _run(factory, as2org, jobs=2)
    path = tmp_path_factory.mktemp("fanin-pickle") / "pickle.jsonl"
    return _daily_bytes(result, path), _counters(result)


@pytest.fixture
def no_segments(monkeypatch):
    _no_worker_segments(monkeypatch)


class TestByteIdentity:
    @pytest.mark.parametrize("kernel", ["columnar", "object"])
    def test_shm_matches_pickle(
        self, factory, as2org, sequential, pickle_baseline, tmp_path,
        kernel,
    ):
        # The pickled fallback and each sequential kernel are held to
        # the same bytes and counters as the shared-memory run.
        assert pickle_baseline == sequential[kernel]
        result = _run(factory, as2org, jobs=2)
        assert _daily_bytes(result, tmp_path / "out.jsonl") == \
            pickle_baseline[0]
        assert _counters(result) == pickle_baseline[1]

    @pytest.mark.parametrize("day_shards", [2, 3, 7])
    def test_day_shards_match_whole_days(
        self, factory, as2org, reference, tmp_path, day_shards
    ):
        result = _run(
            factory, as2org, jobs=2, day_shards=day_shards,
        )
        assert _daily_bytes(result, tmp_path / "out.jsonl") == \
            reference[0]
        assert _counters(result) == reference[1]

    def test_day_shards_compose_with_store_and_cache(
        self, factory, as2org, reference, tmp_path
    ):
        kwargs = dict(jobs=2, day_shards=3, store_dir=tmp_path / "store")
        cold = _run(factory, as2org, **kwargs)
        assert _daily_bytes(cold, tmp_path / "cold.jsonl") == \
            reference[0]
        metrics = MetricsRegistry()
        warm = _run(factory, as2org, metrics=metrics, **kwargs)
        assert _daily_bytes(warm, tmp_path / "warm.jsonl") == \
            reference[0]
        assert _counters(warm) == reference[1]
        # Warm days come off mapped result shards, not the kernel.
        days = (END - START).days
        assert metrics.counters().get("store.result_hits") == days

    def test_incremental_shm_seed_matches(
        self, factory, as2org, reference, tmp_path
    ):
        metrics = MetricsRegistry()
        result = _run(
            factory, as2org, jobs=2, incremental=True, metrics=metrics,
        )
        assert _daily_bytes(result, tmp_path / "inc.jsonl") == \
            reference[0]
        # The seed crossed via a segment, so nothing materialized.
        assert metrics.gauges().get("fanin.shm_kb", 0) > 0
        assert metrics.counters().get("pairtable.materialized", 0) == 0

    def test_incremental_seed_falls_back_to_pickle(
        self, factory, as2org, reference, tmp_path, no_segments
    ):
        # Storeless, so the seed has no shard to be re-mapped from:
        # without a segment it travels back as a pickled table.  A
        # stream-built table is already array-backed, so materializing
        # it is a no-op and the fallback shows only as zero shm bytes.
        metrics = MetricsRegistry()
        result = _run(
            factory, as2org, jobs=2, incremental=True, metrics=metrics,
        )
        assert _daily_bytes(result, tmp_path / "inc.jsonl") == \
            reference[0]
        assert metrics.gauges().get("fanin.shm_kb") == 0
        assert metrics.counters().get("pairtable.materialized", 0) == 0


class TestTransportAccounting:
    def test_shm_run_reports_segment_bytes(self, factory, as2org):
        metrics = MetricsRegistry()
        _run(factory, as2org, jobs=2, metrics=metrics)
        gauges = metrics.gauges()
        assert gauges.get("fanin.shm_kb", 0) > 0
        assert gauges.get("fanin.pickled_kb") == 0
        assert metrics.counters().get("pairtable.materialized", 0) == 0

    def test_pickle_run_reports_pickled_bytes(
        self, factory, as2org, reference, tmp_path, no_segments
    ):
        metrics = MetricsRegistry()
        result = _run(factory, as2org, jobs=2, metrics=metrics)
        assert _daily_bytes(result, tmp_path / "out.jsonl") == \
            reference[0]
        assert _counters(result) == reference[1]
        gauges = metrics.gauges()
        assert gauges.get("fanin.shm_kb") == 0
        assert gauges.get("fanin.pickled_kb", 0) > 0


class TestValidation:
    def test_day_shards_must_be_positive(self, factory, as2org):
        with pytest.raises(ReproError, match="day_shards"):
            _run(factory, as2org, day_shards=0)

    def test_day_shards_exclude_incremental(self, factory, as2org):
        with pytest.raises(ReproError, match="incremental"):
            _run(factory, as2org, day_shards=2, incremental=True)


class _DyingStreamFactory:
    """Kills the worker process outright (breaks the pool)."""

    def __call__(self):
        os._exit(13)


class _InterruptingStreamFactory:
    """Simulates ^C landing in a worker mid-sweep."""

    def __call__(self):
        raise KeyboardInterrupt


class TestSegmentLifecycle:
    def test_no_segments_after_completion(self, factory, as2org):
        before = _segments()
        _run(factory, as2org, jobs=2, day_shards=2)
        assert _segments() == before

    def test_no_segments_after_worker_crash(self, as2org):
        before = _segments()
        with pytest.raises(ReproError, match="worker failed"):
            run_inference(
                _DyingStreamFactory(), START, END,
                InferenceConfig.extended(), as2org=as2org,
                jobs=2,
            )
        assert _segments() == before

    def test_no_segments_after_interrupt(self, as2org):
        before = _segments()
        with pytest.raises(KeyboardInterrupt):
            run_inference(
                _InterruptingStreamFactory(), START, END,
                InferenceConfig.extended(), as2org=as2org,
                jobs=2,
            )
        assert _segments() == before

    def test_no_resource_tracker_warnings(self, tmp_path):
        # The whole point of starting the tracker before the fork and
        # unlinking on adoption: a full shm sweep in a fresh
        # interpreter must exit with a silent tracker.
        script = textwrap.dedent("""
            import datetime
            from repro.delegation import (
                InferenceConfig, WorldStreamFactory, run_inference,
            )
            from repro.simulation import World, small_scenario

            scenario = small_scenario()
            start = scenario.bgp_start
            end = start + datetime.timedelta(days=4)
            run_inference(
                WorldStreamFactory(scenario), start, end,
                InferenceConfig.extended(),
                as2org=World(scenario).as2org(),
                jobs=2, day_shards=2,
            )
        """)
        env = dict(os.environ)
        root = pathlib.Path(__file__).resolve().parents[2]
        env["PYTHONPATH"] = str(root / "src")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "leaked shared_memory" not in proc.stderr
        assert "resource_tracker" not in proc.stderr
        assert "Traceback" not in proc.stderr
