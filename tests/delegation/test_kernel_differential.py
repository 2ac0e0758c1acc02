"""Differential tests: columnar kernel vs. the object reference path.

The columnar kernel is a pure performance change — its outputs must be
byte-identical to the object/trie path, with every attrition counter
(bogon, visibility, non-unique origin, same-org) in exact agreement,
both through the sequential API and through the parallel runner.
"""

import datetime

import pytest

from repro.bgp.collector import Collector, CollectorSystem
from repro.bgp.message import Announcement
from repro.bgp.propagation import PropagationModel
from repro.bgp.stream import RouteStream, date_range
from repro.bgp.topology import ASTopology
from repro.delegation import (
    DailyDelegations,
    DelegationInference,
    InferenceConfig,
    InferenceResult,
    WorldStreamFactory,
    run_inference,
    write_daily_delegations,
)
from repro.delegation.runner import _cache_key, _decode_payload
from repro.errors import ReproError
from repro.netbase.prefix import IPv4Prefix
from repro.simulation import World, small_scenario
from repro.store import ShardStore

D = datetime.date

SCENARIO = small_scenario()
START = SCENARIO.bgp_start
END = START + datetime.timedelta(days=15)


@pytest.fixture(scope="module")
def world():
    return World(SCENARIO)


@pytest.fixture(scope="module")
def as2org(world):
    return world.as2org()


def _counters(result):
    return (
        result.pairs_seen,
        result.pairs_dropped_visibility,
        result.pairs_dropped_origin,
        result.delegations_dropped_same_org,
        result.sanitize_stats.bogon_prefix,
    )


def _daily_bytes(result, path):
    write_daily_delegations(result.daily, path)
    return path.read_bytes()


class TestSequentialDifferential:
    @pytest.mark.parametrize(
        "config",
        [InferenceConfig.baseline(), InferenceConfig.extended()],
        ids=["baseline", "extended"],
    )
    def test_byte_identical_and_counter_parity(
        self, world, as2org, tmp_path, config
    ):
        columnar = DelegationInference(
            config, as2org, kernel="columnar"
        ).infer_range(world.stream(), START, END)
        reference = DelegationInference(
            config, as2org, kernel="object"
        ).infer_range(world.stream(), START, END)
        assert _daily_bytes(columnar, tmp_path / "col.jsonl") == \
            _daily_bytes(reference, tmp_path / "obj.jsonl")
        assert _counters(columnar) == _counters(reference)
        assert columnar.observation_dates == reference.observation_dates

    def test_kernel_property_and_validation(self, as2org):
        baseline = InferenceConfig.baseline()
        assert DelegationInference(
            baseline, kernel="object"
        ).kernel == "object"
        assert DelegationInference(baseline).kernel == "columnar"
        with pytest.raises(ReproError, match="kernel"):
            DelegationInference(baseline, kernel="simd")


class TestBogonDifferential:
    """A day containing bogon routes, entering un-sanitized.

    Exercises the two-pointer interval filter against the per-record
    ``is_bogon`` check, including the counter ordering contract
    (bogons drop before ``pairs_seen`` is charged).
    """

    @pytest.fixture()
    def stream(self):
        t = ASTopology()
        for asn, tier in [(10, 1), (20, 2), (30, 3)]:
            t.add_as(asn, tier=tier)
        t.add_customer_provider(20, 10)
        t.add_customer_provider(30, 20)
        system = CollectorSystem(
            [Collector("rrc00", [10, 20])], PropagationModel(t)
        )
        announcements = [
            Announcement(IPv4Prefix.parse("101.100.0.0/16"), 20),
            Announcement(IPv4Prefix.parse("101.100.7.0/24"), 30),
            # Bogon space: must be dropped (and counted) by both paths.
            Announcement(IPv4Prefix.parse("10.1.0.0/16"), 30),
            Announcement(IPv4Prefix.parse("192.168.0.0/24"), 20),
            Announcement(IPv4Prefix.parse("224.0.0.0/8"), 20),
        ]
        return RouteStream(system, source=lambda date: announcements)

    def test_unsanitized_day_parity(self, stream):
        config = InferenceConfig.baseline()
        results = {}
        for kernel in ("columnar", "object"):
            inference = DelegationInference(config, kernel=kernel)
            pairs = stream.pairs_on(D(2020, 1, 1))
            result = InferenceResult(DailyDelegations(), config)
            delegations = inference.infer_day_from_pairs(
                pairs, stream.monitor_count(), D(2020, 1, 1), result,
                pre_sanitized=False,
            )
            results[kernel] = (delegations, result)
        columnar, reference = results["columnar"], results["object"]
        assert sorted(d.key() for d in columnar[0]) == \
            sorted(d.key() for d in reference[0])
        assert _counters(columnar[1]) == _counters(reference[1])
        assert columnar[1].sanitize_stats.bogon_prefix == 3

    def test_pre_sanitized_skips_bogon_filter(self, stream):
        config = InferenceConfig.baseline()
        inference = DelegationInference(config)
        pairs = stream.pairs_on(D(2020, 1, 1))
        result = InferenceResult(DailyDelegations(), config)
        inference.infer_day_from_pairs(
            pairs, stream.monitor_count(), D(2020, 1, 1), result,
            pre_sanitized=True,
        )
        assert result.sanitize_stats.bogon_prefix == 0
        assert result.pairs_seen == len(pairs)


class TestRunnerDifferential:
    def test_parallel_runner_matches_across_kernels(
        self, world, as2org, tmp_path
    ):
        runner_result = run_inference(
            WorldStreamFactory(SCENARIO), START, END,
            InferenceConfig.extended(), as2org=as2org, jobs=2,
        )
        reference = DelegationInference(
            InferenceConfig.extended(), as2org, kernel="object"
        ).infer_range(world.stream(), START, END)
        assert _daily_bytes(runner_result, tmp_path / "runner.jsonl") == \
            _daily_bytes(reference, tmp_path / "object.jsonl")
        assert _counters(runner_result) == _counters(reference)

    def test_kernels_share_cache_entries(self, world, as2org, tmp_path):
        # A result shard is keyed on config and input only, so the
        # payload the columnar runner caches for a day must be exactly
        # what the object kernel infers for it: same quads (before
        # rule (v)), same per-day attrition counters.
        config = InferenceConfig.extended()
        factory = WorldStreamFactory(SCENARIO)
        run_inference(
            factory, START, END, config, as2org=as2org, jobs=1,
            store_dir=tmp_path / "store",
        )
        store = ShardStore(tmp_path / "store", factory.fingerprint())
        reference = DelegationInference(config, as2org, kernel="object")
        stream = world.stream()
        for date in date_range(START, END):
            key = _cache_key(
                config, date, factory.fingerprint(), as2org.fingerprint()
            )
            payload = _decode_payload(store.result_path(key).read_bytes())
            scratch = InferenceResult(DailyDelegations(), config)
            delegations = reference.infer_day_from_pairs(
                stream.pairs_on(date), stream.monitor_count(), date,
                scratch,
            )
            assert payload["delegations"] == sorted(
                (d.prefix.network, d.prefix.length,
                 d.delegator_asn, d.delegatee_asn)
                for d in delegations
            )
            assert tuple(payload["counters"].values()) == \
                _counters(scratch)


class TestJobsOneStaysInline:
    def test_jobs_one_never_spawns_pool(self, as2org, monkeypatch):
        # The jobs=1 fast path must not pay pool spawn + pickling
        # costs: creating an executor at all is the regression.
        import concurrent.futures

        def _boom(*args, **kwargs):
            raise AssertionError("jobs=1 must not create a process pool")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _boom
        )
        result = run_inference(
            WorldStreamFactory(SCENARIO), START, END,
            InferenceConfig.extended(), as2org=as2org, jobs=1,
        )
        assert result.runner_stats.days_computed == 15

    def test_single_day_window_stays_inline(self, as2org, monkeypatch):
        import concurrent.futures

        def _boom(*args, **kwargs):
            raise AssertionError(
                "single-day window must not create a process pool"
            )

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _boom
        )
        result = run_inference(
            WorldStreamFactory(SCENARIO), START,
            START + datetime.timedelta(days=1),
            InferenceConfig.extended(), as2org=as2org, jobs=4,
        )
        assert result.runner_stats.days_computed == 1
