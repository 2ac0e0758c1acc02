"""Property-based tests for the packed delegation-day representation.

:class:`~repro.delegation.model.DailyDelegations` keeps every day as a
set of packed ints and decodes ``(IPv4Prefix, S, T)`` keys only at its
API edge.  Pinned here against object-level references:

- the interval-union address count equals the aggregated count,
  over nested, adjacent, duplicate, ``/0`` and ``/32`` prefixes;
- every public accessor agrees with a plain dict-of-sets record;
- :func:`fill_gaps` on packed keys equals the object implementation
  it replaced, with rival-delegatee conflicts in most examples.
"""

import datetime
from typing import Dict, List, Set

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.delegation.consistency import ConsistencyRule, fill_gaps
from repro.delegation.model import DailyDelegations, encode_key
from repro.netbase.lpm import pack
from repro.netbase.prefix import IPv4Prefix
from repro.netbase.prefixset import (
    address_count,
    aggregate,
    packed_address_count,
)
from repro.obs.metrics import MetricsRegistry

START = datetime.date(2020, 1, 1)

prefixes = st.builds(
    lambda network, length: IPv4Prefix(network, length, strict=False),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=0, max_value=32),
)


@st.composite
def prefix_families(draw) -> List[IPv4Prefix]:
    """Prefixes plus derived relatives: sub-prefixes, siblings,
    supernets and duplicates, so nesting and adjacency are the norm."""
    family = draw(st.lists(prefixes, max_size=8))
    for prefix in list(family):
        relation = draw(st.sampled_from(
            ("none", "sub", "sibling", "super", "duplicate")
        ))
        if relation == "sub" and prefix.length < 32:
            length = draw(st.integers(prefix.length + 1, 32))
            offset = draw(st.integers(0, (1 << (length - prefix.length)) - 1))
            family.append(IPv4Prefix(
                prefix.network + (offset << (32 - length)), length
            ))
        elif relation == "sibling" and prefix.length > 0:
            family.append(prefix.sibling())
        elif relation == "super" and prefix.length > 0:
            family.append(prefix.supernet())
        elif relation == "duplicate":
            family.append(prefix)
    return family


class TestIntervalUnion:
    @settings(max_examples=300)
    @given(prefix_families())
    @example([IPv4Prefix(0, 0), IPv4Prefix.parse("10.0.0.0/8")])
    @example([IPv4Prefix.parse("255.255.255.255/32")] * 2)
    @example([
        IPv4Prefix.parse("10.0.0.0/25"), IPv4Prefix.parse("10.0.0.128/25"),
        IPv4Prefix.parse("10.0.0.0/24"), IPv4Prefix.parse("10.0.1.0/32"),
    ])
    def test_equals_aggregated_count(self, family):
        expected = sum(p.num_addresses for p in aggregate(family))
        if len(aggregate(family)) < len(set(family)):
            event("family aggregates (nested or adjacent members)")
        assert address_count(family) == expected
        assert packed_address_count(
            pack(p.network, p.length) for p in family
        ) == expected


# -- DailyDelegations against a dict-of-sets reference ---------------------

asns = st.integers(min_value=0, max_value=(1 << 32) - 1)
keys = st.tuples(prefixes, asns, asns)
#: (day offset, keys) batches; offsets repeat so days get several records.
batches = st.lists(
    st.tuples(st.integers(min_value=0, max_value=6), st.lists(keys, max_size=6)),
    max_size=8,
)


class TestDailyDelegationsRoundTrip:
    @settings(max_examples=150)
    @given(batches)
    def test_matches_dict_of_sets(self, record_batches):
        daily = DailyDelegations()
        reference: Dict[datetime.date, Set[tuple]] = {}
        for offset, batch in record_batches:
            date = START + datetime.timedelta(days=offset)
            daily.record(date, batch)
            reference.setdefault(date, set()).update(batch)

        duplicate = daily.copy()
        duplicate.record(START + datetime.timedelta(days=99), keys_of(1))
        for date in reference:
            duplicate.record(date, keys_of(2))

        assert daily.dates() == sorted(reference)
        assert len(daily) == len(reference)
        timeline: Dict[tuple, List[datetime.date]] = {}
        for date in sorted(reference):
            day = reference[date]
            assert daily.on(date) == day
            assert daily.count_on(date) == len(day)
            assert daily.prefixes_on(date) == {key[0] for key in day}
            assert daily.addresses_on(date) == sum(
                p.num_addresses for p in aggregate(key[0] for key in day)
            )
            lengths: Dict[int, int] = {}
            for prefix, _s, _t in day:
                lengths[prefix.length] = lengths.get(prefix.length, 0) + 1
            assert daily.length_distribution(date) == {
                length: lengths[length] / len(day)
                for length in sorted(lengths)
            }
            for key in day:
                timeline.setdefault(key, []).append(date)
        assert daily.timeline() == timeline
        assert daily.packed_timeline() == {
            encode_key(key): dates for key, dates in timeline.items()
        }
        # The copy is independent of the original.
        assert duplicate.dates() == sorted(
            set(reference) | {START + datetime.timedelta(days=99)}
        )
        for date in reference:
            assert duplicate.on(date) == reference[date] | set(keys_of(2))
        assert daily.on(START + datetime.timedelta(days=99)) == set()

    def test_empty_day_is_recorded(self):
        daily = DailyDelegations()
        daily.record(START, [])
        assert daily.dates() == [START]
        assert daily.on(START) == set()
        assert daily.addresses_on(START) == 0
        assert daily.length_distribution(START) == {}


def keys_of(asn: int) -> List[tuple]:
    return [(IPv4Prefix.parse("193.0.0.0/16"), asn, asn)]


# -- fill_gaps against the object implementation -----------------------------


def object_fill_gaps(daily, rule, observation_dates):
    """The object-key ``fill_gaps`` the packed one replaced, verbatim
    in logic: ``(filled, fills, conflicts)``."""
    sorted_dates = sorted(observation_dates)
    date_index = {date: i for i, date in enumerate(sorted_dates)}
    timelines = daily.timeline()
    delegatees: Dict[object, Set[int]] = {}
    for prefix, _delegator, delegatee in timelines:
        delegatees.setdefault(prefix, set()).add(delegatee)
    ambiguous = {p for p, seen in delegatees.items() if len(seen) > 1}
    conflicts: Dict[object, Dict[int, Set[datetime.date]]] = {}
    for (prefix, _delegator, delegatee), dates in timelines.items():
        if prefix in ambiguous:
            conflicts.setdefault(prefix, {}).setdefault(
                delegatee, set()
            ).update(dates)
    filled = daily.copy()
    fill_count = 0
    conflict_count = 0
    for key, dates in timelines.items():
        prefix, _delegator, delegatee = key
        rivals = conflicts.get(prefix)
        for first, second in zip(dates, dates[1:]):
            gap_days = (second - first).days
            if gap_days <= 1 or gap_days > rule.max_span_days:
                continue
            start_i = date_index.get(first)
            end_i = date_index.get(second)
            if start_i is None or end_i is None:
                continue
            between = sorted_dates[start_i + 1:end_i]
            if rivals is not None:
                between_set = set(between)
                if any(
                    other != delegatee
                    and not days.isdisjoint(between_set)
                    for other, days in rivals.items()
                ):
                    conflict_count += 1
                    continue
            for day in between:
                filled.record(day, [key])
            fill_count += len(between)
    return filled, fill_count, conflict_count


#: A small key universe: two prefixes (one nested in the other), two
#: delegators, two delegatees — rival delegatees of one prefix are the
#: rule, not the exception.
UNIVERSE = [
    (prefix, delegator, delegatee)
    for prefix in (
        IPv4Prefix.parse("193.0.0.0/16"), IPv4Prefix.parse("193.0.4.0/24"),
    )
    for delegator in (100, 101)
    for delegatee in (200, 201)
]

#: Per-day subsets of the universe over a 16-day window; days missing
#: from ``observation`` are measurement gaps.
day_records = st.lists(
    st.sets(st.sampled_from(UNIVERSE), min_size=1, max_size=4),
    min_size=16, max_size=16,
)
observation = st.sets(st.integers(min_value=0, max_value=15), min_size=8)


class TestFillGapsPacked:
    @settings(max_examples=200)
    @given(day_records, observation, st.integers(min_value=2, max_value=10))
    def test_matches_object_implementation(self, records, observed, span):
        grid = [START + datetime.timedelta(days=i) for i in range(16)]
        dates = [grid[i] for i in sorted(observed)]
        daily = DailyDelegations()
        for i in sorted(observed):
            daily.record(grid[i], records[i])
        rule = ConsistencyRule(span, 0)
        metrics = MetricsRegistry()
        packed = fill_gaps(daily, rule, dates, metrics=metrics)
        expected, fills, conflicts = object_fill_gaps(daily, rule, dates)
        event("rival conflict" if conflicts else "no conflict")
        assert packed.dates() == expected.dates()
        for date in expected.dates():
            assert packed.on(date) == expected.on(date)
        assert metrics.counter("pipeline.consistency.fills") == fills
        assert metrics.counter("pipeline.consistency.conflicts") == conflicts
