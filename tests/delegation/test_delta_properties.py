"""Property-based tests for the day-over-day delta machinery.

The algebra the incremental runner rests on, pinned over arbitrary
pair tables:

- ``apply(A, diff(A, B)) == B`` exactly (the delta is lossless),
- composability: replaying ``diff(A, B)`` then ``diff(B, C)`` lands
  on ``C`` — a journal is equivalent to its endpoints,
- the empty delta is a true no-op,
- :class:`DeltaState` parity: seeding ``A`` and applying
  ``diff(A, B)`` leaves exactly the state a fresh seed of ``B`` has —
  table, survivors, attrition counters, and delegation rows alike,
- journal entries survive the canonical-JSON codec round trip.
"""

import datetime
import json

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.bgp.rib import PairTable
from repro.delegation.delta import (
    DeltaState,
    PairDelta,
    apply_delta,
    delta_entry,
    delta_from_entry,
    diff_pair_tables,
    fold_entry_rows,
    seed_entry,
    table_from_entry,
)
from repro.delegation.inference import InferenceConfig
from repro.delegation.io import canonical_json
from repro.netbase.lpm import pack

TOTAL_MONITORS = 8
CONFIG = InferenceConfig.baseline()

#: packed (network, length) keys over real prefix shapes, including
#: bogon space (10/8, 192.168/16, 224/4 live under these networks).
packed_keys = st.builds(
    pack,
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=0, max_value=32),
)

#: ``packed_key -> (origin, unique, monitors)`` aggregates — the exact
#: input :meth:`PairTable.from_aggregate` canonicalizes.
aggregates = st.dictionaries(
    packed_keys,
    st.tuples(
        st.integers(min_value=1, max_value=65535),
        st.booleans(),
        st.integers(min_value=1, max_value=TOTAL_MONITORS),
    ),
    max_size=30,
)

tables = st.builds(PairTable.from_aggregate, aggregates)


@st.composite
def covering_pairs(draw):
    """A routable prefix and a more-specific from a rival origin.

    Both are seen by at least half of the monitors and sit in 11/8 ..
    99/8 (no bogon space), so the pair survives every filter and the
    cover pass emits a delegation row for it.
    """
    length = draw(st.integers(min_value=8, max_value=23))
    network = draw(
        st.integers(min_value=11 << 24, max_value=(100 << 24) - 1)
    ) >> (32 - length) << (32 - length)
    sub_length = draw(st.integers(min_value=length + 1, max_value=24))
    offset = draw(
        st.integers(min_value=0, max_value=(1 << (sub_length - length)) - 1)
    )
    sub_network = network + (offset << (32 - sub_length))
    origin = draw(st.integers(min_value=1, max_value=65535))
    sub_origin = draw(st.integers(min_value=1, max_value=65534))
    sub_origin += sub_origin >= origin
    visible = st.integers(
        min_value=TOTAL_MONITORS // 2, max_value=TOTAL_MONITORS
    )
    return {
        pack(network, length): (origin, True, draw(visible)),
        pack(sub_network, sub_length): (sub_origin, True, draw(visible)),
    }


@st.composite
def delegating_tables(draw):
    """Pair tables that usually hold at least one delegation.

    Arbitrary aggregates almost never contain a covering pair that
    survives visibility; overlaying one to three derived covering
    pairs makes non-empty delegation rows the common case (a random
    key can still shadow a pair, which keeps some draws empty).
    """
    aggregate = dict(draw(aggregates))
    for pair in draw(st.lists(covering_pairs(), min_size=1, max_size=3)):
        aggregate.update(pair)
    return PairTable.from_aggregate(aggregate)


#: 11.0.0.0/8 from AS100 and 11.1.0.0/16 from AS200, both seen by 8 of
#: 8 monitors: one delegation row.
NESTED_PAIR = PairTable.from_aggregate({
    pack(11 << 24, 8): (100, True, TOTAL_MONITORS),
    pack((11 << 24) | (1 << 16), 16): (200, True, TOTAL_MONITORS),
})


class TestDeltaAlgebra:
    @settings(max_examples=100)
    @given(tables, tables)
    def test_diff_apply_roundtrip(self, a, b):
        assert apply_delta(a, diff_pair_tables(a, b)).equals(b)

    @settings(max_examples=60)
    @given(tables, tables, tables)
    def test_composability(self, a, b, c):
        via_b = apply_delta(
            apply_delta(a, diff_pair_tables(a, b)),
            diff_pair_tables(b, c),
        )
        assert via_b.equals(c)
        assert via_b.equals(apply_delta(a, diff_pair_tables(a, c)))

    @settings(max_examples=60)
    @given(tables)
    def test_self_diff_is_empty(self, a):
        delta = diff_pair_tables(a, a)
        assert delta.is_empty
        assert len(delta) == 0

    @settings(max_examples=60)
    @given(tables)
    def test_empty_delta_is_noop(self, a):
        assert apply_delta(a, PairDelta()).equals(a)

    @settings(max_examples=60)
    @given(tables, tables)
    def test_delta_sizes_bound_the_change(self, a, b):
        delta = diff_pair_tables(a, b)
        assert len(delta.removed) <= len(a)
        assert len(delta.upsert_keys) <= len(b)
        # Removed and upserted keys never overlap.
        assert not (set(delta.removed) & set(delta.upsert_keys))


class TestDeltaStateParity:
    @settings(max_examples=60)
    @given(tables, tables)
    def test_incremental_state_equals_fresh_seed(self, a, b):
        state = DeltaState(CONFIG, TOTAL_MONITORS)
        state.seed(a)
        state.apply(diff_pair_tables(a, b))
        fresh = DeltaState(CONFIG, TOTAL_MONITORS)
        fresh.seed(b)
        assert state.to_table().equals(b)
        assert state.day_counters(0) == fresh.day_counters(0)
        assert state.day_rows()[0] == fresh.day_rows()[0]

    @settings(max_examples=60)
    @given(tables, tables, tables)
    def test_state_composes_across_days(self, a, b, c):
        state = DeltaState(CONFIG, TOTAL_MONITORS)
        state.seed(a)
        state.apply(diff_pair_tables(a, b))
        state.apply(diff_pair_tables(b, c))
        fresh = DeltaState(CONFIG, TOTAL_MONITORS)
        fresh.seed(c)
        assert state.to_table().equals(c)
        assert state.day_counters(0) == fresh.day_counters(0)
        assert state.day_rows()[0] == fresh.day_rows()[0]

    @settings(max_examples=40)
    @given(tables)
    def test_empty_delta_fast_paths_day_rows(self, a):
        state = DeltaState(CONFIG, TOTAL_MONITORS)
        state.seed(a)
        rows, dropped, fast = state.day_rows()
        assert not fast  # first cover pass always runs
        state.apply(diff_pair_tables(a, a))
        rows2, dropped2, fast2 = state.day_rows()
        assert fast2
        assert rows2 == rows and dropped2 == dropped


class TestJournalEntryCodec:
    @settings(max_examples=60)
    @given(delegating_tables(), st.one_of(tables, delegating_tables()))
    @example(NESTED_PAIR, PairTable.from_aggregate({}))
    def test_entries_roundtrip_canonical_json(self, a, b):
        state = DeltaState(CONFIG, TOTAL_MONITORS)
        state.seed(a)
        rows_a = state.day_rows()[0]
        event("seed rows: " + ("non-empty" if rows_a else "empty"))
        seed = json.loads(canonical_json(seed_entry(
            datetime.date(2020, 1, 1), a, TOTAL_MONITORS,
            state.day_counters(0), rows_a,
        )))
        assert table_from_entry(seed).equals(a)
        assert [tuple(row) for row in seed["rows"]] == rows_a

        delta = diff_pair_tables(a, b)
        state.apply(delta)
        rows_b = state.day_rows()[0]
        removed = [r for r in rows_a if r not in set(rows_b)]
        added = [r for r in rows_b if r not in set(rows_a)]
        entry = json.loads(canonical_json(delta_entry(
            2, datetime.date(2020, 1, 2), delta,
            state.day_counters(0), added, removed,
        )))
        decoded = delta_from_entry(entry)
        assert apply_delta(a, decoded).equals(b)
        assert fold_entry_rows(rows_a, entry) == sorted(rows_b)
