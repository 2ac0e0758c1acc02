"""Property-based tests for the consistency-rule machinery."""

import datetime

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.delegation.consistency import ConsistencyRule, evaluate_rule, fill_gaps
from repro.delegation.model import DailyDelegations
from repro.netbase.prefix import IPv4Prefix

START = datetime.date(2020, 1, 1)
GRID = [START + datetime.timedelta(days=i) for i in range(40)]
KEY = (IPv4Prefix.parse("193.0.4.0/24"), 100, 200)
CONFLICT = (IPv4Prefix.parse("193.0.4.0/24"), 100, 300)

#: Random subsets of grid days on which the delegation was observed.
day_subsets = st.sets(
    st.integers(min_value=0, max_value=len(GRID) - 1), max_size=len(GRID)
)


def build_daily(indices, key=KEY):
    daily = DailyDelegations()
    for i in indices:
        daily.record(GRID[i], [key])
    return daily


class TestFillGapsProperties:
    @settings(max_examples=80)
    @given(day_subsets, st.integers(min_value=1, max_value=15))
    def test_fill_is_superset(self, indices, span):
        daily = build_daily(indices)
        filled = fill_gaps(daily, ConsistencyRule(span, 0), GRID)
        for date in daily.dates():
            assert daily.on(date) <= filled.on(date)

    @settings(max_examples=80)
    @given(day_subsets, st.integers(min_value=1, max_value=15))
    def test_fill_is_idempotent(self, indices, span):
        daily = build_daily(indices)
        rule = ConsistencyRule(span, 0)
        once = fill_gaps(daily, rule, GRID)
        twice = fill_gaps(once, rule, GRID)
        for date in GRID:
            assert once.on(date) == twice.on(date)

    @settings(max_examples=80)
    @given(day_subsets, st.integers(min_value=1, max_value=15))
    def test_fill_stays_inside_observation_span(self, indices, span):
        daily = build_daily(indices)
        filled = fill_gaps(daily, ConsistencyRule(span, 0), GRID)
        if not indices:
            assert not filled.dates()
            return
        first, last = min(indices), max(indices)
        for i, date in enumerate(GRID):
            if i < first or i > last:
                assert KEY not in filled.on(date)

    @settings(max_examples=80)
    @given(day_subsets, st.integers(min_value=1, max_value=15))
    def test_filled_series_has_no_fillable_gaps(self, indices, span):
        daily = build_daily(indices)
        rule = ConsistencyRule(span, 0)
        filled = fill_gaps(daily, rule, GRID)
        present = [i for i, d in enumerate(GRID) if KEY in filled.on(d)]
        for a, b in zip(present, present[1:]):
            gap = b - a
            assert gap == 1 or gap > span

    @settings(max_examples=60)
    @given(day_subsets, day_subsets)
    def test_conflicts_never_filled_over(self, indices, conflict_indices):
        daily = build_daily(indices)
        for i in conflict_indices:
            daily.record(GRID[i], [CONFLICT])
        filled = fill_gaps(daily, ConsistencyRule(10, 0), GRID)
        # Wherever the conflicting delegatee was observed, the original
        # key must not have been invented on that day.
        for i in conflict_indices - indices:
            assert KEY not in filled.on(GRID[i])


class TestEvaluateProperties:
    @settings(max_examples=60)
    @given(day_subsets, st.integers(min_value=1, max_value=20))
    def test_violations_bounded_by_premises(self, indices, span):
        timeline = {KEY: sorted(GRID[i] for i in indices)}
        premises, violations = evaluate_rule(
            timeline, ConsistencyRule(span, 0), GRID
        )
        assert 0 <= violations <= premises

    @settings(max_examples=60)
    @given(day_subsets, st.integers(min_value=1, max_value=20))
    def test_monotone_in_allowed_missing(self, indices, span):
        timeline = {KEY: sorted(GRID[i] for i in indices)}
        previous = None
        for missing in range(4):
            _premises, violations = evaluate_rule(
                timeline, ConsistencyRule(span, missing), GRID
            )
            if previous is not None:
                assert violations <= previous
            previous = violations

    @settings(max_examples=100)
    @example(
        subsets=[set(range(len(GRID))) - {5, 6, 18, 30}, {0, 3, 9, 12}],
        spans={3, 10, 15},
        missing={0, 1, 2},
    )
    @given(
        st.lists(day_subsets, min_size=1, max_size=4),
        st.sets(st.integers(min_value=1, max_value=15),
                min_size=1, max_size=5),
        st.sets(st.integers(min_value=0, max_value=6), min_size=1,
                max_size=4),
    )
    def test_fast_path_matches_generic(self, subsets, spans, missing):
        """The daily-grid fast path equals the generic evaluator for
        every (M, N) of one call, M at or past the grid's end included."""
        from repro.delegation.rpki_eval import _evaluate_daily_fast

        spans = sorted(spans | {len(GRID)})
        timelines = {
            (KEY[0], KEY[1], 200 + n): sorted(GRID[i] for i in indices)
            for n, indices in enumerate(subsets)
        }
        fast = _evaluate_daily_fast(timelines, GRID, spans, sorted(missing))
        assert [(e.max_span_days, e.allowed_missing) for e in fast] == [
            (span, k) for span in spans for k in sorted(missing)
        ]
        for evaluation in fast:
            expected = evaluate_rule(
                timelines,
                ConsistencyRule(
                    evaluation.max_span_days, evaluation.allowed_missing
                ),
                GRID,
            )
            assert (evaluation.premises, evaluation.violations) == expected
        if any(e.premises for e in fast):
            event("premises > 0")
        if any(e.violations for e in fast):
            event("violations > 0")
        if any(0 < e.violations < e.premises for e in fast):
            event("0 < violations < premises")
