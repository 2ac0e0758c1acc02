"""The "(M, N)" consistency-rule family (appendix A).

Rules have the form: *if a delegation is observed on day X and on day
X+M, it also exists for all but N days in between.*  Two operations:

- :func:`evaluate_rule` — measure a rule's **fail rate** on observed
  delegation timelines (the fraction of (X, X+M) pairs whose gap
  exceeds N missing days), used on RPKI data to pick (M=10, N=0)
  (Fig. 5);
- :func:`fill_gaps` — apply a rule to BGP delegations (extension (v)):
  gaps up to M days are filled **unless** a *conflicting* delegation
  (same prefix, different delegatee) was observed in between.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

from repro.delegation.model import ASN_MASK, DailyDelegations
from repro.obs.metrics import NULL, MetricsRegistry


@dataclass(frozen=True)
class ConsistencyRule:
    """One rule: observations M days apart imply ≤ N missing days."""

    max_span_days: int = 10   # M
    allowed_missing: int = 0  # N

    def __post_init__(self) -> None:
        if self.max_span_days < 1:
            raise ValueError("M must be at least one day")
        if self.allowed_missing < 0:
            raise ValueError("N cannot be negative")


def evaluate_rule(
    timelines: Mapping[tuple, Sequence[datetime.date]],
    rule: ConsistencyRule,
    observation_dates: Sequence[datetime.date],
) -> Tuple[int, int]:
    """Count (premises, violations) of ``rule`` over ``timelines``.

    ``timelines`` maps a delegation key to the sorted dates it was
    observed; ``observation_dates`` is the full grid of days data
    exists for (gaps in the *data* must not count as absences).

    A premise is any pair of observations of the same delegation
    exactly M days apart (with data available for every day between);
    it is violated when the delegation is absent on more than N of the
    in-between days.
    """
    date_index = {date: i for i, date in enumerate(sorted(observation_dates))}
    sorted_dates = sorted(observation_dates)
    premises = 0
    violations = 0
    span = datetime.timedelta(days=rule.max_span_days)
    for dates in timelines.values():
        present = set(dates)
        for start in dates:
            end = start + span
            if end not in present:
                continue
            # Require full data coverage for the in-between days.
            start_i = date_index.get(start)
            end_i = date_index.get(end)
            if start_i is None or end_i is None:
                continue
            between = sorted_dates[start_i + 1:end_i]
            if any(
                (day - start).days < 0 or (end - day).days < 0
                for day in between
            ):  # pragma: no cover - sorted grid guarantees order
                continue
            expected_days = rule.max_span_days - 1
            if len(between) != expected_days:
                continue  # data gaps: not a valid premise
            premises += 1
            missing = sum(1 for day in between if day not in present)
            if missing > rule.allowed_missing:
                violations += 1
    return premises, violations


def fail_rate(
    timelines: Mapping[tuple, Sequence[datetime.date]],
    rule: ConsistencyRule,
    observation_dates: Sequence[datetime.date],
) -> float:
    """The rule's fail rate (violations / premises); 0.0 if no premise."""
    premises, violations = evaluate_rule(timelines, rule, observation_dates)
    if premises == 0:
        return 0.0
    return violations / premises


def _conflict_days_by_prefix(
    timelines: Mapping[int, Sequence[datetime.date]],
) -> Dict[int, Dict[int, Set[datetime.date]]]:
    """prefix key → delegatee → observation days, for *ambiguous* prefixes.

    ``timelines`` is keyed on packed delegation keys
    (:func:`~repro.delegation.model.pack_key`): the prefix is
    ``key >> 64`` and the delegatee ``key & ASN_MASK``.  A conflict can
    only arise on a prefix delegated to more than one delegatee
    somewhere in the window; those are rare (MOAS announcements are
    dropped in step (iii)), so restricting the map to them keeps
    :func:`fill_gaps` from indexing every (day, delegation) pair.
    """
    delegatees: Dict[int, Set[int]] = {}
    for key in timelines:
        delegatees.setdefault(key >> 64, set()).add(key & ASN_MASK)
    ambiguous = {p for p, seen in delegatees.items() if len(seen) > 1}
    conflict_map: Dict[int, Dict[int, Set[datetime.date]]] = {}
    for key, dates in timelines.items():
        if key >> 64 in ambiguous:
            conflict_map.setdefault(key >> 64, {}).setdefault(
                key & ASN_MASK, set()
            ).update(dates)
    return conflict_map


def fill_gaps(
    daily: DailyDelegations,
    rule: ConsistencyRule,
    observation_dates: Sequence[datetime.date],
    *,
    metrics: MetricsRegistry = NULL,
) -> DailyDelegations:
    """Apply extension (v): fill on-off gaps up to M days.

    For every delegation key observed on two days at most M apart, the
    key is added to all observation days in between — unless any
    in-between day shows the same prefix delegated to a *different*
    delegatee (a conflicting delegation), which invalidates the
    presumption.

    Only days present in ``observation_dates`` are filled: the rule
    reconstructs what measurement gaps hid, it does not invent data for
    days nobody measured.

    ``metrics`` receives ``pipeline.consistency.fills`` (key-days
    added) and ``pipeline.consistency.conflicts`` (gaps left open
    because of a rival delegation); both are deterministic functions
    of the input, so parallel and sequential runs report the same.
    """
    sorted_dates = sorted(observation_dates)
    date_index = {date: i for i, date in enumerate(sorted_dates)}
    timelines = daily.packed_timeline()
    conflicts = _conflict_days_by_prefix(timelines)
    filled = daily.copy()
    fill_count = 0
    conflict_count = 0
    for key, dates in timelines.items():
        delegatee = key & ASN_MASK
        rivals = conflicts.get(key >> 64)
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
                conflicted = any(
                    other != delegatee
                    and not days.isdisjoint(between_set)
                    for other, days in rivals.items()
                )
                if conflicted:
                    conflict_count += 1
                    continue
            for day in between:
                filled.record_packed(day, (key,))
            fill_count += len(between)
    metrics.inc("pipeline.consistency.fills", fill_count)
    metrics.inc("pipeline.consistency.conflicts", conflict_count)
    return filled
