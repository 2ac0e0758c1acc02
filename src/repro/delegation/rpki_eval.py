"""Fig. 5: consistency-rule validation on RPKI delegations.

The appendix evaluates the (M, N) rule family against delegations
inferred from RPKI snapshots, where ROA continuity makes presence
observable day by day.  Expected shape (paper):

- fail rate < 5 % at (M=10, N=0) — the rule the paper adopts,
- the fail rate never reaches 30 % even at M=100,
- at M=90, ~90 % of delegations are visible except for ≤ 3 days
  (N=3 fail rate ≈ 10 %).
"""

from __future__ import annotations

import datetime
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.delegation.consistency import ConsistencyRule, evaluate_rule
from repro.rpki.database import RoaDatabase


@dataclass(frozen=True)
class RuleEvaluation:
    """Fail rate of one (M, N) rule on the RPKI timelines."""

    max_span_days: int     # M
    allowed_missing: int   # N
    premises: int
    violations: int

    @property
    def fail_rate(self) -> float:
        if self.premises == 0:
            return 0.0
        return self.violations / self.premises


def _is_daily_grid(dates: Sequence[datetime.date]) -> bool:
    return all(
        (later - earlier).days == 1
        for earlier, later in zip(dates, dates[1:])
    )


def _evaluate_daily_fast(
    timelines: Dict[tuple, Sequence[datetime.date]],
    dates: Sequence[datetime.date],
    span_values: Sequence[int],
    missing_values: Sequence[int],
) -> List[RuleEvaluation]:
    """Counting sweep on a contiguous daily grid.

    Presence prefix sums turn "how many absences between X and X+M"
    into a subtraction.  Per timeline and M, the premises' absence
    counts are sorted once; the violations of every N are then the
    counts above N, one bisection each.
    """
    index = {date: i for i, date in enumerate(dates)}
    n = len(dates)
    spans = sorted(span_values)
    missing_sorted = sorted(missing_values)
    premises = {(m, k): 0 for m in spans for k in missing_sorted}
    violations = {(m, k): 0 for m in spans for k in missing_sorted}
    for observed in timelines.values():
        present = bytearray(n)
        for date in observed:
            i = index.get(date)
            if i is not None:
                present[i] = 1
        prefix = [0] * (n + 1)
        running = 0
        for i in range(n):
            running += present[i]
            prefix[i + 1] = running
        present_indices = [i for i in range(n) if present[i]]
        for span in spans:
            absent = sorted(
                (span - 1) - (prefix[i + span] - prefix[i + 1])
                for i in present_indices
                if i + span < n and present[i + span]
            )
            count = len(absent)
            for k in missing_sorted:
                premises[(span, k)] += count
                violations[(span, k)] += count - bisect_right(absent, k)
    return [
        RuleEvaluation(
            max_span_days=span,
            allowed_missing=k,
            premises=premises[(span, k)],
            violations=violations[(span, k)],
        )
        for span in spans
        for k in missing_sorted
    ]


def evaluate_rules_on_rpki(
    database: RoaDatabase,
    span_values: Sequence[int],
    missing_values: Sequence[int] = (0, 1, 2, 3),
    *,
    jobs: Optional[int] = None,
) -> List[RuleEvaluation]:
    """Evaluate every (M, N) combination on the database's delegations.

    Returns one :class:`RuleEvaluation` per combination, ordered by
    (M, N) — the Fig. 5 data: fail rate on the y-axis against M on the
    x-axis, one curve per N.  Daily snapshot grids take the counting
    fast path; sparse grids fall back to the generic evaluator.

    ``jobs`` is accepted and ignored: the sweep runs in one process,
    which on the paper world is no slower than a two-worker pool.
    """
    timelines = database.delegation_timeline()
    observation_dates = database.dates()
    if _is_daily_grid(observation_dates):
        return _evaluate_daily_fast(
            timelines, observation_dates, span_values, missing_values
        )
    evaluations: List[RuleEvaluation] = []
    for span in sorted(span_values):
        for missing in sorted(missing_values):
            rule = ConsistencyRule(span, missing)
            premises, violations = evaluate_rule(
                timelines, rule, observation_dates
            )
            evaluations.append(
                RuleEvaluation(
                    max_span_days=span,
                    allowed_missing=missing,
                    premises=premises,
                    violations=violations,
                )
            )
    return evaluations


def fail_rate_curves(
    evaluations: Sequence[RuleEvaluation],
) -> Dict[int, List[Tuple[int, float]]]:
    """Group evaluations into N → [(M, fail_rate), ...] plot series."""
    curves: Dict[int, List[Tuple[int, float]]] = {}
    for evaluation in evaluations:
        curves.setdefault(evaluation.allowed_missing, []).append(
            (evaluation.max_span_days, evaluation.fail_rate)
        )
    for series in curves.values():
        series.sort()
    return curves
