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
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.delegation.consistency import ConsistencyRule, evaluate_rule
from repro.delegation.forkpool import close_pool, fork_pool
from repro.errors import ReproError
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
    """O(1)-per-premise sweep on a contiguous daily grid.

    Presence prefix sums turn "how many absences between X and X+M"
    into a subtraction, so the whole (M, N) family is evaluated in one
    pass per M — this is what makes the Fig. 5 sweep (tens of rules on
    hundreds of multi-year timelines) run in seconds.
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
            for i in present_indices:
                j = i + span
                if j >= n or not present[j]:
                    continue
                absent = (span - 1) - (prefix[j] - prefix[i + 1])
                for k in missing_sorted:
                    premises[(span, k)] += 1
                    if absent > k:
                        violations[(span, k)] += 1
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


def _evaluate_span_subset(
    timelines: Dict[tuple, Sequence[datetime.date]],
    observation_dates: Sequence[datetime.date],
    span_values: Sequence[int],
    missing_values: Sequence[int],
) -> List[RuleEvaluation]:
    """Evaluate a subset of M values (the parallel unit of work)."""
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
    x-axis, one curve per N.  Daily snapshot grids take a prefix-sum
    fast path; sparse grids fall back to the generic evaluator.

    ``jobs`` fans the M sweep out over worker processes (the timelines
    are extracted once in the parent and shipped to each worker once);
    ``jobs=None`` or ``1`` evaluates in-process, and ``jobs=0`` means
    "use every core" (``os.cpu_count()``).  Results are ordered
    identically either way.
    """
    timelines = database.delegation_timeline()
    observation_dates = database.dates()
    spans = sorted(span_values)
    if jobs == 0:
        jobs = os.cpu_count() or 1
    resolved_jobs = min(jobs or 1, len(spans))
    if resolved_jobs <= 1:
        return _evaluate_span_subset(
            timelines, observation_dates, spans, missing_values
        )
    # Round-robin sharding balances the load: the cost of one M value
    # scales with its premise count, which shrinks as M grows.
    shards = [spans[i::resolved_jobs] for i in range(resolved_jobs)]
    evaluations: List[RuleEvaluation] = []
    executor = fork_pool(max_workers=resolved_jobs)
    try:
        futures = [
            executor.submit(
                _evaluate_span_subset,
                timelines, observation_dates, shard, missing_values,
            )
            for shard in shards
        ]
        for future in futures:
            try:
                evaluations.extend(future.result())
            except ReproError:
                raise
            except Exception as exc:
                raise ReproError(
                    "rule-evaluation worker failed: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
    finally:
        close_pool(executor)
    evaluations.sort(key=lambda e: (e.max_span_days, e.allowed_missing))
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
