"""Incremental day-over-day delegation inference (NRTM-style deltas).

Consecutive daily RIBs share the overwhelming majority of their
(prefix, origin) pairs, yet the per-day kernel recomputes every day
from a full :class:`~repro.bgp.rib.PairTable`.  This module makes the
day-over-day change the unit of work instead:

- :func:`diff_pair_tables` — one sorted merge walk turns two
  consecutive days' packed tables into a :class:`PairDelta`
  (removed keys + upserted column entries); :func:`apply_delta` is its
  exact inverse, and a hypothesis suite pins
  ``apply(A, diff(A, B)) == B`` for arbitrary tables.
- :class:`DeltaState` — the visibility/bogon/unique-origin filter
  state as an explicit, mutable structure.  Seeding classifies every
  pair once; applying a delta re-classifies only the pairs that
  changed, keeping per-filter attrition counters and the sorted
  survivor columns incrementally in sync with what a full kernel run
  over the current table would produce.  Days whose delta leaves the
  survivors untouched reuse the previous day's delegation rows
  outright (the "fast path").
- :class:`DeltaJournal` — an append-only JSONL journal of per-day
  entries with monotonically increasing serials, modelled on the NRTM
  mirroring protocol: one ``seed`` entry (the full first day) followed
  by one ``delta`` entry per day.  Entries are content-addressed with
  the same canonical-JSON sha256 the v2 result cache uses
  (:func:`repro.delegation.io.content_digest`) and hash-chained, so a
  torn tail after a crash is detected and dropped, never replayed.
  Each entry also carries the day's attrition counters and the
  delegation-row delta, so a warm replay folds rows directly — no
  stream access, no classification, no cover pass.

The multi-day driver lives in :func:`repro.delegation.runner.
run_inference` (``incremental=True``); :class:`LiveDeltaHandle` is the
piece the serving layer (:mod:`repro.serve.engine`) keeps so a running
server can apply new-day entries in place.
"""

from __future__ import annotations

import datetime
import json
import logging
import pathlib
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.bgp.rib import PairTable
from repro.delegation.inference import _BOGON_INTERVALS, InferenceConfig
from repro.delegation.io import canonical_json, content_digest
from repro.delegation.model import DailyDelegations
from repro.errors import ReproError
from repro.netbase.lpm import (
    _HOST_BITS,
    diff_sorted_keys,
    nearest_strict_covers,
    require_codec_itemsizes,
)

# The delta columns round-trip through array('Q')/('I') buffers whose
# widths the journal codec (and every PairDelta consumer) assumes.
require_codec_itemsizes()

logger = logging.getLogger(__name__)

#: Bump when the journal entry layout changes incompatibly.  The
#: schema participates in :func:`journal_key`, so old journals become
#: clean misses instead of being misread.  v2 renamed the seed entry's
#: ``(packed_key, S, T)`` row field from ``"quads"`` to ``"rows"``.
DELTA_SCHEMA = 2

#: The five per-day attrition counters, in cache-payload order.
COUNTER_FIELDS = (
    "pairs_seen",
    "pairs_dropped_visibility",
    "pairs_dropped_origin",
    "delegations_dropped_same_org",
    "bogon_prefix",
)

# Filter buckets a pair can land in — mirrors the fused filter order
# of the columnar kernel (bogon, then visibility, then unique-origin).
_SURVIVOR = 0
_BOGON = 1
_VISIBILITY = 2
_ORIGIN = 3

# The bogon intervals split into parallel tuples for bisection: the
# intervals are sorted and disjoint, so their end addresses ascend and
# the two-pointer predicate of the batch kernel becomes one bisect.
_BOGON_STARTS = tuple(first for first, _last in _BOGON_INTERVALS)
_BOGON_ENDS = tuple(last for _first, last in _BOGON_INTERVALS)


# -- the delta record -----------------------------------------------------


@dataclass
class PairDelta:
    """The change between two consecutive days' pair tables.

    ``removed`` holds packed keys present yesterday but gone today;
    the parallel ``upsert_*`` columns hold every pair that is new
    today *or* changed any observed fact (origin, uniqueness flag,
    monitor count).  Both key sequences are sorted ascending and
    disjoint — :func:`apply_delta` enforces the contract.
    """

    removed: "array" = field(default_factory=lambda: array("Q"))
    upsert_keys: "array" = field(default_factory=lambda: array("Q"))
    upsert_origins: "array" = field(default_factory=lambda: array("Q"))
    upsert_flags: "array" = field(default_factory=lambda: array("B"))
    upsert_monitors: "array" = field(default_factory=lambda: array("I"))

    def __len__(self) -> int:
        return len(self.removed) + len(self.upsert_keys)

    @property
    def is_empty(self) -> bool:
        return not self.removed and not self.upsert_keys


def diff_pair_tables(old: PairTable, new: PairTable) -> PairDelta:
    """``new`` relative to ``old``, in one O(n + m) merge walk."""
    removed_idx, added_idx, common = diff_sorted_keys(old.keys, new.keys)
    delta = PairDelta()
    delta.removed.extend(old.keys[i] for i in removed_idx)
    upserts: List[Tuple[int, int, int, int]] = [
        new.column_at(j) for j in added_idx
    ]
    for i, j in common:
        if (
            old.origins[i] != new.origins[j]
            or old.flags[i] != new.flags[j]
            or old.monitor_counts[i] != new.monitor_counts[j]
        ):
            upserts.append(new.column_at(j))
    upserts.sort()
    for key, origin, flags, monitors in upserts:
        delta.upsert_keys.append(key)
        delta.upsert_origins.append(origin)
        delta.upsert_flags.append(flags)
        delta.upsert_monitors.append(monitors)
    return delta


def apply_delta(table: PairTable, delta: PairDelta) -> PairTable:
    """The table ``delta`` was diffed *to* — exact inverse of
    :func:`diff_pair_tables`.

    One merge pass building fresh sorted columns; raises
    :class:`ReproError` when ``delta`` removes a pair the table does
    not hold (a foreign or corrupted delta must never half-apply).
    """
    out_keys = array("Q")
    out_origins = array("Q")
    out_flags = array("B")
    out_monitors = array("I")
    keys = table.keys
    origins = table.origins
    flags = table.flags
    monitors = table.monitor_counts
    removed = delta.removed
    up_keys = delta.upsert_keys
    i = u = r = 0
    n = len(keys)
    upsert_count = len(up_keys)
    removed_count = len(removed)
    while i < n or u < upsert_count:
        if u < upsert_count and (i >= n or up_keys[u] <= keys[i]):
            key = up_keys[u]
            if i < n and keys[i] == key:
                i += 1  # changed entry: the upsert replaces it
            out_keys.append(key)
            out_origins.append(delta.upsert_origins[u])
            out_flags.append(delta.upsert_flags[u])
            out_monitors.append(delta.upsert_monitors[u])
            u += 1
            continue
        key = keys[i]
        if r < removed_count and removed[r] == key:
            r += 1
            i += 1
            continue
        out_keys.append(key)
        out_origins.append(origins[i])
        out_flags.append(flags[i])
        out_monitors.append(monitors[i])
        i += 1
    if r != removed_count:
        raise ReproError(
            "delta removes pairs absent from the table "
            f"({removed_count - r} unmatched)"
        )
    return PairTable(out_keys, out_origins, out_flags, out_monitors)


# -- the journaled filter state -------------------------------------------


class DeltaState:
    """The fused filter state of one day, updated incrementally.

    Holds every pair of the current table in a dict plus the sorted
    survivor columns the Krenc–Feldmann cover pass consumes, and the
    per-bucket attrition counts.  Seeding classifies every pair once
    (same predicate order as the columnar kernel's fused pass);
    applying a :class:`PairDelta` re-classifies only the changed
    pairs, so a day whose RIBs barely moved costs work proportional to
    the movement — not to the table.
    """

    def __init__(self, config: InferenceConfig, total_monitors: int):
        if total_monitors <= 0:
            raise ReproError("total_monitors must be positive")
        self.config = config
        self.total_monitors = total_monitors
        self._needed = config.required_monitors(total_monitors)
        self._check_bogon = config.sanitize
        #: packed key -> (origin, flags, monitors), exactly the column
        #: values of the current table.
        self._entries: Dict[int, Tuple[int, int, int]] = {}
        self._survivor_keys: "array" = array("Q")
        self._survivor_origins: List[int] = []
        self._bogon = 0
        self._visibility = 0
        self._origin = 0
        # Cached cover-pass output for the fast path: valid while the
        # survivors and the as2org snapshot identity are unchanged.
        self._rows_dirty = True
        self._rows_cache: List[Tuple[int, int, int]] = []
        self._rows_dropped = 0
        self._rows_token: object = None

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def survivor_count(self) -> int:
        return len(self._survivor_keys)

    # -- classification (the fused filter, one pair at a time) ---------

    def _classify(self, key: int, flags: int, monitor_count: int) -> int:
        if self._check_bogon:
            network = key >> 6
            j = bisect_left(_BOGON_ENDS, network)
            if j < len(_BOGON_ENDS) and _BOGON_STARTS[j] <= (
                network | _HOST_BITS[key & 0x3F]
            ):
                return _BOGON
        if monitor_count < self._needed:
            return _VISIBILITY
        if not flags:
            return _ORIGIN
        return _SURVIVOR

    def _add(self, key: int, entry: Tuple[int, int, int]) -> None:
        bucket = self._classify(key, entry[1], entry[2])
        if bucket == _SURVIVOR:
            index = bisect_left(self._survivor_keys, key)
            self._survivor_keys.insert(index, key)
            self._survivor_origins.insert(index, entry[0])
        elif bucket == _BOGON:
            self._bogon += 1
        elif bucket == _VISIBILITY:
            self._visibility += 1
        else:
            self._origin += 1

    def _drop(self, key: int, entry: Tuple[int, int, int]) -> None:
        bucket = self._classify(key, entry[1], entry[2])
        if bucket == _SURVIVOR:
            index = bisect_left(self._survivor_keys, key)
            self._survivor_keys.pop(index)
            self._survivor_origins.pop(index)
        elif bucket == _BOGON:
            self._bogon -= 1
        elif bucket == _VISIBILITY:
            self._visibility -= 1
        else:
            self._origin -= 1

    # -- bulk seed / incremental apply ---------------------------------

    def seed(self, table: PairTable) -> None:
        """Load the first day's full table, classifying every pair."""
        self._entries = {}
        self._survivor_keys = array("Q")
        self._survivor_origins = []
        self._bogon = self._visibility = self._origin = 0
        keys = table.keys
        origins = table.origins
        flags = table.flags
        monitors = table.monitor_counts
        entries = self._entries
        # The table is key-sorted, so survivors append in sorted order.
        keep_key = self._survivor_keys.append
        keep_origin = self._survivor_origins.append
        for i, key in enumerate(keys):
            entry = (origins[i], flags[i], monitors[i])
            entries[key] = entry
            bucket = self._classify(key, entry[1], entry[2])
            if bucket == _SURVIVOR:
                keep_key(key)
                keep_origin(entry[0])
            elif bucket == _BOGON:
                self._bogon += 1
            elif bucket == _VISIBILITY:
                self._visibility += 1
            else:
                self._origin += 1
        self._rows_dirty = True

    def apply(self, delta: PairDelta) -> None:
        """Advance the state by one day's delta."""
        entries = self._entries
        for key in delta.removed:
            entry = entries.pop(key, None)
            if entry is None:
                raise ReproError(
                    f"delta removes unknown pair key {key}"
                )
            self._drop(key, entry)
        up_keys = delta.upsert_keys
        up_origins = delta.upsert_origins
        up_flags = delta.upsert_flags
        up_monitors = delta.upsert_monitors
        for u in range(len(up_keys)):
            key = up_keys[u]
            new_entry = (up_origins[u], up_flags[u], up_monitors[u])
            old_entry = entries.get(key)
            if old_entry is not None:
                self._drop(key, old_entry)
            entries[key] = new_entry
            self._add(key, new_entry)
        if not delta.is_empty:
            self._rows_dirty = True

    def to_table(self) -> PairTable:
        """The current table, rebuilt from state (resume handoff)."""
        keys = array("Q", sorted(self._entries))
        origins = array("Q", bytes(8 * len(keys)))
        flags = array("B", bytes(len(keys)))
        monitors = array("I", bytes(4 * len(keys)))
        for index, key in enumerate(keys):
            origin, flag, monitor_count = self._entries[key]
            origins[index] = origin
            flags[index] = flag
            monitors[index] = monitor_count
        return PairTable(keys, origins, flags, monitors)

    # -- per-day output -------------------------------------------------

    def day_rows(
        self, same_org_snapshot: object = None
    ) -> Tuple[List[Tuple[int, int, int]], int, bool]:
        """The day's delegation rows ``(packed_key, S, T)``, sorted.

        ``same_org_snapshot`` is the as2org snapshot for the day (or
        ``None`` with extension (iv) off); snapshot *identity* gates
        the fast path, so quarters where neither the survivors nor the
        snapshot changed skip the cover pass entirely.  Returns
        ``(rows, same_org_dropped, fast_pathed)``.
        """
        if (
            not self._rows_dirty
            and same_org_snapshot is self._rows_token
        ):
            return self._rows_cache, self._rows_dropped, True
        covers = nearest_strict_covers(self._survivor_keys)
        same_org = (
            same_org_snapshot.same_org
            if same_org_snapshot is not None else None
        )
        keys = self._survivor_keys
        origins = self._survivor_origins
        rows: List[Tuple[int, int, int]] = []
        dropped = 0
        for i, cover_index in enumerate(covers):
            if cover_index < 0:
                continue
            delegator = origins[cover_index]
            delegatee = origins[i]
            if delegator == delegatee:
                continue
            if same_org is not None and same_org(delegator, delegatee):
                dropped += 1
                continue
            rows.append((keys[i], delegator, delegatee))
        self._rows_cache = rows
        self._rows_dropped = dropped
        self._rows_token = same_org_snapshot
        self._rows_dirty = False
        return rows, dropped, False

    def day_counters(self, same_org_dropped: int) -> Dict[str, int]:
        """The day's attrition counters, matching the full kernel."""
        return {
            "pairs_seen": len(self._entries) - self._bogon,
            "pairs_dropped_visibility": self._visibility,
            "pairs_dropped_origin": self._origin,
            "delegations_dropped_same_org": same_org_dropped,
            "bogon_prefix": self._bogon,
        }


# -- journal entries ------------------------------------------------------


def rows_to_quads(
    rows: List[Tuple[int, int, int]]
) -> List[Tuple[int, int, int, int]]:
    """``(packed_key, S, T)`` rows → cache-payload quads.

    Rows arrive in packed-key order and keys are unique, so the output
    is already in the ``sorted()`` order the v2 cache payloads use.
    """
    return [
        (key >> 6, key & 0x3F, delegator, delegatee)
        for key, delegator, delegatee in rows
    ]


def seed_entry(
    date: datetime.date,
    table: PairTable,
    total_monitors: int,
    counters: Dict[str, int],
    rows: List[Tuple[int, int, int]],
) -> dict:
    """Serial-1 journal entry: the full first day."""
    return {
        "schema": DELTA_SCHEMA,
        "serial": 1,
        "kind": "seed",
        "date": date.isoformat(),
        "total_monitors": total_monitors,
        "pairs": [
            list(table.column_at(i)) for i in range(len(table))
        ],
        "counters": {name: counters[name] for name in COUNTER_FIELDS},
        "rows": [list(row) for row in rows],
    }


def delta_entry(
    serial: int,
    date: datetime.date,
    delta: PairDelta,
    counters: Dict[str, int],
    rows_added: List[Tuple[int, int, int]],
    rows_removed: List[Tuple[int, int, int]],
) -> dict:
    """One day's journal entry: pair delta + derived row delta.

    The pair delta is the ground truth (resume re-derives the filter
    state from it); the row delta and counters are carried so a pure
    warm replay never re-runs classification or the cover pass.
    """
    return {
        "schema": DELTA_SCHEMA,
        "serial": serial,
        "kind": "delta",
        "date": date.isoformat(),
        "removed": list(delta.removed),
        "upserts": [
            [
                delta.upsert_keys[u],
                delta.upsert_origins[u],
                delta.upsert_flags[u],
                delta.upsert_monitors[u],
            ]
            for u in range(len(delta.upsert_keys))
        ],
        "counters": {name: counters[name] for name in COUNTER_FIELDS},
        "rows_added": [list(row) for row in rows_added],
        "rows_removed": [list(row) for row in rows_removed],
    }


def table_from_entry(entry: dict) -> PairTable:
    """Rebuild the seed entry's full pair table."""
    pairs = entry["pairs"]
    keys = array("Q")
    origins = array("Q")
    flags = array("B")
    monitors = array("I")
    for key, origin, flag, monitor_count in pairs:
        keys.append(key)
        origins.append(origin)
        flags.append(flag)
        monitors.append(monitor_count)
    return PairTable(keys, origins, flags, monitors)


def delta_from_entry(entry: dict) -> PairDelta:
    """Rebuild a delta entry's :class:`PairDelta`."""
    delta = PairDelta()
    delta.removed.extend(entry["removed"])
    for key, origin, flag, monitor_count in entry["upserts"]:
        delta.upsert_keys.append(key)
        delta.upsert_origins.append(origin)
        delta.upsert_flags.append(flag)
        delta.upsert_monitors.append(monitor_count)
    return delta


def fold_entry_rows(
    rows: List[Tuple[int, int, int]], entry: dict
) -> List[Tuple[int, int, int]]:
    """Apply one delta entry's row delta to the previous day's rows."""
    removed = {tuple(row) for row in entry["rows_removed"]}
    out = [row for row in rows if row not in removed]
    out.extend(tuple(row) for row in entry["rows_added"])
    out.sort()
    return out


# -- the journal ----------------------------------------------------------


def journal_key(
    config: InferenceConfig,
    input_fingerprint: str,
    as2org_fingerprint: Optional[str],
    start: datetime.date,
    step_days: int,
) -> str:
    """Content address of one sweep's journal.

    Same exclusions as the per-day cache key: the consistency rule (v)
    runs after the fan-in and the kernel choice cannot change output.
    The window *start* and stride participate (every entry's date is
    determined by them), but the *end* deliberately does not — growing
    the window appends to the same journal instead of starting over.
    """
    return content_digest({
        "schema": DELTA_SCHEMA,
        "visibility_threshold": repr(config.visibility_threshold),
        "drop_non_unique_origins": config.drop_non_unique_origins,
        "same_org_filter": config.same_org_filter,
        "sanitize": config.sanitize,
        "input": input_fingerprint,
        "as2org": (
            as2org_fingerprint if config.same_org_filter else None
        ),
        "start": start.isoformat(),
        "step_days": step_days,
    })


def journal_path(
    base_dir: Union[str, pathlib.Path], key: str
) -> pathlib.Path:
    # Same two-level fan-out as the v2 cache directory.
    return pathlib.Path(base_dir) / key[:2] / f"{key}.jsonl"


def _chain_digest(prev_digest: Optional[str], body: str) -> str:
    import hashlib

    text = (prev_digest or "") + "\n" + body
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class DeltaJournal:
    """Append-only JSONL journal of per-day delta entries.

    Each line is ``{"serial": n, "digest": d, "body": e}`` where ``e``
    is the canonical-JSON entry and ``d`` chains it to the previous
    line's digest — the NRTM idea of serial-numbered, append-only
    mirror records, content-addressed like the v2 cache.  Reading
    validates the chain and stops at the first torn or foreign line;
    appending truncates that invalid tail first, so a crash mid-write
    costs at most one day of recompute.
    """

    def __init__(self, path: Union[str, pathlib.Path]):
        self.path = pathlib.Path(path)
        self._loaded = False
        self._valid_bytes = 0
        self._tail_digest: Optional[str] = None
        self._serial = 0

    @property
    def serial(self) -> int:
        """Highest valid serial on disk (0 for a fresh journal)."""
        if not self._loaded:
            self.read()
        return self._serial

    def read(self) -> List[dict]:
        """Every valid entry, in serial order.

        Validation is structural (outer JSON, digest chain, schema,
        contiguous serials); the first failure ends the valid prefix
        — everything before it is trusted, everything after ignored.
        """
        entries: List[dict] = []
        offset = 0
        prev: Optional[str] = None
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:
            self._loaded = True
            self._valid_bytes = 0
            self._tail_digest = None
            self._serial = 0
            return entries
        with handle:
            for raw in handle:
                entry = self._validate_line(raw, prev, len(entries) + 1)
                if entry is None:
                    logger.warning(
                        "delta journal %s: dropping invalid tail at "
                        "byte %d", self.path, offset,
                    )
                    break
                entries.append(entry)
                prev = entry["_digest"]
                offset += len(raw)
        for entry in entries:
            del entry["_digest"]
        self._loaded = True
        self._valid_bytes = offset
        self._tail_digest = prev
        self._serial = len(entries)
        return entries

    @staticmethod
    def _validate_line(
        raw: bytes, prev: Optional[str], expected_serial: int
    ) -> Optional[dict]:
        try:
            outer = json.loads(raw.decode("utf-8"))
            body = outer["body"]
            digest = outer["digest"]
        except (ValueError, KeyError, TypeError):
            return None
        if not isinstance(body, str) or not isinstance(digest, str):
            return None
        if _chain_digest(prev, body) != digest:
            return None
        try:
            entry = json.loads(body)
        except ValueError:
            return None
        if not isinstance(entry, dict):
            return None
        if entry.get("schema") != DELTA_SCHEMA:
            return None
        if entry.get("serial") != expected_serial:
            return None
        expected_kind = "seed" if expected_serial == 1 else "delta"
        if entry.get("kind") != expected_kind:
            return None
        entry["_digest"] = digest
        return entry

    def append(self, entry: dict) -> None:
        """Chain-and-append one entry; flushed before returning.

        The entry's serial must continue the on-disk sequence — the
        runner appends each day *before* using its payload, so a crash
        between append and use is replayed, never lost.
        """
        if not self._loaded:
            self.read()
        if entry["serial"] != self._serial + 1:
            raise ReproError(
                f"journal serial gap: on-disk {self._serial}, "
                f"appending {entry['serial']}"
            )
        body = canonical_json(entry)
        digest = _chain_digest(self._tail_digest, body)
        line = json.dumps(
            {"serial": entry["serial"], "digest": digest, "body": body}
        ) + "\n"
        data = line.encode("utf-8")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "ab") as handle:
            if handle.tell() != self._valid_bytes:
                handle.truncate(self._valid_bytes)
            handle.write(data)
            handle.flush()
        self._valid_bytes += len(data)
        self._tail_digest = digest
        self._serial = entry["serial"]


# -- the serving-layer handle ---------------------------------------------


@dataclass
class LiveDeltaHandle:
    """Everything a running server needs to apply new-day entries.

    Produced by the incremental runner alongside its
    :class:`~repro.delegation.inference.InferenceResult`:
    ``base_daily`` is the per-day record *before* consistency-rule gap
    filling (rule (v) must be re-run over the extended window after
    each apply), ``rows`` the latest day's delegation rows the next
    entry's row delta folds into.
    """

    serial: int
    dates: List[datetime.date]
    base_daily: DailyDelegations
    rows: List[Tuple[int, int, int]]
    rule: Optional[object] = None
