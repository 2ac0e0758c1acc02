"""Parallel, cached execution of the delegation-inference pipeline.

The Fig. 6 measurement runs steps (i)–(iv) on ~880 independent daily
RIBs and applies the cross-day consistency rule (v) once over the
whole window.  The per-day passes are embarrassingly parallel and
fully determined by the inference configuration plus the input data,
so this module provides:

- **day fan-out** across a :class:`concurrent.futures.
  ProcessPoolExecutor` — the date range is sharded into contiguous
  chunks, each worker builds its route stream once (from a picklable
  *stream factory*) and reuses it for every day of its shard, and the
  as2org snapshots are shipped to each worker once at pool start-up
  instead of being re-loaded per day;
- **an on-disk, content-addressed result cache** — one small binary
  file per (config, input, day), keyed on the :class:`~repro.
  delegation.inference.InferenceConfig` fields that affect steps
  (i)–(iv) plus fingerprints of the input stream and the as2org
  dataset.  The v2 payload is a fixed struct header (date + the five
  attrition counters) followed by flat little-endian ``(network,
  length, delegator, delegatee)`` quads — 16 bytes per delegation, no
  JSON or string parsing on the warm path.  The schema number is part
  of the content address, so bumping it turns every v1 entry into a
  clean miss (old ``.json`` entries are simply never probed).
  Re-running with an unchanged configuration is a pure cache read;
  ablation sweeps only recompute the days whose parameters actually
  changed (in particular, sweeping the consistency rule (v) never
  invalidates the per-day cache, because (v) runs after the fan-in).
  The kernel choice is deliberately *not* part of the key: both
  kernels produce byte-identical results, so their entries are
  interchangeable;
- **fan-in** in the parent: per-day results are merged in date order
  into one :class:`~repro.delegation.inference.InferenceResult`, and
  extension (v) is applied exactly once, so the output is
  byte-identical to the sequential
  :meth:`~repro.delegation.inference.DelegationInference.infer_range`.

Worker failures (including hard crashes that break the pool) surface
as :class:`~repro.errors.ReproError` instead of a hang or a raw
``BrokenProcessPool``.
"""

from __future__ import annotations

import datetime
import hashlib
import itertools
import json
import logging
import os
import pathlib
import struct
import sys
import time
from array import array
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.asorg.as2org import As2OrgDataset
from repro.bgp.rib import PairTable
from repro.bgp.stream import RouteStream, date_range
from repro.delegation import delta as delta_mod
from repro.delegation.consistency import fill_gaps
from repro.delegation.forkpool import close_pool, fork_pool
from repro.delegation.inference import (
    KERNELS,
    DelegationInference,
    InferenceConfig,
    InferenceResult,
    record_pipeline_counters,
)
from repro.delegation.io import content_digest
from repro.delegation.model import DailyDelegations, keys_from_quad_words
from repro.errors import ReproError
from repro.netbase.lpm import day_shard_bounds, require_codec_itemsizes
from repro.obs.metrics import NULL, MetricsRegistry
from repro.store.shard import (
    ShardStore,
    atomic_write_bytes,
    decode_shard_buffer,
    encode_shard_bytes,
    sweep_stale_temporaries,
)

require_codec_itemsizes()

logger = logging.getLogger(__name__)

#: Bump when the cache payload layout changes: old entries become
#: misses instead of being misread.  v2 switched the per-day payload
#: from JSON (string prefixes) to the compact binary quad encoding —
#: and because the schema participates in :func:`_cache_key`, every v1
#: entry hashes to a different address and is never even opened.
CACHE_SCHEMA = 2

#: Target number of chunks per worker — small enough to amortize task
#: dispatch, large enough to keep the pool busy when days vary in cost.
_CHUNKS_PER_WORKER = 4

#: A picklable zero-argument callable building the worker's stream.
StreamFactory = Callable[[], RouteStream]


@dataclass(frozen=True)
class WorldStreamFactory:
    """Build a :class:`RouteStream` from a scenario, in any process.

    The scenario config is a small frozen dataclass, so shipping the
    factory to a worker costs a few hundred bytes; the worker then
    regenerates its own deterministic world (topology, propagation,
    announcement source) exactly once and serves every day of its
    shard from it.
    """

    scenario: object  # repro.simulation.scenario.ScenarioConfig

    def __call__(self) -> RouteStream:
        from repro.simulation import World

        return World(self.scenario).stream()

    def fingerprint(self) -> str:
        """Input identity for the cache key.

        ``repr`` of a frozen dataclass is deterministic across
        processes (unlike ``hash``) and covers every generation
        parameter, including the seed.
        """
        text = f"world:{self.scenario!r}"
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ArchiveStreamFactory:
    """Build an archive-backed :class:`RouteStream` in any process.

    ``system_factory`` must itself be picklable and rebuild the
    :class:`~repro.bgp.collector.CollectorSystem` describing the
    monitor population (needed for the visibility denominator).
    """

    archive_dir: str
    system_factory: Callable[[], object]

    def __call__(self) -> RouteStream:
        return RouteStream(
            self.system_factory(), archive_dir=self.archive_dir
        )

    def fingerprint(self) -> str:
        """Hash of the archive's file names and sizes.

        Cheap (no content read) but catches added/removed days and
        rewritten files of different length; byte-level edits that
        preserve the size are considered the same input.
        """
        base = pathlib.Path(self.archive_dir)
        digest = hashlib.sha256(b"archive:")
        for path in sorted(base.rglob("*.jsonl")):
            stat = path.stat()
            entry = f"{path.relative_to(base)}:{stat.st_size}"
            digest.update(entry.encode("utf-8"))
        return digest.hexdigest()


@dataclass(frozen=True)
class RunnerStats:
    """What one :func:`run_inference` call actually did."""

    jobs: int
    days_total: int
    days_from_cache: int
    days_computed: int
    elapsed_seconds: float
    cache_dir: Optional[str] = None
    #: Incremental-mode accounting: journal-replayed days never touch
    #: the stream at all; fast-pathed days reused the previous day's
    #: delegation rows because their delta left the survivors alone.
    incremental: bool = False
    days_replayed: int = 0
    days_fastpathed: int = 0
    journal: Optional[str] = None
    #: The shard store directory, when the run was store-backed.
    store_dir: Optional[str] = None

    @property
    def cache_hit_rate(self) -> float:
        if self.days_total == 0:
            return 0.0
        return self.days_from_cache / self.days_total


# -- cache ----------------------------------------------------------------


def _cache_key(
    config: InferenceConfig,
    date: datetime.date,
    input_fingerprint: str,
    as2org_fingerprint: Optional[str],
) -> str:
    """Content address of one day's steps (i)–(iv) output.

    Deliberately excludes ``consistency_rule``: extension (v) is
    applied after the fan-in, so sweeping (M, N) reuses every per-day
    entry.  The as2org fingerprint only participates when extension
    (iv) is on — toggling datasets cannot invalidate runs that never
    consulted them.
    """
    return content_digest({
        "schema": CACHE_SCHEMA,
        "date": date.isoformat(),
        "visibility_threshold": repr(config.visibility_threshold),
        "drop_non_unique_origins": config.drop_non_unique_origins,
        "same_org_filter": config.same_org_filter,
        "sanitize": config.sanitize,
        "input": input_fingerprint,
        "as2org": as2org_fingerprint if config.same_org_filter else None,
    })


def _cache_path(cache_dir: pathlib.Path, key: str) -> pathlib.Path:
    # Two-level fan-out keeps directories small on multi-year sweeps.
    return cache_dir / key[:2] / f"{key}.bin"


#: v2 binary layout: header (magic, schema, date, the five attrition
#: counters, record count) followed by ``count`` little-endian u32
#: quads ``(network, length, delegator, delegatee)``.
_CACHE_MAGIC = b"RPD2"
_CACHE_HEADER = struct.Struct("<4sHHBB5QI")
_QUAD_BYTES = 16
_COUNTER_FIELDS = (
    "pairs_seen",
    "pairs_dropped_visibility",
    "pairs_dropped_origin",
    "delegations_dropped_same_org",
    "bogon_prefix",
)


def _quads_body_bytes(quads) -> bytes:
    """The flat little-endian u32 body for any quad sequence.

    Zero-copy fan-in views and shard-merged concatenations have the
    bytes (or their parts' bytes) already in payload order, so they
    re-encode without touching a single quad tuple.
    """
    if isinstance(quads, _QuadView):
        return quads.tobytes()
    if isinstance(quads, _ConcatQuads):
        return b"".join(_quads_body_bytes(part) for part in quads.parts)
    body = array("I")
    for quad in quads:
        body.extend(quad)
    if sys.byteorder != "little":
        body.byteswap()
    return body.tobytes()


def _quad_words(quads):
    """The flat u32 word sequence of any quad sequence."""
    if isinstance(quads, _QuadView):
        return quads._words
    words = array("I")
    words.frombytes(_quads_body_bytes(quads))
    if sys.byteorder != "little":
        words.byteswap()
    return words


def _encode_payload(payload: dict) -> bytes:
    """Serialize one day's payload into the v2 binary form."""
    date = payload["date"]
    counters = payload["counters"]
    quads = payload["delegations"]
    header = _CACHE_HEADER.pack(
        _CACHE_MAGIC, CACHE_SCHEMA, date.year, date.month, date.day,
        *(counters[name] for name in _COUNTER_FIELDS), len(quads),
    )
    return header + _quads_body_bytes(quads)


def _payload_to_bytes(payload: dict) -> bytes:
    """A payload's exact v2 bytes, reusing the raw view when present.

    Payloads decoded zero-copy out of a shared-memory segment or a
    result shard carry their backing bytes under ``"raw"``; writing
    them back to the cache is then a buffer copy, not a re-encode.
    """
    raw = payload.get("raw")
    if raw is not None:
        return bytes(raw)
    return _encode_payload(payload)


def _decode_payload(data: bytes) -> Optional[dict]:
    """Parse a v2 entry; ``None`` for anything torn or foreign."""
    if len(data) < _CACHE_HEADER.size:
        return None
    fields = _CACHE_HEADER.unpack_from(data)
    magic, schema, year, month, day = fields[:5]
    count = fields[10]
    if magic != _CACHE_MAGIC or schema != CACHE_SCHEMA:
        return None
    if len(data) != _CACHE_HEADER.size + count * _QUAD_BYTES:
        return None
    try:
        date = datetime.date(year, month, day)
    except ValueError:
        return None
    body = array("I")
    body.frombytes(data[_CACHE_HEADER.size:])
    if sys.byteorder != "little":
        body.byteswap()
    return {
        "date": date,
        "delegations": [
            tuple(body[i:i + 4]) for i in range(0, len(body), 4)
        ],
        "counters": dict(zip(_COUNTER_FIELDS, fields[5:10])),
    }


def _cache_read(
    path: pathlib.Path, metrics: MetricsRegistry = NULL
) -> Optional[dict]:
    """Load a payload, treating missing/corrupt entries as misses.

    A missing file is an ordinary miss; an unreadable or malformed one
    additionally bumps ``cache.malformed`` so ``repro history check``
    can flag corruption storms instead of them hiding in the logs.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    except OSError:
        logger.warning("discarding unreadable cache entry %s", path)
        metrics.inc("cache.malformed")
        return None
    payload = _decode_payload(data)
    if payload is None:
        logger.warning("discarding malformed cache entry %s", path)
        metrics.inc("cache.malformed")
    return payload


def _cache_write(path: pathlib.Path, payload: dict) -> None:
    """Atomic write: concurrent runs never observe torn entries.

    Delegates to :func:`~repro.store.shard.atomic_write_bytes`, whose
    temporary name *appends* ``.tmp.<pid>`` to the full file name —
    ``with_suffix`` would replace ``.bin``, making two entries that
    differ only in suffix collide on one temporary, and crash leftovers
    under the replaced name would never match the entry glob.  Stale
    temporaries are swept when the cache is opened.
    """
    atomic_write_bytes(path, _payload_to_bytes(payload))


# -- zero-copy result fan-in ----------------------------------------------
#
# With ``fanin="shm"`` workers never pickle a result row back to the
# parent.  Each chunk encodes its payloads into the exact v2 cache
# bytes, packs them back-to-back into one POSIX shared-memory segment,
# and returns only ``("shm", name, size, entries)`` — a few dozen
# bytes per chunk.  The parent attaches the segment, **unlinks it
# immediately** (the mapping survives; the name cannot leak past a
# crash), and decodes each entry as a :class:`_QuadView` — a cast
# memoryview straight into the segment, never a list of tuples.
#
# Segment names carry a per-run prefix (parent pid + run counter), so
# the parent can sweep any segment a dying worker left behind: names
# are swept from ``/dev/shm`` after pool shutdown on every exit path
# (completion, worker failure, KeyboardInterrupt).  Creation happens
# in workers and unlink/sweep in the parent, which is why the resource
# tracker must be started *before* the pool forks — both sides then
# talk to the same tracker process and every register is matched by
# exactly one unregister (no spurious leak warnings at exit).
#
# When shared memory is unavailable (exotic platforms, exhausted
# ``/dev/shm``), workers silently fall back to returning pickled
# payload lists — ``fanin="pickle"`` forces that mode everywhere and
# reproduces the PR 8 transport exactly.

_FANIN_MODES = ("shm", "pickle")

_SHM_RUN_COUNTER = itertools.count()


def _shm_run_prefix() -> str:
    """A per-run segment-name prefix, unique across live parents.

    Short on purpose: POSIX shm names are capped at 31 characters on
    some platforms, and workers append their own pid + sequence.
    """
    return f"rpfi{os.getpid():x}g{next(_SHM_RUN_COUNTER):x}"


def _create_worker_segment(
    size: int, prefix: str
) -> Optional[shared_memory.SharedMemory]:
    """Create one result segment in a worker; ``None`` to fall back.

    The name embeds the worker pid plus a worker-local sequence, so
    collisions only happen against leftovers from a recycled pid —
    retried with the next sequence number rather than failed.
    """
    for _ in range(8):
        seq = _WORKER_STATE["shm_seq"] = (
            _WORKER_STATE.get("shm_seq", 0) + 1
        )
        name = f"{prefix}w{os.getpid():x}c{seq:x}"
        try:
            return shared_memory.SharedMemory(
                name=name, create=True, size=max(size, 1)
            )
        except FileExistsError:
            continue
        except OSError:
            return None
    return None


def _ship_payloads(payloads: List[dict]) -> Optional[tuple]:
    """Pack a chunk's payloads into one segment; ``None`` to fall back.

    Returns ``("shm", name, size, entries)`` where each entry is
    ``(offset, length, shard, shard_count)`` — everything the parent
    needs to rebuild zero-copy payload views in :func:`_receive_chunk`.
    """
    prefix = _WORKER_STATE.get("shm_prefix")
    if prefix is None:
        return None
    blobs = [_encode_payload(payload) for payload in payloads]
    total = sum(len(blob) for blob in blobs)
    segment = _create_worker_segment(total, prefix)
    if segment is None:
        return None
    try:
        entries = []
        offset = 0
        for payload, blob in zip(payloads, blobs):
            segment.buf[offset:offset + len(blob)] = blob
            entries.append((
                offset, len(blob),
                payload.get("shard", 0), payload.get("shard_count", 1),
            ))
            offset += len(blob)
        name = segment.name
    except BaseException:
        segment.unlink()
        raise
    finally:
        segment.close()
    return ("shm", name, total, entries)


def _sweep_segments(prefix: str) -> int:
    """Unlink any segment of this run still named in ``/dev/shm``.

    Normal operation leaves nothing here — the parent unlinks each
    segment the moment it attaches — so anything matching the prefix
    after pool shutdown was abandoned by a worker that died between
    creating its segment and returning the descriptor.  Unlinking via
    an attach also unregisters the name with the (shared) resource
    tracker, so the crash path stays warning-free too.
    """
    base = pathlib.Path("/dev/shm")
    if not base.is_dir():
        return 0
    removed = 0
    for path in base.glob(f"{prefix}*"):
        try:
            segment = shared_memory.SharedMemory(name=path.name)
        except (FileNotFoundError, OSError):
            continue
        try:
            segment.unlink()
        except FileNotFoundError:
            pass
        segment.close()
        removed += 1
    if removed:
        logger.warning(
            "swept %d abandoned fan-in segment(s) with prefix %s",
            removed, prefix,
        )
    return removed


class _QuadView:
    """Zero-copy sequence view over a payload's flat u32 quad body.

    Satisfies everything the fan-in and the cache writer need from
    ``payload["delegations"]`` — ``len``, iteration, indexing,
    re-encoding — while the quads stay in the shared-memory segment
    (or result-shard map) they arrived in.  Little-endian hosts only;
    :func:`_decode_payload_view` falls back to a copying decode
    elsewhere.
    """

    __slots__ = ("_words",)

    def __init__(self, view: memoryview) -> None:
        self._words = view.cast("I")

    def __len__(self) -> int:
        return len(self._words) // 4

    def __getitem__(self, index: int) -> tuple:
        if index < 0:
            index += len(self)
        base = index * 4
        words = self._words
        return (
            words[base], words[base + 1],
            words[base + 2], words[base + 3],
        )

    def __iter__(self):
        words = self._words
        for base in range(0, len(words), 4):
            yield (
                words[base], words[base + 1],
                words[base + 2], words[base + 3],
            )

    def tobytes(self) -> bytes:
        return self._words.tobytes()


class _ConcatQuads:
    """One day's quads stitched from its per-/8 shard parts.

    The parts are concatenated lazily, in shard order; the cut
    invariant behind :func:`~repro.netbase.lpm.day_shard_bounds`
    guarantees that order equals the unsharded day's sorted quad
    sequence, so no merge pass (let alone a re-sort) ever runs.
    """

    __slots__ = ("parts", "_length")

    def __init__(self, parts: List) -> None:
        self.parts = parts
        self._length = sum(len(part) for part in parts)

    def __len__(self) -> int:
        return self._length

    def __iter__(self):
        return itertools.chain.from_iterable(self.parts)


def _decode_payload_view(view: memoryview) -> Optional[dict]:
    """Decode a v2 payload from a buffer without copying the quads.

    Identical validation to :func:`_decode_payload`, but the
    delegations come back as a :class:`_QuadView` into ``view`` and
    the payload keeps ``view`` under ``"raw"`` so a cache/result-shard
    write is a plain buffer copy.  Big-endian hosts take the copying
    decoder instead (the cast view would transpose every word).
    """
    if sys.byteorder != "little":
        return _decode_payload(bytes(view))
    if len(view) < _CACHE_HEADER.size:
        return None
    fields = _CACHE_HEADER.unpack_from(view)
    magic, schema, year, month, day = fields[:5]
    count = fields[10]
    if magic != _CACHE_MAGIC or schema != CACHE_SCHEMA:
        return None
    if len(view) != _CACHE_HEADER.size + count * _QUAD_BYTES:
        return None
    try:
        date = datetime.date(year, month, day)
    except ValueError:
        return None
    return {
        "date": date,
        "delegations": _QuadView(view[_CACHE_HEADER.size:]),
        "counters": dict(zip(_COUNTER_FIELDS, fields[5:10])),
        "raw": view,
    }


class _FanInReceiver:
    """Parent-side owner of every buffer a run's fan-in adopts.

    Adopting a segment attaches and *immediately unlinks* it — the
    mapping stays valid for this process, while the name disappears
    from ``/dev/shm`` before anything else can go wrong, so no exit
    path can leak a segment that reached the parent.  Views handed
    out for payloads are tracked and released (in reverse order)
    before their backing segments and maps are closed; stragglers —
    e.g. a caller still holding a decoded table — merely defer the
    memory to garbage collection, never the name.
    """

    def __init__(self) -> None:
        self._segments: List[shared_memory.SharedMemory] = []
        self._maps: List = []
        self._views: List[memoryview] = []
        self.shm_bytes = 0
        self.pickled_bytes = 0

    def adopt_segment(self, name: str, size: int) -> memoryview:
        segment = shared_memory.SharedMemory(name=name)
        try:
            segment.unlink()
        except FileNotFoundError:
            pass
        self._segments.append(segment)
        self.shm_bytes += size
        return segment.buf

    def adopt_map(self, mapped) -> None:
        self._maps.append(mapped)

    def view(self, buffer, offset: int, length: int) -> memoryview:
        view = memoryview(buffer)[offset:offset + length]
        self._views.append(view)
        return view

    def track_view(self, view: memoryview) -> memoryview:
        self._views.append(view)
        return view

    def close(self) -> None:
        for view in reversed(self._views):
            try:
                view.release()
            except BufferError:
                pass  # a derived cast is still alive; freed at GC
        self._views.clear()
        for segment in self._segments:
            try:
                segment.close()
            except BufferError:
                # A caller still holds a view into this segment; the
                # mapping is freed once every view dies (the name is
                # already unlinked).  Detach the handles so the
                # object's __del__ does not retry the close and raise
                # the same BufferError unraisably mid-GC — the views
                # keep the mmap alive, and its dealloc unmaps quietly.
                segment._buf = None
                segment._mmap = None
        self._segments.clear()
        for mapped in self._maps:
            try:
                mapped.close()
            except (BufferError, ValueError):
                pass
        self._maps.clear()


def _receive_chunk(
    shipped: tuple, receiver: Optional["_FanInReceiver"]
) -> List[dict]:
    """Turn one worker chunk's return value into payload dicts.

    ``("payloads", [...])`` chunks (pickle mode, or a worker that
    could not get a segment) pass through, counted on the receiver's
    pickled-byte tally; ``("shm", ...)`` chunks are adopted and
    decoded zero-copy.
    """
    kind = shipped[0]
    if kind == "payloads":
        payloads = shipped[1]
        if receiver is not None:
            for payload in payloads:
                receiver.pickled_bytes += (
                    _CACHE_HEADER.size
                    + len(payload["delegations"]) * _QUAD_BYTES
                )
        return payloads
    _kind, name, size, entries = shipped
    buf = receiver.adopt_segment(name, size)
    payloads = []
    for offset, length, shard, shard_count in entries:
        view = receiver.view(buf, offset, length)
        payload = _decode_payload_view(view)
        if payload is None:
            raise ReproError(
                "zero-copy fan-in: malformed payload entry at offset "
                f"{offset} of segment {name}"
            )
        payload["shard"] = shard
        payload["shard_count"] = shard_count
        payloads.append(payload)
    return payloads


def _merge_day_payloads(parts: List[dict]) -> dict:
    """Merge one day's per-/8 shard payloads into the full day.

    Counters add exactly (every pair lands in exactly one shard) and
    the quads concatenate in shard order because every cut point
    satisfies the running-max invariant — checked here across part
    boundaries, so a violated invariant surfaces as an error instead
    of silently unsorted output.
    """
    parts = sorted(parts, key=lambda part: part["shard"])
    date = parts[0]["date"]
    counters = {name: 0 for name in _COUNTER_FIELDS}
    quad_parts = []
    last_packed = None
    for part in parts:
        for name in _COUNTER_FIELDS:
            counters[name] += part["counters"][name]
        quads = part["delegations"]
        if len(quads) == 0:
            continue
        first = quads[0]
        if last_packed is not None and (
            (first[0] << 6) | first[1]
        ) <= last_packed:
            raise ReproError(
                f"day-shard merge for {date.isoformat()}: shard "
                f"{part['shard']} overlaps its predecessor — the "
                "per-/8 cut invariant was violated"
            )
        tail = quads[len(quads) - 1]
        last_packed = (tail[0] << 6) | tail[1]
        quad_parts.append(quads)
    return {
        "date": date,
        "delegations": _ConcatQuads(quad_parts),
        "counters": counters,
    }


def _result_shard_read(
    store: ShardStore, key: str, receiver: "_FanInReceiver"
) -> Optional[dict]:
    """Probe the store's result-shard namespace for one day's payload.

    A hit maps the shard read-only and decodes it zero-copy — the
    warm path for ``--store`` sweeps skips both the kernel *and* the
    per-day cache read.  Malformed bytes degrade to a miss (counted),
    exactly like the input-shard namespace.
    """
    mapped = store.load_result(key)
    if mapped is None:
        return None
    view = memoryview(mapped)
    payload = _decode_payload_view(view)
    if payload is None:
        view.release()
        mapped.close()
        logger.warning(
            "discarding malformed result shard %s",
            store.result_path(key),
        )
        store.metrics.inc("store.malformed")
        store.metrics.inc("store.result_misses")
        return None
    receiver.adopt_map(mapped)
    receiver.track_view(view)
    store.metrics.inc("store.result_hits")
    return payload


# -- per-day computation (shared by workers and the in-process path) ------


class _DaySource:
    """Where a day's pair facts come from: shard store, then stream.

    With a :class:`~repro.store.shard.ShardStore` attached, every day
    is probed there first — a hit maps the shard read-only and returns
    a zero-copy table without ever building the stream (a fully warm
    sweep never regenerates the world at all); a miss lazily builds
    the stream once, aggregates the day, and writes the shard back so
    the next run (or another worker revisiting the day) maps it.

    Store-less sources reduce exactly to the previous behaviour: the
    stream is built once and every day reads from it.
    """

    def __init__(
        self,
        factory: StreamFactory,
        store: Optional[ShardStore] = None,
        metrics: MetricsRegistry = NULL,
    ) -> None:
        self._factory = factory
        self.store = store
        self._metrics = metrics
        self._stream: Optional[RouteStream] = None

    def set_metrics(self, metrics: MetricsRegistry) -> None:
        """Swap the registry (workers ship a fresh one per chunk)."""
        self._metrics = metrics
        if self.store is not None:
            self.store.metrics = metrics
        if self._stream is not None and hasattr(
            self._stream, "set_metrics"
        ):
            self._stream.set_metrics(metrics)

    def stream(self) -> RouteStream:
        if self._stream is None:
            self._stream = self._factory()
            if self._metrics.enabled and hasattr(
                self._stream, "set_metrics"
            ):
                self._stream.set_metrics(self._metrics)
        return self._stream

    def has_tables(self) -> bool:
        """Whether :meth:`table_on` can serve the columnar kernel."""
        return self.store is not None or hasattr(
            self.stream(), "pair_table_on"
        )

    def table_on(
        self, date: datetime.date
    ) -> Tuple["object", int]:
        """``(PairTable, total_monitors)`` for one day.

        Store hits come back mmap-backed (read-only, not picklable —
        see :meth:`~repro.bgp.rib.PairTable.materialize`); misses are
        computed from the stream and written through.
        """
        if self.store is not None:
            loaded = self.store.load(date)
            if loaded is not None:
                return loaded
        stream = self.stream()
        table = stream.pair_table_on(date)
        total_monitors = stream.monitor_count()
        if self.store is not None:
            self.store.write(date, table, total_monitors)
        return table, total_monitors

    def pairs_on(self, date: datetime.date) -> Tuple[dict, int]:
        """``(pairs dict, total_monitors)`` for the object kernel.

        Store-backed days rebuild the dict from the shard's columns —
        the aggregation preserved every fact the object-path filters
        read, so the results stay byte-identical.
        """
        if self.store is not None:
            table, total_monitors = self.table_on(date)
            return table.to_pairs(), total_monitors
        stream = self.stream()
        return stream.pairs_on(date), stream.monitor_count()


def _day_shard_table(
    source: _DaySource, date: datetime.date, shard_count: int
) -> Tuple[PairTable, int, List[Tuple[int, int]]]:
    """One day's full table plus its per-/8 cut bounds, memoized.

    Sub-day tasks for the same day frequently land on the same worker
    back-to-back, and re-mapping (or worse, re-aggregating) the day
    once per sub-task would dominate the sharded kernel work — so the
    worker keeps exactly one day's table and bounds around.
    """
    memo = _WORKER_STATE.get("day_memo")
    if memo is not None and memo[0] == (date, shard_count):
        return memo[1], memo[2], memo[3]
    table, total_monitors = source.table_on(date)
    bounds = day_shard_bounds(table.keys, shard_count)
    _WORKER_STATE["day_memo"] = (
        (date, shard_count), table, total_monitors, bounds
    )
    return table, total_monitors, bounds


def _compute_day_payload(
    source: _DaySource,
    inference: DelegationInference,
    date: datetime.date,
    metrics: MetricsRegistry = NULL,
    shard: int = 0,
    shard_count: int = 1,
) -> dict:
    """Steps (i)–(iv) for one day, as a numeric payload.

    The payload mirrors the v2 cache format: sorted ``(network,
    length, delegator, delegatee)`` quads plus the bookkeeping
    counters the sequential path accumulates.  Under the ``columnar``
    kernel the day never materializes per-record objects at all — the
    kernel's packed rows are reshaped straight into quads, straight
    off the shard mapping when the source is store-backed.

    With ``shard_count > 1`` the call computes only the day's
    ``shard``-th per-/8 slice (columnar kernel only): the fused filter
    kernel runs over ``table.slice(lo, hi)`` and the quads skip the
    sort entirely — kernel rows are key-ascending, and keys order
    exactly like ``(network, length, ...)`` tuples.  The parent
    reassembles the slices with :func:`_merge_day_payloads`.
    """
    scratch = InferenceResult(
        daily=DailyDelegations(), config=inference.config
    )
    if shard_count > 1:
        table, total_monitors, bounds = _day_shard_table(
            source, date, shard_count
        )
        low, high = bounds[shard]
        rows = inference._table_delegation_rows(
            table.slice(low, high), total_monitors, date, scratch,
            metrics=metrics,
        )
        quads = [
            (key >> 6, key & 0x3F, delegator, delegatee)
            for key, delegator, delegatee, _cover in rows
        ]
        return {
            "date": date,
            "delegations": quads,
            "counters": {
                "pairs_seen": scratch.pairs_seen,
                "pairs_dropped_visibility":
                    scratch.pairs_dropped_visibility,
                "pairs_dropped_origin": scratch.pairs_dropped_origin,
                "delegations_dropped_same_org":
                    scratch.delegations_dropped_same_org,
                "bogon_prefix": scratch.sanitize_stats.bogon_prefix,
            },
            "shard": shard,
            "shard_count": shard_count,
        }
    if inference.kernel == "columnar" and source.has_tables():
        table, total_monitors = source.table_on(date)
        rows = inference._table_delegation_rows(
            table, total_monitors, date, scratch, metrics=metrics,
        )
        quads = sorted(
            (key >> 6, key & 0x3F, delegator, delegatee)
            for key, delegator, delegatee, _cover in rows
        )
    else:
        pairs, total_monitors = source.pairs_on(date)
        delegations = inference.infer_day_from_pairs(
            pairs, total_monitors, date, scratch
        )
        quads = sorted(
            (
                d.prefix.network, d.prefix.length,
                d.delegator_asn, d.delegatee_asn,
            )
            for d in delegations
        )
    return {
        "date": date,
        "delegations": quads,
        "counters": {
            "pairs_seen": scratch.pairs_seen,
            "pairs_dropped_visibility": scratch.pairs_dropped_visibility,
            "pairs_dropped_origin": scratch.pairs_dropped_origin,
            "delegations_dropped_same_org":
                scratch.delegations_dropped_same_org,
            "bogon_prefix": scratch.sanitize_stats.bogon_prefix,
        },
    }


# -- worker side ----------------------------------------------------------

_WORKER_STATE: dict = {}


def _init_worker(
    factory: StreamFactory,
    config: InferenceConfig,
    as2org: Optional[As2OrgDataset],
    instrument: bool = False,
    trace: bool = False,
    profile: bool = False,
    kernel: str = "columnar",
    store_dir: Optional[str] = None,
    input_fp: Optional[str] = None,
    fanin: str = "pickle",
    shm_prefix: Optional[str] = None,
) -> None:
    """Pool initializer: runs once per worker process.

    The factory and the (potentially large) as2org dataset are
    transferred exactly once here; the stream itself is built lazily on
    the first chunk so that pool start-up stays cheap.  With
    ``store_dir`` set, the worker opens the shard store *by path* and
    maps its days read-only — the parent ships two short strings
    instead of pickling any table data, and a warm worker never builds
    its stream at all.  When ``instrument`` is set, each chunk records
    into a fresh :class:`MetricsRegistry` that is shipped back with
    its payloads and merged in the parent (registries are picklable by
    design); ``trace`` upgrades it to a :class:`~repro.obs.trace.
    TracingRegistry` on a per-worker lane, ``profile`` adds
    ``tracemalloc`` peak gauges.
    """
    _WORKER_STATE.clear()
    _WORKER_STATE["factory"] = factory
    _WORKER_STATE["config"] = config
    _WORKER_STATE["as2org"] = as2org
    _WORKER_STATE["instrument"] = instrument
    _WORKER_STATE["trace"] = trace
    _WORKER_STATE["profile"] = profile
    _WORKER_STATE["kernel"] = kernel
    _WORKER_STATE["store_dir"] = store_dir
    _WORKER_STATE["input_fp"] = input_fp
    _WORKER_STATE["fanin"] = fanin
    _WORKER_STATE["shm_prefix"] = shm_prefix


def _worker_registry() -> MetricsRegistry:
    """A fresh per-chunk registry matching the parent's capabilities.

    Tracing workers record onto their own lane (``worker-<pid>``), so
    the merged timeline shows which process ran which days; the lane
    is stable for the worker's lifetime while each chunk still ships
    an independent registry back for the order-insensitive fan-in.
    That fan-in carries latency *distributions* too: every worker
    timer records into a fixed-bucket
    :class:`~repro.obs.telemetry.HistogramStats`, and because the
    buckets are fixed the bucket-wise sum is associative and
    commutative — the merged p99 is independent of chunk scheduling,
    exactly like counters (pinned by
    ``tests/obs/test_telemetry_properties.py``).
    """
    if _WORKER_STATE.get("trace"):
        from repro.obs.trace import TracingRegistry

        registry: MetricsRegistry = TracingRegistry(
            lane=f"worker-{os.getpid()}"
        )
    else:
        registry = MetricsRegistry()
    if _WORKER_STATE.get("profile"):
        registry.enable_memory_profile()
    return registry


def _worker_source() -> _DaySource:
    """The worker's lazily-built day source (one per process).

    Store-backed workers open the shard store read-mostly by path —
    without the stale-temporary sweep, which only the parent runs
    (concurrent workers sweeping under each other would race).
    """
    source = _WORKER_STATE.get("source")
    if source is None:
        store = None
        if _WORKER_STATE.get("store_dir") is not None:
            store = ShardStore(
                _WORKER_STATE["store_dir"],
                _WORKER_STATE["input_fp"],
                sweep=False,
            )
        source = _DaySource(_WORKER_STATE["factory"], store)
        _WORKER_STATE["source"] = source
    return source


def _worker_run_chunk(
    tasks: Sequence[tuple],
) -> Tuple[tuple, Optional[MetricsRegistry]]:
    """Execute steps (i)–(iv) for one chunk of (sub-)day tasks.

    Each task is ``(date, shard, shard_count)`` — whole days when
    ``shard_count == 1``, per-/8 slices otherwise.  Returns either a
    ``("shm", ...)`` segment descriptor or ``("payloads", [...])``,
    plus the chunk's metrics registry (``None`` when the run is
    uninstrumented).
    """
    source = _worker_source()
    inference = _WORKER_STATE.get("inference")
    if inference is None:
        inference = DelegationInference(
            _WORKER_STATE["config"], _WORKER_STATE["as2org"],
            kernel=_WORKER_STATE.get("kernel", "columnar"),
        )
        _WORKER_STATE["inference"] = inference
    registry: Optional[MetricsRegistry] = None
    if _WORKER_STATE.get("instrument"):
        registry = _worker_registry()
        source.set_metrics(registry)
        materialized_before = PairTable.materialize_count
    payloads = []
    for date, shard, shard_count in tasks:
        if registry is None:
            payloads.append(_compute_day_payload(
                source, inference, date,
                shard=shard, shard_count=shard_count,
            ))
            continue
        # A span (not a bare observe) so the same per-day timing also
        # lands on the trace timeline and in the profile gauges; the
        # worker's span stack is empty, so the timer keeps its
        # historical name.  Sub-day slices time under their own name,
        # so traces show per-/8 lanes distinctly from whole days.
        span_name = (
            "runner.compute.dayshard" if shard_count > 1
            else "runner.compute.day"
        )
        with registry.span(span_name):
            payloads.append(_compute_day_payload(
                source, inference, date, registry,
                shard=shard, shard_count=shard_count,
            ))
    if registry is not None:
        registry.inc("runner.chunks")
        registry.inc(
            "pairtable.materialized",
            PairTable.materialize_count - materialized_before,
        )
    if _WORKER_STATE.get("fanin") == "shm":
        shipped = _ship_payloads(payloads)
        if shipped is not None:
            return shipped, registry
    return ("payloads", payloads), registry


def _worker_diff_chunk(
    dates: Sequence[datetime.date],
    prev_date: Optional[datetime.date],
) -> Tuple[List[tuple], Optional[MetricsRegistry]]:
    """Diff one shard of consecutive days against their predecessors.

    Each worker rebuilds its chunk's anchor day (``prev_date``; one
    duplicated table build per chunk — streams are deterministic, so
    the anchor equals the previous chunk's last table exactly; with a
    warm shard store the rebuild is a zero-copy map) and returns small
    ``("delta", date, PairDelta)`` items; the first chunk of a cold
    sweep hands the full seed table back via :func:`_seed_item` —
    by store reference or shared-memory segment when possible, only
    *materializing* (store-backed tables are views into this worker's
    private mapping and must never be pickled) as a last resort.  The
    parent applies the items in order through one
    :class:`~repro.delegation.delta.DeltaState`.
    """
    source = _worker_source()
    registry: Optional[MetricsRegistry] = None
    if _WORKER_STATE.get("instrument"):
        registry = _worker_registry()
        source.set_metrics(registry)
        materialized_before = PairTable.materialize_count
    span = registry.span if registry is not None else None
    items: List[tuple] = []
    if prev_date is None:
        prev_table, total_monitors = source.table_on(dates[0])
        items.append(
            _seed_item(source, dates[0], prev_table, total_monitors)
        )
        rest = dates[1:]
    else:
        prev_table, total_monitors = source.table_on(prev_date)
        rest = dates
    for date in rest:
        if span is not None:
            with span("runner.diff.day"):
                table, total_monitors = source.table_on(date)
                day_delta = delta_mod.diff_pair_tables(prev_table, table)
        else:
            table, total_monitors = source.table_on(date)
            day_delta = delta_mod.diff_pair_tables(prev_table, table)
        items.append(("delta", date, day_delta, total_monitors))
        prev_table = table
    if registry is not None:
        registry.inc("runner.chunks")
        registry.inc(
            "pairtable.materialized",
            PairTable.materialize_count - materialized_before,
        )
    return items, registry


def _seed_item(
    source: _DaySource,
    date: datetime.date,
    table: PairTable,
    total_monitors: int,
) -> tuple:
    """How a delta seed table travels back to the parent, cheapest first.

    With a store attached the table already lives there (a miss in
    :meth:`_DaySource.table_on` writes through), so the worker ships a
    date-sized reference and the parent re-maps the shard.  Otherwise
    the zero-copy transport serializes the table into a shared-memory
    segment in the RPSHARD3 layout; only when both are unavailable
    does the seed fall back to the PR 8 behaviour — a materialized,
    pickled table (visible as ``pairtable.materialized`` ticking up).
    """
    if source.store is not None:
        return ("seed_ref", date, total_monitors)
    if _WORKER_STATE.get("fanin") == "shm":
        prefix = _WORKER_STATE.get("shm_prefix")
        if prefix is not None:
            blob = encode_shard_bytes(date, table, total_monitors)
            segment = _create_worker_segment(len(blob), prefix)
            if segment is not None:
                try:
                    segment.buf[:len(blob)] = blob
                    name = segment.name
                except BaseException:
                    segment.unlink()
                    raise
                finally:
                    segment.close()
                return (
                    "seed_shm", date, name, len(blob), total_monitors
                )
    return ("seed", date, table.materialize(), total_monitors)


# -- parent side ----------------------------------------------------------


def _chunk(items: Sequence, size: int) -> List[List]:
    return [list(items[i:i + size]) for i in range(0, len(items), size)]


def _resolve_seed_item(
    item: tuple,
    store: Optional[ShardStore],
    receiver: Optional[_FanInReceiver],
) -> tuple:
    """Rehydrate a worker's seed hand-back into a plain seed item.

    ``seed_ref`` re-maps the day straight from the shard store;
    ``seed_shm`` adopts the worker's segment (unlinked on attach, like
    every fan-in segment) and rebuilds a buffer-backed table over it.
    Plain items pass through untouched.
    """
    kind = item[0]
    if kind == "seed_ref":
        _kind, date, total_monitors = item
        loaded = store.load(date) if store is not None else None
        if loaded is None:
            raise ReproError(
                "delta seed hand-back: the seed shard for "
                f"{date.isoformat()} vanished from the store"
            )
        table, total_monitors = loaded
        return ("seed", date, table, total_monitors)
    if kind == "seed_shm":
        _kind, date, name, size, _total_monitors = item
        buf = receiver.adopt_segment(name, size)
        view = receiver.view(buf, 0, size)
        decoded = decode_shard_buffer(view, expected_date=date)
        if decoded is None:
            raise ReproError(
                "delta seed hand-back: malformed shared-memory seed "
                f"segment for {date.isoformat()}"
            )
        table, total_monitors = decoded
        return ("seed", date, table, total_monitors)
    return item


def _diff_parallel(
    stream_factory: StreamFactory,
    config: InferenceConfig,
    as2org: Optional[As2OrgDataset],
    dates: Sequence[datetime.date],
    prev_date: Optional[datetime.date],
    jobs: int,
    metrics: MetricsRegistry = NULL,
    store: Optional[ShardStore] = None,
    fanin: str = "pickle",
    receiver: Optional[_FanInReceiver] = None,
) -> List[tuple]:
    """Fan day-over-day diffing out over a process pool.

    Chunks are contiguous; chunk *c* anchors on the last date of chunk
    *c − 1* (or ``prev_date`` / a fresh seed for the first), so every
    delta item still describes consecutive sweep days.  The items come
    back small — applying them stays sequential in the parent, where
    the single :class:`~repro.delegation.delta.DeltaState` lives.  The
    only potentially large item, the first chunk's seed table, takes
    the zero-copy route when ``fanin="shm"`` (see :func:`_seed_item`).
    """
    workers = min(jobs, len(dates))
    chunk_size = max(1, -(-len(dates) // (workers * _CHUNKS_PER_WORKER)))
    chunks = _chunk(dates, chunk_size)
    anchors: List[Optional[datetime.date]] = [prev_date] + [
        chunk[-1] for chunk in chunks[:-1]
    ]
    use_shm = fanin == "shm" and receiver is not None
    prefix = _shm_run_prefix() if use_shm else None
    if prefix is not None:
        # One tracker, owned by this process and inherited by every
        # worker: worker-side segment registrations and parent-side
        # unlinks must reach the same tracker, or each side's exit
        # prints spurious leak warnings.
        resource_tracker.ensure_running()
    items: List[tuple] = []
    executor = fork_pool(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(
            stream_factory, config, as2org, metrics.enabled,
            getattr(metrics, "trace", None) is not None,
            metrics.memory_profiling,
            "columnar",
            str(store.directory) if store is not None else None,
            store.input_fingerprint if store is not None else None,
            "shm" if use_shm else "pickle",
            prefix,
        ),
    )
    try:
        futures = [
            executor.submit(_worker_diff_chunk, chunk, anchor)
            for chunk, anchor in zip(chunks, anchors)
        ]
        for future in futures:
            try:
                chunk_items, worker_registry = future.result()
            except ReproError:
                raise
            except Exception as exc:
                raise ReproError(
                    "delegation-delta worker failed: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            for item in chunk_items:
                items.append(_resolve_seed_item(item, store, receiver))
            if worker_registry is not None:
                metrics.merge(worker_registry)
                metrics.inc("runner.worker_registries_merged")
    finally:
        close_pool(executor)
        if prefix is not None:
            swept = _sweep_segments(prefix)
            if swept:
                metrics.inc("fanin.segments_swept", swept)
    return items


def _run_incremental(
    stream_factory: StreamFactory,
    config: InferenceConfig,
    as2org: Optional[As2OrgDataset],
    dates: Sequence[datetime.date],
    step_days: int,
    jobs: int,
    journal_dir: Optional[Union[str, pathlib.Path]],
    metrics: MetricsRegistry,
    store: Optional[ShardStore] = None,
    fanin: str = "pickle",
    receiver: Optional[_FanInReceiver] = None,
) -> Tuple[Dict[datetime.date, dict], dict]:
    """The incremental sweep: journal replay, then delta compute.

    Replay folds the journal's stored row deltas and counters — no
    stream build, no classification, no cover pass; only a partial
    replay (more days requested than journaled) additionally rebuilds
    the :class:`~repro.delegation.delta.DeltaState` from the pair
    deltas so computation can continue where the journal ends.  Every
    newly computed day is journaled *before* its payload is used, so a
    crash anywhere resumes from the last appended day.
    """
    info = {
        "days_replayed": 0,
        "days_fastpathed": 0,
        "days_computed": 0,
        "rows": [],
        "journal": None,
    }
    payloads: Dict[datetime.date, dict] = {}
    if not dates:
        return payloads, info

    journal: Optional[delta_mod.DeltaJournal] = None
    entries: List[dict] = []
    if journal_dir is not None:
        fingerprint = getattr(stream_factory, "fingerprint", None)
        if fingerprint is None:
            raise ReproError(
                "journaling requires a stream factory with a "
                "fingerprint() identifying its input data"
            )
        as2org_fp = (
            as2org.fingerprint() if config.same_org_filter else None
        )
        key = delta_mod.journal_key(
            config, fingerprint(), as2org_fp, dates[0], step_days
        )
        journal = delta_mod.DeltaJournal(
            delta_mod.journal_path(journal_dir, key)
        )
        info["journal"] = str(journal.path)
        entries = journal.read()

    state: Optional[delta_mod.DeltaState] = None
    rows: List[Tuple[int, int, int]] = []
    pairs_added = pairs_removed = 0
    usable = entries[:len(dates)]
    # Partial replays must hand a live DeltaState to the compute loop;
    # full replays never need one (rows and counters are stored).
    need_state = len(usable) < len(dates)

    with metrics.span("runner.incremental.replay"):
        replayed = 0
        for k, entry in enumerate(usable):
            if entry["date"] != dates[k].isoformat():
                # A valid chain with the wrong dates is a foreign
                # journal (the key should prevent this) — fall back to
                # computing, and never append behind its tail.
                logger.warning(
                    "delta journal %s: entry %d dated %s, expected "
                    "%s; ignoring the journal from here",
                    journal.path if journal else "<none>",
                    k + 1, entry["date"], dates[k].isoformat(),
                )
                journal = None
                need_state = True
                break
            if entry["kind"] == "seed":
                rows = [tuple(row) for row in entry["rows"]]
                if need_state:
                    state = delta_mod.DeltaState(
                        config, int(entry["total_monitors"])
                    )
                    state.seed(delta_mod.table_from_entry(entry))
            else:
                rows = delta_mod.fold_entry_rows(rows, entry)
                if need_state:
                    state.apply(delta_mod.delta_from_entry(entry))
            payloads[dates[k]] = {
                "date": dates[k],
                "delegations": delta_mod.rows_to_quads(rows),
                "counters": dict(entry["counters"]),
            }
            replayed += 1
        info["days_replayed"] = replayed
    # Appending must continue the on-disk serial sequence: a journal
    # holding *more* days than this narrower window stays read-only.
    writable = journal is not None and journal.serial == replayed

    remaining = list(dates[replayed:])
    info["days_computed"] = len(remaining)
    if remaining:
        serial = replayed
        with metrics.span("runner.incremental.compute"):
            if jobs > 1 and len(remaining) > 1:
                # Without a live state to continue from (cold start or
                # a foreign-journal fallback) the first worker chunk
                # must produce a fresh seed.
                prev_date = (
                    dates[replayed - 1]
                    if replayed and state is not None else None
                )
                items = _diff_parallel(
                    stream_factory, config, as2org, remaining,
                    prev_date, jobs, metrics,
                    store=store, fanin=fanin, receiver=receiver,
                )
            else:
                items = None
            if items is None:
                source = _DaySource(stream_factory, store, metrics)
                prev_table = (
                    state.to_table() if state is not None else None
                )

                def _iter_items():
                    nonlocal prev_table
                    for date in remaining:
                        table, total_monitors = source.table_on(date)
                        if prev_table is None:
                            yield ("seed", date, table, total_monitors)
                        else:
                            yield (
                                "delta", date,
                                delta_mod.diff_pair_tables(
                                    prev_table, table
                                ),
                                total_monitors,
                            )
                        prev_table = table

                items = _iter_items()
            for kind, date, obj, total_monitors in items:
                snapshot = (
                    as2org.snapshot_for(date)
                    if config.same_org_filter else None
                )
                serial += 1
                if kind == "seed":
                    state = delta_mod.DeltaState(config, total_monitors)
                    state.seed(obj)
                    new_rows, dropped, _fast = state.day_rows(snapshot)
                    counters = state.day_counters(dropped)
                    entry = delta_mod.seed_entry(
                        date, obj, total_monitors, counters, new_rows
                    )
                else:
                    state.apply(obj)
                    pairs_added += len(obj.upsert_keys)
                    pairs_removed += len(obj.removed)
                    new_rows, dropped, fast = state.day_rows(snapshot)
                    if fast:
                        info["days_fastpathed"] += 1
                    counters = state.day_counters(dropped)
                    prev_set = set(rows)
                    new_set = set(new_rows)
                    entry = delta_mod.delta_entry(
                        serial, date, obj, counters,
                        sorted(new_set - prev_set),
                        sorted(prev_set - new_set),
                    )
                rows = new_rows
                if writable:
                    journal.append(entry)
                payloads[date] = {
                    "date": date,
                    "delegations": delta_mod.rows_to_quads(rows),
                    "counters": counters,
                }
    info["rows"] = list(rows)
    metrics.inc("runner.delta.pairs_added", pairs_added)
    metrics.inc("runner.delta.pairs_removed", pairs_removed)
    metrics.inc("runner.delta.days_replayed", info["days_replayed"])
    metrics.inc("runner.delta.days_fastpathed", info["days_fastpathed"])
    return payloads, info


def run_inference(
    stream_factory: StreamFactory,
    start: datetime.date,
    end: datetime.date,
    config: Optional[InferenceConfig] = None,
    *,
    as2org: Optional[As2OrgDataset] = None,
    step_days: int = 1,
    jobs: Optional[int] = None,
    cache_dir: Optional[Union[str, pathlib.Path]] = None,
    metrics: MetricsRegistry = NULL,
    kernel: str = "columnar",
    incremental: bool = False,
    journal_dir: Optional[Union[str, pathlib.Path]] = None,
    store_dir: Optional[Union[str, pathlib.Path]] = None,
    fanin: str = "shm",
    day_shards: int = 1,
) -> InferenceResult:
    """Run the full pipeline over ``[start, end)``, in parallel.

    ``stream_factory`` must be a zero-argument callable returning the
    :class:`RouteStream` to read (e.g. :class:`WorldStreamFactory`);
    with ``jobs > 1`` it must be picklable, and with ``cache_dir`` set
    it must additionally expose a ``fingerprint()`` identifying the
    input data.  ``jobs=None`` uses ``os.cpu_count()``; ``jobs=1``
    never spawns a process pool — the fan-out runs inline in this
    process, so a single-job cold run costs no more than the
    sequential path.

    ``kernel`` picks the per-day implementation (``columnar`` — the
    packed-array fast path — or ``object``, the trie reference); both
    yield byte-identical results and share cache entries.

    ``metrics`` (when not the no-op default) receives nested stage
    spans (``runner.cache_probe`` / ``runner.compute`` /
    ``runner.fan_in`` / ``runner.consistency``), cache hit/miss
    counters, per-day compute timings (fanned back in from the worker
    registries), and the per-filter attrition counters shared with the
    sequential path.

    ``incremental=True`` switches the sweep to day-over-day delta
    inference (:mod:`repro.delegation.delta`): the first day seeds the
    filter state, every later day applies a
    :class:`~repro.delegation.delta.PairDelta` instead of re-running
    the full kernel, and the output stays byte-identical (the
    differential suite enforces it).  With ``journal_dir`` set the
    sweep is journaled under a content-addressed JSONL file there:
    re-runs replay the journal without touching the stream at all, a
    crashed sweep resumes after its last appended day, and a *longer*
    window extends the same journal.  Incremental sweeps ignore
    ``cache_dir`` (the journal subsumes the per-day cache) and
    ``kernel`` (the delta path has exactly one implementation).

    ``store_dir`` attaches the out-of-core shard store
    (:mod:`repro.store`): every day's aggregated pair table lives in a
    per-day memory-mapped shard file whose layout is the columnar
    layout, so warm days are zero-copy maps — no stream build, no
    aggregation, near-flat per-process memory peaks regardless of
    prefix count.  Workers open the store by path instead of receiving
    pickled inputs.  Unlike ``cache_dir`` (post-filter results, keyed
    on the config), the store holds *pre-filter inputs* keyed only on
    the input fingerprint, so one store serves every config, both
    kernels, and the incremental path — all byte-identical to the
    in-RAM paths.  The two compose: a store feeds computes, the cache
    skips them.

    ``fanin`` picks the worker→parent result transport.  The default
    ``"shm"`` serializes each chunk's payloads into one shared-memory
    segment in the exact v2 cache layout and ships a tiny descriptor;
    the parent decodes zero-copy views and never unpickles a result
    row.  With a store attached (and not incremental), ``"shm"`` also
    write-through-caches every computed day into the store's
    result-shard namespace, so warm sweeps map results directly.
    ``"pickle"`` forces the original pickled transport (and disables
    result shards) — the byte-identical baseline the fan-in benchmark
    compares against.  Segments are unlinked the moment the parent
    attaches them and swept by prefix after every pool shutdown, so
    no exit path (completion, worker crash, interrupt) leaks one.

    ``day_shards`` splits every computed day into that many per-/8
    sub-tasks (columnar kernel only): each runs the fused filter
    kernel over one top-octet slice of the day's key array, and the
    parent stitches the slices back with a deterministic k-way
    concatenation whose order the sorted-array invariant fixes — so
    one internet-scale day saturates the pool instead of one worker.
    Output stays byte-identical for any shard count.

    Returns an :class:`InferenceResult` byte-identical (in its
    ``daily`` delegations) to the sequential
    :meth:`DelegationInference.infer_range`, with ``runner_stats``
    describing the fan-out and cache behaviour (including, for
    incremental sweeps, replay/fast-path accounting) and — for
    incremental sweeps — a ``delta_handle`` the serving layer can
    keep applying new-day entries to.
    """
    began = time.perf_counter()
    config = config or InferenceConfig()
    if config.same_org_filter and as2org is None:
        raise ReproError("same_org_filter requires an as2org dataset")
    if kernel not in KERNELS:
        raise ReproError(
            f"unknown inference kernel {kernel!r} "
            f"(choose from {', '.join(KERNELS)})"
        )

    if journal_dir is not None and not incremental:
        raise ReproError("journal_dir requires incremental=True")
    if fanin not in _FANIN_MODES:
        raise ReproError(
            f"unknown fan-in mode {fanin!r} "
            f"(choose from {', '.join(_FANIN_MODES)})"
        )
    if day_shards < 1:
        raise ReproError("day_shards must be at least 1")
    if day_shards > 1 and kernel != "columnar":
        raise ReproError(
            "day_shards > 1 requires the columnar kernel: per-/8 cut "
            "points are defined on the packed key array"
        )
    if day_shards > 1 and incremental:
        raise ReproError(
            "day_shards cannot combine with incremental=True "
            "(the delta path diffs whole days)"
        )

    dates = list(date_range(start, end, step_days))
    resolved_jobs = jobs if jobs is not None else (os.cpu_count() or 1)
    if resolved_jobs < 1:
        raise ReproError("jobs must be at least 1")

    cache_base: Optional[pathlib.Path] = None
    input_fp = as2org_fp = None
    if incremental:
        cache_dir = None  # the journal subsumes the per-day cache
    if cache_dir is not None:
        fingerprint = getattr(stream_factory, "fingerprint", None)
        if fingerprint is None:
            raise ReproError(
                "caching requires a stream factory with a fingerprint() "
                "identifying its input data"
            )
        cache_base = pathlib.Path(cache_dir)
        sweep_stale_temporaries(
            cache_base, metrics=metrics, counter="cache.tmp_swept"
        )
        input_fp = fingerprint()
        if config.same_org_filter:
            assert as2org is not None
            as2org_fp = as2org.fingerprint()

    store: Optional[ShardStore] = None
    if store_dir is not None:
        fingerprint = getattr(stream_factory, "fingerprint", None)
        if fingerprint is None:
            raise ReproError(
                "the shard store requires a stream factory with a "
                "fingerprint() identifying its input data"
            )
        store = ShardStore(store_dir, fingerprint(), metrics=metrics)

    # The result-shard warm path needs the cache key even when no
    # cache_dir is configured; the store's fingerprint is the same
    # input fingerprint the cache would have computed.
    use_result_shards = (
        store is not None and fanin == "shm" and not incremental
    )
    if use_result_shards and input_fp is None:
        input_fp = store.input_fingerprint
        if config.same_org_filter:
            assert as2org is not None
            as2org_fp = as2org.fingerprint()

    metrics.inc("runner.days_total", len(dates))
    metrics.set_gauge("runner.jobs", resolved_jobs)
    materialized_before = PairTable.materialize_count
    receiver = _FanInReceiver()

    # Phases 1–2, incremental flavour: journal replay + delta compute.
    payload_by_date: Dict[datetime.date, dict] = {}
    missing: List[datetime.date] = []
    inc_info: Optional[dict] = None
    if incremental:
        with metrics.span("runner.incremental"):
            payload_by_date, inc_info = _run_incremental(
                stream_factory, config, as2org, dates, step_days,
                resolved_jobs, journal_dir, metrics, store,
                fanin=fanin, receiver=receiver,
            )
    # Phase 1: resolve result-shard and cache hits.
    elif cache_base is not None or use_result_shards:
        with metrics.span("runner.cache_probe"):
            for date in dates:
                key = _cache_key(config, date, input_fp, as2org_fp)
                payload = None
                if use_result_shards:
                    payload = _result_shard_read(store, key, receiver)
                if payload is None and cache_base is not None:
                    payload = _cache_read(
                        _cache_path(cache_base, key), metrics
                    )
                if payload is None:
                    missing.append(date)
                else:
                    payload_by_date[date] = payload
        metrics.inc("runner.cache.hits", len(dates) - len(missing))
        metrics.inc("runner.cache.misses", len(missing))
    elif not incremental:
        missing = list(dates)

    # Phase 2: compute the misses — fanned out or in-process.
    # (Incremental sweeps already produced every payload above.)
    if not incremental:
        computed: List[dict] = []
        with metrics.span("runner.compute"):
            if missing:
                if resolved_jobs > 1 and (
                    len(missing) > 1 or day_shards > 1
                ):
                    computed = _compute_parallel(
                        stream_factory, config, as2org, missing,
                        resolved_jobs, metrics, kernel, store,
                        fanin=fanin, day_shards=day_shards,
                        receiver=receiver,
                    )
                else:
                    # Single-job (or single-day, unsharded) runs stay
                    # entirely in this process: forking a pool to feed
                    # one worker can only add spawn and pickling
                    # overhead on top of the same sequential work.
                    source = _DaySource(stream_factory, store, metrics)
                    inference = DelegationInference(
                        config, as2org, kernel=kernel
                    )
                    for date in missing:
                        with metrics.span("day"):
                            computed.append(_compute_day_payload(
                                source, inference, date, metrics,
                            ))
        with metrics.span("runner.cache_write"):
            for payload in computed:
                date = payload["date"]
                payload_by_date[date] = payload
                if cache_base is not None or use_result_shards:
                    key = _cache_key(config, date, input_fp, as2org_fp)
                    # One encode serves both sinks; zero-copy payloads
                    # are a buffer copy here, never a quad walk.
                    data = _payload_to_bytes(payload)
                    if cache_base is not None:
                        atomic_write_bytes(
                            _cache_path(cache_base, key), data
                        )
                    if use_result_shards:
                        store.write_result(key, data)

    # Phase 3: fan-in, in date order, then extension (v) exactly once.
    # Each day becomes a set of packed ints straight off its u32 quad
    # words: no prefix objects, no per-quad tuples for the GC to track.
    result = InferenceResult(daily=DailyDelegations(), config=config)
    delegations_total = 0
    with metrics.span("runner.fan_in"):
        for date in dates:
            payload = payload_by_date[date]
            result.observation_dates.append(date)
            counters = payload.get("counters", {})
            result.pairs_seen += counters.get("pairs_seen", 0)
            result.pairs_dropped_visibility += counters.get(
                "pairs_dropped_visibility", 0
            )
            result.pairs_dropped_origin += counters.get(
                "pairs_dropped_origin", 0
            )
            result.delegations_dropped_same_org += counters.get(
                "delegations_dropped_same_org", 0
            )
            result.sanitize_stats.bogon_prefix += counters.get(
                "bogon_prefix", 0
            )
            delegations_total += len(payload["delegations"])
            result.daily.record_packed(
                date, keys_from_quad_words(
                    _quad_words(payload["delegations"])
                ),
            )
    # Every quad is packed into the day sets by now — release the
    # fan-in buffers (segments were unlinked at adoption; this frees
    # the memory) and surface the transport split.  A run that should
    # be zero-copy but shows ``fanin.pickled_kb`` (or a climbing
    # ``pairtable.materialized``) regressed to the copying transport —
    # exactly what ``repro history diff`` is meant to catch.
    metrics.set_gauge("fanin.shm_kb", receiver.shm_bytes // 1024)
    metrics.set_gauge(
        "fanin.pickled_kb", receiver.pickled_bytes // 1024
    )
    metrics.inc(
        "pairtable.materialized",
        PairTable.materialize_count - materialized_before,
    )
    receiver.close()
    # The serving layer re-runs rule (v) over the extended window on
    # every live apply, so it needs the pre-fill per-day record.
    base_daily = result.daily.copy() if incremental else None
    if config.consistency_rule is not None:
        with metrics.span("runner.consistency"):
            result.daily = fill_gaps(
                result.daily, config.consistency_rule,
                result.observation_dates, metrics=metrics,
            )
    record_pipeline_counters(metrics, result, delegations_total)

    if inc_info is not None:
        days_from_cache = inc_info["days_replayed"]
        days_computed = inc_info["days_computed"]
    else:
        days_from_cache = len(dates) - len(missing)
        days_computed = len(missing)
    result.runner_stats = RunnerStats(
        jobs=resolved_jobs,
        days_total=len(dates),
        days_from_cache=days_from_cache,
        days_computed=days_computed,
        elapsed_seconds=time.perf_counter() - began,
        cache_dir=str(cache_base) if cache_base is not None else None,
        incremental=incremental,
        days_replayed=(
            inc_info["days_replayed"] if inc_info is not None else 0
        ),
        days_fastpathed=(
            inc_info["days_fastpathed"] if inc_info is not None else 0
        ),
        journal=inc_info["journal"] if inc_info is not None else None,
        store_dir=str(store.directory) if store is not None else None,
    )
    if inc_info is not None:
        assert base_daily is not None
        result.delta_handle = delta_mod.LiveDeltaHandle(
            serial=len(dates),
            dates=list(dates),
            base_daily=base_daily,
            rows=inc_info["rows"],
            rule=config.consistency_rule,
        )
    metrics.observe("runner", result.runner_stats.elapsed_seconds)
    logger.info(
        "runner: %d days (%d %s, %d computed) with %d jobs in %.2fs",
        len(dates), days_from_cache,
        "replayed" if incremental else "cached", days_computed,
        resolved_jobs, result.runner_stats.elapsed_seconds,
    )
    return result


def _compute_parallel(
    stream_factory: StreamFactory,
    config: InferenceConfig,
    as2org: Optional[As2OrgDataset],
    missing: Sequence[datetime.date],
    jobs: int,
    metrics: MetricsRegistry = NULL,
    kernel: str = "columnar",
    store: Optional[ShardStore] = None,
    fanin: str = "pickle",
    day_shards: int = 1,
    receiver: Optional[_FanInReceiver] = None,
) -> List[dict]:
    """Fan the missing (sub-)day tasks out over a process pool.

    With ``day_shards > 1`` every day becomes that many per-/8 tasks,
    spread over the chunks like days are; a day's parts may come back
    from different workers in any order and are reassembled with
    :func:`_merge_day_payloads` as soon as the last one lands.  With
    an enabled ``metrics`` registry, every worker chunk returns its
    own registry alongside its results; they are merged here, so
    per-day timings and stream counters survive the fan-in.  A store
    is forwarded as ``(directory, fingerprint)`` strings — workers map
    shards themselves instead of the parent pickling inputs to them.
    """
    tasks = [
        (date, shard, day_shards)
        for date in missing
        for shard in range(day_shards)
    ]
    workers = min(jobs, len(tasks))
    chunk_size = max(
        1, -(-len(tasks) // (workers * _CHUNKS_PER_WORKER))
    )
    chunks = _chunk(tasks, chunk_size)
    use_shm = fanin == "shm" and receiver is not None
    prefix = _shm_run_prefix() if use_shm else None
    if prefix is not None:
        # See _diff_parallel: the tracker must pre-date the fork so
        # worker registers and parent unlinks meet in one process.
        resource_tracker.ensure_running()
    payloads: List[dict] = []
    pending: Dict[datetime.date, List[dict]] = {}
    executor = fork_pool(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(
            stream_factory, config, as2org, metrics.enabled,
            # Workers mirror the parent's capabilities: a tracing
            # parent gets per-lane worker traces, a profiling parent
            # gets worker-side peak gauges (max-merged at fan-in).
            getattr(metrics, "trace", None) is not None,
            metrics.memory_profiling,
            kernel,
            str(store.directory) if store is not None else None,
            store.input_fingerprint if store is not None else None,
            "shm" if use_shm else "pickle",
            prefix,
        ),
    )
    try:
        futures = [
            executor.submit(_worker_run_chunk, chunk) for chunk in chunks
        ]
        for future in futures:
            try:
                shipped, worker_registry = future.result()
            except ReproError:
                raise
            except Exception as exc:
                raise ReproError(
                    "delegation-inference worker failed: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            for payload in _receive_chunk(shipped, receiver):
                if payload.get("shard_count", 1) > 1:
                    parts = pending.setdefault(payload["date"], [])
                    parts.append(payload)
                    if len(parts) == payload["shard_count"]:
                        payloads.append(_merge_day_payloads(parts))
                        del pending[payload["date"]]
                else:
                    payloads.append(payload)
            if worker_registry is not None:
                metrics.merge(worker_registry)
                metrics.inc("runner.worker_registries_merged")
        if pending:
            stuck = sorted(pending)[0]
            raise ReproError(
                "day-shard fan-in incomplete: "
                f"{stuck.isoformat()} received "
                f"{len(pending[stuck])} of {day_shards} parts"
            )
    finally:
        close_pool(executor)
        if prefix is not None:
            swept = _sweep_segments(prefix)
            if swept:
                metrics.inc("fanin.segments_swept", swept)
    return payloads
