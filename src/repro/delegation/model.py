"""Delegation record types.

A *BGP delegation* :math:`P'_{ST}` exists when delegator AS *S*
originates prefix *P* and delegatee AS *T* originates a more-specific
sub-prefix *P'* (§4).  An *RDAP delegation* is a registered
parent/child inetnum pair with different registrants.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from repro.netbase.lpm import pack, unpack
from repro.netbase.prefix import IPv4Prefix
from repro.netbase.prefixset import packed_address_count

#: The identity of a BGP delegation across days.
DelegationKey = Tuple[IPv4Prefix, int, int]


@dataclass(frozen=True)
class BgpDelegation:
    """One inferred BGP delegation on one day."""

    prefix: IPv4Prefix          # P': the delegated, more-specific prefix
    delegator_asn: int          # S: originates the covering prefix P
    delegatee_asn: int          # T: originates P'
    covering_prefix: IPv4Prefix  # P

    def key(self) -> DelegationKey:
        """Day-independent identity (P', S, T)."""
        return (self.prefix, self.delegator_asn, self.delegatee_asn)

    @property
    def delegated_addresses(self) -> int:
        return self.prefix.num_addresses


#: Low 32 bits of a packed delegation key: one AS number.
ASN_MASK = 0xFFFFFFFF


def pack_key(prefix_key: int, delegator: int, delegatee: int) -> int:
    """One delegation as one int: ``prefix_key << 64 | S << 32 | T``.

    ``prefix_key`` is :func:`repro.netbase.lpm.pack` of P', the key the
    kernel and the result payloads already use, so ``key >> 64`` gives
    it back and ints order exactly like ``(network, length, S, T)``.
    """
    return (prefix_key << 64) | (delegator << 32) | delegatee


def encode_key(key: DelegationKey) -> int:
    """Pack an object key ``(P', S, T)`` (see :func:`pack_key`)."""
    prefix, delegator, delegatee = key
    return pack_key(
        pack(prefix.network, prefix.length), delegator, delegatee
    )


def keys_from_quad_words(words) -> Set[int]:
    """Packed keys of a flat ``(network, length, S, T)`` u32 word run.

    :func:`pack_key` inlined.  Strided slices keep the per-quad work to
    one expression: no quad tuple outlives its loop step and ints are
    not tracked by the garbage collector, so a day's set costs no
    collection passes.
    """
    return {
        (((network << 6) | length) << 64) | (delegator << 32) | delegatee
        for network, length, delegator, delegatee in zip(
            words[0::4], words[1::4], words[2::4], words[3::4]
        )
    }


class _Decoder:
    """Packed keys back to ``(IPv4Prefix, S, T)``, one object per prefix."""

    __slots__ = ("_prefixes",)

    def __init__(self) -> None:
        self._prefixes: Dict[int, IPv4Prefix] = {}

    def prefix(self, prefix_key: int) -> IPv4Prefix:
        prefix = self._prefixes.get(prefix_key)
        if prefix is None:
            prefix = IPv4Prefix(*unpack(prefix_key))
            self._prefixes[prefix_key] = prefix
        return prefix

    def key(self, key: int) -> DelegationKey:
        return (
            self.prefix(key >> 64), (key >> 32) & ASN_MASK, key & ASN_MASK
        )


class DailyDelegations:
    """Per-day sets of delegation keys, plus address accounting.

    Each day is a set of packed ints (:func:`pack_key`); the methods
    that hand keys or prefixes out decode them, and :meth:`record`
    encodes object keys, so callers only ever see ``(IPv4Prefix, S,
    T)``.  The pipeline's own hot paths (fan-in, rule (v), Fig. 6
    address counts) stay on the ints through :meth:`record_packed`,
    :meth:`packed_timeline` and :meth:`addresses_on`.
    """

    def __init__(self) -> None:
        self._by_date: Dict[datetime.date, Set[int]] = {}

    def record(
        self, date: datetime.date, keys: Iterable[DelegationKey]
    ) -> None:
        self.record_packed(date, (encode_key(key) for key in keys))

    def record_packed(
        self, date: datetime.date, keys: Iterable[int]
    ) -> None:
        """Add already-packed keys (see :func:`pack_key`)."""
        self._by_date.setdefault(date, set()).update(keys)

    def on(self, date: datetime.date) -> Set[DelegationKey]:
        decode = _Decoder().key
        return {decode(key) for key in self._by_date.get(date, ())}

    def dates(self) -> List[datetime.date]:
        return sorted(self._by_date)

    def count_on(self, date: datetime.date) -> int:
        return len(self._by_date.get(date, ()))

    def addresses_on(self, date: datetime.date) -> int:
        """Distinct delegated addresses on ``date``.

        Delegation keys can share prefixes (the same P' delegated by
        different inferred delegators on MOAS-ish corner cases) and
        nest; the interval union counts every address once.
        """
        return packed_address_count(
            [key >> 64 for key in self._by_date.get(date, ())]
        )

    def prefixes_on(self, date: datetime.date) -> Set[IPv4Prefix]:
        prefix = _Decoder().prefix
        return {
            prefix(prefix_key) for prefix_key in
            {key >> 64 for key in self._by_date.get(date, ())}
        }

    def length_distribution(self, date: datetime.date) -> Dict[int, float]:
        """Fraction of delegations per prefix length on ``date``."""
        keys = self._by_date.get(date, ())
        if not keys:
            return {}
        counts: Dict[int, int] = {}
        for key in keys:
            length = (key >> 64) & 0x3F
            counts[length] = counts.get(length, 0) + 1
        total = len(keys)
        return {length: counts[length] / total for length in sorted(counts)}

    def packed_timeline(self) -> Dict[int, List[datetime.date]]:
        """Packed key → sorted dates on which the delegation was observed."""
        timeline: Dict[int, List[datetime.date]] = {}
        for date in self.dates():
            for key in self._by_date[date]:
                timeline.setdefault(key, []).append(date)
        return timeline

    def timeline(self) -> Dict[DelegationKey, List[datetime.date]]:
        """Key → sorted dates on which the delegation was observed."""
        decode = _Decoder().key
        return {
            decode(key): dates
            for key, dates in self.packed_timeline().items()
        }

    def copy(self) -> "DailyDelegations":
        duplicate = DailyDelegations()
        duplicate._by_date = {
            date: set(keys) for date, keys in self._by_date.items()
        }
        return duplicate

    def __len__(self) -> int:
        return len(self._by_date)


@dataclass(frozen=True)
class RdapDelegation:
    """One registered delegation extracted via RDAP (§4)."""

    child_first: int
    child_last: int
    child_handle: str
    parent_handle: str
    status: str

    @property
    def addresses(self) -> int:
        return self.child_last - self.child_first + 1

    def prefixes(self) -> List[IPv4Prefix]:
        return IPv4Prefix.from_range(self.child_first, self.child_last)
