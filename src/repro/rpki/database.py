"""Per-day ROA snapshots and RPKI-visible delegations."""

from __future__ import annotations

import datetime
import pathlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Tuple, Union

from repro.errors import RpkiError
from repro.netbase.prefix import ADDRESS_BITS, IPv4Prefix
from repro.rpki.roa import Roa


@dataclass(frozen=True)
class RpkiDelegation:
    """An RPKI-visible delegation: ``delegator`` holds a ROA for a
    covering prefix, ``delegatee`` one for the more-specific."""

    prefix: IPv4Prefix
    delegator_asn: int
    delegatee_asn: int

    def key(self) -> tuple:
        return (self.prefix, self.delegator_asn, self.delegatee_asn)


def _delegation_keys(roas: FrozenSet[Roa]) -> List[tuple]:
    """Sorted ``(prefix, delegator, delegatee)`` keys of one ROA set.

    ROA ASNs are indexed by ``(network, length)``; a ROA's most
    specific strict cover is the first hit when its network is masked
    to ``length - 1``, ``length - 2``, ... ``0``.
    """
    asns_at: Dict[Tuple[int, int], List[int]] = {}
    for roa in roas:
        asns_at.setdefault(
            (roa.prefix.network, roa.prefix.length), []
        ).append(roa.asn)
    keys = set()
    for roa in roas:
        network = roa.prefix.network
        for length in range(roa.prefix.length - 1, -1, -1):
            shift = ADDRESS_BITS - length
            delegators = asns_at.get((network >> shift << shift, length))
            if delegators is not None:
                keys.update(
                    (roa.prefix, delegator, roa.asn)
                    for delegator in delegators
                    if delegator != roa.asn
                )
                break
    return sorted(keys)


class RoaDatabase:
    """ROA snapshots keyed by date, with delegation extraction."""

    def __init__(self) -> None:
        self._snapshots: Dict[datetime.date, FrozenSet[Roa]] = {}

    # -- snapshots ------------------------------------------------------

    def add_snapshot(
        self, date: datetime.date, roas: Iterable[Roa]
    ) -> None:
        if date in self._snapshots:
            raise RpkiError(f"duplicate snapshot for {date}")
        self._snapshots[date] = frozenset(roas)

    def snapshot(self, date: datetime.date) -> FrozenSet[Roa]:
        try:
            return self._snapshots[date]
        except KeyError:
            raise RpkiError(f"no snapshot for {date}") from None

    def has_snapshot(self, date: datetime.date) -> bool:
        return date in self._snapshots

    def dates(self) -> List[datetime.date]:
        return sorted(self._snapshots)

    def __len__(self) -> int:
        return len(self._snapshots)

    # -- delegation extraction ----------------------------------------------

    def delegations_on(self, date: datetime.date) -> List[RpkiDelegation]:
        """RPKI-visible delegations in the ``date`` snapshot.

        For every ROA (P', T), the delegator is the AS of the ROA for
        the most-specific strictly-covering prefix P with a different
        AS.  Same-AS pairs are ROA maxLength engineering, not
        delegations.
        """
        return [
            RpkiDelegation(*key)
            for key in _delegation_keys(self.snapshot(date))
        ]

    def delegation_timeline(
        self,
    ) -> Dict[tuple, List[datetime.date]]:
        """Map each delegation key to the snapshot dates it appears on.

        This is the input of the appendix's consistency-rule fail-rate
        evaluation (Fig. 5).  Delegations are a pure function of a
        snapshot's ROA set and daily snapshots mostly repeat the day
        before, so each distinct set is resolved once.
        """
        timeline: Dict[tuple, List[datetime.date]] = {}
        resolved: Dict[FrozenSet[Roa], List[tuple]] = {}
        for date in self.dates():
            roas = self._snapshots[date]
            keys = resolved.get(roas)
            if keys is None:
                keys = resolved[roas] = _delegation_keys(roas)
            for key in keys:
                timeline.setdefault(key, []).append(date)
        return timeline

    # -- file I/O -------------------------------------------------------------

    def write_snapshots(
        self, directory: Union[str, pathlib.Path]
    ) -> List[str]:
        """One ``<date>.csv`` per snapshot; returns paths written."""
        base = pathlib.Path(directory)
        base.mkdir(parents=True, exist_ok=True)
        paths: List[str] = []
        for date in self.dates():
            path = base / f"{date.isoformat()}.csv"
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("ASN,IP Prefix,Max Length\n")
                rows = sorted(
                    roa.to_csv_row() for roa in self._snapshots[date]
                )
                handle.write("\n".join(rows) + "\n")
            paths.append(str(path))
        return paths

    @classmethod
    def read_snapshots(
        cls, directory: Union[str, pathlib.Path]
    ) -> "RoaDatabase":
        """Load every ``<date>.csv`` under ``directory``."""
        base = pathlib.Path(directory)
        database = cls()
        for path in sorted(base.glob("*.csv")):
            try:
                date = datetime.date.fromisoformat(path.stem)
            except ValueError as exc:
                raise RpkiError(
                    f"snapshot filename is not a date: {path.name}"
                ) from exc
            roas: List[Roa] = []
            with open(path, encoding="utf-8") as handle:
                for i, line in enumerate(handle):
                    line = line.strip()
                    if not line or (i == 0 and line.startswith("ASN")):
                        continue
                    roas.append(Roa.from_csv_row(line))
            database.add_snapshot(date, roas)
        return database
