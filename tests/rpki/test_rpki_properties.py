"""Property-based tests for RPKI delegation extraction.

:meth:`RoaDatabase.delegations_on` resolves each ROA's most specific
strict cover by probing a ``(network, length)`` dict, and
:meth:`RoaDatabase.delegation_timeline` resolves each distinct
snapshot once.  Pinned here against the radix-trie algorithm they
replaced (kept below as a test-only oracle):

- over ROA sets with nested covers, same-AS covers, several ASNs on
  one prefix and ``/0`` and ``/32`` ends, the delegations equal the
  oracle's;
- the timeline of a database whose snapshots repeat as *equal* sets
  of fresh :class:`Roa` objects, in shuffled order, equals the
  per-date fold of ``delegations_on``, key order included.
"""

import datetime
from typing import List, Optional

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.netbase.prefix import IPv4Prefix
from repro.netbase.trie import PrefixTrie
from repro.rpki.database import RoaDatabase, RpkiDelegation
from repro.rpki.roa import Roa

START = datetime.date(2020, 1, 1)

#: A small AS pool, so covers held by the delegatee's own AS and
#: prefixes with several ASNs are common.
asns = st.integers(min_value=1, max_value=4)

prefixes = st.builds(
    lambda network, length: IPv4Prefix(network, length, strict=False),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.sampled_from((0, 1, 8, 16, 20, 24, 31, 32)),
)


def _sub_prefix(draw, prefix: IPv4Prefix) -> IPv4Prefix:
    length = draw(st.integers(prefix.length + 1, 32))
    offset = draw(st.integers(0, (1 << (length - prefix.length)) - 1))
    return IPv4Prefix(prefix.network + (offset << (32 - length)), length)


@st.composite
def roa_sets(draw) -> List[Roa]:
    """ROAs over prefix families: sub-prefixes down to ``/32``,
    supernets up to ``/0``, and extra ROAs on the same prefix."""
    family = draw(st.lists(prefixes, min_size=1, max_size=5))
    for prefix in list(family):
        relation = draw(st.sampled_from(("none", "sub", "chain", "super")))
        if relation == "sub" and prefix.length < 32:
            family.append(_sub_prefix(draw, prefix))
        elif relation == "chain" and prefix.length < 31:
            middle = _sub_prefix(draw, prefix)
            family.append(middle)
            if middle.length < 32:
                family.append(_sub_prefix(draw, middle))
        elif relation == "super" and prefix.length > 0:
            family.append(IPv4Prefix(
                prefix.network, draw(st.integers(0, prefix.length - 1)),
                strict=False,
            ))
    roas = []
    for prefix in family:
        for asn in draw(st.lists(asns, min_size=1, max_size=3)):
            max_length = draw(st.integers(prefix.length, 32))
            roas.append(Roa(prefix, asn, max_length=max_length))
    return roas


def trie_delegations(roas) -> List[RpkiDelegation]:
    """The radix-trie extraction ``delegations_on`` replaced."""
    index: PrefixTrie[List[int]] = PrefixTrie()
    for roa in roas:
        bucket = index.get(roa.prefix)
        if bucket is None:
            bucket = []
            index.insert(roa.prefix, bucket)
        bucket.append(roa.asn)
    delegations: List[RpkiDelegation] = []
    seen = set()
    for roa in roas:
        best_asns: Optional[List[int]] = None
        for covering_prefix, covering_asns in index.covering(roa.prefix):
            if covering_prefix.length < roa.prefix.length:
                best_asns = covering_asns
        if best_asns is None:
            continue
        for delegator in best_asns:
            if delegator == roa.asn:
                continue
            delegation = RpkiDelegation(roa.prefix, delegator, roa.asn)
            if delegation.key() in seen:
                continue
            seen.add(delegation.key())
            delegations.append(delegation)
    delegations.sort(key=lambda d: d.key())
    return delegations


def _cover_asns(roas, roa) -> set:
    """ASNs on ``roa``'s most specific strict cover, by brute force."""
    covers = [
        other for other in roas
        if other.prefix.length < roa.prefix.length
        and other.prefix.covers(roa.prefix)
    ]
    if not covers:
        return set()
    nearest = max(other.prefix.length for other in covers)
    return {
        other.asn for other in covers if other.prefix.length == nearest
    }


class TestDelegationExtraction:
    @settings(max_examples=300)
    @given(roa_sets())
    def test_matches_trie_oracle(self, roas):
        expected = trie_delegations(frozenset(roas))
        event("delegations: " + ("non-empty" if expected else "empty"))
        covers = [_cover_asns(roas, roa) for roa in roas]
        if any(roa.asn in asns for roa, asns in zip(roas, covers)):
            event("a ROA's nearest cover carries its own AS")
        if any(len(asns) > 1 for asns in covers):
            event("a nearest cover carries several ASNs")
        database = RoaDatabase()
        database.add_snapshot(START, roas)
        assert database.delegations_on(START) == expected


class TestDelegationTimeline:
    @settings(max_examples=100)
    @given(
        st.lists(roa_sets(), min_size=1, max_size=3),
        st.lists(st.integers(min_value=0, max_value=2), min_size=1,
                 max_size=12),
        st.randoms(use_true_random=False),
    )
    def test_equals_per_date_fold(self, sets, picks, random):
        database = RoaDatabase()
        for day, pick in enumerate(picks):
            roas = [
                Roa(roa.prefix, roa.asn, max_length=roa.max_length)
                for roa in sets[pick % len(sets)]
            ]
            random.shuffle(roas)
            database.add_snapshot(
                START + datetime.timedelta(days=day), roas
            )
        expected = {}
        for date in database.dates():
            for delegation in database.delegations_on(date):
                expected.setdefault(delegation.key(), []).append(date)
        distinct = {database.snapshot(d) for d in database.dates()}
        event("snapshots repeat" if len(distinct) < len(picks)
              else "snapshots all distinct")
        event("timeline: " + ("non-empty" if expected else "empty"))
        assert list(database.delegation_timeline().items()) == list(
            expected.items()
        )
