"""Cooperation lists.

Each global summary is associated with a *Cooperation List* (CL) describing
its partner peers: one entry per partner, carrying the partner identifier and
a freshness value (Section 4.1).  The list is the superpeer's only state about
its domain besides the global summary itself; the reconciliation decision is
taken by watching the fraction of old descriptions it records.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Set

from repro.core.freshness import Freshness, FreshnessMode
from repro.exceptions import ProtocolError


class CooperationEntry(NamedTuple):
    """One partner's entry in the cooperation list.

    A read-only view: the list keeps each partner's freshness and time in its
    own maps and builds an entry when one is asked for, so the freshness it
    indexes cannot be written behind its back.
    """

    peer_id: str
    freshness: Freshness = Freshness.FRESH
    #: Virtual time at which the entry last changed.  The protocol never
    #: reads it, but it is state: a checkpoint writes it with each entry and
    #: a restore puts it back (``store/checkpoint.py``'s domain payload).
    updated_at: float = 0.0


class CooperationList:
    """The cooperation list of one global summary.

    Besides the entries, the list maintains two sets as part of its state,
    updated by every mutator: the partner ids (:attr:`partner_set`) and
    ``P_old`` (:attr:`old_set`).  The reconciliation trigger and the routing
    sets read them instead of scanning the entries.
    """

    def __init__(self, mode: FreshnessMode = FreshnessMode.ONE_BIT) -> None:
        #: Each partner's freshness and the time it last changed, keyed alike
        #: in cooperation-list order.
        self._freshness: Dict[str, Freshness] = {}
        self._updated_at: Dict[str, float] = {}
        self._mode = mode
        self._partners: Set[str] = set()
        self._old: Set[str] = set()
        self._membership_version = 0

    # -- membership -----------------------------------------------------------------

    @property
    def mode(self) -> FreshnessMode:
        return self._mode

    @property
    def membership_version(self) -> int:
        """Monotonic counter bumped whenever a partner is added or removed."""
        return self._membership_version

    def _store(self, peer_id: str, freshness: Freshness, now: float) -> None:
        """Write one entry (in place when the id exists) and index its freshness."""
        self._freshness[peer_id] = freshness
        self._updated_at[peer_id] = now
        if freshness.counts_as_old:
            self._old.add(peer_id)
        else:
            self._old.discard(peer_id)

    def add_partner(
        self,
        peer_id: str,
        freshness: Freshness = Freshness.FRESH,
        now: float = 0.0,
    ) -> None:
        """Add (or reset) a partner entry.

        Newly joining peers whose data is not yet merged enter with
        ``Freshness.STALE`` (Section 4.3: "SP adds a new element to the
        cooperation list with a freshness value equal to one").
        """
        self._partners.add(peer_id)
        self._membership_version += 1
        self._store(peer_id, freshness, now)

    def remove_partner(self, peer_id: str) -> None:
        if peer_id not in self._freshness:
            raise ProtocolError(f"peer {peer_id!r} is not a partner")
        del self._freshness[peer_id]
        del self._updated_at[peer_id]
        self._partners.discard(peer_id)
        self._old.discard(peer_id)
        self._membership_version += 1

    def is_partner(self, peer_id: str) -> bool:
        return peer_id in self._freshness

    def entry(self, peer_id: str) -> CooperationEntry:
        try:
            return CooperationEntry(
                peer_id, self._freshness[peer_id], self._updated_at[peer_id]
            )
        except KeyError as exc:
            raise ProtocolError(f"peer {peer_id!r} is not a partner") from exc

    def __len__(self) -> int:
        return len(self._freshness)

    def __iter__(self) -> Iterator[CooperationEntry]:
        updated_at = self._updated_at
        for peer_id, freshness in self._freshness.items():
            yield CooperationEntry(peer_id, freshness, updated_at[peer_id])

    def __contains__(self, peer_id: object) -> bool:
        return peer_id in self._freshness

    # -- freshness updates -------------------------------------------------------------

    def set_freshness(
        self, peer_id: str, freshness: Freshness, now: float = 0.0
    ) -> None:
        if peer_id not in self._freshness:
            raise ProtocolError(f"peer {peer_id!r} is not a partner")
        if self._mode is FreshnessMode.ONE_BIT and freshness is Freshness.UNAVAILABLE:
            freshness = Freshness.STALE
        self._store(peer_id, freshness, now)

    def mark_stale(self, peer_id: str, now: float = 0.0) -> None:
        self.set_freshness(peer_id, Freshness.STALE, now=now)

    def mark_departed(self, peer_id: str, now: float = 0.0) -> None:
        """Record a graceful departure (value 2, or 1 in 1-bit mode)."""
        self.set_freshness(peer_id, self._mode.encode_departure(), now=now)

    def reset_all(self, now: float = 0.0) -> None:
        """Reset every entry to fresh (end of a reconciliation, Section 4.2.2)."""
        self._freshness = dict.fromkeys(self._freshness, Freshness.FRESH)
        self._updated_at = dict.fromkeys(self._freshness, now)
        self._old.clear()

    # -- views -----------------------------------------------------------------------------

    @property
    def partner_ids(self) -> List[str]:
        return list(self._freshness)

    @property
    def partner_set(self) -> Set[str]:
        """The partner ids as a set, maintained by the mutators.

        This is the live set (O(1) to obtain, updated by every add/remove as
        it happens) — treat it as read-only and do not hold it across
        simulation events; copy it if you need a stable snapshot.
        """
        return self._partners

    @property
    def old_set(self) -> Set[str]:
        """``P_old`` as a set, maintained by the mutators.

        This is the live set (O(1) to obtain, updated by every freshness
        change as it happens) — treat it as read-only and do not hold it
        across simulation events; copy it if you need a stable snapshot.
        """
        return self._old

    def fresh_partners(self) -> List[str]:
        """``P_fresh`` — partners whose descriptions are fresh, in entry order."""
        return [peer_id for peer_id in self._freshness if peer_id not in self._old]

    def old_partners(self) -> List[str]:
        """``P_old`` — partners whose descriptions are stale or unavailable,
        in entry order."""
        return [peer_id for peer_id in self._freshness if peer_id in self._old]

    def unavailable_partners(self) -> List[str]:
        return [
            peer_id
            for peer_id, freshness in self._freshness.items()
            if freshness is Freshness.UNAVAILABLE
        ]

    def old_fraction(self) -> float:
        """``sum(v) / |CL|`` in 1-bit terms: the quantity compared to α."""
        if not self._freshness:
            return 0.0
        return len(self._old) / len(self._freshness)

    def needs_reconciliation(self, alpha: float) -> bool:
        """The trigger condition of Section 4.2.2."""
        if not self._freshness:
            return False
        return self.old_fraction() >= alpha

    def freshness_of(self, peer_id: str) -> Optional[Freshness]:
        return self._freshness.get(peer_id)

    def validate(self) -> None:
        """Check the maintained sets against a fresh scan of the entries."""
        if self._partners != set(self._freshness):
            raise ProtocolError("the maintained partner set drifted from the entries")
        scanned = {p for p, f in self._freshness.items() if f.counts_as_old}
        if self._old != scanned:
            raise ProtocolError(
                "the maintained P_old drifted from the entries: "
                f"{sorted(self._old ^ scanned)}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"CooperationList({len(self._freshness)} partners, "
            f"{self.old_fraction():.2%} old)"
        )
