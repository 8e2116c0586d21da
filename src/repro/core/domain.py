"""Domains: a summary peer, its partners, and their merged global summary."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.cooperation import CooperationList
from repro.core.freshness import Freshness, FreshnessMode
from repro.exceptions import ProtocolError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from typing import Collection

    from repro.network.faults import FaultInjector
    from repro.network.messages import MessageType
    from repro.network.metrics import MessageCounter
    from repro.obs import Observability
    from repro.saintetiq.hierarchy import SummaryHierarchy

#: ``(peer_id, local summary)`` pairs in the order a merge visits them.
Contributions = List[Tuple[str, "SummaryHierarchy"]]
#: The same with each hierarchy's ``mutation_count`` when it was looked at.
_Stamps = List[Tuple[str, "SummaryHierarchy", int]]


def _stamps(pairs: Contributions) -> _Stamps:
    return [(peer_id, h, h.mutation_count) for peer_id, h in pairs]


def _same_stamps(was: _Stamps, now: _Stamps) -> bool:
    """Same peers, the same hierarchy *objects*, none mutated, same order.

    Hierarchies are held by reference and compared with ``is``: an ``id()``
    can be handed to a new object once the old one is freed.
    """
    return len(was) == len(now) and all(
        a_peer == b_peer and a is b and a_count == b_count
        for (a_peer, a, a_count), (b_peer, b, b_count) in zip(was, now)
    )


@dataclass
class Domain:
    """One domain of the hybrid overlay.

    A domain is "the set of a superpeer and its clients": the superpeer acts
    as the *summary peer* (SP), stores the domain's global summary ``GS`` and
    its cooperation list ``CL``.

    The partner set and ``P_old`` are state of the cooperation list
    (``cooperation.partner_set`` / ``cooperation.old_set``): live sets,
    read-only, not to be held across simulation events.  Membership changes
    go through :meth:`add_partner` / :meth:`remove_partner` so the recorded
    distances follow; ``cooperation.membership_version`` counts them.
    """

    summary_peer_id: str
    cooperation: CooperationList = field(default_factory=CooperationList)
    #: Distance (latency) from each partner to the summary peer, filled by the
    #: construction protocol and used for partnership-switch decisions.
    partner_distances: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._global_summary: Optional[SummaryHierarchy] = None
        self._summary_loader: Optional[Callable[[], SummaryHierarchy]] = None
        #: What the installed summary was merged from: the stamps of its
        #: contributions, in order, then its own as merged.  None whenever the
        #: summary got there any other way (set by hand, restored, lazy).
        self._merged_from: Optional[_Stamps] = None

    @classmethod
    def create(
        cls, summary_peer_id: str, mode: FreshnessMode = FreshnessMode.ONE_BIT
    ) -> "Domain":
        return cls(summary_peer_id=summary_peer_id, cooperation=CooperationList(mode))

    # -- membership ---------------------------------------------------------------------

    @property
    def partner_ids(self) -> List[str]:
        return self.cooperation.partner_ids

    @property
    def size(self) -> int:
        """Domain size = the summary peer plus its partners."""
        extra = 0 if self.cooperation.is_partner(self.summary_peer_id) else 1
        return len(self.cooperation) + extra

    def is_partner(self, peer_id: str) -> bool:
        return self.cooperation.is_partner(peer_id)

    def add_partner(
        self,
        peer_id: str,
        distance: float,
        freshness: Freshness = Freshness.FRESH,
        now: float = 0.0,
    ) -> None:
        self.cooperation.add_partner(peer_id, freshness=freshness, now=now)
        self.partner_distances[peer_id] = distance

    def remove_partner(self, peer_id: str) -> None:
        self.cooperation.remove_partner(peer_id)
        self.partner_distances.pop(peer_id, None)

    def distance_to(self, peer_id: str) -> float:
        return self.partner_distances.get(peer_id, float("inf"))

    # -- global summary -------------------------------------------------------------------

    @property
    def global_summary(self) -> Optional[SummaryHierarchy]:
        """The domain's merged global summary ``GS``.

        When the domain was restored from a checkpoint (by either open), the
        first access materializes the hierarchy through the bound loader;
        subsequent accesses return the materialized object.  Threads of a
        read-only session may race through the first access: the loader is
        read once and cleared only after the summary is published, so each
        of them sees either a loader to call (one materialized object per
        digest is ``HierarchySource.get``'s guarantee) or the published
        summary.
        """
        loader = self._summary_loader
        if loader is not None and self._global_summary is None:
            self._global_summary = loader()
            self._summary_loader = None
        return self._global_summary

    @global_summary.setter
    def global_summary(self, summary: Optional[SummaryHierarchy]) -> None:
        self._global_summary = summary
        self._summary_loader = None
        self._merged_from = None

    def bind_summary_loader(self, loader: Callable[[], SummaryHierarchy]) -> None:
        """Defer materialization of the global summary to first access."""
        self._global_summary = None
        self._summary_loader = loader
        self._merged_from = None

    @property
    def summary_pending(self) -> bool:
        """True while a bound loader has not been materialized yet."""
        return self._summary_loader is not None

    def has_global_summary(self) -> bool:
        return self.global_summary is not None and not self.global_summary.is_empty()

    def install_global_summary(self, summary: SummaryHierarchy) -> None:
        self.global_summary = summary

    def live_contributions(
        self,
        local_summaries: Mapping[str, SummaryHierarchy],
        available: Sequence[str],
    ) -> Contributions:
        """What a full merge over the ``available`` partners merges, in order.

        The available partners that have a non-empty local summary, in
        cooperation-list order, then the summary peer's own when it is not one
        of them.
        """
        contributions = [
            (peer_id, local_summaries[peer_id])
            for peer_id in available
            if peer_id in local_summaries and not local_summaries[peer_id].is_empty()
        ]
        sp_id = self.summary_peer_id
        if sp_id in local_summaries and sp_id not in available:
            own = local_summaries[sp_id]
            if not own.is_empty():
                contributions.append((sp_id, own))
        return contributions

    def merge_global_summary(self, contributions: Contributions) -> None:
        """Make ``GS`` the merge of ``contributions`` — the one place it is made.

        A global summary is only ever ``merge_hierarchies`` over its
        contributions from empty, a pure function of the ordered ``(peer, leaf
        cells)`` list.  So when the installed summary was merged from these
        very hierarchies, in this order, and neither they nor it have been
        mutated since, merging again would rebuild it cell for cell: it is
        kept, with its query index and selection cache warm.  Anything else —
        a contribution mutated, rebuilt, added, dropped or reordered, the
        installed summary mutated in place, replaced or restored — merges from
        empty.  No contribution means no summary: the domain describes nobody.
        """
        if not contributions:
            self.global_summary = None
            return
        sp_id = self.summary_peer_id
        if self._merged_from is not None and _same_stamps(
            self._merged_from, _stamps(contributions + [(sp_id, self._global_summary)])
        ):
            return
        from repro.saintetiq.merging import merge_hierarchies  # real content only

        merged = merge_hierarchies(
            [hierarchy for _peer, hierarchy in contributions], owner=sp_id
        )
        self.global_summary = merged
        self._merged_from = _stamps(contributions + [(sp_id, merged)])

    def coverage(self) -> Set[str]:
        """Peers whose data the global summary describes (the paper's Coverage)."""
        if self.global_summary is None:
            return set()
        return self.global_summary.peer_extent()

    # -- cold-start support -----------------------------------------------------------------

    def changed_partners_since(self, known_partners: Set[str]) -> List[str]:
        """Partners whose summary the stored head cannot vouch for.

        A partner must re-ship its local summary during a cold start when it
        is *new* (absent from the archived head) or *stale* (it pushed a
        freshness update since the head was recorded); everyone else's
        contribution is rehydrated from the store.  Order follows the current
        partner list so a cold-start merge visits partners exactly like a
        full reconciliation would.
        """
        return [
            peer_id
            for peer_id in self.partner_ids
            if peer_id not in known_partners
            or self.cooperation.freshness_of(peer_id) is not Freshness.FRESH
        ]

    # -- freshness views --------------------------------------------------------------------

    def fresh_partners(self) -> List[str]:
        return self.cooperation.fresh_partners()

    def old_partners(self) -> List[str]:
        return self.cooperation.old_partners()

    def old_fraction(self) -> float:
        return self.cooperation.old_fraction()

    def needs_reconciliation(self, alpha: float) -> bool:
        return self.cooperation.needs_reconciliation(alpha)

    def validate(self) -> None:
        """Sanity checks used by integration tests."""
        if self.summary_peer_id in self.partner_distances:
            distance = self.partner_distances[self.summary_peer_id]
            if distance != 0.0:
                raise ProtocolError(
                    "the summary peer's distance to itself must be 0, got "
                    f"{distance}"
                )
        for peer_id in self.partner_ids:
            if peer_id not in self.partner_distances:
                raise ProtocolError(f"partner {peer_id!r} has no recorded distance")
        self.cooperation.validate()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Domain(sp={self.summary_peer_id}, partners={len(self.cooperation)}, "
            f"old={self.old_fraction():.2%})"
        )


def send(
    counter: "MessageCounter",
    faults: Optional["FaultInjector"],
    message_type: "MessageType",
    source: Optional[str] = None,
    targets: Optional[Collection[str]] = None,
    max_retries: int = 0,
    count: Optional[int] = None,
    obs: Optional["Observability"] = None,
    retry_partitioned: bool = False,
) -> Tuple[Optional[Collection[str]], Collection[str], int]:
    """The one place a protocol message is charged and faulted.

    ``source`` sends ``message_type`` to each of ``targets``; ``count``
    messages (default: one per target) and every retry are charged.  **A
    message that never arrives has the effect of one never sent**: callers act
    on who was reached, and on nothing else.  With no plan installed everyone
    is, at one counter add and no random draw; with one,
    :meth:`FaultInjector.send <repro.network.faults.FaultInjector.send>`
    decides, within ``max_retries`` (and retrying across a partition when
    ``retry_partitioned``).  Without ``targets`` (a walk, a flood, a batched
    tally) ``count`` is charged and no plan sees it.  Returns ``(delivered,
    missed, retries)``.
    """
    if faults is None or targets is None:
        counter.record_type(message_type, len(targets) if count is None else count)
        return targets, (), 0
    return faults.send(
        message_type, source, targets, max_retries, counter, obs,
        count=count, retry_partitioned=retry_partitioned,
    )
