"""Stale answers and false negatives: the measurement behind Figures 4 and 5.

A query routed by a global summary can go wrong in two ways when some of
the descriptions it was merged from are old (Section 4): a stale partner it
designates may no longer match (a false positive), and a stale partner it
leaves out may match after all (a false negative).  Figure 4 counts every
stale designation as wrong (the worst case); Figure 5 counts only those whose
match for the query actually changed since the partner's last reconciliation
(the real case).  That question is the content model's
(:meth:`~repro.core.content.ContentModel.match_changed`).

The measurement reads a :class:`~repro.core.protocol.SummaryManagementSystem`
and writes only the :class:`~repro.core.routing.QueryScratch` it samples on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.core.content import PlannedContentModel
from repro.core.routing import QueryScratch
from repro.exceptions import ProtocolError


@dataclass
class StalenessSnapshot:
    """Worst-case and real staleness figures for one sampled query.

    ``worst_*`` follows the paper's pessimistic accounting (every stale
    partner selected in ``P_Q`` is a false positive; every stale matching
    partner outside ``P_Q`` is a false negative).  ``real_*`` counts a stale
    partner only when its match for the query changed (Figure 5's
    correction).
    """

    query_id: int
    relevant_count: int
    worst_false_positives: int
    worst_false_negatives: int
    real_false_positives: int
    real_false_negatives: int

    @property
    def worst_stale_fraction(self) -> float:
        if self.relevant_count == 0:
            return 0.0
        return (
            self.worst_false_positives + self.worst_false_negatives
        ) / self.relevant_count

    @property
    def real_false_negative_fraction(self) -> float:
        if self.relevant_count == 0:
            return 0.0
        return self.real_false_negatives / self.relevant_count

    @property
    def real_stale_fraction(self) -> float:
        if self.relevant_count == 0:
            return 0.0
        return (
            self.real_false_positives + self.real_false_negatives
        ) / self.relevant_count


class _StalenessMeasurement:
    """The Figure 4/5 measurement of :class:`SummaryManagementSystem`."""

    def staleness_snapshot(
        self, query_id: Optional[int] = None, scratch: Optional[QueryScratch] = None
    ) -> StalenessSnapshot:
        """Sample the staleness of query answers across every domain.

        Only meaningful in planned-content mode: the plan provides the ground
        truth while the cooperation lists and described sets provide the
        summary-side view.  The id allocated and the plan drawn for a new
        query land on ``scratch`` (default: the system itself).
        """
        scratch = self._staleness_scratch(scratch)
        if query_id is None:
            query_id = scratch.next_query_id()
        return self._staleness_of(query_id, scratch)

    def staleness_snapshots(
        self, count: int, scratch: Optional[QueryScratch] = None
    ) -> List[StalenessSnapshot]:
        """Sample ``count`` staleness snapshots: :meth:`staleness_snapshot`
        ``count`` times back to back (consecutive query ids)."""
        scratch = self._staleness_scratch(scratch)
        return [
            self._staleness_of(scratch.next_query_id(), scratch)
            for _sample in range(count)
        ]

    def _staleness_scratch(self, scratch: Optional[QueryScratch]) -> QueryScratch:
        if not isinstance(self._content, PlannedContentModel):
            raise ProtocolError("staleness_snapshot requires planned content")
        return self._own_unless(scratch)

    def _staleness_of(self, query_id: int, scratch: QueryScratch) -> StalenessSnapshot:
        content = scratch.content
        # The stored plan itself: this pass only reads it.
        plan = content.plan(query_id)
        online_ids = self._overlay.online_ids
        described_of = self._described.get

        relevant_count = 0
        worst_fp = worst_fn = real_fp = real_fn = 0
        p_mod = self._config.modification_probability

        for sp_id, domain in self._domains.items():
            cooperation = domain.cooperation
            described = described_of(sp_id)
            if described is None:
                described = cooperation.partner_set
            relevant_count += len(plan & described)
            stale = cooperation.old_set
            if not stale:
                continue
            stale_matching = plan & stale
            stale_relevant = stale_matching & described

            # Worst case (Figure 4): every stale relevant peer contacted is a
            # false positive; every matching stale peer outside P_Q is a false
            # negative.
            worst_fp += len(stale_relevant)
            worst_fn += len(stale_matching) - len(stale_relevant)

            # Real case (Figure 5): a stale peer selected in P_Q only causes a
            # stale answer if its data actually changed with respect to the
            # query (or disappeared with the peer).  Under the precision-first
            # policy (V = P_Q ∩ P_fresh) false positives vanish and the only
            # residue is the false negatives: stale-but-unchanged peers that
            # were needlessly excluded.
            for peer_id in stale_relevant:
                departed = content.is_departed(peer_id) or peer_id not in online_ids
                if departed:
                    # Its data is gone: a real false positive under the ALL
                    # policy, correctly excluded under the PRECISION policy.
                    real_fp += 1
                elif content.match_changed(query_id, peer_id, p_mod):
                    real_fp += 1
                else:
                    # Still matching but excluded by the PRECISION policy.
                    real_fn += 1

        return StalenessSnapshot(
            query_id=query_id,
            relevant_count=relevant_count,
            worst_false_positives=worst_fp,
            worst_false_negatives=worst_fn,
            real_false_positives=real_fp,
            real_false_negatives=real_fn,
        )

    def stale_described_counts(self, sp_ids: Iterable[str]) -> Dict[str, int]:
        """For each domain of ``sp_ids`` whose global summary describes some
        partners from descriptions its cooperation list marks old, how many
        (unknown domains and domains with none are left out)."""
        domain_of = self._domains.get
        described_of = self._described.get
        counts: Dict[str, int] = {}
        for sp_id in sp_ids:
            domain = domain_of(sp_id)
            described = described_of(sp_id)
            if domain is None or described is None:
                continue
            stale = domain.cooperation.old_set
            if stale:
                count = len(stale & described)
                if count:
                    counts[sp_id] = count
        return counts
