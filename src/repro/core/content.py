"""Content models: how the protocol engine decides which peers hold answers.

Two interchangeable models are provided:

* :class:`SummaryContentModel` — the real thing: every peer owns a database and
  a local summary; domain-level relevance comes from querying the global
  summary; ground truth comes from evaluating the query on the raw databases.
  Used by the examples and the integration tests.

* :class:`PlannedContentModel` — the evaluation model of Section 6: each query
  is matched by a fixed fraction of peers (10 % in Table 3).  The peers
  matching a query are planned up-front; summaries are assumed complete and
  consistent at reconciliation time, so relevance equals the plan and
  staleness effects come only from churn/modification events.  This keeps
  simulations of up to 5000 peers fast while exercising exactly the routing
  and maintenance message flows the paper measures.
"""

from __future__ import annotations

import abc
import copy
import random
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Set

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.database.query import SelectionQuery
    from repro.querying.proposition import Proposition
    from repro.saintetiq.hierarchy import SummaryHierarchy


class ContentModel(abc.ABC):
    """Answers the two content questions the routing layer asks."""

    @abc.abstractmethod
    def relevant_partners(
        self,
        query_id: int,
        domain_partners: Iterable[str],
        global_summary: Optional[SummaryHierarchy],
        proposition: Optional[Proposition],
    ) -> Set[str]:
        """Partners of a domain that the *global summary* designates as relevant."""

    @abc.abstractmethod
    def truly_matching(self, query_id: int, peer_id: str) -> bool:
        """Ground truth: does ``peer_id`` currently hold data matching the query?"""

    def matching_among(self, query_id: int, peers: Iterable[str]) -> Set[str]:
        """Subset of ``peers`` that truly match the query.

        The default implementation is the per-peer ``truly_matching`` loop;
        models that hold their ground truth as a set override it with a set
        intersection (same result, no per-peer call overhead).
        """
        return {
            peer_id for peer_id in peers if self.truly_matching(query_id, peer_id)
        }

    def register_query(self, query_id: int, query: SelectionQuery) -> None:
        """Remember a posed real query (a no-op for models that evaluate none)."""

    @abc.abstractmethod
    def scratch_copy(self) -> "ContentModel":
        """A throwaway twin that answers like this model without writing to it.

        The twin owns a copy of what posing a query advances (registered
        queries, drawn plans, the plan RNG) and shares, unwritten, everything
        else.
        """


class SummaryContentModel(ContentModel):
    """Relevance from real summaries, ground truth from real databases.

    A peer truly matches when its :class:`~repro.database.engine.LocalDatabase`
    has a record satisfying the query, read from that database's index of
    per-relation predicate bitmasks (each record graded once per descriptor,
    not once per query).

    The global summary is explored through :meth:`SummaryHierarchy.select`,
    the hierarchy's indexed, memoized selection — node for node the selection
    of the pure tree walk :func:`~repro.querying.selection.select_summaries`.
    """

    def __init__(
        self,
        queries: Dict[int, SelectionQuery],
        databases: Dict[str, object],
    ) -> None:
        self._queries = queries
        self._databases = databases

    def register_query(self, query_id: int, query: SelectionQuery) -> None:
        self._queries[query_id] = query

    def scratch_copy(self) -> "SummaryContentModel":
        return SummaryContentModel(dict(self._queries), self._databases)

    def relevant_partners(
        self,
        query_id: int,
        domain_partners: Iterable[str],
        global_summary: Optional[SummaryHierarchy],
        proposition: Optional[Proposition],
    ) -> Set[str]:
        if global_summary is None or proposition is None:
            return set()
        selection = global_summary.select(proposition)
        return selection.peer_extent_view().intersection(domain_partners)

    def truly_matching(self, query_id: int, peer_id: str) -> bool:
        database = self._databases.get(peer_id)
        query = self._queries.get(query_id)
        if database is None or query is None:
            return False
        return database.has_match(query)  # type: ignore[attr-defined]


class PlannedContentModel(ContentModel):
    """Synthetic relevance: a fixed fraction of peers matches each query.

    The model also tracks, per peer, whether its database has *changed* since
    the last reconciliation with respect to each query — the ingredient behind
    the paper's distinction between worst-case and real staleness estimates
    (Figures 4 and 5).
    """

    def __init__(
        self,
        peer_ids: List[str],
        matching_fraction: float = 0.1,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= matching_fraction <= 1.0:
            raise ConfigurationError("matching_fraction must lie in [0, 1]")
        self._peer_ids = list(peer_ids)
        self._matching_fraction = matching_fraction
        self._rng = random.Random(seed)
        self._matching: Dict[int, Set[str]] = {}
        #: Peers whose data changed (relative to any query) since the summary
        #: version currently installed in their domain.
        self._modified_peers: Set[str] = set()
        #: Peers that departed and whose data is therefore gone.
        self._departed_peers: Set[str] = set()

    # -- plan management -----------------------------------------------------------------

    @property
    def matching_fraction(self) -> float:
        return self._matching_fraction

    def plan_query(self, query_id: int) -> Set[str]:
        """Choose the matching peers for a query (10 % of the network by default)."""
        return set(self._plan(query_id))

    def _plan(self, query_id: int) -> Set[str]:
        """The stored plan itself (drawn on first use) — internal, no copy.

        The hot per-peer ``truly_matching`` membership tests run against this
        set directly; :meth:`plan_query` hands out defensive copies.
        """
        plan = self._matching.get(query_id)
        if plan is not None:
            return plan
        population = [p for p in self._peer_ids if p not in self._departed_peers]
        target = round(self._matching_fraction * len(self._peer_ids))
        target = min(max(target, 1 if self._matching_fraction > 0 else 0), len(population))
        chosen = set(self._rng.sample(population, target)) if target else set()
        self._matching[query_id] = chosen
        return chosen

    def matching_peers(self, query_id: int) -> Set[str]:
        return self.plan_query(query_id)

    def scratch_copy(self) -> "PlannedContentModel":
        # The peer list and the modified / departed sets are shared: only
        # maintenance writes them, never a query.
        twin = copy.copy(self)
        twin._rng = random.Random(0)  # any seed: the state is overwritten
        twin._rng.setstate(self._rng.getstate())
        twin._matching = dict(self._matching)
        return twin

    # -- checkpoint state ------------------------------------------------------------------

    def state_payload(self) -> Dict[str, object]:
        """JSON-compatible snapshot of the whole plan (RNG state included)."""
        version, internal, position = self._rng.getstate()
        return {
            "peer_ids": list(self._peer_ids),
            "matching_fraction": self._matching_fraction,
            "rng_state": [version, list(internal), position],
            "matching": {
                str(query_id): sorted(peers)
                for query_id, peers in self._matching.items()
            },
            "modified_peers": sorted(self._modified_peers),
            "departed_peers": sorted(self._departed_peers),
        }

    @classmethod
    def from_state(cls, payload: Mapping[str, object]) -> "PlannedContentModel":
        """Rebuild a plan whose future draws match the captured model exactly."""
        model = cls(
            list(payload["peer_ids"]),  # type: ignore[arg-type]
            matching_fraction=float(payload["matching_fraction"]),  # type: ignore[arg-type]
        )
        version, internal, position = payload["rng_state"]  # type: ignore[misc]
        model._rng.setstate((version, tuple(internal), position))
        model._matching = {
            int(query_id): set(peers)
            for query_id, peers in payload["matching"].items()  # type: ignore[union-attr]
        }
        model._modified_peers = set(payload["modified_peers"])  # type: ignore[arg-type]
        model._departed_peers = set(payload["departed_peers"])  # type: ignore[arg-type]
        return model

    # -- churn / modification hooks --------------------------------------------------------

    def mark_modified(self, peer_id: str) -> None:
        self._modified_peers.add(peer_id)

    def mark_departed(self, peer_id: str) -> None:
        self._departed_peers.add(peer_id)

    def mark_rejoined(self, peer_id: str) -> None:
        self._departed_peers.discard(peer_id)

    def clear_modification(self, peer_id: str) -> None:
        """Called when a reconciliation refreshes the peer's descriptions."""
        self._modified_peers.discard(peer_id)

    def is_modified(self, peer_id: str) -> bool:
        return peer_id in self._modified_peers

    def is_departed(self, peer_id: str) -> bool:
        return peer_id in self._departed_peers

    # -- ContentModel API ---------------------------------------------------------------------

    def relevant_partners(
        self,
        query_id: int,
        domain_partners: Iterable[str],
        global_summary: Optional[SummaryHierarchy],
        proposition: Optional[Proposition],
    ) -> Set[str]:
        # The global summary reflects the state at the last reconciliation: a
        # peer is designated relevant if it matched the query according to the
        # descriptions recorded then.  Peers that departed or modified their
        # data since then are exactly the ones whose designation may be stale.
        return self._plan(query_id).intersection(domain_partners)

    def truly_matching(self, query_id: int, peer_id: str) -> bool:
        if peer_id in self._departed_peers:
            return False
        return peer_id in self._plan(query_id)

    def matching_among(self, query_id: int, peers: Iterable[str]) -> Set[str]:
        # Set-intersection form of the truly_matching loop: the plan is a set
        # already, so "which of these peers match" is one intersection and one
        # difference instead of len(peers) membership-test calls.
        plan = self._plan(query_id)
        if not isinstance(peers, (set, frozenset)):
            peers = set(peers)
        return (peers & plan) - self._departed_peers
