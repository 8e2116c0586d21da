"""Summary management in P2P systems — the paper's primary contribution.

This package implements Sections 4 and 5 of the paper on top of the
substrates (fuzzy sets, SaintEtiQ summarization, relational databases, P2P
overlay simulation):

* :mod:`repro.core.freshness`, :mod:`repro.core.cooperation` — cooperation
  lists and freshness values,
* :mod:`repro.core.domain` — a domain: one summary peer, its partners, their
  merged global summary,
* :mod:`repro.core.construction` — the summary construction protocol
  (``sumpeer`` broadcast, ``localsum`` replies, partnership switching,
  selective-walk discovery),
* :mod:`repro.core.maintenance` — push/pull maintenance (freshness pushes and
  ring reconciliation driven by the α threshold),
* :mod:`repro.core.dynamicity` — peer join / leave / failure and summary-peer
  departure handling,
* :mod:`repro.core.routing` — summary-based query routing: peer localization
  inside a domain and TTL-bounded inter-domain flooding,
* :mod:`repro.core.approximate` — approximate answering in the summary domain,
* :mod:`repro.core.service` — the per-peer local summary service,
* :mod:`repro.core.content` — content models (real summaries or planned
  relevance) used by the experiments,
* :mod:`repro.core.protocol` — the end-to-end protocol engine driving a whole
  simulated network,
* :mod:`repro.core.session` — the declarative façade over all of the above:
  :class:`SystemBuilder` assembles a validated network, :class:`NetworkSession`
  runs it and answers queries with typed :class:`QueryAnswer` values.

Each name loads on first use: ``import repro.core`` imports none of its modules.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "config": "ProtocolConfig",
    "construction": "DomainBuilder",
    "cooperation": "CooperationList",
    "domain": "Domain",
    "dynamicity": "ChurnHandler",
    "freshness": "Freshness FreshnessMode",
    "maintenance": "MaintenanceEngine",
    "protocol": "SummaryManagementSystem",
    "routing": "QueryRouter QueryRoutingResult RoutingPolicy",
    "service": "LocalSummaryService",
    "session": (
        "MaintenanceReport NetworkSession QueryAnswer SessionTraffic SystemBuilder"
    ),
})

__all__ = [
    "ProtocolConfig",
    "Freshness",
    "FreshnessMode",
    "CooperationList",
    "Domain",
    "DomainBuilder",
    "MaintenanceEngine",
    "ChurnHandler",
    "RoutingPolicy",
    "QueryRouter",
    "QueryRoutingResult",
    "LocalSummaryService",
    "SummaryManagementSystem",
    "SystemBuilder",
    "NetworkSession",
    "QueryAnswer",
    "MaintenanceReport",
    "SessionTraffic",
]
