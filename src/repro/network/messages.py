"""Protocol message types: the unit of the evaluation's accounting.

The evaluation's primary metric is the *number of exchanged messages*; this
module enumerates every message type the protocols use (Sections 4 and 5 of
the paper) so the metrics layer can attribute traffic precisely.

The protocol engine accounts for messages analytically — a count per type in
a :class:`~repro.network.metrics.MessageCounter` — so nothing here knows about
clocks, schedulers or :mod:`repro.runtime` backends, and a count is the same
under every backend.
"""

from __future__ import annotations

import enum


class MessageType(enum.Enum):
    """Every message kind exchanged by the protocols."""

    # -- summary construction (Section 4.1)
    SUMPEER = "sumpeer"            # superpeer advertisement broadcast (TTL-bounded)
    LOCALSUM = "localsum"          # a peer ships its local summary to the superpeer
    DROP = "drop"                  # a peer drops its old partnership
    FIND = "find"                  # selective walk looking for a summary peer

    # -- summary maintenance (Section 4.2)
    PUSH = "push"                  # freshness-bit update from a partner
    RECONCILIATION = "reconciliation"  # ring message rebuilding the global summary

    # -- peer dynamicity (Section 4.3)
    RELEASE = "release"            # a leaving superpeer releases its partners

    # -- query processing (Section 5)
    QUERY = "query"                # query sent to the summary peer or to a relevant peer
    QUERY_RESPONSE = "query_response"  # answer returned to the originator
    FLOOD_REQUEST = "flood_request"    # inter-domain flooding request
    FLOOD_QUERY = "flood_query"        # TTL-bounded flooded query (also the baseline)
