"""Peer node model.

A :class:`PeerNode` is the per-node state visible to the network layer: its
identifier, role (plain peer or superpeer), connectivity status, its local
database, and the bookkeeping the summary-management protocols need (who its
summary peer is, how far away it is, etc.).  Its local summary lives in the
protocol's :class:`~repro.core.service.LocalSummaryService`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Set

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.database.engine import LocalDatabase


class PeerRole(enum.Enum):
    """Role of a node in the hybrid overlay."""

    PEER = "peer"
    SUPERPEER = "superpeer"


@dataclass
class PeerNode:
    """State of one node of the overlay."""

    peer_id: str
    role: PeerRole = PeerRole.PEER
    online: bool = True
    database: Optional[LocalDatabase] = None

    #: Identifier of the summary peer whose domain this peer belongs to
    #: (None when the peer is not a partner of any domain).
    summary_peer_id: Optional[str] = None
    #: Network distance (latency, milliseconds) to the current summary peer.
    summary_peer_distance: float = float("inf")
    #: Other summary peers this node knows about (superpeers use this to
    #: accelerate inter-domain flooding, Section 5.2.2).
    known_summary_peers: Set[str] = field(default_factory=set)

    #: Connectivity listener installed by the owning :class:`Overlay` so it
    #: can track the online-peer set incrementally.  Every write to
    #: ``online`` — ``go_offline``/``go_online`` as well as direct
    #: assignment (e.g. checkpoint restore) — is reported through it.
    _status_listener: Optional[Callable[[str, bool], None]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __setattr__(self, name: str, value: object) -> None:
        object.__setattr__(self, name, value)
        if name == "online":
            listener = getattr(self, "_status_listener", None)
            if listener is not None:
                listener(self.peer_id, bool(value))

    def bind_status_listener(
        self, listener: Optional[Callable[[str, bool], None]]
    ) -> None:
        """Install (or, with ``None``, remove) the overlay's status listener."""
        self._status_listener = listener
        if listener is not None:
            listener(self.peer_id, self.online)

    @property
    def is_superpeer(self) -> bool:
        return self.role is PeerRole.SUPERPEER

    @property
    def is_partner(self) -> bool:
        """A partner peer belongs to some domain (Definition 4)."""
        return self.summary_peer_id is not None

    def attach_database(self, database: LocalDatabase) -> None:
        self.database = database

    def join_domain(self, summary_peer_id: str, distance: float) -> None:
        self.summary_peer_id = summary_peer_id
        self.summary_peer_distance = distance

    def leave_domain(self) -> None:
        self.summary_peer_id = None
        self.summary_peer_distance = float("inf")

    def go_offline(self) -> None:
        self.online = False

    def go_online(self) -> None:
        self.online = True

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        status = "online" if self.online else "offline"
        return f"PeerNode({self.peer_id}, {self.role.value}, {status})"
