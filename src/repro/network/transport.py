"""Latency-aware message transport on top of the discrete-event simulator.

The protocol engine accounts for messages analytically (the paper's metric is
a message *count*), but examples and finer-grained experiments sometimes want
actual message delivery with per-link latency — e.g. to measure query response
times rather than message counts.  :class:`MessageBus` provides that: peers
register handlers per message type, ``send`` schedules a delivery event after
the (shortest-path) latency between the two peers, and every transmission is
recorded in a :class:`~repro.network.metrics.MessageCounter`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from typing import TYPE_CHECKING

from repro.exceptions import NetworkError
from repro.network.faults import ExpiringSet, FaultInjector
from repro.network.messages import Message, MessageType
from repro.network.metrics import MessageCounter
from repro.network.overlay import Overlay
from repro.network.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime import ExecutionBackend

MessageHandler = Callable[[Message, float], None]


@dataclass
class DeliveryRecord:
    """One delivered (or dropped) message, for post-hoc inspection."""

    message: Message
    sent_at: float
    delivered_at: Optional[float]
    dropped: bool = False
    reason: str = ""


class MessageBus:
    """Delivers messages between peers through the simulator."""

    def __init__(
        self,
        overlay: Overlay,
        simulator: Optional[Simulator] = None,
        counter: Optional[MessageCounter] = None,
        default_latency_ms: float = 50.0,
        faults: Optional[FaultInjector] = None,
        duplicate_ttl_seconds: float = 30.0,
        runtime: Optional["ExecutionBackend"] = None,
    ) -> None:
        if runtime is not None and simulator is not None and runtime.clock is not simulator:
            raise NetworkError(
                "pass either a runtime or a simulator to MessageBus, not two "
                "disagreeing clocks"
            )
        self._overlay = overlay
        # A runtime-backed bus schedules deliveries through the execution
        # backend (which tags them with the receiving peer, so concurrent
        # backends can fan them out per-mailbox); a bare bus keeps scheduling
        # straight onto its simulator, exactly as before.
        self._runtime = runtime
        if runtime is not None:
            self._simulator = runtime.clock
        else:
            self._simulator = simulator if simulator is not None else Simulator()
        self._counter = counter if counter is not None else MessageCounter()
        self._default_latency_ms = default_latency_ms
        self._handlers: Dict[Tuple[str, MessageType], MessageHandler] = {}
        self._catch_all: Dict[str, MessageHandler] = {}
        self._log: List[DeliveryRecord] = []
        self._faults = faults
        # Receiver-side duplicate suppression: fault-injected duplicates (and
        # retransmissions of an already-delivered message) are delivered at
        # most once per (destination, message_id) within the TTL window.  Only
        # consulted while faults are installed, so the zero-fault bus behaves
        # exactly as before.
        self._seen = ExpiringSet(ttl_seconds=duplicate_ttl_seconds)
        #: Metrics+trace hook; None keeps every send on the uninstrumented path.
        self.observability = None

    # -- accessors -----------------------------------------------------------------

    @property
    def simulator(self) -> Simulator:
        return self._simulator

    @property
    def runtime(self) -> Optional["ExecutionBackend"]:
        """The execution backend deliveries are scheduled through, if any."""
        return self._runtime

    @property
    def counter(self) -> MessageCounter:
        return self._counter

    @property
    def deliveries(self) -> List[DeliveryRecord]:
        return list(self._log)

    @property
    def faults(self) -> Optional[FaultInjector]:
        return self._faults

    def install_faults(self, injector: Optional[FaultInjector]) -> None:
        """Attach (or detach, with ``None``) a fault injector to every link."""
        self._faults = injector

    def delivered_count(self) -> int:
        return sum(1 for record in self._log if not record.dropped)

    def dropped_count(self) -> int:
        return sum(1 for record in self._log if record.dropped)

    # -- handler registration ---------------------------------------------------------

    def register(
        self,
        peer_id: str,
        handler: MessageHandler,
        message_type: Optional[MessageType] = None,
    ) -> None:
        """Register a handler for one peer (optionally for one message type only)."""
        if peer_id not in self._overlay.links:
            raise NetworkError(f"cannot register handler for unknown peer {peer_id!r}")
        if message_type is None:
            self._catch_all[peer_id] = handler
        else:
            self._handlers[(peer_id, message_type)] = handler

    def unregister(self, peer_id: str) -> None:
        self._catch_all.pop(peer_id, None)
        for key in [key for key in self._handlers if key[0] == peer_id]:
            del self._handlers[key]

    # -- sending -----------------------------------------------------------------------

    def send(self, message: Message, latency_ms: Optional[float] = None) -> DeliveryRecord:
        """Send ``message``; it is delivered after the link latency.

        Messages to offline peers are counted (they were transmitted) but
        dropped at delivery time, mirroring how a partner discovers that its
        summary peer failed only when a push or query goes unanswered.
        """
        sent_at = self._simulator.now
        self._counter.record(message)
        if self.observability is not None:
            self.observability.inc("repro_bus_sends_total", type=message.type.value)
        if latency_ms is None:
            latency_ms = self._latency(message.source, message.destination)
        record = DeliveryRecord(message=message, sent_at=sent_at, delivered_at=None)
        self._log.append(record)

        faults = self._faults
        if faults is not None:
            if not faults.reachable(message.source, message.destination):
                # Partition cuts are deterministic: no randomness consumed.
                self._drop(record, "partitioned", fault=True)
                return record
            if faults.lossy and faults.draw_loss():
                self._drop(record, "message loss", fault=True)
                return record
            if faults.jittery:
                latency_ms += faults.draw_jitter_ms()
            if faults.duplicating and faults.draw_duplicate():
                dup_record = DeliveryRecord(
                    message=message, sent_at=sent_at, delivered_at=None
                )
                self._log.append(dup_record)
                self._counter.record_duplicate()
                faults.stats.messages_duplicated += 1
                # The copy trails the original by at least the link latency, so
                # the original wins the duplicate-suppression race.
                self._schedule_delivery(
                    message, dup_record, latency_ms + max(latency_ms, 1.0)
                )
        self._schedule_delivery(message, record, latency_ms)
        return record

    def send_with_retry(
        self,
        message: Message,
        max_retries: int = 3,
        backoff_seconds: float = 0.2,
        backoff_factor: float = 2.0,
    ) -> DeliveryRecord:
        """Send ``message``, retransmitting on fault-injected send failures.

        A transmission the fault injector kills at send time (link loss or a
        partition cut) is retried up to ``max_retries`` times with exponential
        backoff; each wait is folded into the retransmission's delivery delay,
        so the schedule never reorders.  Retransmissions reuse the original
        ``message_id`` — if several copies get through, receiver-side duplicate
        suppression delivers only the first.  Returns the last attempt's
        record; without faults installed this is exactly :meth:`send`.
        """
        record = self.send(message)
        if self._faults is None:
            return record
        delay = backoff_seconds
        retries = 0
        while (
            record.dropped
            and record.reason in ("partitioned", "message loss")
            and retries < max_retries
        ):
            retries += 1
            self._counter.record_retry()
            self._faults.stats.retries += 1
            self._faults.stats.backoff_seconds += delay
            if self.observability is not None:
                self.observability.inc(
                    "repro_bus_retries_total", type=message.type.value
                )
            latency = self._latency(message.source, message.destination) + delay * 1000.0
            record = self.send(message, latency_ms=latency)
            delay *= backoff_factor
        return record

    def broadcast(
        self,
        source: str,
        message_type: MessageType,
        payload: Optional[dict] = None,
        ttl: int = 1,
    ) -> int:
        """TTL-bounded neighbour broadcast (the ``sumpeer`` pattern).

        Returns the number of messages sent.  Every reached peer forwards the
        message to all its neighbours except the sender until the TTL expires.
        """
        if ttl < 1:
            raise NetworkError("broadcast TTL must be at least 1")
        sent = 0
        visited = {source}
        frontier: List[Tuple[str, Optional[str]]] = [(source, None)]
        for remaining in range(ttl, 0, -1):
            next_frontier: List[Tuple[str, Optional[str]]] = []
            for node, received_from in frontier:
                for neighbour in self._overlay.neighbors(node):
                    if neighbour == received_from:
                        continue
                    self.send(
                        Message(
                            type=message_type,
                            source=node,
                            destination=neighbour,
                            payload=dict(payload or {}),
                            ttl=remaining - 1,
                        )
                    )
                    sent += 1
                    if neighbour not in visited:
                        visited.add(neighbour)
                        next_frontier.append((neighbour, node))
            frontier = next_frontier
            if not frontier:
                break
        return sent

    def run(self, until: Optional[float] = None) -> int:
        """Advance the simulation until pending deliveries are processed."""
        if self._runtime is not None:
            return self._runtime.run(until=until)
        return self._simulator.run(until=until)

    # -- helpers -------------------------------------------------------------------------

    def _schedule_delivery(
        self, message: Message, record: DeliveryRecord, latency_ms: float
    ) -> None:
        def deliver() -> None:
            destination = self._overlay.peer(message.destination)
            if not destination.online:
                self._drop(record, "destination offline")
                return
            if self._faults is not None:
                key = (message.destination, message.message_id)
                if not self._seen.add_if_new(key, self._simulator.now):
                    self._drop(record, "duplicate suppressed")
                    return
            record.delivered_at = self._simulator.now
            handler = self._handlers.get((message.destination, message.type))
            if handler is None:
                handler = self._catch_all.get(message.destination)
            if handler is None:
                self._drop(record, "no handler")
                return
            handler(message, self._simulator.now)

        if self._runtime is not None:
            # The backend owns delivery scheduling: the actor tag names the
            # receiving peer's mailbox.  The bus keeps its own receiver-side
            # duplicate suppression (above), so no dedup_key is passed —
            # suppressed duplicates must still be counted as drops.
            self._runtime.deliver(
                latency_ms / 1000.0,
                deliver,
                label=message.type.value,
                actor=message.destination,
            )
        else:
            self._simulator.schedule(
                latency_ms / 1000.0, deliver, label=message.type.value
            )

    def _drop(self, record: DeliveryRecord, reason: str, fault: bool = False) -> None:
        record.dropped = True
        record.reason = reason
        self._counter.record_dropped(reason)
        if self.observability is not None:
            self.observability.inc("repro_bus_dropped_total", reason=reason)
            if fault:
                self.observability.inc("repro_fault_dropped_total", reason=reason)
        if fault and self._faults is not None:
            self._faults.stats.messages_dropped += 1

    def _latency(self, source: str, destination: str) -> float:
        try:
            return self._overlay.latency(source, destination)
        except NetworkError:
            return self._default_latency_ms
