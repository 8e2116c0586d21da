"""Traffic accounting: the evaluation's primary metric is message counts."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional

from repro.network.messages import MessageType


class MessageCounter:
    """Counts messages by type, plus the fault layer's drops and retries.

    This is a run's one tally of what it sent, lost and retried: the
    maintenance engine, the protocol's fault paths and the router all charge
    it, and every report reads it.  Nothing else keeps a copy.
    """

    def __init__(self) -> None:
        # Keyed by each type's value: a ``str`` hashes in C, where a member
        # hashes through the Python-level ``Enum.__hash__`` on every count.
        self._by_type: Counter = Counter()
        # Fault-layer accounting: how many messages never arrived or had to
        # be retransmitted.
        self._dropped: Counter = Counter()
        self._retries = 0

    def record_type(self, message_type: MessageType, count: int = 1) -> None:
        """Account for ``count`` messages of one type."""
        self._by_type[message_type._value_] += count

    def record_dropped(self, reason: str = "", count: int = 1) -> None:
        """Account for messages that were sent but never delivered."""
        self._dropped[reason or "unspecified"] += count

    def record_retry(self, count: int = 1) -> None:
        """Account for retransmissions (each is also counted by its type)."""
        self._retries += count

    def count(self, message_type: Optional[MessageType] = None) -> int:
        if message_type is None:
            return sum(self._by_type.values())
        return self._by_type[message_type._value_]

    def count_types(self, message_types: Iterable[MessageType]) -> int:
        return sum(self._by_type[mt._value_] for mt in message_types)

    def by_type(self) -> Dict[MessageType, int]:
        return {MessageType(value): count for value, count in self._by_type.items()}

    @property
    def total(self) -> int:
        return sum(self._by_type.values())

    @property
    def dropped_total(self) -> int:
        return sum(self._dropped.values())

    @property
    def retry_total(self) -> int:
        return self._retries

    def dropped_by_reason(self) -> Dict[str, int]:
        return dict(self._dropped)

    def merge(self, other: "MessageCounter") -> None:
        self._by_type.update(other._by_type)
        self._dropped.update(other._dropped)
        self._retries += other._retries

    def reset(self) -> None:
        self._by_type.clear()
        self._dropped.clear()
        self._retries = 0

    def to_metrics(self, registry) -> None:
        """Bridge the current totals into a :class:`repro.obs.MetricsRegistry`.

        Adds this counter's totals to the registry's series — per-type counts
        under ``repro_messages_total{type=...}``, drops by reason under
        ``repro_messages_dropped_total{reason=...}`` and retries under
        ``repro_messages_retries_total``.  Bridge once per counter lifetime
        (or after a :meth:`reset`): the registry accumulates.  Reading the
        counter this way mutates nothing here — :meth:`state_payload` is
        unchanged.
        """
        for value in sorted(self._by_type):
            registry.inc("repro_messages_total", self._by_type[value], type=value)
        for reason in sorted(self._dropped):
            registry.inc(
                "repro_messages_dropped_total", self._dropped[reason], reason=reason
            )
        if self._retries:
            registry.inc("repro_messages_retries_total", self._retries)

    # -- checkpoint state ---------------------------------------------------------

    def state_payload(self) -> Dict[str, object]:
        """JSON-compatible snapshot (message types keyed by their value).

        The fault-layer keys are included only when non-zero, so zero-fault
        payloads stay byte-identical to those of earlier checkpoints.
        """
        payload: Dict[str, object] = {
            "by_type": dict(self._by_type),
            # Constants kept for the bytes: every checkpoint ever written holds
            # exactly these, and the construction golden hashes this payload.
            "by_sender": {},
            "bytes": 0,
        }
        if self._dropped:
            payload["dropped"] = dict(self._dropped)
        if self._retries:
            payload["retries"] = self._retries
        return payload

    @classmethod
    def from_state(cls, payload: Mapping[str, object]) -> "MessageCounter":
        counter = cls()
        for value, count in payload["by_type"].items():  # type: ignore[union-attr]
            counter._by_type[MessageType(value)._value_] = int(count)
        for reason, count in payload.get("dropped", {}).items():  # type: ignore[union-attr]
            counter._dropped[reason] = int(count)
        counter._retries = int(payload.get("retries", 0))  # type: ignore[arg-type]
        return counter


@dataclass
class TrafficReport:
    """A summary of traffic over a simulation window, normalised per node/second."""

    total_messages: int
    duration_seconds: float
    peer_count: int
    by_type: Mapping[MessageType, int] = field(default_factory=dict)

    @property
    def messages_per_node(self) -> float:
        if self.peer_count == 0:
            return 0.0
        return self.total_messages / self.peer_count

    @property
    def messages_per_node_per_second(self) -> float:
        """The unit of the paper's update-cost equation (eq. 1)."""
        if self.peer_count == 0 or self.duration_seconds <= 0:
            return 0.0
        return self.total_messages / (self.peer_count * self.duration_seconds)

    @classmethod
    def from_counter(
        cls,
        counter: MessageCounter,
        duration_seconds: float,
        peer_count: int,
        message_types: Optional[List[MessageType]] = None,
    ) -> "TrafficReport":
        if message_types is None:
            total = counter.total
            by_type = counter.by_type()
        else:
            total = counter.count_types(message_types)
            by_type = {mt: counter.count(mt) for mt in message_types}
        return cls(
            total_messages=total,
            duration_seconds=duration_seconds,
            peer_count=peer_count,
            by_type=by_type,
        )
