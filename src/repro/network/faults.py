"""Seeded, deterministic fault injection: the adversary the paper never ran.

The reproduction's churn model (log-normal peer death, Section 4.3) is the
*benign* failure mode: messages always arrive, the overlay never splits, and
domains never die together.  This module supplies the adversarial rest — a
:class:`FaultPlan` of composable policies:

* **link faults** — per-message loss on every link (:class:`LinkFaults`);
* **partitions** — the overlay splits into groups that cannot exchange
  messages, with an optional scheduled re-merge (:class:`PartitionEvent`);
* **correlated domain failures** — a whole domain (summary peer and every
  partner) fails silently at once (:class:`DomainFailureEvent`);
* **summary-peer massacres** — a fraction of all summary peers dies in the
  same instant (:class:`MassacreEvent`);
* **flash crowds** — every offline peer rejoins at once
  (:class:`FlashCrowdEvent`).

Determinism contract
--------------------
Every injected decision is drawn from the :class:`FaultInjector`'s *own*
``random.Random(plan.seed)`` stream, never from the system RNG, and links
that cannot fail draw **nothing**: a partitioned link fails deterministically
without consuming entropy, and a plan with no link faults never touches the
stream on the send path.  Two consequences the tests pin down:

* the zero-fault path is byte-identical to a run without any fault layer
  installed — same messages, same RNG streams, same figures;
* the injector's full state (plan, RNG, live partition) is a plain JSON
  payload (:meth:`FaultInjector.state_payload`), so checkpoints taken
  mid-partition resume mid-partition and continue identically.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.network.metrics import MessageCounter
    from repro.obs import Observability


def _require_probability(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must lie in [0, 1], got {value}")


def _require_non_negative(value: float, name: str) -> None:
    if value < 0:
        raise ConfigurationError(f"{name} must be non-negative, got {value}")


@dataclass(frozen=True)
class LinkFaults:
    """Per-message link behaviour applied uniformly to every link."""

    #: Probability that any one transmission is silently lost.
    drop_probability: float = 0.0

    def __post_init__(self) -> None:
        _require_probability(self.drop_probability, "drop_probability")

    @property
    def any(self) -> bool:
        return self.drop_probability > 0


@dataclass(frozen=True)
class PartitionEvent:
    """The overlay splits at ``at``; optionally re-merges at ``heal_at``.

    Give either explicit ``groups`` (lists of peer ids) or a ``fraction``:
    the injector then shuffles the population with its own RNG and cuts it
    into a ``fraction`` / ``1 - fraction`` split.
    """

    at: float
    fraction: float = 0.5
    heal_at: Optional[float] = None
    groups: Optional[Tuple[Tuple[str, ...], ...]] = None

    def __post_init__(self) -> None:
        _require_non_negative(self.at, "PartitionEvent.at")
        _require_probability(self.fraction, "PartitionEvent.fraction")
        if self.heal_at is not None and self.heal_at <= self.at:
            raise ConfigurationError("PartitionEvent.heal_at must come after at")
        if self.groups is not None:
            # Normalise to tuples so the event stays hashable/asdict-able.
            object.__setattr__(
                self, "groups", tuple(tuple(group) for group in self.groups)
            )


@dataclass(frozen=True)
class DomainFailureEvent:
    """``count`` whole domains (summary peer + every partner) fail silently."""

    at: float
    count: int = 1

    def __post_init__(self) -> None:
        _require_non_negative(self.at, "DomainFailureEvent.at")
        if self.count < 1:
            raise ConfigurationError("DomainFailureEvent.count must be >= 1")


@dataclass(frozen=True)
class MassacreEvent:
    """A ``fraction`` of all summary peers dies in the same instant.

    ``rejoin_after`` schedules each victim's rejoin that many seconds later —
    the scenario that exercises the store-backed domain reclamation path
    (:meth:`SummaryManagementSystem.cold_start_domain`).
    """

    at: float
    fraction: float = 0.5
    graceful: bool = False
    rejoin_after: Optional[float] = None

    def __post_init__(self) -> None:
        _require_non_negative(self.at, "MassacreEvent.at")
        _require_probability(self.fraction, "MassacreEvent.fraction")
        if self.rejoin_after is not None and self.rejoin_after <= 0:
            raise ConfigurationError("MassacreEvent.rejoin_after must be positive")


@dataclass(frozen=True)
class FlashCrowdEvent:
    """Every offline peer (or the first ``rejoin_count``) rejoins at once."""

    at: float
    rejoin_count: Optional[int] = None

    def __post_init__(self) -> None:
        _require_non_negative(self.at, "FlashCrowdEvent.at")
        if self.rejoin_count is not None and self.rejoin_count < 0:
            raise ConfigurationError("FlashCrowdEvent.rejoin_count must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """One composable, seeded adversity schedule for a whole run."""

    seed: int = 0
    link: LinkFaults = field(default_factory=LinkFaults)
    partitions: Tuple[PartitionEvent, ...] = ()
    domain_failures: Tuple[DomainFailureEvent, ...] = ()
    massacres: Tuple[MassacreEvent, ...] = ()
    flash_crowds: Tuple[FlashCrowdEvent, ...] = ()

    def __post_init__(self) -> None:
        # Accept lists for ergonomics, store tuples for hashability.
        for name in ("partitions", "domain_failures", "massacres", "flash_crowds"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def any_faults(self) -> bool:
        """Whether this plan injects anything at all."""
        return bool(
            self.link.any
            or self.partitions
            or self.domain_failures
            or self.massacres
            or self.flash_crowds
        )

    # -- serialisation -------------------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "link": {"drop_probability": self.link.drop_probability},
            "partitions": [
                {
                    "at": event.at,
                    "fraction": event.fraction,
                    "heal_at": event.heal_at,
                    "groups": (
                        [list(group) for group in event.groups]
                        if event.groups is not None
                        else None
                    ),
                }
                for event in self.partitions
            ],
            "domain_failures": [
                {"at": event.at, "count": event.count}
                for event in self.domain_failures
            ],
            "massacres": [
                {
                    "at": event.at,
                    "fraction": event.fraction,
                    "graceful": event.graceful,
                    "rejoin_after": event.rejoin_after,
                }
                for event in self.massacres
            ],
            "flash_crowds": [
                {"at": event.at, "rejoin_count": event.rejoin_count}
                for event in self.flash_crowds
            ],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "FaultPlan":
        # Named reads only: older checkpoints carry link keys no longer read.
        link = dict(payload.get("link") or {})
        return cls(
            seed=int(payload.get("seed", 0)),
            link=LinkFaults(drop_probability=float(link.get("drop_probability", 0.0))),
            partitions=tuple(
                PartitionEvent(
                    at=float(event["at"]),
                    fraction=float(event.get("fraction", 0.5)),
                    heal_at=event.get("heal_at"),
                    groups=(
                        tuple(tuple(group) for group in event["groups"])
                        if event.get("groups") is not None
                        else None
                    ),
                )
                for event in payload.get("partitions", [])
            ),
            domain_failures=tuple(
                DomainFailureEvent(at=float(event["at"]), count=int(event["count"]))
                for event in payload.get("domain_failures", [])
            ),
            massacres=tuple(
                MassacreEvent(
                    at=float(event["at"]),
                    fraction=float(event.get("fraction", 0.5)),
                    graceful=bool(event.get("graceful", False)),
                    rejoin_after=event.get("rejoin_after"),
                )
                for event in payload.get("massacres", [])
            ),
            flash_crowds=tuple(
                FlashCrowdEvent(
                    at=float(event["at"]),
                    rejoin_count=(
                        int(event["rejoin_count"])
                        if event.get("rejoin_count") is not None
                        else None
                    ),
                )
                for event in payload.get("flash_crowds", [])
            ),
        )


class FaultInjector:
    """The live fault state of one run: plan + RNG + current partition.

    The injector never touches the system RNG and draws from its own stream
    only when an outcome is genuinely random: a partitioned link fails (and a
    clean link succeeds) without consuming entropy, which is what makes the
    zero-fault path byte-identical and mid-partition checkpoints resumable.
    """

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        self.plan = plan or FaultPlan()
        self.rng = random.Random(self.plan.seed)
        self._group_of: Dict[str, int] = {}

    # -- partitions ----------------------------------------------------------------

    @property
    def partitioned(self) -> bool:
        return bool(self._group_of)

    def set_partition(self, groups: List[List[str]]) -> None:
        """Install a partition: peers in different groups cannot communicate."""
        self._group_of = {
            peer_id: index
            for index, group in enumerate(groups)
            for peer_id in group
        }

    def clear_partition(self) -> None:
        self._group_of = {}

    def partition_groups(self) -> List[List[str]]:
        """The live partition as sorted groups (empty when none)."""
        groups: Dict[int, List[str]] = {}
        for peer_id, index in self._group_of.items():
            groups.setdefault(index, []).append(peer_id)
        return [sorted(groups[index]) for index in sorted(groups)]

    def reachable(self, source: str, destination: str) -> bool:
        """Whether a message can cross from ``source`` to ``destination`` now.

        Peers absent from every partition group (e.g. added after the split)
        are treated as reachable from everywhere.
        """
        if not self._group_of:
            return True
        a = self._group_of.get(source)
        b = self._group_of.get(destination)
        if a is None or b is None:
            return True
        return a == b

    # -- link faults ---------------------------------------------------------------

    @property
    def lossy(self) -> bool:
        return self.plan.link.drop_probability > 0

    def attempt_delivery(
        self, source: str, destination: str, max_retries: int = 0
    ) -> Tuple[bool, int]:
        """Try one send with up to ``max_retries`` retransmissions.

        Returns ``(delivered, retries_used)``.  A partitioned link fails
        every attempt *without* drawing (the outcome is certain); a clean
        reachable link succeeds immediately without drawing; only a lossy
        reachable link consumes one draw per attempt.  The injector keeps
        no tally: :meth:`send` charges what was lost and retried to the
        run's :class:`~repro.network.metrics.MessageCounter`, the one count of
        every message.
        """
        budget = max(0, int(max_retries))
        if not self.reachable(source, destination):
            return False, budget
        if not self.lossy:
            return True, 0
        for attempt in range(1 + budget):
            if self.rng.random() >= self.plan.link.drop_probability:
                return True, attempt
        return False, budget

    def send(
        self,
        source: str,
        destinations: Iterable[str],
        max_retries: int,
        counter: "MessageCounter",
        obs: Optional["Observability"] = None,
        retry_series: Optional[str] = None,
        *,
        retry_partitioned: bool = False,
    ) -> Tuple[Set[str], Set[str], int, int]:
        """Send one message from ``source`` to each destination, through faults.

        A destination across the partition is cut at once (one drop, no draw)
        unless ``retry_partitioned``: a single send that cannot tell the far
        side is gone retries it to the budget.  The rest go through
        :meth:`attempt_delivery` in sorted order.  Drops are charged to
        ``counter`` and ``repro_fault_dropped_total`` by reason, retries to
        ``counter`` and ``retry_series``; the type of the lost messages is the
        caller's to charge.  Returns ``(delivered, missed, retries, lost)``:
        who was reached, who an attempt never reached (cut ones are in
        neither), the retransmissions and the messages lost in attempts.
        """
        pending = set(destinations)
        dropped = {"partitioned": 0, "link loss": 0}
        if self._group_of and not retry_partitioned:
            cut = {p for p in pending if not self.reachable(source, p)}
            pending -= cut
            dropped["partitioned"] = len(cut)
        delivered, retries, lost = pending, 0, 0
        if pending and (self.lossy or retry_partitioned and self._group_of):
            delivered = set()
            for destination in sorted(pending):
                arrived, used = self.attempt_delivery(source, destination, max_retries)
                retries += used
                lost += used + (not arrived)
                reason = "link loss" if self.reachable(source, destination) else "partitioned"
                dropped[reason] += used + (not arrived)
                if arrived:
                    delivered.add(destination)
        for reason, count in dropped.items():
            if count:
                counter.record_dropped(reason, count)
                if obs is not None:
                    obs.inc("repro_fault_dropped_total", count, reason=reason)
        if retries:
            counter.record_retry(retries)
            if obs is not None and retry_series is not None:
                obs.inc(retry_series, retries)
        return delivered, pending - delivered, retries, lost

    def scratch_copy(self) -> "FaultInjector":
        """A throwaway twin: its own RNG at this injector's state.

        The plan and the partition map are shared: a query reads them, only
        fault events replace them.
        """
        twin = copy.copy(self)
        twin.rng = random.Random(0)  # any seed: the state is overwritten
        twin.rng.setstate(self.rng.getstate())
        return twin

    # -- serialisation -------------------------------------------------------------

    def state_payload(self) -> Dict[str, object]:
        """The injector's full state as a JSON-able payload (checkpointing)."""
        version, internal, position = self.rng.getstate()
        return {
            "plan": self.plan.to_payload(),
            "rng": [version, list(internal), position],
            "partition": self.partition_groups() if self.partitioned else None,
        }

    @classmethod
    def from_state(cls, payload: Dict[str, object]) -> "FaultInjector":
        injector = cls(FaultPlan.from_payload(payload["plan"]))
        version, internal, position = payload["rng"]
        injector.rng.setstate((version, tuple(internal), position))
        partition = payload.get("partition")
        if partition:
            injector.set_partition([list(group) for group in partition])
        return injector

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        mode = "partitioned" if self.partitioned else "merged"
        return f"FaultInjector(seed={self.plan.seed}, {mode})"
