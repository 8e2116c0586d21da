"""The execution-backend contract: one scheduling/clock surface.

The protocol engine schedules *through* an :class:`ExecutionBackend` — never
straight onto the discrete-event :class:`~repro.network.simulator.Simulator`
— and the backend decides how events actually execute:

* :class:`~repro.runtime.simulator.SimulatorBackend` runs them exactly as
  before — one thread, strict ``(time, sequence)`` order — and is the
  default.
* :class:`~repro.runtime.concurrent.ConcurrentBackend` overlaps the
  I/O-shaped cost of a drain window on an asyncio event loop (per-actor
  mailboxes, semaphore-capped fan-out) while draining the *virtual* events in
  the same strict order, so answers stay equal to the simulator's.

Every backend owns a :class:`Simulator` instance as its virtual **clock**:
the event queue, ``now``, sequence numbering, and the checkpoint hooks
(``pending``/``load_state``/``restore_event``) all live there, which keeps
checkpoint payloads and restore byte-identical across backends.

An event may carry an ``actor`` tag (``schedule(..., actor=)``): the peer or
domain whose mailbox the work belongs to, for backends that fan out per
actor.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional

from repro.network.simulator import Event, EventCallback, Simulator

#: Maps an event label to the I/O-shaped cost (seconds of wall clock) its
#: delivery would spend waiting on the network/disk.  ``None`` means "no
#: modelled I/O": the simulator backend then never sleeps and the concurrent
#: backend has nothing to overlap.
IoModel = Callable[[str], float]


class ExecutionBackend:
    """Base class: owns the virtual clock, defines the scheduling surface.

    Subclasses override :meth:`run` (how a drain actually executes) and may
    extend :meth:`install_observability`.  Everything else — scheduling and
    the checkpoint passthroughs — is shared, so the two backends cannot
    drift apart on semantics.
    """

    #: Short identifier recorded in checkpoints (overridden per subclass).
    name = "base"

    def __init__(self, io_model: Optional[IoModel] = None) -> None:
        self._clock = Simulator()
        self._io_model = io_model
        #: Metrics+trace hook; None keeps scheduling on the uninstrumented path.
        self._obs = None

    # -- clock ------------------------------------------------------------------------

    @property
    def clock(self) -> Simulator:
        """The virtual clock (event queue + ``now``) this backend drives."""
        return self._clock

    @property
    def now(self) -> float:
        return self._clock.now

    @property
    def processed_events(self) -> int:
        return self._clock.processed_events

    @property
    def pending_events(self) -> int:
        return self._clock.pending_events

    @property
    def next_sequence(self) -> int:
        return self._clock.next_sequence

    @property
    def io_model(self) -> Optional[IoModel]:
        return self._io_model

    def create_rng(self, seed: int) -> random.Random:
        """A seeded RNG for protocol content/fault draws.

        Both backends hand out plain ``random.Random`` streams: determinism
        comes from draining events in ``(time, sequence)`` order, never from
        the backend, so a seed produces the same draws everywhere.
        """
        return random.Random(seed)

    # -- scheduling ---------------------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: EventCallback,
        label: str = "",
        spec: Optional[Dict[str, object]] = None,
        actor: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` virtual seconds from now."""
        event = self._clock.schedule(delay, callback, label=label, spec=spec)
        if actor is not None:
            self._tag_actor(event, actor)
        return event

    def schedule_at(
        self,
        time: float,
        callback: EventCallback,
        label: str = "",
        spec: Optional[Dict[str, object]] = None,
        actor: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback`` at an absolute virtual time."""
        event = self._clock.schedule_at(time, callback, label=label, spec=spec)
        if actor is not None:
            self._tag_actor(event, actor)
        return event

    def _tag_actor(self, event: Event, actor: str) -> None:
        """Remember which actor a scheduled event belongs to (backend hook)."""
        # The reference backend drains one thread in event order and has no
        # per-actor structure to feed; concurrent backends override this.
        del event, actor

    # -- execution ----------------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Drain events (chronological order) up to ``until``; returns the count."""
        raise NotImplementedError

    def step(self) -> bool:
        """Run the single next pending event (debugging/test surface)."""
        return self._clock.step()

    def reset(self) -> None:
        """Drop pending events and rewind the clock to zero."""
        self._clock.reset()

    # -- checkpoint passthroughs --------------------------------------------------------

    def pending(self) -> List[Event]:
        return self._clock.pending()

    def load_state(self, now: float, processed: int, next_sequence: int) -> None:
        self._clock.load_state(now, processed, next_sequence)

    def restore_event(
        self,
        time: float,
        sequence: int,
        callback: EventCallback,
        label: str = "",
        spec: Optional[Dict[str, object]] = None,
    ) -> Event:
        return self._clock.restore_event(
            time, sequence, callback, label=label, spec=spec
        )

    # -- observability -------------------------------------------------------------------

    def install_observability(self, observability: Any) -> None:
        """Attach a metrics/trace hook (``None`` detaches)."""
        self._obs = observability

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"{type(self).__name__}(now={self._clock.now:.1f}, "
            f"pending={self._clock.pending_events})"
        )
