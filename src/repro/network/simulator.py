"""A deterministic discrete-event simulator (SimJava substitute).

The simulator maintains a priority queue of timestamped events.  Each event
carries a callback; running the simulation pops events in chronological order
(ties broken by insertion order, which keeps runs fully deterministic) and
invokes their callbacks, which may schedule further events.

The heap holds ``(time, sequence, event)`` tuples, so every comparison runs
in C on the float and the int; ``sequence`` is unique per queue, so the
event itself is never compared.  :meth:`pending` and :meth:`due` sort the
same tuples.

The protocol engine layers message passing on top: ``send`` schedules a
delivery event after the link latency, and the receiving peer's handler runs
at delivery time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.exceptions import NetworkError

EventCallback = Callable[[], None]


@dataclass(slots=True)
class Event:
    """A scheduled callback, fired in ``(time, sequence)`` order.

    ``spec`` is an optional declarative description of the event (plain
    JSON-compatible payload).  Callbacks are closures and cannot be
    persisted; an event carrying a spec can instead be re-created from it
    after a checkpoint/restore cycle (see :mod:`repro.store.checkpoint`).
    """

    time: float
    sequence: int
    callback: EventCallback
    label: str = ""
    spec: Optional[Dict[str, object]] = None


class Simulator:
    """Event queue + virtual clock."""

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, Event]] = []
        self._next_sequence = 0
        self._now = 0.0
        self._processed = 0

    @property
    def now(self) -> float:
        """Current virtual time (seconds)."""
        return self._now

    @property
    def processed_events(self) -> int:
        return self._processed

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    def schedule(
        self,
        delay: float,
        callback: EventCallback,
        label: str = "",
        spec: Optional[Dict[str, object]] = None,
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise NetworkError(f"cannot schedule an event in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, label=label, spec=spec)

    def schedule_at(
        self,
        time: float,
        callback: EventCallback,
        label: str = "",
        spec: Optional[Dict[str, object]] = None,
    ) -> Event:
        """Schedule ``callback`` at exactly the virtual time ``time``."""
        if time < self._now:
            raise NetworkError(
                f"cannot schedule at {time} which is before now ({self._now})"
            )
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        event = Event(time, sequence, callback, label, spec)
        heapq.heappush(self._queue, (time, sequence, event))
        return event

    # -- checkpoint/restore hooks (used by repro.store.checkpoint) ---------------

    @property
    def next_sequence(self) -> int:
        """The sequence number the next scheduled event will receive."""
        return self._next_sequence

    def pending(self) -> List[Event]:
        """Pending events in firing order (time, then sequence)."""
        return [entry[2] for entry in sorted(self._queue)]

    def load_state(self, now: float, processed: int, next_sequence: int) -> None:
        """Reset the simulator to a checkpointed clock (queue emptied).

        Pending events are re-created afterwards with :meth:`restore_event`;
        new events then continue from ``next_sequence``, so tie-breaking on
        equal timestamps matches the uninterrupted run exactly.
        """
        if now < 0 or processed < 0 or next_sequence < 0:
            raise NetworkError("checkpointed simulator state must be non-negative")
        self._queue.clear()
        self._now = now
        self._processed = processed
        self._next_sequence = next_sequence

    def restore_event(
        self,
        time: float,
        sequence: int,
        callback: EventCallback,
        label: str = "",
        spec: Optional[Dict[str, object]] = None,
    ) -> Event:
        """Re-insert a checkpointed event with its original sequence number."""
        if time < self._now:
            raise NetworkError(
                f"cannot restore an event at {time} before now ({self._now})"
            )
        event = Event(time, sequence, callback, label, spec)
        heapq.heappush(self._queue, (time, sequence, event))
        return event

    def step(self) -> bool:
        """Run the next pending event.  Returns False when the queue is empty."""
        if not self._queue:
            return False
        self._now, _sequence, event = heapq.heappop(self._queue)
        event.callback()
        self._processed += 1
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events until the queue drains, ``until`` is reached, or the budget ends.

        Returns the number of events processed by this call.
        """
        queue = self._queue
        pop = heapq.heappop
        processed = 0
        while queue:
            if max_events is not None and processed >= max_events:
                break
            if until is not None and queue[0][0] > until:
                self._now = max(self._now, until)  # never moves back
                break
            self._now, _sequence, event = pop(queue)
            event.callback()
            self._processed += 1
            processed += 1
        if until is not None and not queue and self._now < until:
            self._now = until
        return processed

    # -- queue inspection (used by repro.runtime backends) ------------------------

    def peek(self) -> Optional[Event]:
        """The next event, without popping it (None when empty)."""
        return self._queue[0][2] if self._queue else None

    def due(self, until: float) -> List[Event]:
        """Events with ``time <= until``, in firing order.

        A read-only window snapshot: nothing is popped, so running the queue
        afterwards processes exactly the same events in exactly the same
        order.  Execution backends use this to know which deliveries fall in
        the next drain window before draining it.
        """
        return [entry[2] for entry in sorted(e for e in self._queue if e[0] <= until)]

    def advance_to(self, time: float) -> None:
        """Move the clock forward to ``time`` without running any event.

        Refuses to travel back in time or to skip over a pending event; this
        is the tail advance ``run(until=...)`` performs when the queue drains
        (or the next event lies beyond the horizon), exposed so execution
        backends can finish a windowed drain with the same clock semantics.
        """
        if time < self._now:
            raise NetworkError(
                f"cannot advance the clock to {time} before now ({self._now})"
            )
        if self._queue and self._queue[0][0] < time:
            raise NetworkError(
                f"cannot advance the clock to {time} past the pending event "
                f"at {self._queue[0][0]}"
            )
        self._now = time

    def reset(self) -> None:
        """Drop every pending event and rewind the clock to zero."""
        self._queue.clear()
        self._now = 0.0
        self._processed = 0
