"""The asyncio backend: overlap I/O-shaped waits, drain events in order.

:class:`ConcurrentBackend` executes the same virtual events as the simulator
— that is the point — but organises each drain **window** in two phases:

1. **Fan-out (wall clock).**  The window's due deliveries are grouped by
   receiving actor (peer or domain) into bounded asyncio mailboxes; one task
   per actor drains its mailbox, awaiting each delivery's modelled I/O cost
   under a shared semaphore that caps global fan-out (delta pushes,
   reconciliations and query probes all ride this).  Waits that the
   simulator backend would serve one ``time.sleep`` at a time overlap here.
2. **Ordered drain (virtual clock).**  The window's events then execute via
   the clock's own loop in strict ``(time, sequence)`` order — including any
   events the callbacks schedule *into* the window — so protocol state,
   counters and RNG draws advance exactly as on
   :class:`~repro.runtime.simulator.SimulatorBackend`.

The ordered drain is the only scheduling mode: it is what makes the
backend seed-deterministic and its answers equal to the simulator's on every
scenario (the ``tests/runtime`` equivalence suite pins the three named
ones).

Without an ``io_model`` there is nothing to overlap and the drain degenerates
to the simulator loop (no event loop is spun up); with one, the speedup on a
maintenance-heavy multi-domain workload is guarded by
``benchmarks/bench_runtime.py``.  :mod:`asyncio` is likewise imported only where
a loop is about to run: every process imports this module, few ever overlap a wait.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.exceptions import ConfigurationError
from repro.network.simulator import Event
from repro.obs.registry import DEFAULT_COUNT_BUCKETS
from repro.runtime.base import ExecutionBackend, IoModel

#: Mailbox tag for deliveries that carry no actor (system/maintenance events).
SHARED_ACTOR = "__shared__"


class ConcurrentBackend(ExecutionBackend):
    """One asyncio task per actor, semaphore-capped fan-out, ordered drain."""

    name = "concurrent"

    def __init__(
        self,
        io_model: Optional[IoModel] = None,
        max_concurrency: int = 8,
        mailbox_capacity: int = 256,
        quantum_seconds: float = 60.0,
    ) -> None:
        if max_concurrency < 1:
            raise ConfigurationError("max_concurrency must be at least 1")
        if mailbox_capacity < 1:
            raise ConfigurationError("mailbox_capacity must be at least 1")
        if quantum_seconds <= 0:
            raise ConfigurationError("quantum_seconds must be positive")
        super().__init__(io_model=io_model)
        self._max_concurrency = max_concurrency
        self._mailbox_capacity = mailbox_capacity
        self._quantum = float(quantum_seconds)
        #: event sequence -> actor tag, for grouping the fan-out phase.
        self._actors: Dict[int, str] = {}
        self._rounds = 0
        self._overlapped = 0

    # -- stats --------------------------------------------------------------------------

    @property
    def fanout_rounds(self) -> int:
        """Windows that actually overlapped at least one I/O wait."""
        return self._rounds

    @property
    def overlapped_events(self) -> int:
        """Deliveries whose I/O cost was paid concurrently."""
        return self._overlapped

    # -- actor bookkeeping --------------------------------------------------------------

    def _tag_actor(self, event: Event, actor: str) -> None:
        self._actors[event.sequence] = actor

    def _prune_actor_tags(self) -> None:
        # Tags of executed events are dead weight; sweep once the map is
        # clearly dominated by them (sweeping every window would be O(n^2)).
        if len(self._actors) <= 4096:
            return
        live = {event.sequence for event in self._clock.pending()}
        self._actors = {
            sequence: actor
            for sequence, actor in self._actors.items()
            if sequence in live
        }

    def reset(self) -> None:
        self._actors.clear()
        super().reset()

    def load_state(self, now: float, processed: int, next_sequence: int) -> None:
        self._actors.clear()
        super().load_state(now, processed, next_sequence)

    # -- execution ----------------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        if max_events is not None:
            # Budgeted stepping is a debugging surface: drain serially (and
            # skip the io model) so the budget maps 1:1 onto events.
            return self._clock.run(until=until, max_events=max_events)
        if self._io_model is None:
            # Nothing to overlap: the ordered drain degenerates to the
            # simulator loop, with no event loop spun up.
            return self._clock.run(until=until)
        import asyncio
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            return asyncio.run(self._run_windows(until))
        # Already inside an event loop (a caller's async context): blocking
        # on a nested loop would deadlock, so drain inline without overlap.
        return self._clock.run(until=until)

    async def _run_windows(self, until: Optional[float]) -> int:
        clock = self._clock
        processed = 0
        while True:
            head = clock.peek()
            if head is None:
                break
            if until is not None and head.time > until:
                break
            window_end = head.time + self._quantum
            if until is not None:
                window_end = min(window_end, until)
            events = clock.due(window_end)
            if until is None:
                # No horizon to park at: the window ends at its last event, so
                # the clock stops there, as the simulator's does.
                window_end = events[-1].time
            await self._overlap_window(events)
            processed += clock.run(until=window_end)
            self._prune_actor_tags()
        if until is not None and clock.now < until:
            clock.advance_to(until)
        return processed

    async def _overlap_window(self, events: List[Event]) -> None:
        """Phase 1: pay the window's I/O costs concurrently, per-actor."""
        io_model = self._io_model
        assert io_model is not None
        import asyncio
        waits: Dict[str, List[float]] = {}
        for event in events:
            cost = io_model(event.label)
            if not cost or cost <= 0.0:
                continue
            actor = self._actors.get(event.sequence, SHARED_ACTOR)
            waits.setdefault(actor, []).append(float(cost))
        if not waits:
            return

        self._rounds += 1
        total = sum(len(costs) for costs in waits.values())
        self._overlapped += total
        obs = self._obs
        if obs is not None:
            obs.inc("repro_runtime_rounds_total")
            obs.inc("repro_runtime_tasks_total", len(waits))
            obs.inc("repro_runtime_io_events_total", total)
            obs.set_gauge(
                "repro_runtime_mailbox_depth",
                max(len(costs) for costs in waits.values()),
            )
            obs.metrics.observe_many(
                "repro_runtime_actor_batch_events",
                [len(costs) for costs in waits.values()],
            )
            for costs in waits.values():
                obs.metrics.observe_many("repro_runtime_delivery_wait_seconds", costs)

        semaphore = asyncio.Semaphore(self._max_concurrency)

        async def drain_mailbox(mailbox: "asyncio.Queue[Optional[float]]") -> None:
            while True:
                cost = await mailbox.get()
                if cost is None:
                    return
                async with semaphore:
                    await asyncio.sleep(cost)

        mailboxes: Dict[str, "asyncio.Queue[Optional[float]]"] = {
            actor: asyncio.Queue(maxsize=self._mailbox_capacity) for actor in waits
        }
        tasks = [
            asyncio.create_task(drain_mailbox(mailbox))
            for mailbox in mailboxes.values()
        ]
        span = (
            obs.span(
                "runtime-fanout-round",
                {"actors": len(waits), "events": total},
            )
            if obs is not None and obs.detail
            else None
        )
        try:
            if span is not None:
                span.__enter__()
            # Feed the mailboxes; a full mailbox blocks the feeder until its
            # task catches up (backpressure instead of unbounded buffering).
            for actor, costs in waits.items():
                mailbox = mailboxes[actor]
                for cost in costs:
                    await mailbox.put(cost)
            for mailbox in mailboxes.values():
                await mailbox.put(None)
            await asyncio.gather(*tasks)
        finally:
            if span is not None:
                span.__exit__(None, None, None)

    # -- observability -------------------------------------------------------------------

    def install_observability(self, observability: Any) -> None:
        super().install_observability(observability)
        if observability is not None:
            observability.metrics.declare_histogram(
                "repro_runtime_actor_batch_events",
                DEFAULT_COUNT_BUCKETS,
                help="deliveries per actor mailbox in one fan-out round",
            )
