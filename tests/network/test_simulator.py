"""Unit tests for the discrete-event simulator."""

import pytest

from repro.exceptions import NetworkError
from repro.network.simulator import Simulator
from repro.runtime.concurrent import ConcurrentBackend
from repro.runtime.simulator import SimulatorBackend


class TestScheduling:
    def test_events_run_in_time_order(self):
        simulator = Simulator()
        order = []
        simulator.schedule(5.0, lambda: order.append("late"))
        simulator.schedule(1.0, lambda: order.append("early"))
        simulator.run()
        assert order == ["early", "late"]

    def test_ties_break_by_insertion_order(self):
        simulator = Simulator()
        order = []
        simulator.schedule(1.0, lambda: order.append("first"))
        simulator.schedule(1.0, lambda: order.append("second"))
        simulator.run()
        assert order == ["first", "second"]

    def test_clock_advances_to_event_time(self):
        simulator = Simulator()
        simulator.schedule(3.5, lambda: None)
        simulator.run()
        assert simulator.now == pytest.approx(3.5)

    def test_negative_delay_raises(self):
        with pytest.raises(NetworkError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        simulator = Simulator()
        times = []
        simulator.schedule_at(2.0, lambda: times.append(simulator.now))
        simulator.run()
        assert times == [2.0]

    def test_schedule_at_fires_at_exactly_the_given_time(self):
        now, time = 691.3205405598512, 3359.0341193227237
        assert now + (time - now) != time  # the clock must not round-trip it
        simulator = Simulator()
        simulator.schedule(now, lambda: None)
        simulator.run()
        fired = []
        event = simulator.schedule_at(time, lambda: fired.append(simulator.now))
        assert event.time == time
        simulator.run()
        assert fired == [time]

    def test_schedule_at_in_the_past_raises(self):
        simulator = Simulator()
        simulator.schedule(1.0, lambda: None)
        simulator.run()
        with pytest.raises(NetworkError):
            simulator.schedule_at(0.5, lambda: None)

    def test_events_can_schedule_more_events(self):
        simulator = Simulator()
        seen = []

        def first():
            seen.append("first")
            simulator.schedule(1.0, lambda: seen.append("second"))

        simulator.schedule(1.0, first)
        simulator.run()
        assert seen == ["first", "second"]
        assert simulator.now == pytest.approx(2.0)


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        simulator = Simulator()
        seen = []
        simulator.schedule(1.0, lambda: seen.append(1))
        simulator.schedule(10.0, lambda: seen.append(2))
        simulator.run(until=5.0)
        assert seen == [1]
        assert simulator.now == pytest.approx(5.0)
        simulator.run()
        assert seen == [1, 2]

    def test_run_until_advances_clock_when_queue_empty(self):
        simulator = Simulator()
        simulator.run(until=42.0)
        assert simulator.now == pytest.approx(42.0)

    def test_max_events_budget(self):
        simulator = Simulator()
        seen = []
        for index in range(5):
            simulator.schedule(index + 1.0, lambda i=index: seen.append(i))
        processed = simulator.run(max_events=2)
        assert processed == 2
        assert seen == [0, 1]

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_processed_and_pending_counters(self):
        simulator = Simulator()
        simulator.schedule(1.0, lambda: None)
        simulator.schedule(2.0, lambda: None)
        assert simulator.pending_events == 2
        simulator.run()
        assert simulator.processed_events == 2
        assert simulator.pending_events == 0

    def test_reset(self):
        simulator = Simulator()
        simulator.schedule(1.0, lambda: None)
        simulator.run()
        simulator.reset()
        assert simulator.now == 0.0
        assert simulator.pending_events == 0
        assert simulator.processed_events == 0


class TestQueueContract:
    """What every consumer of the queue relies on: order, clock and windows."""

    def test_equal_time_ties_break_by_sequence_across_every_entry_point(self):
        simulator = Simulator()
        simulator.load_state(now=0.0, processed=0, next_sequence=10)
        order = []
        simulator.schedule(2.0, lambda: order.append("schedule-10"))
        simulator.restore_event(2.0, 3, lambda: order.append("restore-3"))
        simulator.schedule_at(2.0, lambda: order.append("schedule_at-11"))
        simulator.restore_event(2.0, 12, lambda: order.append("restore-12"))
        simulator.schedule(1.0, lambda: order.append("schedule-12-earlier"))
        simulator.restore_event(2.0, 0, lambda: order.append("restore-0"))
        simulator.run()
        assert order == [
            "schedule-12-earlier",
            "restore-0",
            "restore-3",
            "schedule-10",
            "schedule_at-11",
            "restore-12",
        ]

    def test_an_event_scheduled_now_from_a_callback_runs_in_the_same_run(self):
        simulator = Simulator()
        order = []

        def first():
            order.append("first")
            simulator.schedule(0.0, lambda: order.append("same-time"))
            simulator.schedule_at(simulator.now, lambda: order.append("same-time-at"))

        simulator.schedule(1.0, first)
        simulator.schedule(1.0, lambda: order.append("tied-before"))
        simulator.schedule(2.0, lambda: order.append("later"))
        assert simulator.run(until=1.0) == 4
        assert order == ["first", "tied-before", "same-time", "same-time-at"]
        assert simulator.now == 1.0
        assert simulator.pending_events == 1

    def test_run_until_runs_events_at_the_bound_and_parks_the_clock_there(self):
        simulator = Simulator()
        seen = []
        simulator.schedule(1.0, lambda: seen.append(1.0))
        simulator.schedule(5.0, lambda: seen.append(5.0))
        simulator.schedule(7.0, lambda: seen.append(7.0))
        assert simulator.run(until=5.0) == 2
        assert seen == [1.0, 5.0]
        assert simulator.now == 5.0
        assert simulator.run(until=6.0) == 0
        assert simulator.now == 6.0
        assert simulator.run(until=20.0) == 1
        assert seen == [1.0, 5.0, 7.0]
        assert simulator.now == 20.0

    @pytest.mark.parametrize(
        "make",
        [
            Simulator,
            lambda: SimulatorBackend(io_model=lambda label: 0.0),
            lambda: ConcurrentBackend(io_model=lambda label: 0.0),
        ],
        ids=["simulator", "simulator-backend-io", "concurrent-backend-io"],
    )
    def test_run_until_never_moves_the_clock_back(self, make):
        clock = make()
        clock.schedule(4.0, lambda: None)
        assert clock.run(until=4.0) == 1
        assert clock.run(until=1.0) == 0
        assert clock.now == 4.0
        clock.schedule(5.0, lambda: None)  # pending after ``until``
        assert clock.run(until=1.0) == 0
        assert clock.now == 4.0
        with pytest.raises(NetworkError):
            clock.schedule_at(2.0, lambda: None)
        assert clock.pending_events == 1

    @pytest.mark.parametrize(
        "make",
        [
            Simulator,
            lambda: SimulatorBackend(io_model=lambda label: 0.0),
            lambda: ConcurrentBackend(io_model=lambda label: 0.0),
        ],
        ids=["simulator", "simulator-backend-io", "concurrent-backend-io"],
    )
    def test_run_without_until_stops_the_clock_at_the_last_event(self, make):
        clock = make()
        seen = []
        clock.schedule(4.0, lambda: seen.append(clock.now))
        assert clock.run() == 1
        assert clock.now == 4.0
        # Events far apart, and one a callback schedules past the window.
        clock.schedule(10.0, lambda: clock.schedule(100.0, lambda: seen.append(clock.now)))
        clock.schedule(500.0, lambda: seen.append(clock.now))
        assert clock.run() == 3
        assert seen == [4.0, 114.0, 504.0]
        assert clock.now == 504.0

    def test_max_events_leaves_the_clock_at_the_last_event_run(self):
        simulator = Simulator()
        for delay in (1.0, 2.0, 3.0):
            simulator.schedule(delay, lambda: None)
        assert simulator.run(max_events=2) == 2
        assert simulator.now == 2.0
        assert simulator.processed_events == 2
        assert simulator.run(max_events=0) == 0
        assert simulator.now == 2.0
        assert simulator.pending_events == 1

    def test_max_events_with_until_stops_at_whichever_comes_first(self):
        simulator = Simulator()
        for delay in (1.0, 2.0, 3.0):
            simulator.schedule(delay, lambda: None)
        assert simulator.run(until=10.0, max_events=1) == 1
        assert simulator.now == 1.0
        assert simulator.run(until=2.5, max_events=5) == 1
        assert simulator.now == 2.5

    def test_pending_and_due_list_events_in_firing_order(self):
        simulator = Simulator()
        simulator.load_state(now=0.0, processed=0, next_sequence=5)
        fired = []

        def note(label):
            return lambda: fired.append(label)

        simulator.schedule(3.0, note("c"), label="c")
        simulator.schedule(1.0, note("a"), label="a")
        simulator.restore_event(3.0, 2, note("b"), label="b")
        simulator.schedule_at(2.0, note("x"), label="x")
        simulator.restore_event(9.0, 0, note("z"), label="z")
        pending = simulator.pending()
        assert [(e.time, e.sequence, e.label) for e in pending] == [
            (1.0, 6, "a"),
            (2.0, 7, "x"),
            (3.0, 2, "b"),
            (3.0, 5, "c"),
            (9.0, 0, "z"),
        ]
        assert [e.label for e in simulator.due(3.0)] == ["a", "x", "b", "c"]
        assert simulator.due(0.5) == []
        assert simulator.peek() is pending[0]
        simulator.run()
        assert fired == ["a", "x", "b", "c", "z"]

    def test_pending_and_due_do_not_consume_the_queue(self):
        simulator = Simulator()
        simulator.schedule(1.0, lambda: None)
        simulator.schedule(2.0, lambda: None)
        simulator.pending()
        simulator.due(5.0)
        simulator.peek()
        assert simulator.pending_events == 2
        assert simulator.run() == 2
