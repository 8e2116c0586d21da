"""Unit surface of the runtime package: resolution, knobs, windows."""

import asyncio

import pytest

from repro.exceptions import ConfigurationError
from repro.runtime import (
    RUNTIME_ENV_VAR,
    ConcurrentBackend,
    ExecutionBackend,
    SimulatorBackend,
    create_backend,
)


class TestCreateBackend:
    def test_default_is_simulator(self, monkeypatch):
        monkeypatch.delenv(RUNTIME_ENV_VAR, raising=False)
        assert isinstance(create_backend(), SimulatorBackend)

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv(RUNTIME_ENV_VAR, "concurrent")
        assert isinstance(create_backend(), ConcurrentBackend)
        # An explicit spec always wins over the environment.
        assert isinstance(create_backend("simulator"), SimulatorBackend)

    @pytest.mark.parametrize(
        "name,cls",
        [
            ("simulator", SimulatorBackend),
            ("sim", SimulatorBackend),
            ("concurrent", ConcurrentBackend),
            ("async", ConcurrentBackend),
            ("ASYNCIO", ConcurrentBackend),
        ],
    )
    def test_names_resolve(self, name, cls):
        assert isinstance(create_backend(name), cls)

    def test_instance_passes_through(self):
        backend = ConcurrentBackend(max_concurrency=2)
        assert create_backend(backend) is backend

    def test_unknown_name_raises_typed_error(self):
        with pytest.raises(ConfigurationError, match="unknown runtime"):
            create_backend("threads")

    def test_bad_env_value_raises_typed_error(self, monkeypatch):
        monkeypatch.setenv(RUNTIME_ENV_VAR, "warp-drive")
        with pytest.raises(ConfigurationError, match="unknown runtime"):
            create_backend()


class TestKnobValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_concurrency": 0},
            {"mailbox_capacity": 0},
            {"quantum_seconds": 0.0},
            {"quantum_seconds": -5.0},
        ],
    )
    def test_bad_numeric_knobs(self, kwargs):
        with pytest.raises(ConfigurationError):
            ConcurrentBackend(**kwargs)

    def test_smallest_valid_knobs_accepted(self):
        backend = ConcurrentBackend(
            max_concurrency=1, mailbox_capacity=1, quantum_seconds=0.001
        )
        backend.schedule(1.0, lambda: None, actor="p0")
        assert backend.run(until=2.0) == 1

    @pytest.mark.parametrize(
        "cls,knob",
        [
            (ConcurrentBackend, "drain"),
            (ConcurrentBackend, "duplicate_ttl_seconds"),
            (SimulatorBackend, "duplicate_ttl_seconds"),
        ],
    )
    def test_removed_knobs_rejected(self, cls, knob):
        with pytest.raises(TypeError):
            cls(**{knob: "ordered" if knob == "drain" else 30.0})


class TestExecution:
    def test_simulator_io_model_preserves_virtual_clock(self):
        ticks = []
        backend = SimulatorBackend(io_model=lambda label: 0.0001)
        backend.schedule(1.0, lambda: ticks.append(backend.now), label="t")
        backend.schedule(2.0, lambda: ticks.append(backend.now), label="t")
        assert backend.run(until=10.0) == 2
        assert ticks == [1.0, 2.0]
        assert backend.now == 10.0

    def test_concurrent_ordered_drain_respects_sequence_order(self):
        backend = ConcurrentBackend(io_model=lambda label: 0.0001, quantum_seconds=5.0)
        order = []
        for index in range(6):
            backend.schedule(
                1.0, lambda i=index: order.append(i), label="m", actor=f"p{index % 2}"
            )
        backend.run(until=10.0)
        assert order == list(range(6))
        assert backend.overlapped_events == 6
        assert backend.fanout_rounds >= 1

    def test_concurrent_without_io_model_never_spins_a_loop(self):
        backend = ConcurrentBackend()
        backend.schedule(1.0, lambda: None)
        assert backend.run(until=2.0) == 1
        assert backend.fanout_rounds == 0

    def test_concurrent_max_events_budget_drains_serially(self):
        backend = ConcurrentBackend(io_model=lambda label: 0.5)
        for _ in range(3):
            backend.schedule(1.0, lambda: None)
        assert backend.run(max_events=2) == 2
        assert backend.pending_events == 1
        assert backend.fanout_rounds == 0  # the budgeted path skips fan-out

    def test_concurrent_inside_running_loop_falls_back_inline(self):
        backend = ConcurrentBackend(io_model=lambda label: 0.5)
        backend.schedule(1.0, lambda: None)

        async def drive():
            return backend.run(until=2.0)

        assert asyncio.run(drive()) == 1
        assert backend.fanout_rounds == 0

    def test_actor_tags_are_pruned_and_cleared(self):
        backend = ConcurrentBackend(io_model=lambda label: 0.0)
        for index in range(10):
            backend.schedule(1.0, lambda: None, actor=f"p{index}")
        assert len(backend._actors) == 10  # noqa: SLF001
        backend.reset()
        assert backend._actors == {}  # noqa: SLF001

    def test_load_state_clears_actor_tags(self):
        backend = ConcurrentBackend(io_model=lambda label: 0.0)
        backend.schedule(1.0, lambda: None, actor="p0")
        backend.load_state(5.0, 3, backend.next_sequence)
        assert backend._actors == {}  # noqa: SLF001
        assert backend.pending_events == 0

    @pytest.mark.parametrize(
        "make",
        [
            SimulatorBackend,
            lambda: ConcurrentBackend(io_model=lambda label: 0.0001),
        ],
        ids=["SimulatorBackend", "ConcurrentBackend"],
    )
    def test_schedule_at_with_actor_keeps_time_order(self, make):
        backend = make()
        order = []
        for time, index in ((3.0, 0), (1.0, 1), (2.0, 2), (1.0, 3)):
            backend.schedule_at(
                time, lambda i=index: order.append(i), label="m", actor=f"p{index}"
            )
        assert backend.run(until=10.0) == 4
        assert order == [1, 3, 2, 0]

    @pytest.mark.parametrize(
        "name", ["deliver", "dedup_key", "suppressed_deliveries"]
    )
    def test_no_delivery_surface(self, name):
        for backend in (SimulatorBackend(), ConcurrentBackend()):
            assert not hasattr(backend, name)

    def test_create_rng_streams_are_seed_equal_across_backends(self):
        sim = SimulatorBackend().create_rng(42)
        conc = ConcurrentBackend().create_rng(42)
        assert [sim.random() for _ in range(5)] == [conc.random() for _ in range(5)]

    def test_base_run_is_abstract(self):
        with pytest.raises(NotImplementedError):
            ExecutionBackend().run()
