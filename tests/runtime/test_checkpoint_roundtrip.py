"""Checkpoints travel across runtimes: capture mid-run, resume on either.

A checkpoint records no backend.  It restores on the simulator unless the
caller passes another runtime, and continues byte-identically on either.
Checkpoints taken on the concurrent backend before the runtime stopped being
recorded carry ``"runtime": "concurrent"``; restore ignores that key.
"""

import pytest

from repro.core.session import SystemBuilder
from repro.runtime import ConcurrentBackend
from repro.store import CHECKPOINT_KIND, InMemoryBackend, open_store
from repro.store.backend import owns_backend
from repro.store.checkpoint import capture_session, restore_session
from repro.workloads.registry import default_registry

HORIZON = 1800.0
MIDPOINT = 900.0


def _build(runtime="simulator"):
    scenario = default_registry().scenario(
        "table3-default", peer_count=32, duration_seconds=HORIZON
    )
    builder = scenario.builder().runtime(runtime)
    return scenario.apply_dynamics(builder).build()


def _finish(session, queries=4):
    session.run_until(HORIZON)
    return {
        "answers": session.query_batch(count=queries, required_results=3),
        "counter": session.system.counter.state_payload(),
        "now": session.now,
        "pending": [
            (event.time, event.sequence, event.label)
            for event in session.simulator.pending()
        ],
    }


def _checkpoint_midrun(runtime="simulator", target=None):
    session = _build(runtime=runtime)
    session.run_until(MIDPOINT)
    backend = InMemoryBackend() if target is None else target
    session.checkpoint(backend, name="mid")
    return session, backend


def test_simulator_checkpoint_resumes_on_both_backends():
    live, backend = _checkpoint_midrun()
    reference = _finish(live)

    on_simulator = _finish(restore_session(backend, name="mid"))
    on_concurrent = _finish(
        restore_session(
            backend,
            name="mid",
            runtime=ConcurrentBackend(
                io_model=lambda label: 0.0001 if label == "modification" else 0.0
            ),
        )
    )
    assert on_simulator == reference
    assert on_concurrent == reference


@pytest.mark.parametrize("runtime", ["simulator", "concurrent"])
def test_payload_records_no_runtime(runtime):
    live, _backend = _checkpoint_midrun(runtime=runtime)
    assert live.runtime.name == runtime
    payload, _store = capture_session(live)
    assert "runtime" not in payload


def test_concurrent_checkpoint_resumes_on_the_simulator():
    live, backend = _checkpoint_midrun(runtime="concurrent")
    reference = _finish(live)

    resumed = SystemBuilder.from_checkpoint(backend, name="mid")
    assert resumed.runtime.name == "simulator"
    assert _finish(resumed) == reference


class TestPreChangeCheckpoint:
    """A payload carrying ``"runtime": "concurrent"``, on every store backend."""

    @pytest.fixture(params=["memory", "json", "sqlite"])
    def target(self, request, tmp_path):
        if request.param == "memory":
            backend = open_store(None)
            yield backend
            backend.close()
        elif request.param == "json":
            yield str(tmp_path / "ckpt")
        else:
            yield str(tmp_path / "ckpt.sqlite")

    @pytest.fixture
    def recorded(self, target):
        live, _ = _checkpoint_midrun(runtime="concurrent", target=target)
        backend = open_store(target)
        try:
            document = backend.get(CHECKPOINT_KIND, "mid")
            document["runtime"] = "concurrent"
            backend.put(CHECKPOINT_KIND, "older", document)
        finally:
            if owns_backend(target):
                backend.close()
        return live, target

    def test_restores_on_the_simulator_and_continues_identically(self, recorded):
        live, target = recorded
        restored = restore_session(target, name="older")
        assert restored.runtime.name == "simulator"
        assert _finish(restored) == _finish(live)

    def test_a_passed_runtime_still_applies(self, recorded):
        _live, target = recorded
        restored = restore_session(target, name="older", runtime="concurrent")
        assert isinstance(restored.runtime, ConcurrentBackend)
