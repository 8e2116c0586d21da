"""Delta-chain compaction: fold full→delta→…→delta into a fresh full.

The acceptance bar: compaction never changes what a checkpoint restores to —
the compacted document is byte-identical to the resolved chain payload — and
it frees the chain's earlier links for deletion/GC.
"""

from __future__ import annotations

import pytest

from repro.core.session import SystemBuilder
from repro.store import (
    CHECKPOINT_KIND,
    InMemoryBackend,
    JsonDirectoryBackend,
    SqliteBackend,
    checkpoint_base_chain,
    compact_checkpoint,
    compact_checkpoints,
)
from repro.store.checkpoint import resolve_checkpoint_payload
from repro.workloads.registry import default_registry


@pytest.fixture(params=["memory", "json", "sqlite"])
def backend(request, tmp_path):
    if request.param == "memory":
        yield InMemoryBackend()
    elif request.param == "json":
        yield JsonDirectoryBackend(tmp_path / "store")
    else:
        store = SqliteBackend(tmp_path / "store.sqlite")
        yield store
        store.close()


def _chained_session(backend, links=3):
    """A session checkpointed as full → delta → … → delta while simulating."""
    scenario = default_registry().scenario(
        "smoke", duration_seconds=float(links + 1) * 600.0
    )
    session = scenario.apply_dynamics(scenario.builder()).build()
    session.checkpoint(backend, name="link0")
    for link in range(1, links + 1):
        session.run_until(link * 600.0)
        session.checkpoint(backend, name=f"link{link}", base=f"link{link - 1}")
    return session


class TestCompactCheckpoint:
    def test_compacting_a_full_checkpoint_is_a_noop(self, backend):
        scenario = default_registry().scenario("smoke")
        session = scenario.apply_dynamics(scenario.builder()).build()
        session.checkpoint(backend, name="full")
        before = backend.get(CHECKPOINT_KIND, "full")
        assert compact_checkpoint(backend, "full") is False
        assert backend.get(CHECKPOINT_KIND, "full") == before

    def test_compacted_document_equals_resolved_chain(self, backend):
        _chained_session(backend, links=3)
        resolved = resolve_checkpoint_payload(backend, "link3")
        assert compact_checkpoint(backend, "link3") is True
        stored = backend.get(CHECKPOINT_KIND, "link3")
        assert "base" not in stored
        assert stored == resolved
        assert checkpoint_base_chain(backend, "link3") == ["link3"]

    def test_restore_unchanged_and_chain_links_freed(self, backend):
        session = _chained_session(backend, links=3)
        reference = SystemBuilder.from_checkpoint(backend, name="link3")
        compact_checkpoint(backend, "link3")
        # The earlier links are no longer needed to restore the tip.
        for link in ("link0", "link1", "link2"):
            backend.delete(CHECKPOINT_KIND, link)
        restored = SystemBuilder.from_checkpoint(backend, name="link3")
        assert restored.now == session.now == reference.now
        a = restored.query(required_results=2)
        b = reference.query(required_results=2)
        assert a.routing == b.routing
        assert a.staleness == b.staleness

    def test_compact_all_folds_every_delta(self, backend):
        _chained_session(backend, links=2)
        compacted = compact_checkpoints(backend)
        assert sorted(compacted) == ["link1", "link2"]
        for name in ("link0", "link1", "link2"):
            assert "base" not in backend.get(CHECKPOINT_KIND, name)
        # Everything is already full: a second pass is a no-op.
        assert compact_checkpoints(backend) == []
