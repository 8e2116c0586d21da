"""A mutable restore decodes only the summaries its session touches.

``restore_session`` fetches every referenced snapshot's text and binds each
domain and summary service its own loader over that text; a hierarchy is
decoded on first touch, into a fresh object per consumer.  These tests hold
that on every backend: what is pending when, that nothing is shared, that
the backend may be closed before the first touch, where a missing or
corrupt snapshot fails, and that a checkpoint of untouched summaries files
their stored text without decoding it.
"""

import pytest

import repro.store.snapshots as snapshots_module
from repro.core.config import ProtocolConfig
from repro.core.session import SystemBuilder
from repro.exceptions import StoreError
from repro.fuzzy.vocabularies import medical_background_knowledge
from repro.network.overlay import Overlay
from repro.network.topology import TopologyConfig
from repro.serve.cache import checkpoint_digest
from repro.store import (
    CHECKPOINT_KIND,
    SNAPSHOT_KIND,
    InMemoryBackend,
    SnapshotStore,
    open_readonly_session,
    restore_session,
)
from repro.store.checkpoint import resolve_checkpoint_payload
from repro.workloads.patients import MedicalWorkload, build_peer_databases
from repro.workloads.queries import paper_example_query

BACKGROUND = medical_background_knowledge()


def _real_session():
    overlay = Overlay.generate(TopologyConfig(peer_count=24, seed=3))
    workload = MedicalWorkload(records_per_peer=6, matching_fraction=0.25, seed=3)
    return (
        SystemBuilder()
        .topology(overlay)
        .background(BACKGROUND)
        .protocol(ProtocolConfig(superpeer_fraction=1 / 6, construction_ttl=3))
        .real_content(build_peer_databases(overlay.peer_ids, workload))
        .seed(3)
        .build()
    )


@pytest.fixture
def checkpointed(backend):
    """A real-content session checkpointed as ``"live"`` into ``backend``."""
    live = _real_session()
    live.checkpoint(backend, name="live")
    return live


@pytest.fixture
def decodes(monkeypatch):
    """Digests decoded so far: every decode of stored text goes through here."""
    decoded = []
    hierarchy_from_dict = snapshots_module.hierarchy_from_dict

    def counting(payload, background):
        hierarchy = hierarchy_from_dict(payload, background)
        decoded.append(hierarchy.owner)
        return hierarchy

    monkeypatch.setattr(snapshots_module, "hierarchy_from_dict", counting)
    return decoded


def _summaries(session):
    """Every summary owner of a session: its domains, then its services."""
    return list(session.domains.values()) + list(session.system.services.values())


def _references(payload):
    """The snapshot digests a checkpoint payload references, in order."""
    return [domain["global_summary"] for domain in payload["domains"]] + [
        state["summary"] for _peer_id, state in payload["services"]
    ]


def _touch(owner):
    return owner.summary if hasattr(owner, "summary") else owner.global_summary


def test_restore_leaves_every_summary_pending(backend, checkpointed, decodes):
    restored = restore_session(backend, "live", background=BACKGROUND)
    owners = _summaries(restored)
    assert len(owners) == len(restored.domains) + 24
    assert all(owner.summary_pending for owner in owners)
    assert decodes == []


def test_queries_materialize_only_the_domains_they_visit(
    backend, checkpointed, decodes
):
    restored = restore_session(backend, "live", background=BACKGROUND)
    requests = [{"query": paper_example_query(), "required_results": 1}] * 4
    answers = [restored.query(**request) for request in requests]
    assert answers == [checkpointed.query(**request) for request in requests]

    visited = {o.domain_id for a in answers for o in a.routing.domain_outcomes}
    materialized = {
        sp_id for sp_id, domain in restored.domains.items() if not domain.summary_pending
    }
    # A query reads the global summaries of the domains it visits, and no
    # local summary; here it visits some domains but not all of them.
    assert materialized == visited
    assert 0 < len(visited) < len(restored.domains)
    assert all(s.summary_pending for s in restored.system.services.values())
    assert sorted(decodes) == sorted(visited)


def test_a_shared_digest_restores_to_distinct_objects(backend, checkpointed):
    # A summary's owner is part of its encoding, so two peers' local summaries
    # never hash alike on their own: point both services at one snapshot, as
    # content addressing would for any two byte-identical summaries.
    payload = resolve_checkpoint_payload(backend, "live")
    (first, shared), (second, state) = payload["services"][:2]
    state["summary"] = shared["summary"]
    backend.put(CHECKPOINT_KIND, "shared", payload)

    restored = restore_session(backend, "shared", background=BACKGROUND)
    services = restored.system.services
    one, two = services[first].summary, services[second].summary
    assert one is not two
    digest = shared["summary"]
    assert one.content_address() == two.content_address() == digest

    database = restored.system.databases[first]
    record = next(iter(database.relation(database.relation_names[0]))).as_dict()
    services[first].add_record(record)
    assert one.content_address() != digest
    assert two.content_address() == digest

    # The read-only open shares one object per digest: that, not laziness,
    # is what sets it apart.
    with open_readonly_session(backend, "shared", background=BACKGROUND) as readonly:
        shared_services = readonly.system.services
        assert shared_services[first].summary is shared_services[second].summary


def test_every_summary_materializes_after_the_backend_is_closed(backend, checkpointed):
    restored = restore_session(backend, "live", background=BACKGROUND)
    backend.close()
    for owner, original in zip(_summaries(restored), _summaries(checkpointed)):
        expected = _touch(original).content_address()
        assert _touch(owner).content_address() == expected
        assert not owner.summary_pending


def test_a_missing_snapshot_fails_the_restore(backend, checkpointed):
    payload = resolve_checkpoint_payload(backend, "live")
    digest = payload["services"][0][1]["summary"]
    SnapshotStore(backend).delete(digest)
    with pytest.raises(StoreError, match=f"no stored object snapshot/{digest}"):
        restore_session(backend, "live", background=BACKGROUND)


def test_corrupt_stored_text_fails_on_first_touch_naming_the_digest(
    backend, checkpointed
):
    payload = resolve_checkpoint_payload(backend, "live")
    peer_id, state = payload["services"][0]
    digest = state["summary"]
    backend.put_encoded(SNAPSHOT_KIND, digest, '{"version": 2, "root": ')

    restored = restore_session(backend, "live", background=BACKGROUND)
    service = restored.system.services[peer_id]
    assert service.summary_pending
    with pytest.raises(StoreError, match=f"corrupt stored object snapshot/{digest}"):
        service.summary


class TestCheckpointOfUntouchedSummaries:
    """A summary never touched is filed from its stored text, not re-encoded."""

    def test_into_the_same_store(self, backend, checkpointed, decodes, encodings):
        restored = restore_session(backend, "live", background=BACKGROUND)
        restored.checkpoint(backend, name="again")
        assert decodes == [] and encodings == []
        assert resolve_checkpoint_payload(backend, "again") == (
            resolve_checkpoint_payload(backend, "live")
        )

    def test_into_a_fresh_store(self, backend, checkpointed, decodes, encodings):
        restored = restore_session(backend, "live", background=BACKGROUND)
        fresh = InMemoryBackend()
        restored.checkpoint(fresh, name="live")
        assert decodes == [] and encodings == []
        assert checkpoint_digest(fresh, "live") == checkpoint_digest(backend, "live")
        stored, original = SnapshotStore(fresh), SnapshotStore(backend)
        assert stored.hashes() == original.hashes()
        for digest in stored.hashes():
            assert stored.get_encoded(digest) == original.get_encoded(digest)

    def test_touched_summaries_are_encoded_and_the_rest_are_not(
        self, backend, checkpointed, decodes, encodings
    ):
        restored = restore_session(backend, "live", background=BACKGROUND)
        restored.query(query=paper_example_query(), required_results=1)
        touched = sorted(decodes)
        fresh = InMemoryBackend()
        restored.checkpoint(fresh, name="live")
        assert sorted(decodes) == touched
        assert sorted(encodings) == touched
        # The query advanced counters and RNGs, and moved no summary.
        assert _references(resolve_checkpoint_payload(fresh, "live")) == _references(
            resolve_checkpoint_payload(backend, "live")
        )
