"""Filing a hierarchy costs an encoding only when it moved or the store lacks it.

``SummaryHierarchy.content_address`` is remembered against the mutation
counter, and both places that file hierarchies — checkpoint capture and
``SnapshotStore.put_hierarchy`` — ask the *destination* store whether it holds
that address before encoding anything.  The counts below are of
``hierarchy_text`` calls, the one way a hierarchy becomes text.
"""

import json

from golden_patches import medical_session
from repro.core.session import SystemBuilder
from repro.database.generator import PatientGenerator
from repro.fuzzy.vocabularies import medical_background_knowledge
from repro.saintetiq.serialization import hierarchy_content_hash, hierarchy_snapshot
from repro.store import InMemoryBackend, SnapshotStore
from repro.store.checkpoint import capture_session

BACKGROUND = medical_background_knowledge()


def _hierarchies(session):
    system = session.system
    return [service.summary for service in system.services.values()] + [
        domain.global_summary
        for domain in system.domains.values()
        if domain.global_summary is not None
    ]


def _stored_form(session):
    payload, snapshots = capture_session(session)
    return json.dumps(payload, sort_keys=True), snapshots


def test_a_checkpoint_encodes_what_moved_since_the_store_saw_it(backend, encodings):
    session = medical_session()
    hierarchies = _hierarchies(session)

    # Cold: every hierarchy once — the text that gave the address is the text
    # that gets filed, never a second encoding of it.
    session.checkpoint(backend, name="base")
    assert sorted(encodings) == sorted(h.owner for h in hierarchies)
    assert len(SnapshotStore(backend)) == len({hierarchy_content_hash(h) for h in hierarchies})

    encodings.clear()
    session.checkpoint(backend, name="unmoved", base="base")
    session.checkpoint(backend, name="unmoved-full")
    assert encodings == []

    # One partner's summary moves and its domain reconciles: that summary and
    # the re-merged global summary are new to the store, nothing else is.
    system = session.system
    domain = max(system.domains.values(), key=lambda d: len(d.partner_ids))
    partner = domain.partner_ids[0]
    record = next(iter(PatientGenerator(seed=7, background=BACKGROUND).records(1)))
    system.services[partner].add_record(record)
    system.maintenance.reconcile(
        domain, local_summaries=system.local_summaries(), now=session.now
    )
    encodings.clear()
    session.checkpoint(backend, name="tip", base="base")
    assert sorted(encodings) == sorted([partner, domain.summary_peer_id])

    encodings.clear()
    restored = SystemBuilder.from_checkpoint(backend, name="tip", background=BACKGROUND)
    assert _stored_form(restored) == _stored_form(session)


def test_a_remembered_address_is_not_a_stored_snapshot(backend, encodings):
    """The same unmoved session into a second, empty store files everything."""
    session = medical_session()
    first = InMemoryBackend()
    session.checkpoint(first, name="tip")
    filed = SnapshotStore(first).hashes()
    assert all(h.known_content_address is not None for h in _hierarchies(session))

    encodings.clear()
    session.checkpoint(backend, name="tip")
    assert len(encodings) == len(_hierarchies(session))
    assert SnapshotStore(backend).hashes() == filed
    for digest in filed:
        SnapshotStore(backend).verify(digest)
    restored = SystemBuilder.from_checkpoint(backend, name="tip", background=BACKGROUND)
    assert _stored_form(restored) == _stored_form(session)


def test_a_restore_does_not_vouch_for_its_hierarchies(backend):
    session = medical_session()
    session.checkpoint(backend, name="tip")
    restored = SystemBuilder.from_checkpoint(backend, name="tip", background=BACKGROUND)
    assert all(h.known_content_address is None for h in _hierarchies(restored))
    digest = hierarchy_content_hash(_hierarchies(session)[0])
    fetched = SnapshotStore(backend).get_hierarchy(digest, BACKGROUND)
    assert fetched.known_content_address is None
    assert fetched.content_address() == digest


def test_bare_capture_returns_every_text(encodings):
    """No destination to ask: ``capture_session(session)`` encodes them all."""
    session = medical_session()
    hierarchies = _hierarchies(session)
    for hierarchy in hierarchies:
        hierarchy.content_address()
    encodings.clear()
    _payload, snapshots = capture_session(session)
    assert len(encodings) == len(hierarchies)
    assert snapshots == dict(hierarchy_snapshot(h) for h in hierarchies)


def test_put_hierarchy_asks_the_store_it_files_into(backend, encodings):
    session = medical_session()
    summary = _hierarchies(session)[0]
    store, elsewhere = SnapshotStore(backend), SnapshotStore(InMemoryBackend())

    digest = store.put_hierarchy(summary)
    assert digest == hierarchy_content_hash(summary)
    encodings.clear()
    assert store.put_hierarchy(summary) == digest
    assert encodings == []  # unmoved and held: one ``contains``
    assert elsewhere.put_hierarchy(summary) == digest
    assert len(encodings) == 1 and elsewhere.contains(digest)

    record = next(iter(PatientGenerator(seed=7, background=BACKGROUND).records(1)))
    assert summary.add_record(record)
    encodings.clear()
    moved = store.put_hierarchy(summary)
    assert len(encodings) == 1
    assert moved == hierarchy_content_hash(summary) != digest
    assert store.contains(digest) and store.contains(moved)

    store.delete(moved)
    encodings.clear()
    assert store.put_hierarchy(summary) == moved  # remembered, but gone: re-filed
    assert len(encodings) == 1 and store.contains(moved)
    store.verify(moved)
