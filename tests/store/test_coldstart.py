"""Store-backed domain cold start.

A restarted summary peer installs its global summary from the archived head
(snapshot-hash lookup) and only pulls the partners that changed since —
instead of re-reconciling every partner from scratch.  The bar: the installed
global summary is byte-identical to what a full reconciliation would build,
at a fraction of the ring messages.
"""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.session import SystemBuilder
from repro.exceptions import ProtocolError, StoreError
from repro.fuzzy.vocabularies import medical_background_knowledge
from repro.network.messages import MessageType
from repro.network.overlay import Overlay
from repro.network.topology import TopologyConfig
from repro.saintetiq.serialization import hierarchy_content_hash
from repro.store import (
    DomainHeadArchive,
    SnapshotStore,
    SqliteBackend,
)
from repro.workloads.patients import MedicalWorkload, build_peer_databases


def _real_session(seed=3, peer_count=16):
    overlay = Overlay.generate(TopologyConfig(peer_count=peer_count, seed=seed))
    background = medical_background_knowledge()
    workload = MedicalWorkload(records_per_peer=6, matching_fraction=0.25, seed=seed)
    databases = build_peer_databases(overlay.peer_ids, workload)
    session = (
        SystemBuilder()
        .topology(overlay)
        .background(background)
        .protocol(ProtocolConfig(superpeer_fraction=1 / 8, construction_ttl=3))
        .real_content(databases)
        .seed(seed)
        .build()
    )
    return background, session


def _largest_domain(session):
    return max(session.domains.values(), key=lambda d: len(d.partner_ids))


def _reconcile_all(session):
    """Materialise every domain's global summary (records heads when attached)."""
    system = session.system
    for sp_id, domain in system.domains.items():
        system.maintenance.reconcile(
            domain, local_summaries=system.local_summaries(), now=system.simulator.now
        )


def _modify_partner(session, peer_id):
    """Change one partner's data, rebuild its local summary, push staleness."""
    system = session.system
    database = system.databases[peer_id]
    relation = database.relation(database.relation_names[0])
    relation.insert(
        {"id": "t-99000", "age": 64, "bmi": 33.5, "sex": "M", "disease": "diabetes"}
    )
    service = system.services[peer_id]
    service.rebuild_from_database()
    sp_id = system.assignment[peer_id]
    system.maintenance.push_stale(system.domains[sp_id], peer_id, now=system.simulator.now)
    return sp_id


class TestColdStart:
    def test_cold_start_matches_full_reconciliation(self, backend):
        """Same global summary as a full re-reconciliation, fewer messages."""
        # Two identical sessions: one cold-starts, the other fully reconciles.
        _bg, cold = _real_session()
        _bg, full = _real_session()
        cold.attach_store(backend)
        _reconcile_all(cold)
        _reconcile_all(full)

        domain_cold = _largest_domain(cold)
        sp_id = domain_cold.summary_peer_id
        changed = domain_cold.partner_ids[0]
        assert _modify_partner(cold, changed) == sp_id
        assert _modify_partner(full, changed) == sp_id

        messages_before = cold.system.counter.count(MessageType.RECONCILIATION)
        record = cold.cold_start_domain(sp_id)
        cold_messages = (
            cold.system.counter.count(MessageType.RECONCILIATION) - messages_before
        )

        domain_full = full.system.domains[sp_id]
        full_record = full.system.maintenance.reconcile(
            domain_full,
            local_summaries=full.system.local_summaries(),
            now=full.system.simulator.now,
        )

        assert hierarchy_content_hash(domain_cold.global_summary) == (
            hierarchy_content_hash(domain_full.global_summary)
        )
        assert record.changed_partners == [changed]
        assert not record.fallback
        assert record.messages == cold_messages == 2  # one changed partner + SP
        assert full_record.messages == record.full_messages
        assert record.messages < record.full_messages
        assert record.messages_saved == record.full_messages - record.messages
        assert cold.system.maintenance.stats.cold_starts == 1

    def test_unchanged_domain_fast_path_installs_head_by_hash(
        self, backend, monkeypatch
    ):
        _bg, session = _real_session()
        session.attach_store(backend)
        _reconcile_all(session)
        domain = _largest_domain(session)
        sp_id = domain.summary_peer_id
        head = DomainHeadArchive(backend).head(sp_id)
        before = hierarchy_content_hash(domain.global_summary)

        # The fast path must not merge anything — it is a pure hash lookup.
        import repro.saintetiq.merging as merging_module

        def no_merge(*_args, **_kwargs):
            pytest.fail("the unchanged-domain fast path must not merge")

        monkeypatch.setattr(merging_module, "merge_hierarchies", no_merge)
        messages_before = session.system.counter.count(MessageType.RECONCILIATION)
        record = session.cold_start_domain(sp_id)
        assert record.restored_snapshot == head["global_summary"]
        assert record.changed_partners == []
        assert record.messages == 0  # pure store lookup, no ring at all
        assert (
            session.system.counter.count(MessageType.RECONCILIATION) == messages_before
        )
        assert hierarchy_content_hash(domain.global_summary) == before

    def test_cold_start_after_restore_from_checkpoint(self, backend):
        """The restart story end-to-end: checkpoint, restore, re-attach, cold-start."""
        background, session = _real_session()
        session.attach_store(backend)
        _reconcile_all(session)
        domain = _largest_domain(session)
        sp_id = domain.summary_peer_id
        expected = hierarchy_content_hash(domain.global_summary)
        session.checkpoint(backend, name="restart")

        restored = SystemBuilder.from_checkpoint(
            backend, name="restart", background=background
        )
        restored.attach_store(backend)
        record = restored.cold_start_domain(sp_id)
        assert not record.fallback
        assert record.messages == 0
        assert hierarchy_content_hash(
            restored.system.domains[sp_id].global_summary
        ) == expected

    def test_head_recorded_per_reconciliation(self, backend):
        _bg, session = _real_session()
        session.attach_store(backend)
        _reconcile_all(session)
        archive = DomainHeadArchive(backend)
        assert sorted(session.domains) == archive.summary_peer_ids()
        snapshots = SnapshotStore(backend)
        for sp_id, domain in session.domains.items():
            head = archive.head(sp_id)
            assert head["global_summary"] == hierarchy_content_hash(
                domain.global_summary
            )
            for _peer_id, digest in head["partners"]:
                assert snapshots.contains(digest)

    def test_reconciling_an_unmoved_domain_again_encodes_nothing(self, backend, encodings):
        """``_record_head`` files by remembered address: held means no encoding."""
        _bg, session = _real_session()
        session.attach_store(backend)
        _reconcile_all(session)
        archive = DomainHeadArchive(backend)
        heads = {sp_id: archive.head(sp_id) for sp_id in session.domains}
        stored = SnapshotStore(backend).hashes()

        encodings.clear()
        _reconcile_all(session)
        assert encodings == []
        assert {sp_id: archive.head(sp_id) for sp_id in session.domains} == heads
        assert SnapshotStore(backend).hashes() == stored

        # The summary peer's own unmoved summary is recognised by the same
        # remembered address: the no-merge fast path, still no encoding.
        domain = _largest_domain(session)
        record = session.cold_start_domain(domain.summary_peer_id)
        assert encodings == []
        assert record.restored_snapshot == heads[domain.summary_peer_id]["global_summary"]
        assert record.messages == 0 and not record.fallback
        assert record.restored_snapshot == hierarchy_content_hash(domain.global_summary)

    def test_ring_hop_accounting_switch_is_honoured(self, backend):
        """count_reconciliation_ring_hops=False: one message, like reconcile()."""
        overlay = Overlay.generate(TopologyConfig(peer_count=16, seed=3))
        background = medical_background_knowledge()
        workload = MedicalWorkload(records_per_peer=6, matching_fraction=0.25, seed=3)
        databases = build_peer_databases(overlay.peer_ids, workload)
        session = (
            SystemBuilder()
            .topology(overlay)
            .background(background)
            .protocol(
                ProtocolConfig(
                    superpeer_fraction=1 / 8,
                    construction_ttl=3,
                    count_reconciliation_ring_hops=False,
                )
            )
            .real_content(databases)
            .seed(3)
            .build()
        )
        session.attach_store(backend)
        _reconcile_all(session)
        domain = _largest_domain(session)
        sp_id = domain.summary_peer_id
        _modify_partner(session, domain.partner_ids[0])

        record = session.cold_start_domain(sp_id)
        # A full reconciliation under this ablation charges exactly 1 message;
        # the cold start must never charge more than what it replaces.
        assert record.full_messages == 1
        assert record.messages == 1
        assert record.messages_saved == 0

    def test_cold_start_without_head_falls_back_to_full(self, backend):
        _bg, session = _real_session()
        _reconcile_all(session)  # store not yet attached: no heads recorded
        session.attach_store(backend)
        domain = _largest_domain(session)
        record = session.cold_start_domain(domain.summary_peer_id)
        assert record.fallback
        assert record.restored_snapshot is None
        assert record.messages == record.full_messages
        assert session.system.maintenance.stats.reconciliations >= 1

    def test_cold_start_without_store_raises(self):
        _bg, session = _real_session()
        _reconcile_all(session)
        domain = _largest_domain(session)
        with pytest.raises(StoreError, match="attach_store"):
            session.system.maintenance.cold_start(domain)

    def test_cold_start_of_unknown_domain_raises(self, backend):
        _bg, session = _real_session()
        session.attach_store(backend)
        with pytest.raises(ProtocolError, match="not a live summary peer"):
            session.cold_start_domain("p999")

    def test_detach_store_allows_closing_the_backend(self, tmp_path):
        store = SqliteBackend(tmp_path / "detach.sqlite")
        _bg, session = _real_session()
        session.attach_store(store)
        _reconcile_all(session)
        assert session.system.maintenance.store_attached
        session.detach_store()
        store.close()
        # Reconciliations keep working — they just stop archiving heads.
        assert not session.system.maintenance.store_attached
        _reconcile_all(session)

    def test_attach_store_never_perturbs_traffic_or_rng(self, backend):
        """Byte-identity guard: attaching a store must not change a run."""
        _bg, plain = _real_session()
        _bg, attached = _real_session()
        attached.attach_store(backend)
        _reconcile_all(plain)
        _reconcile_all(attached)
        from repro.workloads.queries import paper_example_query

        query = paper_example_query()
        plain_answers = [plain.query(query=query) for _ in range(3)]
        attached_answers = [attached.query(query=query) for _ in range(3)]
        assert [a.routing for a in attached_answers] == [
            a.routing for a in plain_answers
        ]
        assert attached.system.counter.by_type() == plain.system.counter.by_type()
