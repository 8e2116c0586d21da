"""A reconciliation keeps the installed global summary while nothing moved.

``Domain.merge_global_summary`` remembers what the installed summary was merged
from and skips the merge when a reconciliation would merge those very
hierarchies, unmutated, in the same order.  One test per way that record must
stop matching: each re-merges exactly the affected domain, exactly once, and
leaves the summary a from-empty merge would build.
"""

import pytest

import repro.core.domain as domain_module
from repro.core.config import ProtocolConfig
from repro.core.session import SystemBuilder
from repro.fuzzy.vocabularies import medical_background_knowledge
from repro.network.overlay import Overlay
from repro.network.topology import TopologyConfig
from repro.saintetiq.merging import merge_hierarchies
from repro.saintetiq.serialization import hierarchy_content_hash
from repro.store.backend import InMemoryBackend
from repro.store.checkpoint import restore_session
from repro.workloads.patients import MedicalWorkload, build_peer_databases

BACKGROUND = medical_background_knowledge()
RECORD = {"id": "t-99000", "age": 64, "bmi": 33.5, "sex": "M", "disease": "diabetes"}


@pytest.fixture
def merges(monkeypatch):
    """Owner of every global summary merged from empty, in call order."""
    owners = []

    def counting(hierarchies, owner=None):
        owners.append(owner)
        return merge_hierarchies(hierarchies, owner=owner)

    monkeypatch.setattr(domain_module, "merge_hierarchies", counting)
    return owners


@pytest.fixture
def session(merges):
    overlay = Overlay.generate(TopologyConfig(peer_count=16, seed=3))
    databases = build_peer_databases(
        overlay.peer_ids,
        MedicalWorkload(records_per_peer=6, matching_fraction=0.25, seed=3),
    )
    session = (
        SystemBuilder()
        .topology(overlay)
        .background(BACKGROUND)
        .protocol(ProtocolConfig(superpeer_fraction=1 / 8, construction_ttl=3))
        .real_content(databases)
        .seed(3)
        .build()
    )
    assert sorted(merges) == sorted(session.domains)  # one merge per domain at build
    del merges[:]
    return session


def reconcile_all(session, **kwargs):
    system = session.system
    local = system.local_summaries()
    for domain in system.domains.values():
        record = system.maintenance.reconcile(
            domain, local_summaries=local, now=session.now, **kwargs
        )
        fresh = merge_hierarchies(
            [h for _peer, h in domain.live_contributions(local, record.participants)],
            owner=domain.summary_peer_id,
        )
        assert hierarchy_content_hash(domain.global_summary) == (
            hierarchy_content_hash(fresh)
        )


def affected(session):
    """The largest domain and its first partner."""
    domain = max(session.domains.values(), key=lambda d: len(d.partner_ids))
    assert len(domain.partner_ids) >= 2
    return domain, domain.partner_ids[0]


def test_unchanged_contributions_keep_the_installed_summary(session, merges):
    installed = {sp: d.global_summary for sp, d in session.domains.items()}
    reconciliations = session.maintenance_report().reconciliations
    reconcile_all(session)
    reconcile_all(session)
    assert merges == []
    for sp_id, domain in session.domains.items():
        assert domain.global_summary is installed[sp_id]
    # Everything the paper counts still happened.
    assert session.maintenance_report().reconciliations == (
        reconciliations + 2 * len(session.domains)
    )


def test_add_record_on_a_partner_remerges_its_domain_once(session, merges):
    domain, partner = affected(session)
    before = hierarchy_content_hash(domain.global_summary)
    assert session.system.services[partner].add_record(RECORD)
    reconcile_all(session)
    assert merges == [domain.summary_peer_id]
    assert hierarchy_content_hash(domain.global_summary) != before
    reconcile_all(session)
    assert merges == [domain.summary_peer_id]


def test_rebuilt_local_summary_remerges_even_with_equal_content(session, merges):
    domain, partner = affected(session)
    service = session.system.services[partner]
    old, before = service.summary, hierarchy_content_hash(domain.global_summary)
    service.rebuild_from_database()
    assert service.summary is not old
    assert hierarchy_content_hash(service.summary) == hierarchy_content_hash(old)
    reconcile_all(session)
    assert merges == [domain.summary_peer_id]
    assert hierarchy_content_hash(domain.global_summary) == before
    reconcile_all(session)
    assert merges == [domain.summary_peer_id]


def test_removed_partner_remerges_its_domain_once(session, merges):
    domain, partner = affected(session)
    everyone_else = {
        p for d in session.domains.values() for p in d.partner_ids
    } - {partner}
    reconcile_all(session, available_partners=everyone_else)
    assert merges == [domain.summary_peer_id]
    assert partner not in domain.coverage()
    reconcile_all(session)
    assert merges == [domain.summary_peer_id]


def test_same_partners_in_another_order_remerge(session, merges):
    domain, partner = affected(session)
    before = hierarchy_content_hash(domain.global_summary)
    distance = domain.distance_to(partner)
    domain.remove_partner(partner)
    domain.add_partner(partner, distance=distance)
    assert domain.partner_ids[-1] == partner  # same set, now merged last
    reconcile_all(session)
    assert merges == [domain.summary_peer_id]
    # Clustering is order-dependent: same cells, another tree.
    assert hierarchy_content_hash(domain.global_summary) != before
    reconcile_all(session)
    assert merges == [domain.summary_peer_id]


def test_restored_session_merges_at_its_first_reconciliation(session, merges):
    backend = InMemoryBackend()
    session.checkpoint(backend, name="tip")
    restored = restore_session(backend, name="tip", background=BACKGROUND)
    reconcile_all(restored)
    assert sorted(merges) == sorted(restored.domains)
    reconcile_all(restored)
    assert len(merges) == len(restored.domains)
    reconcile_all(session)  # the live session was only read
    assert len(merges) == len(restored.domains)


def test_summary_installed_by_hand_is_not_trusted(session, merges):
    domain, _partner = affected(session)
    domain.install_global_summary(domain.global_summary)
    reconcile_all(session)
    assert merges == [domain.summary_peer_id]


def test_installed_summary_mutated_in_place_is_rebuilt(session, merges):
    domain, partner = affected(session)
    before = hierarchy_content_hash(domain.global_summary)
    local = session.system.services[partner].summary
    domain.global_summary.incorporate_cells(list(local.iter_leaf_cells()))
    assert hierarchy_content_hash(domain.global_summary) != before
    reconcile_all(session)
    assert merges == [domain.summary_peer_id]
    assert hierarchy_content_hash(domain.global_summary) == before
    reconcile_all(session)
    assert merges == [domain.summary_peer_id]
