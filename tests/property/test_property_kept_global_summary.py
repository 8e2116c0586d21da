"""Property: a kept global summary is the one a from-empty merge would build.

A reconciliation skips ``merge_hierarchies`` when the installed summary was
merged from the very hierarchies it would merge now, unmutated and in the same
order (``Domain.merge_global_summary``).  The oracle is the merge it skipped:
after *every* reconciliation — the ones ``run_until`` fires included — the
installed summary's content hash equals that of ``merge_hierarchies`` over
``live_contributions`` from empty.  Between reconciliations the test moves
everything the record is keyed on: a partner's summary mutated or rebuilt,
the partner list reordered, the installed summary mutated in place, the whole
session restored, partners unavailable.

After every drawn step each hierarchy's remembered content address
(``SummaryHierarchy.content_address``) is also held to a fresh encoding: the
same steps that must invalidate the merged-from record must invalidate it.

The second half counts: without churn — the ``medical-real-32`` workload at 16
peers — no local summary moves during the run, so the horizon merges nothing,
and every count and checkpoint byte equals a run that merges at every
reconciliation.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.saintetiq.merging as merging_module
from repro.core.config import ProtocolConfig
from repro.core.domain import Domain
from repro.core.session import SystemBuilder
from repro.database.generator import PatientGenerator
from repro.fuzzy.vocabularies import medical_background_knowledge
from repro.network.overlay import Overlay
from repro.network.topology import TopologyConfig
from repro.saintetiq.merging import merge_hierarchies
from repro.saintetiq.serialization import hierarchy_content_hash
from repro.store.backend import InMemoryBackend
from repro.store.checkpoint import capture_session, restore_session
from repro.workloads.patients import MedicalWorkload, build_peer_databases

HORIZON = 3600.0
BACKGROUND = medical_background_knowledge()

seeds = st.integers(min_value=0, max_value=2**16)
picks = st.integers(min_value=0, max_value=2**16)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("run"), st.floats(min_value=5.0, max_value=900.0)),
        st.tuples(st.just("add_record"), picks),
        st.tuples(st.just("rebuild"), picks),
        st.tuples(st.just("reorder"), picks),
        st.tuples(st.just("mutate_installed"), picks),
        st.tuples(st.just("reconcile"), picks),
        st.tuples(st.just("restore"), picks),
    ),
    min_size=2,
    max_size=10,
)


def _session(seed, churn):
    overlay = Overlay.generate(TopologyConfig(peer_count=16, seed=seed))
    databases = build_peer_databases(
        overlay.peer_ids,
        MedicalWorkload(records_per_peer=6, matching_fraction=0.25, seed=seed),
    )
    builder = (
        SystemBuilder()
        .topology(overlay)
        .background(BACKGROUND)
        .protocol(ProtocolConfig(superpeer_fraction=1 / 8, construction_ttl=3))
        .real_content(databases)
        .modifications(HORIZON, 1.0 / 300.0)
        .seed(seed)
    )
    if churn:
        builder = builder.churn(duration_seconds=HORIZON)
    return builder.build()


def hold_to_the_merge_from_empty(session):
    """Check every reconciliation of ``session`` against the merge it may skip."""
    engine = session.system.maintenance
    reconcile = engine.reconcile

    def checking(domain, local_summaries=None, available_partners=None, now=0.0):
        record = reconcile(
            domain,
            local_summaries=local_summaries,
            available_partners=available_partners,
            now=now,
        )
        contributions = domain.live_contributions(local_summaries, record.participants)
        if contributions:
            fresh = merge_hierarchies(
                [hierarchy for _peer, hierarchy in contributions],
                owner=domain.summary_peer_id,
            )
            assert hierarchy_content_hash(domain.global_summary) == (
                hierarchy_content_hash(fresh)
            ), (domain.summary_peer_id, now)
        else:
            assert domain.global_summary is None
        return record

    engine.reconcile = checking


def hold_addresses_to_the_encoding(session):
    """A remembered content address is the one a fresh encoding hashes to.

    Asking also warms the memo, so the next drawn step is checked against a
    hierarchy that *has* an address to go stale.
    """
    system = session.system
    hierarchies = [service.summary for service in system.services.values()]
    hierarchies += [
        domain.global_summary
        for domain in system.domains.values()
        if domain.global_summary is not None
    ]
    for hierarchy in hierarchies:
        assert hierarchy.content_address() == hierarchy_content_hash(hierarchy)


def _advance(session, kind, arg):
    """The two steps that move the whole session; returns the one to go on with."""
    if kind == "run":
        session.run_until(min(session.now + arg, HORIZON))
        return session
    backend = InMemoryBackend()
    session.checkpoint(backend, name="tip")
    restored = restore_session(backend, name="tip", background=BACKGROUND)
    hold_to_the_merge_from_empty(restored)
    return restored


def _touch(session, kind, pick, records):
    """Move one thing the record is keyed on, in the domain ``pick`` selects."""
    system = session.system
    summary_peers = sorted(system.domains)
    if not summary_peers:
        return
    domain = system.domains[summary_peers[pick % len(summary_peers)]]
    partners = domain.partner_ids
    partner = partners[(pick // 7) % len(partners)] if partners else None
    if kind == "reconcile":
        # Every third explicit reconciliation leaves one partner unavailable.
        available = set(partners)
        if pick % 3 == 0:
            available.discard(partner)
        system.maintenance.reconcile(
            domain,
            local_summaries=system.local_summaries(),
            available_partners=available,
            now=session.now,
        )
    elif partner is None:
        return
    elif kind == "mutate_installed":
        if domain.global_summary is not None:
            cells = list(system.services[partner].summary.iter_leaf_cells())
            domain.global_summary.incorporate_cells(cells[:1])
    elif kind == "add_record":
        system.services[partner].add_record(next(records))
    elif kind == "rebuild":
        # One categorical value flipped first: the rebuilt summary is a new
        # object with the old one's mutation count and other content.
        database = system.databases[partner]
        relation = database.relation(database.relation_names[0])
        first = relation.records[0]
        flipped = {"sex": "F" if first["sex"] == "M" else "M"}
        relation.update(lambda record: record is first, flipped)
        system.services[partner].rebuild_from_database()
    elif kind == "reorder":
        distance = domain.distance_to(partner)
        domain.remove_partner(partner)
        domain.add_partner(partner, distance=distance)


@given(seeds, st.booleans(), steps)
# A partner's summary is mutated in place, then its domain reconciles: fails
# when ``mutation_count`` is left out of the record.
@example(3, False, [("add_record", 0), ("reconcile", 2)])
# ... and when the installed summary's own count is.
@example(3, False, [("mutate_installed", 0), ("reconcile", 2)])
# A summary rebuilt to the same count: fails when objects are not compared.
@example(3, False, [("rebuild", 0), ("reconcile", 2)])
# Same partners, another order: fails when the record forgets the order.
@example(3, False, [("reorder", 0), ("reconcile", 2)])
@example(5, True, [("run", 900.0), ("restore", 0), ("run", 900.0), ("reconcile", 0)])
@settings(max_examples=25, deadline=None)
def test_every_reconciliation_installs_the_merge_from_empty(seed, churn, sequence):
    session = _session(seed, churn)
    hold_to_the_merge_from_empty(session)
    records = iter(PatientGenerator(seed=seed, background=BACKGROUND).records(20))
    for kind, arg in sequence:
        if kind in ("run", "restore"):
            session = _advance(session, kind, arg)
        else:
            _touch(session, kind, arg, records)
        hold_addresses_to_the_encoding(session)
    # Whatever is still pending, one more round over every domain settles it.
    for index in range(len(session.domains)):
        _touch(session, "reconcile", index + 1, records)
    session.run_until(HORIZON)
    hold_addresses_to_the_encoding(session)


def _run_counting_merges(monkeypatch):
    merged = []

    def counting(hierarchies, owner=None):
        merged.append(owner)
        return merge_hierarchies(hierarchies, owner=owner)

    monkeypatch.setattr(merging_module, "merge_hierarchies", counting)
    session = _session(1, churn=False)
    at_build = len(merged)
    session.run_until(HORIZON)
    payload, snapshots = capture_session(session)
    return {
        "at_build": at_build,
        "over_horizon": len(merged) - at_build,
        "domains": len(session.domains),
        "report": session.maintenance_report(),
        "counter": session.system.counter.state_payload(),
        "checkpoint": json.dumps(payload, sort_keys=True),
        "snapshots": snapshots,
    }


def test_a_run_where_nothing_moves_merges_only_at_build(monkeypatch):
    kept = _run_counting_merges(monkeypatch)

    merge_global_summary = Domain.merge_global_summary

    def forgetful(domain, contributions):
        domain._merged_from = None  # noqa: SLF001 - the record, disabled
        merge_global_summary(domain, contributions)

    monkeypatch.setattr(Domain, "merge_global_summary", forgetful)
    always = _run_counting_merges(monkeypatch)

    reconciliations = kept["report"].reconciliations
    assert reconciliations >= 4  # or the zero below proves nothing
    assert kept["at_build"] == always["at_build"] == kept["domains"] == 2
    assert kept["over_horizon"] == 0
    assert always["over_horizon"] == reconciliations  # the parent's behaviour
    for same in ("report", "counter", "checkpoint", "snapshots"):
        assert kept[same] == always[same], same
