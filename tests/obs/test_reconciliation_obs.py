"""What a maintenance round cost per domain, read from the metrics and the trace.

Every reconciliation is a ``reconciliation`` span and one tick of
``repro_reconciliations_total``; the span's ``merged`` attr and
``repro_reconciliation_merges_total`` say whether it also paid the local merge
(the paper's cost, the ring's messages, is paid either way).  On a real-content
run where no local summary moves, none does; after one partner's ``add_record``
exactly one does — the next reconciliation of that partner's domain.
"""

from repro.core.session import SystemBuilder
from repro.fuzzy.vocabularies import medical_background_knowledge
from repro.network.overlay import Overlay
from repro.network.topology import TopologyConfig
from repro.obs import Observability
from repro.workloads.patients import MedicalWorkload, build_peer_databases

HORIZON = 3600.0
RECORD = {"id": "t-99000", "age": 64, "bmi": 33.5, "sex": "M", "disease": "diabetes"}


def _observed_session(seed=1):
    background = medical_background_knowledge()
    overlay = Overlay.generate(TopologyConfig(peer_count=16, seed=seed))
    databases = build_peer_databases(
        overlay.peer_ids, MedicalWorkload(records_per_peer=10, seed=seed)
    )
    obs = Observability.with_ring(capacity=10_000)
    session = (
        SystemBuilder()
        .topology(overlay)
        .background(background)
        .protocol(superpeer_fraction=1.0 / 8.0, construction_ttl=3)
        .real_content(databases)
        .modifications(HORIZON, 1.0 / 600.0)
        .observability(obs)
        .seed(seed)
        .build()
    )
    return session, obs


def _reconciliation_spans(obs):
    return [span for span in obs.ring.spans() if span.name == "reconciliation"]


def test_reconciliations_and_merges_are_counted_and_traced():
    session, obs = _observed_session()
    value = obs.metrics.value

    session.run_until(HORIZON / 2)
    first_half = session.maintenance_report().reconciliations
    assert first_half >= 2
    assert value("repro_reconciliations_total") == first_half
    assert "repro_reconciliation_merges_total" in obs.metrics.series_names()
    assert value("repro_reconciliation_merges_total") == 0
    spans = _reconciliation_spans(obs)
    assert len(spans) == first_half
    assert [span.attrs["merged"] for span in spans] == [False] * first_half
    assert {span.attrs["summary_peer"] for span in spans} <= set(session.domains)

    # One partner's local summary moves: the next reconciliation of its domain
    # merges, every other one — that domain's later ones included — does not.
    sp_id, domain = max(
        session.domains.items(), key=lambda item: len(item[1].partner_ids)
    )
    assert session.system.services[domain.partner_ids[0]].add_record(RECORD)
    session.run_until(HORIZON)
    total = session.maintenance_report().reconciliations
    assert value("repro_reconciliations_total") == total
    assert value("repro_reconciliation_merges_total") == 1
    second_half = _reconciliation_spans(obs)[first_half:]
    assert len(second_half) == total - first_half
    of_the_domain = [s for s in second_half if s.attrs["summary_peer"] == sp_id]
    assert len(of_the_domain) >= 2
    assert [s.attrs["merged"] for s in of_the_domain] == [True] + [False] * (
        len(of_the_domain) - 1
    )
    assert not any(
        s.attrs["merged"] for s in second_half if s.attrs["summary_peer"] != sp_id
    )
