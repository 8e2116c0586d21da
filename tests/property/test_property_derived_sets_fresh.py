"""Property: derived routing sets kept across queries never go stale.

``SummaryManagementSystem`` keeps each domain's ``partners ∩ described`` and
``partners ∩ online`` — and the router each peer's online neighbours — until a
stamp moves (``Overlay.version``, the cooperation list's membership version,
the identity of the described set).  The oracle is a session that has never
derived anything: after every simulation slice the live session is
checkpointed into memory and restored, and both answer the same requests —
every routing policy, so the ``P_fresh`` / ``P_old`` routing sets are covered.
Wire-encoded answers and message counters must be equal throughout.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import ProtocolConfig
from repro.core.routing import RoutingPolicy
from repro.core.session import SystemBuilder
from repro.fuzzy.vocabularies import medical_background_knowledge
from repro.network.faults import FaultPlan, PartitionEvent
from repro.network.overlay import Overlay
from repro.network.topology import TopologyConfig
from repro.serve.wire import encode_answer
from repro.store.backend import InMemoryBackend
from repro.store.checkpoint import restore_session
from repro.workloads.patients import MedicalWorkload, build_peer_databases
from repro.workloads.queries import QueryWorkload

HORIZON = 2 * 3600.0
BACKGROUND = medical_background_knowledge()

seeds = st.integers(min_value=0, max_value=2**16)
slices = st.lists(
    st.floats(min_value=5.0, max_value=1500.0, allow_nan=False),
    min_size=2,
    max_size=6,
)  # an explicit @example may be longer
#: Without churn ``Overlay.version`` never moves, so the other stamps are the
#: only thing standing between a kept set and a stale one; a high α lets a
#: joiner sit undescribed in its domain until later pushes reconcile it.
churn = st.booleans()
alphas = st.sampled_from([0.1, 0.3, 0.6])


def _planned_builder(seed, with_churn, alpha):
    builder = (
        SystemBuilder()
        .topology(peer_count=64, average_degree=4)
        .protocol(freshness_threshold=alpha)
        .planned_content(hit_rate=0.2)
        .modifications(HORIZON, 1.0 / 900.0)
        .seed(seed)
    )
    return builder.churn(duration_seconds=HORIZON) if with_churn else builder


def assert_answers_like_a_fresh_restore(session, requests, background=None):
    backend = InMemoryBackend()
    session.checkpoint(backend, name="instant")
    fresh = restore_session(backend, name="instant", background=background)
    for request in requests:
        live = encode_answer(session.query(**request))
        assert live == encode_answer(fresh.query(**request)), request
        assert (
            session.system.counter.state_payload()
            == fresh.system.counter.state_payload()
        ), request


def planned_requests(session, step):
    online = session.overlay.online_ids
    originators = [p for p in session.partner_ids() if p in online]
    return [
        {
            "originator": originators[(step + offset) % len(originators)],
            "policy": policy,
            "required_results": required,
        }
        for offset, policy in enumerate(RoutingPolicy)
        for required in (None, 40)
    ]


def advance_and_check(session, lengths, between=None):
    # Warm the live session's derived sets before the first event runs.
    session.query_batch(count=2, required_results=40)
    for step, length in enumerate(lengths):
        session.run_until(min(session.now + length, HORIZON))
        if between is not None:
            between(session, step)
        assert_answers_like_a_fresh_restore(session, planned_requests(session, step))
    for domain in session.domains.values():
        domain.validate()


@given(seeds, churn, alphas, slices)
@settings(max_examples=20, deadline=None)
def test_planned_session_under_churn_and_modifications(seed, with_churn, alpha, lengths):
    advance_and_check(_planned_builder(seed, with_churn, alpha).build(), lengths)


@given(seeds, churn, alphas, st.sampled_from([0.15, 0.5]), slices)
# A reconciliation re-describes a healed domain between two checks with no
# other stamp moving: fails when the described set's identity is ignored.
@example(13667, False, 0.1, 0.15, [5.0, 120.0, 5.0, 120.0])
@settings(max_examples=20, deadline=None)
def test_planned_session_through_a_partition(seed, with_churn, alpha, fraction, lengths):
    # Split half-way through the first slice, heal half-way through a middle
    # one: reconciliations behind the split orphan the partners they cannot
    # reach, and the heal re-joins them without any status change.
    healing = max(1, len(lengths) // 2)
    split = PartitionEvent(
        at=lengths[0] / 2,
        fraction=fraction,
        heal_at=sum(lengths[:healing]) + lengths[healing] / 2,
    )
    plan = FaultPlan(seed=seed, partitions=[split])
    session = _planned_builder(seed, with_churn, alpha).faults(plan).build()
    advance_and_check(session, lengths)


@given(seeds, churn, alphas, slices)
@settings(max_examples=10, deadline=None)
def test_planned_session_with_cold_started_domains(seed, with_churn, alpha, lengths):
    session = _planned_builder(seed, with_churn, alpha).build()
    session.attach_store(InMemoryBackend())

    def cold_start_one(session, step):
        summary_peers = sorted(session.domains)
        session.cold_start_domain(summary_peers[step % len(summary_peers)])

    advance_and_check(session, lengths, between=cold_start_one)


@given(seeds, slices)
# A partner leaves gracefully and a PRECISION query follows before its domain
# reconciles: fails when ``Overlay.version`` is ignored (the planned model's
# own departed set hides that case).
@example(3, [120.0] * 8)
@settings(max_examples=8, deadline=None)
def test_real_content_session_under_churn_and_modifications(seed, lengths):
    overlay = Overlay.generate(TopologyConfig(peer_count=16, seed=seed))
    databases = build_peer_databases(
        overlay.peer_ids,
        MedicalWorkload(records_per_peer=6, matching_fraction=0.25, seed=seed),
    )
    session = (
        SystemBuilder()
        .topology(overlay)
        .background(BACKGROUND)
        .protocol(ProtocolConfig(superpeer_fraction=1 / 8, construction_ttl=3))
        .real_content(databases)
        .churn(duration_seconds=HORIZON)
        .modifications(HORIZON, 1.0 / 300.0)
        .seed(seed)
        .build()
    )
    queries = QueryWorkload(query_count=3, seed=seed, background=BACKGROUND).generate()
    originator = session.default_originator()
    # Routing only: the approximate answer reads no derived set, and a restored
    # hierarchy's float masses can differ from the live one's in the last digit
    # (merge order, ROADMAP item 3(a)).
    requests = [
        {
            "originator": originator,
            "query": query,
            "policy": policy,
            "include_answer": False,
        }
        for query in queries
        for policy in RoutingPolicy
    ]
    session.query(originator, query=queries[0])
    for length in lengths:
        session.run_until(min(session.now + length, HORIZON))
        assert_answers_like_a_fresh_restore(session, requests, background=BACKGROUND)


def test_each_stamp_alone_refreshes_the_kept_sets():
    """In the simulated flows above a membership change never comes alone
    (joining peers re-announce their status), so each stamp is moved by hand
    here: the kept sets must equal a fresh derivation after every one."""
    session = _planned_builder(3, with_churn=False, alpha=0.3).build()
    system, overlay = session.system, session.overlay
    sp_id, domain = max(
        session.domains.items(), key=lambda item: len(item[1].cooperation)
    )

    def kept():
        sets = system._domain_sets(domain)  # noqa: SLF001
        return sets.scope, sets.online_partners

    def derived():
        partners = set(domain.partner_ids)
        described = system._described[sp_id]  # noqa: SLF001
        return partners & described, partners & overlay.online_ids

    assert kept() == derived()
    newcomer = next(p for p in session.partner_ids() if p not in domain.cooperation)
    domain.add_partner(newcomer, distance=1.0)  # the membership version alone
    assert kept() == derived()
    assert newcomer in kept()[1] and newcomer not in kept()[0]
    overlay.set_online(newcomer, False)  # Overlay.version alone
    assert kept() == derived()
    assert newcomer not in kept()[1]
    system._described[sp_id] = set(domain.partner_ids)  # noqa: SLF001 - a new described set alone
    assert kept() == derived()
    assert newcomer in kept()[0]
