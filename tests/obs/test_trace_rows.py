"""Per-domain routing is recorded as rows on the ``query`` span: same tree, fixed cost.

The tree is the contract, the count is the budget.  What a reader of
``/trace``, a ring or a ``--trace-out`` artefact sees for a query — ``query``
→ ``route-domain`` → ``hierarchy-selection``, names, parents, attrs, simulator
times, finish order — is held to a tree recorded when every one of those was
a real span (``golden_trace_tree.py``); what recording it costs — span ids
minted, entries handed to the sink — no longer grows with the domains a query
visits.
"""

import json
import sys
import threading

import pytest

from golden_trace_tree import FIXTURE, save_fixture_store, served_query_tree, tree_of
from repro import cli
from repro.obs import JsonlSink, Observability, TraceSink, Tracer, connected_trace
from repro.store.checkpoint import open_readonly_session, save_session
from repro.workloads.registry import default_registry


def _planned_session(peers):
    scenario = default_registry().scenario(
        "table3-default", peer_count=peers, duration_seconds=300.0
    )
    return scenario.builder().build()


def test_served_query_renders_the_recorded_tree(tmp_path):
    store = save_fixture_store(str(tmp_path / "obs.sqlite"))
    assert served_query_tree(store) == json.loads(FIXTURE.read_text())


class _EntrySink(TraceSink):
    """Keeps what a sink is actually handed: one entry per ``emit`` call."""

    def __init__(self):
        self.entries = []

    def emit(self, span):
        self.entries.append(span)


@pytest.mark.parametrize("peers,domains", [(64, 4), (256, 16)])
def test_cost_of_tracing_a_query_is_independent_of_domains_visited(peers, domains):
    sink = _EntrySink()
    session = _planned_session(peers)
    session.install_observability(
        Observability(tracer=Tracer(sink=sink, origin="t"), detail=True)
    )
    for _query in range(2):
        answer = session.query(required_results=peers)
        assert answer.routing.domains_visited == domains
    # One entry and one minted id per query, however many domains it walked:
    # the second query's id is the tracer's second.
    assert [span.name for span in sink.entries] == ["query", "query"]
    assert [span.span_id for span in sink.entries] == ["t-s000001", "t-s000002"]
    assert [len(span.rows) for span in sink.entries] == [2 * domains] * 2


def test_ring_lists_every_domain_of_one_query_entry():
    session = _planned_session(256)
    obs = Observability.with_ring(detail=True)
    session.install_observability(obs)
    session.query(required_results=256)
    names = [span.name for span in obs.ring.spans()]
    assert names == ["hierarchy-selection", "route-domain"] * 16 + ["query"]
    assert obs.ring.emitted == len(names) == 33


def test_detail_off_records_no_rows():
    sink = _EntrySink()
    session = _planned_session(64)
    session.install_observability(Observability(tracer=Tracer(sink=sink)))
    session.query(required_results=64)
    assert [(span.name, span.rows) for span in sink.entries] == [("query", [])]


def _run_smoke(argv_tail, capsys):
    argv = ["run-scenario", "smoke", "--queries", "3", "--hours", "1", "--seed", "2"]
    assert cli.main(argv + argv_tail) == 0
    capsys.readouterr()


def test_trace_out_artefact_equals_a_ring_over_the_same_run(
    tmp_path, capsys, monkeypatch
):
    first, second = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    _run_smoke(["--trace-out", first], capsys)
    _run_smoke(["--trace-out", second], capsys)
    ring_obs = Observability.with_ring(capacity=1_000_000, detail=True)
    monkeypatch.setattr(cli, "_observability_from_args", lambda args: ring_obs)
    _run_smoke([], capsys)

    artefact = JsonlSink.read(first)
    assert {"query", "route-domain", "hierarchy-selection"} <= {
        span.name for span in artefact
    }
    # Same seed, same artefact — derived row ids included.
    assert [span.deterministic_payload() for span in artefact] == [
        span.deterministic_payload() for span in JsonlSink.read(second)
    ]
    # Written expanded, read back plain: the tree a ring lists for that run.
    assert tree_of(artefact) == tree_of(ring_obs.ring.spans())
    assert [span.span_id for span in artefact] == [
        span.span_id for span in ring_obs.ring.spans()
    ]


def test_rows_land_under_their_own_threads_query_span(tmp_path):
    """8 threads, one shared read-only session, detail on, 1 µs switch interval."""
    store = str(tmp_path / "shared.sqlite")
    save_session(_planned_session(256), store)
    session = open_readonly_session(store)
    obs = Observability.with_ring(capacity=1_000_000, detail=True)
    session.install_observability(obs)
    # One originator per thread, each in a different home domain, so every
    # thread's query walks the domains in an order of its own.
    originators = [sorted(domain.partner_ids)[0] for domain in session.domains.values()][:8]
    assert len(originators) == 8

    def subtrees():
        """Per query entry: (originator, its listed subtree without ids)."""
        spans = obs.ring.spans()
        found, start = [], 0
        for index, span in enumerate(spans):
            if span.name == "query":
                found.append((span.attrs["originator"], tree_of(spans[start : index + 1])))
                start = index + 1
        return spans, found

    for originator in originators:
        session.query(originator, required_results=256)
    _spans, alone = subtrees()
    reference = dict(alone)
    assert len(reference) == 8 and len({str(tree) for tree in reference.values()}) == 8
    obs.ring.clear()

    rounds, errors = 15, []

    def worker(originator):
        try:
            for _round in range(rounds):
                session.query(originator, required_results=256)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(o,)) for o in originators]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        session.close()
    assert not errors and not any(thread.is_alive() for thread in threads)

    spans, together = subtrees()
    assert len(together) == 8 * rounds
    # A row appended to another thread's span would show up as a domain too
    # many in one query and one too few in another.
    for originator, tree in together:
        assert tree == reference[originator]
    assert len({span.span_id for span in spans}) == len(spans)
    for trace_id in {span.trace_id for span in spans}:
        assert connected_trace(spans, trace_id)
