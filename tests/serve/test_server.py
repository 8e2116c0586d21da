"""The HTTP daemon: served answers == local restore, lazy loading, lifecycle.

The tentpole acceptance test lives here: a ``query_batch`` posed over
HTTP/JSON against ``repro serve``'s in-process equivalent returns answers
*equal* to ``NetworkSession.query_batch`` on a fresh restore of the same
checkpoint, and lazy loading materializes only the hierarchies the queries
actually touch (asserted via the snapshot-fetch counters).
"""

import http.client
import json
from urllib.parse import urlsplit

import pytest

from repro.database import Comparison, DescriptorPredicate, SelectionQuery
from repro.exceptions import ServeError
from repro.fuzzy.linguistic import Descriptor
from repro.serve import ServeClient, start_server
from repro.serve.supervisor import Supervisor
from repro.store.checkpoint import open_readonly_session, restore_session
from repro.workloads.queries import paper_example_query

REQUIRED = 5


@pytest.fixture
def served(planned_store):
    session = open_readonly_session(planned_store)
    server = start_server(session, close_session_on_stop=True)
    with ServeClient(server.url) as client:
        yield server, client, session
    if not session.closed:
        server.stop()


def test_http_query_batch_equals_local_restore(served, planned_store):
    _server, client, _session = served
    over_http = client.query_batch(
        count=6, required_results=REQUIRED, include_staleness=True
    )
    local = restore_session(planned_store).query_batch(
        count=6, required_results=REQUIRED, include_staleness=True
    )
    assert over_http == local


def test_http_single_query_and_staleness_equal_local(served, planned_store):
    _server, client, _session = served
    assert client.query(required_results=REQUIRED) == restore_session(
        planned_store
    ).query(required_results=REQUIRED)
    assert client.staleness() == restore_session(planned_store).staleness()
    assert client.staleness_batch(3) == restore_session(
        planned_store
    ).staleness_batch(3)


def test_health_and_stats(served):
    _server, client, session = served
    health = client.health()
    assert health["status"] == "ok"
    assert health["peers"] == session.overlay.size
    assert health["domains"] == len(session.domains)

    client.query_batch(count=2, required_results=REQUIRED)
    stats = client.stats()
    assert set(stats) == {
        "requests", "queries_answered", "peers", "domains", "planned", "lazy",
        "uptime_seconds",
    }
    assert stats["requests"]["query_batch"] == 1
    assert stats["queries_answered"] == 2
    assert stats["lazy"] == session.hierarchy_source.stats_payload()


def test_unknown_path_is_404(served):
    _server, client, _session = served
    with pytest.raises(ServeError, match="404"):
        client._request("GET", "/nope")


def test_bad_payload_is_400_with_type(served):
    _server, client, _session = served
    with pytest.raises(ServeError, match="unknown routing policy"):
        client._request("POST", "/query", {"policy": "bogus"})
    with pytest.raises(ServeError, match="400"):
        client._request("POST", "/query", {"query": {"not": "a query"}})


@pytest.fixture(scope="module")
def fronts(planned_store):
    """One daemon and one 2-worker fleet over the same checkpoint.

    The fleet first: its supervisor forks before this process runs the
    daemon's thread.
    """
    fleet = Supervisor(planned_store, workers=2).start()
    server = start_server(
        open_readonly_session(planned_store), close_session_on_stop=True
    )
    yield {"daemon": server.url, "fleet": fleet.url}
    fleet.stop()
    server.stop()


@pytest.mark.parametrize("front", ["daemon", "fleet"])
@pytest.mark.parametrize(
    "path, body, follow_up",
    [
        ("/query_batch", {"count": "abc"}, {"count": 1}),
        ("/staleness", {"count": "abc"}, {"count": 1}),
        ("/query", {"required_results": "many"}, {"required_results": 2}),
        ("/query", {"originator": 5}, {}),
        ("/query", {"query_id": "x"}, {"query_id": 3}),
        ("/query", {"include_staleness": "false"}, {"include_staleness": False}),
        ("/query", {"max_domains": 3.7}, {"max_domains": 3}),
    ],
)
def test_wrongly_typed_field_is_a_typed_400(fronts, front, path, body, follow_up):
    url = urlsplit(fronts[front])
    connection = http.client.HTTPConnection(url.hostname, url.port, timeout=30.0)

    def exchange(method, target, payload=None):
        connection.request(
            method, target, None if payload is None else json.dumps(payload)
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())

    try:
        before = exchange("GET", "/health")[1]
        status, error = exchange("POST", path, body)
        assert (status, error["type"]) == (400, "ServeError"), error
        (field,) = body
        assert field in error["error"]
        # The same connection stays usable, and the front neither retried
        # the request nor held the 400 against a worker.
        assert exchange("POST", path, follow_up)[0] == 200
        after = exchange("GET", "/health")[1]
        for counter in ("retries_total", "restarts_total", "workers_live"):
            assert after.get(counter) == before.get(counter), counter
    finally:
        connection.close()


def test_shutdown_endpoint_stops_server_and_closes_session(served):
    server, client, session = served
    assert client.shutdown() == {"status": "shutting down"}
    server.join(timeout=10.0)
    assert session.closed
    with pytest.raises(ServeError, match="cannot reach"):
        client.health()


def test_lazy_loading_materializes_only_touched_hierarchies(real_store):
    path, background = real_store
    session = open_readonly_session(path, background=background)
    server = start_server(session, close_session_on_stop=True)
    client = ServeClient(server.url)
    try:
        source = session.hierarchy_source
        assert source.fetches == 0, "opening must not materialize hierarchies"

        query = paper_example_query()
        over_http = client.query_batch(queries=[query, query], include_answer=True)
        local = restore_session(path, background=background).query_batch(
            queries=[query, query], include_answer=True
        )
        assert over_http == local

        visited = {
            outcome.domain_id
            for answer in over_http
            for outcome in answer.routing.domain_outcomes
        }
        assert visited, "the paper query must reach at least one domain"
        # Only the visited domains' global summaries were pulled from the
        # snapshot store; every per-peer local summary stays pending.
        assert source.fetches == len(visited)
        pending = [
            service.summary_pending
            for service in session.system.services.values()
        ]
        assert pending and all(pending)
    finally:
        client.close()
        if not session.closed:
            server.stop()


def test_client_chosen_predicates_answer_and_leave_bounded_masks(real_store):
    """Predicates a client makes up answer like a restore and are not kept.

    A comparison on an attribute the background does not describe reaches
    the peers' databases as sent, here with a list as its value.  Every alpha
    cut a client picks is a new key of the databases' predicate masks; the
    masks a read-only session keeps stay within a fixed multiple of the
    background's descriptors however many cuts it is asked.
    """
    path, background = real_store
    anorexia = [Descriptor("disease", "anorexia"), Descriptor("disease", "malaria")]
    queries = [
        SelectionQuery(
            "patient",
            [Comparison("id", "=", ["t1", "t2"]), Comparison("sex", "=", "female")],
        )
    ] + [
        SelectionQuery("patient", [DescriptorPredicate("disease", anorexia, cut / 100)])
        for cut in range(100)
    ]
    session = open_readonly_session(path, background=background)
    server = start_server(session, close_session_on_stop=True)
    client = ServeClient(server.url)
    try:
        over_http = client.query_batch(queries=queries, include_answer=True)
        local = restore_session(path, background=background).query_batch(
            queries=queries, include_answer=True
        )
        assert over_http == local
        indexes = [
            index
            for database in session.system.databases.values()
            for index in database._indexes.values()  # noqa: SLF001
        ]
        assert indexes, "the queries must reach the peers' databases"
        limit = 4 * len(background.descriptors())
        assert all(len(masks) <= limit for _relation, _version, masks in indexes)
    finally:
        client.close()
        if not session.closed:
            server.stop()
