"""Hostile JSON through the wire decode: a typed 4xx, never a 500.

``tests/serve/test_http_framing.py`` sends hostile request *heads*; this
module sends well-framed request *bodies* no client sends — random JSON
objects and arrays, query payloads with wrong types and unknown predicate
kinds, deep nesting, huge and negative numbers — to a live daemon's
``/query`` and ``/query_batch`` and through a supervisor's front, each over
one kept-alive connection.  Every reply is a 200 or a 4xx whose body names a
:class:`~repro.exceptions.ReproError` subclass, and the same connection then
answers ``/health``.
"""

import http.client
import json
from urllib.parse import urlsplit

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.exceptions
from repro.serve import start_server
from repro.serve.server import MAX_BATCH_QUERIES
from repro.serve.supervisor import Supervisor
from repro.store.checkpoint import open_readonly_session

#: The ``type`` a 4xx body may name: the library's own exception family.
TYPED = {
    name
    for name, value in vars(repro.exceptions).items()
    if isinstance(value, type) and issubclass(value, repro.exceptions.ReproError)
}

HOSTILE = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# Small, negative or beyond every limit: never a valid batch big enough to
# keep a daemon busy.
numbers = st.one_of(
    st.integers(-3, 3),
    st.integers(max_value=-1),
    st.integers(min_value=MAX_BATCH_QUERIES + 1),
    st.floats(allow_nan=False),
)
scalars = st.none() | st.booleans() | numbers | st.text(max_size=6)
documents = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=10,
)
names = st.sampled_from(["patient", "age", "bmi", "sex", "disease"]) | documents
predicates = st.fixed_dictionaries(
    {},
    optional={
        "type": st.sampled_from(["comparison", "in", "descriptor", "regex"])
        | documents,
        "attr": names,
        "op": st.sampled_from(["<", ">=", "=", "~"]) | documents,
        "value": documents,
        "values": documents,
        "descriptors": st.just([["age", "young"]]) | documents,
        "alpha_cut": documents,
    },
)
queries = st.fixed_dictionaries(
    {},
    optional={
        "relation": names,
        "predicates": st.lists(predicates, max_size=3) | documents,
        "select": st.lists(names, max_size=2) | documents,
    },
)
requests = st.dictionaries(
    st.sampled_from(
        [
            "query", "queries", "originator", "originators", "query_id", "count",
            "policy", "required_results", "max_domains", "include_staleness",
            "include_answer",
        ]
    ),
    documents | queries | st.lists(queries, max_size=2),
    max_size=4,
)


def _encoded(document):
    return json.dumps(document).encode("utf-8")


bodies = st.one_of(
    documents.map(_encoded),
    requests.map(_encoded),
    st.integers(1, 50_000).map(lambda n: b'{"query": ' + b"[" * n + b"]" * n + b"}"),
    st.integers(4_000, 6_000).map(lambda n: b'{"count": ' + b"9" * n + b"}"),
)


@pytest.fixture(scope="module")
def targets(planned_store, real_store):
    """Kept-alive connections to each front, keyed by name.

    The fleet forks before this process starts a server thread.
    """
    store, background = real_store
    fleet = Supervisor(store, workers=1, background="medical", cache_size=16)
    fleet.start()
    daemons = [
        start_server(open_readonly_session(planned_store), close_session_on_stop=True),
        start_server(
            open_readonly_session(store, background=background),
            close_session_on_stop=True,
        ),
    ]
    urls = {
        "planned daemon": daemons[0].url,
        "real daemon": daemons[1].url,
        "supervisor": fleet.url,
    }
    connections = {
        name: http.client.HTTPConnection(
            urlsplit(url).hostname, urlsplit(url).port, timeout=60
        )
        for name, url in urls.items()
    }
    yield connections
    for connection in connections.values():
        connection.close()
    for daemon in daemons:
        daemon.stop()
    fleet.stop()


def _exchange(connection, method, path, body=None):
    connection.request(method, path, body=body)
    response = connection.getresponse()
    return response.status, response.read()


@pytest.mark.parametrize("target", ["planned daemon", "real daemon", "supervisor"])
@pytest.mark.parametrize("path", ["/query", "/query_batch"])
def test_hostile_json_gets_a_typed_4xx_and_the_connection_serves_on(
    targets, target, path
):
    connection = targets[target]
    _exchange(connection, "GET", "/health")
    socket = connection.sock

    @HOSTILE
    @given(body=bodies)
    @example(body=b"[" * 100_000 + b"]" * 100_000)
    @example(body=b'{"count": 100000000000000000000}')
    @example(body=b'{"queries": 5}')
    @example(body=b'{"query": {"relation": "patient", "predicates": [], "select": [[1]]}}')
    def exchange(body):
        status, reply = _exchange(connection, "POST", path, body)
        if status != 200:
            assert 400 <= status < 500, reply
            assert json.loads(reply)["type"] in TYPED, reply
        assert _exchange(connection, "GET", "/health")[0] == 200

    exchange()
    assert connection.sock is socket  # one connection throughout
