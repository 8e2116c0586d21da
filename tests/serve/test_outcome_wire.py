"""Served domain outcomes: compact arrays on the wire, equal to a local query.

A domain outcome travels as ``[domain_id, relevant, contacted, responding,
false_negatives, messages]`` with ``contacted`` / ``responding`` left ``null``
where they equal their predecessor (see ``repro.serve.wire``).  These tests
drive every branch of that shape through a live server and pin the byte shape
so a later change cannot silently re-inflate the answer.
"""

import http.client
import json
from urllib.parse import urlsplit

import pytest

from repro.core.routing import RoutingPolicy
from repro.core.session import SystemBuilder
from repro.serve import ServeClient, start_server
from repro.store.checkpoint import open_readonly_session, save_session

REQUIRED = 5


@pytest.fixture(scope="module")
def churn_store(tmp_path_factory):
    """64 planned peers after 30 min of churn: stale partners, offline ones."""
    session = (
        SystemBuilder()
        .topology(peer_count=64, average_degree=4)
        .planned_content(hit_rate=0.1)
        .seed(3)
        .churn(duration_seconds=2 * 3600.0, graceful_fraction=0.5)
        .build()
    )
    session.run_until(1800.0)
    path = tmp_path_factory.mktemp("serve-churn") / "churn.sqlite"
    save_session(session, str(path))
    return str(path)


@pytest.fixture(scope="module")
def wide_store(tmp_path_factory):
    """A 240-peer planned checkpoint: 15 domains, no churn."""
    session = (
        SystemBuilder()
        .topology(peer_count=240, average_degree=4)
        .planned_content(hit_rate=0.1)
        .seed(2)
        .build()
    )
    path = tmp_path_factory.mktemp("serve-wide") / "wide.sqlite"
    save_session(session, str(path))
    return str(path)


def _serve(store):
    return start_server(open_readonly_session(store), close_session_on_stop=True)


def _served_and_local(store, policy):
    """``(served, local)`` answers of every online originator under ``policy``."""
    readonly = open_readonly_session(store)
    originators = sorted(readonly.overlay.online_ids)[:12]
    server = _serve(store)
    try:
        with ServeClient(server.url) as client:
            served = [
                client.query(originator, policy=policy, required_results=REQUIRED)
                for originator in originators
            ]
    finally:
        server.stop()
    local = [
        readonly.query(originator, policy=policy, required_results=REQUIRED)
        for originator in originators
    ]
    return served, local, readonly


@pytest.mark.parametrize("policy", [RoutingPolicy.PRECISION, RoutingPolicy.RECALL])
def test_served_equals_readonly_where_contacted_differs(churn_store, policy):
    served, local, _readonly = _served_and_local(churn_store, policy)
    assert served == local
    outcomes = [o for answer in local for o in answer.routing.domain_outcomes]
    assert any(o.contacted_peers != o.relevant_peers for o in outcomes)


def test_served_equals_readonly_with_an_offline_contacted_partner(churn_store):
    served, local, readonly = _served_and_local(churn_store, RoutingPolicy.RECALL)
    assert served == local
    online = readonly.overlay.online_ids
    offline_contacted = [
        o
        for answer in local
        for o in answer.routing.domain_outcomes
        if o.contacted_peers - online
    ]
    assert offline_contacted, "the churned checkpoint must contact an offline partner"
    for outcome in offline_contacted:
        assert outcome.responding_peers != outcome.contacted_peers
        assert outcome.contacted_peers - online <= outcome.false_positives


def test_query_body_names_each_peer_of_an_outcome_once(wide_store):
    server = _serve(wide_store)
    url = urlsplit(server.url)
    connection = http.client.HTTPConnection(url.hostname, url.port, timeout=30.0)
    try:
        connection.request("POST", "/query", json.dumps({"required_results": 1000}))
        response = connection.getresponse()
        raw = response.read()
        assert response.status == 200
    finally:
        connection.close()
        server.stop()
    assert b"relevant_peers" not in raw
    outcomes = json.loads(raw)["answer"]["routing"]["domain_outcomes"]
    assert len(outcomes) >= 10
    assert all(isinstance(outcome, list) for outcome in outcomes)
    equal = [o for o in outcomes if o[2] is None and o[3] is None]
    assert equal, "a churn-free checkpoint contacts P_Q and hears from all of it"
    for outcome in equal:
        # The peer sets, without the domain id (a summary peer's own id).
        sets_text = json.dumps(outcome[1:5])
        for peer in outcome[1] + outcome[4]:
            assert sets_text.count(json.dumps(peer)) == 1, (peer, outcome)
