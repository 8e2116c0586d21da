"""The overlay's online set: the one record of who is online."""

from __future__ import annotations

import pytest

from repro.exceptions import NetworkError


def _departed_by_content(session) -> set:
    """Who is offline by the content model's own record of departures."""
    overlay = session.overlay
    return {p for p in overlay.peer_ids if session.system.content.is_departed(p)}


class TestOnlineIds:
    def test_starts_with_everyone_online(self, small_overlay):
        assert small_overlay.online_ids == set(small_overlay.peer_ids)
        assert all(map(small_overlay.is_online, small_overlay.peer_ids))

    def test_set_online_moves_the_set_and_the_version(self, small_overlay):
        victims = small_overlay.peer_ids[:5]
        version = small_overlay.version
        for victim in victims:
            small_overlay.set_online(victim, False)
        assert small_overlay.version == version + len(victims)
        assert set(victims).isdisjoint(small_overlay.online_ids)
        assert not any(map(small_overlay.is_online, victims))
        small_overlay.set_online(victims[0], True)
        assert victims[0] in small_overlay.online_ids
        assert small_overlay.is_online(victims[0])
        offline = set(victims[1:])
        assert small_overlay.online_ids == set(small_overlay.peer_ids) - offline

    @pytest.mark.parametrize(
        "touch",
        [
            lambda overlay: overlay.is_online("p999"),
            lambda overlay: overlay.set_online("p999", False),
        ],
        ids=["is_online", "set_online"],
    )
    def test_an_unknown_peer_is_a_network_error(self, small_overlay, touch):
        version = small_overlay.version
        with pytest.raises(NetworkError, match="unknown peer 'p999'"):
            touch(small_overlay)
        assert small_overlay.version == version
        assert small_overlay.online_ids == set(small_overlay.peer_ids)

    def test_consistent_under_simulated_churn(self):
        from repro.core.session import SystemBuilder

        session = (
            SystemBuilder()
            .topology(peer_count=64, average_degree=4)
            .planned_content(hit_rate=0.1)
            .churn(duration_seconds=2 * 3600.0, downtime_seconds=300.0)
            .seed(13)
            .build()
        )
        overlay = session.overlay
        seen_offline = False
        for hour in (0.5, 1.0, 1.5, 2.0):
            session.run_until(hour * 3600.0)
            offline = set(overlay.peer_ids) - overlay.online_ids
            assert offline == _departed_by_content(session), hour
            seen_offline = seen_offline or bool(offline)
            # Every assigned peer and every summary peer is online.
            assert set(session.system.assignment) <= overlay.online_ids, hour
            assert set(session.domains) <= overlay.online_ids, hour
        assert seen_offline, "the churn schedule never took a peer offline"

    def test_consistent_after_checkpoint_restore(self):
        from repro.core.session import SystemBuilder
        from repro.store.backend import InMemoryBackend

        session = (
            SystemBuilder()
            .topology(peer_count=48, average_degree=4)
            .planned_content(hit_rate=0.1)
            .churn(duration_seconds=3600.0)
            .seed(5)
            .build()
        )
        session.run_until(1800.0)
        assert len(session.overlay.online_ids) < session.overlay.size
        store = InMemoryBackend()
        session.checkpoint(store)
        restored = SystemBuilder.from_checkpoint(store)
        assert restored.overlay.online_ids == session.overlay.online_ids
        assert set(restored.overlay.peer_ids) - restored.overlay.online_ids == (
            _departed_by_content(restored)
        )
        # The set keeps tracking after restore.
        session.run_until(3600.0)
        restored.run_until(3600.0)
        assert restored.overlay.online_ids == session.overlay.online_ids
        assert set(restored.overlay.peer_ids) - restored.overlay.online_ids == (
            _departed_by_content(restored)
        )
