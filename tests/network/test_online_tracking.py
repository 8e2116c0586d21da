"""Incremental online-peer tracking on the overlay."""

from __future__ import annotations

from repro.network.overlay import Overlay
from repro.network.topology import TopologyConfig


def _scanned_online(overlay: Overlay) -> set:
    return {peer.peer_id for peer in overlay.peers() if peer.online}


class TestOnlineIds:
    def test_starts_with_everyone_online(self, small_overlay):
        assert small_overlay.online_ids == set(small_overlay.peer_ids)

    def test_tracks_go_offline_and_online(self, small_overlay):
        victims = small_overlay.peer_ids[:5]
        for victim in victims:
            small_overlay.peer(victim).go_offline()
        assert small_overlay.online_ids == _scanned_online(small_overlay)
        assert set(victims).isdisjoint(small_overlay.online_ids)
        small_overlay.peer(victims[0]).go_online()
        assert victims[0] in small_overlay.online_ids
        assert small_overlay.online_ids == _scanned_online(small_overlay)

    def test_tracks_direct_assignment(self, small_overlay):
        # Checkpoint restore writes the flag directly; the set must follow.
        victim = small_overlay.peer_ids[3]
        small_overlay.peer(victim).online = False
        assert victim not in small_overlay.online_ids
        small_overlay.peer(victim).online = True
        assert victim in small_overlay.online_ids

    def test_tracks_membership_changes(self, small_overlay):
        anchor = small_overlay.peer_ids[0]
        node = small_overlay.add_peer("newcomer", neighbors=[anchor])
        assert "newcomer" in small_overlay.online_ids
        node.go_offline()
        assert "newcomer" not in small_overlay.online_ids
        node.go_online()
        small_overlay.remove_peer("newcomer")
        assert "newcomer" not in small_overlay.online_ids
        assert small_overlay.online_ids == _scanned_online(small_overlay)
        # The removed node's writes no longer reach the overlay.
        node.go_offline()
        assert small_overlay.online_ids == _scanned_online(small_overlay)

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
            assert overlay.online_ids == _scanned_online(overlay), hour
            seen_offline = seen_offline or len(overlay.online_ids) < overlay.size
            # The per-domain form query routing and staleness sampling read.
            for domain in session.domains.values():
                partners = set(domain.partner_ids)
                assert partners & overlay.online_ids == {
                    peer_id for peer_id in partners if overlay.peer(peer_id).online
                }, (hour, domain.summary_peer_id)
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
        store = InMemoryBackend()
        session.checkpoint(store)
        restored = SystemBuilder.from_checkpoint(store)
        assert restored.overlay.online_ids == _scanned_online(restored.overlay)
        assert restored.overlay.online_ids == session.overlay.online_ids
        # The set keeps tracking after restore.
        restored.run_until(3600.0)
        assert restored.overlay.online_ids == _scanned_online(restored.overlay)


class TestListenerLifecycle:
    def test_standalone_peer_node_needs_no_listener(self):
        from repro.network.peer import PeerNode

        node = PeerNode(peer_id="loner")
        node.go_offline()
        node.go_online()
        assert node.online

    def test_generated_overlay_is_wired(self):
        overlay = Overlay.generate(TopologyConfig(peer_count=16, seed=3))
        victim = overlay.peer_ids[0]
        overlay.peer(victim).go_offline()
        assert victim not in overlay.online_ids
