"""Integration tests: small-scale runs of every figure/table experiment.

These use reduced network sizes and durations so the whole suite stays fast,
but they execute exactly the code paths the benchmarks use and assert the
qualitative shapes the paper reports.
"""

import pytest

from repro.experiments.fig4_stale_answers import run_figure4
from repro.experiments.fig5_false_negatives import run_figure5
from repro.experiments.fig6_update_cost import cost_increase_factor, run_figure6
from repro.experiments.fig7_query_cost import run_figure7
from repro.experiments import runner
from repro.experiments.runner import (
    maintenance_sweep,
    run_maintenance_simulation,
    run_query_cost_comparison,
)
from repro.experiments.tables import run_table1_table2, run_table3
from repro.workloads.scenarios import SimulationScenario


class TestTables:
    def test_table1_table2_exact_mapping(self):
        table = run_table1_table2()
        assert len(table.rows) == 3
        counts = sorted(table.column("tuple_count"), reverse=True)
        assert counts == pytest.approx([2.0, 0.7, 0.3])
        labels = {(row["age_label"], row["bmi_label"]) for row in table.rows}
        assert labels == {
            ("young", "underweight"),
            ("young", "normal"),
            ("adult", "normal"),
        }

    def test_table3_lists_all_parameters(self):
        table = run_table3()
        parameters = set(table.column("parameter"))
        assert "number_of_peers" in parameters
        assert "freshness_threshold_alpha" in parameters


class TestMaintenanceRunner:
    def test_maintenance_run_collects_snapshots_and_messages(self):
        scenario = SimulationScenario(
            peer_count=32, alpha=0.3, duration_seconds=2 * 3600.0, seed=1
        )
        run = run_maintenance_simulation(scenario)
        assert run.messages_per_node == run.update_messages / 32
        assert run.snapshots
        assert run.update_messages >= 0
        assert 0.0 <= run.mean_worst_stale_fraction <= 1.0


class TestMaintenanceSweep:
    """Figures 4–6 read one sweep: each (α, size) simulated once, each size's
    overlay generated once, every run on its own copy of it."""

    @pytest.fixture
    def generated(self, monkeypatch):
        from repro.network.overlay import Overlay

        configs = []
        generate = Overlay.generate.__func__

        def counting_generate(cls, config):
            configs.append(config)
            return generate(cls, config)

        monkeypatch.setattr(Overlay, "generate", classmethod(counting_generate))
        return configs

    def test_runs_come_alpha_outer_size_inner(self):
        runs = maintenance_sweep([16, 24], [0.8, 0.1], 1800.0, seed=1)
        assert [(r.scenario.alpha, r.scenario.peer_count) for r in runs] == [
            (0.8, 16), (0.8, 24), (0.1, 16), (0.1, 24),
        ]

    def test_each_size_is_generated_once_across_alphas(self, generated):
        maintenance_sweep([16, 24], [0.1, 0.3, 0.8], 1800.0, seed=1)
        assert [config.peer_count for config in generated] == [16, 24]
        maintenance_sweep([16], [0.3], 1800.0, seed=1)  # nothing outlives a sweep
        assert len(generated) == 3

    def test_a_rewired_overlay_leaves_the_next_alphas_untouched(
        self, monkeypatch, generated
    ):
        from repro.network.overlay import Overlay

        overlays = []

        def rewire(scenario, overlay):
            overlays.append((overlay, {p: dict(n) for p, n in overlay.links.items()}))
            overlay.remove_peer(overlay.peer_ids[-1])
            return scenario

        monkeypatch.setattr(runner, "run_maintenance_simulation", rewire)
        maintenance_sweep([48], [0.1, 0.3], 3600.0, seed=1)
        (first, first_links), (second, second_links) = overlays
        assert len(generated) == 1
        assert second is not first
        assert second_links == first_links
        config = SimulationScenario(peer_count=48, seed=1).topology_config()
        assert first_links == Overlay.generate(config).links

    def test_a_given_overlay_is_built_on_and_none_is_generated(self, generated):
        from repro.network.overlay import Overlay

        scenario = SimulationScenario(peer_count=48, seed=1)
        overlay = Overlay.generate(scenario.topology_config())
        session = scenario.single_domain_builder(overlay).build()
        assert session.overlay is overlay
        scenario.single_domain_builder().build()  # without one: generated here
        assert len(generated) == 2


class TestFigure4:
    def test_stale_answers_grow_with_alpha(self):
        table = run_figure4(
            domain_sizes=[32], alphas=[0.1, 0.8], duration_seconds=4 * 3600.0, seed=2
        )
        low = table.filter(alpha=0.1)[0]["stale_fraction"]
        high = table.filter(alpha=0.8)[0]["stale_fraction"]
        assert high > low

    def test_stale_answers_bounded(self):
        table = run_figure4(
            domain_sizes=[48], alphas=[0.3], duration_seconds=4 * 3600.0, seed=3
        )
        fraction = table.rows[0]["stale_fraction"]
        assert 0.0 <= fraction <= 0.5


class TestFigure5:
    def test_false_negatives_small_and_below_worst_case(self):
        table = run_figure5(domain_sizes=[48], duration_seconds=4 * 3600.0, seed=4)
        row = table.rows[0]
        assert row["false_negative_fraction"] <= row["worst_stale_fraction"]
        assert row["false_negative_fraction"] <= 0.15
        assert row["reduction_factor"] >= 1.0


class TestFigure6:
    def test_update_cost_shapes(self):
        table = run_figure6(
            domain_sizes=[16, 48], alphas=(0.3, 0.8), duration_seconds=4 * 3600.0, seed=5
        )
        # Total messages grow with the domain size.
        alpha_03 = table.filter(alpha=0.3)
        assert alpha_03[1]["total_messages"] >= alpha_03[0]["total_messages"]
        # Lowering alpha costs more (but stays within an order of magnitude).
        factor = cost_increase_factor(table, 0.3, 0.8)
        assert 1.0 <= factor <= 10.0


class TestFigure7:
    def test_query_cost_ordering(self):
        table = run_figure7(network_sizes=[64, 128], queries_per_size=5, seed=6)
        for row in table.rows:
            assert row["centralized_messages"] <= row["sq_messages"]
            assert row["sq_messages"] <= row["flooding_messages"]

    def test_sq_advantage_grows_or_holds_with_size(self):
        table = run_figure7(network_sizes=[64, 256], queries_per_size=5, seed=7)
        ratios = table.column("flooding_over_sq")
        assert all(ratio > 1.0 for ratio in ratios)

    def test_runner_row_structure(self):
        run = run_query_cost_comparison(peer_count=64, query_count=3, seed=8)
        row = run.as_row()
        assert set(row) == {
            "peers",
            "sq_messages",
            "flooding_messages",
            "centralized_messages",
            "sq_model",
            "centralized_model",
        }
