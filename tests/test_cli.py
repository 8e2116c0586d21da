"""Unit tests for the experiment CLI."""

import json
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


def _json_tables(out):
    """The tables a ``--json`` run printed, in order (one object each)."""
    decoder = json.JSONDecoder()
    tables, index = [], 0
    while True:
        while index < len(out) and out[index].isspace():
            index += 1
        if index == len(out):
            return tables
        table, index = decoder.raw_decode(out, index)
        tables.append(table)


class TestArgumentParsing:
    def test_requires_a_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
        capsys.readouterr()

    def test_unknown_command_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])
        capsys.readouterr()

    def test_runtime_flag_is_gone(self):
        """No flag picks a backend: ``--runtime`` is a usage error."""
        result = subprocess.run(
            [sys.executable, "-m", "repro", "run-scenario", "smoke",
             "--runtime", "concurrent"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert "unrecognized arguments: --runtime concurrent" in result.stderr

    def test_warm_start_flag_is_gone(self, tmp_path):
        """A figure is rebuilt on every run: ``--cache-dir`` is a usage error."""
        cache = str(tmp_path / "cache")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "run-scenario", "smoke",
             "--cache-dir", cache],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert f"unrecognized arguments: --cache-dir {cache}" in result.stderr

    def test_fig5_rejects_alphas(self, capsys):
        """fig5 plots α = 0.3 only; an --alphas it would ignore is refused."""
        with pytest.raises(SystemExit) as raised:
            main(["fig5", "--alphas", "0.1"])
        assert raised.value.code == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert "fig5 plots alpha 0.3 only" in error

    def test_defaults(self):
        args = build_parser().parse_args(["tables"])
        # hours/seed stay unset so run-scenario can fall back to the
        # scenario's own declaration; figure commands resolve them to 6 h / 0.
        assert args.hours is None
        assert args.seed is None
        # Each figure resolves its own α defaults (fig4 0.1/0.3/0.8, fig6 0.3/0.8).
        assert args.alphas is None
        assert not args.json


class _AnyRun:
    """Stands in for a simulation run: every figure it is asked for is 1."""

    def __init__(self, scenario=None):
        self.scenario = scenario

    def __getattr__(self, name):
        return 1.0


class TestFigureDefaults:
    """The CLI keeps no sizes or α of its own: each figure's defaults decide,
    and they are the paper's range, 2000 peers included."""

    PAPER_DOMAIN_SIZES = [16, 100, 500, 1000, 2000, 5000]
    PAPER_NETWORK_SIZES = [16, 100, 500, 1000, 2000, 3500, 5000]

    def test_the_parser_leaves_sizes_and_alphas_unset(self):
        args = build_parser().parse_args(["fig4"])
        assert args.sizes is None
        assert args.alphas is None

    @pytest.mark.parametrize("command", ["fig4", "fig5", "fig6", "fig7"])
    def test_the_cli_hands_each_figure_no_sizes(self, monkeypatch, capsys, command):
        import repro.experiments as experiments
        from repro.reporting import ExperimentTable

        seen = {}

        def figure(**kwargs):
            seen.update(kwargs)
            return ExperimentTable(name=command, columns=[])

        monkeypatch.setattr(experiments, f"run_figure{command[-1]}", figure)
        assert main([command, "--json"]) == 0
        sizes = "domain_sizes" if command != "fig7" else "network_sizes"
        assert seen[sizes] is None
        assert seen.get("alphas") is None

    @pytest.mark.parametrize(
        "command, alphas",
        [("fig4", [0.1, 0.3, 0.8]), ("fig5", [0.3]), ("fig6", [0.3, 0.8])],
    )
    def test_each_maintenance_figure_sweeps_the_papers_range(
        self, monkeypatch, command, alphas
    ):
        import repro.experiments as experiments
        from repro.experiments import runner

        swept = []

        def simulate(scenario, overlay):
            swept.append((scenario.alpha, scenario.peer_count))
            return _AnyRun(scenario)

        monkeypatch.setattr(runner, "run_maintenance_simulation", simulate)
        getattr(experiments, f"run_figure{command[-1]}")()
        assert swept == [(a, n) for a in alphas for n in self.PAPER_DOMAIN_SIZES]

    def test_fig7_sweeps_the_papers_range(self, monkeypatch):
        from repro.experiments import fig7_query_cost

        swept = []

        def compare(peer_count, **_kwargs):
            swept.append(peer_count)
            return _AnyRun()

        monkeypatch.setattr(fig7_query_cost, "run_query_cost_comparison", compare)
        fig7_query_cost.run_figure7()
        assert swept == self.PAPER_NETWORK_SIZES


class TestCommands:
    def test_tables_command_text_output(self, capsys):
        exit_code = main(["tables"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Tables 1 & 2" in captured.out
        assert "Table 3" in captured.out

    def test_tables_command_json_output(self, capsys):
        exit_code = main(["tables", "--json"])
        captured = capsys.readouterr()
        assert exit_code == 0
        first_line_block = captured.out.strip().split("\n{")[0]
        payload = json.loads(first_line_block)
        assert payload["name"].startswith("Tables 1 & 2")

    def test_fig6_command_with_small_overrides(self, capsys):
        exit_code = main(["fig6", "--sizes", "16,32", "--hours", "1", "--seed", "3"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Figure 6" in captured.out

    @pytest.mark.parametrize(
        "argv, rows",
        [
            pytest.param(
                ["fig4", "--sizes", "16"],
                [(0.1, 16), (0.3, 16), (0.8, 16)],
                id="fig4",
            ),
            pytest.param(
                ["fig4", "--alphas", "0.3", "--sizes", "16,32"],
                [(0.3, 16), (0.3, 32)],
                id="fig4-alphas",
            ),
            pytest.param(["fig5", "--sizes", "16,32"], [(0.3, 16), (0.3, 32)], id="fig5"),
            pytest.param(["fig6", "--sizes", "16"], [(0.3, 16), (0.8, 16)], id="fig6"),
            pytest.param(
                ["fig6", "--alphas", "0.1", "--sizes", "16"], [(0.1, 16)], id="fig6-alphas"
            ),
        ],
    )
    def test_figure_alphas(self, capsys, argv, rows):
        """Each figure sweeps its own α defaults, or the --alphas it is given."""
        exit_code = main([*argv, "--hours", "0.25", "--json"])
        table = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert table["name"].startswith(f"Figure {argv[0][-1]}")
        assert [(row["alpha"], row["domain_size"]) for row in table["rows"]] == rows

    def test_fault_sweep_command(self, capsys):
        exit_code = main(["fault-sweep", "--intensities", "0,0.1", "--json"])
        table = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert table["name"].startswith("Fault sweep")
        assert [row["intensity"] for row in table["rows"]] == [0.0, 0.1]

    @pytest.mark.parametrize(
        "alphas, fig4_alphas, fig6_alphas",
        [
            pytest.param([], [0.1, 0.3, 0.8], [0.3, 0.8], id="defaults"),
            pytest.param(["--alphas", "0.1"], [0.1], [0.1], id="alphas"),
        ],
    )
    def test_all_command(self, capsys, alphas, fig4_alphas, fig6_alphas):
        """Tables 1 & 2, Table 3, Figures 4–7 and the fault sweep, in order;
        --alphas reaches fig4 and fig6, and fig5 stays at α = 0.3."""
        exit_code = main(
            ["all", "--sizes", "16", "--hours", "0.25", "--queries", "2",
             "--intensities", "0,0.1", "--json", *alphas]
        )
        tables = _json_tables(capsys.readouterr().out)
        assert exit_code == 0
        names = [table["name"].split(" — ")[0] for table in tables]
        assert names == [
            "Tables 1 & 2",
            "Table 3",
            "Figure 4",
            "Figure 5",
            "Figure 6",
            "Figure 7",
            "Fault sweep",
        ]
        fig4, fig5, fig6 = tables[2:5]
        assert [row["alpha"] for row in fig4["rows"]] == fig4_alphas
        assert [row["alpha"] for row in fig5["rows"]] == [0.3]
        assert [row["alpha"] for row in fig6["rows"]] == fig6_alphas
        assert [row["intensity"] for row in tables[6]["rows"]] == [0.0, 0.1]

    def test_all_simulates_each_maintenance_point_once(self, monkeypatch, capsys):
        """fig4, fig5 and fig6 read one sweep: one simulation per α (each
        figure running its own made six)."""
        from repro.experiments import runner

        simulated = []
        make_run = runner.MaintenanceRun

        def counting(scenario, **measurements):
            simulated.append((scenario.alpha, scenario.peer_count))
            return make_run(scenario=scenario, **measurements)

        monkeypatch.setattr(runner, "MaintenanceRun", counting)
        assert main(["all", "--sizes", "16", "--hours", "1", "--json"]) == 0
        capsys.readouterr()
        assert simulated == [(0.1, 16), (0.3, 16), (0.8, 16)]

    def test_fig7_command_with_small_overrides(self, capsys):
        exit_code = main(["fig7", "--sizes", "16,32", "--queries", "3"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Figure 7" in captured.out

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["fig4", "--sizes", "1,x"], id="sizes"),
            pytest.param(["fig4", "--sizes", ""], id="sizes-empty"),
            pytest.param(["fig4", "--alphas", "0.1,x"], id="alphas"),
            pytest.param(["fault-sweep", "--intensities", "0,x"], id="intensities"),
        ],
    )
    def test_invalid_sizes_rejected(self, capsys, argv):
        """A malformed or empty list is a usage error, not a traceback."""
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert f"argument {argv[1]}: invalid" in error
        assert repr(argv[2]) in error


    @pytest.mark.parametrize("raw", ["-1", "1.5", "abc"])
    def test_invalid_trace_limit_rejected(self, capsys, raw):
        """Refused by argparse — before any daemon is dialled — in one line."""
        with pytest.raises(SystemExit) as raised:
            main(["trace", "--limit", raw])
        assert raised.value.code == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert f"argument --limit: invalid span count {raw!r}" in error


class TestScenarioCommands:
    def test_list_scenarios(self, capsys):
        exit_code = main(["list-scenarios"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "table3-default" in captured.out
        assert "smoke" in captured.out

    def test_run_scenario_smoke(self, capsys):
        exit_code = main(
            ["run-scenario", "smoke", "--queries", "3", "--hours", "1", "--seed", "2"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Scenario 'smoke'" in captured.out
        assert "mean_query_messages" in captured.out

    def test_run_scenario_json(self, capsys):
        exit_code = main(
            ["run-scenario", "smoke", "--queries", "2", "--hours", "1", "--json"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(captured.out)
        assert payload["rows"][0]["queries"] == 2

    def test_run_scenario_with_overrides(self, capsys):
        exit_code = main(
            [
                "run-scenario",
                "smoke",
                "--peers",
                "24",
                "--alpha",
                "0.5",
                "--queries",
                "2",
                "--hours",
                "1",
                "--json",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(captured.out)
        assert payload["rows"][0]["peers"] == 24
        assert payload["parameters"]["alpha"] == 0.5

    def test_run_scenario_defaults_to_scenario_horizon(self, capsys):
        """Without --hours, the scenario's own declared duration is used."""
        exit_code = main(["run-scenario", "smoke", "--queries", "1", "--json"])
        captured = capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(captured.out)
        assert payload["rows"][0]["simulated_hours"] == 1.0  # smoke declares 1 h

    def test_run_scenario_requires_a_name(self, capsys):
        with pytest.raises(SystemExit):
            main(["run-scenario"])
        capsys.readouterr()

    def test_run_scenario_unknown_name_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run-scenario", "no-such-scenario"])
        captured = capsys.readouterr()
        assert "unknown scenario" in captured.err

    def test_stray_scenario_argument_rejected_for_other_commands(self, capsys):
        with pytest.raises(SystemExit):
            main(["tables", "stray-arg"])
        captured = capsys.readouterr()
        assert "only run-scenario" in captured.err


class TestStoreCommands:
    def test_save_load_roundtrip_sqlite(self, tmp_path, capsys):
        store = str(tmp_path / "runs.sqlite")
        exit_code = main(
            ["save-session", "smoke", "--store", store, "--name", "snap", "--json"]
        )
        saved = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert saved["rows"][0]["checkpoint"] == "snap"
        assert saved["rows"][0]["bytes"] > 0

        exit_code = main(
            ["load-session", "--store", store, "--name", "snap",
             "--queries", "2", "--json"]
        )
        loaded = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert loaded["rows"][0]["queries"] == 2
        assert loaded["rows"][0]["peers"] == saved["rows"][0]["peers"]

    def test_save_session_mid_run_and_inspect(self, tmp_path, capsys):
        """--hours checkpoints *inside* the horizon; load-session continues it."""
        store = str(tmp_path / "runs")
        exit_code = main(
            ["save-session", "smoke", "--store", store, "--hours", "0.5", "--json"]
        )
        saved = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert saved["rows"][0]["at_hours"] == pytest.approx(0.5)

        exit_code = main(["inspect-store", "--store", store, "--json"])
        inspected = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        kinds = {row["kind"] for row in inspected["rows"]}
        assert "checkpoint" in kinds

        # The interrupted-and-continued run matches the uninterrupted one:
        # load-session resumes at 0.5 h, runs to the smoke horizon (1 h) and
        # reports the same figures as a direct run-scenario.
        exit_code = main(["run-scenario", "smoke", "--queries", "3", "--json"])
        direct = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        exit_code = main(
            ["load-session", "--store", store, "--queries", "3", "--json"]
        )
        continued = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert continued["rows"][0]["simulated_hours"] == pytest.approx(1.0)
        for column in (
            "mean_results",
            "mean_query_messages",
            "mean_worst_stale_fraction",
            "push_messages",
            "reconciliations",
            "query_messages_total",
        ):
            assert continued["rows"][0][column] == direct["rows"][0][column]

    def test_delta_checkpoint_gc_restore_roundtrip(self, tmp_path, capsys):
        """checkpoint → delta → gc → restore, end to end through the CLI."""
        store = str(tmp_path / "runs.sqlite")
        main(
            ["save-session", "smoke", "--store", store, "--name", "base",
             "--hours", "0.25", "--json"]
        )
        capsys.readouterr()

        exit_code = main(
            ["save-session", "smoke", "--store", store, "--name", "tip",
             "--base", "base", "--hours", "0.5", "--json"]
        )
        tip = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert tip["rows"][0]["base"] == "base"
        assert tip["rows"][0]["at_hours"] == pytest.approx(0.5)
        # The delta document itself is smaller than the full base document.
        from repro.store import CHECKPOINT_KIND, SqliteBackend

        with SqliteBackend(store) as backend:
            assert backend.size_bytes(CHECKPOINT_KIND, "tip") < backend.size_bytes(
                CHECKPOINT_KIND, "base"
            )

        exit_code = main(["inspect-store", "--store", store, "--gc", "--json"])
        inspected = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        by_key = {(row["kind"], row["key"]): row for row in inspected["rows"]}
        assert by_key[("checkpoint", "tip")]["details"] == "delta of base"
        assert by_key[("checkpoint", "base")]["details"] == "full checkpoint"
        assert "reclaimed 0" in by_key[("gc", "report")]["details"]

        exit_code = main(
            ["load-session", "--store", store, "--name", "tip",
             "--queries", "3", "--json"]
        )
        continued = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        # The restored delta continues to the smoke horizon like a direct run.
        exit_code = main(["run-scenario", "smoke", "--queries", "3", "--json"])
        direct = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        for column in ("mean_results", "push_messages", "reconciliations"):
            assert continued["rows"][0][column] == direct["rows"][0][column]

    def test_inspect_store_compact_folds_delta_chains(self, tmp_path, capsys):
        store = str(tmp_path / "runs.sqlite")
        main(
            ["save-session", "smoke", "--store", store, "--name", "base",
             "--hours", "0.25", "--json"]
        )
        main(
            ["save-session", "smoke", "--store", store, "--name", "tip",
             "--base", "base", "--hours", "0.5", "--json"]
        )
        capsys.readouterr()

        exit_code = main(["inspect-store", "--store", store, "--compact", "--json"])
        inspected = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        by_key = {(row["kind"], row["key"]): row for row in inspected["rows"]}
        assert "tip" in by_key[("compact", "report")]["details"]
        assert by_key[("checkpoint", "tip")]["details"] == "full checkpoint"

        # The compacted tip still loads (now without its former base).
        from repro.store import CHECKPOINT_KIND, SqliteBackend

        with SqliteBackend(store) as backend:
            backend.delete(CHECKPOINT_KIND, "base")
        exit_code = main(
            ["load-session", "--store", store, "--name", "tip",
             "--queries", "2", "--json"]
        )
        assert exit_code == 0
        capsys.readouterr()

    def test_delta_against_missing_base_is_a_clean_error(self, tmp_path, capsys):
        store = str(tmp_path / "runs")
        with pytest.raises(SystemExit):
            main(
                ["save-session", "smoke", "--store", store, "--name", "tip",
                 "--base", "never-saved"]
            )
        assert "no checkpoint 'never-saved'" in capsys.readouterr().err

    def test_gc_dry_run_reports_without_deleting(self, tmp_path, capsys):
        store = str(tmp_path / "runs")
        main(["save-session", "smoke", "--store", store, "--name", "keep"])
        capsys.readouterr()
        exit_code = main(
            ["inspect-store", "--store", store, "--gc-dry-run", "--json"]
        )
        inspected = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        gc_rows = [row for row in inspected["rows"] if row["kind"] == "gc"]
        assert len(gc_rows) == 1
        assert "would reclaim" in gc_rows[0]["details"]

    def test_load_session_matches_run_scenario(self, tmp_path, capsys):
        """A saved-then-loaded scenario reports the same figures as a direct run."""
        exit_code = main(
            ["run-scenario", "smoke", "--queries", "3", "--seed", "5", "--json"]
        )
        direct = json.loads(capsys.readouterr().out)
        assert exit_code == 0

        store = str(tmp_path / "runs.sqlite")
        main(["save-session", "smoke", "--store", store, "--seed", "5", "--json"])
        capsys.readouterr()
        exit_code = main(
            ["load-session", "--store", store, "--queries", "3", "--json"]
        )
        loaded = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        for column in (
            "mean_results",
            "mean_query_messages",
            "mean_worst_stale_fraction",
            "push_messages",
            "reconciliations",
            "query_messages_total",
        ):
            assert loaded["rows"][0][column] == direct["rows"][0][column]

    def test_store_commands_require_store_flag(self, capsys):
        for command in (["save-session", "smoke"], ["load-session"],
                        ["inspect-store"]):
            with pytest.raises(SystemExit):
                main(command)
            assert "--store" in capsys.readouterr().err

    def test_load_unknown_checkpoint_rejected(self, tmp_path, capsys):
        store = str(tmp_path / "empty.sqlite")
        main(["save-session", "smoke", "--store", store, "--name", "exists"])
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["load-session", "--store", store, "--name", "missing"])
        assert "exists" in capsys.readouterr().err
