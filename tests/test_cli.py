"""Unit tests for the experiment CLI."""

import json
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


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

    def test_defaults(self):
        args = build_parser().parse_args(["tables"])
        # hours/seed stay unset so run-scenario can fall back to the
        # scenario's own declaration; figure commands resolve them to 6 h / 0.
        assert args.hours is None
        assert args.seed is None
        assert not args.json


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

    def test_run_scenario_cache_dir_produces_identical_output(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        args = ["run-scenario", "smoke", "--queries", "2", "--json",
                "--cache-dir", cache]
        assert main(args) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["rows"] == cold["rows"]

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
