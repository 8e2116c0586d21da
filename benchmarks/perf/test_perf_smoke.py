"""Tier-1 smoke test of the benchmark: every workload, both modes, tiny scale.

The runs are made the way the driver makes them — ``run.py --workload W
--seed N --seconds S --trace T`` as a subprocess, result on the last stdout
line — and all at once, since a tiny run mostly waits on daemons starting and
stopping.  Nothing here looks at a timing's value: only that every declared
metric is there, that counts are exact, and that the trace is well formed.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.perf.layers import COMPOSITES
from benchmarks.perf.workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [workload.name for workload in WORKLOADS]
NAME_ALPHABET = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: The workload whose untraced run is repeated (same seed, another seed).
REPEATED = "io-maintenance-64"


def _launch(workload: str, seed: int, trace: int, out: Path) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--scale", "tiny", "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace), "--out", str(out),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``(workload, seed, trace, repeat) -> the run's record`` of its --out file."""
    directory = tmp_path_factory.mktemp("perf-smoke")
    keys = [(name, 1, trace, 0) for name in NAMES for trace in (0, 1)]
    keys += [(REPEATED, 1, 0, 1), (REPEATED, 2, 0, 0)]
    jobs = {}
    for index, key in enumerate(keys):
        out = directory / f"run-{index}.json"
        jobs[key] = (_launch(key[0], key[1], key[2], out), out)
    records = {}
    for key, (process, out) in jobs.items():
        stdout, stderr = process.communicate(timeout=300)
        assert process.returncode == 0, f"{key}: exit {process.returncode}\n{stderr}"
        (record,) = json.loads(out.read_text(encoding="utf-8"))["runs"]
        # The contract's result object is the last stdout line, nothing less.
        last_line = json.loads(stdout.strip().splitlines()[-1])
        assert set(last_line) == {"correct", "attempted", "failed", "metrics"}
        assert last_line["metrics"] == record["metrics"]
        records[key] = record
    return records


def test_contract_names_the_workloads_and_metrics_the_package_knows():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert CONTRACT["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in CONTRACT["workloads"]] == NAMES
    metrics = CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    names = [m["name"] for m in metrics] + NAMES
    assert len(set(names)) == len(names)
    assert all(NAME_ALPHABET.fullmatch(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"
    ).items()
    declared = {m["name"] for m in CONTRACT["per_layer"]}
    for parts, residual in COMPOSITES.values():
        assert set(parts) | {residual} <= declared


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_declared_metric_is_emitted_with_its_unit(runs, workload, trace):
    record = runs[(workload, 1, trace, 0)]
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in record["metrics"].items()
    }
    for name, metric in record["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert math.isfinite(metric["value"]), name
    # Nothing fails at the seed state: the correctness gate is part of a run.
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    if not trace:
        assert all(metric["value"] > 0 for metric in record["metrics"].values())


def test_exact_counts_repeat_for_a_seed_and_differ_across_seeds(runs):
    def exact(seed, repeat):
        record = runs[(REPEATED, seed, 0, repeat)]
        return record["metrics"]["checkpoint_full_bytes"]["value"], record["attempted"]

    assert exact(1, 0) == exact(1, 1)
    assert exact(1, 0)[0] != exact(2, 0)[0]


@pytest.mark.parametrize("workload", NAMES)
def test_trace_is_a_forest_with_non_negative_self_times(runs, workload):
    assert runs[(workload, 1, 1, 0)]  # the traced run wrote the file
    lines = (HERE / "out" / f"trace-{workload}.jsonl").read_text(encoding="utf-8")
    spans = [json.loads(line) for line in lines.splitlines()]
    ids = {span["id"] for span in spans}
    assert len(ids) == len(spans) > 0
    for span in spans:
        assert span["parent"] is None or span["parent"] in ids
        assert span["end"] >= span["start"]
        assert span["self_s"] >= -1e-9
    # Spans of one request share its identifier with the span that caused them.
    by_id = {span["id"]: span for span in spans}
    requests = [s for s in spans if s["name"] == "served.request"]
    assert requests and all(
        by_id[s["parent"]]["name"] == "served" and s["request"] for s in requests
    )


@pytest.mark.parametrize("workload", NAMES)
def test_replayed_parts_and_residual_reproduce_the_composite(runs, workload):
    record = runs[(workload, 1, 1, 0)]
    value = {name: metric["value"] for name, metric in record["metrics"].items()}
    for composite, (parts, residual) in COMPOSITES.items():
        whole = record["composites"][composite]
        rebuilt = sum(value[part] for part in parts) + value[residual]
        assert rebuilt == pytest.approx(whole, rel=0.1)
