"""Run the benchmark: ``python3 benchmarks/perf/run.py`` (or ``-m benchmarks.perf.run``).

With ``--workload NAME --trace 0|1`` (how the driver calls it) one run is
made and the last stdout line is the result object of the contract: the
end-to-end metrics untraced, the per-layer metrics traced.  Without them every
workload is run both ways and every metric is printed by name with its unit.
The exit code is non-zero when any correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
# Runnable from any directory and without PYTHONPATH (the driver sets none).
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

try:
    import repro  # noqa: F401 - the program under measurement must be present
except ImportError as exc:
    sys.exit(f"benchmarks.perf needs the repro sources under {ROOT / 'src'}: {exc}")

from benchmarks.perf.daemons import OUT_DIR, Sandbox  # noqa: E402
from benchmarks.perf.journey import Journey  # noqa: E402
from benchmarks.perf.layers import COMPOSITES, LayerProbe, per_layer  # noqa: E402
from benchmarks.perf.tracing import Recorder  # noqa: E402
from benchmarks.perf.workloads import WORKLOADS, find_workload  # noqa: E402

#: What a round's phases add up to (the traced / untraced comparison).
_PHASES = (
    "build_s", "maintain_s", "checkpoint_full_s", "checkpoint_delta_s",
    "restore_s", "cold_first_answer_s", "local_queries_s", "served_s",
)


def load_contract() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, scale: str = "full"
) -> Dict[str, Any]:
    """One run of one workload; returns its verdict and metric values."""
    workload = find_workload(name, scale)
    rec = Recorder()
    composites: Dict[str, float] = {}
    with Sandbox() as sandbox:
        journey = Journey(workload, seed, sandbox, rec)
        if trace:
            # One plain round, then the same round traced and probed: their
            # ratio is what tracing costs.
            probe = journey.probe = LayerProbe(journey)
            journey.round()
            rec.enabled = True
            journey.round()
            journey.finish()
            plain, traced = (
                sum(journey.samples[phase][index] for phase in _PHASES)
                for index in (0, 1)
            )
            values = per_layer(journey, probe, traced / plain)
            composites = {name: journey.median(name) for name in COMPOSITES}
            rec.write_jsonl(OUT_DIR / f"trace-{name}.jsonl")
        else:
            # As many rounds as fit in ``seconds`` (a round that would end
            # past them, going by the last one, is not begun), and never
            # fewer than the workload's minimum.
            started = time.perf_counter()
            while True:
                began = time.perf_counter()
                journey.round()
                now = time.perf_counter()
                if (
                    journey.rounds >= workload.min_rounds
                    and (now - started) + (now - began) > seconds
                ):
                    break
            journey.finish()
            values = journey.end_to_end()
        # Always kept beside the results, so drift shows in any comparison.
        yardstick_ms = journey.median("bench.yardstick_ms")
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "rounds": journey.rounds,
        "correct": not journey.failures,
        "attempted": journey.attempted,
        "failed": len(journey.failures),
        "failures": journey.failures[:20],
        "values": values,
        #: Traced runs: the composite figures the replayed parts add up to.
        "composites": composites,
        "yardstick_ms": yardstick_ms,
        #: Every round's figure of every sampled key (raw, and the end-to-end
        #: timings at the reference speed), for studying noise.
        "samples": journey.samples,
        "calibrated": journey.calibrated,
    }


def contract_result(run: Dict[str, Any], contract: Dict[str, Any]) -> Dict[str, Any]:
    """The result object of the contract, units taken from BENCHMARK.json."""
    declared = contract["per_layer" if run["trace"] else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(units) != set(run["values"]):
        raise SystemExit(
            "emitted metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(run['values']))}, "
            f"undeclared {sorted(set(run['values']) - set(units))}"
        )
    return {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": run["values"][name], "unit": units[name]} for name in units
        },
    }


def fingerprint() -> Dict[str, Any]:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
    }


def print_run(run: Dict[str, Any], result: Dict[str, Any]) -> None:
    kind = "per-layer (traced)" if run["trace"] else "end-to-end"
    print(
        f"\n== {run['workload']}  seed={run['seed']}  {kind}  "
        f"rounds={run['rounds']}  checks={run['attempted']}  failed={run['failed']}  "
        f"yardstick={run['yardstick_ms']:.2f} ms"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}")
    for failure in run["failures"]:
        print(f"  FAILED: {failure}")


def append_out(
    path: str, machine: Dict[str, Any], run: Dict[str, Any], result: Dict[str, Any]
) -> None:
    """Append this run to a results file ``benchmarks.perf.compare`` reads."""
    document = {"fingerprint": machine, "runs": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    document["runs"].append(
        {
            "workload": run["workload"],
            "seed": run["seed"],
            "trace": run["trace"],
            "yardstick_ms": run["yardstick_ms"],
            "rounds": run["rounds"],
            "composites": run["composites"],
            "samples": run["samples"],
            "calibrated": run["calibrated"],
            **result,
        }
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument(
        "--trace", type=int, choices=[0, 1], nargs="?", const=1,
        help="1: the traced run (per-layer metrics); 0: end-to-end only; "
        "omitted: both",
    )
    parser.add_argument("--scale", choices=["tiny", "full"], default="full")
    parser.add_argument("--out", help="append every run to this JSON results file")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    machine = fingerprint()
    print(f"machine: {json.dumps(machine)}")
    failed = 0
    for name in names:
        for trace in modes:
            run = run_workload(name, args.seed, args.seconds, trace, args.scale)
            result = contract_result(run, contract)
            print_run(run, result)
            if args.out:
                append_out(args.out, machine, run, result)
            failed += run["failed"]
            # The contract's result line: last on stdout for a single run.
            print(json.dumps(result), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
