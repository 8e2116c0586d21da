"""What a serving process imports — pinned by count, not by time.

A daemon's start is mostly ``import``.  ``networkx`` (318 modules) used to be
a third of it, imported at module level by the overlay, the topology generator
and the checkpoint reader, though a process that restores a checkpoint
generates no topology; ``asyncio`` came in through ``repro.runtime`` though a
loop only ever runs under an I/O model.  Both now load where they are used.
One subprocess walks a worker's whole life short of the socket — import the
worker module, open a checkpoint read-only, answer, restore it for real and run
it on — and must end without either; a static pass holds the rule at its source.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import repro
from repro.store.checkpoint import save_session
from repro.workloads.registry import default_registry

#: Top-level packages a process that only restores and serves must not load.
HEAVY = ("networkx", "asyncio")

WORKER_LIFE = """
import json, sys
import repro.serve.worker
from repro.store.checkpoint import open_readonly_session, restore_session

with open_readonly_session(sys.argv[1]) as readonly:
    results = readonly.query(required_results=3).results
session = restore_session(sys.argv[1])
processed = session.run_until(session.now + 600.0)
heavy = sorted(name for name in sys.modules if name.split(".")[0] in sys.argv[2:])
print(json.dumps({"results": results, "processed": processed, "heavy": heavy,
                  "modules": len(sys.modules)}))
"""


def test_a_worker_restores_answers_and_runs_without_networkx_or_asyncio(tmp_path):
    scenario = default_registry().scenario("smoke")  # 32 peers, churn pending
    store = str(tmp_path / "smoke.sqlite")
    save_session(scenario.apply_dynamics(scenario.builder()).build(), store)
    completed = subprocess.run(
        [sys.executable, "-c", WORKER_LIFE, store, *HEAVY],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    report = json.loads(completed.stdout)
    assert report["results"] > 0 and report["processed"] > 0  # it did the work
    assert report["heavy"] == []
    # 599 when the three modules imported networkx at the top; ≈250 now.  A
    # loose ceiling: what it guards against is a library, not a module.
    assert report["modules"] < 400


def _runtime_imports(tree):
    """``(module name, inside a function)`` of every import that can execute."""

    def walk(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and "TYPE_CHECKING" in ast.dump(child.test):
                continue  # never runs
            if isinstance(child, ast.Import):
                for alias in child.names:
                    yield alias.name, in_function
            elif isinstance(child, ast.ImportFrom):
                yield child.module or "", in_function
            else:
                is_function = isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                )
                yield from walk(child, in_function or is_function)

    return walk(tree, False)


def test_networkx_is_imported_by_the_topology_generator_alone_and_lazily():
    package = Path(repro.__file__).parent
    importers = {}
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [
            in_function
            for name, in_function in _runtime_imports(tree)
            if name.split(".")[0] == "networkx"
        ]
        if scopes:
            importers[path.relative_to(package).as_posix()] = scopes
    assert list(importers) == ["network/topology.py"]
    assert all(importers["network/topology.py"])  # each inside a function
