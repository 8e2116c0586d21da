"""What a serving process imports — pinned by module, not by time.

A daemon's start is mostly ``import``, and in a shell that writes no bytecode
every imported module is compiled on every start.  ``networkx`` (318 modules)
used to be a third of it, imported at module level by the overlay, the
topology generator and the checkpoint reader, though a process that restores
a checkpoint generates no topology; ``asyncio`` came in through
``repro.runtime`` though a loop only ever runs under an I/O model.  Then every
package ``__init__`` imported its whole package, and the checkpoint reader,
protocol and session imported the real-content, fault and concurrent-runtime
modules at module level: a planned open loaded 81 ``repro`` modules (253 in
all).  Packages now resolve their names on first access, and a module that
only real content, faults or the concurrent backend reaches is imported in
the branch that reaches it.

One subprocess walks a worker's whole life short of the socket — import the
worker module, open a checkpoint read-only, decode and answer a request,
restore it for real and run it on — recording ``sys.modules`` after the open
and after the first answer.  A real-content open imports everything a real
query reaches, so the first answer imports nothing on either kind: the cost is
saved, not moved into ``served_query_ms_p50``.  A static pass holds the
``networkx`` rule at its source.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.config import ProtocolConfig
from repro.core.session import SystemBuilder
from repro.fuzzy.vocabularies import medical_background_knowledge
from repro.network.overlay import Overlay
from repro.network.topology import TopologyConfig
from repro.serve import wire
from repro.store.checkpoint import save_session
from repro.workloads.patients import MedicalWorkload, build_peer_databases
from repro.workloads.queries import QueryWorkload
from repro.workloads.registry import default_registry

#: Top-level packages a process that only restores and serves must not load.
HEAVY = ("networkx", "asyncio")

#: What no serving process needs, whatever its checkpoint: the fleet's other
#: side, the concurrent runtime, fault injection, topology generation and GC.
NOT_SERVED = (
    "repro.serve.supervisor",
    "repro.serve.client",
    "repro.serve.chaos",
    "repro.serve.cache",
    "repro.runtime.concurrent",
    "repro.network.faults",
    "repro.network.topology",
    "repro.store.gc",
)
#: Packages no serving process needs.
NOT_SERVED_PACKAGES = ("repro.workloads", "repro.experiments")
#: What only real content reaches.
REAL_CONTENT = ("repro.core.service", "repro.core.approximate")
REAL_CONTENT_PACKAGES = (
    "repro.saintetiq",
    "repro.database",
    "repro.fuzzy",
    "repro.querying",
)

WORKER_LIFE = """
import json, sys
import repro.serve.worker
from repro.serve import wire
from repro.serve.server import background_from_name
from repro.store.checkpoint import open_readonly_session, restore_session

store, background, query = sys.argv[1], background_from_name(sys.argv[2] or None), None
with open_readonly_session(store, background=background) as readonly:
    opened = sorted(sys.modules)
    if sys.argv[3]:
        query = wire.decode_query(json.loads(sys.argv[3]))
    answer = readonly.query(query=query, required_results=3)
    wire.encode_answer(answer)
    first_answer = sorted(set(sys.modules).difference(opened))
session = restore_session(store, background=background)
processed = session.run_until(session.now + 600.0)
print(json.dumps({"results": answer.results, "processed": processed,
                  "opened": opened, "first_answer": first_answer,
                  "loaded": sorted(sys.modules)}))
"""


def _live(store, background="", query=None):
    completed = subprocess.run(
        [
            sys.executable, "-c", WORKER_LIFE, store, background,
            "" if query is None else json.dumps(wire.encode_query(query)),
        ],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    report = json.loads(completed.stdout)
    assert report["results"] > 0 and report["processed"] > 0  # it did the work
    return report


@pytest.fixture(scope="module")
def planned_life(tmp_path_factory):
    scenario = default_registry().scenario("smoke")  # 32 peers, churn pending
    store = str(tmp_path_factory.mktemp("diet") / "smoke.sqlite")
    save_session(scenario.apply_dynamics(scenario.builder()).build(), store)
    return _live(store)


@pytest.fixture(scope="module")
def real_life(tmp_path_factory):
    overlay = Overlay.generate(TopologyConfig(peer_count=8, seed=3))
    workload = MedicalWorkload(records_per_peer=6, matching_fraction=0.25, seed=3)
    session = (
        SystemBuilder()
        .topology(overlay)
        .background(medical_background_knowledge())
        .protocol(ProtocolConfig(superpeer_fraction=1 / 4, construction_ttl=3))
        .real_content(build_peer_databases(overlay.peer_ids, workload))
        .modifications(600.0, 0.01)
        .seed(3)
        .build()
    )
    store = str(tmp_path_factory.mktemp("diet") / "real.sqlite")
    save_session(session, store)
    return _live(store, "medical", QueryWorkload(query_count=1, seed=1).generate()[0])


def _matching(modules, names, packages):
    return [
        module
        for module in modules
        if module in names or any(module.split(".")[:2] == p.split(".") for p in packages)
    ]


def test_a_worker_restores_answers_and_runs_without_networkx_or_asyncio(planned_life):
    heavy = [m for m in planned_life["loaded"] if m.split(".")[0] in HEAVY]
    assert heavy == []


@pytest.mark.parametrize("life", ["planned_life", "real_life"])
def test_a_first_answer_imports_nothing(request, life):
    assert request.getfixturevalue(life)["first_answer"] == []


def test_a_planned_worker_loads_no_real_content_fleet_or_experiment_module(
    planned_life,
):
    loaded = planned_life["loaded"]
    assert _matching(
        loaded,
        NOT_SERVED + REAL_CONTENT,
        NOT_SERVED_PACKAGES + REAL_CONTENT_PACKAGES,
    ) == []
    # Before packages were lazy a planned open loaded 81 ``repro`` modules and
    # 253 in all; it is 39 and 208 now (Python 3.11), and the run-on loads
    # nothing more.  The total varies a little with the standard library.
    opened_repro = [m for m in planned_life["opened"] if m.split(".")[0] == "repro"]
    assert len(opened_repro) <= 39
    assert len(planned_life["opened"]) <= 225
    assert loaded == planned_life["opened"]


def test_a_real_content_worker_loads_no_workload_fleet_or_experiment_module(
    real_life,
):
    assert _matching(real_life["loaded"], NOT_SERVED, NOT_SERVED_PACKAGES) == []
    # 81 / 253 before packages were lazy, as for planned; 67 / 239 now.
    opened_repro = [m for m in real_life["opened"] if m.split(".")[0] == "repro"]
    assert len(opened_repro) <= 67
    assert len(real_life["opened"]) <= 255


CLI_LIFE = """
import contextlib, io, json, sys
from repro.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    try:
        main(sys.argv[1:])
    except SystemExit:
        pass
print(json.dumps(sorted(sys.modules)))
"""


@pytest.mark.parametrize("argv", [["serve", "--help"], ["list-scenarios"]])
def test_the_cli_loads_no_experiment_to_serve_or_list(argv):
    completed = subprocess.run(
        [sys.executable, "-c", CLI_LIFE, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    loaded = json.loads(completed.stdout)
    assert _matching(loaded, (), ("repro.experiments",)) == []


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
