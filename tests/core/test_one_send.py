"""Every protocol message is charged, and faulted, in one place.

``repro.core.domain.send`` is the only code in ``repro.core`` that charges the
message counter (``record_type``) or hands a message to a fault plan
(``FaultInjector.send``): whether a message can be lost does not depend on
which handler sends it.  A static pass holds that at its source; the unit
tests hold the function to its docstring.
"""

import ast
from pathlib import Path

import repro.core
from repro.core.domain import send
from repro.network.faults import FaultInjector, FaultPlan, LinkFaults
from repro.network.messages import MessageType
from repro.network.metrics import MessageCounter

CORE = Path(repro.core.__file__).parent
#: Method calls only the one send may make.
CHARGES = {"record_type", "send"}


class _ChargingCalls(ast.NodeVisitor):
    """``(module, innermost enclosing function, method)`` of each charging call."""

    def __init__(self, module):
        self.module, self.functions, self.found = module, [None], []

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        if isinstance(node.func, ast.Attribute) and node.func.attr in CHARGES:
            self.found.append((self.module, self.functions[-1], node.func.attr))
        self.generic_visit(node)


def _charging_calls():
    calls = []
    for path in sorted(CORE.glob("*.py")):
        visitor = _ChargingCalls(path.name)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        calls.extend(visitor.found)
    return calls


def test_only_the_one_send_charges_or_faults_a_message():
    calls = _charging_calls()
    outside = sorted({call for call in calls if call[:2] != ("domain.py", "send")})
    assert outside == []
    # Not vacuous: the one send does both.
    assert {method for _module, _function, method in calls} == CHARGES


def test_without_a_plan_a_send_is_one_add_and_reaches_everyone():
    counter = MessageCounter()
    delivered, missed, retries = send(
        counter, None, MessageType.RELEASE, "sp", ["a", "b"], 3
    )
    assert (set(delivered), set(missed), retries) == ({"a", "b"}, set(), 0)
    assert counter.by_type() == {MessageType.RELEASE: 2}
    assert counter.dropped_total == counter.retry_total == 0


def test_a_count_without_targets_never_touches_the_plan():
    faults = FaultInjector(FaultPlan(seed=1, link=LinkFaults(drop_probability=1.0)))
    faults.set_partition([["a"], ["b"]])
    before = faults.rng.getstate()
    counter = MessageCounter()
    send(counter, faults, MessageType.FIND, count=5)
    send(counter, faults, MessageType.FLOOD_QUERY, count=0)
    assert counter.by_type() == {MessageType.FIND: 5, MessageType.FLOOD_QUERY: 0}
    assert counter.dropped_total == counter.retry_total == 0
    assert faults.rng.getstate() == before


def test_with_a_plan_the_send_charges_what_the_plan_did():
    faults = FaultInjector(FaultPlan(seed=1, link=LinkFaults(drop_probability=1.0)))
    counter = MessageCounter()
    delivered, missed, retries = send(counter, faults, MessageType.PUSH, "a", ("b",), 3)
    assert (delivered, missed, retries) == (set(), {"b"}, 3)
    assert counter.count(MessageType.PUSH) == 4  # every attempt, all of them lost
    assert counter.dropped_by_reason() == {"link loss": 4}
