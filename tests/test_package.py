"""The lazily loaded package namespace and the contract of the value types."""

import os
import pickle
import subprocess
import sys

import pytest

import balanceable
from balanceable import (
    BalancedCopy,
    ConditionId,
    ConstructionResult,
    CutInstance,
    FamilyParams,
    Graph,
    Obstruction,
    ObstructionKind,
    Verdict,
    VertexSet,
)
from balanceable.conditions import ConditionReport
from balanceable.oracle import BalanceWitness

MODULES = ("conditions", "families", "graphs", "oracle", "ramsey", "reduction", "witnesses")
SRC = os.path.dirname(os.path.dirname(balanceable.__file__))


def run_python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=60,
    )


def test_all_concatenates_the_modules_all_in_order():
    expected = [name for module in MODULES for name in getattr(balanceable, module).__all__]
    assert balanceable.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from balanceable import *", namespace)
    for name in balanceable.__all__:
        assert namespace[name] is getattr(balanceable, name)


def test_first_public_name_binds_the_whole_namespace():
    """Before any public name is asked for, the bare package holds none;
    after one, ``vars(balanceable)`` holds exactly what star imports of the
    seven modules would bind: ``__all__``, every public name and the seven
    modules, and no ``__getattr__`` hook."""
    proc = run_python(
        "import balanceable, sys\n"
        "assert 'Graph' not in vars(balanceable)\n"
        "assert not any(m.startswith('balanceable.') for m in sys.modules)\n"
        "balanceable.cycle\n"
        "dunders = {k for k in vars(balanceable) if k.startswith('__')}\n"
        "expected = set(balanceable.__all__) | set(MODULES) | dunders\n"
        "assert set(vars(balanceable)) == expected, set(vars(balanceable)) ^ expected\n"
        "assert '__all__' in dunders and '__getattr__' not in dunders\n"
        .replace("MODULES", repr(MODULES))
    )
    assert proc.returncode == 0, proc.stderr


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        balanceable.no_such_name
    with pytest.raises(AttributeError, match="no attribute '_private'"):
        balanceable._private
    proc = run_python(
        "import balanceable, sys\n"
        "assert not hasattr(balanceable, '__wrapped__')\n"
        "assert not any(m.startswith('balanceable.') for m in sys.modules)\n"
        "assert not hasattr(balanceable, 'no_such_name')\n"
        "assert 'Graph' in vars(balanceable)\n"
    )
    assert proc.returncode == 0, proc.stderr


G = Graph(2, [(0, 1)])
W = BalanceWitness(VertexSet(2, 1), VertexSet(2, 3), 1, 1)
VS = "VertexSet(n=2, mask=1)"
WS = f"BalanceWitness(cut_side={VS}, induced_set=VertexSet(n=2, mask=3), cut_edges=1, induced_edges=1)"

# (build one value, its repr, a field to assign) for each value type
VALUES = [
    (lambda: VertexSet(3, 5), "VertexSet(n=3, mask=5)", "mask"),
    (lambda: CutInstance(G, 1), "CutInstance(graph=Graph(n=2, m=1), k=1)", "k"),
    (
        lambda: ConditionReport(ConditionId.BIG_VERTEX, "inapplicable", None, "no vertex"),
        "ConditionReport(condition=<ConditionId.BIG_VERTEX: 'BigVertex'>, "
        "outcome='inapplicable', witness=None, note='no vertex')",
        "note",
    ),
    (lambda: FamilyParams("cycle", (12,)), "FamilyParams(kind='cycle', args=(12,))", "kind"),
    (
        lambda: Obstruction(ObstructionKind.PARITY, "odd"),
        "Obstruction(kind=<ObstructionKind.PARITY: 'ParityEulerian'>, detail='odd')",
        "detail",
    ),
    (lambda: W, WS, "cut_edges"),
    (
        lambda: Verdict.balanceable(W),
        f"Verdict(status='Balanceable', witness={WS}, obstruction=None, reason=None)",
        "status",
    ),
    (lambda: BalancedCopy((0, 1), 1), "BalancedCopy(embedding=(0, 1), red_edges=1)", "red_edges"),
    (
        lambda: ConstructionResult(G, "case", Verdict.undecided("out"), VertexSet(2, 1), "notes"),
        "ConstructionResult(graph=Graph(n=2, m=1), case_id='case', verdict=Verdict("
        f"status='Undecided', witness=None, obstruction=None, reason='out'), independent_set={VS}, "
        "notes='notes')",
        "notes",
    ),
]


@pytest.mark.parametrize("build, text, field", VALUES, ids=[v[1].split("(")[0] for v in VALUES])
def test_value_type_contract(build, text, field):
    value, twin = build(), build()
    assert value == twin and hash(value) == hash(twin)
    assert repr(value) == text
    assert pickle.loads(pickle.dumps(value)) == value
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    assert getattr(value, field) == getattr(twin, field)


def test_slotted_values_differ_by_field_and_class():
    assert VertexSet(3, 5) != VertexSet(3, 4)
    assert VertexSet(3, 5) != VertexSet(4, 5)
    assert VertexSet(3, 5) != (3, 5)
    assert CutInstance(G, 1) != CutInstance(G, 0)
    with pytest.raises(AttributeError, match="cannot delete field 'mask'"):
        del VertexSet(3, 5).mask
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        VertexSet(3, 5).extra = 1


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: VertexSet(-1, 0), "owner size must be nonnegative"),
        (lambda: VertexSet(3, 8), "mask 0x8 out of range for n=3"),
        (lambda: VertexSet(3, -1), "mask -0x1 out of range for n=3"),
        (lambda: CutInstance(G, 2), "target 2 outside 0..1"),
        (lambda: CutInstance(G, -1), "target -1 outside 0..1"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message
