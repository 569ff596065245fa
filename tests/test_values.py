"""Value semantics of the package's classes, and what the CLI imports.

A value equals only an object of its own class with equal fields, and
hashes as the tuple of its fields; its repr is ``Name(field=value, ...)``.
The reports leave their classical pass out of equality and repr, and are
unhashable; the frozen classes refuse assignment and deletion.  Each
constructor binds positional and keyword arguments to its parameters, in
order, and refuses missing, extra, unknown and repeated ones.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from stablemodels import (
    BOT,
    TOP,
    And,
    AtomRef,
    Bottom,
    DepGraph,
    GraphKind,
    Implies,
    ModelReport,
    Or,
    OccurrenceContext,
    RuleOccurrence,
    SplitReport,
    analyze,
    check_split,
    parse_formula,
    parse_theory,
)
from stablemodels.formula import Value, _compile
from stablemodels.fuzz import FuzzResult
from stablemodels.semantics import _Classical, _classical_pass

SRC = Path(__file__).resolve().parent.parent / "src"

p, q = AtomRef("p"), AtomRef("q")


def split_report() -> SplitReport:
    return check_split(
        parse_formula("p"), parse_formula("p -> q"), {"p"}, {"q"}, GraphKind.SP
    )


def classical_pass() -> _Classical:
    return _classical_pass(*_compile(parse_theory("p.")))


# Each hashable value, its fields, and its repr.
HASHABLE = [
    (Bottom(), (), "Bottom()"),
    (p, ("p",), "AtomRef(name='p')"),
    (And(p, q), (p, q), "And(left=AtomRef(name='p'), right=AtomRef(name='q'))"),
    (Or(p, BOT), (p, BOT), "Or(left=AtomRef(name='p'), right=Bottom())"),
    (
        TOP,
        (BOT, BOT),
        "Implies(antecedent=Bottom(), consequent=Bottom())",
    ),
    (
        OccurrenceContext(0, False),
        (0, False),
        "OccurrenceContext(antecedent_count=0, negated=False)",
    ),
    (
        RuleOccurrence(p, BOT),
        (p, BOT),
        "RuleOccurrence(body=AtomRef(name='p'), head=Bottom())",
    ),
    (
        DepGraph(frozenset({"p"}), frozenset()),
        (frozenset({"p"}), frozenset()),
        "DepGraph(vertices=frozenset({'p'}), edges=frozenset())",
    ),
]


@pytest.mark.parametrize(
    "value, fields, text", HASHABLE, ids=[type(v).__name__ for v, _, _ in HASHABLE]
)
def test_hashable_values(value, fields, text):
    assert hash(value) == hash(fields)
    assert repr(value) == text
    same = type(value)(*fields)
    assert same == value and not same != value and same is not value
    # Neither a tuple of the same fields nor another class's value with
    # them is equal.
    assert value.__eq__(fields) is NotImplemented
    assert value != fields
    for other, other_fields, _ in HASHABLE:
        if type(other) is not type(value) and len(other_fields) == len(fields):
            assert type(other)(*fields) != value


def test_formula_nodes_differ_across_classes():
    assert And(p, q) != Or(p, q)
    assert Or(p, q) != Implies(p, q)
    assert And(p, q) == And(AtomRef("p"), AtomRef("q"))
    assert And(p, q) != And(q, p)
    assert len({And(p, q), Or(p, q), And(p, q)}) == 2


# Each frozen value and one of its fields.
FROZEN = [
    (p, "name"),
    (And(p, q), "left"),
    (Or(p, q), "right"),
    (TOP, "consequent"),
    (OccurrenceContext(0, False), "negated"),
    (RuleOccurrence(p, BOT), "body"),
    (DepGraph(frozenset({"p"}), frozenset()), "edges"),
    (analyze(parse_theory("p.")), "universe"),
    (analyze(parse_theory("p.")), "_c"),
    (split_report(), "_c"),
]


@pytest.mark.parametrize(
    "value, field", FROZEN, ids=[f"{type(v).__name__}.{f}" for v, f in FROZEN]
)
def test_frozen_values_refuse_assignment_and_deletion(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = None
    assert getattr(value, field) is before


def test_bottom_refuses_new_attributes():
    with pytest.raises(AttributeError):
        BOT.name = "p"


def test_model_report_ignores_its_pass():
    a, b = analyze(parse_theory("p.")), analyze(parse_theory("p."))
    assert a._c is not b._c
    assert a == b and not a != b
    assert a != analyze(parse_theory("not p -> p."))
    assert a.__eq__(split_report()) is NotImplemented
    assert repr(a) == (
        "ModelReport(universe=frozenset({'p'}), completion_theory=("
        "And(left=Implies(antecedent=AtomRef(name='p'), "
        "consequent=Implies(antecedent=Bottom(), consequent=Bottom())), "
        "right=Implies(antecedent=Implies(antecedent=Bottom(), "
        "consequent=Bottom()), consequent=AtomRef(name='p'))),), "
        "_classical=[1], _stable=[1], _supported=[1], _pointwise=[1])"
    )
    with pytest.raises(TypeError):
        hash(a)
    assert isinstance(a, ModelReport)


def test_split_report_ignores_its_pass():
    a, b = split_report(), split_report()
    assert a._c is not b._c
    assert a == b and not a != b
    assert repr(a) == (
        "SplitReport(kind=<GraphKind.SP: 'sp'>, cond_i_offenders=frozenset(), "
        "cond_ii_offenders=frozenset(), cond_iii_offender=None, "
        "equivalence_holds=True, _names=['q', 'p'], _whole=[3], "
        "_part_f=[2, 3], _part_g=[0, 3])"
    )
    with pytest.raises(TypeError):
        hash(a)


def test_fuzz_result_is_a_mutable_value():
    a = FuzzResult("x", 1, 2, [])
    assert a == FuzzResult("x", 1, 2, []) and a.ok
    assert a != FuzzResult("x", 1, 3, [])
    assert a.__eq__(("x", 1, 2, [])) is NotImplemented
    assert repr(a) == (
        "FuzzResult(property_name='x', seed=1, checked=2, violations=[])"
    )
    with pytest.raises(TypeError):
        hash(a)
    a.checked = 3
    a.violations.append("v")
    assert a == FuzzResult("x", 1, 3, ["v"]) and not a.ok


def test_classical_pass_value():
    c = classical_pass()
    assert repr(c) == (
        "_Classical(names=['p'], ops=[(0, 'p', 0)], atom_tables={'p': 2}, "
        "vals=[2], candidates=2, parts=((-1, 0),))"
    )
    other = _Classical(c.names, c.ops, c.atom_tables, c.vals, 0, c.parts)
    assert c == classical_pass() and c != other
    with pytest.raises(TypeError):
        hash(c)


# Each of the twelve value classes, by an instance and its constructor's
# parameters in order.  The reports' constructors also take their pass,
# ``_c``, which their fields leave out; a ``ModelReport`` takes its
# completion as ops, ``_completion``, which its field
# ``completion_theory`` decodes.
CONSTRUCTED = [(value, value._fields) for value, _, _ in HASHABLE] + [
    (
        analyze(parse_theory("p.")),
        (
            "universe", "_completion", "_c", "_classical", "_stable",
            "_supported", "_pointwise",
        ),
    ),
    (
        split_report(),
        (
            "kind", "cond_i_offenders", "cond_ii_offenders",
            "cond_iii_offender", "equivalence_holds", "_names", "_c",
            "_whole", "_part_f", "_part_g",
        ),
    ),
    (FuzzResult("x", 1, 2, []), FuzzResult._fields),
    (classical_pass(), _Classical._fields),
]


@pytest.mark.parametrize(
    "value, params", CONSTRUCTED, ids=[type(v).__name__ for v, _ in CONSTRUCTED]
)
def test_constructor_binds_positional_and_keyword_arguments(value, params):
    cls = type(value)
    args = [getattr(value, name) for name in params]
    kwargs = dict(zip(params, args))
    mixed = cls(*args[:1], **dict(zip(params[1:], args[1:])))
    for other in (cls(*args), cls(**kwargs), mixed):
        assert other == value
        # Each argument is bound to its own name, ``_c`` included.
        for name, arg in kwargs.items():
            assert getattr(other, name) is arg


@pytest.mark.parametrize(
    "value, params", CONSTRUCTED, ids=[type(v).__name__ for v, _ in CONSTRUCTED]
)
def test_constructor_refuses_bad_arguments(value, params):
    cls = type(value)
    args = [getattr(value, name) for name in params]
    kwargs = dict(zip(params, args))
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args, unknown=None)
    with pytest.raises(TypeError):
        cls(**kwargs, unknown=None)
    for name in params:
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in kwargs.items() if k != name})
        with pytest.raises(TypeError):
            cls(*args, **{name: kwargs[name]})
    if params:
        with pytest.raises(TypeError):
            cls(*args[:-1])


def test_values_share_one_constructor():
    """Only the formula nodes, which fuzz builds in bulk, and the
    classical pass, which also sets its memos, define their own."""
    for cls in (
        ModelReport, SplitReport, DepGraph, OccurrenceContext, RuleOccurrence,
        FuzzResult,
    ):
        assert "__init__" not in vars(cls), cls
        assert cls.__init__ is Value.__init__


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Start-up cost: the CLI imports neither module, directly or through
    a dependency, so a later import cannot quietly bring them back."""
    probe = (
        "import sys, stablemodels.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
