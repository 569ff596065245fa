"""Formula AST, its op table, and printing from the ops.

Formulas are built from atoms and bottom with the binary connectives
``&``, ``|`` and ``->``.  Negation and the biconditional are surface
sugar only: ``not F`` is stored as ``F -> bot`` and ``F <-> G`` as the
conjunction of both implications.  Production reads op tables, one op
per distinct node: the parser emits them as it reads a text, fuzz as
it draws one, and ``_compile`` walks a tree into the same table;
``_formulas`` turns ops of a table back into nodes, for the parser's
tree entry points, the set-level API and fuzz's tree campaigns.
``print_tokens`` prints from the ops by index, so production prints
every text, a program's completion included, with no tree;
``print_formula`` compiles its tree first, for the library and the
messages of fuzz's tree campaigns.  The walks that define the
occurrence analyses live in ``oracle``.

The nodes are ``Frozen`` values: equal only to a node of their own
class with equal operands, hashed as the tuple of them, shown as
``And(left=..., right=...)``, and immutable.  ``Value`` and ``Frozen``
give the package's other small values (the reports, ``DepGraph``, the
occurrences, ``FuzzResult``) the semantics that ``@dataclass`` and
``@dataclass(frozen=True)`` would, written out by hand: importing
``dataclasses`` pulls in ``inspect`` and ``ast`` and runs a code
generator per class, a large share of the CLI's start-up
(``tests/startup.py`` times it).  Those values share one constructor,
``Value.__init__``, which binds its arguments to the class's field
names, or to ``_params`` where the constructor takes more than the
fields.  The nodes, which fuzz's tree campaigns decode from drawn
op tables (``_formulas``) and reduce by the tens of thousands per cycle,
and ``semantics._Classical``, built once per analysed theory and setting
its memos, keep explicit constructors, which bind faster.
"""

from __future__ import annotations

import functools
from typing import Iterable, Optional

Atom = str


class Value:
    """Equality and repr read off ``_fields``, the names of a class's
    fields in order, as ``@dataclass`` makes them: an object equals only
    one of its own class with equal fields, and shows as
    ``Name(field=value, ...)``.  Unhashable, as it is mutable.

    The one constructor binds its positional and keyword arguments to
    ``_params``, the constructor's parameters in order, and sets each
    with ``object.__setattr__``, which a ``Frozen`` value needs.  A class
    sets ``_params`` only when its constructor also takes a value that
    its fields leave out, as the reports take their pass; otherwise the
    parameters are the fields.  The formula nodes and the classical pass
    keep constructors of their own: fuzz decodes and reduces tens of
    thousands of nodes per cycle and builds a pass per analysed theory,
    and an explicit signature binds them at about half the cost."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _params: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        names = self._params or self._fields
        if kwargs or len(args) != len(names):
            bound = dict(zip(names, args), **kwargs)
            # Fewer names bound than arguments given: a name given twice,
            # or too many arguments.
            if len(bound) < len(args) + len(kwargs) or set(bound) != set(names):
                raise TypeError(f"{type(self).__name__}() takes ({', '.join(names)})")
            args = [bound[name] for name in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        # A plain loop: a comprehension or ``map`` would add a frame per
        # level of a deep formula, which would then hit the recursion
        # limit sooner than the dataclass repr did.
        shown = []
        for name, value in zip(self._fields, self._values()):
            shown.append(f"{name}={value!r}")
        return f"{type(self).__qualname__}({', '.join(shown)})"


class Frozen(Value):
    """A ``Value`` as ``@dataclass(frozen=True)`` makes it: hashed as the
    tuple of its fields, and refusing assignment and deletion, so that a
    constructor sets its fields with ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Formula(Frozen):
    """Base class for AST nodes; all nodes are immutable and hashable."""

    __slots__ = ()


class Bottom(Formula):
    __slots__ = ()


class AtomRef(Formula):
    __slots__ = _fields = ("name",)

    def __init__(self, name: Atom):
        object.__setattr__(self, "name", name)


class And(Formula):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Or(Formula):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Implies(Formula):
    __slots__ = _fields = ("antecedent", "consequent")

    def __init__(self, antecedent: Formula, consequent: Formula):
        object.__setattr__(self, "antecedent", antecedent)
        object.__setattr__(self, "consequent", consequent)


BOT = Bottom()
#: Tautological body used when a bare atom is normalized to a rule.
TOP = Implies(BOT, BOT)

Theory = tuple[Formula, ...]


def neg(f: Formula) -> Formula:
    return Implies(f, BOT)


def conj(parts: Iterable[Formula]) -> Formula:
    """Left-associated conjunction; empty input yields the tautology."""
    parts = list(parts)
    return functools.reduce(And, parts) if parts else TOP


def atoms(f: Formula) -> frozenset[Atom]:
    """Atoms with at least one occurrence in ``f``."""
    out: set[Atom] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        kind = type(g)
        if kind is AtomRef:
            out.add(g.name)
        elif kind is Implies:
            stack += (g.antecedent, g.consequent)
        elif kind is And or kind is Or:
            stack += (g.left, g.right)
    return frozenset(out)


def theory_atoms(t: Iterable[Formula]) -> frozenset[Atom]:
    out: frozenset[Atom] = frozenset()
    for f in t:
        out |= atoms(f)
    return out


def is_nondisjunctive_rule(f: Formula) -> bool:
    """True for ``Body -> atom`` and for bare atoms (facts)."""
    return as_rule(f) is not None


def as_rule(f: Formula) -> Optional[tuple[Formula, Atom]]:
    """Normalize a nondisjunctive rule to (body, head atom).

    A bare atom gets the tautological body ``bot -> bot``.  Returns None
    for formulas that are not nondisjunctive rules.
    """
    if isinstance(f, AtomRef):
        return (TOP, f.name)
    if isinstance(f, Implies) and isinstance(f.consequent, AtomRef):
        return (f.antecedent, f.consequent.name)
    return None


def is_nondisjunctive_theory(t: Iterable[Formula]) -> bool:
    return all(is_nondisjunctive_rule(f) for f in t)


_ATOM, _BOT, _AND, _OR, _IMPLIES = range(5)
_CODES = {And: _AND, Or: _OR, Implies: _IMPLIES}
_NODES = {code: node for node, code in _CODES.items()}

Ops = list[tuple[int, Atom | int, int]]


def _compile(t: Iterable[Formula]) -> tuple[Ops, set[Atom]]:
    """Postorder ops ``(code, x, y)`` of the conjunction of ``t``, and its atoms.

    ``x`` is an atom's name, or a connective's left operand's op, and ``y``
    its right operand's op; the last op is the whole theory.  A node object
    that recurs, as ``not NES`` does in a loop formula and the operands of
    ``<->`` do, gets one op: the walk visits each distinct node once.  It
    keeps one stack: a connective met for the first time is pushed back,
    then a None, then its operands, right under left; when the None pops,
    both operands have their ops, and the connective below it gets its own.
    The parser emits the same ops as it reads a text, and fuzz as it
    draws one; ``_formulas`` turns ops back into nodes.
    """
    ops: Ops = []
    # Op by node id; no id is reused, as the stack holds the root to the end.
    compiled: dict[int, int] = {}
    stack: list = [conj(t)]
    while stack:
        g = stack.pop()
        if g is None:
            g = stack.pop()
            if type(g) is Implies:
                x, y = g.antecedent, g.consequent
            else:
                x, y = g.left, g.right
            ops.append((_CODES[type(g)], compiled[id(x)], compiled[id(y)]))
        elif id(g) in compiled:
            continue
        elif type(g) is AtomRef:
            ops.append((_ATOM, g.name, 0))
        elif type(g) is Bottom:
            ops.append((_BOT, 0, 0))
        elif type(g) is Implies:
            stack += (g, None, g.consequent, g.antecedent)
            continue
        else:
            stack += (g, None, g.right, g.left)
            continue
        compiled[id(g)] = len(ops) - 1
    return ops, {x for code, x, _ in ops if code == _ATOM}


def _formulas(ops: Ops, roots: Iterable[int]) -> Theory:
    """The node of each op of ``roots``, from one pass over the ops: an op
    that several ops read is one node that their nodes share, so
    ``_compile`` of a node gives its ops back."""
    nodes: list[Formula] = []
    for code, x, y in ops:
        if code == _ATOM:
            nodes.append(AtomRef(x))
        elif code == _BOT:
            nodes.append(BOT)
        else:
            nodes.append(_NODES[code](nodes[x], nodes[y]))
    return tuple(nodes[r] for r in roots)


# ---------------------------------------------------------------------------
# Printing, from the ops.  Precedence levels, tightest first: atoms/bot,
# unary negation, &, |, ->.  An implication into bot is re-sugared to
# "not x".

_LV_IMPL = 0
_LV_OR = 1
_LV_AND = 2
_LV_NOT = 3

# The codes of & and | -> (its level, infix text, minimum levels of its
# left and right operands): both associate left; -> associates right.
_INFIX = {
    _AND: (_LV_AND, " & ", _LV_AND, _LV_AND + 1),
    _OR: (_LV_OR, " | ", _LV_OR, _LV_OR + 1),
}


def print_tokens(ops: Ops, root: int) -> tuple[list[str], dict[int, slice]]:
    """The tokens of the text of op ``root`` of ``ops``, and the span of
    the tokens of each implication under it (without enclosing
    parentheses) by its op.  An implication met again, as ``<->`` shares
    its operands, has its tokens copied rather than walked again."""
    out: list[str] = []
    spans: dict = {}
    # Items are (op, minimum level) pairs, literal text, and the ops of
    # implications whose tokens end there, pushed in reverse so that
    # they pop in output order.  An implication's entry in ``spans`` is
    # its first token's index until its tokens end.
    stack: list = [(root, _LV_IMPL)]
    while stack:
        item = stack.pop()
        kind = type(item)
        if kind is str:
            out.append(item)
            continue
        if kind is int:
            spans[item] = slice(spans[item], len(out))
            continue
        op, min_level = item
        code, x, y = ops[op]
        if code == _ATOM:
            out.append(x)
        elif code == _BOT:
            out.append("bot")
        elif code != _IMPLIES:
            level, text, left_min, right_min = _INFIX[code]
            if level < min_level:
                out.append("(")
                stack += (")", (op, _LV_IMPL))
            else:
                stack += ((y, right_min), text, (x, left_min))
        elif min_level != _LV_IMPL and ops[y][0] != _BOT:
            # Only "not x" is never parenthesized: no operand asks for
            # a level above _LV_NOT.
            out.append("(")
            stack += (")", (op, _LV_IMPL))
        else:
            span = spans.setdefault(op, len(out))
            if type(span) is slice:
                out += out[span]
            elif ops[y][0] == _BOT:
                out.append("not ")
                stack += (op, (x, _LV_NOT))
            else:
                stack += (op, (y, _LV_IMPL), " -> ", (x, _LV_OR))
    return out, spans


def print_formula(f: Formula) -> str:
    """Canonical text form; reparsing it yields a structurally equal AST."""
    ops = _compile((f,))[0]
    return "".join(print_tokens(ops, len(ops) - 1)[0])


def print_theory(t: Iterable[Formula]) -> str:
    return "\n".join(print_formula(f) + "." for f in t)
