"""The paper's definitions, stated directly: the test oracle.

Every result of the workbench is checked against these:

- ``satisfies``, ``reduct`` and the predicates ``is_stable``,
  ``is_pointwise_stable`` and ``is_supported``: classical truth, the
  reduct F^I, stability as minimality of I among the models of the
  reduct (Gelfond and Lifschitz 1988; Ferraris 2005), and its pointwise
  and supported variants, against which the enumerators of
  ``semantics`` are tested;
- ``classify_occurrences``, ``spos`` and ``rules_of``: each atom
  occurrence with its polarity, the strictly positive atoms, and the
  strictly positive implications, one walk per path, against which the
  dependency graphs that ``depgraph`` reads from ``_compile``'s ops are
  tested;
- ``nes`` and ``loop_formula``: NES and loop formulas as formula
  objects, against which ``NesPrinter``'s text is tested, and
  ``loop_oracle_models``, which evaluates them;
- ``choice_augment``: a split's parts as formulas, against which
  ``check_split``'s one sweep is tested;
- ``format_models``: a model list as text, against which
  ``semantics.format_points`` is tested;
- ``interpretations_of``: every subset of a set of atoms, by size, then
  lexicographically, the order in which every model list is given; the
  predicates above and the all-subsets family of ``loop_oracle_models``
  range over it, and ``loopformulas._loops`` is tested against it.

This module may import from any module of the package.  No production
module imports it or calls its names: only ``fuzz``, whose properties
are on the oracle side, and ``__init__``, which re-exports the public
names.  ``tests/test_import_lint.py`` reads the names from the
definitions below and checks that.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional

from .depgraph import GraphKind, _layout, _named
from .errors import NotNondisjunctiveError, check_cap
from .formula import (
    BOT,
    And,
    Atom,
    AtomRef,
    Bottom,
    Formula,
    Frozen,
    Implies,
    Or,
    Theory,
    _compile,
    as_rule,
    conj,
    neg,
)
from .loopformulas import _loops, check_atoms
from .semantics import (
    DEFAULT_CAP,
    Interpretation,
    format_interpretation,
)
from .sets import classical_models


def interpretations_of(universe: Iterable[Atom]) -> Iterator[Interpretation]:
    """All subsets of ``universe``, by cardinality then lexicographically."""
    ordered = sorted(universe)
    for k in range(len(ordered) + 1):
        for combo in itertools.combinations(ordered, k):
            yield frozenset(combo)


def satisfies(i: Interpretation, f: Formula) -> bool:
    """Classical truth of ``f`` under the assignment identified with ``i``."""
    if isinstance(f, Bottom):
        return False
    if isinstance(f, AtomRef):
        return f.name in i
    if isinstance(f, And):
        return satisfies(i, f.left) and satisfies(i, f.right)
    if isinstance(f, Or):
        return satisfies(i, f.left) or satisfies(i, f.right)
    assert isinstance(f, Implies)
    return not satisfies(i, f.antecedent) or satisfies(i, f.consequent)


def satisfies_all(i: Interpretation, t: Iterable[Formula]) -> bool:
    return all(satisfies(i, f) for f in t)


def reduct(f: Formula, i: Interpretation) -> Formula:
    """Replace every maximal subformula not satisfied by ``i`` with bottom.

    Computed top-down: an unsatisfied node becomes bottom outright, a
    satisfied node is rebuilt from the reducts of its children.
    """
    if not satisfies(i, f):
        return BOT
    if isinstance(f, And):
        return And(reduct(f.left, i), reduct(f.right, i))
    if isinstance(f, Or):
        return Or(reduct(f.left, i), reduct(f.right, i))
    if isinstance(f, Implies):
        return Implies(reduct(f.antecedent, i), reduct(f.consequent, i))
    return f


def reduct_theory(t: Theory, i: Interpretation) -> Theory:
    return tuple(reduct(f, i) for f in t)


def is_stable(i: Interpretation, t: Theory) -> bool:
    """Minimality of ``i`` among the models of the reduct of ``t`` wrt ``i``.

    Only subsets of ``i`` need checking: every atom occurring in the
    reduct belongs to ``i``.
    """
    if not satisfies_all(i, t):
        return False
    red = reduct_theory(t, i)
    return not any(
        j != i and satisfies_all(j, red) for j in interpretations_of(i)
    )


def is_supported(i: Interpretation, t: Theory) -> bool:
    """Every atom of ``i`` heads some rule whose body ``i`` satisfies."""
    rules = [as_rule(f) for f in t]
    if None in rules:
        raise NotNondisjunctiveError(t[rules.index(None)])
    if not satisfies_all(i, t):
        return False
    return all(
        any(head == a and satisfies(i, body) for body, head in rules)
        for a in i
    )


def is_pointwise_stable(i: Interpretation, t: Theory) -> bool:
    """No single atom can be dropped from ``i`` while satisfying the reduct."""
    if not satisfies_all(i, t):
        return False
    red = reduct_theory(t, i)
    return not any(satisfies_all(i - {a}, red) for a in i)


def format_models(models: list[Interpretation]) -> str:
    """A list of interpretations as text: only the definition that
    ``format_points`` is tested against."""
    return ", ".join(map(format_interpretation, models)) or "(none)"


class OccurrenceContext(Frozen):
    """Polarity data for one atom occurrence inside a host formula.

    ``antecedent_count`` is the number of implications whose antecedent
    contains the occurrence; ``negated`` is true when at least one of
    those implications has bottom as its consequent.
    """

    _fields = ("antecedent_count", "negated")

    @property
    def strictly_positive(self) -> bool:
        return self.antecedent_count == 0

    @property
    def positive(self) -> bool:
        return self.antecedent_count % 2 == 0

    @property
    def nonnegated(self) -> bool:
        return not self.negated


class RuleOccurrence(Frozen):
    """A strictly positive implication occurrence: Body -> Head."""

    _fields = ("body", "head")


def classify_occurrences(f: Formula) -> list[tuple[Atom, OccurrenceContext]]:
    """All atom occurrences of ``f`` in preorder, with their polarity."""
    out: list[tuple[Atom, OccurrenceContext]] = []

    def walk(g: Formula, count: int, negated: bool) -> None:
        if isinstance(g, AtomRef):
            out.append((g.name, OccurrenceContext(count, negated)))
        elif isinstance(g, (And, Or)):
            walk(g.left, count, negated)
            walk(g.right, count, negated)
        elif isinstance(g, Implies):
            in_neg = negated or g.consequent == BOT
            walk(g.antecedent, count + 1, in_neg)
            walk(g.consequent, count, negated)

    walk(f, 0, False)
    return out


def spos(f: Formula) -> frozenset[Atom]:
    """Atoms with at least one strictly positive occurrence in ``f``."""
    out: set[Atom] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, AtomRef):
            out.add(g.name)
        elif isinstance(g, (And, Or)):
            stack += (g.left, g.right)
        elif isinstance(g, Implies):
            stack.append(g.consequent)
    return frozenset(out)


def rules_of(f: Formula) -> list[RuleOccurrence]:
    """Strictly positive implication occurrences of ``f``, in preorder.

    The consequent of a strictly positive implication is itself strictly
    positive, so rules nested on the consequent side are included.  This
    is the definition the dependency graphs are tested against; they are
    read from ``_compile``'s ops in ``depgraph``.
    """
    out: list[RuleOccurrence] = []
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (And, Or)):
            stack += (g.right, g.left)
        elif isinstance(g, Implies):
            out.append(RuleOccurrence(g.antecedent, g.consequent))
            stack.append(g.consequent)
    return out


def _nes(f: Formula, ys: frozenset[Atom]) -> Formula:
    # Postorder over an explicit stack; ``done`` marks a node whose
    # children's results are on top of ``out``.
    out: list[Formula] = []
    stack: list[tuple[Formula, bool]] = [(f, False)]
    while stack:
        g, done = stack.pop()
        kind = type(g)
        if kind is AtomRef:
            out.append(BOT if g.name in ys else g)
        elif kind is Bottom:
            out.append(BOT)
        elif not done:
            stack.append((g, True))
            if kind is Implies:
                stack += ((g.consequent, False), (g.antecedent, False))
            else:
                stack += ((g.right, False), (g.left, False))
        else:
            right = out.pop()
            left = out.pop()
            if kind is Implies:
                out.append(And(Implies(left, right), g))
            else:
                out.append(kind(left, right))
    return out[0]


def nes(f: Formula, y: Iterable[Atom]) -> Formula:
    """Negated external support of the atom set ``y`` in ``f``.

    Recursion: an atom becomes bottom when it is in ``y`` and stays
    itself otherwise; bottom stays bottom; conjunction and disjunction
    distribute; an implication F -> G becomes
    (NES(F) -> NES(G)) & (F -> G).
    """
    return _nes(f, check_atoms(y, _compile((f,))[1]))


def loop_formula(f: Formula, y: Iterable[Atom]) -> Formula:
    """Conjunction over A in ``y`` of A -> not NES(f, y), in atom order."""
    ys = check_atoms(y, _compile((f,))[1])
    if not ys:
        raise ValueError("loop formula requires a nonempty atom set")
    return _loop_formula(f, ys)


def _loop_formula(f: Formula, ys: frozenset[Atom]) -> Formula:
    # ``ys`` is a nonempty set of f's atoms, already checked.
    support = neg(_nes(f, ys))
    return conj(Implies(AtomRef(a), support) for a in sorted(ys))


def loop_oracle_models(
    f: Formula, kind: Optional[GraphKind]
) -> list[Interpretation]:
    """The classical models of ``f`` and the loop formulas of the loops of
    ``kind``'s graph (every nonempty atom subset if None), over ``f``'s atoms."""
    ops, universe = _compile((f,))
    check_cap(len(universe), DEFAULT_CAP, "loop-formula enumeration")
    if kind is None:
        # The empty set has no loop formula.
        loops = itertools.islice(interpretations_of(universe), 1, None)
    else:
        names = _layout(universe)
        loops = (frozenset(_named(ys, names)) for ys in _loops(ops, names, kind))
    lfs = (_loop_formula(f, ys) for ys in loops)
    return classical_models((f, *lfs), universe)


def choice_augment(f: Formula, xs: Iterable[Atom]) -> Formula:
    """Conjoin ``f`` with a choice A | not A for each atom, in atom order.

    The definition of a part, kept as the oracle of ``check_split``."""
    out = f
    for a in sorted(frozenset(xs)):
        ref = AtomRef(a)
        out = And(out, Or(ref, neg(ref)))
    return out
