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
  ``loop_oracle_models``, which builds the same formulas as ops appended
  to its formula's op table (``_loop_formula_ops``, tested against
  ``loop_formula``) and evaluates them classically, in one pass with
  the formula: it compiles the formula once and builds no tree.  The
  ``loop-oracle`` fuzz campaigns append them to a drawn table;
- ``choice_augment``: a split's parts as formulas, against which
  ``check_split``'s one sweep is tested;
- ``format_models``: a model list as text, against which
  ``semantics.format_points`` is tested;
- ``interpretations_of``: every subset of a set of atoms, by size, then
  lexicographically, the order in which every model list is given; the
  predicates above range over it, and ``loopformulas._loops``, whose
  family of every nonempty subset the loop oracles read, is tested
  against it.

This module may import from any module of the package.  No production
module imports it or calls its names: only ``fuzz``, whose properties
are on the oracle side, and ``__init__``, which re-exports the public
names.  ``tests/test_import_lint.py`` reads the names from the
definitions below and checks that.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional

from .depgraph import GraphKind, _named
from .errors import NotNondisjunctiveError, check_cap
from .formula import (
    _AND,
    _ATOM,
    _BOT,
    _IMPLIES,
    BOT,
    And,
    Atom,
    AtomRef,
    Bottom,
    Formula,
    Frozen,
    Implies,
    Ops,
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
    _Classical,
    _classical_pass,
    _evaluate,
    format_interpretation,
)


def interpretations_of(universe: Iterable[Atom]) -> Iterator[Interpretation]:
    """All subsets of ``universe``, by cardinality then lexicographically."""
    ordered = sorted(universe)
    for k in range(len(ordered) + 1):
        for combo in itertools.combinations(ordered, k):
            yield frozenset(combo)


def satisfies(i: Interpretation, f: Formula) -> bool:
    """Classical truth of ``f`` under the assignment identified with ``i``."""
    kind = type(f)
    if kind is AtomRef:
        return f.name in i
    if kind is Implies:
        return not satisfies(i, f.antecedent) or satisfies(i, f.consequent)
    if kind is And:
        return satisfies(i, f.left) and satisfies(i, f.right)
    if kind is Or:
        return satisfies(i, f.left) or satisfies(i, f.right)
    assert kind is Bottom
    return False


def satisfies_all(i: Interpretation, t: Iterable[Formula]) -> bool:
    return all(satisfies(i, f) for f in t)


def reduct(f: Formula, i: Interpretation) -> Formula:
    """Replace every maximal subformula not satisfied by ``i`` with bottom.

    Computed bottom-up, so that each node's truth is found once: a
    node's reduct is bottom exactly when ``i`` does not satisfy it, so
    its truth is read off its operands' reducts, and a satisfied node is
    rebuilt from them.
    """
    kind = type(f)
    if kind is AtomRef:
        return f if f.name in i else BOT
    if kind is Bottom:
        return BOT
    if kind is Implies:
        x, y = reduct(f.antecedent, i), reduct(f.consequent, i)
        return Implies(x, y) if x is BOT or y is not BOT else BOT
    x, y = reduct(f.left, i), reduct(f.right, i)
    if kind is And:
        return And(x, y) if x is not BOT and y is not BOT else BOT
    assert kind is Or
    return Or(x, y) if x is not BOT or y is not BOT else BOT


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


def _loop_formula_ops(
    ops: Ops, names: list[Atom], loops: Iterable[int]
) -> tuple[Ops, list[int]]:
    """``ops``, the table of a formula F (its last op), followed by the ops
    of the loop formula of each of ``loops``, and the op of each loop
    formula.  The loops are nonempty masks in the layout ``names`` of F's
    atoms.

    The ops follow ``nes`` and ``loop_formula`` op by op, so that
    ``_formulas`` decodes each to a formula equal to ``loop_formula(F, Y)``.
    NES(F, Y) maps each op of F to an op: an atom of Y to the one bottom
    op, appended if F has none; any other atom, and bottom, to itself; a
    conjunction or disjunction to the op of its operands' images, itself
    when those are its own operands; and an implication F -> G to
    (NES F -> NES G) & (F -> G), whose second conjunct is F -> G's own op.
    ``not NES`` is one op, read by each A -> not NES for A in Y, in atom
    order, which are conjoined from the left as ``conj`` does.
    """
    table = [*ops]
    bot = next((j for j, (code, _, _) in enumerate(ops) if code == _BOT), None)
    if bot is None:
        bot = len(table)
        table.append((_BOT, 0, 0))
    # Each atom's bit in the layout, and one op of it.
    bit = {a: 1 << j for j, a in enumerate(names)}
    atom_op = {x: j for j, (code, x, _) in enumerate(ops) if code == _ATOM}
    roots = []
    for ys in loops:
        # The op of NES of each op of F.
        image: list[int] = []
        for j, (code, x, y) in enumerate(ops):
            if code == _ATOM:
                image.append(bot if ys & bit[x] else j)
            elif code == _BOT:
                image.append(j)
            else:
                v = j
                if image[x] != x or image[y] != y:
                    v = len(table)
                    table.append((code, image[x], image[y]))
                if code == _IMPLIES:
                    table.append((_AND, v, j))
                    v = len(table) - 1
                image.append(v)
        support = len(table)
        table.append((_IMPLIES, image[-1], bot))
        root = None
        for a in _named(ys, names):
            table.append((_IMPLIES, atom_op[a], support))
            if root is not None:
                table.append((_AND, root, len(table) - 1))
            root = len(table) - 1
        roots.append(root)
    return table, roots


def _loop_formula_tables(c: _Classical, loops: Iterable[int]) -> list[int]:
    """The classical table over ``c``'s points of the loop formula of each
    of ``loops``, masks in ``c``'s layout: the ops that
    ``_loop_formula_ops`` appends to ``c``'s are evaluated, onto a copy
    of ``c``'s tables, as ``semantics._supported`` evaluates a completion.

    The formulas are evaluated as written, every there table all ones.
    Clearing Y in the here-world instead would give the same tables by
    the loop path's own method (``semantics._by_loops``), and the loop
    oracles would compare that path with itself."""
    table, roots = _loop_formula_ops(c.ops, c.names, loops)
    full = (1 << (1 << len(c.names))) - 1
    vals = _evaluate(table[len(c.vals):], c.atom_tables, itertools.repeat(full), c.vals)
    return [vals[r] for r in roots]


def loop_oracle_models(
    f: Formula, kind: Optional[GraphKind]
) -> list[Interpretation]:
    """The classical models of ``f`` and the loop formulas of the loops of
    ``kind``'s graph (every nonempty atom subset if None), over ``f``'s
    atoms: one classical pass of ``f``'s ops with the loop formulas' ops
    appended (``_loop_formula_tables``)."""
    ops, universe = _compile((f,))
    check_cap(len(universe), DEFAULT_CAP, "loop-formula enumeration")
    c = _classical_pass(ops, universe)
    models = c.candidates
    for table in _loop_formula_tables(c, _loops(ops, c.names, kind)):
        models &= table
    return c.build(c.points(models))


def choice_augment(f: Formula, xs: Iterable[Atom]) -> Formula:
    """Conjoin ``f`` with a choice A | not A for each atom, in atom order.

    The definition of a part, kept as the oracle of ``check_split``."""
    out = f
    for a in sorted(frozenset(xs)):
        ref = AtomRef(a)
        out = And(out, Or(ref, neg(ref)))
    return out
