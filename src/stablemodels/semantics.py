"""Interpretations, the reduct, and model enumeration.

The four enumerators (``classical_models``, ``stable_models``,
``supported_models``, ``pointwise_stable_models``) share one evaluation
core over truth tables held as Python ints.  ``analyze`` reads three
classes from one sweep: a pass over all 2**n interpretations gives the
classical models, and for each classical model I one here-and-there
pass over the subsets of I decides both stability and pointwise
stability.  Supported models are the classical models of the theory
plus ``a -> (disjunction of a's bodies)`` for each atom.  Every
enumerator is guarded by a hard cap (default 20 atoms), checked before
any table is built.  Model lists are returned in ``interpretations_of``
order: by cardinality, then lexicographically.

``satisfies``, ``reduct`` and the predicates ``is_stable``,
``is_pointwise_stable`` and ``is_supported`` state the definitions
directly.  They are the oracle the enumerators are tested against; no
enumerator calls them.

This module owns the workbench's one subset enumerator,
``interpretations_of``, and its one cap check, ``check_cap``; the
stability, loop and split searches in ``depgraph``, ``loopformulas`` and
``splitting`` are built on them.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .errors import CapExceededError, NotNondisjunctiveError
from .formula import (
    BOT,
    And,
    Atom,
    AtomRef,
    Bottom,
    Formula,
    Implies,
    Or,
    Theory,
    as_rule,
    conj,
    disj,
    is_nondisjunctive_theory,
    theory_atoms,
)

Interpretation = frozenset[str]

DEFAULT_CAP = 20


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


def check_cap(atom_count: int, cap: int, what: str = "enumeration") -> None:
    if atom_count > cap:
        raise CapExceededError(what, atom_count, cap)


def interpretations_of(universe: Iterable[Atom]) -> Iterator[Interpretation]:
    """All subsets of ``universe``, by cardinality then lexicographically."""
    ordered = sorted(universe)
    for k in range(len(ordered) + 1):
        for combo in itertools.combinations(ordered, k):
            yield frozenset(combo)


def format_interpretation(i: Interpretation) -> str:
    return "{" + " ".join(sorted(i)) + "}"


def format_models(models: list[Interpretation]) -> str:
    return ", ".join(map(format_interpretation, models)) or "(none)"


def models_json(models: list[Interpretation]) -> list[list[str]]:
    return [sorted(m) for m in models]


def classical_models(
    t: Theory,
    universe: Optional[Iterable[Atom]] = None,
    cap: int = DEFAULT_CAP,
) -> list[Interpretation]:
    """All subsets of the universe satisfying every member of ``t``."""
    atoms = theory_atoms(t) if universe is None else frozenset(universe)
    if universe is not None and not atoms >= theory_atoms(t):
        raise ValueError("universe does not cover the theory's atoms")
    check_cap(len(atoms), cap)
    return _classical(t, atoms)


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


def stable_models(t: Theory, cap: int = DEFAULT_CAP) -> list[Interpretation]:
    """Classical models whose here-and-there table holds at ``J = I`` only."""
    return _sweep(t, cap)[1]


def _rules_by_head(t: Theory) -> dict[Atom, list[Formula]]:
    """Bodies of the theory's rules, keyed by head atom, in rule order."""
    by_head: dict[Atom, list[Formula]] = {}
    for f in t:
        pair = as_rule(f)
        if pair is None:
            raise NotNondisjunctiveError(f)
        body, head = pair
        by_head.setdefault(head, []).append(body)
    return by_head


def is_supported(i: Interpretation, t: Theory) -> bool:
    """Every atom of ``i`` heads some rule whose body ``i`` satisfies."""
    by_head = _rules_by_head(t)
    if not satisfies_all(i, t):
        return False
    return all(
        any(satisfies(i, body) for body in by_head.get(a, ()))
        for a in i
    )


def supported_models(t: Theory, cap: int = DEFAULT_CAP) -> list[Interpretation]:
    """Models of ``t`` and of ``a -> (disjunction of a's bodies)`` per atom."""
    atoms = theory_atoms(t)
    check_cap(len(atoms), cap)
    by_head = _rules_by_head(t)
    support = [
        Implies(AtomRef(a), disj(by_head.get(a, []))) for a in sorted(atoms)
    ]
    return _classical((*t, *support), atoms)


def is_pointwise_stable(i: Interpretation, t: Theory) -> bool:
    """No single atom can be dropped from ``i`` while satisfying the reduct."""
    if not satisfies_all(i, t):
        return False
    red = reduct_theory(t, i)
    return not any(satisfies_all(i - {a}, red) for a in i)


def pointwise_stable_models(
    t: Theory, cap: int = DEFAULT_CAP
) -> list[Interpretation]:
    """Classical models whose here-and-there table is 0 at every ``I - {a}``."""
    return _sweep(t, cap)[2]


def completion(t: Theory) -> Theory:
    """Clark completion of a nondisjunctive theory, desugared.

    For each atom A, the biconditional between A and the disjunction of
    the bodies of all rules with head A (bottom when there are none),
    rendered as the conjunction of both implications.  Atoms are taken
    in lexicographic order; disjuncts keep rule order, unsimplified.
    """
    by_head = _rules_by_head(t)
    out: list[Formula] = []
    for a in sorted(theory_atoms(t)):
        body = disj(by_head.get(a, []))
        ref = AtomRef(a)
        out.append(And(Implies(ref, body), Implies(body, ref)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Evaluation core.  A truth table over the atoms a_0 < ... < a_{n-1} is an
# int of 2**n bits: bit k is the value at the interpretation containing
# a_j exactly when bit j of k is set.  ``J |= F^I`` holds exactly when
# <J, I> is a here-and-there model of F (Ferraris 2005), so one table over
# the 2**|I| subsets J of a classical model I decides its minimality
# without building the reduct.

_ATOM, _BOT, _AND, _OR, _IMPLIES = range(5)
_CODES = {And: _AND, Or: _OR, Implies: _IMPLIES}

Ops = list[tuple[int, int, int]]


def _compile(t: Theory, names: list[Atom]) -> Ops:
    """Postorder ops ``(code, x, y)`` of the conjunction of ``t``.

    ``x`` is the atom's position in ``names`` for an atom and the left
    operand's position in the ops for a connective, ``y`` the right
    operand's position.  The last op is the whole theory.
    """
    index = {a: j for j, a in enumerate(names)}
    ops: Ops = []
    done: list[int] = []
    stack: list[tuple[Formula, bool]] = [(conj(t), False)]
    while stack:
        g, children_done = stack.pop()
        if isinstance(g, AtomRef):
            ops.append((_ATOM, index[g.name], 0))
        elif isinstance(g, Bottom):
            ops.append((_BOT, 0, 0))
        elif children_done:
            y = done.pop()
            x = done.pop()
            ops.append((_CODES[type(g)], x, y))
        else:
            if isinstance(g, Implies):
                left, right = g.antecedent, g.consequent
            else:
                left, right = g.left, g.right
            stack += ((g, True), (right, False), (left, False))
            continue
        done.append(len(ops) - 1)
    return ops


def _atom_tables(n: int) -> list[int]:
    """Tables of a_0 .. a_{n-1} over 2**n points, one pattern times a repunit."""
    full = (1 << (1 << n)) - 1
    return [
        (((1 << (1 << j)) - 1) << (1 << j)) * (full // ((1 << (2 << j)) - 1))
        for j in range(n)
    ]


def _evaluate(ops: Ops, atom_tables: list[int], full: int, there: int) -> int:
    """Table of the last op.

    An implication's table is cleared unless it is true somewhere in
    ``there``: ``there = full`` gives classical truth, and the one point
    I gives here-and-there truth at I.
    """
    vals: list[int] = []
    for code, x, y in ops:
        if code == _ATOM:
            v = atom_tables[x]
        elif code == _AND:
            v = vals[x] & vals[y]
        elif code == _OR:
            v = vals[x] | vals[y]
        elif code == _IMPLIES:
            v = (~vals[x] | vals[y]) & full
            if not v & there:
                v = 0
        else:
            v = 0
        vals.append(v)
    return vals[-1]


def _points(ops: Ops, n: int) -> Iterator[list[int]]:
    """Classical models as atom-index lists, in ``interpretations_of`` order."""
    full = (1 << (1 << n)) - 1
    table = _evaluate(ops, _atom_tables(n), full, full)
    bits = format(table, f"0{1 << n}b")[::-1]
    weights = [1 << j for j in range(n)]
    for size in range(n + 1):
        for k in map(sum, itertools.combinations(weights, size)):
            if bits[k] == "1":
                yield [j for j in range(n) if k >> j & 1]


def _classical(t: Theory, atoms: frozenset[Atom]) -> list[Interpretation]:
    names = sorted(atoms)
    ops = _compile(t, names)
    return [frozenset([names[j] for j in p]) for p in _points(ops, len(names))]


def _sweep(t: Theory, cap: int) -> tuple[list[Interpretation], ...]:
    """The classical, stable and pointwise stable models of ``t``.

    One classical pass, then one here-and-there table per classical model
    I: bit m is the value of ``t`` at <J, I>, where J holds the r-th atom
    of I exactly when bit r of m is set.  I is stable when only the
    ``J = I`` bit is set and pointwise stable when no ``I - {a}`` bit is.
    """
    atoms = theory_atoms(t)
    check_cap(len(atoms), cap)
    names = sorted(atoms)
    ops = _compile(t, names)
    # Per width of I: its atom tables and the mask of the I - {a} bits.
    local: dict[int, tuple[list[int], int]] = {}
    classical, stable, pointwise = [], [], []
    for p in _points(ops, len(names)):
        width = len(p)
        top = 1 << ((1 << width) - 1)  # the bit of J = I
        if width not in local:
            drop_one = sum(top >> (1 << r) for r in range(width))
            local[width] = _atom_tables(width), drop_one
        tables, drop_one = local[width]
        atom_tables = [0] * len(names)
        for j, atom_table in zip(p, tables):
            atom_tables[j] = atom_table
        table = _evaluate(ops, atom_tables, (top << 1) - 1, top)
        i = frozenset([names[j] for j in p])
        classical.append(i)
        if table == top:
            stable.append(i)
        if not table & drop_one:
            pointwise.append(i)
    return classical, stable, pointwise


@dataclass(frozen=True)
class ModelReport:
    """Full enumeration summary for one theory.

    ``supported`` and ``completion_theory`` are present only when every
    member is a nondisjunctive rule.
    """

    universe: frozenset[Atom]
    classical: list[Interpretation]
    stable: list[Interpretation]
    supported: Optional[list[Interpretation]]
    pointwise_stable: list[Interpretation]
    completion_theory: Optional[Theory]

    def to_json_dict(self) -> dict:
        return {
            "universe": sorted(self.universe),
            "classical": models_json(self.classical),
            "stable": models_json(self.stable),
            "supported": (
                None if self.supported is None else models_json(self.supported)
            ),
            "pointwise_stable": models_json(self.pointwise_stable),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def analyze(t: Theory, cap: int = DEFAULT_CAP) -> ModelReport:
    classical, stable, pointwise = _sweep(t, cap)
    nondisjunctive = is_nondisjunctive_theory(t)
    return ModelReport(
        universe=theory_atoms(t),
        classical=classical,
        stable=stable,
        supported=supported_models(t, cap=cap) if nondisjunctive else None,
        pointwise_stable=pointwise,
        completion_theory=completion(t) if nondisjunctive else None,
    )
