"""Interpretations, the reduct, and brute-force model enumeration.

All enumerators are exhaustive over subsets of the atom universe and
guarded by a hard cap (default 20 atoms).  Model lists are returned in a
deterministic order: by cardinality, then lexicographically.

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
    return [i for i in interpretations_of(atoms) if satisfies_all(i, t)]


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
    atoms = theory_atoms(t)
    check_cap(len(atoms), cap)
    return [i for i in interpretations_of(atoms) if is_stable(i, t)]


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
    atoms = theory_atoms(t)
    check_cap(len(atoms), cap)
    return [i for i in interpretations_of(atoms) if is_supported(i, t)]


def is_pointwise_stable(i: Interpretation, t: Theory) -> bool:
    """No single atom can be dropped from ``i`` while satisfying the reduct."""
    if not satisfies_all(i, t):
        return False
    red = reduct_theory(t, i)
    return not any(satisfies_all(i - {a}, red) for a in i)


def pointwise_stable_models(
    t: Theory, cap: int = DEFAULT_CAP
) -> list[Interpretation]:
    atoms = theory_atoms(t)
    check_cap(len(atoms), cap)
    return [i for i in interpretations_of(atoms) if is_pointwise_stable(i, t)]


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
    nondisjunctive = is_nondisjunctive_theory(t)
    return ModelReport(
        universe=theory_atoms(t),
        classical=classical_models(t, cap=cap),
        stable=stable_models(t, cap=cap),
        supported=supported_models(t, cap=cap) if nondisjunctive else None,
        pointwise_stable=pointwise_stable_models(t, cap=cap),
        completion_theory=completion(t) if nondisjunctive else None,
    )
