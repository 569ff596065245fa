"""Splitting a conjunction into choice-augmented parts.

For a partition {P, Q} of the atoms of F & G, three conditions are
checked: strictly positive atoms of F lie in P, strictly positive atoms
of G lie in Q, and no strongly connected component of the dependency
graph of F & G straddles the partition.  Under the pnn graph the
conditions guarantee that the stable models of F & G are exactly the
interpretations stable for both augmented parts; under the sp graph
they do not, and the report exposes that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .depgraph import GraphKind, graph_of, sccs
from .errors import NotAPartitionError
from .formula import (
    And,
    Atom,
    AtomRef,
    Formula,
    Or,
    atoms,
    neg,
    spos,
)
from .semantics import DEFAULT_CAP, Interpretation, stable_models


def choice_augment(f: Formula, xs: Iterable[Atom]) -> Formula:
    """Conjoin ``f`` with a choice A | not A for each atom, in atom order."""
    out = f
    for a in sorted(frozenset(xs)):
        ref = AtomRef(a)
        out = And(out, Or(ref, neg(ref)))
    return out


@dataclass(frozen=True)
class SplitReport:
    kind: GraphKind
    cond_i: bool
    cond_i_offenders: frozenset[Atom]
    cond_ii: bool
    cond_ii_offenders: frozenset[Atom]
    cond_iii: bool
    cond_iii_offender: Optional[frozenset[Atom]]
    equivalence_holds: bool
    stable_whole: list[Interpretation]
    stable_part_f: list[Interpretation]
    stable_part_g: list[Interpretation]

    @property
    def conditions_pass(self) -> bool:
        return self.cond_i and self.cond_ii and self.cond_iii


def split_conditions(
    f: Formula,
    g: Formula,
    ps: frozenset[Atom],
    qs: frozenset[Atom],
    kind: GraphKind,
) -> tuple[frozenset[Atom], frozenset[Atom], Optional[frozenset[Atom]]]:
    """Offenders of conditions (i), (ii) and (iii) for the partition {P, Q}.

    A condition holds when its offenders are empty, or None for (iii),
    which names the first straddling strongly connected component.
    """
    i_off = spos(f) - ps
    ii_off = spos(g) - qs
    iii_off = None
    for comp in sccs(graph_of((And(f, g),), kind)):
        if not (comp <= ps or comp <= qs):
            iii_off = comp
            break
    return i_off, ii_off, iii_off


def check_split(
    f: Formula,
    g: Formula,
    p: Iterable[Atom],
    q: Iterable[Atom],
    kind: GraphKind = GraphKind.PNN,
    cap: int = DEFAULT_CAP,
) -> SplitReport:
    """Evaluate the three splitting conditions and the stable-model equivalence.

    Each stable-model list is enumerated over its own theory's atoms.
    The lists equal those over the full atom universe of F & G: no stable
    model contains an atom outside its theory, and the model order is
    unchanged on a sub-universe.  Part models are therefore comparable as
    sets.
    """
    ps = frozenset(p)
    qs = frozenset(q)
    whole = And(f, g)
    universe = atoms(whole)
    if ps | qs != universe or ps & qs:
        raise NotAPartitionError(
            "the two atom sets must partition the atoms of the conjunction"
        )
    i_off, ii_off, iii_off = split_conditions(f, g, ps, qs, kind)

    stable_whole = stable_models((whole,), cap)
    stable_part_f = stable_models((choice_augment(f, qs),), cap)
    stable_part_g = stable_models((choice_augment(g, ps),), cap)
    in_g = set(stable_part_g)
    stable_both = [i for i in stable_part_f if i in in_g]

    return SplitReport(
        kind=kind,
        cond_i=not i_off,
        cond_i_offenders=i_off,
        cond_ii=not ii_off,
        cond_ii_offenders=ii_off,
        cond_iii=iii_off is None,
        cond_iii_offender=iii_off,
        equivalence_holds=stable_whole == stable_both,
        stable_whole=stable_whole,
        stable_part_f=stable_part_f,
        stable_part_g=stable_part_g,
    )
