"""Splitting a conjunction into choice-augmented parts.

For a partition {P, Q} of the atoms of F & G, three conditions are
checked: strictly positive atoms of F lie in P, strictly positive atoms
of G lie in Q, and no strongly connected component of the dependency
graph of F & G straddles the partition.  Under the pnn graph the
conditions guarantee that the stable models of F & G are exactly the
interpretations stable for both augmented parts, F & choice(Q) and
G & choice(P); under the sp graph they do not, and the report exposes
that.

One compile of F & G gives its universe, its graph, the strictly
positive atoms of F and G, and, by one classical pass and one sweep in
which a part is an op with a restricted here-world, the three lists.
``_split`` gives the answer as points of that pass, for the CLI to
render, and takes the pnn graph of F & G if it has been built already.
``choice_augment`` builds the parts as formulas: it is the test oracle
for that sweep, and no production path calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .depgraph import DepGraph, GraphKind, _bodies, _graph, _named, sccs
from .errors import NotAPartitionError
from .formula import (
    And,
    Atom,
    AtomRef,
    Formula,
    Ops,
    Or,
    _compile,
    neg,
)
from .semantics import (
    DEFAULT_CAP,
    Interpretation,
    _Classical,
    _classical_pass,
    _sweep,
)


def choice_augment(f: Formula, xs: Iterable[Atom]) -> Formula:
    """Conjoin ``f`` with a choice A | not A for each atom, in atom order.

    The definition of a part, kept as the oracle of ``check_split``."""
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
    ops: Ops,
    ps: frozenset[Atom],
    qs: frozenset[Atom],
    graph: DepGraph,
) -> tuple[frozenset[Atom], frozenset[Atom], Optional[frozenset[Atom]]]:
    """Offenders of conditions (i), (ii) and (iii) for the partition {P, Q},
    with ``ops`` the compile of F & G and ``graph`` its sp or pnn graph.

    A condition holds when its offenders are empty, or None for (iii),
    which names the first straddling strongly connected component.
    """
    _, f_op, g_op = ops[-1]
    names, spos = _bodies(ops, GraphKind.SP)
    i_off = frozenset(_named(spos[f_op], names)) - ps
    ii_off = frozenset(_named(spos[g_op], names)) - qs
    straddling = (c for c in sccs(graph) if not (c <= ps or c <= qs))
    return i_off, ii_off, next(straddling, None)


class _Split(NamedTuple):
    """A split's answer as points: the offenders of the three conditions,
    as ``split_conditions`` gives them, whether the equivalence holds, and
    the points of the three lists on ``c``, a pass narrowed to them."""

    offenders: tuple[frozenset[Atom], frozenset[Atom], Optional[frozenset[Atom]]]
    equivalence_holds: bool
    c: _Classical
    whole: list[int]
    part_f: list[int]
    part_g: list[int]


def _split(
    compiled: tuple[Ops, set[Atom]],
    p: Iterable[Atom],
    q: Optional[Iterable[Atom]] = None,
    kind: GraphKind = GraphKind.PNN,
    cap: int = DEFAULT_CAP,
    pnn: Optional[DepGraph] = None,
) -> _Split:
    """``check_split`` on ``compiled``, the ``_compile`` of F & G, whose
    pnn graph is ``pnn`` if it has been built."""
    ops, universe = compiled
    ps = frozenset(p)
    qs = universe - ps if q is None else frozenset(q)
    if ps | qs != universe or ps & qs:
        raise NotAPartitionError(
            "the two atom sets must partition the atoms of the conjunction"
        )
    _, f_op, g_op = ops[-1]
    c = _classical_pass(ops, universe, cap=cap, roots=(f_op, g_op))
    if pnn is not None:
        # The pass's own pnn graph: both are read from ``ops``.
        c.pnn = pnn
    graph = c.pnn if kind is GraphKind.PNN else _graph(ops, kind)
    offenders = split_conditions(ops, ps, qs, graph)
    stable, _, part_f, part_g = _sweep(c, ((f_op, qs), (g_op, ps)))
    shown = c.narrowed(stable | part_f | part_g)
    return _Split(
        offenders,
        stable == part_f & part_g,
        shown,
        *map(shown.points, (stable, part_f, part_g)),
    )


def check_split(
    f: Formula,
    g: Formula,
    p: Iterable[Atom],
    q: Optional[Iterable[Atom]] = None,
    kind: GraphKind = GraphKind.PNN,
    cap: int = DEFAULT_CAP,
) -> SplitReport:
    """Evaluate the three splitting conditions and the stable-model equivalence.

    ``q`` is by default the atoms of F & G outside ``p``.  F & G is
    compiled once; its last op has F's and G's ops as its operands.  One
    classical pass over the atoms of F & G gives the tables of F, G and
    F & G, and one sweep decides the three lists, with F & choice(Q) read
    as F's op whose here-world keeps the atoms of Q that the there-world
    holds, and G & choice(P) likewise.  Every list is over the whole
    universe, which changes no part's list: no stable model holds an atom
    outside its theory, and the model order is unchanged on a
    sub-universe.  Part models are therefore comparable as sets.  Under
    the pnn graph, the graph of the conditions is the one the sweep's
    loop search reads.
    """
    s = _split(_compile((And(f, g),)), p, q, kind, cap)
    i_off, ii_off, iii_off = s.offenders
    return SplitReport(
        kind=kind,
        cond_i=not i_off,
        cond_i_offenders=i_off,
        cond_ii=not ii_off,
        cond_ii_offenders=ii_off,
        cond_iii=iii_off is None,
        cond_iii_offender=iii_off,
        equivalence_holds=s.equivalence_holds,
        stable_whole=s.c.build(s.whole),
        stable_part_f=s.c.build(s.part_f),
        stable_part_g=s.c.build(s.part_g),
    )
