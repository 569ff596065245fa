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
positive atoms of F and G, and, by one classical pass and one sweep,
the three lists.  A part of the sweep is an op with a set of kept
atoms, of which its here-world keeps those that the there-world holds:
the pass carries F's op with Q kept and G's op with P kept, after the
whole, the part that keeps no atom.
A ``SplitReport`` holds the offenders of the conditions, that pass and
the points of the three lists on it, each listed from its own table,
which the CLI renders and which the report builds as interpretations
when they are read.  ``_split`` takes the op table of F & G
(``parser.split_ops`` for the CLI) and its pnn graph if that has been
built already; this module compiles no tree.  ``sets.check_split``, the
library's entry, compiles F & G and calls it.  ``oracle.choice_augment``,
which builds the parts as formulas, is the test oracle for that sweep.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .depgraph import GraphKind, _bodies, _components, _graph, _mask, _named
from .errors import NotAPartitionError
from .formula import Atom, Frozen, Ops
from .semantics import DEFAULT_CAP, Interpretation, _classical_pass, _sweep


class SplitReport(Frozen):
    """The three conditions of a split, by their offenders as
    ``split_conditions`` gives them, and the stable models of the whole
    and of both parts.

    The report holds the split's pass and the points of each list on it,
    one list object for equal lists; a list is built when it is read,
    each interpretation once, so the lists share their models.
    """

    # The pass, ``_c``, is left out of the report's equality and repr:
    # its memo grows as lists are read.  ``_names``, the atoms of F & G,
    # name the points.
    _params = (
        "kind", "cond_i_offenders", "cond_ii_offenders", "cond_iii_offender",
        "equivalence_holds", "_names", "_c", "_whole", "_part_f", "_part_g",
    )
    _fields = tuple(name for name in _params if name != "_c")
    # Unhashable, as its lists are.
    __hash__ = None

    @property
    def cond_i(self) -> bool:
        return not self.cond_i_offenders

    @property
    def cond_ii(self) -> bool:
        return not self.cond_ii_offenders

    @property
    def cond_iii(self) -> bool:
        return self.cond_iii_offender is None

    @property
    def conditions_pass(self) -> bool:
        return self.cond_i and self.cond_ii and self.cond_iii

    @property
    def stable_whole(self) -> list[Interpretation]:
        return self._c.build(self._whole)

    @property
    def stable_part_f(self) -> list[Interpretation]:
        return self._c.build(self._part_f)

    @property
    def stable_part_g(self) -> list[Interpretation]:
        return self._c.build(self._part_g)


def split_conditions(
    ops: Ops,
    names: list[Atom],
    ps: frozenset[Atom],
    qs: frozenset[Atom],
    graph: list[int],
) -> tuple[frozenset[Atom], frozenset[Atom], Optional[frozenset[Atom]]]:
    """Offenders of conditions (i), (ii) and (iii) for the partition {P, Q},
    with ``ops`` the compile of F & G, ``names`` the layout of its atoms
    and ``graph`` its sp or pnn graph as ``_graph`` gives it.

    A condition holds when its offenders are empty, or None for (iii),
    which names the first straddling strongly connected component in
    lexicographic order.  A component straddles when it meets both P and
    Q, which partition its atoms.
    """
    _, f_op, g_op = ops[-1]
    spos = _bodies(ops, GraphKind.SP, names)
    p, q = _mask(ps, names), _mask(qs, names)
    i_off = frozenset(_named(spos[f_op] & ~p, names))
    ii_off = frozenset(_named(spos[g_op] & ~q, names))
    straddling = [c for c in _components(graph) if c & p and c & q]
    iii_off = frozenset(_named(straddling[0], names)) if straddling else None
    return i_off, ii_off, iii_off


def _split(
    compiled: tuple[Ops, set[Atom]],
    p: Iterable[Atom],
    q: Optional[Iterable[Atom]] = None,
    kind: GraphKind = GraphKind.PNN,
    cap: int = DEFAULT_CAP,
    pnn: Optional[list[int]] = None,
) -> SplitReport:
    """``sets.check_split`` on ``compiled``, the ops and atoms of F & G,
    whose pnn graph is ``pnn`` if it has been built, as ``_graph``'s
    masks in the layout of its atoms.  The sweep runs here, not when a
    list is read."""
    ops, universe = compiled
    ps = frozenset(p)
    qs = universe - ps if q is None else frozenset(q)
    if ps | qs != universe or ps & qs:
        raise NotAPartitionError(
            "the two atom sets must partition the atoms of the conjunction"
        )
    _, f_op, g_op = ops[-1]
    c = _classical_pass(ops, universe, cap=cap, parts=((f_op, qs), (g_op, ps)))
    if pnn is not None:
        # The pass's own pnn graph: both are read from ``ops``.
        c.pnn = pnn
    graph = c.pnn if kind is GraphKind.PNN else _graph(ops, kind, c.names)
    offenders = split_conditions(ops, c.names, ps, qs, graph)
    stable, _, part_f, part_g = _sweep(c, pointwise=False)
    return SplitReport(
        kind,
        *offenders,
        stable == part_f & part_g,
        c.names,
        c,
        *map(c.points, (stable, part_f, part_g)),
    )
