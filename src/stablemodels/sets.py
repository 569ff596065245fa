"""The set-level API: trees in; graphs, loops and models out as sets.

Production keeps a theory as its op table and its graphs, components,
loops and models as masks and points in the classical pass's layout
(see ``depgraph`` and ``semantics``).  This module is the one adapter
between that and the library's public functions: each compiles its tree
with ``formula._compile``, calls the mask functions, and decodes their
answer into sets of atoms, ``DepGraph``s and lists of interpretations.
A theory's members are read off the ``And`` spine of its ops
(``_member_ops``), so that ``analyze``, ``completion`` and
``supported_models`` read the completion off the op table as the CLI
does (``semantics._completion``); ``completion`` and a report's
``completion_theory`` decode it into formulas.  The names here are
re-exported, unchanged, by the package root.

No production module imports this module; only the package root and
``fuzz`` do, and ``tests/test_import_lint.py`` checks that.  The CLI
prints from the masks and points directly.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .depgraph import (
    GraphKind,
    _all_loops,
    _components,
    _cyclic,
    _dot,
    _edges,
    _graph,
    _layout,
    _named,
)
from .errors import NotNondisjunctiveError
from .formula import (
    And, Atom, Formula, Frozen, Ops, Theory, _compile, _formulas, as_rule
)
from .semantics import (
    DEFAULT_CAP,
    Interpretation,
    ModelReport,
    _analysis,
    _classical_pass,
    _completion,
    _supported,
    _sweep,
)
from .splitting import SplitReport, _split

Edge = tuple[Atom, Atom]


class DepGraph(Frozen):
    _fields = ("vertices", "edges")

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


def graph_of(t: Theory, kind: GraphKind) -> DepGraph:
    """``kind``'s graph of ``t``, decoded from its masks."""
    ops, atoms = _compile(t)
    names = _layout(atoms)
    edges = _edges(_graph(ops, kind, names), names)
    return DepGraph(frozenset(names), frozenset(edges))


def g_sp(t: Theory) -> DepGraph:
    """Edges from strictly positive head atoms to strictly positive body atoms."""
    return graph_of(t, GraphKind.SP)


def g_pnn(t: Theory) -> DepGraph:
    """Edges from strictly positive head atoms to positive nonnegated body atoms."""
    return graph_of(t, GraphKind.PNN)


def _encoded(g: DepGraph) -> tuple[list[Atom], list[int]]:
    """The vertices of ``g`` in the layout and its successor masks; an
    edge to or from an atom that is not a vertex raises ``ValueError``."""
    names = _layout(g.vertices)
    bit = {v: j for j, v in enumerate(names)}
    stray = sorted(set().union(*g.edges).difference(bit))
    if stray:
        raise ValueError(f"edge endpoints not among the vertices: {stray}")
    succ = [0] * len(names)
    for (a, b) in g.edges:
        succ[bit[a]] |= 1 << bit[b]
    return names, succ


def sccs(g: DepGraph) -> list[frozenset[Atom]]:
    """Strongly connected components, ordered lexicographically."""
    names, succ = _encoded(g)
    return [frozenset(_named(comp, names)) for comp in _components(succ)]


def has_cycle(g: DepGraph) -> bool:
    """True iff the graph has a directed cycle; self-loops count."""
    return _cyclic(_encoded(g)[1])


def strongly_connected_subsets(g: DepGraph) -> list[frozenset[Atom]]:
    """All nonempty vertex subsets whose induced subgraph is strongly connected.

    Singletons count whether or not they carry a self-loop.  Such a
    subset lies inside one strongly connected component, so each
    component with k > 1 vertices is searched on its own, branching on
    its vertices with reachability pruning (``depgraph._component_loops``),
    and ``depgraph.SUBSET_CAP`` bounds the largest component, not the
    whole graph.
    The result is in ``interpretations_of`` order: by size, then
    lexicographically.
    """
    names, succ = _encoded(g)
    return [frozenset(_named(ys, names)) for ys in _all_loops(succ)]


def subgraph_of(small: DepGraph, big: DepGraph) -> bool:
    return small.vertices <= big.vertices and small.edges <= big.edges


def to_dot(g: DepGraph, label: str = "") -> str:
    """DOT digraph with sorted vertex and edge statements."""
    return _dot(sorted(g.vertices), g.sorted_edges(), label)


def classical_models(
    t: Theory,
    universe: Optional[Iterable[Atom]] = None,
    cap: int = DEFAULT_CAP,
) -> list[Interpretation]:
    """All subsets of the universe satisfying every member of ``t``."""
    c = _classical_pass(*_compile(t), universe, cap)
    return c.build(c.keys)


def stable_models(t: Theory, cap: int = DEFAULT_CAP) -> list[Interpretation]:
    """Classical models whose here-and-there table holds at ``J = I`` only."""
    c = _classical_pass(*_compile(t), cap=cap)
    return c.build(c.points(_sweep(c, pointwise=False)[0]))


def _member_ops(ops: Ops, n: int) -> list[int]:
    """The ops of the ``n`` members of a theory in the ops ``_compile``
    gives it, read off the left-nested ``And`` spine that conjoins them."""
    # Each And on the spine is replaced by its right operand and then its
    # left, the spine's next And, so the stack ends with the last member
    # at the bottom and the first at the top.
    stack = [len(ops) - 1]
    for _ in range(n - 1):
        stack += ops[stack.pop()][:0:-1]
    return stack[::-1][:n]


def _completed(t: Theory, ops: Ops) -> tuple[Ops, list[int]]:
    """``_completion`` of ``t``, whose compile gives ``ops``; raises
    ``NotNondisjunctiveError`` naming the first member that is not a rule."""
    comp = _completion(ops, _member_ops(ops, len(t)))
    if comp is None:
        raise NotNondisjunctiveError(next(f for f in t if as_rule(f) is None))
    return comp


def supported_models(t: Theory, cap: int = DEFAULT_CAP) -> list[Interpretation]:
    """Classical models where the support halves of ``completion(t)`` hold."""
    c = _classical_pass(*_compile(t), cap=cap)
    return c.build(c.points(_supported(*_completed(t, c.ops), c)))


def pointwise_stable_models(
    t: Theory, cap: int = DEFAULT_CAP
) -> list[Interpretation]:
    """Classical models whose here-and-there table is 0 at every ``I - {a}``."""
    c = _classical_pass(*_compile(t), cap=cap)
    return c.build(c.points(_sweep(c)[1]))


def completion(t: Theory) -> Theory:
    """Clark completion of a nondisjunctive theory, desugared.

    For each atom A, the biconditional between A and the disjunction of
    the bodies of all rules with head A (bottom when there are none),
    rendered as the conjunction of both implications.  Atoms are taken
    in lexicographic order; disjuncts keep rule order, unsimplified.
    """
    return _formulas(*_completed(t, _compile(t)[0]))


def analyze(t: Theory, cap: int = DEFAULT_CAP) -> ModelReport:
    """All four model classes of ``t`` from one classical pass."""
    ops, atoms = _compile(t)
    return _analysis(ops, atoms, _member_ops(ops, len(t)), cap)


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
    F & G and carries the parts: F & choice(Q) is F's op with Q kept, its
    here-world keeping the atoms of Q that the there-world holds, and
    G & choice(P) is G's op with P kept.  One sweep decides the whole,
    the part that keeps no atom, and both parts.  Every list is over the
    whole universe, which changes no part's list: no stable model holds
    an atom outside its theory, and the model order is unchanged on a
    sub-universe.  Part models are therefore comparable as sets.  Under
    the pnn graph, the graph of the conditions is the one the sweep's
    loop search reads.
    """
    return _split(_compile((And(f, g),)), p, q, kind, cap)
