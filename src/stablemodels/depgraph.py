"""Positive dependency graphs over atoms and their structure.

Two constructions are provided for arbitrary theories.  Both take the
rules of each member (strictly positive implication occurrences) and
draw edges from the strictly positive atoms of the head to atoms of the
body; they differ in which body atoms qualify: strictly positive
occurrences for the "sp" graph, positive nonnegated occurrences for the
"pnn" graph.  Polarity is evaluated relative to the body and head
subformulas of each rule, not the enclosing member.

Both graphs are read from ``formula._compile``'s ops in two passes: one
gives each op its body atoms as an int mask, and one carries down the
strictly positive ops the body atoms of the rules above them, so a node
that ``<->`` shares is visited once, not once per path to it.
``oracle.rules_of`` is the definition the tests compare them with.

Loops (vertex sets inducing a strongly connected subgraph) are
enumerated per strongly connected component: every singleton, plus the
loops of each larger component, found by a search that branches on its
vertices and prunes by reachability, so its work grows with the loops
found rather than with the 2**k vertex subsets.  Given a limit, the
search gives up as soon as it has found more loops than that.  The
16-vertex ``SUBSET_CAP`` applies to the largest component, not to the
whole graph, and only ``strongly_connected_subsets`` checks it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import check_cap
from .formula import (
    _AND,
    _ATOM,
    _BOT,
    _IMPLIES,
    _OR,
    Atom,
    Ops,
    Theory,
    _compile,
)

Edge = tuple[Atom, Atom]

SUBSET_CAP = 16


class GraphKind(enum.Enum):
    SP = "sp"
    PNN = "pnn"


@dataclass(frozen=True)
class DepGraph:
    vertices: frozenset[Atom]
    edges: frozenset[Edge]

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


def _bodies(ops: Ops, kind: GraphKind) -> tuple[list[Atom], list[int]]:
    """The atoms of ``ops`` by first op, and per op the mask (bit j for
    atom j) of the body atoms of ``kind``'s graph in the op's formula.
    For pnn, ``odd`` holds those that an antecedent would turn positive,
    and an implication into bottom has none: it negates its antecedent."""
    bit: dict[Atom, int] = {}
    masks: list[int] = []
    odd: list[int] = []
    for code, x, y in ops:
        if code == _ATOM:
            mask, rest = bit.setdefault(x, 1 << len(bit)), 0
        elif code == _IMPLIES and ops[y][0] != _BOT:
            mask = odd[x] | masks[y]
            rest = 0 if kind is GraphKind.SP else masks[x] | odd[y]
        elif code == _AND or code == _OR:
            mask, rest = masks[x] | masks[y], odd[x] | odd[y]
        else:
            mask = rest = 0
        masks.append(mask)
        odd.append(rest)
    return list(bit), masks


def _named(mask: int, names: list[Atom]) -> Iterator[Atom]:
    """The atoms of ``names`` at the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield names[low.bit_length() - 1]
        mask ^= low


def _graph(ops: Ops, kind: GraphKind) -> DepGraph:
    """``kind``'s graph of ``_compile``'s ``ops``.  In reverse op order,
    parents first, each strictly positive op has the body atoms of the
    rules above it by every path before it passes them on."""
    names, bodies = _bodies(ops, kind)
    # None off the strictly positive ops; each read after all its parents.
    above: list[Optional[int]] = [None] * len(ops)
    above[-1] = 0
    heads: dict[Atom, int] = {}
    for (code, x, y), mask in zip(reversed(ops), reversed(above)):
        if mask is None:
            continue
        if code == _ATOM:
            heads[x] = heads.get(x, 0) | mask
        elif code == _IMPLIES:
            above[y] = (above[y] or 0) | mask | bodies[x]
        elif code != _BOT:
            above[x] = (above[x] or 0) | mask
            above[y] = (above[y] or 0) | mask
    edges = ((h, b) for h, mask in heads.items() for b in _named(mask, names))
    return DepGraph(frozenset(names), frozenset(edges))


def g_sp(t: Theory) -> DepGraph:
    """Edges from strictly positive head atoms to strictly positive body atoms."""
    return _graph(_compile(t)[0], GraphKind.SP)


def g_pnn(t: Theory) -> DepGraph:
    """Edges from strictly positive head atoms to positive nonnegated body atoms."""
    return _graph(_compile(t)[0], GraphKind.PNN)


def graph_of(t: Theory, kind: GraphKind) -> DepGraph:
    return g_sp(t) if kind is GraphKind.SP else g_pnn(t)


def _components(
    g: DepGraph,
) -> tuple[dict[Atom, list[Atom]], list[frozenset[Atom]]]:
    """Sorted successor lists of every vertex, from one pass over the
    edges, and the strongly connected components (Tarjan), ordered
    lexicographically.

    ``sccs`` and ``strongly_connected_subsets`` read both from one call,
    and so does ``semantics``' path choice, which hands the pair to
    ``_loops`` with a limit on the loops that pay.
    """
    succ: dict[Atom, list[Atom]] = {v: [] for v in g.vertices}
    for (a, b) in sorted(g.edges):
        succ[a].append(b)
    index: dict[Atom, int] = {}
    lowlink: dict[Atom, int] = {}
    on_stack: set[Atom] = set()
    stack: list[Atom] = []
    components: list[frozenset[Atom]] = []

    def visit(v: Atom) -> None:
        index[v] = lowlink[v] = len(index)
        stack.append(v)
        on_stack.add(v)

    for root in sorted(g.vertices):
        if root in index:
            continue
        visit(root)
        # Depth-first path: each vertex with its pending successors.
        path = [(root, iter(succ[root]))]
        while path:
            v, pending = path[-1]
            for w in pending:
                if w not in index:
                    visit(w)
                    path.append((w, iter(succ[w])))
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            else:
                path.pop()
                if path:
                    u = path[-1][0]
                    lowlink[u] = min(lowlink[u], lowlink[v])
                if lowlink[v] == index[v]:
                    comp = set()
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.add(w)
                        if w == v:
                            break
                    components.append(frozenset(comp))
    return succ, sorted(components, key=lambda c: tuple(sorted(c)))


def sccs(g: DepGraph) -> list[frozenset[Atom]]:
    """Strongly connected components (Tarjan), ordered lexicographically."""
    return _components(g)[1]


def has_cycle(g: DepGraph) -> bool:
    """True iff the graph has a directed cycle; self-loops count."""
    if any(a == b for (a, b) in g.edges):
        return True
    return any(len(c) > 1 for c in sccs(g))


def _reach(adjacency: list[int], start: int, allowed: int) -> int:
    """The vertices of ``allowed`` that the vertex ``start`` reaches inside it.

    Vertex n is bit n; ``adjacency[n]`` is the mask of n's successors (or
    predecessors, for backward reach), and ``start`` is one bit.  The pass
    stops as soon as it has reached all of ``allowed``, which on a dense
    component is after the first vertex.
    """
    seen = frontier = start
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = adjacency[low.bit_length() - 1] & allowed & ~seen
        seen |= new
        if seen == allowed:
            break
        frontier |= new
    return seen


def _component_loops(forward: list[int], backward: list[int]) -> Iterator[int]:
    """The masks of the strongly connected vertex sets of one component,
    yielded as the search finds them, so that a caller may stop it.

    Each set is found once, from its lowest vertex v.  A search node holds
    the vertices included so far and the vertices still allowed: the
    strongly connected part, holding v, of the component's vertices from v
    upward less those dropped.  It branches on the lowest allowed vertex
    not yet included.  Including it leaves ``allowed`` as it is; dropping
    it shrinks ``allowed`` to what v reaches, forward and then backward,
    in the rest, and cuts the branch if that loses an included vertex.
    As ``allowed`` stays strongly connected, every node has a loop below
    it (including all of ``allowed``), and a node with nothing left to
    decide is one.  A node costs at most two reachability passes and a
    loop has at most k nodes above it that lead to it by inclusions
    alone, so the search makes at most 2k passes per loop, however many
    of the 2**k vertex sets are not loops.
    """
    k = len(forward)
    for v in range(k):
        start = 1 << v
        # The vertices from v upward, shrunk to the part strongly
        # connected with v.
        allowed = _reach(forward, start, (1 << k) - start)
        allowed = _reach(backward, start, allowed)
        stack = [(start, allowed)]
        while stack:
            included, allowed = stack.pop()
            undecided = allowed & ~included
            if not undecided:
                yield included
                continue
            low = undecided & -undecided
            stack.append((included | low, allowed))
            rest = _reach(forward, start, allowed ^ low)
            if included & ~rest:
                continue
            rest = _reach(backward, start, rest)
            if not included & ~rest:
                stack.append((included, rest))


def _loops(
    succ: dict[Atom, list[Atom]],
    components: list[frozenset[Atom]],
    limit: float = float("inf"),
) -> Optional[list[frozenset[Atom]]]:
    """The loops of a graph from its ``_components``, sorted as
    ``strongly_connected_subsets`` gives them, or None as soon as more
    than ``limit`` are found, counting the singletons first."""
    # Each loop as its names in ascending order, for the sort.
    loops = [tuple(comp) for comp in components if len(comp) == 1]
    if len(loops) > limit:
        return None
    for comp in components:
        if len(comp) == 1:
            continue
        names = sorted(comp)
        bit = {v: n for n, v in enumerate(names)}
        forward, backward = [0] * len(names), [0] * len(names)
        for v in names:
            for w in succ[v]:
                if w in bit:
                    forward[bit[v]] |= 1 << bit[w]
                    backward[bit[w]] |= 1 << bit[v]
        for mask in _component_loops(forward, backward):
            loops.append(tuple(_named(mask, names)))
            if len(loops) > limit:
                return None
    # By names, then stably by size: the order of (size, names).
    loops.sort()
    loops.sort(key=len)
    return list(map(frozenset, loops))


def strongly_connected_subsets(g: DepGraph) -> list[frozenset[Atom]]:
    """All nonempty vertex subsets whose induced subgraph is strongly connected.

    Singletons count whether or not they carry a self-loop.  Such a
    subset lies inside one strongly connected component, so each
    component with k > 1 vertices is searched on its own, branching on
    its vertices with reachability pruning (``_component_loops``), and
    ``SUBSET_CAP`` bounds the largest component, not the whole graph;
    this is the one place the cap is checked.  The result is in
    ``interpretations_of`` order: by size, then lexicographically.
    """
    succ, components = _components(g)
    largest = max(map(len, components), default=0)
    check_cap(largest, SUBSET_CAP, "loop enumeration")
    return _loops(succ, components)


def subgraph_of(small: DepGraph, big: DepGraph) -> bool:
    return small.vertices <= big.vertices and small.edges <= big.edges


# The DOT keywords, in any letter case: an atom so named is an ID only
# when quoted.
_DOT_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}


def _dot_id(atom: Atom) -> str:
    """``atom`` as a DOT ID: quoted if it is a DOT keyword, else bare."""
    return f'"{atom}"' if atom.lower() in _DOT_KEYWORDS else atom


def to_dot(g: DepGraph, label: str = "") -> str:
    """DOT digraph with sorted vertex and edge statements."""
    lines = ["digraph G {"]
    if label:
        lines.append(f'  label="{label}";')
    for v in sorted(g.vertices):
        lines.append(f"  {_dot_id(v)};")
    for (a, b) in g.sorted_edges():
        lines.append(f"  {_dot_id(a)} -> {_dot_id(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
