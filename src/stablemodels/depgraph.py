"""Positive dependency graphs over atoms and their structure.

Two constructions are provided for arbitrary theories.  Both take the
rules of each member (strictly positive implication occurrences) and
draw edges from the strictly positive atoms of the head to atoms of the
body; they differ in which body atoms qualify: strictly positive
occurrences for the "sp" graph, positive nonnegated occurrences for the
"pnn" graph.  Polarity is evaluated relative to the body and head
subformulas of each rule, not the enclosing member.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .formula import (
    Atom,
    Theory,
    positive_nonnegated_atoms,
    rules_of,
    spos,
    theory_atoms,
)
from .semantics import check_cap, interpretations_of

Edge = tuple[Atom, Atom]

SUBSET_CAP = 16


class GraphKind(enum.Enum):
    SP = "sp"
    PNN = "pnn"


@dataclass(frozen=True)
class DepGraph:
    vertices: frozenset[Atom]
    edges: frozenset[Edge]

    def successors(self, v: Atom) -> frozenset[Atom]:
        return frozenset(b for (a, b) in self.edges if a == v)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


def _build(t: Theory, body_atoms) -> DepGraph:
    edges: set[Edge] = set()
    for member in t:
        for rule in rules_of(member):
            heads = spos(rule.head)
            bodies = body_atoms(rule.body)
            edges.update((h, b) for h in heads for b in bodies)
    return DepGraph(theory_atoms(t), frozenset(edges))


def g_sp(t: Theory) -> DepGraph:
    """Edges from strictly positive head atoms to strictly positive body atoms."""
    return _build(t, spos)


def g_pnn(t: Theory) -> DepGraph:
    """Edges from strictly positive head atoms to positive nonnegated body atoms."""
    return _build(t, positive_nonnegated_atoms)


def graph_of(t: Theory, kind: GraphKind) -> DepGraph:
    return g_sp(t) if kind is GraphKind.SP else g_pnn(t)


def sccs(g: DepGraph) -> list[frozenset[Atom]]:
    """Strongly connected components (Tarjan), ordered lexicographically."""
    index: dict[Atom, int] = {}
    lowlink: dict[Atom, int] = {}
    on_stack: set[Atom] = set()
    stack: list[Atom] = []
    components: list[frozenset[Atom]] = []
    succ = {v: sorted(g.successors(v)) for v in g.vertices}

    def connect(v: Atom) -> None:
        index[v] = lowlink[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        for w in succ[v]:
            if w not in index:
                connect(w)
                lowlink[v] = min(lowlink[v], lowlink[w])
            elif w in on_stack:
                lowlink[v] = min(lowlink[v], index[w])
        if lowlink[v] == index[v]:
            comp = set()
            while True:
                w = stack.pop()
                on_stack.discard(w)
                comp.add(w)
                if w == v:
                    break
            components.append(frozenset(comp))

    for v in sorted(g.vertices):
        if v not in index:
            connect(v)
    return sorted(components, key=lambda c: tuple(sorted(c)))


def has_cycle(g: DepGraph) -> bool:
    """True iff the graph has a directed cycle; self-loops count."""
    if any(a == b for (a, b) in g.edges):
        return True
    return any(len(c) > 1 for c in sccs(g))


def _induced_strongly_connected(g: DepGraph, ys: frozenset[Atom]) -> bool:
    # Reachability within the induced subgraph, forward and backward
    # from an arbitrary start vertex.
    start = next(iter(ys))
    for flip in (False, True):
        seen = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for (a, b) in g.edges:
                if flip:
                    a, b = b, a
                if a == v and b in ys and b not in seen:
                    seen.add(b)
                    frontier.append(b)
        if seen != ys:
            return False
    return True


def strongly_connected_subsets(
    g: DepGraph, cap: int = SUBSET_CAP
) -> list[frozenset[Atom]]:
    """All nonempty vertex subsets whose induced subgraph is strongly connected.

    Singletons count whether or not they carry a self-loop.
    """
    check_cap(len(g.vertices), cap, "loop enumeration")
    subsets = interpretations_of(g.vertices)
    next(subsets)  # the empty set
    return [
        ys for ys in subsets
        if len(ys) == 1 or _induced_strongly_connected(g, ys)
    ]


def subgraph_of(small: DepGraph, big: DepGraph) -> bool:
    return small.vertices <= big.vertices and small.edges <= big.edges


def to_dot(g: DepGraph, label: str = "") -> str:
    """DOT digraph with sorted vertex and edge statements."""
    lines = ["digraph G {"]
    if label:
        lines.append(f'  label="{label}";')
    for v in sorted(g.vertices):
        lines.append(f"  {v};")
    for (a, b) in g.sorted_edges():
        lines.append(f"  {a} -> {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
