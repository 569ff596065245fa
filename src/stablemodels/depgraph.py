"""Positive dependency graphs over atoms and their structure.

Two constructions are provided for arbitrary theories.  Both take the
rules of each member (strictly positive implication occurrences) and
draw edges from the strictly positive atoms of the head to atoms of the
body; they differ in which body atoms qualify: strictly positive
occurrences for the "sp" graph, positive nonnegated occurrences for the
"pnn" graph.  Polarity is evaluated relative to the body and head
subformulas of each rule, not the enclosing member.

One layout serves from the ops to the output: the classical pass's, in
which atom ``names[j]`` of ``names = sorted(atoms, reverse=True)`` is
bit j (``_layout``).  Within one size, ``interpretations_of`` order is
then descending int.  Both graphs are read from an op table, the parser's
or ``formula._compile``'s, in two passes: one gives each op its body
atoms as a mask, and one carries down the strictly positive ops the body
atoms of the rules above them, so a node that ``<->`` shares is visited
once, not once per path to it.  The graph production reads is
``_graph``'s list of successor masks, one int per vertex; its components
and its loops stay masks, and names are decoded only where text is
written (``_edges`` and ``_dot`` give the ``graph`` command's
text).  This module compiles no tree and returns no sets: the public
functions that take a theory and return a ``DepGraph``, its components
or its loops as sets (``g_sp``, ``g_pnn``, ``graph_of``, ``sccs``,
``has_cycle``, ``strongly_connected_subsets``, ``subgraph_of``,
``to_dot``) live in ``sets``, the set-level adapter, which decodes these
masks.  ``oracle.rules_of`` is the definition the tests compare the
graphs with.

Loops (vertex sets inducing a strongly connected subgraph) are
enumerated per strongly connected component: every singleton, plus the
loops of each larger component, found by a search that branches on its
vertices and prunes by reachability, so its work grows with the loops
found rather than with the 2**k vertex subsets.  The components come
from Kosaraju's algorithm on the masks, in steps linear in the graph.
Given a limit, the search gives up as soon as it has found more loops
than that.  The 16-vertex ``SUBSET_CAP`` applies to the largest
component, not to the whole graph, and only ``_all_loops``, behind
``sets.strongly_connected_subsets`` and the ``loops`` command, checks
it.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, Optional

from .errors import check_cap
from .formula import (
    _AND,
    _ATOM,
    _BOT,
    _IMPLIES,
    _OR,
    Atom,
    Ops,
)

SUBSET_CAP = 16


class GraphKind(enum.Enum):
    SP = "sp"
    PNN = "pnn"


def _layout(atoms: Iterable[Atom]) -> list[Atom]:
    """``atoms`` in the classical pass's layout: ``names[j]`` is bit j, in
    descending order, so that within one size ``interpretations_of``
    order is descending int (see ``semantics._Classical``)."""
    return sorted(atoms, reverse=True)


def _mask(atoms: Iterable[Atom], names: list[Atom]) -> int:
    """The mask of ``atoms``, all of them in ``names``, in that layout."""
    wanted = set(atoms)
    return sum(1 << j for j, a in enumerate(names) if a in wanted)


def _named(mask: int, names: list[Atom]) -> list[Atom]:
    """The atoms of ``names`` at the set bits of ``mask``, from the highest
    bit down: in ascending order, in the layout."""
    out = []
    while mask:
        j = mask.bit_length() - 1
        out.append(names[j])
        mask ^= 1 << j
    return out


def _bodies(ops: Ops, kind: GraphKind, names: list[Atom]) -> list[int]:
    """Per op, the mask in the layout ``names`` of the body atoms of
    ``kind``'s graph in the op's formula; an atom op's is its own bit.
    For pnn, ``odd`` holds those that an antecedent would turn positive,
    and an implication into bottom has none: it negates its antecedent."""
    bit = {a: 1 << j for j, a in enumerate(names)}
    masks: list[int] = []
    odd: list[int] = []
    for code, x, y in ops:
        if code == _ATOM:
            mask, rest = bit[x], 0
        elif code == _IMPLIES and ops[y][0] != _BOT:
            mask = odd[x] | masks[y]
            rest = 0 if kind is GraphKind.SP else masks[x] | odd[y]
        elif code == _AND or code == _OR:
            mask, rest = masks[x] | masks[y], odd[x] | odd[y]
        else:
            mask = rest = 0
        masks.append(mask)
        odd.append(rest)
    return masks


def _graph(ops: Ops, kind: GraphKind, names: list[Atom]) -> list[int]:
    """``kind``'s graph of ``_compile``'s ``ops`` in the layout ``names``
    of their atoms: per vertex j, the mask of its successors.  In reverse
    op order, parents first, each strictly positive op has the body atoms
    of the rules above it by every path before it passes them on."""
    bodies = _bodies(ops, kind, names)
    # None off the strictly positive ops; each read after all its parents.
    above: list[Optional[int]] = [None] * len(ops)
    above[-1] = 0
    succ = [0] * len(names)
    for (code, x, y), mask, body in zip(
        reversed(ops), reversed(above), reversed(bodies)
    ):
        if mask is None:
            continue
        if code == _ATOM:
            succ[body.bit_length() - 1] |= mask
        elif code == _IMPLIES:
            above[y] = (above[y] or 0) | mask | bodies[x]
        elif code != _BOT:
            above[x] = (above[x] or 0) | mask
            above[y] = (above[y] or 0) | mask
    return succ


def _edges(succ: list[int], names: list[Atom]) -> list[tuple[Atom, Atom]]:
    """The edges of the graph ``succ`` over the layout ``names``, sorted:
    heads from the highest bit down, and each head's successors too."""
    return [
        (names[j], b)
        for j in reversed(range(len(names)))
        for b in _named(succ[j], names)
    ]


def _transposed(succ: list[int]) -> list[int]:
    """Per vertex of the graph ``succ``, the mask of its predecessors."""
    pred = [0] * len(succ)
    for v, mask in enumerate(succ):
        while mask:
            w = mask.bit_length() - 1
            pred[w] |= 1 << v
            mask ^= 1 << w
    return pred


def _components(succ: list[int]) -> list[int]:
    """The strongly connected components of the graph ``succ``, as masks,
    ordered as ``sets.sccs`` orders them.

    Kosaraju's algorithm over vertex indices, in a number of steps
    linear in the graph, each a few operations on masks: a depth-first
    search lists the vertices by the time they finish, and, latest
    first, each vertex not yet placed has as its component the vertices
    not yet placed that reach it.  Components are disjoint, so
    lexicographic order by their atoms is the order of their least
    atoms, which are their highest bits.
    """
    finished = []
    unvisited = (1 << len(succ)) - 1
    while unvisited:
        root = unvisited & -unvisited
        unvisited ^= root
        path = [root.bit_length() - 1]
        while path:
            pending = succ[path[-1]] & unvisited
            if pending:
                low = pending & -pending
                unvisited ^= low
                path.append(low.bit_length() - 1)
            else:
                finished.append(path.pop())
    backward = _transposed(succ)
    unplaced = (1 << len(succ)) - 1
    components = []
    for v in reversed(finished):
        if unplaced >> v & 1:
            comp = _reach(backward, 1 << v, unplaced)
            unplaced ^= comp
            components.append(comp)
    components.sort(key=int.bit_length, reverse=True)
    return components


def _cyclic(succ: list[int]) -> bool:
    """True iff the graph ``succ`` has a directed cycle; self-loops count."""
    if any(mask >> j & 1 for j, mask in enumerate(succ)):
        return True
    return any(comp & (comp - 1) for comp in _components(succ))


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


def _component_loops(
    forward: list[int], backward: list[int], comp: int
) -> Iterator[int]:
    """The masks of the strongly connected vertex sets of the component
    ``comp``, yielded as the search finds them, so that a caller may stop
    it.  ``forward`` and ``backward`` hold each vertex's successors and
    its predecessors; the search reads them inside ``comp`` only.

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
    starts = comp
    while starts:
        start = starts & -starts
        starts ^= start
        # The vertices from v upward, shrunk to the part strongly
        # connected with v.
        allowed = _reach(forward, start, comp & -start)
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
    succ: list[int], components: list[int], limit: float = float("inf")
) -> Optional[list[int]]:
    """The loops, as masks, of the graph ``succ`` with the ``_components``
    ``components``, in ``sets.strongly_connected_subsets`` order, or None
    as soon as more than ``limit`` are found, counting the singletons
    first.
    """
    loops = [comp for comp in components if not comp & (comp - 1)]
    if len(loops) > limit:
        return None
    larger = [comp for comp in components if comp & (comp - 1)]
    backward = _transposed(succ) if larger else []
    for comp in larger:
        for mask in _component_loops(succ, backward, comp):
            loops.append(mask)
            if len(loops) > limit:
                return None
    # Descending, then stably by size: ``interpretations_of`` order.
    loops.sort(reverse=True)
    loops.sort(key=int.bit_count)
    return loops


def _all_loops(succ: list[int]) -> list[int]:
    """The loops of the graph ``succ`` as masks, in ``interpretations_of``
    order over its layout.  ``SUBSET_CAP`` bounds the largest component;
    this is the one place the cap is checked."""
    components = _components(succ)
    largest = max(map(int.bit_count, components), default=0)
    check_cap(largest, SUBSET_CAP, "loop enumeration")
    return _loops(succ, components)


# The DOT keywords, in any letter case: an atom so named is an ID only
# when quoted.
_DOT_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}


def _dot_string(text: str) -> str:
    """``text`` as a quoted DOT string, its backslashes and quotes escaped."""
    return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')


def _dot_id(atom: Atom) -> str:
    """``atom`` as a DOT ID: bare if it is a DOT name,
    ``[A-Za-z_][A-Za-z0-9_]*``, and no keyword, else a quoted string.
    Every atom the parser reads is such a name."""
    bare = atom.isascii() and atom.isidentifier()
    return atom if bare and atom.lower() not in _DOT_KEYWORDS else _dot_string(atom)


def _dot(
    vertices: Iterable[Atom], edges: Iterable[tuple[Atom, Atom]], label: str
) -> str:
    """The DOT digraph of ``vertices`` and ``edges``, in their order, and
    ``label`` as a quoted string."""
    lines = ["digraph G {"]
    if label:
        lines.append(f"  label={_dot_string(label)};")
    for v in vertices:
        lines.append(f"  {_dot_id(v)};")
    for (a, b) in edges:
        lines.append(f"  {_dot_id(a)} -> {_dot_id(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
