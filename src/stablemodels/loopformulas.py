"""Negated-external-support formulas, loop formulas, and loop oracles.

This module alone knows the shape of a loop formula: the conjunction,
over the atoms A of Y, of A -> not NES(f, Y), one support shared by
every conjunct.  ``nes`` and ``loop_formula`` build these formulas; the
oracles and the tests use them.  Their text comes from ``NesPrinter``,
whose one walk of f renders the text of NES(f, {}) as one token list;
f's own text is a mode of that walk, since NES copies every
implication of f.  The text for a set Y walks down only the subtrees
that meet Y and copies the others from the list.
``loop_formulas`` gives each loop of a graph with its loop formula as
text, printing the support once per loop; ``nes_text`` is the ``nes``
command's text.  ``_loops`` is the one source of loops: the loops of a
graph, or every nonempty atom subset.

The loop-based stability checks here serve as independent oracles
against brute-force stability.  ``loop_oracle_models`` evaluates the
loop formulas themselves, in one ``classical_models`` table of the
formula and its loop formulas.  ``loop_verdicts`` decides one
interpretation I by the here-and-there lemma, with f compiled once and
no loop formula built; ``stable_via_loops``, ``stable_via_all_sets`` and
``loops -i`` take their verdicts from it.  The "pnn" variant is sound
and complete; the "sp" variant is exposed deliberately because it is
unsound, and the workbench reproduces its failure mode.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .depgraph import GraphKind, graph_of, strongly_connected_subsets
from .errors import AtomsOutsideFormulaError, check_cap
from .formula import (
    _INFIX,
    _LV_AND,
    _LV_IMPL,
    _LV_NOT,
    _LV_OR,
    BOT,
    And,
    Atom,
    AtomRef,
    Bottom,
    Formula,
    Implies,
    atoms,
    conj,
    neg,
)
from .semantics import (
    DEFAULT_CAP,
    Interpretation,
    classical_models,
    here_and_there_at,
    interpretations_of,
)


def check_atoms(f: Formula, y: Iterable[Atom]) -> frozenset[Atom]:
    """``y`` as a frozenset; raises if it has an atom that ``f`` lacks."""
    ys = frozenset(y)
    extra = ys - atoms(f)
    if extra:
        raise AtomsOutsideFormulaError(extra)
    return ys


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
    return _nes(f, check_atoms(f, y))


def loop_formula(f: Formula, y: Iterable[Atom]) -> Formula:
    """Conjunction over A in ``y`` of A -> not NES(f, y), in atom order."""
    ys = check_atoms(f, y)
    if not ys:
        raise ValueError("loop formula requires a nonempty atom set")
    return _loop_formula(f, ys)


def _loop_formula(f: Formula, ys: frozenset[Atom]) -> Formula:
    # ``ys`` is a nonempty set of f's atoms, already checked.
    support = neg(_nes(f, ys))
    return conj(Implies(AtomRef(a), support) for a in sorted(ys))


# A node's atoms are summarized by a signature of this many bits, atom k
# of f setting bit k mod _SIGNATURE_BITS: exact up to this many atoms,
# and a few machine words per node however many atoms f has.
_SIGNATURE_BITS = 60


def _levels(g: Formula) -> tuple[int, int]:
    """The precedence levels of ``g``'s root in the text of f and in the
    text of NES(f, Y), which are the same for every Y: NES keeps atoms
    and bottom atomic (an atom of Y becomes bottom) and turns every
    implication into a conjunction."""
    kind = type(g)
    if kind is AtomRef or kind is Bottom:
        return _LV_NOT, _LV_NOT
    if kind is Implies:
        # "not x" is atomic in f's text.
        return (_LV_NOT if type(g.consequent) is Bottom else _LV_IMPL), _LV_AND
    level = _INFIX[kind][0]
    return level, level


def _operand(g: Formula, pos: int, min_level: int) -> tuple:
    """The items that print NES(g, Y), g at ``pos``, as an operand at
    ``min_level``."""
    return ("(", pos, ")") if _levels(g)[1] < min_level else (pos,)


class NesPrinter:
    """The text of NES(f, Y) for any set Y of ``f``'s atoms, as
    ``print_formula(nes(f, Y))`` prints it, from one walk of f.

    The walk renders NES(f, {}) into one token list, in which every
    node's text is one span, and records a bit signature of each node's
    atoms.  The text of f is a mode of the same walk, entered where
    NES(F -> G) = (NES F -> NES G) & (F -> G) copies an implication, so
    the list holds the text of every implication of f as well.  A
    compound node is printed once in each mode (the nodes that ``<->``
    shares are told apart by identity) and copied as a span when met
    again.  A subtree with no atom of Y has the same NES text for every
    Y, so printing for Y walks down only the nodes whose signature meets
    Y's and copies every other subtree's span as a list slice.  Whether
    an atom is in Y is decided by name, so a signature bit shared by two
    atoms only sends the walk down a subtree that it could have copied.
    Parentheses follow from the levels of ``_levels``.  Memory is linear
    in the printed size of NES(f, {}): spans are slices of the one list,
    not a string per node.
    """

    def __init__(self, f: Formula):
        bits: dict[Atom, int] = {}
        tokens: list[str] = []
        # By node position, in order of first visit: the atom signature,
        # the spans of f's and NES's text of the node (None until it is
        # printed in that mode), and the items of NES(g, Y) for a Y that
        # meets g.
        masks: list[int] = []
        spans: tuple[list, list] = ([], [])
        expand: list[tuple] = []
        position: dict[int, int] = {}
        # Items are tokens, (node, in NES, minimum level) operands, and
        # [node, in NES, start, position] markers that close a node's
        # first printing.
        stack: list = [(f, True, _LV_IMPL)]
        while stack:
            item = stack.pop()
            kind = type(item)
            if kind is str:
                tokens.append(item)
                continue
            if kind is tuple:
                g, in_nes, min_level = item
                if not in_nes and type(g) is AtomRef:
                    # f's text of an atom needs no span.
                    tokens.append(g.name)
                    continue
                if min_level > _LV_IMPL and _levels(g)[in_nes] < min_level:
                    tokens.append("(")
                    stack.append(")")
                i = position.get(id(g))
                if i is None:
                    i = position[id(g)] = len(masks)
                    masks.append(0)
                    spans[0].append(None)
                    spans[1].append(None)
                    expand.append(())
                span = spans[in_nes][i]
                if span is not None:
                    # A shared node: its text is printed already.
                    tokens += tokens[span]
                    continue
                stack.append([g, in_nes, len(tokens), i])
                kind = type(g)
                if kind is AtomRef or kind is Bottom:
                    tokens.append("bot" if kind is Bottom else g.name)
                elif kind is not Implies:
                    _, text, left_min, right_min = _INFIX[kind]
                    stack += (
                        (g.right, in_nes, right_min), text,
                        (g.left, in_nes, left_min),
                    )
                elif type(g.consequent) is Bottom:
                    if in_nes:
                        stack += ((g, False, _LV_AND + 1), " & ")
                    stack.append((g.antecedent, in_nes, _LV_NOT))
                    tokens.append("not ")
                else:
                    if in_nes:
                        # The text of F -> G is the second conjunct.
                        stack += (")", (g, False, _LV_IMPL), ") & (")
                        tokens.append("(")
                    stack += (
                        (g.consequent, in_nes, _LV_IMPL), " -> ",
                        (g.antecedent, in_nes, _LV_OR),
                    )
                continue
            # A marker: the node's first printing is complete.
            g, in_nes, start, i = item
            spans[in_nes][i] = slice(start, len(tokens))
            kind = type(g)
            if not in_nes or kind is Bottom:
                continue
            if kind is AtomRef:
                bit = 1 << len(bits) % _SIGNATURE_BITS
                masks[i] = bits.setdefault(g.name, bit)
                items = ((g.name, ("bot",), (g.name,)),)
            elif kind is not Implies:
                _, text, left_min, right_min = _INFIX[kind]
                l_pos, r_pos = position[id(g.left)], position[id(g.right)]
                masks[i] = masks[l_pos] | masks[r_pos]
                items = (
                    *_operand(g.left, l_pos, left_min), text,
                    *_operand(g.right, r_pos, right_min),
                )
            elif type(g.consequent) is Bottom:
                l_pos = position[id(g.antecedent)]
                masks[i] = masks[l_pos]
                items = (
                    "not ", *_operand(g.antecedent, l_pos, _LV_NOT), " & ",
                    spans[0][i],
                )
            else:
                left, right = g.antecedent, g.consequent
                l_pos, r_pos = position[id(left)], position[id(right)]
                masks[i] = masks[l_pos] | masks[r_pos]
                f_span = spans[0][i]
                items = (
                    "(", *_operand(left, l_pos, _LV_OR), " -> ", r_pos,
                    ") & (", f_span, ")",
                )
                if type(right) is AtomRef:
                    # NES(y) is bottom for y in Y, and the first conjunct
                    # is printed "not NES(F)".
                    in_y = (
                        "not ", *_operand(left, l_pos, _LV_NOT), " & (",
                        f_span, ")",
                    )
                    items = ((right.name, in_y[::-1], items[::-1]),)
            expand[i] = items[::-1]
        self._bits = bits
        self._tokens = tokens
        self._masks = masks
        self._spans = spans[1]
        self._expand = expand
        self._support = ("not ", *_operand(f, 0, _LV_NOT))[::-1]

    def _print(self, items: list, ys: frozenset[Atom]) -> str:
        # ``items`` is a stack: node positions, tokens, slices of the
        # tokens, and (atom, items if it is in Y, items otherwise) choices.
        bits = self._bits
        y_mask = 0
        for a in ys:
            y_mask |= bits[a]
        tokens, masks = self._tokens, self._masks
        spans, expand = self._spans, self._expand
        out: list[str] = []
        stack = items
        while stack:
            item = stack.pop()
            kind = type(item)
            if kind is int:
                if masks[item] & y_mask:
                    stack += expand[item]
                else:
                    out += tokens[spans[item]]
            elif kind is str:
                out.append(item)
            elif kind is slice:
                out += tokens[item]
            else:
                atom, in_y, otherwise = item
                stack += in_y if atom in ys else otherwise
        return "".join(out)

    def text(self, ys: frozenset[Atom]) -> str:
        """The text of NES(f, ys); ``ys`` holds atoms of f only."""
        return self._print([0], ys)

    def support(self, ys: frozenset[Atom]) -> str:
        """The text of not NES(f, ys), the support of a loop formula."""
        return self._print([*self._support], ys)


def nes_text(f: Formula, y: Iterable[Atom]) -> str:
    """``print_formula(nes(f, y))``, printed by ``NesPrinter``."""
    ys = check_atoms(f, y)
    return NesPrinter(f).text(ys)


def loop_formulas(
    f: Formula, kind: GraphKind = GraphKind.PNN
) -> Iterator[tuple[frozenset[Atom], str]]:
    """Each loop of ``f``'s graph with its printed loop formula.

    The text is ``print_formula(loop_formula(f, Y))``, printed by one
    ``NesPrinter`` of f; the support ``not NES(f, Y)``, one object under
    every atom of Y, is printed once.
    """
    printer = NesPrinter(f)
    for ys in _loops(f, kind):
        support = printer.support(ys)
        if len(ys) == 1:
            yield ys, f"{next(iter(ys))} -> {support}"
        else:
            yield ys, " & ".join([f"({a} -> {support})" for a in sorted(ys)])


def _loops(f: Formula, kind: Optional[GraphKind]) -> Iterator[frozenset[Atom]]:
    """The loops of ``kind``'s graph of ``f``, or every nonempty subset of
    ``f``'s atoms if None; nothing is built before the first ``next``."""
    if kind is None:
        subsets = interpretations_of(atoms(f))
        next(subsets)  # the empty set, which has no loop formula
        yield from subsets
    else:
        yield from strongly_connected_subsets(graph_of((f,), kind))


def loop_oracle_models(
    f: Formula, kind: Optional[GraphKind]
) -> list[Interpretation]:
    """The classical models of ``f`` and the loop formulas of the loops of
    ``kind``'s graph (every nonempty atom subset if None), over ``f``'s atoms."""
    universe = atoms(f)
    check_cap(len(universe), DEFAULT_CAP, "loop-formula enumeration")
    lfs = (_loop_formula(f, ys) for ys in _loops(f, kind))
    return classical_models((f, *lfs), universe)


def loop_verdicts(
    i: Iterable[Atom], f: Formula, loops: Iterable[frozenset[Atom]]
) -> Iterator[bool]:
    """Whether ``i`` is a model of ``f``, then whether it satisfies the
    loop formula of each of ``loops``, with f compiled once: I satisfies
    LF_Y exactly when Y misses I or <I - Y, I> is not a here-and-there
    model of f (Ferraris, Lee and Lifschitz 2006).  I's atoms are checked
    on the first ``next``."""
    i = check_atoms(f, i)
    here_and_there = here_and_there_at((f,), i)
    yield here_and_there(frozenset())
    for ys in loops:
        yield not ys & i or not here_and_there(ys)


def _loop_oracle_at(
    i: Interpretation, f: Formula, kind: Optional[GraphKind]
) -> bool:
    """Whether ``i`` is in ``loop_oracle_models(f, kind)``.  Only the
    family of every atom subset (None), 2^n sets, is held to
    ``DEFAULT_CAP``; a graph's loops are bounded by the component cap of
    ``strongly_connected_subsets``."""
    if kind is None:
        check_cap(len(atoms(f)), DEFAULT_CAP, "loop-formula enumeration")
    return all(loop_verdicts(i, f, _loops(f, kind)))


def stable_via_all_sets(i: Interpretation, f: Formula) -> bool:
    """Stability via the loop formulas of every nonempty atom subset of
    ``f``, decided at I by the here-and-there lemma (``loop_verdicts``)."""
    return _loop_oracle_at(i, f, None)


def stable_via_loops(
    i: Interpretation, f: Formula, kind: GraphKind = GraphKind.PNN
) -> bool:
    """Stability via loop formulas for the loops of the chosen graph only.

    Sound and complete for GraphKind.PNN.  For GraphKind.SP it is an
    intentionally unsound check, kept to exhibit the counterexample
    separating the two graphs.  Both are decided at I by the
    here-and-there lemma (``loop_verdicts``).
    """
    return _loop_oracle_at(i, f, kind)
