"""The text of negated-external-support and loop formulas, and loop oracles.

A loop formula is the conjunction, over the atoms A of Y, of
A -> not NES(f, Y), one support shared by every conjunct.  The formulas
as objects are built only in ``oracle`` (``nes`` and ``loop_formula``);
production prints their text with ``NesPrinter``, whose one walk of
f's op table, as the parser emits it, renders NES(f, Y) for every Y:
the text for Y = {} as a base list, and for each atom its patches, the
base indices where its text differs when it is in Y (each occurrence,
and around the antecedent of each rule F -> y), with that text.  f's
own text is cut from one printing of f's ops, so the ops are walked
twice, once to print f and once for the base, and no formula object is
built.  The text for a set Y, given as a mask in the classical pass's
layout of f's atoms (see ``depgraph``), is a copy of the base with the
patches of Y's atoms written in.  Loops stay masks from the loop search
to the output: the ``loops`` command prints each loop's support once,
from its mask, and writes the loop formula around it; ``nes_text`` is
the ``nes`` command's text; it checks Y against the atoms the printer's
walk found.  ``_loops`` is the loop oracles' one source of loops: the
loops of a graph built from a compile's ops, or every nonempty atom
subset, as masks read off ``semantics._point_order``, the cached order of
every point that the classical pass's lists are selected from, with no
set of names built.

The loop-based stability checks here serve as independent oracles
against brute-force stability, next to ``oracle.loop_oracle_models``,
which evaluates the loop formulas themselves.  They decide one
interpretation I by the here-and-there lemma,
``semantics.loop_lemma_at``, with f compiled once and no loop formula
built: one pass over the ops decides a batch of loops, given as masks,
bit j of its tables standing for loop j.  ``loop_verdicts`` gives
``loops -i`` every verdict from one batch; ``stable_via_loops`` and
``stable_via_all_sets`` stop at the first false verdict, so they draw
their loops in batches of 1, 2, 4, 8 and so on.  The "pnn" variant is
sound and complete; the "sp" variant is exposed deliberately because it
is unsound, and the workbench reproduces its failure mode.

Those two take a formula and a set of atoms, as the functions of
``sets``, the set-level adapter, do, but they stay here: the
benchmark's reference recorder imports ``stable_via_all_sets`` from
this module.  The other set-level functions, the graphs, loops and
model lists, live in ``sets``.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional

from .depgraph import GraphKind, _all_loops, _graph, _layout, _mask, _named
from .errors import AtomsOutsideFormulaError, check_cap
from .formula import (
    _AND,
    _ATOM,
    _BOT,
    _IMPLIES,
    _INFIX,
    _LV_AND,
    _LV_NOT,
    _LV_OR,
    _OR,
    Atom,
    Formula,
    Ops,
    _compile,
    print_tokens,
)
from .semantics import (
    DEFAULT_CAP,
    Interpretation,
    _point_order,
    loop_lemma_at,
)


def check_atoms(y: Iterable[Atom], universe: Iterable[Atom]) -> frozenset[Atom]:
    """``y`` as a frozenset; raises if it has an atom outside ``universe``."""
    ys = frozenset(y)
    extra = ys.difference(universe)
    if extra:
        raise AtomsOutsideFormulaError(extra)
    return ys


# The precedence level of NES(g) by g's op code: NES keeps atoms and
# bottom atomic (an atom of Y becomes bottom) and turns every
# implication into a conjunction, so no level depends on Y.
_NES_LEVEL = {
    _ATOM: _LV_NOT, _BOT: _LV_NOT, _AND: _LV_AND, _OR: _LV_OR,
    _IMPLIES: _LV_AND,
}


def _nes_operand(ops: Ops, g: int, min_level: int) -> tuple:
    """The stack items, in reverse, of NES(g) for op ``g`` of ``ops`` as
    an operand at ``min_level``."""
    return (")", g, "(") if _NES_LEVEL[ops[g][0]] < min_level else (g,)


class NesPrinter:
    """The text of NES(f, Y) for any set Y of the atoms of f, the formula
    of the last op of ``ops``, as ``print_formula(nes(f, Y))`` prints it,
    from one walk of the ops.

    NES(f, Y) differs from NES(f, {}) only where an atom of Y occurs:
    the atom prints ``bot``, and the first conjunct of NES(F -> y) prints
    ``not NES(F)`` instead of ``(NES(F) -> y)``.  So the walk appends to
    one base list, the text for Y = {}: runs of literal text, each
    followed by the text of a choice ``(atom, text if it is in Y, text
    otherwise)``, one for each atom occurrence and two around NES(F) in
    NES(F -> y).  For each choice it records a patch of its atom, the
    choice's index in the base and its in-Y text.  The copies of an
    implication that NES(F -> G) = (NES F -> NES G) & (F -> G) holds are
    literal text, cut from the one printing of f by ``print_tokens``.

    The base opens with a slot for the head of a support and closes with
    one for its tail.  Y is given as a mask in ``names``, f's atoms in
    the classical pass's layout.  Printing for a Y copies the base, fills
    the two slots, writes the patches of Y's atoms and joins once, so its
    Python-level work is one step per occurrence of an atom of Y, not one
    per item of the base.
    """

    def __init__(self, ops: Ops):
        root = len(ops) - 1
        tokens, spans = print_tokens(ops, root)
        # The text for Y = {}, between a slot for the head of a support
        # and one for its tail.
        base: list[str] = [""]
        # One object for each distinct literal run: the operands that
        # ``<->`` shares repeat them many times.
        literals: dict[str, str] = {}
        # Each atom's patches: (index in ``base``, text when it is in Y).
        patches: dict[Atom, list[tuple[int, str]]] = {}
        run: list[str] = []
        # Items are literal text, choices and the ops whose NES is
        # printed there, pushed in reverse so that they pop in order.
        stack: list = [root]
        while stack:
            g = stack.pop()
            kind = type(g)
            if kind is str:
                run.append(g)
                continue
            if kind is int:
                code, x, y = ops[g]
                if code == _ATOM:
                    g = (x, "bot", x)
                    kind = tuple
            if kind is tuple:
                # The choice ``(atom, text if it is in Y, text otherwise)``.
                text = "".join(run)
                base += (literals.setdefault(text, text), g[2])
                patches.setdefault(g[0], []).append((len(base) - 1, g[1]))
                run.clear()
            elif code == _BOT:
                run.append("bot")
            elif code != _IMPLIES:
                _, infix, left_min, right_min = _INFIX[code]
                stack += (
                    *_nes_operand(ops, y, right_min), infix,
                    *_nes_operand(ops, x, left_min),
                )
            else:
                f_text = "".join(tokens[spans[g]])
                consequent, head = ops[y][:2]
                if consequent == _BOT:
                    stack += (f_text, " & ", *_nes_operand(ops, x, _LV_NOT))
                    run.append("not ")
                elif consequent == _ATOM:
                    # "(NES(F) -> y) & (", or "not NES(F) & (" for y in Y.
                    open_, close = (
                        ("not ", " & (") if _NES_LEVEL[ops[x][0]] == _LV_NOT
                        else ("not (", ") & (")
                    )
                    stack += (
                        ")", f_text, (head, close, f" -> {head}) & ("), x,
                        (head, open_, "("),
                    )
                else:
                    stack += (")", f_text, ") & (", y, " -> ", x)
                    run.append("(")
        text = "".join(run)
        base += (literals.setdefault(text, text), "")
        self._base = base
        # Every atom of f has a choice, so ``patches`` holds them all.
        self.names = _layout(patches)
        self._patches = patches
        self._support = (
            ("not ", "") if _NES_LEVEL[ops[root][0]] == _LV_NOT
            else ("not (", ")")
        )

    def _print(self, ys: int, head: str, tail: str) -> str:
        out = self._base.copy()
        out[0] = head
        out[-1] = tail
        for a in _named(ys, self.names):
            for index, text in self._patches[a]:
                out[index] = text
        return "".join(out)

    def text(self, ys: int) -> str:
        """The text of NES(f, Y), for the mask ``ys`` of Y in ``names``."""
        return self._print(ys, "", "")

    def support(self, ys: int) -> str:
        """The text of not NES(f, Y), the support of a loop formula, for
        the mask ``ys`` of Y in ``names``."""
        return self._print(ys, *self._support)


def nes_text(ops: Ops, y: Iterable[Atom]) -> str:
    """``print_formula(nes(f, y))`` for the formula f of the last op of
    ``ops``, printed by ``NesPrinter``, whose walk also gives f's atoms to
    check ``y`` against."""
    printer = NesPrinter(ops)
    ys = check_atoms(y, printer.names)
    return printer.text(_mask(ys, printer.names))


def _loops(
    ops: Ops, names: list[Atom], kind: Optional[GraphKind]
) -> Iterator[int]:
    """The loops of ``kind``'s graph of ``_compile``'s ``ops``, or every
    nonempty subset of their atoms if None, as masks in the layout
    ``names`` of the atoms; nothing is built before the first ``next``.

    The subsets are ``semantics._point_order``'s points past the first,
    the empty set: every point in ``interpretations_of`` order."""
    if kind is None:
        yield from itertools.islice(_point_order(len(names))[0], 1, None)
    else:
        yield from _all_loops(_graph(ops, kind, names))


def loop_verdicts(
    ops: Ops,
    names: list[Atom],
    i: int,
    loops: list[int],
) -> Iterator[bool]:
    """Whether I is a model of ``_compile``'s ``ops``, then whether it
    satisfies the loop formula of each of ``loops``, decided by the
    here-and-there lemma with no loop formula built
    (``semantics.loop_lemma_at``).  I and the loops are masks in the
    layout ``names`` of the ops' atoms.  For a caller that reads every
    verdict, as ``loops -i`` does: the loops are one batch, decided by
    one pass over the ops."""
    return loop_lemma_at(ops, names, i, (loops,))


def _doubling(loops: Iterable[int]) -> Iterator[Iterator[int]]:
    """``loops`` in batches of 1, 2, 4, 8 and so on, each read lazily;
    the batches after the last loop are empty."""
    loops = iter(loops)
    size = 1
    while True:
        yield itertools.islice(loops, size)
        size <<= 1


def _loop_oracle_at(
    i: Interpretation, f: Formula, kind: Optional[GraphKind]
) -> bool:
    """Whether ``i`` is in ``oracle.loop_oracle_models(f, kind)``, from one
    compile of f.  Only the family of every atom subset (None), 2^n sets,
    is held to ``DEFAULT_CAP``; a graph's loops are bounded by the
    component cap of ``sets.strongly_connected_subsets``.

    The verdicts stop at the first false one, so the loops come in
    batches of 1, 2, 4, 8 and so on, one pass over the ops each: at most
    twice the loops before that one are decided, and no batch is held.
    The model check comes before any loop is drawn, so a non-model builds
    no graph.
    """
    ops, universe = _compile((f,))
    if kind is None:
        check_cap(len(universe), DEFAULT_CAP, "loop-formula enumeration")
    names = _layout(universe)
    i = _mask(check_atoms(i, universe), names)
    loops = _loops(ops, names, kind)
    return all(loop_lemma_at(ops, names, i, _doubling(loops)))


def stable_via_all_sets(i: Interpretation, f: Formula) -> bool:
    """Stability via the loop formulas of every nonempty atom subset of
    ``f``, decided at I by the here-and-there lemma (``loop_lemma_at``)."""
    return _loop_oracle_at(i, f, None)


def stable_via_loops(
    i: Interpretation, f: Formula, kind: GraphKind = GraphKind.PNN
) -> bool:
    """Stability via loop formulas for the loops of the chosen graph only.

    Sound and complete for GraphKind.PNN.  For GraphKind.SP it is an
    intentionally unsound check, kept to exhibit the counterexample
    separating the two graphs.  Both are decided at I by the
    here-and-there lemma (``loop_lemma_at``).
    """
    return _loop_oracle_at(i, f, kind)
