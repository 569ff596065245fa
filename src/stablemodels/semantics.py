"""Interpretations and model enumeration.

One evaluation core over truth tables held as Python ints, with one
evaluator with separate "here" and "there" tables, serves the CLI and
the four enumerators of ``sets``, the set-level adapter
(``classical_models``, ``stable_models``, ``supported_models``,
``pointwise_stable_models``).  This module takes op tables and hands
out tables and points; the functions that take a theory as a tree and
return models as sets, ``analyze`` and ``completion`` among them, live
in ``sets``.  ``_analysis``, behind the ``models`` command and
``sets.analyze``, reads three classes from one sweep.  A classical pass
over all 2**n interpretations gives the classical models and the there
table of every implication.
Stability and pointwise stability then come from one of three paths:

- per model: for each classical model I, one here-and-there pass over
  the subsets of I;
- by loops: for each loop Y of the pnn graph, one pass over all 2**n
  interpretations with Y's atoms cleared in the here-world.  The graph,
  its components and its loops are masks in the pass's own layout, atom
  j of ``names`` as bit j (see ``depgraph``), and so is each part's set
  of kept atoms, so no loop is turned into a set of names.  By Ferraris,
  Lee and Lifschitz's generalised Lin-Zhao theorem, which still holds
  with the loops of the pnn graph but not with those of the sp graph, a
  classical model I is stable exactly when for no loop Y that meets I is
  <I - Y, I> a here-and-there model.  The singleton loops alone decide
  pointwise stability;
- by fixpoint: one least fixpoint over all 2**n points at once, for
  theories in a syntactic class read off the op table
  (``_fixpoint_rules``).  Split at its top-level ``&``s, each piece is a
  constraint (``bot`` or a negation), a rule ``B -> H`` or a bare head
  H, where H is an ``|`` of atoms, negations and ``bot``, B has no
  implication outside a negation, and no two atoms of one head lie in
  one component of the pnn graph (head-cycle-freedom, Ben-Eliyahu and
  Dechter 1994).  A negation's value at <H, T> is its classical value
  at T, so a body's value grows with H, and T is stable exactly when
  the least fixpoint of the map below, started at the empty set, is T
  (Gelfond and Lifschitz 1988; Lifschitz, Tang and Turner 1999 for
  nested bodies).  The map takes H to the atoms a of T that head a
  piece whose body holds at <H, T>, whose other head atoms are false in
  T and whose negated head literals' formulas are true in T: shifting
  each head onto one atom, which keeps the stable models of a
  head-cycle-free theory.  Without head-cycle-freedom shifting loses
  stable models, so such a theory takes one of the other paths.  If no
  loop of the pnn graph has two atoms, the stable and pointwise stable
  models coincide (every loop is a singleton); else the pointwise table
  comes from the n singleton passes of the loop path.

The path is chosen per theory by one cost model (``_path``), in passes
over the points: one pass over 2**n points per loop, against one pass
over 2**|I| points per classical model I, against the fixpoint's most
steps.  A fixpoint step evaluates only copies of the body ops that read
an atom, so it is priced as their share of a pass.  The cheaper of the
per-model and fixpoint prices gives the number of loops up to which the
loop path pays.  If that is not more than the n singleton loops, the
graph is not built for the loop path; else the loop search gives up as
soon as it has found more loops than that.  Supported models are the
classical models where the support halves of the completion hold too,
read in ``_analysis`` from the sweep's classical pass.  The completion
is read off the op table (``_completion``): its ops are appended to a
copy of the theory's, reusing the rules' body ops, so no formula tree
is built for it and nothing is compiled; ``models`` prints it from
those ops, and ``_supported`` evaluates only them, after the pass's
tables of the theory's ops.
Every pass is guarded by a hard cap (default 20 atoms), checked once
the theory's op table and atoms are known (from the parse, or from the
one walk of ``formula._compile``), before any table.
Each class is a table over the 2**n points, read at the set bits of the
classical table, which one lister (``_set_bits``) gives in
``oracle.interpretations_of`` order: by cardinality, then
lexicographically.  A dense table's points are selected in C from the
cached order of all 2**n points (``_point_order``), and a sparse one's
read off one scan of its binary text.

The sweep decides a list of parts, each an op with a set of kept
atoms.  At <H, T> a choice ``A | not A`` holds exactly when A is in H
or not in T (Ferraris 2005), so the op conjoined with a choice for each
kept atom holds at <J, I> exactly when the op does and J keeps every
kept atom that I holds.  The theory is the first part, its last op with
no kept atoms; the classical pass carries the parts, and its candidates
are the points where some part holds.  Each path decides every part in
one loop: on the per-model path, a part is stable at I when its op's
table has only the ``J = I`` bit among the J that keep its kept atoms
of I; on the loop path, the pass for a loop Y refutes it at the points
I that meet Y but hold none of its kept atoms of Y; on the fixpoint
path, a choice is a bare head of one atom, so a kept atom of T is in H
from the start, and each part has its own fixpoint.

That sweep answers ``splitting._split``, behind ``sets.check_split``.
F & G is compiled once, and its last op's operands are F's and G's
ops; F & choice(Q) is the part of F's op with Q kept, and G & choice(P)
that of G's op with P kept.  One classical pass over the universe of
F & G gives the tables of F, G and F & G, and its candidates are the
classical models of F or of G.  The choices add no pnn edge, so the
loops of F & G cover each part's loops, and a part's pieces are pieces
of F & G, so if F & G is in the fixpoint path's class, so is each
part.  The path choice prices the per-model path over the candidates,
a split asks for no pointwise table, and only the interpretations that
some list holds are built.

The definitions these enumerators are tested against, the reduct and
the predicates ``is_stable``, ``is_pointwise_stable`` and
``is_supported``, live in ``oracle``; no production module imports it.

This module owns the one evaluation core, from which ``loopformulas``
reads its loop oracles (``loop_lemma_at``), and the cached order of
every point (``_point_order``), every atom subset as a mask.  The
completion (``_supported``), the loop oracles of ``oracle``
(``oracle._loop_formula_tables``) and the fixpoint steps
(``_by_fixpoint``) share one idiom: ops appended to a pass's table, of
which only the appended ones are evaluated, onto a copy of the pass's
tables.  No production module enumerates sets of atoms:
``oracle.interpretations_of`` is the test oracle's.  ``loop_lemma_at``
applies the lemma behind the loop path at one classical model I instead
of at every point: one pass over the ops decides a batch of loops, with
bit j of every table standing for loop j.

It also renders model lists, from points rather than interpretations.
A ``ModelReport`` holds a theory's classical pass and the points of its
four classes on it (``splitting.SplitReport`` does the same for a
split).  The pass lists the points of each distinct table once
(``_Classical.points``), so classes with equal tables share one list
object, the candidates' list among them.  Both reports are
``formula.Frozen`` values that leave the pass out of their equality and
repr, and are unhashable, as their lists are; their constructor,
``formula.Value``'s, takes the pass as ``_c``, which ``_params`` names
and ``_fields`` leaves out.  The pass is a mutable ``formula.Value``,
whose memos grow as lists are read.  ``format_points`` and
``answer_json`` (the ``models --json`` and ``split --json`` documents,
byte for byte as ``json.dumps(..., indent=2)`` writes them) render a
point from two tables over the halves of its bits, one join per point,
and a list object once however often it is given, so each distinct
list of a pass once.  ``_models`` builds
interpretations from the same tables: the enumerators of ``sets`` and
a report's lists build one only for a point they return, once per pass,
so an answer's lists share their models.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .depgraph import (
    GraphKind,
    _components,
    _graph,
    _layout,
    _loops,
    _mask,
    _named,
)
from .errors import check_cap
from .formula import (
    _AND,
    _ATOM,
    _BOT,
    _IMPLIES,
    _OR,
    Atom,
    Frozen,
    Ops,
    Theory,
    Value,
    _formulas,
)

Interpretation = frozenset[str]

DEFAULT_CAP = 20


def format_interpretation(i: Interpretation) -> str:
    return "{" + " ".join(sorted(i)) + "}"


def _halves(
    items: list[str],
) -> tuple[int, list[tuple[str, ...]], list[tuple[str, ...]]]:
    """The width of the low half of the bits of ``items``, item j standing
    for bit j, and for each half the items of every subset of its bits,
    by descending bit.  With items in descending order, as
    ``_Classical`` lays out its atoms, each subset's items ascend, and
    the high half's items all come before the low half's."""
    half = len(items) // 2
    low: list[tuple[str, ...]] = [()]
    high: list[tuple[str, ...]] = [()]
    for table, part in (low, items[:half]), (high, items[half:]):
        for a in part:
            table += [(a,) + s for s in table]
    return half, low, high


# An interpretation as text and as a JSON array two levels down, as
# ``json.dumps(..., indent=2)`` lays it out: its opening, the separator
# between two atoms, its closing, and the empty set.
_TEXT_FORM = ("{", " ", "}", "{}")
_JSON_FORM = ("[\n      ", ",\n      ", "\n    ]", "[]")


def _renderer(
    items: list[str], form: tuple[str, str, str, str]
) -> Callable[[Iterable[int]], list[str]]:
    """The rendering in ``form`` of the interpretation at each point, with
    item j the rendering of the atom of bit j (see ``_Classical``).

    A point whose low half is set is the high half's opening piece
    joined to the low half's closing piece; any other is one piece.
    """
    half, low, high = _halves(items)
    opening, sep, closing, empty = form
    tails = [sep.join(s) + closing for s in low]
    heads = [opening + sep.join(s) + sep if s else opening for s in high]
    alone = [opening + sep.join(s) + closing if s else empty for s in high]
    mask = (1 << half) - 1

    def render(keys: Iterable[int]) -> list[str]:
        return [
            heads[k >> half] + tails[k & mask] if k & mask else alone[k >> half]
            for k in keys
        ]

    return render


def format_points(names: list[Atom], *lists: list[int]) -> list[str]:
    """``format_models`` of each list of points over ``names``, in
    descending order (see ``_Classical``).  A list object given twice,
    such as the one list that ``_Classical.points`` gives for two equal
    tables, is rendered once."""
    render = _renderer(names, _TEXT_FORM)
    unique = {id(keys): keys for keys in lists}
    texts = {i: ", ".join(render(keys)) or "(none)" for i, keys in unique.items()}
    return [texts[id(keys)] for keys in lists]


def _json_array(items: Iterable[str], depth: int) -> str:
    """An array of rendered items as ``json.dumps(..., indent=2)`` lays it
    out ``depth`` levels down."""
    inner = "\n" + "  " * (depth + 1)
    body = ("," + inner).join(items)
    return f"[{inner}{body}\n{'  ' * depth}]" if body else "[]"


def answer_json(names: list[Atom], fields: Iterable[tuple[str, object]]) -> str:
    """``json.dumps(dict(fields), indent=2)`` for an answer whose values are
    JSON scalars, sets of ``names`` and model lists, with each model list
    given as its points over ``names``, in descending order (see
    ``_Classical``).

    A set is written as its sorted atoms, and a model list as a list of
    them.  Each atom name is quoted once, and each model list object
    rendered once.
    """
    quoted = [json.dumps(a) for a in names]
    render = _renderer(quoted, _JSON_FORM)
    arrays: dict[int, str] = {}

    def value(v: object) -> str:
        if type(v) is frozenset:
            return _json_array(
                [q for a, q in zip(names, quoted) if a in v][::-1], 1
            )
        if type(v) is list:
            if id(v) not in arrays:
                arrays[id(v)] = _json_array(render(v), 1)
            return arrays[id(v)]
        return json.dumps(v)

    # One join of all the pieces, so that a rendered list is copied only
    # into the document, not into a member first.
    pieces = [
        piece
        for key, v in fields
        for piece in (",\n  ", json.dumps(key), ": ", value(v))
    ]
    return "".join(["{\n  ", *pieces[1:], "\n}"])


def _rule(ops: Ops, member: int) -> Optional[tuple[Atom, Optional[int]]]:
    """The head atom and the body op of the op ``member`` of ``ops`` if it
    is a rule, an atom or an implication into one, else None: ``as_rule``
    over the ops, without the copy of the table that ``_completion`` makes.
    A fact's body is None."""
    code, x, y = ops[member]
    if code == _ATOM:
        return x, None
    if code == _IMPLIES and ops[y][0] == _ATOM:
        return ops[y][1], x
    return None


def _completion(
    ops: Ops, members: Iterable[int]
) -> Optional[tuple[Ops, list[int]]]:
    """The completion of the theory whose members are the ops ``members``
    of ``ops``: a copy of ``ops`` with the completion's ops appended, and
    the op of each of its members.  None unless ``_rule`` reads every
    member as a rule.

    Per atom A of ``ops``, in sorted order, the member is
    ``(A -> B) & (B -> A)``.  B is the left ``|``-fold of the bodies of
    the rules with head A, in rule order, or ``bot`` if there are none.
    A rule's body is its antecedent's op, and a fact's is ``bot -> bot``.
    These are the formulas of ``sets.completion``, and ``print_tokens``
    prints them as ``print_formula`` prints those.
    """
    rules = [_rule(ops, r) for r in members]
    if None in rules:
        return None
    n = len(ops)
    # The ops of the bodies of the rules of each head; the table gets an
    # op of ``bot`` at n and one of ``bot -> bot``, a fact's body, at n + 1.
    by_head: dict[Atom, list[int]] = {}
    for head, body in rules:
        by_head.setdefault(head, []).append(n + 1 if body is None else body)
    atom_ops = {x: i for i, (code, x, _) in enumerate(ops) if code == _ATOM}
    table = [*ops, (_BOT, 0, 0), (_IMPLIES, n, n)]
    roots = []
    for a, atom in sorted(atom_ops.items()):
        body, *rest = by_head.get(a, [n])
        for b in rest:
            table.append((_OR, body, b))
            body = len(table) - 1
        table += ((_IMPLIES, atom, body), (_IMPLIES, body, atom))
        table.append((_AND, len(table) - 2, len(table) - 1))
        roots.append(len(table) - 1)
    return table, roots


# ---------------------------------------------------------------------------
# Evaluation core.  A truth table over a list of atoms a_0, ..., a_{n-1} is
# an int of 2**n bits: bit k is the value at the interpretation containing
# a_j exactly when bit j of k is set.  A here-and-there table gives, at
# each point, the value of an op at a pair <H, T> of a "here" and a
# "there" interpretation; ``H |= F^T`` holds exactly when <H, T> is a
# here-and-there model of F (Ferraris 2005), so stability is decided
# without building the reduct.

# A part ``(op, kept)`` of a sweep stands for the op's formula conjoined
# with a choice ``A | not A`` for each kept atom A.  At <H, T> such a
# choice holds exactly when A is in H or not in T (Ferraris 2005), so
# the part's here-world keeps the kept atoms of T.  The theory is the
# part ``(-1, frozenset())``: its last op, with no kept atoms.  A pass
# holds each part's kept atoms as a mask in its layout.
Parts = tuple[tuple[int, frozenset[Atom]], ...]


def _atom_tables(n: int) -> list[int]:
    """Tables of a_0 .. a_{n-1} over 2**n points.

    Built by doubling, not by dividing by a repunit, which is quadratic
    in the table size: over 2**(j+1) points, a_j is 2**j zeros then
    2**j ones, and every earlier table repeats its first 2**j bits.
    """
    tables: list[int] = []
    for j in range(n):
        half = 1 << j
        tables = [table | table << half for table in tables]
        tables.append(((1 << half) - 1) << half)
    return tables


def _evaluate(
    ops: Ops, here: dict[Atom, int], there: Iterator[int], vals: Sequence[int] = ()
) -> list[int]:
    """The here table of every op, after a copy of ``vals``, the tables of
    the ops that come before ``ops`` in their table, if any.

    ``here`` maps each atom to its table in the here-world, and ``there``
    yields each implication's table in the there-world, in op order.
    Conjunction and disjunction combine here tables; an implication
    holds where it holds there and ``~A | B`` holds here.  With every
    there table all ones, this is classical truth.
    """
    vals = [*vals]
    for code, x, y in ops:
        if code == _ATOM:
            v = here[x]
        elif code == _AND:
            v = vals[x] & vals[y]
        elif code == _OR:
            v = vals[x] | vals[y]
        elif code == _IMPLIES:
            v = (~vals[x] | vals[y]) & next(there)
        else:
            v = 0
        vals.append(v)
    return vals


def _implications(ops: Ops, vals: list[int]) -> list[int]:
    """The tables of the implication ops, in op order."""
    codes = map(operator.itemgetter(0), ops)
    return list(itertools.compress(vals, map(_IMPLIES.__eq__, codes)))


def loop_lemma_at(
    ops: Ops,
    names: list[Atom],
    i: int,
    batches: Iterable[Iterable[int]],
) -> Iterator[bool]:
    """Whether I is a model of ``_compile``'s ``ops``, then for each set Y
    of each batch whether I satisfies the loop formula of Y.  I and every
    Y are masks in the layout ``names`` of the ops' atoms.  Stops at the
    first empty batch.

    I satisfies it exactly when Y misses I or <I - Y, I> is not a
    here-and-there model (Ferraris, Lee and Lifschitz 2006).  A batch
    Y_0, ..., Y_{m-1} is read once, not held, and decided by one pass over
    the ops on m-bit tables, bit j standing for Y_j: an atom of I is all
    ones but at the Y that hold it, any other atom is 0, and each
    implication's there table is all ones or all zeros, its classical
    value at I.  The model check, one pass on one-bit tables that gives
    those values, comes before the first batch is drawn.
    """
    here = {a: i >> j & 1 for j, a in enumerate(names)}
    vals = _evaluate(ops, here, itertools.repeat(1))
    yield vals[-1] == 1
    there = _implications(ops, vals)
    held = _named(i, names)
    for batch in batches:
        # Per atom of I, the bits of the sets that hold it.
        cleared = dict.fromkeys(held, 0)
        bit = 1
        for ys in batch:
            for a in _named(ys & i, names):
                cleared[a] |= bit
            bit <<= 1
        if bit == 1:
            return
        full = bit - 1
        here = dict.fromkeys(names, 0)
        meets = 0
        for a, mask in cleared.items():
            here[a] = full ^ mask
            meets |= mask
        models = _evaluate(ops, here, map(full.__mul__, there))[-1]
        # Bit j of the text's reverse is the verdict of Y_j.
        satisfied = format(full & ~(meets & models), f"0{full.bit_length()}b")
        yield from map("1".__eq__, reversed(satisfied))


# A table with fewer than 2**n / _SPARSE points is listed by the scan of
# its binary text, a denser one by the selection over ``_point_order``.
# Best of 7 per call on random tables of 6 to 12 atoms (Python 3.11.7,
# 2-core shared VM): from 9 to 12 atoms the two take the same time, within 6 %,
# at 2**n / 7 points; at 2**n / 8 the scan is 5 to 11 % faster, and at
# 2**n / 6 the selection 17 to 25 % faster.  Below 9 atoms the selection
# still wins or ties at 2**n / 8.  A full table of 11 atoms takes 50 us
# by the selection and 275 us by the scan, which sorts every point.
_SPARSE = 7

# The characters of a binary text as the bytes 0 and 1.
_BITS = bytes.maketrans(b"01", b"\0\1")


@functools.cache
def _point_order(n: int) -> tuple[list[int], Callable[[bytes], Sequence[int]]]:
    """All 2**n points in ``interpretations_of`` order (see ``_Classical``),
    and a getter that reads a sequence at each point of that order.  The
    getter holds the order's own ints, so at 20 atoms the cache holds about
    50 MB (48 MiB, by ``tracemalloc``): 2**20 ints, their list and the
    getter's tuple.  Built on the first dense listing of each width, not
    at import."""
    order = sorted(range((1 << n) - 1, -1, -1), key=int.bit_count)
    # At one point an itemgetter would return the byte, not a tuple of it;
    # the one byte is already in order.
    return order, operator.itemgetter(*order) if n else bytes


def _set_bits(table: int, n: int) -> list[int]:
    """The set bits of ``table`` over 2**n points, in ``interpretations_of``
    order (see ``_Classical``).

    A sparse table (see ``_SPARSE``) is read off its binary text by
    descending index, then sorted stably by popcount.  A denser one is
    the points of ``_point_order(n)`` selected, in C, by its bits: its
    text as bytes 0 and 1, reversed so that byte k is bit k, read at each
    point of the order."""
    text = format(table, f"0{1 << n}b")
    if table.bit_count() * _SPARSE < 1 << n:
        runs = text.split("1")[:-1]
        # Each 1 lies one bit below the run of zeros before it.
        steps = map(operator.add, map(len, runs), itertools.repeat(1))
        keys = itertools.accumulate(steps, operator.sub, initial=1 << n)
        return sorted(itertools.islice(keys, 1, None), key=int.bit_count)
    order, read = _point_order(n)
    bits = text.encode().translate(_BITS)[::-1]
    return list(itertools.compress(order, read(bits)))


def _models(keys: list[int], names: list[Atom]) -> list[Interpretation]:
    """The interpretation at each point of ``keys``, joined from the atoms
    of its low and of its high bits."""
    half, low, high = _halves(names)
    mask = (1 << half) - 1
    return [frozenset(high[k >> half] + low[k & mask]) for k in keys]


@functools.cache
def _layers(n: int) -> list[int]:
    """The table over 2**n points of the points of each popcount, 0 to n.

    Built by doubling, as ``_atom_tables`` is: over 2**(j+1) points, the
    points from 2**j up have one more bit set than those below.
    """
    layers = [1]
    for j in range(n):
        half = 1 << j
        layers = [lo | hi << half for lo, hi in zip(layers + [0], [0] + layers)]
    return layers


class _Classical(Value):
    """One classical pass over all 2**n points, with atom j of ``names``,
    in descending order, as bit j.  So within one size, ``interpretations_of``
    order is descending bit index: two sets of one size first differ at
    some atom, and the set that holds it has the higher bit there.
    ``atom_tables`` maps each atom of ``names`` to its table.  Every list
    of points the pass hands out comes from one memo, ``lists``, keyed by
    the table of its points, so it lists each distinct table once."""

    _fields = ("names", "ops", "atom_tables", "vals", "candidates", "parts")

    def __init__(
        self, names: list[Atom], ops: Ops, atom_tables: dict[Atom, int],
        vals: list[int], candidates: int, parts: tuple[tuple[int, int], ...],
    ):
        self.names = names
        self.ops = ops
        self.atom_tables = atom_tables
        # Every op's table; the last is the theory's.
        self.vals = vals
        # Where some part holds: the candidates' table.
        self.candidates = candidates
        # The parts the sweep decides, the theory first, each with the
        # mask of its kept atoms.
        self.parts = parts
        # The points of each table listed so far (see ``points``), and
        # the interpretation at each point built so far, shared by every
        # list read from this pass.
        self.lists: dict[int, list[int]] = {}
        self.built: dict[int, Interpretation] = {}

    @property
    def keys(self) -> list[int]:
        """The candidates' points, listed only when a path or a list reads
        them."""
        return self.points(self.candidates)

    @functools.cached_property
    def pnn(self) -> list[int]:
        """The pnn graph of the ops in this pass's layout, as ``_graph``'s
        successor masks, for the path choice and the split."""
        return _graph(self.ops, GraphKind.PNN, self.names)

    @functools.cached_property
    def components(self) -> list[int]:
        """The strongly connected components of ``pnn``, as masks."""
        return _components(self.pnn)

    def points(self, table: int) -> list[int]:
        """The candidates' points where ``table`` is 1, in
        ``interpretations_of`` order, listed once per distinct table: equal
        tables give one list object."""
        table &= self.candidates
        if table not in self.lists:
            self.lists[table] = _set_bits(table, len(self.names))
        return self.lists[table]

    def build(self, keys: list[int]) -> list[Interpretation]:
        """The interpretation at each point of ``keys``, each built once."""
        built = self.built
        missing = [k for k in keys if k not in built]
        if missing:
            built.update(zip(missing, _models(missing, self.names)))
        return list(map(built.__getitem__, keys))


def _classical_pass(
    ops: Ops,
    atoms: set[Atom],
    universe: Optional[Iterable[Atom]] = None,
    cap: int = DEFAULT_CAP,
    parts: Parts = (),
) -> _Classical:
    """The pass of ``_compile``'s ops and atoms over ``universe``, by
    default those atoms, carrying the theory's part and then ``parts``.
    The candidates are the points where some part holds, by default the
    theory's classical models."""
    names = _layout(atoms if universe is None else set(universe))
    n = len(names)
    check_cap(n, cap)
    if not atoms.issubset(names):
        raise ValueError("universe does not cover the theory's atoms")
    atom_tables = dict(zip(names, _atom_tables(n)))
    full = (1 << (1 << n)) - 1
    vals = _evaluate(ops, atom_tables, itertools.repeat(full))
    masks = ((-1, 0), *((op, _mask(kept, names)) for op, kept in parts))
    candidates = 0
    for op, _ in masks:
        candidates |= vals[op]
    return _Classical(names, ops, atom_tables, vals, candidates, masks)


def _supported(table: Ops, roots: list[int], c: _Classical) -> int:
    """The table over ``c``'s points of the support halves ``A -> B`` of
    the completion members ``roots`` of ``_completion``'s ``table``, whose
    first ops are ``c``'s: only the ops that the completion appends are
    evaluated, onto a copy of ``c``'s tables."""
    full = (1 << (1 << len(c.names))) - 1
    vals = _evaluate(table[len(c.vals):], c.atom_tables, itertools.repeat(full), c.vals)
    return functools.reduce(operator.and_, [vals[table[r][1]] for r in roots], full)


def _per_model(c: _Classical) -> tuple[int, ...]:
    """The stable and pointwise stable tables of the theory, then the
    stable table of each other part of ``c``, one pass per candidate I.

    One here-and-there table per I: bit m is the value of an op at
    <J, I>, where J holds the r-th atom of I exactly when bit r of m is
    set, and each implication's there table is its classical value at I
    (all ones or all zeros).  A part is stable at I when its op's table
    has only the ``J = I`` bit among the J that keep its kept atoms of I;
    the theory keeps none.  The theory is pointwise stable at I when its
    table has that bit and no ``I - {a}`` bit.  The empty candidate has
    one point, ``J = I``, and no ``I - {a}`` bit.
    """
    # As bytes, a table's value at one point is read and set without
    # shifting a 2**n-bit int.
    size = ((1 << len(c.names)) + 7) // 8
    rows = [v.to_bytes(size, "little") for v in _implications(c.ops, c.vals)]
    pointwise = bytearray(size)
    # Each part's op, the mask of the points' bits of its kept atoms and
    # its table.
    kept_bits = [(op, mask, bytearray(size)) for op, mask in c.parts]
    # Per width of I: its atom tables and the mask of the I - {a} bits.
    local: dict[int, tuple[list[int], int]] = {}
    zero = dict.fromkeys(c.names, 0)
    for k in c.keys:
        byte, bit = k >> 3, 1 << (k & 7)
        width = k.bit_count()
        top = 1 << ((1 << width) - 1)  # the bit of J = I
        if width not in local:
            drop_one = sum(top >> (1 << r) for r in range(width))
            local[width] = _atom_tables(width), drop_one
        tables, drop_one = local[width]
        # The r-th lowest atom of I takes the r-th atom table of its width.
        here = zero.copy()
        here.update(zip(_named(k, c.names), tables))
        full = (top << 1) - 1
        there = [full if row[byte] & bit else 0 for row in rows]
        vals = _evaluate(c.ops, here, iter(there))
        if vals[-1] & (top | drop_one) == top:
            pointwise[byte] |= bit
        for op, mask, part in kept_bits:
            # The J that keep every kept atom of I.
            keeps = full
            for a in _named(k & mask, c.names):
                keeps &= here[a]
            if vals[op] & keeps == top:
                part[byte] |= bit
    stable = [int.from_bytes(part, "little") for _, _, part in kept_bits]
    return stable[0], int.from_bytes(pointwise, "little"), *stable[1:]


def _by_loops(c: _Classical, loops: list[int]) -> tuple[int, ...]:
    """The stable and pointwise stable tables of the theory, then the
    stable table of each other part of ``c``, one pass per loop.

    By the generalised Lin-Zhao theorem (Ferraris, Lee and Lifschitz
    2006), with loops taken from the pnn graph, a classical model I is
    stable exactly when for no loop Y that meets I is <I - Y, I> a
    here-and-there model.  One pass per loop over all 2**n points, with
    Y's atoms cleared in the here-world, finds every such I at once.
    Every singleton is a loop, and the singletons alone decide
    pointwise stability.  The same pass gives every op's table, so it
    refutes each part's candidates, at the points where I holds none of
    the part's kept atoms of Y: elsewhere <I - Y, I> drops a kept atom,
    and the part's choice for that atom fails there.  The theory keeps
    no atom.  Each loop is a mask in ``c``'s layout.
    """
    there = _implications(c.ops, c.vals)
    tables = [c.vals[op] for op, _ in c.parts]
    pointwise = c.vals[-1]
    for ys in loops:
        here = c.atom_tables.copy()
        meets = 0
        for a in _named(ys, c.names):
            meets |= here[a]
            here[a] = 0
        # Per part, the points this pass can refute.
        alive = []
        for (_, kept), table in zip(c.parts, tables):
            for a in _named(ys & kept, c.names):
                table &= ~c.atom_tables[a]
            alive.append(table & meets)
        singleton = not ys & (ys - 1)
        if singleton:
            # Stable models are pointwise stable, so ``pointwise`` covers
            # every candidate a singleton can still refute.
            alive[0] = pointwise & meets
        if not any(alive):
            continue
        vals = _evaluate(c.ops, here, iter(there))
        refuted = [vals[op] & live for (op, _), live in zip(c.parts, alive)]
        tables = [table & ~r for table, r in zip(tables, refuted)]
        if singleton:
            pointwise &= ~refuted[0]
    return tables[0], pointwise, *tables[1:]


# The fixpoint path reads each part's op as pieces, split at its
# top-level ``&``s.  Per piece with a head atom: the mask of the head's
# atoms, its negations' ops and its body's op, None for a bare head.  A
# constraint, or a head with no atom, derives nothing: the classical
# table covers it.
Piece = tuple[int, tuple[int, ...], Optional[int]]


class _Rules(Value):
    """The rules of every part of a pass, as ``_by_fixpoint`` reads them.

    ``bodies`` holds a copy of each body op that reads an atom outside a
    negation, in op order, to be appended to the pass's table: a copied
    atom reads the here-world, and an operand that reads no atom, such as
    a negation, stays the pass's own op, whose classical table at T is
    its here table at <H, T>, by persistence.  ``index`` maps each copied
    op to its copy's op in the appended table.  ``pieces`` holds each
    part's pieces, and ``heads`` the mask of each head of two or more
    atoms."""

    _fields = ("bodies", "index", "pieces", "heads")


def _fixpoint_rules(c: _Classical) -> Optional[_Rules]:
    """The rules of every part of ``c``, or None unless each piece of each
    part's op is a constraint (``bot`` or a negation), a rule ``B -> H`` or
    a bare ``H``: H an ``|`` tree of atoms, negations and ``bot``, and B
    with no implication outside a negation.  Syntactic only: the heads
    of two or more atoms are not yet checked for head-cycle-freedom.

    One pass in op order types every op as a head, its atoms' mask and
    negations' ops or None, and as a body, the mask of the atoms it reads
    outside a negation or None if it holds an implication outside one;
    a walk of each part's spine of ``&``s then checks its pieces."""
    ops = c.ops
    bit = {a: 1 << j for j, a in enumerate(c.names)}
    head_types: list[Optional[tuple[int, tuple[int, ...]]]] = []
    reads: list[Optional[int]] = []
    for op, (code, x, y) in enumerate(ops):
        head_type: Optional[tuple[int, tuple[int, ...]]] = None
        read: Optional[int] = None
        if code == _ATOM:
            head_type, read = (bit[x], ()), bit[x]
        elif code == _BOT or code == _IMPLIES and ops[y][0] == _BOT:
            head_type, read = (0, () if code == _BOT else (op,)), 0
        elif code != _IMPLIES:
            if reads[x] is not None and reads[y] is not None:
                read = reads[x] | reads[y]
            left, right = head_types[x], head_types[y]
            if code == _OR and left and right:
                head_type = (left[0] | right[0], left[1] + right[1])
        head_types.append(head_type)
        reads.append(read)
    parts: list[list[Piece]] = []
    heads: list[int] = []
    for op, _ in c.parts:
        pieces: list[Piece] = []
        seen: set[int] = set()
        stack = [op % len(ops)]
        while stack:
            op = stack.pop()
            if op in seen:
                continue
            seen.add(op)
            code, x, y = ops[op]
            if code == _AND:
                stack += (y, x)
                continue
            # A negation is a bare head with no atom.
            rule = code == _IMPLIES and head_types[op] is None
            body, head = (x, y) if rule else (None, op)
            if head_types[head] is None or rule and reads[x] is None:
                return None
            atoms, negations = head_types[head]
            if atoms:
                pieces.append((atoms, negations, body))
                if atoms & (atoms - 1):
                    heads.append(atoms)
        parts.append(pieces)
    # The body ops that read an atom, copied in op order.
    stack = [body for pieces in parts for _, _, body in pieces if body is not None]
    copied: set[int] = set()
    while stack:
        op = stack.pop()
        if reads[op] and op not in copied:
            copied.add(op)
            if ops[op][0] != _ATOM:
                stack += ops[op][1:]
    bodies: Ops = []
    index: dict[int, int] = {}
    for op in sorted(copied):
        code, x, y = ops[op]
        if code != _ATOM:
            x, y = index.get(x, x), index.get(y, y)
        index[op] = len(ops) + len(bodies)
        bodies.append((code, x, y))
    return _Rules(bodies, index, parts, heads)


def _head_cycle_free(c: _Classical, heads: list[int]) -> bool:
    """Whether no two atoms of one of ``heads`` lie in one component of
    ``c``'s pnn graph, which is built only if there is a head."""
    for head in heads:
        for comp in c.components:
            common = head & comp
            if common & (common - 1):
                return False
    return True


def _derivations(
    c: _Classical, rules: _Rules
) -> Iterator[tuple[int, dict[Atom, int], list[tuple[Atom, int, int]]]]:
    """Per part of ``c``: its op; per atom, the table of the points where
    the atom holds before any body is read (a kept atom, or one that a
    bare head or a body that reads no atom derives); and per piece whose
    body reads an atom, per head atom a, a's table ANDed with the tables
    where the piece's other head atoms are false and its negated head
    literals' formulas true, with the op of the body's copy (see
    ``_Rules``).  A kept atom is left out of the pieces: it holds
    wherever T holds it."""
    full = (1 << (1 << len(c.names))) - 1
    for (op, kept), pieces in zip(c.parts, rules.pieces):
        base = dict.fromkeys(c.names, 0)
        for a in _named(kept, c.names):
            base[a] = c.atom_tables[a]
        derived = []
        for atoms, negations, body in pieces:
            # Where the piece's negated head literals are all false.
            guard = full
            for q in negations:
                guard &= ~c.vals[q]
            heads = _named(atoms, c.names)
            for a in _named(atoms & ~kept, c.names):
                table = c.atom_tables[a] & guard
                for b in heads:
                    if b != a:
                        table &= ~c.atom_tables[b]
                if body is None:
                    base[a] |= table
                elif body in rules.index:
                    derived.append((a, rules.index[body], table))
                else:
                    base[a] |= c.vals[body] & table
        yield op, base, derived


def _fixpoint_price(c: _Classical, rules: _Rules) -> float:
    """The most that ``_by_fixpoint``'s steps cost over ``c``'s parts, in
    passes over all 2**n points.  A part makes at most one step more than
    the atoms, not kept, that head a piece whose body reads an atom, or
    none if there are none.  A step evaluates ``rules.bodies`` and sets
    one table per such piece and head atom, so it is priced as that many
    ops' share of a pass over the pass's ops."""
    ops = 0
    for (_, kept), pieces in zip(c.parts, rules.pieces):
        derived = [
            atoms & ~kept for atoms, _, body in pieces if body in rules.index
        ]
        steps = functools.reduce(operator.or_, derived, 0).bit_count()
        if steps:
            share = sum(map(int.bit_count, derived))
            ops += (steps + 1) * (len(rules.bodies) + share)
    return ops / len(c.ops) * _per_pass(c)


def _by_fixpoint(
    c: _Classical, rules: _Rules, pointwise: bool = True
) -> tuple[Optional[int], ...]:
    """The stable and pointwise stable tables of the theory, then the
    stable table of each other part of ``c``, one least fixpoint per part
    over all 2**n points at once; the pointwise table is None unless
    ``pointwise``.

    ``rules`` must be ``_fixpoint_rules(c)``, with every head
    head-cycle-free.  Per part, the here table h_a of each atom a starts
    at the points where a holds before any body is read
    (``_derivations``).  Each step evaluates the copies of the bodies
    that read an atom at <h, T>, onto a copy of the pass's tables, as
    ``_supported`` evaluates the completion, and sets h_a to those
    points, or to where a holds in T, its other head atoms are false in
    T and its negated head literals' formulas true in T, and some piece
    with a in its head has its body true.  h
    only grows, and stays inside T; at a fixpoint the part is stable at
    the classical models of its op where h is all of T.  With every loop
    of the pnn graph a singleton, the pointwise table is the stable
    table; else it comes from the n singleton passes of ``_by_loops``."""
    tables = []
    for op, base, derived in _derivations(c, rules):
        h = base
        while derived:
            vals = _evaluate(rules.bodies, h, iter(()), c.vals)
            step = base.copy()
            for a, body, table in derived:
                step[a] |= vals[body] & table
            # Not held through the singleton passes of the pointwise table.
            del vals
            if step == h:
                break
            h = step
        missing = 0
        for a, table in c.atom_tables.items():
            missing |= table & ~h[a]
        tables.append(c.vals[op] & ~missing)
    stable = tables[0]
    if not pointwise:
        return stable, None, *tables[1:]
    if any(comp & (comp - 1) for comp in c.components):
        singletons = [1 << j for j in range(len(c.names))]
        return stable, _by_loops(c, singletons)[1], *tables[1:]
    return stable, stable, *tables[1:]


# Cost model of the path choice, in units of one pass over a few points.
# A pass over 2**w points costs about 1 + 2**w / _WIDE_BITS of them: on a
# 63-op theory a pass costs 0.16 us per op up to w = 4, 0.34 us at
# w = 11, 0.54 at 12, 4.5 at 16, 23 at 18 and 132 at 20.  Building the
# pnn graph, its components and its loops costs about _GRAPH_PASSES:
# two samples of 500 random theories of 2 to 10 atoms (rules, choices and
# free formulas; Python 3.11, 2-core shared VM), timed with the budgeted
# loop search, 13 picked the slower path for 89 and 86 of them, costing
# 7 % and 10 % over always taking the faster one.  4 would miss 25 and
# 32 (1 %), and 0 misses 177 and 196 (8 %).  13 is the least integer
# that keeps every theory of at most 4 atoms (cost at most
# 16 + 3**4 / 2048 < 13 + 4 * (1 + 16 / 2048)) off the loop path, so
# that fuzz checks the loop oracles against paths that use no loops, and
# of the values that do, it misses fewest on both samples.  Fuzz-size
# theories in the fixpoint path's class with enough classical models
# now take that path, which uses no loops for the stable table, and the
# rest the per-model path; fuzz still never takes the loop path.  A
# fixpoint step is priced at the share of a pass's ops that it
# evaluates, at its most steps: on the 900 requests of the ``enumerate``
# benchmark corpus the choice then picks the fastest of the three paths
# for 895 (each path timed in process, best of 3).
_WIDE_BITS = 2048
_GRAPH_PASSES = 13


def _per_pass(c: _Classical) -> float:
    """The price of one pass over all of ``c``'s 2**n points."""
    return 1 + (1 << len(c.names)) / _WIDE_BITS


def _per_model_price(c: _Classical) -> float:
    """The price of one pass per candidate I over 2**|I| points."""
    # The candidates of each width, counted without listing them.
    layers = _layers(len(c.names))
    counts = [(c.candidates & layer).bit_count() for layer in layers]
    points = sum(map(operator.lshift, counts, range(len(counts))))
    return sum(counts) + points / _WIDE_BITS


def _loops_that_pay(c: _Classical, price: float) -> Optional[list[int]]:
    """The pnn loops of ``c``'s theory, as masks in its layout, if one
    pass per loop over all 2**n points and the graph cost less than
    ``price``, the cheapest other path's; else None.

    The price gives the loop count up to which the loop path pays.  The
    graph is built only if the n singleton loops stay under it, and the
    loop search gives up as soon as it finds more loops.
    """
    limit = (price - _GRAPH_PASSES) / _per_pass(c)
    if limit <= len(c.names):
        return None
    return _loops(c.pnn, c.components, limit)


def _path(
    c: _Classical, pointwise: bool
) -> Callable[[_Classical], tuple[Optional[int], ...]]:
    """The cheapest of the three paths for ``c``, as a function of ``c``.

    The fixpoint path is priced at its most steps, plus the graph if it
    must be built (for a head of two or more atoms, or for the pointwise
    table), plus the n singleton passes if the pointwise table is wanted
    and the pnn graph has a loop of two or more atoms.  The loop path
    must then beat the cheaper of the other two."""
    price: float = _per_model_price(c)
    path: Callable[[_Classical], tuple[Optional[int], ...]] = _per_model
    # For the pointwise table the fixpoint path costs the graph at least.
    rules = None if pointwise and price <= _GRAPH_PASSES else _fixpoint_rules(c)
    if rules is not None:
        graph = _GRAPH_PASSES if pointwise or rules.heads else 0
        fixpoint = graph + _fixpoint_price(c, rules)
        if fixpoint < price and _head_cycle_free(c, rules.heads):
            if pointwise and any(comp & (comp - 1) for comp in c.components):
                fixpoint += _per_pass(c) * len(c.names)
            if fixpoint < price:
                price = fixpoint
                path = functools.partial(_by_fixpoint, rules=rules, pointwise=pointwise)
    loops = _loops_that_pay(c, price)
    return path if loops is None else functools.partial(_by_loops, loops=loops)


def _sweep(c: _Classical, pointwise: bool = True) -> tuple[Optional[int], ...]:
    """The stable and pointwise stable tables of the theory of the
    classical pass ``c``, then the stable table of each other part, by
    the cheapest path (``_path``).  Without ``pointwise`` the pointwise
    table may be None."""
    return _path(c, pointwise)(c)


class ModelReport(Frozen):
    """All four model classes of one theory, read from one classical pass.

    The report holds the pass and the points of each class on it, in
    ``interpretations_of`` order; a list is built when it is read, each
    interpretation once per pass, so the lists share their models.
    ``supported`` and ``completion_theory`` are present only when every
    member is a nondisjunctive rule.  The report holds the completion as
    ``_completion`` returns it, a table and its members' ops, and
    ``completion_theory`` builds the formulas only when it is read.
    """

    # The pass, ``_c``, whose memo grows as lists are read, is left out
    # of the report's equality and repr; the universe names its points.
    _params = (
        "universe", "_completion", "_c", "_classical", "_stable",
        "_supported", "_pointwise",
    )
    _fields = ("universe", "completion_theory") + _params[3:]
    # Unhashable, as its lists are.
    __hash__ = None

    @property
    def completion_theory(self) -> Optional[Theory]:
        return None if self._completion is None else _formulas(*self._completion)

    @property
    def classical(self) -> list[Interpretation]:
        return self._c.build(self._classical)

    @property
    def stable(self) -> list[Interpretation]:
        return self._c.build(self._stable)

    @property
    def supported(self) -> Optional[list[Interpretation]]:
        if self._supported is None:
            return None
        return self._c.build(self._supported)

    @property
    def pointwise_stable(self) -> list[Interpretation]:
        return self._c.build(self._pointwise)

    def to_json(self) -> str:
        """The ``models --json`` document, rendered from the points."""
        return answer_json(
            self._c.names,
            (
                ("universe", self.universe),
                ("classical", self._classical),
                ("stable", self._stable),
                ("supported", self._supported),
                ("pointwise_stable", self._pointwise),
            ),
        )


def _analysis(
    ops: Ops, atoms: set[Atom], members: Iterable[int], cap: int = DEFAULT_CAP
) -> ModelReport:
    """``sets.analyze(t)``, where ``ops`` and ``atoms`` are ``_compile(t)``
    and ``members`` the op of each member of t.  If t is a program, its
    supported models and its completion are read off ``_completion``'s
    table."""
    c = _classical_pass(ops, atoms, cap=cap)
    stable, pointwise = _sweep(c)
    comp = _completion(ops, members)
    supported = None if comp is None else c.points(_supported(*comp, c))
    return ModelReport(
        frozenset(c.names),
        comp,
        c,
        c.keys,
        c.points(stable),
        supported,
        c.points(pointwise),
    )
