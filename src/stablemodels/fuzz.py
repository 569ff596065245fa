"""Seeded random generator and refutation-seeking property checks.

The generator is deliberately simple and fully documented so runs are
reproducible: it draws from ``random.Random(seed)`` (Mersenne Twister,
portable across platforms), takes atoms from the pool a to h truncated
to ``max_atoms`` (by default 4, so a, b, c, d; at most 8), and bounds
the tree depth by ``max_depth`` (by default 4; at most 6).  While depth
remains, each node is one of six shapes, drawn uniformly: an atom (uniform
over the pool), bottom, a negation, ``&``, ``|`` or ``->``.  An atom or
bottom ends its branch, so a node has operands with probability 2/3
only, and drawn formulas stay small even at the widest limits: at
depth 6 over 8 atoms, 5000 formulas drawn at seed 1 have a median of 5
ops.  At the depth bound a node is a leaf: an atom (uniform over the
pool) or, with probability 1/(pool size + 1), bottom.

The generator draws op tables, not trees: ``_Drawing`` appends each
node's op ``(code, x, y)`` as soon as its operands are drawn, as the
parser does when it reduces, so a table is numbered exactly as
``formula._compile`` numbers the tree it describes.  The draws come in
postorder, a connective's left operand before its right, so the random
calls are those of building the tree node by node; every bottom shares
one op, emitted where it is first drawn; a theory draws its member
count first and appends an ``And`` of the members so far after each
member from the second on, recording each member's op.  The campaigns
on the tables (``theorem1``, ``theorem2``, ``splitting``,
``sp-subgraph``, ``chain``, ``loop-oracle`` and ``loop-oracle-sp``)
read a drawn table as the CLI reads a parsed one, with no compile; the
loop oracles append their loop formulas to it as ops
(``oracle._loop_formula_ops``), and their adversarial template is a
table written out, the ops that ``_compile`` gives its tree.  ``chain``
reads the report's point lists, and compares the supported points with
the models of the completion's own table (``semantics._completion``),
read by a classical pass of its own.  Only ``random_formula`` decodes a
drawn table into nodes (``formula._formulas``), for the two campaigns
whose subject is the tree: ``reduct-lemma`` and ``lemma1``.

Each property check returns None on success or a violation message; the
counterexample always includes the generated theory text verbatim, so
it can be fed back through the matching CLI subcommand.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from .depgraph import GraphKind, _cyclic, _graph, _layout
from .formula import (
    _AND,
    _ATOM,
    _BOT,
    _IMPLIES,
    _OR,
    Atom,
    Formula,
    Ops,
    Value,
    _formulas,
    atoms,
    print_formula,
    print_tokens,
)
from .loopformulas import _loops
from .oracle import _loop_formula_tables, interpretations_of, reduct, satisfies, spos
from .semantics import (
    _analysis,
    _classical_pass,
    _per_model,
    _sweep,
    format_interpretation,
    format_points,
)
from .splitting import _split, split_conditions

ATOM_POOL = ("a", "b", "c", "d", "e", "f", "g", "h")

MAX_FUZZ_ATOMS = 8
MAX_FUZZ_DEPTH = 6
DEFAULT_FUZZ_ATOMS = 4
DEFAULT_FUZZ_DEPTH = 4

# The shapes of an inner node, drawn uniformly in this order: an atom,
# bottom, a negation (an implication into bottom), and the three binary
# connectives by their op codes.
_NOT = -1
_SHAPES = (_ATOM, _BOT, _NOT, _AND, _OR, _IMPLIES)

#: A drawn table: its ops, its atoms and the op of each member.
Table = tuple[Ops, set[Atom], list[int]]


class _Drawing:
    """One op table being drawn from ``rng`` over the atoms of ``pool``;
    each method draws one node, appends its ops to ``ops`` and returns
    its op."""

    __slots__ = ("rng", "pool", "leaves", "ops", "atoms", "bot")

    def __init__(self, rng: random.Random, pool: tuple[str, ...]):
        self.rng = rng
        self.pool = pool
        # A leaf is an atom of the pool or, drawn last, bottom (None).
        self.leaves = (*pool, None)
        self.ops: Ops = []
        self.atoms: set[Atom] = set()
        # The one op of bottom, once drawn.
        self.bot: Optional[int] = None

    def bottom(self) -> int:
        if self.bot is None:
            self.ops.append((_BOT, 0, 0))
            self.bot = len(self.ops) - 1
        return self.bot

    def atom(self, name: Atom) -> int:
        self.atoms.add(name)
        self.ops.append((_ATOM, name, 0))
        return len(self.ops) - 1

    def formula(self, depth: int) -> int:
        """A formula of depth at most ``depth``."""
        rng = self.rng
        if depth <= 0:
            leaf = rng.choice(self.leaves)
            return self.bottom() if leaf is None else self.atom(leaf)
        shape = rng.choice(_SHAPES)
        if shape == _ATOM:
            return self.atom(rng.choice(self.pool))
        if shape == _BOT:
            return self.bottom()
        x = self.formula(depth - 1)
        if shape == _NOT:
            shape, y = _IMPLIES, self.bottom()
        else:
            y = self.formula(depth - 1)
        self.ops.append((shape, x, y))
        return len(self.ops) - 1

    def rule(self, depth: int) -> int:
        """A nondisjunctive rule ``body -> atom``, of depth at most ``depth``."""
        body = self.formula(depth - 1)
        head = self.atom(self.rng.choice(self.pool))
        self.ops.append((_IMPLIES, body, head))
        return len(self.ops) - 1

    def theory(self, member: Callable[[int], int], depth: int) -> Table:
        """One to three members drawn by ``member``, conjoined from the
        left as ``_compile`` conjoins a theory's members."""
        ops = self.ops
        roots = []
        for _ in range(self.rng.randint(1, 3)):
            root = member(depth)
            if roots:
                ops.append((_AND, whole, root))
                whole = len(ops) - 1
            else:
                whole = root
            roots.append(root)
        return ops, self.atoms, roots


def _random_theory(rng: random.Random, pool, depth) -> Table:
    d = _Drawing(rng, pool)
    return d.theory(d.formula, depth)


def _random_nondisjunctive_theory(rng: random.Random, pool, depth) -> Table:
    d = _Drawing(rng, pool)
    return d.theory(d.rule, depth)


def random_formula(rng: random.Random, pool: tuple[str, ...], depth: int) -> Formula:
    """The formula of a drawn table."""
    d = _Drawing(rng, pool)
    return _formulas(d.ops, [d.formula(depth)])[0]


def _text(ops: Ops, root: int) -> str:
    """``print_formula`` of the node of op ``root``."""
    return "".join(print_tokens(ops, root)[0])


def _theory_text(ops: Ops, roots: list[int]) -> str:
    """``print_theory`` of the members of ``roots``."""
    return "\n".join(_text(ops, root) + "." for root in roots)


def _sample_until(rng, make, accept, limit: int = 10000):
    """The first case ``make`` draws for which ``accept`` returns something
    other than None, and what it returned: work that the check reads."""
    for _ in range(limit):
        candidate = make(rng)
        taken = accept(candidate)
        if taken is not None:
            return candidate, taken
    raise RuntimeError("rejection sampling failed to find an acceptable case")


def _sp_acyclic(table: Table) -> Optional[Table]:
    """``table`` if its sp graph is acyclic, else None."""
    ops, universe, _ = table
    sp = _graph(ops, GraphKind.SP, _layout(universe))
    return None if _cyclic(sp) else table


class FuzzResult(Value):
    _fields = ("property_name", "seed", "checked", "violations")

    @property
    def ok(self) -> bool:
        return not self.violations


def _check_theorem1(rng: random.Random, pool, depth) -> Optional[str]:
    _, (ops, universe, roots) = _sample_until(
        rng, lambda r: _random_nondisjunctive_theory(r, pool, depth), _sp_acyclic
    )
    a = _analysis(ops, universe, roots)
    if a._supported != a._stable:
        sup, st = format_points(a._c.names, a._supported, a._stable)
        return (
            "supported and stable models differ for a nondisjunctive theory "
            f"with acyclic sp graph\ntheory:\n{_theory_text(ops, roots)}\n"
            f"supported: {sup}\nstable: {st}"
        )
    return None


def _check_theorem2(rng: random.Random, pool, depth) -> Optional[str]:
    _, (ops, universe, roots) = _sample_until(
        rng, lambda r: _random_theory(r, pool, depth), _sp_acyclic
    )
    # Both tables from the per-model path: the sweep's fixpoint path
    # takes the pointwise table to be the stable one when no loop has two
    # atoms, so comparing its tables would compare a table with itself.
    c = _classical_pass(ops, universe)
    st, pw = _per_model(c)
    if pw != st:
        pw_text, st_text = format_points(c.names, c.points(pw), c.points(st))
        return (
            "pointwise stable and stable models differ for a theory with "
            f"acyclic sp graph\ntheory:\n{_theory_text(ops, roots)}\n"
            f"pointwise stable: {pw_text}\n"
            f"stable: {st_text}"
        )
    return None


def _adversarial_loop_formula(rng: random.Random, pool) -> tuple[Ops, set[Atom]]:
    """The op table and atoms of ``(x -> y) & (((y -> x) -> x) -> x)`` for
    two distinct atoms of ``pool``, numbered as ``_compile`` numbers it.
    Its sp graph misses the (x, y) edge, so sp-based loop checking
    wrongly accepts {x, y}."""
    x = rng.choice(pool)
    y = rng.choice([a for a in pool if a != x])
    ops = [
        (_ATOM, x, 0), (_ATOM, y, 0), (_IMPLIES, 0, 1), (_IMPLIES, 1, 0),
        (_IMPLIES, 3, 0), (_IMPLIES, 4, 0), (_AND, 2, 5),
    ]
    return ops, {x, y}


def _check_loop_oracle(kind: GraphKind):
    def check(rng: random.Random, pool, depth) -> Optional[str]:
        # One case in eight uses the adversarial template so the sp
        # negative control reliably trips; the pnn oracle must survive it.
        # The stable table is read off the table.  The loop formula of
        # every nonempty atom set is appended to it as ops, and all are
        # evaluated in one pass; kind's loops are among those sets, so
        # each formula is built once and both conjunctions read it.
        if len(pool) >= 2 and rng.random() < 0.125:
            ops, universe = _adversarial_loop_formula(rng, pool)
        else:
            d = _Drawing(rng, pool)
            d.formula(depth)
            ops, universe = d.ops, d.atoms
        c = _classical_pass(ops, universe)
        if not c.candidates:
            # No model: all three tables are empty.
            return None
        stable = _sweep(c, pointwise=False)[0] & c.candidates
        every = list(_loops(ops, c.names, None))
        tables = dict(zip(every, _loop_formula_tables(c, every)))
        all_sets = loops = c.candidates
        for table in tables.values():
            all_sets &= table
        for ys in _loops(ops, c.names, kind):
            loops &= tables[ys]
        if stable == all_sets == loops:
            return None
        # The first point where they differ, in ``interpretations_of`` order.
        k = c.points((stable ^ all_sets) | (stable ^ loops))[0]
        return (
            f"loop oracle ({kind.value}) disagrees with brute force\n"
            f"theory:\n{_text(ops, len(ops) - 1)}.\n"
            f"interpretation: {format_interpretation(c.build([k])[0])}\n"
            f"brute-force stable: {bool(stable >> k & 1)}, "
            f"all-sets: {bool(all_sets >> k & 1)}, "
            f"{kind.value}-loops: {bool(loops >> k & 1)}"
        )

    return check


def _check_splitting(rng: random.Random, pool, depth) -> Optional[str]:
    def make(r: random.Random):
        # F, then G, then F & G, in one table: ``_compile((And(f, g),))``.
        d = _Drawing(r, pool)
        x = d.formula(depth)
        d.ops.append((_AND, x, d.formula(depth)))
        universe = sorted(d.atoms)
        ps = frozenset(a for a in universe if r.random() < 0.5)
        return d.ops, d.atoms, ps, frozenset(universe) - ps

    def accept(case):
        # The pnn graph of F & G, which the split reads.
        ops, universe, ps, qs = case
        if not ps | qs:
            return None
        names = _layout(universe)
        pnn = _graph(ops, GraphKind.PNN, names)
        if any(split_conditions(ops, names, ps, qs, pnn)):
            return None
        return pnn

    # Neither split_conditions nor the split draws from rng, so the
    # sampled cases depend on the seed alone.
    (ops, universe, ps, qs), pnn = _sample_until(rng, make, accept)
    s = _split((ops, universe), ps, qs, GraphKind.PNN, pnn=pnn)
    if not s.equivalence_holds:
        [whole] = format_points(s._names, s._whole)
        _, x, y = ops[-1]
        return (
            "splitting equivalence failed although pnn conditions pass\n"
            f"theory:\n{_text(ops, len(ops) - 1)}.\n"
            f"f: {_text(ops, x)}\ng: {_text(ops, y)}\n"
            f"P: {sorted(ps)}  Q: {sorted(qs)}\n"
            f"stable whole: {whole}"
        )
    return None


def _check_reduct_lemma(rng: random.Random, pool, depth) -> Optional[str]:
    f = random_formula(rng, pool, depth)
    for i in interpretations_of(atoms(f)):
        red = reduct(f, i)
        if satisfies(i, red) != satisfies(i, f):
            return (
                "reduct lemma violated\ntheory:\n"
                f"{print_formula(f)}.\n"
                f"interpretation: {format_interpretation(i)}"
            )
        if not atoms(red) <= i:
            return (
                "reduct mentions atoms outside the interpretation\n"
                f"theory:\n{print_formula(f)}.\n"
                f"interpretation: {format_interpretation(i)}\n"
                f"reduct: {print_formula(red)}"
            )
    return None


def _check_lemma1(rng: random.Random, pool, depth) -> Optional[str]:
    f = random_formula(rng, pool, depth)
    universe = atoms(f)
    for i in interpretations_of(universe):
        if not satisfies(i, f):
            continue
        red = reduct(f, i)
        base = spos(red)
        for j in interpretations_of(universe):
            if base <= j and not satisfies(j, red):
                return (
                    "supersets of the strictly positive atoms of the reduct "
                    "must satisfy it\ntheory:\n"
                    f"{print_formula(f)}.\n"
                    f"I: {format_interpretation(i)}  "
                    f"J: {format_interpretation(j)}\n"
                    f"reduct: {print_formula(red)}"
                )
    return None


def _check_sp_subgraph(rng: random.Random, pool, depth) -> Optional[str]:
    ops, universe, roots = _random_theory(rng, pool, depth)
    names = _layout(universe)
    sp = _graph(ops, GraphKind.SP, names)
    pnn = _graph(ops, GraphKind.PNN, names)
    # Both graphs have every atom of the theory as a vertex, in one layout.
    if any(s & ~p for s, p in zip(sp, pnn)):
        return (
            "sp graph is not a subgraph of the pnn graph\ntheory:\n"
            f"{_theory_text(ops, roots)}"
        )
    return None


def _completion_models(table: Ops, roots: list[int], universe) -> list[int]:
    """The points where every member ``roots`` of the completion ``table``
    holds, read from a classical pass of its own over the theory's atoms
    ``universe``, so in the layout of the report's points."""
    c = _classical_pass(table, universe)
    every = c.candidates
    for r in roots:
        every &= c.vals[r]
    return c.points(every)


def _check_chain(rng: random.Random, pool, depth) -> Optional[str]:
    ops, universe, roots = _random_theory(rng, pool, depth)
    report = _analysis(ops, universe, roots)
    # The report's point lists, all in one layout of the theory's atoms.
    st, pw, sup = set(report._stable), set(report._pointwise), report._supported
    if not st <= pw:
        problem = "a stable model is not pointwise stable"
    elif not pw <= set(report._classical):
        problem = "a pointwise stable model is not classical"
    elif sup is not None and not st <= set(sup):
        problem = "a stable model is not supported"
    elif sup is not None and sup != _completion_models(*report._completion, universe):
        problem = "completion models differ from supported models"
    else:
        return None
    return f"{problem}\ntheory:\n{_theory_text(ops, roots)}"


Check = Callable[[random.Random, tuple[str, ...], int], Optional[str]]

PROPERTIES: dict[str, Check] = {
    "theorem1": _check_theorem1,
    "theorem2": _check_theorem2,
    "loop-oracle": _check_loop_oracle(GraphKind.PNN),
    # Intentionally unsound negative control: loops taken from the sp
    # graph miss counterexamples of the (p -> q) & (((q -> p) -> p) -> p)
    # shape, so this property is expected to report violations.
    "loop-oracle-sp": _check_loop_oracle(GraphKind.SP),
    "splitting": _check_splitting,
    "reduct-lemma": _check_reduct_lemma,
    "lemma1": _check_lemma1,
    "sp-subgraph": _check_sp_subgraph,
    "chain": _check_chain,
}


def run_fuzz(
    property_name: str,
    seed: int,
    count: int,
    max_atoms: int = DEFAULT_FUZZ_ATOMS,
    max_depth: int = DEFAULT_FUZZ_DEPTH,
) -> FuzzResult:
    if property_name not in PROPERTIES:
        known = ", ".join(sorted(PROPERTIES))
        raise ValueError(f"unknown property {property_name!r}; known: {known}")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if count < 1:
        raise ValueError("count must be at least 1")
    if not 1 <= max_atoms <= MAX_FUZZ_ATOMS:
        raise ValueError(f"max_atoms must be between 1 and {MAX_FUZZ_ATOMS}")
    if not 1 <= max_depth <= MAX_FUZZ_DEPTH:
        raise ValueError(f"max_depth must be between 1 and {MAX_FUZZ_DEPTH}")
    check = PROPERTIES[property_name]
    pool = ATOM_POOL[:max_atoms]
    rng = random.Random(seed)
    violations: list[str] = []
    for case in range(count):
        message = check(rng, pool, max_depth)
        if message is not None:
            violations.append(f"case {case}: {message}")
    return FuzzResult(property_name, seed, count, violations)
