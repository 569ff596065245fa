"""Seeded random generator and refutation-seeking property checks.

The generator is deliberately simple and fully documented so runs are
reproducible: it draws from ``random.Random(seed)`` (Mersenne Twister,
portable across platforms), chooses connectives uniformly, takes atoms
from the pool a, b, c, d truncated to ``max_atoms``, and bounds the
tree depth by ``max_depth``.  Leaves are an atom (uniform over the
pool) or, with probability 1/(pool size + 1), bottom.

Each property check returns None on success or a violation message; the
counterexample always includes the generated theory text verbatim, so
it can be fed back through the matching CLI subcommand.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from .depgraph import GraphKind, _cyclic, _graph, _layout
from .formula import (
    And,
    Atom,
    AtomRef,
    BOT,
    Formula,
    Implies,
    Ops,
    Or,
    Theory,
    Value,
    _compile,
    atoms,
    print_formula,
    print_theory,
)
from .oracle import interpretations_of, loop_oracle_models, reduct, satisfies, spos
from .semantics import (
    _analysis,
    _classical_pass,
    _per_model,
    format_interpretation,
    format_points,
)
from .sets import _member_ops, analyze, classical_models, stable_models
from .splitting import _split, split_conditions

ATOM_POOL = ("a", "b", "c", "d")

MAX_FUZZ_ATOMS = 4
MAX_FUZZ_DEPTH = 4


def random_formula(rng: random.Random, pool: tuple[str, ...], depth: int) -> Formula:
    if depth <= 0:
        leaves = list(pool) + ["bot"]
        pick = rng.choice(leaves)
        return BOT if pick == "bot" else AtomRef(pick)
    node = rng.choice(("atom", "bot", "not", "and", "or", "implies"))
    if node == "atom":
        return AtomRef(rng.choice(pool))
    if node == "bot":
        return BOT
    if node == "not":
        return Implies(random_formula(rng, pool, depth - 1), BOT)
    left = random_formula(rng, pool, depth - 1)
    right = random_formula(rng, pool, depth - 1)
    if node == "and":
        return And(left, right)
    if node == "or":
        return Or(left, right)
    return Implies(left, right)


def random_theory(
    rng: random.Random, pool: tuple[str, ...], depth: int
) -> Theory:
    return tuple(
        random_formula(rng, pool, depth)
        for _ in range(rng.randint(1, 3))
    )


def random_nondisjunctive_theory(
    rng: random.Random, pool: tuple[str, ...], depth: int
) -> Theory:
    return tuple(
        Implies(random_formula(rng, pool, depth - 1), AtomRef(rng.choice(pool)))
        for _ in range(rng.randint(1, 3))
    )


def _sample_until(rng, make, accept, limit: int = 10000):
    """The first case ``make`` draws for which ``accept`` returns something
    other than None, and what it returned: work that the check reads."""
    for _ in range(limit):
        candidate = make(rng)
        taken = accept(candidate)
        if taken is not None:
            return candidate, taken
    raise RuntimeError("rejection sampling failed to find an acceptable case")


def _sp_acyclic(t: Theory) -> Optional[tuple[Ops, set[Atom]]]:
    """The compile of ``t`` if its sp graph is acyclic, else None."""
    compiled = _compile(t)
    sp = _graph(compiled[0], GraphKind.SP, _layout(compiled[1]))
    return None if _cyclic(sp) else compiled


class FuzzResult(Value):
    _fields = ("property_name", "seed", "checked", "violations")

    @property
    def ok(self) -> bool:
        return not self.violations


def _check_theorem1(rng: random.Random, pool, depth) -> Optional[str]:
    t, compiled = _sample_until(
        rng, lambda r: random_nondisjunctive_theory(r, pool, depth), _sp_acyclic
    )
    a = _analysis(*compiled, _member_ops(compiled[0], len(t)))
    if a._supported != a._stable:
        sup, st = format_points(a._c.names, a._supported, a._stable)
        return (
            "supported and stable models differ for a nondisjunctive theory "
            f"with acyclic sp graph\ntheory:\n{print_theory(t)}\n"
            f"supported: {sup}\nstable: {st}"
        )
    return None


def _check_theorem2(rng: random.Random, pool, depth) -> Optional[str]:
    t, compiled = _sample_until(
        rng, lambda r: random_theory(r, pool, depth), _sp_acyclic
    )
    # Both tables from the per-model path: the sweep's fixpoint path
    # takes the pointwise table to be the stable one when no loop has two
    # atoms, so comparing its tables would compare a table with itself.
    c = _classical_pass(*compiled)
    st, pw = _per_model(c)
    if pw != st:
        pw_text, st_text = format_points(c.names, c.points(pw), c.points(st))
        return (
            "pointwise stable and stable models differ for a theory with "
            f"acyclic sp graph\ntheory:\n{print_theory(t)}\n"
            f"pointwise stable: {pw_text}\n"
            f"stable: {st_text}"
        )
    return None


def _adversarial_loop_formula(rng: random.Random, pool) -> Formula:
    # The (x -> y) & (((y -> x) -> x) -> x) shape: its sp graph misses
    # the (x, y) edge, so sp-based loop checking wrongly accepts {x, y}.
    x = rng.choice(pool)
    y = rng.choice([a for a in pool if a != x] or [x])
    xr, yr = AtomRef(x), AtomRef(y)
    return And(Implies(xr, yr), Implies(Implies(Implies(yr, xr), xr), xr))


def _check_loop_oracle(kind: GraphKind):
    def check(rng: random.Random, pool, depth) -> Optional[str]:
        # One case in eight uses the adversarial template so the sp
        # negative control reliably trips; the pnn oracle must survive it.
        if len(pool) >= 2 and rng.random() < 0.125:
            f = _adversarial_loop_formula(rng, pool)
        else:
            f = random_formula(rng, pool, depth)
        stable = set(stable_models((f,)))
        by_all_sets = set(loop_oracle_models(f, None))
        by_loops = set(loop_oracle_models(f, kind))
        for i in interpretations_of(atoms(f)):
            brute = i in stable
            all_sets = i in by_all_sets
            loops = i in by_loops
            if not (brute == all_sets == loops):
                return (
                    f"loop oracle ({kind.value}) disagrees with brute force\n"
                    f"theory:\n{print_formula(f)}.\n"
                    f"interpretation: {format_interpretation(i)}\n"
                    f"brute-force stable: {brute}, all-sets: {all_sets}, "
                    f"{kind.value}-loops: {loops}"
                )
        return None

    return check


def _check_splitting(rng: random.Random, pool, depth) -> Optional[str]:
    def make(r: random.Random):
        f = random_formula(r, pool, depth)
        g = random_formula(r, pool, depth)
        universe = sorted(atoms(And(f, g)))
        ps = frozenset(a for a in universe if r.random() < 0.5)
        return f, g, ps, frozenset(universe) - ps

    def accept(case):
        # The compile and pnn graph of F & G, which the split reads.
        f, g, ps, qs = case
        if not ps | qs:
            return None
        compiled = _compile((And(f, g),))
        names = _layout(compiled[1])
        pnn = _graph(compiled[0], GraphKind.PNN, names)
        if any(split_conditions(compiled[0], names, ps, qs, pnn)):
            return None
        return compiled, pnn

    # Neither split_conditions nor the split draws from rng, so the
    # sampled cases depend on the seed alone.
    (f, g, ps, qs), (compiled, pnn) = _sample_until(rng, make, accept)
    s = _split(compiled, ps, qs, GraphKind.PNN, pnn=pnn)
    if not s.equivalence_holds:
        [whole] = format_points(s._names, s._whole)
        return (
            "splitting equivalence failed although pnn conditions pass\n"
            f"theory:\n{print_formula(And(f, g))}.\n"
            f"f: {print_formula(f)}\ng: {print_formula(g)}\n"
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
    t = random_theory(rng, pool, depth)
    ops, universe = _compile(t)
    names = _layout(universe)
    sp = _graph(ops, GraphKind.SP, names)
    pnn = _graph(ops, GraphKind.PNN, names)
    # Both graphs have every atom of t as a vertex, in one layout.
    if any(s & ~p for s, p in zip(sp, pnn)):
        return (
            "sp graph is not a subgraph of the pnn graph\ntheory:\n"
            f"{print_theory(t)}"
        )
    return None


def _check_chain(rng: random.Random, pool, depth) -> Optional[str]:
    t = random_theory(rng, pool, depth)
    report = analyze(t)
    st = set(report.stable)
    pw = set(report.pointwise_stable)
    sup = report.supported
    if not st <= pw:
        problem = "a stable model is not pointwise stable"
    elif not pw <= set(report.classical):
        problem = "a pointwise stable model is not classical"
    elif sup is not None and not st <= set(sup):
        problem = "a stable model is not supported"
    # Both lists are in ``interpretations_of`` order over the universe.
    elif sup is not None and sup != classical_models(
        report.completion_theory, report.universe
    ):
        problem = "completion models differ from supported models"
    else:
        return None
    return f"{problem}\ntheory:\n{print_theory(t)}"


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
    max_atoms: int = MAX_FUZZ_ATOMS,
    max_depth: int = MAX_FUZZ_DEPTH,
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
