"""Acceptance suite: golden paper-example checks plus seeded property runs.

Each criterion prints one pass/fail line (run with ``pytest -s`` to see
them on success).
"""

import random
import time

from stablemodels import (
    GraphKind,
    check_split,
    classical_models,
    g_pnn,
    g_sp,
    has_cycle,
    interpretations_of,
    is_pointwise_stable,
    is_stable,
    loop_formula,
    nes,
    parse_formula,
    parse_theory,
    reduct,
    satisfies,
    stable_models,
    strongly_connected_subsets,
    supported_models,
)
from stablemodels.cli import main
from stablemodels.formula import _formulas
from stablemodels.fuzz import (
    _random_nondisjunctive_theory,
    _random_theory,
    run_fuzz,
)
from conftest import oracle_mismatches

P1 = parse_theory("p -> q. q & not r -> p.")
P2 = parse_theory("p -> q. ((q -> r) -> r) -> p.")
P3 = parse_formula("(p -> q) & (((q -> p) -> p) -> p)")
NESTED = parse_formula("((p -> q) -> r) -> s")
BICOND = parse_formula("p <-> q")

PQ = frozenset({"p", "q"})
EMPTY = frozenset()


def report(name, ok):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_criterion_1_paper_example_suite():
    start = time.time()
    ok = True

    # (p1): stable, supported, sp edges.
    ok &= stable_models(P1) == [EMPTY]
    ok &= supported_models(P1) == [EMPTY, PQ]
    ok &= g_sp(P1).edges == {("q", "p"), ("p", "q")}

    # (p2): graphs and model coincidence.
    ok &= g_sp(P2).edges == {("q", "p"), ("p", "r")}
    ok &= not has_cycle(g_sp(P2))
    ok &= g_pnn(P2).edges == {("q", "p"), ("p", "r"), ("p", "q")}
    ok &= has_cycle(g_pnn(P2))
    ok &= stable_models(P2) == supported_models(P2) == [EMPTY, PQ]

    # Nested implication: the two graphs differ by one edge.
    ok &= g_sp((NESTED,)).edges == {("s", "r")}
    ok &= g_pnn((NESTED,)).edges == {("s", "r"), ("s", "p")}

    # (p3): sp loops, NES equivalences, tautological sp loop formulas,
    # non-stable model accepted by sp loops, pnn loop formula refusal.
    ok &= strongly_connected_subsets(g_sp((P3,))) == [
        frozenset({"p"}),
        frozenset({"q"}),
    ]
    double_neg = classical_models((parse_formula("not p & not q"),), PQ)
    ok &= classical_models((nes(P3, {"p"}),), PQ) == double_neg
    ok &= classical_models((nes(P3, {"q"}),), PQ) == double_neg
    every = list(interpretations_of(PQ))
    ok &= classical_models((loop_formula(P3, {"p"}),), PQ) == every
    ok &= classical_models((loop_formula(P3, {"q"}),), PQ) == every
    ok &= satisfies(PQ, P3) and not is_stable(PQ, (P3,))
    ok &= not satisfies(PQ, loop_formula(P3, {"p", "q"}))

    # p <-> q: pointwise stable but not stable; reduct is the formula itself.
    ok &= is_pointwise_stable(PQ, (BICOND,))
    ok &= not is_stable(PQ, (BICOND,))
    ok &= reduct(BICOND, PQ) == BICOND

    # Splitting counterexample around (p3).
    f, g = parse_formula("p -> q"), parse_formula("((q -> p) -> p) -> p")
    sp = check_split(f, g, {"q"}, {"p"}, GraphKind.SP)
    ok &= sp.conditions_pass and not sp.equivalence_holds
    ok &= PQ in sp.stable_part_f and PQ in sp.stable_part_g
    ok &= PQ not in sp.stable_whole
    pnn = check_split(f, g, {"q"}, {"p"}, GraphKind.PNN)
    ok &= pnn.cond_i and pnn.cond_ii and not pnn.cond_iii

    elapsed = time.time() - start
    ok &= elapsed < 1.0
    report("1 (paper example suite)", ok)


def test_criterion_2_theorem1_property():
    result = run_fuzz("theorem1", seed=1, count=1000)
    report("2 (theorem 1, 1000 nondisjunctive theories)", result.ok)


def test_criterion_3_theorem2_property():
    result = run_fuzz("theorem2", seed=1, count=1000)
    report("3 (theorem 2, 1000 arbitrary theories)", result.ok)


def test_criterion_4_loop_oracle_equivalence():
    result = run_fuzz("loop-oracle", seed=1, count=1000)
    report("4 (loop-oracle equivalence, 1000 formulas)", result.ok)


def test_criterion_5_lemma_suite():
    ok = True
    for prop in ("reduct-lemma", "lemma1", "sp-subgraph", "chain"):
        ok &= run_fuzz(prop, seed=1, count=1000).ok
    report("5 (lemma suite, 1000 cases per property)", ok)


def test_criterion_6_splitting_soundness():
    result = run_fuzz("splitting", seed=1, count=500)
    report("6 (splitting soundness, 500 samples)", result.ok)


def test_criterion_7_determinism(capsys):
    runs = []
    for _ in range(2):
        codes = []
        outs = []
        for argv, stdin in [
            (["fuzz", "--property", "chain", "--seed", "3", "--count", "50"], None),
            (["split", "p", "p -> q", "--p", "p", "--json"], None),
        ]:
            codes.append(main(argv))
            outs.append(capsys.readouterr())
        runs.append((codes, outs))
    report("7 (byte-identical reruns)", runs[0] == runs[1])


def test_criterion_8_enumerators_match_oracle():
    # Every other theory is nondisjunctive, so supported models are
    # compared too.  Both sweep paths, per model and by pnn loops, are
    # run directly on every theory.
    rng = random.Random(8)
    pool = ("a", "b", "c", "d", "e", "f")
    ok = True
    for case in range(1000):
        make = _random_nondisjunctive_theory if case % 2 else _random_theory
        ops, _, roots = make(rng, pool, 4)
        ok &= not oracle_mismatches(_formulas(ops, roots))
    report("8 (enumerators match the definitional oracle, 1000 theories)", ok)
