"""Randomized invariants over the full formula space (hypothesis)."""

import contextlib
import io
import random
import sys

import hypothesis.strategies as st
from hypothesis import given, settings

from stablemodels import (
    BOT,
    And,
    AtomRef,
    DepGraph,
    GraphKind,
    Implies,
    Or,
    atoms,
    check_split,
    choice_augment,
    classify_occurrences,
    g_pnn,
    g_sp,
    graph_of,
    interpretations_of,
    is_stable,
    loop_formula,
    loop_oracle_models,
    parse_formula,
    print_formula,
    reduct,
    rules_of,
    satisfies,
    spos,
    stable_via_all_sets,
    stable_via_loops,
    strongly_connected_subsets,
    subgraph_of,
    theory_atoms,
)
from stablemodels.cli import main
from stablemodels.fuzz import ATOM_POOL, random_formula
from conftest import (
    dependency_graph_scan,
    loop_oracle_scan,
    oracle_mismatches,
    strongly_connected_subsets_scan,
)

atom_names = st.sampled_from(("a", "b", "c", "d"))

formulas = st.recursive(
    st.one_of(st.just(BOT), st.builds(AtomRef, atom_names)),
    lambda child: st.one_of(
        st.builds(And, child, child),
        st.builds(Or, child, child),
        st.builds(Implies, child, child),
    ),
    max_leaves=12,
)

theories = st.lists(formulas, max_size=3).map(tuple)

rules = st.one_of(
    st.builds(AtomRef, atom_names),
    st.builds(Implies, formulas, st.builds(AtomRef, atom_names)),
)

programs = st.lists(rules, max_size=4).map(tuple)

# Up to six atoms, for the two sweep paths.
wide_names = st.sampled_from(("a", "b", "c", "d", "e", "f"))
wide_formulas = st.recursive(
    st.one_of(st.just(BOT), st.builds(AtomRef, wide_names)),
    lambda child: st.one_of(
        st.builds(And, child, child),
        st.builds(Or, child, child),
        st.builds(Implies, child, child),
    ),
    max_leaves=10,
)
wide_theories = st.lists(wide_formulas, max_size=4).map(tuple)
wide_programs = st.lists(
    st.one_of(
        st.builds(AtomRef, wide_names),
        st.builds(Implies, wide_formulas, st.builds(AtomRef, wide_names)),
    ),
    max_size=6,
).map(tuple)


@given(formulas)
def test_print_parse_round_trip(f):
    assert parse_formula(print_formula(f)) == f


@given(formulas)
def test_spos_matches_occurrence_classification(f):
    via_contexts = {
        a for a, ctx in classify_occurrences(f) if ctx.antecedent_count == 0
    }
    assert spos(f) == via_contexts


@given(formulas)
def test_strictly_positive_implies_positive_nonnegated(f):
    for _, ctx in classify_occurrences(f):
        if ctx.strictly_positive:
            assert ctx.positive and ctx.nonnegated


@given(formulas)
def test_spos_within_atoms(f):
    assert spos(f) <= atoms(f)


@given(formulas)
def test_rules_empty_iff_no_strictly_positive_implication(f):
    rules = rules_of(f)
    has_sp_implication = any(
        isinstance(node, Implies)
        for node in _strictly_positive_nodes(f)
    )
    assert bool(rules) == has_sp_implication


def _strictly_positive_nodes(f):
    yield f
    if isinstance(f, (And, Or)):
        yield from _strictly_positive_nodes(f.left)
        yield from _strictly_positive_nodes(f.right)
    elif isinstance(f, Implies):
        yield from _strictly_positive_nodes(f.consequent)


@settings(max_examples=60)
@given(formulas)
def test_reduct_laws(f):
    for i in interpretations_of(atoms(f)):
        red = reduct(f, i)
        assert satisfies(i, red) == satisfies(i, f)
        assert atoms(red) <= i
        assert reduct(red, i) == red


@settings(max_examples=60)
@given(formulas)
def test_lemma_supersets_of_spos_satisfy_reduct(f):
    universe = atoms(f)
    for i in interpretations_of(universe):
        if not satisfies(i, f):
            continue
        red = reduct(f, i)
        base = spos(red)
        for j in interpretations_of(universe):
            if base <= j:
                assert satisfies(j, red)


@settings(deadline=None)
@given(st.one_of(theories, programs))
def test_enumerators_match_definitional_scans(t):
    assert oracle_mismatches(t) == []


@settings(deadline=None)
@given(st.one_of(wide_theories, wide_programs))
def test_both_sweep_paths_match_definitional_scans(t):
    # ``oracle_mismatches`` runs the per-model and the loop-indexed path
    # directly, whichever one ``analyze`` would choose.
    assert oracle_mismatches(t) == []


@given(st.one_of(theories, programs, wide_theories, wide_programs))
def test_graphs_match_rule_scan(t):
    assert g_sp(t) == dependency_graph_scan(t, GraphKind.SP)
    assert g_pnn(t) == dependency_graph_scan(t, GraphKind.PNN)


@given(theories)
def test_sp_graph_is_subgraph_of_pnn(t):
    assert subgraph_of(g_sp(t), g_pnn(t))


@given(theories)
def test_graph_vertices_are_theory_atoms(t):
    assert g_sp(t).vertices == theory_atoms(t)
    assert g_pnn(t).vertices == theory_atoms(t)


@given(theories)
def test_duplicate_members_leave_graphs_unchanged(t):
    assert g_sp(t + t) == g_sp(t)
    assert g_pnn(t + t) == g_pnn(t)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(GraphKind))
def test_check_split_matches_pointwise_stability_scan(seed, kind):
    rng = random.Random(seed)
    f = random_formula(rng, ATOM_POOL, 3)
    g = random_formula(rng, ATOM_POOL, 3)
    universe = atoms(And(f, g))
    ps = frozenset(a for a in sorted(universe) if rng.random() < 0.5)
    qs = universe - ps
    report = check_split(f, g, ps, qs, kind)

    def scan(theory):
        # The definition: every interpretation of the full universe,
        # checked one at a time.
        subsets = interpretations_of(universe)
        return [i for i in subsets if is_stable(i, theory)]

    whole = scan((And(f, g),))
    part_f = scan((choice_augment(f, qs),))
    part_g = scan((choice_augment(g, ps),))
    assert report.stable_whole == whole
    assert report.stable_part_f == part_f
    assert report.stable_part_g == part_g
    assert report.equivalence_holds == (
        whole == [i for i in part_f if i in part_g]
    )


@st.composite
def graphs(draw):
    """Directed graphs on up to 10 vertices, self-loops included."""
    vertices = [f"v{i}" for i in range(draw(st.integers(0, 10)))]
    pairs = [(a, b) for a in vertices for b in vertices]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return DepGraph(frozenset(vertices), frozenset(edges))


@settings(deadline=None)
@given(graphs())
def test_loops_match_subset_scan(g):
    assert strongly_connected_subsets(g) == strongly_connected_subsets_scan(g)


def _loops_output(f, kind, interp):
    argv = ["loops", "--graph", kind.value, "-i", ",".join(interp)]
    out = io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(print_formula(f))
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = saved
    assert code == 0
    return out.getvalue().splitlines()


def _draw_interpretation(f, data):
    universe = sorted(atoms(f))
    return frozenset(
        data.draw(st.sets(st.sampled_from(universe))) if universe else ()
    )


@settings(deadline=None)
@given(formulas, st.sampled_from(GraphKind), st.data())
def test_loops_oracle_line_matches_stable_via_loops(f, kind, data):
    interp = _draw_interpretation(f, data)
    last = _loops_output(f, kind, interp)[-1]
    accepted = " accepted by " in last
    assert accepted == stable_via_loops(interp, f, kind)


@settings(deadline=None)
@given(formulas, st.sampled_from(GraphKind), st.data())
def test_loop_verdicts_match_satisfies(f, kind, data):
    # Each [satisfied]/[violated] verdict comes from a here-and-there
    # pass of f; the oracle evaluates the printed loop formula itself.
    interp = _draw_interpretation(f, data)
    lines = _loops_output(f, kind, interp)[:-1]
    loops = strongly_connected_subsets(graph_of((f,), kind))
    assert len(lines) == len(loops)
    for line, ys in zip(lines, loops):
        holds = satisfies(interp, loop_formula(f, ys))
        assert line.endswith("[satisfied]" if holds else "[violated]")


@settings(deadline=None)
@given(formulas)
def test_loop_oracles_match_satisfies_scan(f):
    # Each table oracle against ``satisfies`` on f and on each loop
    # formula, for both graphs and for every nonempty atom subset.
    for kind in (None, *GraphKind):
        accepted = loop_oracle_scan(f, kind)
        assert loop_oracle_models(f, kind) == accepted
        for i in interpretations_of(atoms(f)):
            verdict = (
                stable_via_all_sets(i, f)
                if kind is None
                else stable_via_loops(i, f, kind)
            )
            assert verdict == (i in accepted)
