"""Randomized invariants over the full formula space (hypothesis)."""

import contextlib
import io
import json
import random

import hypothesis.strategies as st
from hypothesis import given, settings

import stablemodels.depgraph as depgraph
import stablemodels.loopformulas as loopformulas
import stablemodels.semantics as semantics
import stablemodels.sets as sets
from stablemodels import (
    BOT,
    And,
    AtomRef,
    DepGraph,
    GraphKind,
    Implies,
    Or,
    analyze,
    atoms,
    check_split,
    choice_augment,
    completion,
    classify_occurrences,
    g_pnn,
    g_sp,
    graph_of,
    has_cycle,
    interpretations_of,
    is_nondisjunctive_theory,
    is_pointwise_stable,
    is_stable,
    loop_formula,
    loop_oracle_models,
    nes,
    parse_formula,
    parse_theory,
    print_formula,
    print_theory,
    reduct,
    rules_of,
    satisfies,
    sccs,
    spos,
    stable_models,
    stable_via_all_sets,
    stable_via_loops,
    strongly_connected_subsets,
    subgraph_of,
    theory_atoms,
    to_dot,
)
from stablemodels.cli import (
    COMMANDS,
    _parse_args,
    build_parser,
    command_parser,
)
from stablemodels.formula import _compile, conj, neg
from stablemodels.fuzz import ATOM_POOL, PROPERTIES, random_formula
from stablemodels.oracle import format_models
from stablemodels.parser import formula_ops, theory_ops
from stablemodels.semantics import (
    _by_fixpoint,
    _classical_pass,
    _fixpoint_rules,
    answer_json,
    format_interpretation,
    format_points,
)
from conftest import (
    clark_completion,
    compile_scan,
    cyclic_scan,
    dependency_graph_scan,
    fixpoint_rules,
    loop_oracle_scan,
    masks,
    oracle_mismatches,
    run_cli,
    sccs_scan,
    split_sweep_paths,
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

# Formulas with negations drawn as often as the other connectives, so
# that an occurrence is often positive but negated, as a is in not (a -> b).
negating_formulas = st.recursive(
    st.one_of(st.just(BOT), st.builds(AtomRef, atom_names)),
    lambda child: st.one_of(
        st.builds(And, child, child),
        st.builds(Or, child, child),
        st.builds(Implies, child, child),
        st.builds(neg, child),
    ),
    max_leaves=12,
)
negating_theories = st.lists(negating_formulas, max_size=3).map(tuple)

rules = st.one_of(
    st.builds(AtomRef, atom_names),
    st.builds(Implies, formulas, st.builds(AtomRef, atom_names)),
)

programs = st.lists(rules, max_size=4).map(tuple)

# Up to six atoms, for the sweep paths.
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


# Theories in the fixpoint path's syntactic class, up to six atoms:
# rules, bare heads and constraints, some joined by "&".  A head is an "|" of atoms,
# negations and bot, so it may be disjunctive and need not be
# head-cycle-free; a body is an "&"/"|" tree of atoms, negations
# (``not not a`` among them) and bot.
wide_atoms = st.builds(AtomRef, wide_names)
negations = st.builds(neg, st.one_of(wide_atoms, wide_formulas))
gated_bodies = st.recursive(
    st.one_of(wide_atoms, wide_atoms, negations, st.just(BOT)),
    lambda child: st.one_of(st.builds(And, child, child), st.builds(Or, child, child)),
    max_leaves=4,
)
gated_heads = st.recursive(
    st.one_of(wide_atoms, wide_atoms, wide_atoms, negations, st.just(BOT)),
    lambda child: st.builds(Or, child, child),
    max_leaves=3,
)
gated_pieces = st.one_of(
    st.builds(Implies, gated_bodies, gated_heads),
    st.builds(Implies, gated_bodies, gated_heads),
    gated_heads,
    st.builds(neg, gated_bodies),
)
# Over three atoms, with disjunctive heads and atom bodies, two atoms of
# one head often share a pnn cycle, so the head-cycle-freedom gate is
# exercised.
three_atoms = st.builds(AtomRef, st.sampled_from(("a", "b", "c")))
cycle_heads = st.builds(
    Or, three_atoms, st.one_of(three_atoms, st.builds(neg, three_atoms))
)
gated_theories = st.one_of(
    st.lists(
        st.one_of(gated_pieces, st.builds(And, gated_pieces, gated_pieces)),
        min_size=1,
        max_size=5,
    ),
    st.lists(
        st.one_of(
            st.builds(Implies, three_atoms, cycle_heads),
            st.builds(Implies, three_atoms, three_atoms),
            cycle_heads,
        ),
        min_size=2,
        max_size=5,
    ),
).map(tuple)


# Theories whose one member reaches one node object, the head, by two
# strictly positive paths under different rule bodies.
shared_heads = st.builds(
    lambda body, other, head: (And(Implies(body, head), Implies(other, head)),),
    negating_formulas, negating_formulas, negating_formulas,
)


# Formula text with "<->", whose parse shares both operands of each
# biconditional under two implications, and with runs of "not" and "bot".
iff_texts = st.recursive(
    st.one_of(st.just("bot"), atom_names),
    lambda child: st.one_of(
        st.tuples(child, st.sampled_from(("<->", "&", "|", "->")), child).map(
            lambda parts: "({} {} {})".format(*parts)
        ),
        st.tuples(st.integers(1, 3), child).map(
            lambda parts: "not " * parts[0] + parts[1]
        ),
    ),
    max_leaves=8,
)
iff_theories = st.lists(iff_texts.map(parse_formula), max_size=3).map(tuple)

# Programs whose heads are a or b, so that heads repeat and c and d head
# no rule: facts, and rules with bodies that may hold "<->".  The empty
# program is drawn too.
completion_heads = st.builds(AtomRef, st.sampled_from(("a", "b")))
completion_programs = st.lists(
    st.one_of(
        completion_heads,
        st.builds(
            Implies,
            st.one_of(formulas, iff_texts.map(parse_formula)),
            completion_heads,
        ),
    ),
    max_size=5,
).map(tuple)


@given(st.one_of(formulas, negating_formulas))
def test_print_parse_round_trip(f):
    assert parse_formula(print_formula(f)) == f


@given(formulas)
def test_spos_matches_occurrence_classification(f):
    via_contexts = {
        a for a, ctx in classify_occurrences(f) if ctx.antecedent_count == 0
    }
    assert spos(f) == via_contexts


@given(negating_formulas)
def test_pnn_matches_occurrence_classification(f):
    # The pnn rule against its definition, on the one rule f -> h with
    # h fresh: its pnn edges run from h to the positive nonnegated atoms
    # of f.
    via_contexts = {
        a for a, ctx in classify_occurrences(f)
        if ctx.positive and ctx.nonnegated
    }
    edges = g_pnn((Implies(f, AtomRef("h")),)).edges
    assert edges == {("h", a) for a in via_contexts}


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
@given(st.one_of(theories, programs, iff_theories))
def test_enumerators_match_definitional_scans(t):
    assert oracle_mismatches(t) == []


@settings(deadline=None)
@given(st.one_of(wide_theories, wide_programs))
def test_both_sweep_paths_match_definitional_scans(t):
    # ``oracle_mismatches`` runs the per-model and the loop-indexed path,
    # and the fixpoint path for a theory in its class, directly,
    # whichever one ``analyze`` would choose.
    assert oracle_mismatches(t) == []


@settings(deadline=None)
@given(gated_theories)
def test_fixpoint_path_matches_definitional_scans(t):
    # Every drawn theory passes the syntactic gate; only the
    # head-cycle-free ones may take the fixpoint path.
    c = _classical_pass(*_compile(t))
    assert _fixpoint_rules(c) is not None
    rules = fixpoint_rules(c)
    if rules is not None:
        stable, pointwise = _by_fixpoint(c, rules)
        points = list(interpretations_of(c.names))
        assert c.build(c.points(stable)) == [i for i in points if is_stable(i, t)]
        assert c.build(c.points(pointwise)) == [
            i for i in points if is_pointwise_stable(i, t)
        ]
    assert oracle_mismatches(t) == []


@st.composite
def head_cycle_theories(draw):
    """Theories of the syntactic class whose head x | y has x and y on one
    pnn cycle: rules over two to four atoms that run round a cycle, the
    head as a rule or a bare head, and up to two other pieces."""
    names = draw(st.permutations(("a", "b", "c", "d")))
    cycle = [AtomRef(a) for a in names[:draw(st.integers(2, 4))]]
    rules = [Implies(cycle[i - 1], cycle[i]) for i in range(len(cycle))]
    head = Or(cycle[0], cycle[draw(st.integers(1, len(cycle) - 1))])
    body = draw(st.one_of(st.none(), gated_bodies))
    rules.append(head if body is None else Implies(body, head))
    rules += draw(st.lists(gated_pieces, max_size=2))
    return tuple(draw(st.permutations(rules)))


@settings(deadline=None)
@given(head_cycle_theories())
def test_head_cycles_stay_off_the_fixpoint_path(t):
    c = _classical_pass(*_compile(t))
    rules = _fixpoint_rules(c)
    assert rules is not None and rules.heads
    assert fixpoint_rules(c) is None
    assert getattr(semantics._path(c, True), "func", None) is not _by_fixpoint
    assert oracle_mismatches(t) == []


@given(
    st.one_of(
        theories, negating_theories, programs, wide_theories, wide_programs,
        iff_theories,
    )
)
def test_graphs_match_rule_scan(t):
    assert g_sp(t) == dependency_graph_scan(t, GraphKind.SP)
    assert g_pnn(t) == dependency_graph_scan(t, GraphKind.PNN)


@given(st.one_of(theories, negating_theories, iff_theories))
def test_compile_numbers_ops_as_a_recursive_postorder(t):
    # ``iff_theories`` share the operands of each "<->"; every theory
    # shares ``BOT``.
    assert _compile(t) == compile_scan(t)


@given(
    st.one_of(theories, negating_theories, programs, iff_theories,
              shared_heads),
    st.sampled_from(GraphKind),
)
def test_graph_command_prints_graph_of(t, kind):
    # The command prints from the masks of the parse's ops; the library's
    # ``DepGraph`` and ``to_dot`` are the reference, byte for byte.
    text = print_theory(t)
    g = graph_of(t, kind)
    argv = ["graph", "--graph", kind.value]
    assert run_cli(argv, text) == (0, to_dot(g, label=kind.value))
    edges = "".join(f"{a} {b}\n" for a, b in g.sorted_edges())
    assert run_cli([*argv, "--format", "edges"], text) == (0, edges)


@given(st.one_of(theories, negating_theories, programs, wide_programs))
def test_nondisjunctive_read_off_the_member_ops(t):
    # The completion's reader, and ``tight``'s reading of each member,
    # decide whether the members are rules.
    ops, _, roots = theory_ops(print_theory(t))
    program = semantics._completion(ops, roots) is not None
    assert program == is_nondisjunctive_theory(t)
    assert all(semantics._rule(ops, r) for r in roots) == program


@given(st.one_of(theories, programs, iff_theories))
def test_member_ops_are_the_parse_roots(t):
    # The set-level API reads the members off the ``And`` spine of the
    # compile's ops; the parse records them as it reads the text.
    text = print_theory(t)
    ops, _, roots = theory_ops(text)
    assert sets._member_ops(_compile(parse_theory(text))[0], len(roots)) == roots


@settings(deadline=None)
@given(completion_programs)
def test_completion_is_the_clark_completion(t):
    # The library's completion, the report's and the lines ``models``
    # prints, all read off the op table, against the completion built
    # from the rules.
    expected = clark_completion(t)
    assert completion(t) == expected
    assert analyze(t).completion_theory == expected
    code, out = run_cli(["models"], print_theory(t))
    assert code == 0
    lines = out.splitlines()
    printed = lines[lines.index("completion:") + 1:]
    assert printed == ["  " + print_formula(f) + "." for f in expected]


@given(shared_heads)
def test_graphs_of_a_shared_head_match_rule_scan(t):
    # ``dependency_graph_scan`` walks each path, so it sees the head
    # under both bodies.
    assert g_sp(t) == dependency_graph_scan(t, GraphKind.SP)
    assert g_pnn(t) == dependency_graph_scan(t, GraphKind.PNN)


@given(st.one_of(theories, programs), st.data())
def test_points_are_the_candidates_a_table_holds(t, data):
    # Bits past the 2**n points and outside the candidates are drawn too.
    c = semantics._classical_pass(*_compile(t))
    table = data.draw(st.integers(-1, (1 << (2 << len(c.names))) - 1))
    assert c.points(table) == [k for k in c.keys if table >> k & 1]
    assert c.points(table) is c.points(table & c.candidates)


@given(st.one_of(theories, negating_theories))
def test_sp_graph_is_subgraph_of_pnn(t):
    assert subgraph_of(g_sp(t), g_pnn(t))


@given(st.one_of(theories, negating_theories))
def test_graph_vertices_are_theory_atoms(t):
    assert g_sp(t).vertices == theory_atoms(t)
    assert g_pnn(t).vertices == theory_atoms(t)


@given(st.one_of(theories, negating_theories))
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


# Splits of up to eight atoms: F and G, each with negations, and a
# partition {P, Q} of the atoms of F & G.
split_names = st.sampled_from(("a", "b", "c", "d", "e", "f", "g", "h"))
split_formulas = st.recursive(
    st.one_of(st.just(BOT), st.builds(AtomRef, split_names)),
    lambda child: st.one_of(
        st.builds(And, child, child),
        st.builds(Or, child, child),
        st.builds(Implies, child, child),
        st.builds(neg, child),
    ),
    max_leaves=10,
)


@st.composite
def splits(draw, parts=split_formulas):
    f, g = draw(parts), draw(parts)
    universe = atoms(And(f, g))
    ps = frozenset()
    if universe:
        ps = frozenset(draw(st.sets(st.sampled_from(sorted(universe)))))
    return f, g, ps, universe - ps


def check_split_sweep_paths(f, g, ps, qs, kind):
    # The oracle is the route that builds each part as a formula and
    # enumerates it on its own.
    whole = stable_models((And(f, g),))
    part_f = stable_models((choice_augment(f, qs),))
    part_g = stable_models((choice_augment(g, ps),))
    both = [i for i in part_f if i in part_g]
    for path, report in split_sweep_paths(f, g, ps, qs, kind).items():
        lists = report.stable_whole, report.stable_part_f, report.stable_part_g
        assert lists == (whole, part_f, part_g), path
        assert report.equivalence_holds == (whole == both), path


@settings(deadline=None)
@given(splits(), st.sampled_from(GraphKind))
def test_split_sweep_paths_match_choice_augmented_enumeration(split, kind):
    check_split_sweep_paths(*split, kind)


@settings(deadline=None)
@given(splits(gated_theories.map(conj)), st.sampled_from(GraphKind))
def test_split_fixpoint_path_matches_choice_augmented_enumeration(split, kind):
    # F and G are conjunctions of pieces of the fixpoint path's class,
    # so ``split_sweep_paths`` runs that path too unless a head of F & G
    # is not head-cycle-free.
    check_split_sweep_paths(*split, kind)


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


@settings(deadline=None)
@given(graphs(), st.data())
def test_budgeted_loops_give_all_loops_or_none(g, data):
    loops = strongly_connected_subsets(g)
    limit = data.draw(st.integers(0, len(loops) + 2))
    names, succ = sets._encoded(g)
    budgeted = depgraph._loops(succ, depgraph._components(succ), limit)
    assert budgeted == (masks(loops, names) if len(loops) <= limit else None)


@st.composite
def shaped_graphs(draw):
    """Graphs on up to 12 vertices, in blocks joined by one-way edges.

    Each block is a ring with a few chords or a graph of drawn edge
    density, up to complete with self-loops, so sparse and dense strongly
    connected components both appear; edges between blocks run from an
    earlier block to a later one only.
    """
    n = draw(st.integers(1, 12))
    vertices = [f"v{i:02d}" for i in range(n)]
    cuts = draw(st.sets(st.integers(1, n - 1), max_size=3)) if n > 1 else set()
    rng = draw(st.randoms(use_true_random=False))
    edges = set()
    bounds = [0, *sorted(cuts), n]
    for lo, hi in zip(bounds, bounds[1:]):
        block = vertices[lo:hi]
        pairs = [(a, b) for a in block for b in block]
        if draw(st.booleans()):
            edges |= {(a, block[(i + 1) % len(block)]) for i, a in enumerate(block)}
            edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=3)))
        else:
            density = draw(st.floats(0, 1))
            edges |= {pair for pair in pairs if rng.random() < density}
        joins = [(a, b) for a in block for b in vertices[hi:]]
        if joins:
            edges |= set(draw(st.lists(st.sampled_from(joins), max_size=4)))
    return DepGraph(frozenset(vertices), frozenset(edges))


@settings(deadline=None, max_examples=150)
@given(shaped_graphs())
def test_loops_match_subset_scan_on_shaped_graphs(g):
    assert strongly_connected_subsets(g) == strongly_connected_subsets_scan(g)


@settings(deadline=None)
@given(st.one_of(graphs(), shaped_graphs()))
def test_mask_loops_are_the_subset_scan_in_layout_order(g):
    # In the classical pass's layout, ``interpretations_of`` order is by
    # size, then descending int; the decoded masks are the scan's loops.
    names, succ = sets._encoded(g)
    loops = depgraph._all_loops(succ)
    assert loops == sorted(sorted(loops, reverse=True), key=int.bit_count)
    decoded = [frozenset(depgraph._named(ys, names)) for ys in loops]
    assert decoded == strongly_connected_subsets_scan(g)


@settings(deadline=None)
@given(st.one_of(graphs(), shaped_graphs()))
def test_mask_components_match_reachability_scan(g):
    names, succ = sets._encoded(g)
    components = depgraph._components(succ)
    decoded = [frozenset(depgraph._named(c, names)) for c in components]
    assert decoded == sccs(g) == sccs_scan(g)
    assert has_cycle(g) == cyclic_scan(g)


@settings(deadline=None)
@given(splits(), st.sampled_from(GraphKind))
def test_split_names_the_first_straddling_component(split, kind):
    # Condition (iii) names the first component, in lexicographic order,
    # that meets both P and Q.
    f, g, ps, qs = split
    graph = dependency_graph_scan((And(f, g),), kind)
    straddling = [c for c in sccs_scan(graph) if not (c <= ps or c <= qs)]
    report = check_split(f, g, ps, qs, kind)
    assert report.cond_iii_offender == (straddling[0] if straddling else None)


def _loops_output(f, kind, interp):
    argv = ["loops", "--graph", kind.value, "-i", ",".join(interp)]
    code, out = run_cli(argv, print_formula(f))
    assert code == 0
    return out.splitlines()


def _draw_interpretation(f, data):
    universe = sorted(atoms(f))
    return frozenset(
        data.draw(st.sets(st.sampled_from(universe))) if universe else ()
    )


@settings(deadline=None)
@given(
    st.one_of(formulas, negating_formulas), st.sampled_from(GraphKind),
    st.data(),
)
def test_loops_oracle_line_matches_loop_oracle_scan(f, kind, data):
    # Against the definitional oracle: ``stable_via_loops`` now runs the
    # CLI's own code, so comparing with it would test nothing.
    interp = _draw_interpretation(f, data)
    last = _loops_output(f, kind, interp)[-1]
    accepted = " accepted by " in last
    assert accepted == (interp in loop_oracle_scan(f, kind))


@settings(deadline=None)
@given(
    st.one_of(formulas, negating_formulas), st.sampled_from(GraphKind),
    st.data(),
)
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
@given(st.one_of(formulas, negating_formulas))
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


@settings(deadline=None)
@given(
    st.one_of(formulas, negating_formulas), st.sampled_from(GraphKind),
    st.booleans(), st.data(),
)
def test_loops_lines_print_the_loop_formulas(f, kind, with_i, data):
    # Each line is the printed loop formula, whose support the CLI prints
    # once, plus the verdict under -i.
    argv = ["loops", "--graph", kind.value]
    interp = None
    if with_i:
        interp = _draw_interpretation(f, data)
        argv += ["-i", ",".join(interp)]
    code, out = run_cli(argv, print_formula(f))
    assert code == 0
    loops = strongly_connected_subsets(graph_of((f,), kind))
    expected = []
    for ys in loops:
        lf = loop_formula(f, ys)
        line = f"loop {format_interpretation(ys)}: {print_formula(lf)}"
        if interp is not None:
            holds = satisfies(interp, lf)
            line += f"  [{'satisfied' if holds else 'violated'}]"
        expected.append(line)
    assert out.splitlines()[: len(loops)] == expected
    assert len(out.splitlines()) == len(loops) + (interp is not None)


@settings(deadline=None)
@given(
    st.one_of(
        formulas.map(print_formula), negating_formulas.map(print_formula),
        iff_texts,
    )
)
def test_nes_text_matches_printed_nes(text):
    # For every Y, including the empty set and all atoms: the support a
    # loop line prints and the ``nes`` line against the printed NES
    # objects.
    f = parse_formula(text)
    printer = loopformulas.NesPrinter(_compile((f,))[0])
    for ys in interpretations_of(atoms(f)):
        built = nes(f, ys)
        support = printer.support(depgraph._mask(ys, printer.names))
        assert support == print_formula(neg(built))
        argv = ["nes", f"--atoms={','.join(sorted(ys))}"]
        assert run_cli(argv, text) == (0, print_formula(built) + "\n")


@settings(deadline=None)
@given(
    st.one_of(
        formulas.map(print_formula), negating_formulas.map(print_formula),
        iff_texts,
    )
)
def test_nes_printer_names_are_the_layout_of_the_parse(text):
    # ``loops`` reads the printer's masks in the layout of the parse's
    # atoms, with no translation between the two.
    ops, universe = formula_ops(text)
    assert loopformulas.NesPrinter(ops).names == depgraph._layout(universe)


def _models_json(models):
    return None if models is None else [sorted(m) for m in models]


@settings(deadline=None)
@given(st.one_of(theories, programs, wide_theories, wide_programs))
def test_models_json_matches_json_dumps(t):
    # Theories with no models and nondisjunctive ones ("supported" a list,
    # not null) are both drawn.
    report = analyze(t)
    expected = {
        "universe": sorted(report.universe),
        "classical": _models_json(report.classical),
        "stable": _models_json(report.stable),
        "supported": _models_json(report.supported),
        "pointwise_stable": _models_json(report.pointwise_stable),
    }
    code, out = run_cli(["models", "--json"], print_theory(t))
    assert code == 0
    assert out == json.dumps(expected, indent=2) + "\n"


@settings(deadline=None)
@given(st.one_of(theories, programs, wide_theories, wide_programs))
def test_models_text_matches_format_models(t):
    report = analyze(t)
    expected = [
        "universe: " + (" ".join(sorted(report.universe)) or "(empty)"),
        "classical: " + format_models(report.classical),
        "stable: " + format_models(report.stable),
    ]
    if report.supported is not None:
        expected.append("supported: " + format_models(report.supported))
    expected.append("pointwise stable: " + format_models(report.pointwise_stable))
    if report.completion_theory is not None:
        expected.append("completion:")
        expected += [f"  {print_formula(f)}." for f in report.completion_theory]
    code, out = run_cli(["models"], print_theory(t))
    assert code == 0
    assert out.splitlines() == expected


@settings(deadline=None)
@given(formulas, formulas, st.sampled_from(GraphKind), st.data())
def test_split_json_matches_json_dumps(f, g, kind, data):
    ps = _draw_interpretation(And(f, g), data)
    report = check_split(f, g, ps, atoms(And(f, g)) - ps, kind)
    expected = {
        "graph": kind.value,
        "cond_i": report.cond_i,
        "cond_ii": report.cond_ii,
        "cond_iii": report.cond_iii,
        "equivalence_holds": report.equivalence_holds,
        "stable_whole": _models_json(report.stable_whole),
        "stable_part_f": _models_json(report.stable_part_f),
        "stable_part_g": _models_json(report.stable_part_g),
    }
    argv = ["split", print_formula(f), print_formula(g), "--p", ",".join(ps)]
    code, out = run_cli(argv + ["--graph", kind.value, "--json"])
    assert code in (0, 3, 4)
    assert out == json.dumps(expected, indent=2) + "\n"


@settings(deadline=None, max_examples=300)
@given(iff_texts, iff_texts, st.sampled_from(GraphKind), st.data())
def test_split_offenders_match_rule_scan(f_text, g_text, kind, data):
    # Parsed "<->" shares its operands, so the conditions meet nodes
    # reached by two paths.
    # Both orientations of the partition, so that between them every
    # strictly positive atom of F and of G is an offender once.
    f, g = parse_formula(f_text), parse_formula(g_text)
    part = _draw_interpretation(And(f, g), data)
    rest = atoms(And(f, g)) - part
    graph = dependency_graph_scan((And(f, g),), kind)

    def strictly_positive(h):
        return {a for a, ctx in classify_occurrences(h) if ctx.strictly_positive}

    for ps, qs in (part, rest), (rest, part):
        report = check_split(f, g, ps, qs, kind)
        straddling = [c for c in sccs(graph) if not (c <= ps or c <= qs)]
        assert report.cond_i_offenders == strictly_positive(f) - ps
        assert report.cond_ii_offenders == strictly_positive(g) - qs
        assert report.cond_iii_offender == (
            straddling[0] if straddling else None
        )


atom_sets = st.frozensets(st.text(max_size=4), max_size=4)


@given(
    st.lists(
        st.tuples(
            st.text(min_size=1, max_size=6),
            st.one_of(
                st.none(),
                st.booleans(),
                st.text(max_size=6),
                atom_sets,
                st.lists(atom_sets, max_size=4),
            ),
        ),
        min_size=1,
        max_size=5,
        unique_by=lambda field: field[0],
    )
)
def test_answer_json_matches_json_dumps(fields):
    # Any atom names, including ones that need escaping, and lists that
    # share their models.  Model lists go in as points over the names.
    def plain(v):
        if isinstance(v, frozenset):
            return sorted(v)
        if isinstance(v, list):
            return [sorted(m) for m in v]
        return v

    sets = [v for _, v in fields if isinstance(v, frozenset)]
    models = [m for _, v in fields if isinstance(v, list) for m in v]
    names = sorted(frozenset().union(*sets, *models), reverse=True)
    bit = {a: 1 << j for j, a in enumerate(names)}

    def points(v):
        if isinstance(v, list):
            return [sum(bit[a] for a in m) for m in v]
        return v

    expected = {key: plain(v) for key, v in fields}
    given_fields = [(key, points(v)) for key, v in fields]
    assert answer_json(names, given_fields) == json.dumps(expected, indent=2)


@st.composite
def point_lists(draw):
    """Atom names in descending order, n of them for n up to 8, and lists
    of points over them that may share points."""
    names = sorted(
        draw(st.sets(st.text(min_size=1, max_size=3), max_size=8)), reverse=True
    )
    points = st.integers(0, (1 << len(names)) - 1)
    shared = draw(st.lists(points, max_size=6))
    lists = st.lists(st.one_of(points, st.sampled_from(shared or [0])))
    return names, draw(st.lists(lists, max_size=4))


@given(point_lists())
def test_point_rendering_matches_sets(names_and_lists):
    # Odd n and n <= 1 leave one half table short or empty.
    names, lists = names_and_lists

    def model(k):
        return frozenset(a for j, a in enumerate(names) if k >> j & 1)

    assert format_points(names, *lists) == [
        format_models([model(k) for k in keys]) for keys in lists
    ]
    for keys in lists:
        fields = [("models", keys)]
        expected = {"models": [sorted(model(k)) for k in keys]}
        assert answer_json(names, fields) == json.dumps(expected, indent=2)


@given(st.integers(0, 8))
def test_point_rendering_of_every_subset(n):
    names = sorted((f"a{j}" for j in range(n)), reverse=True)
    keys = list(range(1 << n))
    sets = [frozenset(a for j, a in enumerate(names) if k >> j & 1) for k in keys]
    [text] = format_points(names, keys)
    assert text == ", ".join(map(format_interpretation, sets))
    expected = json.dumps({"m": [sorted(i) for i in sets]}, indent=2)
    assert answer_json(names, [("m", keys)]) == expected


# At most 40 characters: the grammar's alphabet, its keywords and junk,
# or the start of a printed formula, so that some inputs parse.
cli_text = st.one_of(
    st.lists(
        st.sampled_from(
            list("abpq01_ .,\t\n()&|-!<>%#é") + ["not ", "bot", "->", "<->"]
        ),
        max_size=40,
    ).map("".join),
    formulas.map(print_formula),
).map(lambda text: text[:40])
cli_caps = st.integers(0, 4).map(str)


@st.composite
def cli_calls(draw):
    """One subcommand's argv, with arbitrary text where text goes."""
    graph = ["--graph", draw(st.sampled_from(("sp", "pnn")))]
    cap = ["--cap", draw(cli_caps)]
    json_flag = draw(st.sampled_from(([], ["--json"])))
    command = draw(
        st.sampled_from(("models", "graph", "tight", "loops", "nes", "split", "fuzz"))
    )
    if command == "models":
        return ["models", *cap, *json_flag]
    if command == "graph":
        fmt = draw(st.sampled_from(("dot", "edges")))
        return ["graph", *graph, "--format", fmt]
    if command == "tight":
        return ["tight", *graph, *cap]
    if command == "loops":
        i = draw(st.one_of(st.just([]), cli_text.map(lambda x: [f"-i={x}"])))
        return ["loops", *graph, *i]
    if command == "nes":
        return ["nes", f"--atoms={draw(cli_text)}"]
    if command == "split":
        f, g, p = draw(cli_text), draw(cli_text), draw(cli_text)
        # "--" and "=" keep a text that starts with "-" an argument.
        return ["split", f"--p={p}", *graph, *cap, *json_flag, "--", f, g]
    prop = draw(st.one_of(st.sampled_from(sorted(PROPERTIES)), cli_text))
    numbers = st.integers(-2, 6).map(str)
    return [
        "fuzz",
        f"--property={prop}",
        "--count", draw(st.integers(-1, 3).map(str)),
        "--seed", draw(st.one_of(numbers, cli_text)),
        "--max-atoms", draw(numbers),
        "--max-depth", draw(numbers),
    ]


@settings(max_examples=300, deadline=None)
@given(cli_calls(), cli_text)
def test_cli_answers_any_short_input_with_an_exit_code(argv, stdin):
    # Whatever the text, each call ends in a documented exit code, 0 to
    # 5, and no exception escapes ``main``.
    code, _ = run_cli(argv, stdin)
    assert code in range(6)


def _parse_outcome(parse, argv):
    """The Namespace's fields of one parse, or its exit code, stdout and
    stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(parse(argv))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


def _full_tree_parse(argv):
    # The reference for ``_parse_args``: the whole tree's parse, then
    # the check for list values.
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        if isinstance(value, list):
            parser.error(f"argument {name}: expected one value")
    return args


cli_extra_tokens = st.sampled_from(
    ["-h", "--help", "--version", "--vers", "--js", "--bogus", "-x", "--",
     "=", "--cap=--", *COMMANDS]
)


@st.composite
def cli_argvs(draw):
    """A subcommand's argv, or none, with extra tokens inserted anywhere:
    help and version flags, abbreviations, junk options and commands."""
    argv = list(draw(st.one_of(cli_calls(), st.just([]))))
    for token in draw(st.lists(cli_extra_tokens, max_size=3)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


@settings(max_examples=500, deadline=None)
@given(cli_argvs())
def test_cli_parses_as_the_full_parser_tree(argv):
    # Building only the named command's parser changes no parse: the
    # same fields, or the same exit code, stdout and stderr.
    assert _parse_outcome(_parse_args, argv) == _parse_outcome(
        _full_tree_parse, argv
    )


# Calls that end a parse early (help, version, usage errors and the
# list value of "--cap=--") on each side of the command parser's route.
cli_stopping_argvs = st.sampled_from(
    [["models", "-h"], ["loops", "--version"], ["tight", "--graph", "x"],
     ["models", "--cap=--"], ["split", "--cap=--", "--p", "p", "p", "q"],
     ["nes", "--bogus"], ["fuzz"], ["--version"], []]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(cli_argvs(), cli_stopping_argvs), min_size=1,
                max_size=4))
def test_warm_command_parsers_keep_no_state(argvs):
    # The command parsers built once per process parse call after call,
    # whatever the calls before ended in, as a fresh full tree does.
    for argv in argvs:
        assert _parse_outcome(_parse_args, argv) == _parse_outcome(
            _full_tree_parse, argv
        )
    assert command_parser.cache_info().currsize <= len(COMMANDS)
