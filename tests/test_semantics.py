import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from stablemodels import (
    BOT,
    And,
    CapExceededError,
    GraphKind,
    Implies,
    NotNondisjunctiveError,
    analyze,
    atoms,
    classical_models,
    completion,
    g_pnn,
    interpretations_of,
    is_pointwise_stable,
    is_stable,
    is_supported,
    loop_formula,
    parse_formula,
    parse_theory,
    pointwise_stable_models,
    print_formula,
    reduct,
    reduct_theory,
    satisfies,
    stable_models,
    strongly_connected_subsets,
    supported_models,
    theory_atoms,
)
from stablemodels import depgraph, semantics
from stablemodels.formula import _compile
from stablemodels.parser import theory_ops
from stablemodels.semantics import (
    _by_fixpoint,
    _by_loops,
    _classical_pass,
    _fixpoint_rules,
    _loops_that_pay,
    _per_model,
    _per_model_price,
    _sweep,
)
from conftest import (
    P3_TEXT,
    count_calls,
    fixpoint_rules,
    masks,
    mset,
    sweep_paths,
)

TAUT = Implies(BOT, BOT)


class TestSatisfies:
    def test_false_antecedent(self):
        assert satisfies(frozenset(), parse_formula("p -> q"))

    def test_p1_member(self, p1):
        assert satisfies(mset("p", "q"), p1[1])

    def test_bottom_is_false(self):
        assert not satisfies(mset("p"), BOT)


class TestReduct:
    def test_unsatisfied_implication_becomes_tautology(self):
        assert reduct(parse_formula("p -> q"), frozenset()) == TAUT

    def test_p1_reduct_wrt_pq(self, p1):
        red = reduct_theory(p1, mset("p", "q"))
        assert red == parse_theory("p -> q. q & (bot -> bot) -> p.")

    def test_unsatisfied_formula_collapses_to_bottom(self):
        f = parse_formula("p & q")
        assert reduct(f, mset("p")) == BOT

    def test_theory_reduct_memberwise(self, p1):
        assert reduct_theory(p1, frozenset()) == (TAUT, TAUT)
        assert reduct_theory((), mset("p")) == ()

    def test_idempotent(self, p3):
        for i in interpretations_of(atoms(p3)):
            once = reduct(p3, i)
            assert reduct(once, i) == once

    def test_reduct_lemma_and_confinement(self, p3):
        for i in interpretations_of(atoms(p3)):
            red = reduct(p3, i)
            assert satisfies(i, red) == satisfies(i, p3)
            assert atoms(red) <= i


class TestClassicalModels:
    def test_single_implication(self):
        # Truth table over {p, q}: only {p} falsifies p -> q.
        t = parse_theory("p -> q")
        assert classical_models(t, {"p", "q"}) == [
            frozenset(),
            mset("q"),
            mset("p", "q"),
        ]

    def test_empty_theory(self):
        assert classical_models((), {"p"}) == [frozenset(), mset("p")]

    def test_contradiction(self):
        assert classical_models((BOT,), {"p", "q"}) == []

    def test_cap_error_names_cap_and_count(self):
        t = parse_theory(". ".join(f"a{i}" for i in range(25)))
        with pytest.raises(CapExceededError) as info:
            classical_models(t)
        assert "25" in str(info.value)
        assert "20" in str(info.value)

    def test_universe_must_cover_atoms(self, p1):
        with pytest.raises(ValueError):
            classical_models(p1, {"p"})
        # The cap is checked on a given universe first.
        with pytest.raises(CapExceededError, match="21 atoms"):
            classical_models(p1, {f"x{k}" for k in range(21)})


class TestStable:
    def test_p1(self, p1):
        assert is_stable(frozenset(), p1)
        assert not is_stable(mset("p", "q"), p1)
        assert stable_models(p1) == [frozenset()]

    def test_p2(self, p2):
        assert is_stable(mset("p", "q"), p2)
        assert stable_models(p2) == [frozenset(), mset("p", "q")]

    def test_empty_theory(self):
        assert stable_models(()) == [frozenset()]

    def test_fact(self):
        assert stable_models(parse_theory("p.")) == [mset("p")]

    def test_free_choice_14_atoms_all_subsets_in_order(self):
        names = [f"a{k}" for k in range(14)]
        t = parse_theory(" ".join(f"{a} | not {a}." for a in names))
        assert stable_models(t) == list(interpretations_of(names))


class TestSupported:
    def test_p1(self, p1):
        assert is_supported(mset("p", "q"), p1)
        assert is_supported(frozenset(), p1)
        # No rule with head q has a satisfied body under {q}.
        assert not is_supported(mset("q"), p1)
        assert supported_models(p1) == [frozenset(), mset("p", "q")]

    def test_p2(self, p2):
        assert supported_models(p2) == [frozenset(), mset("p", "q")]

    def test_fact_is_supported(self):
        assert supported_models(parse_theory("p.")) == [mset("p")]

    def test_rejects_non_nondisjunctive(self):
        with pytest.raises(NotNondisjunctiveError) as info:
            is_supported(frozenset(), parse_theory("p | q"))
        assert "p | q" in str(info.value)

    def test_support_formulas_come_from_completion(self, p1, monkeypatch):
        # From the completion read off the ops of p1's one compile and
        # the ops of its two members.
        calls = count_calls(monkeypatch, semantics, "_completion")
        assert supported_models(p1) == [frozenset(), mset("p", "q")]
        ops = _compile(p1)[0]
        assert calls == [(ops, [2, len(ops) - 2])]

    def test_makes_no_stability_pass(self, p2, monkeypatch):
        def no_pass(*args):
            raise AssertionError("stability pass made")

        monkeypatch.setattr(semantics, "_per_model", no_pass)
        monkeypatch.setattr(semantics, "_by_loops", no_pass)
        assert supported_models(p2) == [frozenset(), mset("p", "q")]


class TestAnalyze:
    def test_one_classical_pass_for_a_nondisjunctive_theory(
        self, p1, classical_passes
    ):
        report = analyze(p1)
        assert len(classical_passes) == 1
        assert report.supported == [frozenset(), mset("p", "q")]
        assert report.stable == [frozenset()]
        assert report.completion_theory == completion(p1)

    def test_disjunctive_theory_has_no_supported_list(self, classical_passes):
        report = analyze(parse_theory("p | q. q -> p."))
        assert len(classical_passes) == 1
        assert report.supported is None
        assert report.completion_theory is None
        assert report.stable == [mset("p")]

    def test_empty_theory(self):
        report = analyze(())
        assert report.universe == frozenset()
        assert report.supported == report.stable == [frozenset()]

    def test_lists_share_their_models(self):
        # Whichever list is read first, each is built through the pass's
        # one memo: a model of any class is the equal classical model.
        report = analyze(parse_theory("not q -> p. not p -> q."))
        stable = report.stable
        classical = {i: i for i in report.classical}
        assert len(classical) == 3
        for models in stable, report.supported, report.pointwise_stable:
            assert models == [mset("p"), mset("q")]
            assert all(m is classical[m] for m in models)

    def test_equality_and_repr_ignore_the_memo(self, p1):
        # Reading a list fills the pass's memo of one report only.
        read, unread = analyze(p1), analyze(p1)
        assert read.classical and read.supported
        assert read == unread
        assert repr(read) == repr(unread)
        # Equal points over other atoms are another answer.
        a, b = (analyze(parse_theory(f"{x} | not {x}.")) for x in "ab")
        assert a._classical == b._classical
        assert a != b

    def test_free_choice_classes_are_the_classical_list(self):
        # Every candidate is stable, so both tables cover the candidates
        # and their points are the candidates' list itself.
        t = "a | not a. b | not b. c | not c."
        report = semantics._analysis(*theory_ops(t))
        assert len(report._classical) == 8
        assert report._stable is report._classical
        assert report._pointwise is report._classical


class TestPointwiseStable:
    def test_biconditional(self):
        t = parse_theory("p <-> q")
        assert is_pointwise_stable(mset("p", "q"), t)
        assert not is_stable(mset("p", "q"), t)
        assert pointwise_stable_models(t) == [frozenset(), mset("p", "q")]

    def test_p2_pointwise_equals_stable(self, p2):
        assert pointwise_stable_models(p2) == stable_models(p2)

    def test_empty_theory(self):
        assert pointwise_stable_models(()) == [frozenset()]

    def test_every_stable_model_is_pointwise_stable(self, p1, p2):
        for t in (p1, p2):
            for i in interpretations_of(theory_atoms(t)):
                if is_stable(i, t):
                    assert is_pointwise_stable(i, t)


class TestCompletion:
    def test_p1_shape(self, p1):
        comp = completion(p1)
        texts = [print_formula(f) for f in comp]
        assert texts == [
            "(p -> q & not r) & (q & not r -> p)",
            "(q -> p) & (p -> q)",
            "not r & (bot -> r)",
        ]

    def test_models_equal_supported(self, p1, p2):
        for t in (p1, p2):
            assert classical_models(
                completion(t), theory_atoms(t)
            ) == supported_models(t)

    def test_empty_theory(self):
        assert completion(()) == ()

    def test_rejects_non_nondisjunctive(self):
        with pytest.raises(NotNondisjunctiveError):
            completion(parse_theory("p | q"))


def ring(k):
    """Each atom derived from the next two: one pnn component of k atoms."""
    return parse_theory(
        ". ".join(f"a{(i + 1) % k} & a{(i + 2) % k} -> a{i}" for i in range(k))
        + "."
    )


class TestSweepPaths:
    def test_sp_loops_accept_the_paper_counterexample(self):
        # {p, q} is a classical model of (p3) but not stable.  The sp
        # graph misses the loop {p, q}, so the loop-indexed table built
        # from sp loops accepts it; the pnn loops reject it.
        t = (parse_formula(P3_TEXT),)
        by_sp = sweep_paths(t, GraphKind.SP)["loop-indexed"]
        by_pnn = sweep_paths(t, GraphKind.PNN)["loop-indexed"]
        assert mset("p", "q") in by_sp[0]
        assert by_sp[1] == [mset(), mset("p", "q")]
        assert by_pnn[1] == [mset()] == stable_models(t)

    def test_loops_that_do_not_pay_take_per_model_path(self, monkeypatch):
        t = ring(17)
        with pytest.raises(CapExceededError, match="loop enumeration"):
            strongly_connected_subsets(g_pnn(t))
        c = _classical_pass(*_compile(t))
        # Enough classical models to build the graph: n = 17 singleton
        # passes over 2**17 points would cost less than 3572 small ones.
        # The ring's 3588 loops would not, so the search gives up once it
        # has found more loops than the limit that still pays.
        assert len(c.build(c.keys)) == 3572
        limits, passes = [], []
        loops, reach = semantics._loops, depgraph._reach

        def budgeted(succ, components, limit):
            limits.append(limit)
            return loops(succ, components, limit)

        def counted(adjacency, start, allowed):
            passes.append(start)
            return reach(adjacency, start, allowed)

        monkeypatch.setattr(semantics, "_loops", budgeted)
        monkeypatch.setattr(depgraph, "_reach", counted)
        assert _loops_that_pay(c, _per_model_price(c)) is None
        [limit] = limits
        assert 17 < limit < 3588
        # At most 2k passes per loop found, up to the first loop over the
        # limit, against 10457 passes for all 3588 loops.
        assert 0 < len(passes) <= 2 * 17 * (limit + 1)
        assert stable_models(t) == [mset()]

    def test_sparse_ring_over_many_models_takes_loop_path(self):
        # A ring of 12 atoms, each also a choice, with c in every head:
        # 4098 classical models and 14 loops (the ring and 13
        # singletons), far fewer than the ring's 2**12 - 1 vertex sets.
        rules = [f"a{(i + 1) % 12} -> a{i} | c" for i in range(12)]
        rules += [f"not not a{i} -> a{i}" for i in range(12)]
        t = parse_theory(". ".join(rules) + ".")
        c = _classical_pass(*_compile(t))
        assert len(c.build(c.keys)) == 4098
        loops = _loops_that_pay(c, _per_model_price(c))
        assert loops == masks(strongly_connected_subsets(g_pnn(t)), c.names)
        assert len(loops) == 14
        assert _by_loops(c, loops) == _per_model(c)

    @pytest.mark.parametrize("split", [False, True], ids=["theory", "split"])
    def test_loop_path_tables_do_not_depend_on_loop_order(self, split):
        # {a, b} is refuted by the loop {a, b} and by each singleton, so a
        # singleton must still refute it as pointwise stable after the
        # loop {a, b} has refuted it as stable.
        f, g = parse_formula("b & c -> a"), parse_formula("a & c -> b")
        ops, universe = _compile((And(f, g),))
        _, f_op, g_op = ops[-1]
        parts = ((f_op, mset("b", "c")), (g_op, mset("a"))) if split else ()
        c = _classical_pass(ops, universe, parts=parts)
        loops = strongly_connected_subsets(g_pnn((f, g)))
        assert mset("a", "b") in loops
        tables = _per_model(c)
        assert mset("a", "b") not in c.build(c.points(tables[1]))
        for order in itertools.permutations(masks(loops, c.names)):
            assert _by_loops(c, list(order)) == tables

    def test_loop_path_taken_when_loops_pay(self):
        t = parse_theory(". ".join(f"a{i} | not a{i}" for i in range(8)) + ".")
        c = _classical_pass(*_compile(t))
        loops = _loops_that_pay(c, _per_model_price(c))
        assert loops == masks([mset(f"a{i}") for i in range(8)], c.names)

    def test_small_theory_skips_the_graph(self, p2, monkeypatch):
        def no_graph(ops, kind, names):
            raise AssertionError("graph built")

        monkeypatch.setattr(semantics, "_graph", no_graph)
        c = _classical_pass(*_compile(p2))
        assert _loops_that_pay(c, _per_model_price(c)) is None


def dense_ring(k):
    """Choices on a ring of k atoms, each derived from the next two unless
    c holds: one pnn component of k atoms, and c."""
    rules = [f"a{i} | not a{i}" for i in range(k)]
    rules += [f"a{(i + 1) % k} & a{(i + 2) % k} & not c -> a{i}" for i in range(k)]
    return parse_theory(". ".join(rules) + ". c | not c.")


class TestFixpointPath:
    @pytest.mark.parametrize(
        "text",
        ["a1 | a0. a0 -> a1. a1 -> a0 | a0.",
         "(c -> d) -> a. c | not c. d | not d.",
         "((q -> p) -> p) -> p."],
        ids=["not-head-cycle-free", "body-implication", "paper"],
    )
    def test_theories_outside_the_class_stay_off_the_path(self, monkeypatch, text):
        t = parse_theory(text)
        assert fixpoint_rules(_classical_pass(*_compile(t))) is None
        fixpoints = count_calls(monkeypatch, semantics, "_by_fixpoint")
        report = analyze(t)
        assert not fixpoints
        points = list(interpretations_of(theory_atoms(t)))
        assert report.stable == [i for i in points if is_stable(i, t)]
        assert report.pointwise_stable == [
            i for i in points if is_pointwise_stable(i, t)
        ]

    def test_head_cycle_freedom_is_needed(self):
        # a0 and a1 share a head and a pnn cycle.  {a0, a1} is stable,
        # but forced, the fixpoint derives neither: by shifting, each
        # needs the other false in T.
        t = parse_theory("a1 | a0. a0 -> a1. a1 -> a0 | a0.")
        c = _classical_pass(*_compile(t))
        rules = _fixpoint_rules(c)
        assert rules is not None and rules.heads
        assert stable_models(t) == [mset("a0", "a1")]
        assert _by_fixpoint(c, rules)[0] == 0

    def test_here_tables_stay_inside_there(self, monkeypatch):
        # Where b is false in T, ``not b -> a`` derives a, from which b,
        # c, d and e would follow, one step each.  Inside T nothing does:
        # b is false there, and where b is true a is not derived.  So
        # the first step changes nothing.
        t = parse_theory("not b -> a. a -> b. b -> c. c -> d. d -> e.")
        c = _classical_pass(*_compile(t))
        evaluations = count_calls(monkeypatch, semantics, "_evaluate")
        assert _by_fixpoint(c, _fixpoint_rules(c)) == (0, 0)
        assert len(evaluations) == 1

    def test_free_choice_evaluates_no_body(self, monkeypatch):
        t = parse_theory(". ".join(f"a{i} | not a{i}" for i in range(8)) + ".")
        c = _classical_pass(*_compile(t))
        fixpoints = count_calls(monkeypatch, semantics, "_by_fixpoint")
        evaluations = count_calls(monkeypatch, semantics, "_evaluate")
        graphs = count_calls(monkeypatch, depgraph, "_graph")
        stable, pointwise = _sweep(c)
        assert len(fixpoints) == 1 and not evaluations
        # The graph, for the pointwise table: no loop of two atoms.
        assert len(graphs) == 1
        assert stable == pointwise == c.candidates == (1 << 256) - 1

    def test_acyclic_pointwise_table_is_the_stable_table(self, monkeypatch):
        t = parse_theory("a | not a. not a -> b. b & not a -> c. c -> d | e.")
        loop_passes = count_calls(monkeypatch, semantics, "_by_loops")
        fixpoints = count_calls(monkeypatch, semantics, "_by_fixpoint")
        report = analyze(t)
        assert len(fixpoints) == 1 and not loop_passes
        assert report.stable == report.pointwise_stable == stable_models(t)
        assert report.stable == [mset("a"), mset("b", "c", "d"), mset("b", "c", "e")]

    def test_dense_ring_takes_the_fixpoint_path(self, monkeypatch):
        # Many classical models and many loops; the pointwise table
        # comes from the singleton passes, as the ring is one component.
        c = _classical_pass(*_compile(dense_ring(8)))
        tables = _per_model(c)
        fixpoints = count_calls(monkeypatch, semantics, "_by_fixpoint")
        loop_passes = count_calls(monkeypatch, semantics, "_by_loops")
        assert _sweep(c) == tables
        assert len(fixpoints) == 1
        [(_, singletons)] = loop_passes
        assert singletons == [1 << j for j in range(9)]


@st.composite
def truth_tables(draw):
    """An atom count n of at most 8 and a table of 2**n bits."""
    n = draw(st.integers(0, 8))
    return draw(st.integers(0, (1 << (1 << n)) - 1)), n


@st.composite
def sized_tables(draw):
    """An atom count n of at most 8 and a table of a chosen number of its
    2**n points: none, a few, a count on either side of the sparse
    threshold (``semantics._SPARSE``), nearly all, or all."""
    n = draw(st.integers(0, 8))
    size = 1 << n
    # The least count that ``_set_bits`` lists by selection.
    dense = -(-size // semantics._SPARSE)
    counts = {0, 1, 2, 3, dense - 1, dense, size - 2, size - 1, size}
    count = draw(st.sampled_from(sorted(c for c in counts if 0 <= c <= size)))
    points = draw(st.permutations(range(size)))[:count]
    return sum(1 << k for k in points), n


def definitional_points(table, n):
    """The points of ``table`` in ``interpretations_of`` order.  Point k
    holds names[j] when bit j of k is set, with the names in descending
    order as ``_classical_pass`` lays them out."""
    names = sorted((f"a{j}" for j in range(n)), reverse=True)
    masks = [sum(1 << names.index(a) for a in i) for i in interpretations_of(names)]
    return [k for k in masks if table >> k & 1]


class TestPoints:
    # Uniform tables of four or more atoms are almost all dense; sized
    # ones reach the scan and the selection on either side of the switch.
    # Twice the default examples, so uniform tables keep about as many.
    @settings(max_examples=200)
    @given(st.one_of(truth_tables(), sized_tables()))
    def test_set_bits_in_interpretations_of_order(self, table_and_n):
        table, n = table_and_n
        assert semantics._set_bits(table, n) == definitional_points(table, n)

    @pytest.mark.parametrize(
        "table, n, points",
        [(0, 0, []), (1, 0, [0]), (0, 1, []), (1, 1, [0]), (2, 1, [1]), (3, 1, [0, 1])],
    )
    def test_set_bits_of_no_atom_and_one(self, table, n, points):
        assert semantics._set_bits(table, n) == points

    @pytest.mark.parametrize("n", range(11))
    def test_point_order_is_interpretations_of_order(self, n):
        order, read = semantics._point_order(n)
        assert order == definitional_points((1 << (1 << n)) - 1, n)
        # The getter reads a sequence at the order's points, in its order.
        assert list(read(list(range(1 << n)))) == order

    @given(truth_tables())
    def test_layers_count_the_points_of_each_size(self, table_and_n):
        # The path choice prices the candidates from these counts.
        table, n = table_and_n
        sizes = [k.bit_count() for k in semantics._set_bits(table, n)]
        counts = [(table & layer).bit_count() for layer in semantics._layers(n)]
        assert counts == [sizes.count(w) for w in range(n + 1)]


class TestPassMemo:
    """``_Classical.points`` lists each distinct table of candidates once."""

    def test_nothing_is_listed_before_it_is_read(self):
        c = _classical_pass(*_compile(parse_theory("a | not a.")))
        assert c.lists == {} and c.built == {}
        assert c.build(c.keys) == [frozenset(), mset("a")]
        assert list(c.lists) == [c.candidates]

    def test_equal_tables_give_one_list(self):
        c = _classical_pass(*_compile(parse_theory("a. b | not b.")))
        b = c.atom_tables["b"]
        # Tables equal on the candidates are equal tables.
        assert c.points(b) is c.points(b | ~c.candidates) == [3]
        assert c.keys is c.points(c.candidates) is c.points(-1)
        assert c.points(0) == []

    def test_bits_outside_the_candidates_are_never_listed(self, monkeypatch):
        listed = count_calls(monkeypatch, semantics, "_set_bits")
        c = _classical_pass(*_compile(parse_theory("a. b | not b.")))
        assert c.points(~c.candidates) == []
        assert c.keys == [2, 3]
        assert all(table & ~c.candidates == 0 for table, _ in listed)
        assert len(listed) == 2


class TestCompile:
    def test_shared_subtrees_compile_once(self):
        # The loop formula puts one ``not NES`` object under both atoms.
        lf = loop_formula(parse_formula(P3_TEXT), {"p", "q"})
        distinct, stack = set(), [lf]
        while stack:
            g = stack.pop()
            if id(g) not in distinct:
                distinct.add(id(g))
                stack += (getattr(g, n) for n in g.__slots__ if n != "name")
        c = _classical_pass(*_compile((lf,)), {"p", "q"})
        assert len(c.ops) <= len(distinct)
        for i in interpretations_of({"p", "q"}):
            k = sum(1 << j for j, a in enumerate(c.names) if a in i)
            assert (c.vals[-1] >> k & 1) == satisfies(i, lf)


class TestTopOfCap:
    def test_sparse_ring_of_twenty_atoms(self):
        # The ring forces all atoms equal; every third atom is a choice.
        names = [f"a{i}" for i in range(20)]
        rules = [f"{names[(i + 1) % 20]} -> {a}" for i, a in enumerate(names)]
        rules += [f"{a} | not {a}" for a in names[::3]]
        report = analyze(parse_theory(". ".join(rules) + "."))
        both = [frozenset(), frozenset(names)]
        assert report.classical == report.stable == both
        assert report.pointwise_stable == both

    def test_normal_ring_of_seventeen_atoms(self):
        # Without c the ring forces its 16 atoms, each a choice, equal.
        names = [f"a{i}" for i in range(16)]
        rules = [
            f"{names[(i + 1) % 16]} & not c -> {a}" for i, a in enumerate(names)
        ]
        rules += [f"not not {a} -> {a}" for a in names]
        t = parse_theory(". ".join(rules) + ".")
        assert len(classical_models(t)) == 2**16 + 2
        both = [frozenset(), frozenset(names)]
        report = analyze(t)
        assert (report.stable, report.pointwise_stable) == (both, both)

    def test_free_choice_on_sixteen_atoms(self):
        names = [f"a{i}" for i in range(16)]
        t = parse_theory(". ".join(f"{a} | not {a}" for a in names) + ".")
        assert classical_models(t) == list(interpretations_of(names))
