import pytest

import stablemodels.depgraph as depgraph
import stablemodels.semantics as semantics
from stablemodels import (
    GraphKind,
    NotAPartitionError,
    check_split,
    choice_augment,
    parse_formula,
    stable_models,
)
from conftest import count_calls, mset, run_cli

SP, PNN = GraphKind.SP, GraphKind.PNN


class TestChoiceAugment:
    def test_single_choice(self):
        f = parse_formula("p -> q")
        assert choice_augment(f, {"p"}) == parse_formula(
            "(p -> q) & (p | not p)"
        )

    def test_empty_is_identity(self):
        f = parse_formula("p -> q")
        assert choice_augment(f, set()) is f

    def test_choice_makes_atom_free(self):
        # Brute force: a choice atom may be in or out of a stable model.
        f = choice_augment(parse_formula("bot -> bot"), {"p"})
        assert stable_models((f,)) == [frozenset(), mset("p")]

    def test_choices_in_atom_order(self):
        f = parse_formula("q")
        assert choice_augment(f, {"b", "a"}) == parse_formula(
            "q & (a | not a) & (b | not b)"
        )


F3 = "p -> q"
G3 = "((q -> p) -> p) -> p"


class TestCheckSplit:
    def test_counterexample_under_sp(self):
        # Conditions pass, but {p, q} is stable for both parts and not
        # for the whole conjunction.
        report = check_split(
            parse_formula(F3), parse_formula(G3), {"q"}, {"p"}, GraphKind.SP
        )
        assert report.conditions_pass
        assert not report.equivalence_holds
        assert report.stable_whole == [frozenset()]
        assert mset("p", "q") in report.stable_part_f
        assert mset("p", "q") in report.stable_part_g

    def test_counterexample_under_pnn_fails_cond_iii(self):
        report = check_split(
            parse_formula(F3), parse_formula(G3), {"q"}, {"p"}, GraphKind.PNN
        )
        assert report.cond_i and report.cond_ii
        assert not report.cond_iii
        assert report.cond_iii_offender == mset("p", "q")

    def test_sound_split(self):
        # Brute-force enumeration of the whole and both augmented parts.
        report = check_split(
            parse_formula("p"),
            parse_formula("p -> q"),
            {"p"},
            {"q"},
            GraphKind.PNN,
        )
        assert report.conditions_pass
        assert report.equivalence_holds
        assert report.stable_whole == [mset("p", "q")]

    def test_symmetry(self):
        f, g = parse_formula("p"), parse_formula("p -> q")
        a = check_split(f, g, {"p"}, {"q"}, GraphKind.PNN)
        b = check_split(g, f, {"q"}, {"p"}, GraphKind.PNN)
        assert a.cond_i == b.cond_ii
        assert a.cond_ii == b.cond_i
        assert a.cond_iii == b.cond_iii
        assert a.equivalence_holds == b.equivalence_holds
        assert a.stable_whole == b.stable_whole

    def test_condition_offenders_reported(self):
        report = check_split(
            parse_formula("p"), parse_formula("q"), {"q"}, {"p"}, GraphKind.PNN
        )
        assert not report.cond_i
        assert report.cond_i_offenders == mset("p")
        assert not report.cond_ii
        assert report.cond_ii_offenders == mset("q")
        # q occurs in F positively and nonnegated, but not strictly
        # positively, so it does not offend against condition (i).
        report = check_split(
            parse_formula("(q -> r) -> p"),
            parse_formula("q <-> r"),
            {"p"},
            {"q", "r"},
            GraphKind.PNN,
        )
        assert report.cond_i and report.cond_ii

    def test_rejects_non_partition(self):
        with pytest.raises(NotAPartitionError):
            check_split(
                parse_formula("p"),
                parse_formula("q"),
                {"p", "q"},
                {"q"},
                GraphKind.PNN,
            )
        with pytest.raises(NotAPartitionError):
            check_split(
                parse_formula("p"),
                parse_formula("q"),
                {"p"},
                set(),
                GraphKind.PNN,
            )


# Choices on a0..a4 in F and on b0..b4 in G, and a rule in each:
# 2**10 points, most of them classical models of F or of G, and only the
# 10 singleton pnn loops.  Every piece is a rule or a choice, so the
# sweep takes the fixpoint path.  The conditions pass under both graphs.
WIDE_F = " & ".join(
    [f"(a{i} | not a{i})" for i in range(5)] + ["(b0 & not b1 -> a0)"]
)
WIDE_G = " & ".join(
    [f"(b{i} | not b{i})" for i in range(5)] + ["(b2 & not a1 -> b1)"]
)
WIDE_P = ",".join(f"a{i}" for i in range(5))


WIDE_Q = ",".join(f"b{i}" for i in range(5))

# The same split with an implication in F's rule's body: outside the
# fixpoint path's class, so the sweep takes the loop path.
NESTED_F = WIDE_F.replace("(b0 & not b1 -> a0)", "((b1 -> b0) & not b1 -> a0)")


class TestSplitWork:
    @pytest.mark.parametrize(
        ("f", "g", "p", "q", "path"),
        [(F3, G3, "q", "p", "_per_model"),
         (NESTED_F, WIDE_G, WIDE_P, WIDE_Q, "_by_loops"),
         (WIDE_F, WIDE_G, WIDE_P, WIDE_Q, "_by_fixpoint")],
        ids=["per-model", "loop-indexed", "fixpoint"],
    )
    def test_one_compile_one_pass_one_sweep(
        self, monkeypatch, compiles, classical_passes, f, g, p, q, path
    ):
        sweeps = count_calls(monkeypatch, semantics, path)
        f, g = parse_formula(f), parse_formula(g)
        check_split(f, g, p.split(","), q.split(","))
        assert len(compiles) == len(classical_passes) == len(sweeps) == 1

    def test_per_model_path_decides_the_empty_candidate_per_part(
        self, monkeypatch
    ):
        # The empty interpretation is a model of F's part only, and each
        # part is decided there on its own.  G's body implication keeps
        # the split off the fixpoint path.
        sweeps = count_calls(monkeypatch, semantics, "_per_model")
        f, g = parse_formula("p | not p"), parse_formula("(p -> p) -> q")
        report = check_split(f, g, {"p"})
        assert len(sweeps) == 1
        assert report.stable_part_f[0] == frozenset()
        assert report.stable_whole == stable_models((f, g))
        assert report.stable_part_f == stable_models((choice_augment(f, {"q"}),))
        assert report.stable_part_g == stable_models((choice_augment(g, {"p"}),))

    def test_fixpoint_path_decides_the_empty_candidate_per_part(
        self, monkeypatch
    ):
        # As above, with G a fact: the parts are free choices and a fact,
        # decided with no body to evaluate.
        sweeps = count_calls(monkeypatch, semantics, "_by_fixpoint")
        evaluations = count_calls(monkeypatch, semantics, "_evaluate")
        f, g = parse_formula("p | not p"), parse_formula("q")
        report = check_split(f, g, {"p"})
        assert len(sweeps) == 1
        assert len(evaluations) == 1  # the classical pass
        assert report.stable_part_f[0] == frozenset()
        assert report.stable_whole == stable_models((f, g))
        assert report.stable_part_f == stable_models((choice_augment(f, {"q"}),))
        assert report.stable_part_g == stable_models((choice_augment(g, {"p"}),))

    def test_lists_share_their_models(self):
        # The three lists are built through one memo: a part's model that
        # is stable for the whole is the whole's model itself.
        f, g = parse_formula(WIDE_F), parse_formula(WIDE_G)
        report = check_split(f, g, WIDE_P.split(","), WIDE_Q.split(","))
        whole = {i: i for i in report.stable_whole}
        parts = report.stable_part_f + report.stable_part_g
        shared = [m for m in parts if m in whole]
        assert len(shared) == 2 * len(whole) > 0
        assert all(m is whole[m] for m in shared)

    def test_equality_and_repr_ignore_the_memo(self):
        f, g = parse_formula(F3), parse_formula(G3)
        read, unread = (check_split(f, g, {"q"}, {"p"}) for _ in range(2))
        assert read.stable_whole and read.stable_part_f
        assert read == unread
        assert repr(read) == repr(unread)
        a, b = (
            check_split(parse_formula(f"{x} | not {x}"), parse_formula("c"), {x})
            for x in "ab"
        )
        assert a._whole == b._whole
        assert a != b

    def test_sweeps_before_it_returns(self, monkeypatch):
        # Only the models are built when a list is read: the forced paths
        # of ``split_sweep_paths`` are undone before it reads the lists.
        sweeps = count_calls(monkeypatch, semantics, "_sweep")
        f, g = parse_formula(F3), parse_formula(G3)
        report = check_split(f, g, {"q"}, {"p"})
        assert len(sweeps) == 1
        assert report.stable_whole == [frozenset()]
        assert len(sweeps) == 1

    @staticmethod
    def lists_only_the_answer(monkeypatch, f, path):
        # The path choice counts the candidates per size from their
        # table, so only the points that some list holds are listed.
        # A classical model of F where c is true and b0 false is stable
        # for neither part: some candidates lie outside the answer.
        listed = count_calls(monkeypatch, semantics, "_set_bits")
        sweeps = count_calls(monkeypatch, semantics, path)
        f = parse_formula(f + " & (c -> c)")
        g = parse_formula(WIDE_G + " & (c -> b0)")
        report = check_split(f, g, [*WIDE_P.split(","), "c"], WIDE_Q.split(","))
        assert len(sweeps) == 1
        lists = report._whole, report._part_f, report._part_g
        shown = sum({1 << k for keys in lists for k in keys})
        assert report._c.candidates & ~shown and listed
        assert all(table & ~shown == 0 for table, _ in listed)

    def test_loop_path_lists_only_the_answer(self, monkeypatch):
        self.lists_only_the_answer(monkeypatch, NESTED_F, "_by_loops")

    def test_fixpoint_path_lists_only_the_answer(self, monkeypatch):
        self.lists_only_the_answer(monkeypatch, WIDE_F, "_by_fixpoint")

    @pytest.mark.parametrize(
        ("f", "g", "p", "kind", "graphs"),
        [(WIDE_F, WIDE_G, WIDE_P, "pnn", [PNN]),
         (NESTED_F, WIDE_G, WIDE_P, "sp", [SP, PNN]),
         # The fixpoint path needs no pnn graph for heads of one atom,
         # nor the per-model path.
         (WIDE_F, WIDE_G, WIDE_P, "sp", [SP]),
         (F3, G3, "q", "sp", [SP])],
        ids=["pnn", "sp-loop-indexed", "sp-fixpoint", "sp-per-model"],
    )
    def test_graphs_built(self, monkeypatch, f, g, p, kind, graphs):
        builds = count_calls(monkeypatch, depgraph, "_graph")
        run_cli(["split", f, g, "--p", p, "--graph", kind])
        assert [graph_kind for _, graph_kind, _ in builds] == graphs
