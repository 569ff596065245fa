import time

import pytest

import stablemodels.depgraph as depgraph
from stablemodels import (
    CapExceededError,
    DepGraph,
    GraphKind,
    g_pnn,
    g_sp,
    graph_of,
    has_cycle,
    interpretations_of,
    parse_formula,
    sccs,
    strongly_connected_subsets,
    subgraph_of,
    to_dot,
)
from conftest import dependency_graph_scan, mset, run_cli


class TestConstruction:
    def test_p1_sp(self, p1):
        assert g_sp(p1).edges == {("q", "p"), ("p", "q")}

    def test_nested_sp_and_pnn(self, nested):
        assert g_sp((nested,)).edges == {("s", "r")}
        assert g_pnn((nested,)).edges == {("s", "r"), ("s", "p")}

    def test_p2(self, p2):
        assert g_sp(p2).edges == {("q", "p"), ("p", "r")}
        assert g_pnn(p2).edges == {("q", "p"), ("p", "r"), ("p", "q")}

    def test_p3(self, p3):
        assert g_sp((p3,)).edges == {("q", "p"), ("p", "p")}
        assert g_pnn((p3,)).edges == {("q", "p"), ("p", "p"), ("p", "q")}

    @pytest.mark.parametrize(
        "text, sp, pnn",
        [
            # A rule inside a head: r is in the heads of both rules.
            ("p -> (q -> r)", {("r", "p"), ("r", "q")},
             {("r", "p"), ("r", "q")}),
            # q is positive and nonnegated in the body, not strictly
            # positive.
            ("((q -> p) -> p) -> p", {("p", "p")}, {("p", "p"), ("p", "q")}),
            # q is positive in the body but under a negation.
            ("not not q & r -> p", {("p", "r")}, {("p", "r")}),
        ],
        ids=["rule-in-head", "positive-body", "negated-antecedent"],
    )
    def test_fixed_cases_match_rule_scan(self, text, sp, pnn):
        t = (parse_formula(text),)
        assert g_sp(t).edges == sp
        assert g_pnn(t).edges == pnn
        assert g_sp(t) == dependency_graph_scan(t, GraphKind.SP)
        assert g_pnn(t) == dependency_graph_scan(t, GraphKind.PNN)

    def test_vertices_are_all_atoms(self, p1):
        assert g_sp(p1).vertices == {"p", "q", "r"}

    def test_duplicate_members_do_not_change_graph(self, p1):
        assert g_sp(p1 + p1) == g_sp(p1)

    def test_graph_of_selector(self, p2):
        assert graph_of(p2, GraphKind.SP) == g_sp(p2)
        assert graph_of(p2, GraphKind.PNN) == g_pnn(p2)


class TestCycles:
    def test_p2_sp_acyclic(self, p2):
        assert not has_cycle(g_sp(p2))

    def test_p2_pnn_cyclic(self, p2):
        assert has_cycle(g_pnn(p2))

    def test_self_loop_counts(self, p3):
        assert has_cycle(g_sp((p3,)))

    def test_p1_cyclic(self, p1):
        assert has_cycle(g_sp(p1))


class TestSccs:
    def test_p3_pnn_single_component(self, p3):
        assert sccs(g_pnn((p3,))) == [mset("p", "q")]

    def test_acyclic_gives_singletons(self, p2):
        assert sccs(g_sp(p2)) == [mset("p"), mset("q"), mset("r")]

    def test_edgeless(self):
        g = DepGraph(frozenset({"a", "b"}), frozenset())
        assert sccs(g) == [mset("a"), mset("b")]

    @pytest.mark.parametrize("fn", [sccs, has_cycle, strongly_connected_subsets])
    def test_edge_endpoints_must_be_vertices(self, fn):
        g = DepGraph(frozenset({"a"}), frozenset({("a", "b"), ("c", "a")}))
        with pytest.raises(ValueError, match=r"\['b', 'c'\]"):
            fn(g)


class TestStronglyConnectedSubsets:
    def test_p3_sp(self, p3):
        assert strongly_connected_subsets(g_sp((p3,))) == [
            mset("p"),
            mset("q"),
        ]

    def test_p3_pnn(self, p3):
        assert strongly_connected_subsets(g_pnn((p3,))) == [
            mset("p"),
            mset("q"),
            mset("p", "q"),
        ]

    def test_singleton_without_self_loop(self):
        g = DepGraph(frozenset({"a"}), frozenset())
        assert strongly_connected_subsets(g) == [mset("a")]

    def test_cap(self):
        names = [f"a{i}" for i in range(17)]
        cycle = {(names[i], names[(i + 1) % 17]) for i in range(17)}
        g = DepGraph(frozenset(names), frozenset(cycle))
        with pytest.raises(CapExceededError):
            strongly_connected_subsets(g)

    def test_cap_applies_per_component(self):
        names = frozenset(f"a{i}" for i in range(18))
        g = DepGraph(names, frozenset())
        assert strongly_connected_subsets(g) == [
            mset(v) for v in sorted(names)
        ]

    def test_large_subsets_live_inside_one_scc(self, p2):
        g = g_pnn(p2)
        components = sccs(g)
        for ys in strongly_connected_subsets(g):
            if len(ys) >= 2:
                assert any(ys <= c for c in components)


def ring(n, both_ways=False):
    names = [f"v{i:02d}" for i in range(n)]
    edges = {(names[i], names[(i + 1) % n]) for i in range(n)}
    if both_ways:
        edges |= {(b, a) for (a, b) in edges}
    return DepGraph(frozenset(names), frozenset(edges))


class TestSearchWork:
    """The loop search does work in proportion to the loops it finds, not
    to the 2**k vertex sets of a k-vertex component."""

    @pytest.mark.parametrize("both_ways, loops", [(False, 17), (True, 241)])
    def test_ring_passes_grow_with_loops(self, monkeypatch, both_ways, loops):
        passes = []
        reach = depgraph._reach

        def counted(adjacency, start, allowed):
            passes.append(start)
            return reach(adjacency, start, allowed)

        monkeypatch.setattr(depgraph, "_reach", counted)
        assert len(strongly_connected_subsets(ring(16, both_ways))) == loops
        # At most two passes per search node and at most k nodes per loop,
        # against 2 * (2**16 - 1) for a test of every vertex mask.
        assert 0 < len(passes) <= 2 * 16 * loops

    def test_complete_digraph_gives_every_subset(self):
        # The top of the cap: one 16-vertex component, every vertex set a
        # loop.
        names = [f"v{i:02d}" for i in range(16)]
        g = DepGraph(
            frozenset(names),
            frozenset((a, b) for a in names for b in names if a != b),
        )
        expected = list(interpretations_of(names))[1:]
        assert len(expected) == 65535
        assert strongly_connected_subsets(g) == expected

    def test_long_acyclic_chain_takes_linear_time(self):
        # (x1 -> x0) & ... & (x3000 -> x2999): 3001 singleton components
        # on a path, so one reachability pass per vertex would walk the
        # chain 3001 times.  ``loops`` is left out: it would print 347 MB.
        text = " & ".join(f"(x{k + 1} -> x{k})" for k in range(3000))
        start = time.perf_counter()
        code, out = run_cli(["tight"], text)
        assert code == 0
        assert out.startswith("graph pnn: acyclic\n")
        code, out = run_cli(["graph", "--format", "edges"], text)
        assert code == 0
        assert len(out.splitlines()) == 3000
        names = sorted(f"x{k}" for k in range(3001))
        g = g_pnn((parse_formula(text),))
        assert strongly_connected_subsets(g) == [mset(v) for v in names]
        # About 0.2 s on a 2-core x86-64 VM; one reachability pass per
        # vertex took about 13 s there.
        assert time.perf_counter() - start < 1.5


class TestSubgraph:
    def test_sp_subgraph_of_pnn(self, p1, p2, p3):
        for t in (p1, p2, (p3,)):
            assert subgraph_of(g_sp(t), g_pnn(t))

    def test_reflexive(self, p2):
        assert subgraph_of(g_sp(p2), g_sp(p2))

    def test_pnn_not_subgraph_of_sp(self, p3):
        assert not subgraph_of(g_pnn((p3,)), g_sp((p3,)))


class TestDot:
    def test_empty(self):
        assert to_dot(DepGraph(frozenset(), frozenset())) == "digraph G {\n}\n"

    def test_p1_edges_present(self, p1):
        text = to_dot(g_sp(p1), label="sp")
        assert "  q -> p;" in text
        assert "  p -> q;" in text
        assert 'label="sp";' in text

    def test_label_escapes_backslashes_and_quotes(self):
        text = to_dot(DepGraph(frozenset(), frozenset()), label='say "hi" \\n')
        assert text == 'digraph G {\n  label="say \\"hi\\" \\\\n";\n}\n'

    def test_keyword_atoms_are_quoted(self):
        # DOT keywords, in any letter case, are IDs only when quoted.
        f = parse_formula("node & sTrict & nodes -> edge")
        assert to_dot(g_sp((f,))) == (
            "digraph G {\n"
            '  "edge";\n'
            '  "node";\n'
            "  nodes;\n"
            '  "sTrict";\n'
            '  "edge" -> "node";\n'
            '  "edge" -> nodes;\n'
            '  "edge" -> "sTrict";\n'
            "}\n"
        )

    def test_other_atoms_are_quoted_and_escaped(self):
        # An atom from the API need not be a DOT name: only
        # [A-Za-z_][A-Za-z0-9_]* is bare, and a quoted ID escapes \ and ".
        g = DepGraph(frozenset({'a"b', "1x"}), frozenset({('a"b', "1x")}))
        assert to_dot(g) == (
            'digraph G {\n  "1x";\n  "a\\"b";\n  "a\\"b" -> "1x";\n}\n'
        )
        g = DepGraph(frozenset({"a\\b", "_x1", "é"}), frozenset())
        assert to_dot(g) == 'digraph G {\n  _x1;\n  "a\\\\b";\n  "é";\n}\n'

    def test_round_trip_of_edges(self, p2):
        g = g_pnn(p2)
        text = to_dot(g)
        edges = set()
        for line in text.splitlines():
            line = line.strip().rstrip(";")
            if "->" in line:
                a, _, b = line.partition(" -> ")
                edges.add((a, b))
        assert edges == set(g.edges)
