import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import stablemodels.cli as cli
import stablemodels.semantics as semantics
from stablemodels import analyze, parse_theory
from stablemodels.cli import COMMANDS, build_parser, command_parser, main
from stablemodels.depgraph import GraphKind
from stablemodels.errors import StableModelsError
from conftest import count_calls

SRC = Path(__file__).resolve().parents[1] / "src"

P1 = "p -> q. q & not r -> p."
P2 = "p -> q. ((q -> r) -> r) -> p."
P3 = "(p -> q) & (((q -> p) -> p) -> p)"
# 24 operands: about 2**24 paths through the shared operands of "<->".
CHAIN = " <-> ".join(["p"] * 24)
CHAIN_Q = " <-> ".join(["q"] * 24)


def run(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def p1_file(tmp_path):
    path = tmp_path / "p1.th"
    path.write_text(P1 + "\n")
    return str(path)


class TestModels:
    def test_p1_text_output(self, capsys, p1_file):
        code, out, err = run(capsys, "models", p1_file)
        assert code == 0
        assert err == ""
        assert "stable: {}" in out
        assert "supported: {}, {p q}" in out

    def test_empty_input(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "models", stdin="", monkeypatch=monkeypatch)
        assert code == 0
        assert "stable: {}" in out

    def test_json_output(self, capsys, p1_file):
        code, out, _ = run(capsys, "models", p1_file, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["universe"] == ["p", "q", "r"]
        assert data["stable"] == [[]]
        assert data["supported"] == [[], ["p", "q"]]
        # {p, q} is pointwise stable for (p1): only the two-atom drop
        # to the empty set satisfies the reduct.
        assert data["pointwise_stable"] == [[], ["p", "q"]]

    def test_supported_omitted_for_disjunctive(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, "models", "--json", stdin="p | q", monkeypatch=monkeypatch
        )
        assert code == 0
        assert json.loads(out)["supported"] is None

    def test_parse_error_exit_1(self, capsys, monkeypatch):
        code, out, err = run(
            capsys, "models", stdin="p ->", monkeypatch=monkeypatch
        )
        assert code == 1
        assert out == ""
        assert "parse error" in err

    def test_cap_exceeded_exit_2(self, capsys, monkeypatch):
        theory = ". ".join(f"a{i}" for i in range(25))
        code, out, err = run(
            capsys, "models", stdin=theory, monkeypatch=monkeypatch
        )
        assert code == 2
        assert out == ""
        assert "cap" in err

    def test_long_conjunction_cap_exceeded_exit_2(self, capsys, monkeypatch):
        theory = " & ".join(f"a{i}" for i in range(5000))
        code, out, err = run(
            capsys, "models", stdin=theory, monkeypatch=monkeypatch
        )
        assert code == 2
        assert out == ""
        assert "5000 atoms exceeds the enumeration cap" in err


class TestUsage:
    def test_unknown_option_exit_1(self, capsys, monkeypatch):
        code, out, err = run(
            capsys, "models", "--bogus", stdin="p.", monkeypatch=monkeypatch
        )
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --bogus" in err

    def test_non_integer_count_exit_1(self, capsys):
        code, out, err = run(
            capsys, "fuzz", "--property", "chain", "--count", "x"
        )
        assert code == 1
        assert out == ""
        assert "--count" in err

    def test_negative_cap_exit_1(self, capsys, monkeypatch):
        code, out, err = run(
            capsys, "models", "--cap", "-3", stdin="p.", monkeypatch=monkeypatch
        )
        assert code == 1
        assert out == ""
        assert "--cap" in err
        assert "enumeration cap" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("fuzz", "--property=--"),
            ("models", "--cap=--"),
            ("nes", "--atoms=--"),
            ("loops", "-i=--"),
        ],
    )
    def test_option_given_a_double_dash_exit_1(self, capsys, monkeypatch, argv):
        # argparse (Python 3.11) reads "--opt=--" as an empty list, which
        # no command expects.
        code, out, err = run(capsys, *argv, stdin="p", monkeypatch=monkeypatch)
        assert code == 1
        assert out == ""
        assert "error" in err

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, capsys, flag):
        code, out, err = run(capsys, flag)
        assert code == 0
        assert out
        assert err == ""


class TestParsers:
    """A call uses only its command's parser, built once per process;
    everything else goes through the full tree, with the same help and
    usage text."""

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_command_help_matches_the_full_tree(self, name):
        sub = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ).choices[name]
        alone = command_parser(name)
        assert alone.format_help() == sub.format_help()
        assert alone.format_usage() == sub.format_usage()

    def test_top_level_help_lists_the_commands_in_order(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "{models,graph,tight,loops,nes,split,fuzz}" in out

    def test_a_command_builds_only_its_parser(
        self, capsys, monkeypatch, parsers_built
    ):
        code, out, _ = run(capsys, "models", stdin="p.", monkeypatch=monkeypatch)
        assert code == 0
        assert out.startswith("universe: p\n")
        assert len(parsers_built) == 1
        # A command's parser is built once per process and serves every
        # later call of that command.
        code, out, _ = run(capsys, "models", stdin="q.", monkeypatch=monkeypatch)
        assert code == 0
        assert out.startswith("universe: q\n")
        assert len(parsers_built) == 1
        code, _, _ = run(capsys, "loops", stdin="p -> p", monkeypatch=monkeypatch)
        assert code == 0
        assert len(parsers_built) == 2
        # Help outside a command still builds the full tree.
        run(capsys, "--help")
        assert len(parsers_built) == 2 + 1 + len(COMMANDS)

    def test_warm_parsers_print_help_at_the_current_width(
        self, capsys, monkeypatch
    ):
        monkeypatch.setenv("COLUMNS", "200")
        wide = {name: command_parser(name).format_help() for name in COMMANDS}
        monkeypatch.setenv("COLUMNS", "40")
        for name in COMMANDS:
            code, out, _ = run(capsys, name, "--help")
            assert code == 0
            # Built afresh, outside the cache, under the same width.
            assert out == command_parser.__wrapped__(name).format_help()
            assert out != wide[name]

    def test_warm_parsers_write_usage_errors_to_the_current_stderr(
        self, capsys
    ):
        assert run(capsys, "models", "--cap", "x")[0] == 1
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["models", "--cap", "x"]) == 1
        assert err.getvalue().startswith("usage: stablemodels models ")
        assert "argument --cap: expected a non-negative integer" in (
            err.getvalue()
        )
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", [("bogus",), ("--help",)])
    def test_other_calls_build_the_full_tree(self, capsys, parsers_built, argv):
        run(capsys, *argv)
        # The top-level parser and one subparser per command.
        assert len(parsers_built) == 1 + len(COMMANDS)

    @pytest.mark.parametrize(
        ("argv", "code"), [(("models",), 0), (("bogus",), 1)]
    )
    def test_module_entry_point(self, capsys, monkeypatch, argv, code):
        # ``python -m stablemodels`` reads sys.argv and exits with main's
        # code, and prints what an in-process call prints.
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-m", "stablemodels", *argv],
            input="p.",
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert done.returncode == code
        assert done.stdout == run(
            capsys, *argv, stdin="p.", monkeypatch=monkeypatch
        )[1]


class TestGraph:
    def test_edges_format(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            "graph",
            "--graph",
            "sp",
            "--format",
            "edges",
            stdin=P2,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert out == "p r\nq p\n"

    def test_pnn_has_extra_edge(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            "graph",
            "--graph",
            "pnn",
            "--format",
            "edges",
            stdin=P2,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert "p q" in out.splitlines()

    def test_dot_round_trips_edge_set(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, "graph", "--graph", "sp", stdin=P1, monkeypatch=monkeypatch
        )
        assert code == 0
        edges = {
            tuple(line.strip().rstrip(";").split(" -> "))
            for line in out.splitlines()
            if "->" in line
        }
        assert edges == {("q", "p"), ("p", "q")}


class TestModelLists:
    """Every model list the CLI prints is rendered from its points: no
    interpretation is built."""

    @pytest.mark.parametrize(
        "argv",
        [("models",), ("models", "--json"),
         ("split", "p | not p", "q -> p", "--p", "p"),
         ("split", "p | not p", "q -> p", "--p", "p", "--json")],
        ids=["models", "models-json", "split", "split-json"],
    )
    def test_no_interpretation_built(self, capsys, monkeypatch, argv):
        built = count_calls(monkeypatch, semantics, "_models")
        code, out, _ = run(capsys, *argv, stdin=P2, monkeypatch=monkeypatch)
        assert code in (0, 3, 4)
        assert "p" in out
        assert built == []

    def test_control_builds_interpretations(self, monkeypatch):
        # The public API builds them, through the counted function, when
        # its lists are read: the classical list first, and the others
        # from its models.
        built = count_calls(monkeypatch, semantics, "_models")
        report = analyze(parse_theory(P2))
        assert report.classical and report.stable and report.pointwise_stable
        assert len(built) == 1

    def test_a_list_given_again_is_rendered_once(self, capsys, monkeypatch):
        # On free choice the stable and pointwise stable lists are the
        # classical list itself: one array for it, one for the universe.
        arrays = count_calls(monkeypatch, semantics, "_json_array")
        free = "p | not p. q | not q."
        code, out, _ = run(
            capsys, "models", "--json", stdin=free, monkeypatch=monkeypatch
        )
        assert code == 0
        assert json.loads(out)["pointwise_stable"] == [[], ["p"], ["q"], ["p", "q"]]
        assert len(arrays) == 2
        keys = [0, 2, 1, 3]
        classical, stable = semantics.format_points(["q", "p"], keys, keys)
        assert stable is classical == "{}, {p}, {q}, {p q}"

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    def test_equal_lists_are_rendered_once(self, capsys, monkeypatch, json_flag):
        # The stable, supported and pointwise stable lists are equal, and
        # differ from the classical list: two renders, not four.
        renders = []
        renderer = semantics._renderer

        def counting(items, form):
            render = renderer(items, form)

            def counted(keys):
                renders.append(keys)
                return render(keys)

            return counted

        monkeypatch.setattr(semantics, "_renderer", counting)
        code, out, _ = run(
            capsys, "models", *json_flag, stdin="not q -> p.",
            monkeypatch=monkeypatch,
        )
        assert code == 0 and "p" in out
        # Over the names ["q", "p"]: {p}, {q}, {p q}, then {p}.
        assert renders == [[2, 1, 3], [2]]


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (("models",), "p | q. q -> p."),
        (("models", "--json"), "p | q. q -> p."),
        (("graph",), P2),
        (("graph", "--format", "edges"), P2),
        (("nes", "--atoms", "p"), P3),
        (("loops",), P3),
        (("split", "not p -> q", "q & not not p", "--p", "p"), None),
    ],
    ids=["models", "models-json", "graph", "graph-edges", "nes", "loops",
         "split"],
)
def test_commands_take_their_ops_from_the_parse(
    capsys, monkeypatch, compiles, argv, stdin
):
    # The parse emits the ops: no command compiles its input.  Only a
    # program, all of whose members are rules, has a completion whose
    # support halves are compiled; "p | q" is not a rule.
    code, out, _ = run(capsys, *argv, stdin=stdin, monkeypatch=monkeypatch)
    assert code in (0, 3, 4)
    assert out
    assert compiles == []


class TestTight:
    def test_p2_sp_acyclic_and_verified(
        self, capsys, monkeypatch, classical_passes
    ):
        code, out, _ = run(
            capsys, "tight", "--graph", "sp", stdin=P2, monkeypatch=monkeypatch
        )
        assert code == 0
        assert "acyclic" in out
        assert "verified" in out
        assert "{}, {p q}" in out
        # Supported and stable models come from one classical pass.
        assert len(classical_passes) == 1

    def test_p2_pnn_cyclic(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            "tight",
            "--graph",
            "pnn",
            stdin=P2,
            monkeypatch=monkeypatch,
        )
        assert code == 3
        assert "cyclic" in out

    def test_p1_sp_cyclic(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, "tight", "--graph", "sp", stdin=P1, monkeypatch=monkeypatch
        )
        assert code == 3

    def test_compiles_its_input_once(self, capsys, monkeypatch, compiles):
        # The parse gives the ops of both graphs and the check, and the
        # completion's support halves are read off a copy of them.
        code, out, _ = run(
            capsys, "tight", stdin="p -> q. q -> r.", monkeypatch=monkeypatch
        )
        assert code == 0
        assert "(verified): {}" in out
        assert compiles == []

    def test_over_cap_check_skipped_after_verdict(self, capsys, monkeypatch):
        chain = ". ".join(f"a{i + 1} -> a{i}" for i in range(25))
        code, out, err = run(
            capsys, "tight", stdin=chain, monkeypatch=monkeypatch
        )
        assert code == 0
        assert err == ""
        verdict, note = out.splitlines()
        assert verdict == "graph pnn: acyclic"
        assert "not checked" in note and "26 atoms" in note


class TestLoops:
    def test_interpretation_builds_the_graph_once(
        self, capsys, monkeypatch, graph_builds
    ):
        code, out, _ = run(
            capsys, "loops", "-i", "p,q", stdin=P3, monkeypatch=monkeypatch
        )
        assert code == 0
        assert len(out.splitlines()) == 4  # three loops and the verdict
        assert "rejected by pnn-loop oracle" in out
        assert [kind for _, kind, _ in graph_builds] == [GraphKind.PNN]

    def test_interpretation_compiles_once(self, capsys, monkeypatch, compiles):
        # The graph, the verdicts and the printer read the parse's ops:
        # nothing compiles f.
        code, _, _ = run(
            capsys, "loops", "-i", "p,q", stdin=P3, monkeypatch=monkeypatch
        )
        assert code == 0
        assert compiles == []

    def test_sp_unsound_verdict(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            "loops",
            "--graph",
            "sp",
            "-i",
            "p,q",
            stdin=P3,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert "loop {p}" in out
        assert "loop {q}" in out
        assert "accepted by sp-loop oracle (UNSOUND)" in out

    def test_pnn_rejects(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            "loops",
            "--graph",
            "pnn",
            "-i",
            "p,q",
            stdin=P3,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert "loop {p q}" in out
        assert "[violated]" in out
        assert "rejected by pnn-loop oracle" in out

    def test_single_atom_accepted(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            "loops",
            "--graph",
            "pnn",
            "-i",
            "p",
            stdin="p",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert "accepted by pnn-loop oracle" in out

    def test_acyclic_18_atom_chain_exit_0(self, capsys, monkeypatch):
        # 18 vertices, but every strongly connected component is a
        # singleton, so the cap on the largest component is not reached.
        chain = " & ".join(f"(a{i + 1} -> a{i})" for i in range(17))
        code, out, err = run(
            capsys, "loops", stdin=chain, monkeypatch=monkeypatch
        )
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert len(lines) == 18
        assert all(line.startswith("loop {a") for line in lines)

    def test_interpretation_outside_formula_exit_1(self, capsys, monkeypatch):
        code, out, err = run(
            capsys, "loops", "-i", "zz", stdin=P3, monkeypatch=monkeypatch
        )
        assert code == 1
        assert out == ""
        assert "zz" in err

    @pytest.mark.parametrize(
        "argv", [("loops",), ("loops", "-i", "p"), ("nes", "--atoms", "p")]
    )
    def test_formula_spread_over_lines(self, capsys, monkeypatch, argv):
        one_line = run(
            capsys, *argv, stdin="(p -> q) & (q -> p)\n", monkeypatch=monkeypatch
        )
        spread = run(
            capsys,
            *argv,
            stdin="(p -> q) &\n(q -> p)\n",
            monkeypatch=monkeypatch,
        )
        assert one_line[0] == 0
        assert spread == one_line


class TestDeepInputs:
    @pytest.mark.parametrize("command", ["graph", "tight", "loops"])
    def test_long_conjunction_exit_0(self, capsys, monkeypatch, command):
        text = " & ".join(["a"] * 5000)
        code, out, err = run(
            capsys, command, stdin=text, monkeypatch=monkeypatch
        )
        assert code == 0
        assert err == ""
        assert out

    def test_tight_long_chain_exit_0(self, capsys, monkeypatch):
        text = ". ".join(f"a{i + 1} -> a{i}" for i in range(1500)) + "."
        code, out, _ = run(
            capsys, "tight", stdin=text, monkeypatch=monkeypatch
        )
        assert code == 0
        assert out.startswith("graph pnn: acyclic\n")

    @pytest.mark.parametrize(
        "argv, code, stdout",
        [
            (("graph", "--format", "edges"), 0, "a a\n"),
            (("tight",), 3, "graph pnn: cyclic\n"),
        ],
        ids=["graph", "tight"],
    )
    def test_long_implication_chain_graph_in_budget(
        self, capsys, monkeypatch, argv, code, stdout
    ):
        # One rule per arrow, each nested in the head of the one before:
        # the graph must not walk each head once per enclosing rule.
        text = " -> ".join(["a"] * 20001)
        start = time.perf_counter()
        got, out, _ = run(capsys, *argv, stdin=text, monkeypatch=monkeypatch)
        elapsed = time.perf_counter() - start
        assert got == code
        assert out == stdout
        assert elapsed < 10.0, f"{elapsed:.1f} s for 20000 arrows"

    def test_long_negation_run_exit_0(self, capsys, monkeypatch):
        text = "not " * 3000 + "p"
        code, out, _ = run(
            capsys, "models", stdin=text, monkeypatch=monkeypatch
        )
        assert code == 0
        assert "stable: (none)" in out

    def test_long_implication_chain_exit_0(self, capsys, monkeypatch):
        text = " -> ".join(["p"] * 3000)
        code, out, _ = run(
            capsys, "models", stdin=text, monkeypatch=monkeypatch
        )
        assert code == 0
        assert "classical: {}, {p}" in out

    def test_long_biconditional_chain_in_budget(self, capsys, monkeypatch):
        # Each <-> shares its operands between two implications, so the
        # tree has about 2**24 paths: a walk per path takes many seconds.
        text = " <-> ".join(["p"] * 24)
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "models", stdin=text, monkeypatch=monkeypatch
        )
        elapsed = time.perf_counter() - start
        assert code == 0
        assert "classical: {}, {p}" in out
        assert elapsed < 0.1, f"{elapsed:.2f} s for 24 operands"

    @pytest.mark.parametrize(
        "argv, text, code, stdout",
        [
            (("graph", "--format", "edges"), CHAIN, 0, "p p\n"),
            (("tight",), CHAIN, 3, "graph pnn: cyclic\n"),
            (("split", CHAIN, "q", "--p", "p"), None, 0,
             "stable (whole): {q}\n"),
            (("tight", "--graph", "sp"), f"({CHAIN_Q}) -> p", 0,
             "tight (sp graph acyclic): supported models = stable models "
             "(verified): {p}\n"),
        ],
        ids=["graph", "tight", "split", "tight-sp-under-a-rule"],
    )
    def test_biconditional_chain_analyses_in_budget(
        self, capsys, monkeypatch, argv, text, code, stdout
    ):
        # The graphs, the split conditions and the completion's atoms
        # must visit each shared operand once, not once per path.
        start = time.perf_counter()
        got, out, _ = run(capsys, *argv, stdin=text, monkeypatch=monkeypatch)
        elapsed = time.perf_counter() - start
        assert got == code
        assert stdout in out
        assert elapsed < 0.1, f"{elapsed:.2f} s for 24 operands"

    def test_biconditional_chain_over_cap_refused_in_budget(
        self, capsys, monkeypatch
    ):
        text = " <-> ".join(f"a{k}" for k in range(23))
        start = time.perf_counter()
        code, out, err = run(
            capsys, "models", stdin=text, monkeypatch=monkeypatch
        )
        elapsed = time.perf_counter() - start
        assert code == 2
        assert out == ""
        assert "23 atoms exceeds the enumeration cap of 20" in err
        assert elapsed < 0.1, f"{elapsed:.2f} s to refuse 23 atoms"

    @pytest.mark.parametrize(
        "text, verdict",
        [
            (" & ".join(["a"] * 5000), "accepted"),
            (" -> ".join(["a"] * 3000), "rejected"),
            (" | ".join(["a"] * 3000), "accepted"),
            ("not " * 3000 + "a", "rejected"),
        ],
        ids=["conjunction", "implication-chain", "disjunction", "negation-run"],
    )
    def test_loops_interpretation_exit_0(self, capsys, monkeypatch, text, verdict):
        code, out, err = run(
            capsys, "loops", "-i", "a", stdin=text, monkeypatch=monkeypatch
        )
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("loop {a}: ")
        assert lines[1] == f"interpretation {{a}} {verdict} by pnn-loop oracle"

    @pytest.mark.parametrize("argv", [("nes", "--atoms", "a"), ("loops",)])
    @pytest.mark.parametrize("connective", [" & ", " | "])
    def test_op_printers_take_linear_time(
        self, capsys, monkeypatch, argv, connective
    ):
        # 20 000 conjuncts or disjuncts, each printed once: a printer that
        # builds a string per op, or copies its operands' pieces, is
        # quadratic here.
        text = connective.join(["a"] * 20_000)
        start = time.perf_counter()
        code, out, _ = run(capsys, *argv, stdin=text, monkeypatch=monkeypatch)
        elapsed = time.perf_counter() - start
        assert code == 0
        assert len(out) > len(text)
        assert elapsed < 0.5, f"{elapsed:.2f} s for 20 000 operands"

    def test_nes_of_every_atom_takes_linear_time(self, capsys, monkeypatch):
        # Y is all 20 000 atoms of the conjunction: a mask built by one
        # search of the layout per atom of Y is quadratic here.
        names = [f"a{k}" for k in range(20_000)]
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "nes", "--atoms", ",".join(names),
            stdin=" & ".join(names), monkeypatch=monkeypatch,
        )
        elapsed = time.perf_counter() - start
        assert code == 0
        assert out.count("bot") == 20_000
        assert elapsed < 1.0, f"{elapsed:.2f} s for 20 000 atoms in Y"

    def test_deep_parentheses_parse_error_exit_1(self, capsys, monkeypatch):
        text = "(" * 3000 + "p" + ")" * 3000
        code, out, err = run(
            capsys, "models", stdin=text, monkeypatch=monkeypatch
        )
        assert code == 1
        assert out == ""
        assert "parse error" in err


class TestLoopCapOnModels:
    """A 17-atom pnn component is over the loop-enumeration cap.  Each
    theory below has enough classical models for the loop-indexed path
    to be weighed, so the cap error must not escape these commands."""

    RULES = [f"a{(i + 1) % 17} & a{(i + 2) % 17} -> a{i}" for i in range(17)]

    def test_models(self, capsys, monkeypatch):
        text = ". ".join(self.RULES) + "."
        code, out, err = run(capsys, "models", stdin=text, monkeypatch=monkeypatch)
        assert code == 0
        assert err == ""
        assert "\nstable: {}\n" in out

    def test_tight(self, capsys, monkeypatch):
        # The nested bodies keep the sp graph acyclic, so the check runs.
        text = ". ".join(
            f"((a{(i + 1) % 17} -> z) -> z) & ((a{(i + 2) % 17} -> z) -> z)"
            f" -> a{i}"
            for i in range(17)
        ) + "."
        code, out, err = run(capsys, "tight", stdin=text, monkeypatch=monkeypatch)
        assert code == 3
        assert err == ""
        assert "supported models = stable models (verified)" in out

    def test_split(self, capsys):
        f = " & ".join(f"({r})" for r in self.RULES[:9])
        g = " & ".join(f"({r})" for r in self.RULES[9:])
        ps = ",".join(f"a{i}" for i in range(9))
        code, out, err = run(capsys, "split", f, g, "--p", ps)
        assert code == 3
        assert err == ""
        assert "stable (whole): {}\n" in out

    def test_loops_keeps_the_cap(self, capsys, monkeypatch):
        f = " & ".join(f"({r})" for r in self.RULES)
        code, out, err = run(capsys, "loops", stdin=f, monkeypatch=monkeypatch)
        assert code == 2
        assert out == ""
        assert "loop enumeration: 17 atoms exceeds" in err

    def test_loops_checks_the_atoms_before_the_cap(self, capsys, monkeypatch):
        f = " & ".join(f"({r})" for r in self.RULES)
        code, out, err = run(
            capsys, "loops", "-i", "zz", stdin=f, monkeypatch=monkeypatch
        )
        assert code == 1
        assert out == ""
        assert "zz" in err and "exceeds" not in err


class TestNes:
    # The printer's walk gives f's atoms to check the atoms against, so
    # nothing compiles f.
    def test_prints_canonical_formula(self, capsys, monkeypatch, compiles):
        code, out, _ = run(
            capsys,
            "nes",
            "--atoms",
            "p",
            stdin="p & q",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert out.strip() == "bot & q"
        assert compiles == []

    def test_atoms_outside_formula(self, capsys, monkeypatch, compiles):
        code, _, err = run(
            capsys,
            "nes",
            "--atoms",
            "z,p,y",
            stdin="p & q",
            monkeypatch=monkeypatch,
        )
        assert code == 1
        assert err == "error: atoms do not occur in the formula: y z\n"
        assert compiles == []

    def test_any_workbench_error_exits_1(self, capsys, monkeypatch):
        # Not only the subclasses a command is known to raise: the base
        # class too ends in an error line, not a traceback.
        def boom(ops, atoms):
            raise StableModelsError("boom")

        monkeypatch.setattr(cli, "nes_text", boom)
        code, out, err = run(
            capsys, "nes", "--atoms", "p", stdin="p", monkeypatch=monkeypatch
        )
        assert code == 1
        assert out == ""
        assert err == "error: boom\n"


class TestSplit:
    F = "p -> q"
    G = "((q -> p) -> p) -> p"

    def test_counterexample_sp_exit_4(self, capsys):
        code, out, _ = run(
            capsys, "split", self.F, self.G, "--p", "q", "--graph", "sp"
        )
        assert code == 4
        assert "equivalence holds: no" in out

    def test_counterexample_pnn_exit_3(self, capsys):
        code, out, _ = run(
            capsys, "split", self.F, self.G, "--p", "q", "--graph", "pnn"
        )
        assert code == 3
        assert "condition (iii): FAIL" in out

    def test_sound_split_exit_0(self, capsys):
        code, out, _ = run(
            capsys, "split", "p", "p -> q", "--p", "p", "--graph", "pnn"
        )
        assert code == 0
        assert "equivalence holds: yes" in out
        assert "stable (whole): {p q}" in out

    def test_json(self, capsys):
        code, out, _ = run(
            capsys,
            "split",
            "p",
            "p -> q",
            "--p",
            "p",
            "--graph",
            "pnn",
            "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["equivalence_holds"] is True
        assert data["stable_whole"] == [["p", "q"]]

    # Rules a0 -> a1 -> ... -> a20 split after a9: 21 atoms in all.
    WIDE_F = " & ".join(f"(a{i} -> a{i + 1})" for i in range(10))
    WIDE_G = " & ".join(f"(a{i} -> a{i + 1})" for i in range(10, 20))
    WIDE_P = ",".join(f"a{i}" for i in range(10))

    def test_non_partition_refused_before_the_cap(self, capsys):
        argv = ["split", self.WIDE_F, self.WIDE_G, "--p", self.WIDE_P + ",z"]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "partition" in err

    def test_over_the_cap_exit_2(self, capsys):
        code, out, err = run(
            capsys, "split", self.WIDE_F, self.WIDE_G, "--p", self.WIDE_P
        )
        assert code == 2
        assert out == ""
        assert "21 atoms exceeds the enumeration cap of 20" in err

    def test_cap_applies_to_the_whole(self, capsys):
        # Each part has 3 atoms, F & G has 4: F & choice(Q) is over
        # {p, s, q} and G & choice(P) over {q, r, p}.
        code, out, err = run(
            capsys, "split", "p & s", "q & r", "--p", "p,r", "--cap", "3"
        )
        assert code == 2
        assert out == ""
        assert "4 atoms exceeds the enumeration cap of 3" in err
        code, _, _ = run(
            capsys, "split", "p & s", "q & r", "--p", "p,r", "--cap", "4"
        )
        assert code == 3


class TestFuzz:
    def test_clean_run_exit_0(self, capsys):
        code, out, _ = run(
            capsys,
            "fuzz",
            "--property",
            "theorem1",
            "--seed",
            "1",
            "--count",
            "50",
        )
        assert code == 0
        assert "violations: 0" in out

    def test_negative_control_exit_5(self, capsys):
        code, out, _ = run(
            capsys,
            "fuzz",
            "--property",
            "loop-oracle-sp",
            "--seed",
            "1",
            "--count",
            "200",
        )
        assert code == 5
        assert "theory:" in out

    def test_unknown_property_exit_1(self, capsys):
        code, _, err = run(capsys, "fuzz", "--property", "bogus")
        assert code == 1
        assert "unknown property" in err

    def test_negative_count_exit_1(self, capsys):
        code, out, err = run(
            capsys, "fuzz", "--property", "chain", "--count", "-5"
        )
        assert code == 1
        assert out == ""
        assert "count" in err

    def test_negative_seed_exit_1(self, capsys):
        # random.Random(-5) draws what random.Random(5) draws, so a
        # negative seed would rerun the cases of its absolute value.
        code, out, err = run(
            capsys, "fuzz", "--property", "chain", "--seed", "-5", "--count", "1"
        )
        assert code == 1
        assert out == ""
        assert "seed" in err


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("models", "--json"),
            ("graph", "--graph", "pnn"),
            ("tight", "--graph", "sp"),
        ],
    )
    def test_same_input_same_bytes(self, capsys, monkeypatch, argv):
        first = run(capsys, *argv, stdin=P2, monkeypatch=monkeypatch)
        second = run(capsys, *argv, stdin=P2, monkeypatch=monkeypatch)
        assert first == second

    def test_fuzz_same_seed_same_bytes(self, capsys):
        argv = ("fuzz", "--property", "chain", "--seed", "9", "--count", "50")
        assert run(capsys, *argv) == run(capsys, *argv)
