import contextlib
import gc
import io
import random
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from stablemodels import (
    BOT,
    AtomRef,
    AtomsOutsideFormulaError,
    CapExceededError,
    GraphKind,
    Implies,
    atoms,
    classical_models,
    graph_of,
    interpretations_of,
    is_stable,
    loop_formula,
    nes,
    parse_formula,
    print_formula,
    satisfies,
    stable_via_all_sets,
    stable_via_loops,
    strongly_connected_subsets,
)
from stablemodels.cli import _WRITE_SLICE, main
from stablemodels.depgraph import _layout, _mask
from stablemodels.formula import _compile, neg
from stablemodels.loopformulas import NesPrinter, _loops, nes_text
from stablemodels.semantics import format_interpretation
from conftest import appended_loop_formula_mismatches, masks, mset, run_cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS, instance  # noqa: E402

PQ = mset("p", "q")
ALL_PQ = list(interpretations_of(PQ))


def _printer(f):
    """The ``NesPrinter`` of the formula ``f``, from its ops."""
    return NesPrinter(_compile((f,))[0])


class TestNes:
    def test_atom_cases(self):
        a = AtomRef("a")
        assert nes(a, {"a"}) == BOT
        assert nes(a, set()) == a

    def test_bottom(self):
        assert nes(BOT, set()) == BOT

    def test_p3_singletons_equivalent_to_double_negation(self, p3):
        target = classical_models((parse_formula("not p & not q"),), PQ)
        assert classical_models((nes(p3, {"p"}),), PQ) == target
        assert classical_models((nes(p3, {"q"}),), PQ) == target

    def test_empty_set_is_equivalent_to_formula(self, p3):
        assert classical_models((nes(p3, set()),), PQ) == classical_models(
            (p3,), PQ
        )

    def test_rejects_atoms_outside_formula(self, p3):
        with pytest.raises(AtomsOutsideFormulaError):
            nes(p3, {"z"})


class TestLoopFormula:
    def test_p3_singleton_loops_are_tautologies(self, p3):
        assert classical_models((loop_formula(p3, {"p"}),), PQ) == ALL_PQ
        assert classical_models((loop_formula(p3, {"q"}),), PQ) == ALL_PQ

    def test_p3_pair_loop_eliminates_pq(self, p3):
        assert not satisfies(mset("p", "q"), loop_formula(p3, {"p", "q"}))

    def test_rejects_empty_set(self, p3):
        with pytest.raises(ValueError):
            loop_formula(p3, set())

    def test_unsatisfiable_nes_makes_loop_formula_tautological(self):
        f = parse_formula("p & q")
        # nes(f, {p}) = bot & q, unsatisfiable.
        assert classical_models((loop_formula(f, {"p"}),), PQ) == ALL_PQ


@pytest.mark.parametrize(
    "text",
    [
        # No bottom op: the loop formulas append one.
        "p -> q",
        # An atom with several ops.
        "(p -> q) & (q -> p) | p & not q",
        # <-> shares its operands' ops between both implications.
        "p <-> (q | not r)",
        "p",
        # The adversarial template of the loop-oracle campaigns.
        "(p -> q) & (((q -> p) -> p) -> p)",
    ],
)
def test_pinned_appended_loop_formulas_decode_to_the_tree_ones(text):
    assert appended_loop_formula_mismatches(parse_formula(text)) == []


def test_iff_operands_share_their_ops():
    # So the <-> case above has ops that several ops read.
    shared = _compile((parse_formula("p <-> (q | not r)"),))[0]
    spelled = _compile((parse_formula("(p -> q | not r) & (q | not r -> p)"),))[0]
    assert len(shared) < len(spelled)


class TestAllSetsOracle:
    def test_single_fact(self):
        f = parse_formula("p")
        assert stable_via_all_sets(mset("p"), f)

    def test_p3_pq_rejected(self, p3):
        assert not stable_via_all_sets(mset("p", "q"), p3)

    @pytest.mark.parametrize(
        "text",
        [
            "(p -> q) & (q & not r -> p)",
            "(p -> q) & (((q -> r) -> r) -> p)",
            "(p -> q) & (((q -> p) -> p) -> p)",
        ],
    )
    def test_cross_oracle_agreement(self, text):
        f = parse_formula(text)
        for i in interpretations_of(atoms(f)):
            assert stable_via_all_sets(i, f) == is_stable(i, (f,))

    @pytest.mark.parametrize("n", range(11))
    def test_family_is_every_nonempty_subset_in_order(self, n):
        # Over a1 .. an; at n = 10, "a10" sorts before "a2", so the
        # masks must follow the names' order, not their numbers'.
        ops, universe = _compile([AtomRef(f"a{k}") for k in range(1, n + 1)])
        names = _layout(universe)
        expected = masks(list(interpretations_of(names))[1:], names)
        assert list(_loops(ops, names, None)) == expected


    # The five atoms a < b < c < d < e take the 31 nonempty subsets in
    # ``interpretations_of`` order, and the verdicts come in batches of 1,
    # 2, 4, 8 and 16.  At the full interpretation only the subset at the
    # given (1-based) position refutes it: the self-supporting atom, with
    # a choice on every other atom, or the whole ring.
    @pytest.mark.parametrize(
        ("text", "position"),
        [
            ("(a -> a) & (b | not b) & (c | not c) & (d | not d) & (e | not e)",
             1),
            ("(a | not a) & (b -> b) & (c | not c) & (d | not d) & (e | not e)",
             2),
            ("(a | not a) & (b | not b) & (c -> c) & (d | not d) & (e | not e)",
             3),
            ("(b -> a) & (c -> b) & (d -> c) & (e -> d) & (a -> e)", 31),
        ],
        ids=["first-batch", "first-bit-of-a-batch", "last-bit-of-a-batch",
             "last-subset"],
    )
    def test_one_refuting_subset(self, text, position):
        f = parse_formula(text)
        i = frozenset("abcde")
        subsets = list(interpretations_of(i))[1:]
        refuting = [
            n for n, ys in enumerate(subsets, 1)
            if not satisfies(i, loop_formula(f, ys))
        ]
        assert satisfies(i, f) and refuting == [position]
        assert not is_stable(i, (f,))
        assert not stable_via_all_sets(i, f)


# Every nonempty subset of a0 .. a6 is a loop: 127 loops of one complete
# component, and {c}.  ``loops -i`` decides them in one batch of 128;
# the oracles in batches of 1, 2, 4, ..., 64, then one of 1.
SEVEN = [f"a{k}" for k in range(7)]
COMPLETE = " & ".join(
    [f"({x} & c -> {y})" for x in SEVEN for y in SEVEN if x != y]
    + ["(c | not c)"]
)
COMPLETE_INTERPRETATIONS = pytest.mark.parametrize(
    "i",
    [SEVEN[:3], [*SEVEN, "c"], ["a4", "c"]],
    ids=["112-violated", "only-the-last-violated", "not-a-model"],
)


@COMPLETE_INTERPRETATIONS
def test_loops_verdicts_on_a_complete_component_match_satisfies(i):
    f = parse_formula(COMPLETE)
    code, out = run_cli(["loops", "-i", ",".join(i)], COMPLETE)
    lines = out.splitlines()
    loops = strongly_connected_subsets(graph_of((f,), GraphKind.PNN))
    assert code == 0
    assert len(loops) == len(lines) - 1 == 128
    for line, ys in zip(lines, loops):
        assert line.startswith(f"loop {{{' '.join(sorted(ys))}}}: ")
        holds = satisfies(frozenset(i), loop_formula(f, ys))
        assert line.endswith("  [satisfied]" if holds else "  [violated]")


@COMPLETE_INTERPRETATIONS
def test_loop_oracle_on_a_complete_component_matches_satisfies(i):
    f = parse_formula(COMPLETE)
    i = frozenset(i)
    loops = strongly_connected_subsets(graph_of((f,), GraphKind.PNN))
    accepted = satisfies(i, f) and all(
        satisfies(i, loop_formula(f, ys)) for ys in loops
    )
    assert stable_via_loops(i, f) == accepted == is_stable(i, (f,))


class TestLoopOracle:
    def test_sp_unsound_on_p3(self, p3):
        i = mset("p", "q")
        assert stable_via_loops(i, p3, GraphKind.SP)
        assert not is_stable(i, (p3,))

    def test_pnn_rejects_p3_pq(self, p3):
        assert not stable_via_loops(mset("p", "q"), p3, GraphKind.PNN)

    def test_pnn_agrees_on_empty_interpretation(self, p3):
        assert stable_via_loops(
            frozenset(), p3, GraphKind.PNN
        ) == is_stable(frozenset(), (p3,))

    def test_single_atom_accepted(self):
        f = parse_formula("p")
        assert stable_via_loops(mset("p"), f, GraphKind.PNN)

    def test_pnn_complete_on_paper_programs(self, p3):
        for i in interpretations_of(atoms(p3)):
            assert stable_via_loops(i, p3, GraphKind.PNN) == is_stable(
                i, (p3,)
            )


def test_oracles_answer_on_a_long_conjunction():
    # a & a & ... & a: a recursive evaluator would exceed the stack.
    f = parse_formula(" & ".join(["a"] * 5000))
    assert stable_via_loops(mset("a"), f)
    assert stable_via_all_sets(mset("a"), f)


def test_single_point_oracle_stops_at_the_first_false_formula():
    # {a0} violates the loop formula of {a0}, the first of the 2047
    # nonempty subsets of these 11 atoms, so the check stops there; a
    # table of all 2047 loop formulas over 2**11 points peaks near 52 MB.
    f = parse_formula(
        "(a0 -> a0) & " + " & ".join(f"(a{k} | not a{k})" for k in range(1, 11))
    )
    tracemalloc.start()
    try:
        accepted = stable_via_all_sets(mset("a0"), f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not accepted
    assert peak < 2_000_000


def test_single_point_oracles_accept_free_choice_of_14_atoms():
    # Every one of the 2**14 - 1 loop formulas holds at the full
    # interpretation, so stable_via_all_sets makes 16383 verdicts.
    names = [f"a{k}" for k in range(14)]
    f = parse_formula(" & ".join(f"({a} | not {a})" for a in names))
    start = time.perf_counter()
    assert stable_via_all_sets(frozenset(names), f)
    assert stable_via_loops(frozenset(names), f)
    assert time.perf_counter() - start < 5


def test_single_point_oracles_build_no_graph_for_a_non_model(graph_builds):
    f = parse_formula("(p -> q) & (q -> p)")
    assert not stable_via_loops(mset("p"), f)
    assert graph_builds == []
    assert not stable_via_loops(mset("p", "q"), f, GraphKind.SP)
    assert [kind for _, kind, _ in graph_builds] == [GraphKind.SP]


def _rule_chain(n):
    # (a1 -> a0) & (a2 -> a1) & ...: a left-associated conjunction.
    return parse_formula(" & ".join(f"(a{k + 1} -> a{k})" for k in range(n)))


@pytest.mark.parametrize("i", [(), ("a0",), ("a29", "a30")])
def test_graph_oracles_take_no_atom_cap_as_loops_i_does(i):
    # 31 atoms, past DEFAULT_CAP, and only singleton loops: the graph
    # oracles answer as ``loops -i`` does, while the family of every atom
    # subset (2**31 sets) is still held to the cap.
    f = _rule_chain(30)
    for kind in GraphKind:
        argv = ["loops", "--graph", kind.value, "-i", ",".join(i)]
        code, out = run_cli(argv, print_formula(f))
        assert code == 0
        accepted = " accepted by " in out.splitlines()[-1]
        assert stable_via_loops(frozenset(i), f, kind) == accepted
    with pytest.raises(CapExceededError):
        stable_via_all_sets(frozenset(i), f)


def test_loop_formulas_print_a_long_conjunction_of_rules():
    # Stack depth does not grow with the conjunction of 3000 rules, and
    # each support picks the choices of its one atom among 6000 atom
    # occurrences.
    f = _rule_chain(3000)
    loops = strongly_connected_subsets(graph_of((f,), GraphKind.PNN))
    assert loops[:3] == [mset("a0"), mset("a1"), mset("a10")]
    printer = _printer(f)
    for [a], mask in zip(loops[:3], masks(loops[:3], printer.names)):
        line = f"{a} -> {printer.support(mask)}"
        assert line == print_formula(loop_formula(f, {a}))


def _traced(call):
    """The result of ``call()`` and the ``tracemalloc`` peak of it."""
    # Objects taken from the interpreter's free lists are not traced, and
    # a full collection, run whenever the collector's counts say, empties
    # those lists.  So empty them now and keep the collector off while
    # measuring: the printer then finds them empty for every formula,
    # every run.
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


def _printing_peak(f, ys):
    """The support of ``ys`` in ``f`` and the ``tracemalloc`` peak of
    building the printer and printing it."""
    mask = _mask(ys, _layout(atoms(f)))
    return _traced(lambda: _printer(f).support(mask))


def _support_peak(n):
    return _printing_peak(_rule_chain(n), mset("a0"))[1]


def test_printing_a_support_takes_memory_linear_in_the_formula():
    # A string per node is quadratic on the conjunction's spine: the
    # peak then grows about fourfold.
    assert _support_peak(2000) <= 2.5 * _support_peak(1000)


@pytest.mark.parametrize(
    "text, atom",
    [(" -> ".join(["a"] * 1000), "a"), (" <-> ".join(["p"] * 12), "p")],
    ids=["implication-chain", "biconditional-chain"],
)
def test_printing_a_support_takes_a_few_bytes_per_character(text, atom):
    # The support of {a} in a -> ... -> a is 2.5 MB of text, quadratic in
    # the formula; the biconditionals share their operands.  A token list
    # of the text alone would take 8 bytes per token.
    f = parse_formula(text)
    support, peak = _printing_peak(f, mset(atom))
    assert support == print_formula(neg(nes(f, mset(atom))))
    assert peak <= 5 * len(support)


class _LengthSink(io.RawIOBase):
    """A stream that keeps only the length of what is written to it: the
    characters as a stdout, the bytes as the raw stream of a text one."""

    def __init__(self):
        super().__init__()
        self.length = 0

    def writable(self):
        return True

    def write(self, data):
        self.length += len(data)
        return len(data)


@pytest.mark.parametrize("argv", [["loops"], ["loops", "-i", "a"]])
def test_loops_line_writes_its_support_without_copying_it(argv):
    # a -> ... -> a has the one loop {a}; its support is 22.5 MB of text,
    # and a line built as one string would hold two more copies of it.
    # A real text stream encodes each write whole, so one write of the
    # support would copy it too.
    text = " -> ".join(["a"] * 3000)
    support, printing = _printing_peak(parse_formula(text), mset("a"))
    length = len(support)
    del support
    for text_stream in False, True:
        sink = _LengthSink()
        out = io.TextIOWrapper(io.BufferedWriter(sink)) if text_stream else sink
        saved, sys.stdin = sys.stdin, io.StringIO(text)
        try:
            with contextlib.redirect_stdout(out):
                code, peak = _traced(lambda: main(argv))
            out.flush()
        finally:
            sys.stdin = saved
        assert code == 0
        assert sink.length > length
        assert peak < 1.1 * printing, text_stream


def test_deep_left_nesting_prints():
    # ((a0 -> a1) -> a2) -> ...: each antecedent is one level deeper,
    # past the interpreter's recursion limit.
    f = AtomRef("a0")
    for k in range(1, 4000):
        f = Implies(f, AtomRef(f"a{k}"))
    text = print_formula(f)
    assert text == "(" * 3998 + "a0 -> a1" + "".join(
        f") -> a{k}" for k in range(2, 4000)
    )
    f = f.antecedent
    for _ in range(2500):
        f = f.antecedent
    printer = _printer(f)
    assert printer.support(_mask({"a0"}, printer.names)) == print_formula(
        neg(nes(f, mset("a0")))
    )


def _loop_printing_requests():
    """Instance 0 of each class of the ``loops`` workload that prints
    loop formulas."""
    workload = WORKLOADS["loops"]
    requests = [
        instance("loops", cls, 0) for cls in range(len(workload.classes))
    ]
    return [r for r in requests if r.argv[0] == "loops"]


@pytest.mark.parametrize(
    "text",
    [
        _loop_printing_requests()[0].stdin,
        "a <-> b <-> c <-> a",
        "((q -> p) -> p) -> p",
    ],
    ids=["benchmark", "biconditional-chain", "peirce"],
)
def test_a_printer_prints_any_sequence_of_sets(text):
    # One printer serves every loop of a ``loops`` call: a set printed
    # after another, the empty set after a nonempty one and a set again,
    # each as a fresh printer and the oracle print it.
    f = parse_formula(text)
    names = sorted(atoms(f))
    sets = [
        frozenset(),
        *(mset(a) for a in names),
        frozenset(names[::2]),
        frozenset(names),
    ]
    order = sets * 2
    random.Random(28).shuffle(order)
    order += [frozenset(names), frozenset()]
    printer = _printer(f)
    for ys in order:
        built = nes(f, ys)
        fresh = _printer(f)
        mask = _mask(ys, printer.names)
        assert printer.support(mask) == fresh.support(mask)
        assert printer.support(mask) == print_formula(neg(built))
        assert printer.text(mask) == fresh.text(mask)
        assert printer.text(mask) == print_formula(built)


@pytest.mark.parametrize(
    "request_", _loop_printing_requests(), ids=lambda r: r.kind
)
def test_nes_text_on_the_benchmark_formulas(request_):
    # Formulas of 10 to 15 atoms, larger than the properties draw; the
    # corpus has no ``nes`` request, so this is where ``text`` meets them.
    f = parse_formula(request_.stdin)
    kind = GraphKind(request_.argv[request_.argv.index("--graph") + 1])
    printer = _printer(f)
    loops = strongly_connected_subsets(graph_of((f,), kind))
    assert loops
    for ys in loops:
        built = nes(f, ys)
        assert nes_text(_compile((f,))[0], ys) == print_formula(built)
        support = printer.support(_mask(ys, printer.names))
        assert support == print_formula(neg(built))


class _WriteCounter(io.StringIO):
    """A stdout that keeps what is written to it and the length of each
    write."""

    def __init__(self):
        super().__init__()
        self.lengths = []

    def write(self, text):
        self.lengths.append(len(text))
        return super().write(text)


def _loops_writes(argv, text):
    """The stdout of ``argv`` on ``text`` and the length of each write."""
    sink = _WriteCounter()
    saved, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(sink):
            code = main(list(argv))
    finally:
        sys.stdin = saved
    assert code == 0
    return sink.getvalue(), sink.lengths


@pytest.mark.parametrize(
    "request_",
    [r for r in _loop_printing_requests() if r.kind.startswith("scc")],
    ids=lambda r: r.kind,
)
def test_loops_writes_each_corpus_line_once(request_):
    # A line of a few hundred characters is one write, not one per atom
    # and support; the verdict line under -i is a print, two writes.
    out, lengths = _loops_writes(request_.argv, request_.stdin)
    lines = out.splitlines(keepends=True)
    if "-i" in request_.argv:
        lengths, verdict = lengths[:-2], lines.pop()
        assert verdict.startswith("interpretation ")
    assert len(lines) > 1
    assert lengths == list(map(len, lines))


def _padded(n):
    # The line of {a} prints p's name once, so it grows by one character
    # per character of the name; those of {p...} and {a, b} print it
    # twice.
    return f"(a -> b) & (b -> a) & p{'x' * n}"


def _oracle_lines(text):
    f = parse_formula(text)
    loops = strongly_connected_subsets(graph_of((f,), GraphKind.PNN))
    formulas = [print_formula(loop_formula(f, ys)) for ys in loops]
    return [
        f"loop {format_interpretation(ys)}: {text}\n"
        for ys, text in zip(loops, formulas)
    ]


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_loops_lines_around_the_write_slice(offset):
    # The line of {a} is just under, at or just over one write slice; the
    # lines of {p...} and {a, b} are longer and are written in slices.
    n = _WRITE_SLICE + offset - len(_oracle_lines(_padded(0))[0])
    text = _padded(n)
    expected = _oracle_lines(text)
    assert len(expected[0]) == _WRITE_SLICE + offset
    assert expected[-1].startswith("loop {a b}: (a -> not ")
    assert len(expected[-1]) > _WRITE_SLICE
    out, lengths = _loops_writes(["loops"], text)
    assert out == "".join(expected)
    assert max(lengths) <= _WRITE_SLICE
    # The first line is one write exactly when it is shorter than a slice.
    assert (lengths[0] == len(expected[0])) == (offset < 0)
