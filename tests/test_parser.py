"""The parser against its reference, on short texts and on long ones.

``reference_parser`` is the token-object parser that ``stablemodels.parser``
replaced; both entry points must give its AST or its exact error
message, line and column on every text.  Independently of it, every
error's line and column must point at what its message names, and long
inputs must parse, or fail, in time linear in their length.
"""

import ast
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import reference_parser
from stablemodels import (
    And,
    FormulaParseError,
    parse_formula,
    parse_theory,
    print_formula,
    print_theory,
)
from stablemodels.formula import _BOT, _compile
from stablemodels.parser import formula_ops, split_ops, theory_ops

# The grammar's alphabet plus what it rejects: blanks of every kind,
# comments with and without their newline, uppercase, junk characters,
# "<" and ">" apart from an arrow, and words that only start like "not".
PIECES = (
    " ", "\t", "\r", "\n", "\r\n", "% note", "%\n", "%@ (\n",
    "P", "aB", "Q1", "@", "~", "<", ">", "0", "_", "é", "\x0b",
    "not", "not ", "-", "!", "--", "not not ", "->", "<->", "<-", "- >",
    "&", "|", "(", ")", ".", "a", "b1", "x_Y", "bot", "false", "notp",
)
# Texts with no junk, so that more of them parse.
WORDS = ("a", "b", "bot", "not", "-", "!", "->", "<->", "&", "|", "(", ")")

short_texts = st.lists(st.sampled_from(PIECES), max_size=12).map("".join)
grammar_texts = st.lists(
    st.tuples(st.sampled_from(WORDS), st.sampled_from((" ", "", "\n", ". "))),
    max_size=12,
).map(lambda parts: "".join(word + gap for word, gap in parts))
# Around MAX_NESTING: 100 open parentheses parse, 101 do not.
nested_texts = st.tuples(
    st.integers(98, 102), st.one_of(short_texts, grammar_texts),
    st.integers(98, 102),
).map(lambda parts: "(" * parts[0] + parts[1] + ")" * parts[2])
texts = st.one_of(short_texts, grammar_texts, nested_texts)

PARSERS = [
    (parse_formula, reference_parser.parse_formula),
    (parse_theory, reference_parser.parse_theory),
]


def _outcome(parse, text, show=lambda parsed: parsed):
    """The parse of ``text`` as ``show`` gives it, or its error's message,
    line and column."""
    try:
        return show(parse(text))
    except FormulaParseError as exc:
        return str(exc), exc.line, exc.column


@settings(max_examples=500, deadline=None)
@given(texts)
def test_parses_as_the_reference_parser(text):
    for parse, reference in PARSERS:
        assert _outcome(parse, text) == _outcome(reference, text)


OP_PARSERS = [
    (lambda text: theory_ops(text)[:2], reference_parser.parse_theory),
    (formula_ops, lambda text: (reference_parser.parse_formula(text),)),
]


@settings(max_examples=500, deadline=None)
@given(texts)
def test_parse_emits_the_ops_of_compile(text):
    # The reference builds its own tree, sharing the operands of "<->"
    # and the one bottom as the parser does; ``_compile`` of that tree
    # must be the parse's op table, op for op, with the same atoms.
    for parse, reference in OP_PARSERS:
        assert _outcome(parse, text) == _outcome(
            lambda t: _compile(reference(t)), text
        )


def _split_reference(f, g):
    return _compile((And(
        reference_parser.parse_formula(f), reference_parser.parse_formula(g)
    ),))


@settings(max_examples=300, deadline=None)
@given(texts, texts)
def test_split_emits_the_ops_of_compile(f, g):
    assert _outcome(lambda _: split_ops(f, g), None) == _outcome(
        lambda _: _split_reference(f, g), None
    )


@pytest.mark.parametrize(
    "f, g, bottoms",
    [("not a -> b", "c & not not a", 1), ("a | bot", "not (b <-> not a)", 1),
     ("a", "not b", 1), ("a", "b", 0)],
    ids=["nots-in-both", "bot-then-not", "not-in-g", "no-bottom"],
)
def test_split_shares_the_bottom_of_f(f, g, bottoms):
    # g's ops continue f's table: one op of bottom in all, where
    # ``_compile`` numbers the one ``BOT`` node.
    ops, atoms = split_ops(f, g)
    assert (ops, atoms) == _split_reference(f, g)
    assert sum(code == _BOT for code, _, _ in ops) == bottoms


def _named(message):
    """The text that an error message names at its position; "" for the
    end of input."""
    if message.startswith("unexpected character "):
        return ast.literal_eval(message.removeprefix("unexpected character "))
    if message.startswith("parentheses nested deeper than "):
        return "("
    got = message.rsplit(", got ", 1)[1]
    return "" if got == "end of input" else ast.literal_eval(got)


@settings(max_examples=500, deadline=None)
@given(texts, st.sampled_from([parse for parse, _ in PARSERS]))
def test_error_position_points_at_what_the_message_names(text, parse):
    try:
        parse(text)
    except FormulaParseError as exc:
        error = exc
    else:
        return
    lines = text.split("\n")
    assert 1 <= error.line <= len(lines)
    assert 1 <= error.column <= len(lines[error.line - 1]) + 1
    offset = sum(len(line) + 1 for line in lines[: error.line - 1])
    offset += error.column - 1
    named = _named(str(error).split(": ", 1)[1])
    if named:
        assert text.startswith(named, offset)
    else:
        assert offset == len(text)


LONG_INPUTS = {
    "blanks-then-junk": " " * 200_000 + "@",
    "unended-comment": "p %" + "@ (" * 66_667,
    "conjunction": " & ".join(["p"] * 20_000),
    "negations": "not " * 20_000 + "p",
}


def _text(parsed):
    # Comparing deep trees would recurse once per level; their texts
    # differ exactly when they do, and print without recursion.
    if isinstance(parsed, tuple):
        return print_theory(parsed)
    return print_formula(parsed)


@pytest.mark.parametrize(
    "parse, reference", PARSERS, ids=["formula", "theory"]
)
@pytest.mark.parametrize("text", LONG_INPUTS.values(), ids=LONG_INPUTS)
def test_long_input_parses_in_linear_time(parse, reference, text):
    # A pattern that backtracks on a long run of blanks or comment text
    # would take time growing faster than the input.
    start = time.perf_counter()
    outcome = _outcome(parse, text, _text)
    seconds = time.perf_counter() - start
    assert outcome == _outcome(reference, text, _text)
    assert seconds < 0.5
