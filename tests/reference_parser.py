"""The token-object parser, kept as the reference for ``stablemodels.parser``.

It tokenizes with one ``re.match`` per token into ``Token`` objects that
carry their line and column, and parses them by the grammar in
``stablemodels.parser``'s docstring.  The properties in
``test_parser.py`` check that the production parser gives the same AST,
or the same error message, line and column, on every text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from stablemodels.errors import FormulaParseError
from stablemodels.formula import (
    BOT,
    And,
    AtomRef,
    Formula,
    Implies,
    Or,
    Theory,
    neg,
)
from stablemodels.parser import MAX_NESTING

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>[ \t\r]+)
  | (?P<COMMENT>%[^\n]*)
  | (?P<NEWLINE>\n)
  | (?P<IFF><->)
  | (?P<ARROW>->)
  | (?P<AND>&)
  | (?P<OR>\|)
  | (?P<NOT>[-!])
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<DOT>\.)
  | (?P<IDENT>[a-z][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

_SEPARATORS = ("NEWLINE", "DOT")

@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaParseError(
                f"unexpected character {text[pos]!r}",
                line,
                pos - line_start + 1,
            )
        kind = m.lastgroup
        assert kind is not None
        if kind not in ("WS", "COMMENT"):
            tokens.append(Token(kind, m.group(), line, pos - line_start + 1))
        if kind == "NEWLINE":
            line += 1
            line_start = m.end()
        pos = m.end()
    tokens.append(Token("EOF", "", line, pos - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # open parentheses around the current position

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.current
        self.pos += 1
        return tok

    def error(self, expected: str) -> FormulaParseError:
        tok = self.current
        got = "end of input" if tok.kind == "EOF" else repr(tok.text)
        return FormulaParseError(
            f"expected {expected}, got {got}", tok.line, tok.column
        )

    def formula(self) -> Formula:
        left = self.impl()
        while self.current.kind == "IFF":
            self.advance()
            right = self.impl()
            left = And(Implies(left, right), Implies(right, left))
        return left

    def impl(self) -> Formula:
        left = self.disj()
        if self.current.kind != "ARROW":
            return left
        parts = [left]
        while self.current.kind == "ARROW":
            self.advance()
            parts.append(self.disj())
        out = parts.pop()
        while parts:
            out = Implies(parts.pop(), out)
        return out

    def disj(self) -> Formula:
        left = self.conj()
        while self.current.kind == "OR":
            self.advance()
            left = Or(left, self.conj())
        return left

    def conj(self) -> Formula:
        left = self.unary()
        while self.current.kind == "AND":
            self.advance()
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        tok = self.current
        nots = 0
        while tok.kind == "NOT" or (tok.kind == "IDENT" and tok.text == "not"):
            self.advance()
            nots += 1
            tok = self.current
        if tok.kind == "IDENT":
            self.advance()
            out = BOT if tok.text in ("bot", "false") else AtomRef(tok.text)
        elif tok.kind == "LPAREN":
            if self.depth == MAX_NESTING:
                raise FormulaParseError(
                    f"parentheses nested deeper than {MAX_NESTING}",
                    tok.line,
                    tok.column,
                )
            self.advance()
            self.depth += 1
            out = self.formula()
            self.depth -= 1
            if self.current.kind != "RPAREN":
                raise self.error("')'")
            self.advance()
        else:
            raise self.error("a formula")
        for _ in range(nots):
            out = neg(out)
        return out


def parse_formula(text: str) -> Formula:
    """Parse a single formula, which may span lines; the whole input must
    be consumed."""
    parser = _Parser([t for t in _tokenize(text) if t.kind != "NEWLINE"])
    f = parser.formula()
    if parser.current.kind != "EOF":
        raise parser.error("end of input")
    return f


def parse_theory(text: str) -> Theory:
    """Parse a sequence of formulas separated by '.' or newlines."""
    parser = _Parser(_tokenize(text))
    formulas: list[Formula] = []
    while True:
        while parser.current.kind in _SEPARATORS:
            parser.advance()
        if parser.current.kind == "EOF":
            break
        formulas.append(parser.formula())
        if parser.current.kind not in _SEPARATORS + ("EOF",):
            raise parser.error("'.', a newline, or end of input")
    return tuple(formulas)
