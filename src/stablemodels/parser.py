"""Recursive-descent parser for the theory grammar.

Grammar (ASCII)::

    theory  := formula ( ("." | NEWLINE) formula )*   trailing separators ok
    formula := impl ( "<->" impl )*                   left-assoc, pairwise
    impl    := disj ( "->" disj )*                    right-assoc
    disj    := conj ( "|" conj )*
    conj    := unary ( "&" unary )*
    unary   := ("not" | "-" | "!")* ( "bot" | "false" | atom
                                    | "(" formula ")" )
    atom    := [a-z][A-Za-z0-9_]*

``%`` starts a comment running to the end of the line.  In a theory,
newlines act as formula separators, so a member cannot span lines;
``parse_formula`` reads them as whitespace, so a single formula can.
Runs of ``not`` and of ``->`` are read in loops; parentheses recurse
and may nest at most ``MAX_NESTING`` deep.

The input is cut into token texts by one ``findall`` of ``_TOKEN_RE``,
which skips the blanks and comments before each token; a token's text
is its kind, the catch-all ``.`` picks up any character the grammar has
no token for, and the final ``""`` is the end of input.  No token
carries a position: line and column are found only for an error, by
scanning the text again up to the token at fault.
"""

from __future__ import annotations

import re
from itertools import islice

from .errors import FormulaParseError
from .formula import BOT, And, AtomRef, Formula, Implies, Or, Theory, neg

_TOKEN_RE = re.compile(
    r"(?:[ \t\r]+|%[^\n]*)*(<->|->|[-!&|().\n]|[a-z][A-Za-z0-9_]*|.|\Z)"
)

#: Every token text that is not an atom; an atom starts with [a-z], and
#: any other text is a character with no token.
_SYMBOLS = frozenset(
    ("<->", "->", "-", "!", "&", "|", "(", ")", ".", "\n", "")
)
_NOT = ("not", "-", "!")
_SEPARATORS = ("\n", ".")

#: Deepest parenthesis nesting accepted; each level costs the parser a
#: few stack frames, so deeper input is a parse error, not a crash.
MAX_NESTING = 100


def _error(
    text: str, k: int, newlines: bool, message: str
) -> FormulaParseError:
    """The error ``message`` at token ``k`` of ``text``, counted without
    the newline tokens unless ``newlines``."""
    matches = _TOKEN_RE.finditer(text)
    if not newlines:
        matches = (m for m in matches if m[1] != "\n")
    offset = next(islice(matches, k, None)).start(1)
    line = text.count("\n", 0, offset) + 1
    column = offset - text.rfind("\n", 0, offset)
    return FormulaParseError(message, line, column)


class _Parser:
    def __init__(self, text: str, newlines: bool):
        tokens = _TOKEN_RE.findall(text)
        bad = [t for t in set(tokens) - _SYMBOLS if not "a" <= t[0] <= "z"]
        if bad:
            k = min(map(tokens.index, bad))
            raise _error(text, k, True, f"unexpected character {tokens[k]!r}")
        if not newlines:
            tokens = list(filter("\n".__ne__, tokens))
        self.text = text
        self.newlines = newlines
        self.count = len(tokens)
        # The tokens not yet read, last first: ``rest[-1]`` is the current
        # one and ``rest.pop()`` reads it.  The final "" is never read.
        tokens.reverse()
        self.rest = tokens
        self.depth = 0  # open parentheses around the current position

    def error(self, message: str) -> FormulaParseError:
        """The error ``message`` at the current token."""
        k = self.count - len(self.rest)
        return _error(self.text, k, self.newlines, message)

    def expected(self, what: str) -> FormulaParseError:
        tok = self.rest[-1]
        got = repr(tok) if tok else "end of input"
        return self.error(f"expected {what}, got {got}")

    def formula(self) -> Formula:
        rest = self.rest
        left = self.impl()
        while rest[-1] == "<->":
            rest.pop()
            right = self.impl()
            left = And(Implies(left, right), Implies(right, left))
        return left

    def impl(self) -> Formula:
        rest = self.rest
        left = self.disj()
        if rest[-1] != "->":
            return left
        parts = [left]
        while rest[-1] == "->":
            rest.pop()
            parts.append(self.disj())
        out = parts.pop()
        while parts:
            out = Implies(parts.pop(), out)
        return out

    def disj(self) -> Formula:
        rest = self.rest
        left = self.conj()
        while rest[-1] == "|":
            rest.pop()
            left = Or(left, self.conj())
        return left

    def conj(self) -> Formula:
        rest = self.rest
        left = self.unary()
        while rest[-1] == "&":
            rest.pop()
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        rest = self.rest
        nots = 0
        while rest[-1] in _NOT:
            rest.pop()
            nots += 1
        tok = rest[-1]
        if tok not in _SYMBOLS:
            rest.pop()
            out = BOT if tok in ("bot", "false") else AtomRef(tok)
        elif tok == "(":
            if self.depth == MAX_NESTING:
                raise self.error(
                    f"parentheses nested deeper than {MAX_NESTING}"
                )
            rest.pop()
            self.depth += 1
            out = self.formula()
            self.depth -= 1
            if rest[-1] != ")":
                raise self.expected("')'")
            rest.pop()
        else:
            raise self.expected("a formula")
        for _ in range(nots):
            out = neg(out)
        return out


def parse_formula(text: str) -> Formula:
    """Parse a single formula, which may span lines; the whole input must
    be consumed."""
    parser = _Parser(text, newlines=False)
    f = parser.formula()
    if parser.rest[-1]:
        raise parser.expected("end of input")
    return f


def parse_theory(text: str) -> Theory:
    """Parse a sequence of formulas separated by '.' or newlines."""
    parser = _Parser(text, newlines=True)
    rest = parser.rest
    formulas: list[Formula] = []
    while True:
        while rest[-1] in _SEPARATORS:
            rest.pop()
        if not rest[-1]:
            break
        formulas.append(parser.formula())
        if rest[-1] and rest[-1] not in _SEPARATORS:
            raise parser.expected("'.', a newline, or end of input")
    return tuple(formulas)
