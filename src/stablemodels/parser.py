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

The parser builds no tree: as it reduces each node it appends the
node's op to an op table, numbered exactly as ``formula._compile``
numbers the ops of the tree the grammar describes.  The reductions come
in postorder, as the right fold of ``->`` and the left folds of ``&``,
``|`` and ``<->`` take them, so each atom occurrence gets its own op,
the two implications of ``<->`` read its operands' ops, every ``bot``
and ``not`` shares one op of bottom, emitted where it is first needed,
and a theory's members are conjoined from the left, an ``And`` after
each member from the second on.  ``theory_ops``, ``formula_ops`` and
``split_ops`` give the table to the CLI; ``parse_formula`` and
``parse_theory`` turn it into nodes in one loop (``formula._formulas``).
A theory's atoms are its words, read once in the scan, less ``not``,
``bot`` and ``false``.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Optional

from .errors import FormulaParseError
from .formula import (
    _AND,
    _ATOM,
    _BOT,
    _IMPLIES,
    _OR,
    Atom,
    Formula,
    Ops,
    Theory,
    _formulas,
)

_TOKEN_RE = re.compile(
    r"(?:[ \t\r]+|%[^\n]*)*(<->|->|[-!&|().\n]|[a-z][A-Za-z0-9_]*|.|\Z)"
)

#: Every token text that is not an atom; an atom starts with [a-z], and
#: any other text is a character with no token.
_SYMBOLS = frozenset(
    ("<->", "->", "-", "!", "&", "|", "(", ")", ".", "\n", "")
)
_NOT = ("not", "-", "!")
_BOTTOMS = ("bot", "false")
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
    """The parser of one text, whose methods each read one nonterminal
    and return the op of what they read, appended to ``ops``."""

    def __init__(self, text: str, newlines: bool):
        tokens = _TOKEN_RE.findall(text)
        words = set(tokens) - _SYMBOLS
        bad = [t for t in words if not "a" <= t[0] <= "z"]
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
        # Once the whole text is read, every word was read as an atom
        # but these.
        self.atoms = words.difference(_NOT, _BOTTOMS)
        self.ops: Ops = []
        # The one op of bottom, once some "bot" or "not" needs it: where
        # ``_compile`` numbers the one ``BOT`` node.
        self.bot: Optional[int] = None

    def error(self, message: str) -> FormulaParseError:
        """The error ``message`` at the current token."""
        k = self.count - len(self.rest)
        return _error(self.text, k, self.newlines, message)

    def expected(self, what: str) -> FormulaParseError:
        tok = self.rest[-1]
        got = repr(tok) if tok else "end of input"
        return self.error(f"expected {what}, got {got}")

    def bottom(self) -> int:
        if self.bot is None:
            self.ops.append((_BOT, 0, 0))
            self.bot = len(self.ops) - 1
        return self.bot

    def formula(self) -> int:
        rest, ops = self.rest, self.ops
        left = self.impl()
        while rest[-1] == "<->":
            rest.pop()
            right = self.impl()
            # Both implications read the same two operand ops.
            ops += ((_IMPLIES, left, right), (_IMPLIES, right, left))
            left = len(ops)
            ops.append((_AND, left - 2, left - 1))
        return left

    def impl(self) -> int:
        rest, ops = self.rest, self.ops
        left = self.disj()
        if rest[-1] != "->":
            return left
        parts = [left]
        while rest[-1] == "->":
            rest.pop()
            parts.append(self.disj())
        out = parts.pop()
        while parts:
            ops.append((_IMPLIES, parts.pop(), out))
            out = len(ops) - 1
        return out

    def disj(self) -> int:
        rest, ops = self.rest, self.ops
        left = self.conj()
        while rest[-1] == "|":
            rest.pop()
            right = self.conj()
            ops.append((_OR, left, right))
            left = len(ops) - 1
        return left

    def conj(self) -> int:
        rest, ops = self.rest, self.ops
        left = self.unary()
        while rest[-1] == "&":
            rest.pop()
            right = self.unary()
            ops.append((_AND, left, right))
            left = len(ops) - 1
        return left

    def unary(self) -> int:
        rest, ops = self.rest, self.ops
        nots = 0
        while rest[-1] in _NOT:
            rest.pop()
            nots += 1
        tok = rest[-1]
        if tok not in _SYMBOLS:
            rest.pop()
            if tok in _BOTTOMS:
                out = self.bottom()
            else:
                ops.append((_ATOM, tok, 0))
                out = len(ops) - 1
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
        if nots:
            bot = self.bottom()
            for _ in range(nots):
                ops.append((_IMPLIES, out, bot))
                out = len(ops) - 1
        return out

    def whole_formula(self) -> int:
        """The op of the one formula that must be the whole text."""
        out = self.formula()
        if self.rest[-1]:
            raise self.expected("end of input")
        return out


def formula_ops(text: str) -> tuple[Ops, set[Atom]]:
    """``_compile((parse_formula(text),))``, read from ``text`` alone: the
    ops of the formula, whose last op is the whole, and its atoms."""
    parser = _Parser(text, newlines=False)
    parser.whole_formula()
    return parser.ops, parser.atoms


def split_ops(f: str, g: str) -> tuple[Ops, set[Atom]]:
    """``_compile((And(parse_formula(f), parse_formula(g)),))``, read from
    the texts alone: g's ops follow f's, sharing f's op of bottom, and the
    last op is their conjunction."""
    first = _Parser(f, newlines=False)
    x = first.whole_formula()
    second = _Parser(g, newlines=False)
    ops = second.ops = first.ops
    second.bot = first.bot
    y = second.whole_formula()
    ops.append((_AND, x, y))
    return ops, first.atoms | second.atoms


def theory_ops(text: str) -> tuple[Ops, set[Atom], list[int]]:
    """``_compile(parse_theory(text))``, read from ``text`` alone, and the
    op of each member.  As ``_compile`` conjoins the members, an ``And``
    of the members so far follows each member from the second on; an
    empty theory is ``TOP``, ``bot -> bot``."""
    parser = _Parser(text, newlines=True)
    rest, ops = parser.rest, parser.ops
    roots: list[int] = []
    while True:
        while rest[-1] in _SEPARATORS:
            rest.pop()
        if not rest[-1]:
            break
        root = parser.formula()
        if roots:
            ops.append((_AND, whole, root))
            whole = len(ops) - 1
        else:
            whole = root
        roots.append(root)
        if rest[-1] and rest[-1] not in _SEPARATORS:
            raise parser.expected("'.', a newline, or end of input")
    if not roots:
        ops += ((_BOT, 0, 0), (_IMPLIES, 0, 0))
    return ops, parser.atoms, roots


def parse_formula(text: str) -> Formula:
    """Parse a single formula, which may span lines; the whole input must
    be consumed."""
    return _formulas(formula_ops(text)[0], [-1])[0]


def parse_theory(text: str) -> Theory:
    """Parse a sequence of formulas separated by '.' or newlines."""
    ops, _, roots = theory_ops(text)
    return _formulas(ops, roots)
