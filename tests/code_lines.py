"""Count the code lines of each module of a package, by default
``src/stablemodels``.

A code line is a line that holds a token, less docstrings, comments and
blank lines: a line inside a multi-line string holds that string's token,
and the lines of a module's, class's or function's docstring are left out.
The script prints the count of each module, the total, the total
without ``oracle.py``, the test oracle, and the total without both it
and ``sets.py``, the set-level adapter that no production module
imports.  It reports and checks nothing.

Run it from anywhere, with the path of another checkout's package to
count that one::

    python tests/code_lines.py [PACKAGE]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stablemodels"
# Tokens that hold no code.
SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The lines of every docstring of the module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and ast.get_docstring(node) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of the module text ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    package = Path(args[0]) if args else PACKAGE
    counts = {
        path.name: code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }
    for name, count in counts.items():
        print(f"{name:20} {count:5}")
    total = sum(counts.values())
    print(f"{'total':20} {total:5}")
    without = total - counts.get("oracle.py", 0)
    print(f"{'without oracle.py':20} {without:5}")
    without -= counts.get("sets.py", 0)
    print(f"{'without oracle, sets':20} {without:5}")


if __name__ == "__main__":
    main()
