"""Command-line front end.

Subcommands: models, graph, tight, loops, nes, split, fuzz.  Input
comes from a file argument or standard input ("-" also means stdin).
A command's parser is built once per process, on the command's first
call, and serves every later call; help, version and usage errors
outside a command go through the full parser tree, built per call.
Every command takes its input's op table from the parse
(``parser.theory_ops``, ``formula_ops`` or ``split_ops``), compiles
nothing and builds no formula: ``models`` prints a program's completion
from the ops that ``semantics._completion`` appends to a copy of the
parse's table, and ``tight`` decides whether its input is a program
with ``semantics._rule``, the reader of one member that the completion
uses, which copies no table.

Exit codes:
  0  success
  1  parse error, bad atom sets, or usage problems
  2  enumeration cap exceeded
  3  graph is cyclic (tight) / splitting conditions fail (split)
  4  splitting conditions pass but the equivalence fails
  5  fuzzing found property violations
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Callable, NamedTuple, Optional

from . import __version__
from .depgraph import (
    GraphKind,
    _all_loops,
    _cyclic,
    _dot,
    _edges,
    _graph,
    _layout,
    _mask,
    _named,
)
from .errors import CapExceededError, FormulaParseError, StableModelsError
from .formula import print_tokens
from .fuzz import (
    MAX_FUZZ_ATOMS,
    MAX_FUZZ_DEPTH,
    PROPERTIES,
    run_fuzz,
)
from .loopformulas import NesPrinter, check_atoms, loop_verdicts, nes_text
from .parser import formula_ops, split_ops, theory_ops
from .semantics import (
    DEFAULT_CAP,
    _analysis,
    _rule,
    answer_json,
    format_interpretation,
    format_points,
)
from .splitting import _split

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CAP = 2
EXIT_CYCLIC = 3
EXIT_NOT_EQUIVALENT = 4
EXIT_VIOLATIONS = 5


def _read_input(path: Optional[str]) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _parse_atom_list(text: str) -> frozenset[str]:
    return frozenset(a for a in text.replace(",", " ").split() if a)


def cmd_models(args) -> int:
    ops, universe, roots = theory_ops(_read_input(args.input))
    a = _analysis(ops, universe, roots, args.cap)
    if args.json:
        print(a.to_json())
        return EXIT_OK
    names = a._c.names
    lists = a._classical, a._stable, a._pointwise, a._supported
    classical, stable, pointwise, *supported = format_points(
        names, *[keys for keys in lists if keys is not None]
    )
    print("universe:", " ".join(reversed(names)) or "(empty)")
    print("classical:", classical)
    print("stable:", stable)
    if supported:
        print("supported:", *supported)
    print("pointwise stable:", pointwise)
    if a._completion is not None:
        table, members = a._completion
        print("completion:")
        for r in members:
            print(" ", "".join(print_tokens(table, r)[0]) + ".")
    return EXIT_OK


def cmd_graph(args) -> int:
    ops, universe, _ = theory_ops(_read_input(args.input))
    names = _layout(universe)
    edges = _edges(_graph(ops, GraphKind(args.graph), names), names)
    if args.format == "dot":
        sys.stdout.write(_dot(reversed(names), edges, args.graph))
    else:
        for (head, body) in edges:
            print(head, body)
    return EXIT_OK


def cmd_tight(args) -> int:
    ops, universe, roots = theory_ops(_read_input(args.input))
    kind = GraphKind(args.graph)
    names = _layout(universe)
    cyclic = _cyclic(_graph(ops, kind, names))
    print(f"graph {kind.value}: {'cyclic' if cyclic else 'acyclic'}")
    if all(_rule(ops, r) for r in roots) and not (
        cyclic if kind is GraphKind.SP
        else _cyclic(_graph(ops, GraphKind.SP, names))
    ):
        claim = "tight (sp graph acyclic): supported models = stable models"
        try:
            a = _analysis(ops, universe, roots, args.cap)
        except CapExceededError as exc:
            # The check is an extra; the verdict above stands.
            print(f"{claim} (not checked: {exc})")
        else:
            verdict = "verified" if a._supported == a._stable else "VIOLATED"
            [stable] = format_points(a._c.names, a._stable)
            print(f"{claim} ({verdict}): {stable}")
    return EXIT_CYCLIC if cyclic else EXIT_OK


# Characters per write of a loop line: a text stream encodes all it is
# given at once, so a longer line is written in slices of this size.
_WRITE_SLICE = 1 << 16


def _print_loop(ys: list[str], support: str, end: str) -> None:
    """Write the line of the loop whose atoms, in ascending order, are
    ``ys`` and whose loop formula has the support ``support``, then
    ``end``: joined in one write if it is shorter than ``_WRITE_SLICE``,
    else piece by piece and in slices.  The pieces are joined only when
    the support's copies fit in a slice, so that a long support is not
    copied."""
    shown = " ".join(ys)
    if len(ys) == 1:
        pieces = [f"loop {{{shown}}}: {shown} -> ", support, end]
    else:
        pieces = [f"loop {{{shown}}}: ("]
        for a in ys:
            pieces += a, " -> ", support, ") & ("
        pieces[-1] = f"){end}"
    out = sys.stdout
    # Only a line whose supports fit in a slice can be shorter than one:
    # testing that first spares summing the pieces' lengths, about a
    # microsecond a line on a loop of 16 atoms.
    if len(support) * len(ys) < _WRITE_SLICE:
        line = "".join(pieces)
        if len(line) < _WRITE_SLICE:
            out.write(line)
            return
    for piece in pieces:
        for start in range(0, len(piece), _WRITE_SLICE):
            out.write(piece[start:start + _WRITE_SLICE])


def cmd_loops(args) -> int:
    ops, universe = formula_ops(_read_input(args.input).strip())
    kind = GraphKind(args.graph)
    names = _layout(universe)
    interp = args.interpretation
    if interp is not None:
        # Checked before the loop search, whose cap may refuse.
        interp = check_atoms(_parse_atom_list(interp), universe)
    loops = _all_loops(_graph(ops, kind, names))
    # The printer's layout is ``names``: both are f's atoms, sorted.
    printer = NesPrinter(ops)
    if interp is None:
        for ys in loops:
            _print_loop(_named(ys, names), printer.support(ys), "\n")
        return EXIT_OK
    verdicts = loop_verdicts(ops, names, _mask(interp, names), loops)
    accepted = next(verdicts)
    for ys, holds in zip(loops, verdicts):
        accepted = accepted and holds
        verdict = "satisfied" if holds else "violated"
        _print_loop(_named(ys, names), printer.support(ys), f"  [{verdict}]\n")
    shown = format_interpretation(interp)
    outcome = "accepted" if accepted else "rejected"
    note = " (UNSOUND)" if accepted and kind is GraphKind.SP else ""
    print(f"interpretation {shown} {outcome} by {kind.value}-loop oracle{note}")
    return EXIT_OK


def cmd_nes(args) -> int:
    ops, _ = formula_ops(_read_input(args.input).strip())
    print(nes_text(ops, _parse_atom_list(args.atoms)))
    return EXIT_OK


def cmd_split(args) -> int:
    compiled = split_ops(args.f, args.g)
    ps = _parse_atom_list(args.p)
    kind = GraphKind(args.graph)
    s = _split(compiled, ps, kind=kind, cap=args.cap)
    if args.json:
        print(
            answer_json(
                s._names,
                (
                    ("graph", kind.value),
                    ("cond_i", s.cond_i),
                    ("cond_ii", s.cond_ii),
                    ("cond_iii", s.cond_iii),
                    ("equivalence_holds", s.equivalence_holds),
                    ("stable_whole", s._whole),
                    ("stable_part_f", s._part_f),
                    ("stable_part_g", s._part_g),
                ),
            )
        )
    else:
        print(f"graph: {kind.value}")
        print(
            "condition (i):",
            "pass" if s.cond_i else
            "FAIL, atoms " + " ".join(sorted(s.cond_i_offenders)),
        )
        print(
            "condition (ii):",
            "pass" if s.cond_ii else
            "FAIL, atoms " + " ".join(sorted(s.cond_ii_offenders)),
        )
        print(
            "condition (iii):",
            "pass" if s.cond_iii else
            "FAIL, component " + format_interpretation(s.cond_iii_offender),
        )
        whole, part_f, part_g = format_points(
            s._names, s._whole, s._part_f, s._part_g
        )
        print("stable (whole):", whole)
        print("stable (part f):", part_f)
        print("stable (part g):", part_g)
        print("equivalence holds:", "yes" if s.equivalence_holds else "no")
    if not s.conditions_pass:
        return EXIT_CYCLIC
    if not s.equivalence_holds:
        return EXIT_NOT_EQUIVALENT
    return EXIT_OK


def cmd_fuzz(args) -> int:
    result = run_fuzz(
        args.property,
        seed=args.seed,
        count=args.count,
        max_atoms=args.max_atoms,
        max_depth=args.max_depth,
    )
    print(f"property: {result.property_name}")
    print(
        f"seed: {result.seed}  count: {result.checked}  "
        f"max-atoms: {args.max_atoms}  max-depth: {args.max_depth}"
    )
    print(f"violations: {len(result.violations)}")
    if result.violations:
        print()
        print(result.violations[0])
    return EXIT_VIOLATIONS if result.violations else EXIT_OK


def _non_negative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return int(text)


def _add_input(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "input",
        nargs="?",
        default=None,
        help="input file ('-' or omitted reads standard input)",
    )


def _add_cap(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--cap",
        type=_non_negative_int,
        default=DEFAULT_CAP,
        help=f"atom cap for exhaustive enumeration (default {DEFAULT_CAP})",
    )


def _add_graph(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--graph",
        choices=("sp", "pnn"),
        default="pnn",
        help="dependency-graph construction (default pnn)",
    )


def _models_arguments(p: argparse.ArgumentParser) -> None:
    _add_input(p)
    _add_cap(p)
    p.add_argument("--json", action="store_true", help="structured output")


def _graph_arguments(p: argparse.ArgumentParser) -> None:
    _add_input(p)
    _add_graph(p)
    p.add_argument(
        "--format",
        choices=("dot", "edges"),
        default="dot",
        help="output format (default dot)",
    )


def _tight_arguments(p: argparse.ArgumentParser) -> None:
    _add_input(p)
    _add_graph(p)
    _add_cap(p)


def _loops_arguments(p: argparse.ArgumentParser) -> None:
    _add_input(p)
    _add_graph(p)
    p.add_argument(
        "--interpretation",
        "-i",
        default=None,
        help="atom list to evaluate the loop formulas under, e.g. 'p,q'",
    )


def _nes_arguments(p: argparse.ArgumentParser) -> None:
    _add_input(p)
    p.add_argument(
        "--atoms",
        required=True,
        help="atom set Y, e.g. 'p,q'",
    )


def _split_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("f", help="first formula text")
    p.add_argument("g", help="second formula text")
    p.add_argument(
        "--p",
        required=True,
        help="atom list for the first part; the rest goes to the second",
    )
    _add_graph(p)
    _add_cap(p)
    p.add_argument("--json", action="store_true", help="structured output")


def _fuzz_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--property",
        required=True,
        help="one of: " + ", ".join(sorted(PROPERTIES)),
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--max-atoms", type=int, default=MAX_FUZZ_ATOMS)
    p.add_argument("--max-depth", type=int, default=MAX_FUZZ_DEPTH)


class Command(NamedTuple):
    help: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    func: Callable[[argparse.Namespace], int]


# Every subcommand, in the order ``stablemodels --help`` lists them.
COMMANDS: dict[str, Command] = {
    "models": Command(
        "enumerate model classes of a theory", _models_arguments, cmd_models
    ),
    "graph": Command(
        "emit a positive dependency graph", _graph_arguments, cmd_graph
    ),
    "tight": Command(
        "check acyclicity of a dependency graph", _tight_arguments, cmd_tight
    ),
    "loops": Command(
        "loops and loop formulas of a formula", _loops_arguments, cmd_loops
    ),
    "nes": Command("negated-external-support formula", _nes_arguments, cmd_nes),
    "split": Command(
        "check the splitting conditions", _split_arguments, cmd_split
    ),
    "fuzz": Command(
        "randomized refutation-seeking checks", _fuzz_arguments, cmd_fuzz
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablemodels",
        description=(
            "Workbench for propositional stable-model semantics: model "
            "enumeration, dependency graphs, loop formulas, and splitting."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        command.add_arguments(p)
        p.set_defaults(func=command.func)
    return parser


@functools.cache
def command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of command ``name`` alone: it parses, and prints help
    and usage, as the full tree's subparser for ``name`` does.

    Built once per process for each of the names in ``COMMANDS``.  A
    parser may serve every call: ``parse_known_args`` keeps no state on
    it, every default is immutable, and help and usage read
    ``sys.stderr``, ``sys.stdout`` and the terminal width when they print,
    not when the parser is built."""
    parser = argparse.ArgumentParser(prog=f"stablemodels {name}")
    COMMANDS[name].add_arguments(parser)
    return parser


def _parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in COMMANDS:
        # Only this command's parser is used.  Leftover arguments and
        # list values (below) go to the full tree, so that its errors
        # keep the top-level usage line.
        name = argv[0]
        args, rest = command_parser(name).parse_known_args(
            argv[1:], argparse.Namespace(command=name)
        )
        if not rest and not any(
            isinstance(value, list) for value in vars(args).values()
        ):
            args.func = COMMANDS[name].func
            return args
    parser = build_parser()
    args = parser.parse_args(argv)
    # Every option takes one value, but argparse (Python 3.11) reads
    # "--opt=--" as an empty list.
    for name, value in vars(args).items():
        if isinstance(value, list):
            parser.error(f"argument {name}: expected one value")
    return args


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage error, or the help or version text.
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except FormulaParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (StableModelsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
