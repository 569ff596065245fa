"""Import hygiene over ``src/`` and ``tests/``, checked on the syntax tree.

Every imported name must be used in its module, except in a package's
``__init__.py``, whose imports are its public re-exports, and in
``from __future__`` imports.  No import may sit inside a function: the
modules import what they need once, at the top.

The paper's definitions live in ``oracle``, the test oracle, and
production code never reaches them.  The oracle's names are the
functions and classes that ``oracle.py`` defines at its top level, read
from its syntax tree, so a definition moved into it is covered with no
edit here.  A production module, any module under ``src/`` but
``oracle``, ``fuzz`` (whose properties are on the oracle side) and
``__init__`` (whose imports are the public re-exports), may not import
the ``oracle`` module, import one of its names from anywhere, call one,
directly or as an attribute, or define one.  Calls, not bare names,
are matched: a local variable may share a name with the oracle, as
``splitting``'s ``spos`` does.  And ``semantics.loop_lemma_at``, the
loop-formula lemma at one interpretation, is named by ``loopformulas``
alone, so one module turns loops into loop verdicts.

Subsets are enumerated in one place: ``itertools.combinations`` is used
only inside ``oracle.interpretations_of``, so no production module
enumerates sets of atoms; being an oracle name, ``interpretations_of``
is called by no production module either.  And loop search has one
cost model: ``SUBSET_CAP`` is named only in ``depgraph``, so that no
other module prices or refuses loop enumeration by component size.  The
per-path walks ``atoms`` and ``theory_atoms`` are called only in
``formula``, which defines them, and in ``fuzz``: every analysis takes
a theory's atoms and its graphs from the ops of ``formula._compile``,
whose walk visits each distinct node once, not once per path.  No
module under ``src/`` calls ``oracle.choice_augment``, which builds a
split's parts as formulas and is the oracle of ``check_split``'s one
sweep.  ``cli`` does not name ``analyze``, which holds models as sets:
every model list the CLI prints is rendered from the points of one
classical pass.  Nor does it name ``formula._compile``: every command
takes its ops from the parse, which emits them as it reads the text.
It names neither ``formula._formulas`` nor ``print_formula`` either, so
it builds no formula tree: it prints a completion from its ops with
``print_tokens``.  ``depgraph``, ``splitting`` and ``semantics`` do not
name ``_compile`` either: they read graphs, split conditions, models and
the completion off op tables that their callers hold; and ``semantics``
names no node class, so the completion is built as ops, not as a tree.

The set-level API, which takes theories as trees and hands out graphs,
loops and models as sets, lives in ``sets``, and production keeps op
tables and masks only.  A module under ``src/`` other than ``sets``,
``oracle``, ``fuzz`` and ``__init__`` may not import ``sets`` or one of
the names that ``sets.py`` defines or assigns at its top level, read
from its syntax tree as the oracle's names are.

A name that a module may not use is matched wherever the module refers
to it: as an imported name, under an alias, or as an attribute, such
as ``s.analyze`` after ``import stablemodels.semantics as s``.

Every function, method and class defined under ``src/`` is named
somewhere in ``src/`` or ``tests/`` other than its definition: called,
read, or imported.  Dunder methods, which Python itself calls, are
exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in ("src", "tests")
    for path in (ROOT / folder).rglob("*.py")
)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
SOURCES = [path for path in MODULES if path.is_relative_to(ROOT / "src")]
# The modules that may reach the oracle: itself, the fuzz properties and
# the package's re-exports.
ORACLE_SIDE = {"oracle", "fuzz", "__init__"}
ORACLE_NAMES = {
    node.name
    for node in ast.parse(
        (ROOT / "src" / "stablemodels" / "oracle.py").read_text(encoding="utf-8")
    ).body
    if isinstance(node, DEFINITIONS)
}
# The one module, besides ``semantics``, that may name the point lemma.
POINT_LEMMA = ("loop_lemma_at", "loopformulas")
SUBSET_ENUMERATOR = ("oracle", "interpretations_of")
CAP_OWNER = "depgraph"
# The modules that may call each per-path walk of ``formula``.
WALK_CALLERS = dict.fromkeys(("atoms", "theory_atoms"), {"formula", "fuzz"})
# Per module, the names it may not use: the model lists of ``cli``
# come from points, not from sets.
SET_RENDERERS = {"cli": {"analyze"}}
# Per module, the tree builders it may not use: the CLI's ops come from
# the parse and are printed as ops, and the graph, split and model
# modules read the ops they are given.
COMPILERS = {
    "cli": {"_compile", "_formulas", "print_formula"},
    "depgraph": {"_compile"},
    "splitting": {"_compile"},
    "semantics": {"_compile", "Bottom", "AtomRef", "And", "Or", "Implies"},
}
# The modules that may import the set-level adapter: itself, the oracle,
# the fuzz properties and the package's re-exports.
SET_SIDE = {"sets", "oracle", "fuzz", "__init__"}
SET_TREE = ast.parse(
    (ROOT / "src" / "stablemodels" / "sets.py").read_text(encoding="utf-8")
)
# Its functions, classes and aliases such as ``Edge``.
SET_NAMES = {
    node.name for node in SET_TREE.body if isinstance(node, DEFINITIONS)
} | {
    target.id
    for node in SET_TREE.body
    if isinstance(node, ast.Assign)
    for target in node.targets
}
PART_BUILDER = {"choice_augment"}
NAME_FIELDS = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}


def _bound_names(node):
    """The names an import statement binds, with the statement's line."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [
        ((alias.asname or alias.name).split(".")[0], node.lineno)
        for alias in node.names
    ]


def unused_imports(tree):
    """Imported names that no expression of the module reads."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [
        (name, line)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name, line in _bound_names(node)
        if name not in used
    ]


def function_local_imports(tree):
    """Lines of import statements nested inside a function or lambda."""
    lines = []
    stack = [(tree, False)]
    while stack:
        node, in_function = stack.pop()
        if in_function and isinstance(node, (ast.Import, ast.ImportFrom)):
            lines.append(node.lineno)
        inside = in_function or isinstance(node, FUNCTIONS)
        stack += ((child, inside) for child in ast.iter_child_nodes(node))
    return sorted(lines)


def _nodes(tree):
    """Each node of the module with the innermost function it sits in
    (None at module level)."""
    stack = [(tree, None)]
    while stack:
        node, function = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        yield node, function
        stack += ((child, function) for child in ast.iter_child_nodes(node))


def _names(tree):
    """Each name, attribute and imported name of the module, with its line
    and the innermost function it sits in (None at module level)."""
    for node, function in _nodes(tree):
        field = NAME_FIELDS.get(type(node))
        if field:
            yield getattr(node, field), node.lineno, function


def _uses(tree, names):
    """Lines that name one of ``names``: imported, under an alias or as
    an attribute."""
    return sorted(line for name, line, _ in _names(tree) if name in names)


def point_lemma_uses(tree, module):
    """Lines that name ``loop_lemma_at``, unless ``module`` is
    ``loopformulas``."""
    name, importer = POINT_LEMMA
    return [] if module == importer else _uses(tree, {name})


def set_renderer_uses(tree, module):
    """Lines that name one of the ``SET_RENDERERS`` of ``module``."""
    return _uses(tree, SET_RENDERERS.get(module, set()))


def compile_uses(tree, module):
    """Lines that name one of the ``COMPILERS`` of ``module``."""
    return _uses(tree, COMPILERS.get(module, set()))


def combinations_uses(tree, module):
    """Lines that name ``combinations`` outside the one subset enumerator."""
    return sorted(
        line
        for name, line, function in _names(tree)
        if name == "combinations" and (module, function) != SUBSET_ENUMERATOR
    )


def _calls(tree, names):
    """Each call of a function of ``names``, by name or as an attribute,
    with its line and the innermost function it sits in."""
    for node, function in _nodes(tree):
        if (
            isinstance(node, ast.Call)
            and type(node.func) in NAME_FIELDS
            and getattr(node.func, NAME_FIELDS[type(node.func)]) in names
        ):
            yield node.lineno, function


def universe_walk_calls(tree, module):
    """Lines that call a walk of ``WALK_CALLERS`` that ``module`` may not."""
    forbidden = {
        name for name, callers in WALK_CALLERS.items() if module not in callers
    }
    return sorted(line for line, _ in _calls(tree, forbidden))


def _imports(tree, names):
    """Lines of the import statements that import a module or a name whose
    last dotted part is one of ``names``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            paths = [getattr(node, "module", None) or ""]
            paths += [alias.name for alias in node.names]
            if any(p.split(".")[-1] in names for p in paths):
                lines.append(node.lineno)
    return lines


def oracle_uses(tree, module):
    """Lines where ``module`` imports the ``oracle`` module or one of
    ``ORACLE_NAMES``, or calls or defines one of them; none if ``module``
    is on the oracle side."""
    if module in ORACLE_SIDE:
        return []
    lines = [line for line, _ in _calls(tree, ORACLE_NAMES)]
    lines += _imports(tree, ORACLE_NAMES | {"oracle"})
    lines += [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, DEFINITIONS) and node.name in ORACLE_NAMES
    ]
    return sorted(lines)


def set_level_imports(tree, module):
    """Lines where ``module`` imports the ``sets`` module or one of
    ``SET_NAMES``; none if ``module`` is on the set side."""
    if module in SET_SIDE:
        return []
    return sorted(_imports(tree, SET_NAMES | {"sets"}))


def part_builder_calls(tree):
    """Lines that call ``choice_augment``."""
    return sorted(line for line, _ in _calls(tree, PART_BUILDER))


def used_names(trees):
    """The names that the modules of ``trees`` read, call or import."""
    return {name for tree in trees for name, _, _ in _names(tree)}


def dead_definitions(tree, used):
    """Functions, methods and classes that the module defines and whose
    name is not in ``used``, with their lines.  Dunder methods, which
    Python itself calls, are left out."""
    return sorted(
        (node.name, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, DEFINITIONS)
        and node.name not in used
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )


def cap_uses(tree, module):
    """Lines that name ``SUBSET_CAP`` outside ``depgraph``."""
    return [] if module == CAP_OWNER else _uses(tree, {"SUBSET_CAP"})


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES]
)
def test_imports_are_used_and_module_level(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    unused = [] if path.name == "__init__.py" else unused_imports(tree)
    assert unused == [], f"unused imports (name, line): {unused}"
    assert function_local_imports(tree) == [], "imports inside a function"


def test_lint_flags_unused_and_local_imports():
    tree = ast.parse(
        "import os\n"
        "import os.path as osp\n"
        "from __future__ import annotations\n"
        "from typing import Iterator, Optional\n"
        "x: Optional[int] = None\n"
        "def f():\n"
        "    import sys\n"
        "    return sys\n"
        "g = lambda: __import__('json')\n"
    )
    assert unused_imports(tree) == [("os", 1), ("osp", 2), ("Iterator", 4)]
    assert function_local_imports(tree) == [7]


@pytest.mark.parametrize(
    "path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES]
)
def test_oracle_stays_out_of_production(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert oracle_uses(tree, path.stem) == []
    assert point_lemma_uses(tree, path.stem) == []


@pytest.mark.parametrize(
    "path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES]
)
def test_cli_renders_model_lists_from_points(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert set_renderer_uses(tree, path.stem) == []


def test_lint_flags_set_renderer_imports():
    tree = ast.parse(
        "from .semantics import analyze, format_points\n"
        "from stablemodels import analyze as analyse\n"
        "import stablemodels.semantics as s\n"
        "def models(t):\n"
        "    return s.analyze(t)\n"
    )
    assert set_renderer_uses(tree, "cli") == [1, 2, 5]
    assert set_renderer_uses(tree, "fuzz") == []


@pytest.mark.parametrize(
    "path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES]
)
def test_cli_takes_its_ops_from_the_parse(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert compile_uses(tree, path.stem) == []


def test_lint_flags_compile_uses():
    tree = ast.parse(
        "from .formula import _compile, print_tokens\n"
        "import stablemodels.formula as formula\n"
        "def cmd_loops(f):\n"
        "    return formula._compile((f,))\n"
        "def cmd_models(ops, roots):\n"
        "    for f in formula._formulas(ops, roots):\n"
        "        print(formula.print_formula(f))\n"
    )
    assert compile_uses(tree, "cli") == [1, 4, 6, 7]
    assert compile_uses(tree, "semantics") == [1, 4]
    assert compile_uses(tree, "sets") == []


def test_lint_flags_compile_uses_in_graph_and_split_modules():
    tree = ast.parse(
        "from .formula import Atom, _compile\n"
        "import stablemodels.formula as formula\n"
        "def graph_of(t, kind):\n"
        "    return _graph(*formula._compile(t), kind)\n"
    )
    for module in ("depgraph", "splitting", "semantics"):
        assert compile_uses(tree, module) == [1, 4]
    for module in ("formula", "loopformulas", "sets"):
        assert compile_uses(tree, module) == []


def test_lint_flags_node_classes_in_semantics():
    tree = ast.parse(
        "from .formula import And, AtomRef, Implies, _formulas\n"
        "import stablemodels.formula as formula\n"
        "def _completion(a, body):\n"
        "    ref = AtomRef(a)\n"
        "    return formula.And(Implies(ref, body), formula.Implies(body, ref))\n"
    )
    assert compile_uses(tree, "semantics") == [1, 1, 1, 4, 5, 5, 5]
    assert compile_uses(tree, "depgraph") == []


@pytest.mark.parametrize(
    "path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES]
)
def test_set_level_api_stays_out_of_production(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert set_level_imports(tree, path.stem) == []


def test_lint_flags_set_level_imports():
    tree = ast.parse(
        "from .sets import stable_models\n"
        "from stablemodels.sets import _encoded as encoded\n"
        "import stablemodels.sets as s\n"
        "from . import sets\n"
        "from stablemodels import g_pnn, parse_theory\n"
        "from .semantics import _sweep, format_points\n"
        "from .depgraph import Edge\n"
        "def models(t):\n"
        "    return s.stable_models(t)\n"
    )
    for module in ("cli", "semantics", "depgraph", "splitting", "loopformulas"):
        assert set_level_imports(tree, module) == [1, 2, 3, 4, 5, 7]
    for module in SET_SIDE:
        assert set_level_imports(tree, module) == []


def test_every_definition_is_used():
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in MODULES}
    used = used_names(trees.values())
    dead = [
        (path.name, *definition)
        for path in SOURCES
        for definition in dead_definitions(trees[path], used)
    ]
    assert dead == []


def test_lint_flags_dead_definitions():
    tree = ast.parse(
        "class Report:\n"
        "    def __eq__(self, other):\n"
        "        return helper(other)\n"
        "    def to_json(self):\n"
        "        return '{}'\n"
        "def helper(r):\n"
        "    return r\n"
        "def unused():\n"
        "    pass\n"
    )
    caller = ast.parse("from .semantics import Report\n")
    assert dead_definitions(tree, used_names([tree, caller])) == [
        ("to_json", 4), ("unused", 8)
    ]
    assert dead_definitions(tree, used_names([tree])) == [
        ("Report", 1), ("to_json", 4), ("unused", 8)
    ]


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES]
)
def test_one_subset_enumerator(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert combinations_uses(tree, path.stem) == []


def test_lint_flags_combinations_uses():
    tree = ast.parse(
        "import itertools\n"
        "from itertools import combinations\n"
        "def interpretations_of(u):\n"
        "    return itertools.combinations(u, 2)\n"
        "def pairs(u):\n"
        "    return [c for c in combinations(u, 2)]\n"
    )
    assert combinations_uses(tree, "oracle") == [2, 6]
    assert combinations_uses(tree, "semantics") == [2, 4, 6]


def test_lint_flags_subset_enumerator_calls():
    tree = ast.parse(
        "from .oracle import interpretations_of\n"
        "import stablemodels as s\n"
        "def family(names):\n"
        "    return list(s.interpretations_of(names))[1:]\n"
    )
    assert oracle_uses(tree, "loopformulas") == [1, 4]
    assert oracle_uses(tree, "fuzz") == []


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES]
)
def test_one_loop_cost_model(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert cap_uses(tree, path.stem) == []


def test_lint_flags_cap_uses():
    tree = ast.parse(
        "from .depgraph import SUBSET_CAP as CAP, _loops\n"
        "import stablemodels.depgraph as depgraph\n"
        "def fits(k):\n"
        "    return k <= depgraph.SUBSET_CAP\n"
        "LIMIT = SUBSET_CAP\n"
    )
    assert cap_uses(tree, "semantics") == [1, 4, 5]
    assert cap_uses(tree, "depgraph") == []


@pytest.mark.parametrize(
    "path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES]
)
def test_analyses_take_their_atoms_from_compile(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert universe_walk_calls(tree, path.stem) == []


def test_lint_flags_universe_walks_of_a_split():
    tree = ast.parse(
        "from .formula import And, atoms\n"
        "def check_split(f, g, p, q):\n"
        "    whole = And(f, g)\n"
        "    universe = atoms(whole)\n"
        "    return universe\n"
    )
    assert universe_walk_calls(tree, "splitting") == [4]
    assert universe_walk_calls(tree, "cli") == [4]
    assert universe_walk_calls(tree, "fuzz") == []


@pytest.mark.parametrize(
    "path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES]
)
def test_choice_augment_is_only_the_oracle(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert part_builder_calls(tree) == []


def test_lint_flags_part_builder_calls():
    tree = ast.parse(
        "import stablemodels.oracle as oracle\n"
        "def choice_augment(f, xs):\n"
        "    return f\n"
        "def check_split(f, g, ps, qs):\n"
        "    part_f = stable_models((choice_augment(f, qs),))\n"
        "    part_g = stable_models((oracle.choice_augment(g, ps),))\n"
        "    return part_f, part_g\n"
    )
    assert part_builder_calls(tree) == [5, 6]


def test_lint_flags_universe_walk_calls():
    tree = ast.parse(
        "from .formula import atoms, theory_atoms\n"
        "import stablemodels.formula as formula\n"
        "def completion(t):\n"
        "    return sorted(theory_atoms(t))\n"
        "def _sweep(t):\n"
        "    atoms = theory_atoms(t)\n"
        "    return formula.atoms(t[0]) | atoms\n"
        "UNIVERSE = theory_atoms(())\n"
    )
    assert universe_walk_calls(tree, "semantics") == [4, 6, 7, 8]
    assert universe_walk_calls(tree, "loopformulas") == [4, 6, 7, 8]
    assert universe_walk_calls(tree, "fuzz") == []
    assert universe_walk_calls(tree, "formula") == []


def test_lint_flags_oracle_imports():
    tree = ast.parse(
        "from .oracle import reduct\n"
        "from stablemodels.oracle import nes\n"
        "import stablemodels.oracle as o\n"
        "from . import oracle\n"
        "from stablemodels import is_stable\n"
        "from .semantics import stable_models\n"
        "names, spos = split(ops)\n"
        "first = spos[0]\n"
        "def check(i, t):\n"
        "    return semantics.is_stable(i, t)\n"
        "def choice_augment(f, xs):\n"
        "    return f\n"
    )
    assert oracle_uses(tree, "cli") == [1, 2, 3, 4, 5, 10, 11]
    for module in ORACLE_SIDE:
        assert oracle_uses(tree, module) == []


def test_lint_flags_occurrence_walk_imports():
    tree = ast.parse(
        "from .formula import rules_of, spos\n"
        "from stablemodels import classify_occurrences as occurrences\n"
    )
    assert oracle_uses(tree, "depgraph") == [1, 2]
    assert oracle_uses(tree, "semantics") == [1, 2]
    assert oracle_uses(tree, "formula") == [1, 2]
    assert oracle_uses(tree, "oracle") == []
    assert oracle_uses(tree, "__init__") == []


def test_lint_flags_nes_constructor_imports():
    tree = ast.parse(
        "from .loopformulas import loop_formulas, nes_text\n"
        "from .oracle import nes\n"
        "from stablemodels.oracle import _loop_formula, loop_formula\n"
        "from stablemodels import nes as build_nes\n"
    )
    assert oracle_uses(tree, "cli") == [2, 3, 4]
    assert oracle_uses(tree, "loopformulas") == [2, 3, 4]
    assert oracle_uses(tree, "fuzz") == []
    assert oracle_uses(tree, "__init__") == []


def test_lint_flags_point_lemma_imports():
    tree = ast.parse(
        "from .semantics import loop_lemma_at, stable_models\n"
        "from stablemodels.semantics import loop_lemma_at as lemma\n"
        "import stablemodels.semantics as s\n"
        "def verdicts(ops, atoms, i, loops):\n"
        "    return s.loop_lemma_at(ops, atoms, i, (loops,))\n"
    )
    assert point_lemma_uses(tree, "cli") == [1, 2, 5]
    assert point_lemma_uses(tree, "__init__") == [1, 2, 5]
    assert point_lemma_uses(tree, "loopformulas") == []
