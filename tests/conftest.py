import argparse
import contextlib
import functools
import inspect
import io
import sys
import types

import pytest

import stablemodels.cli as cli
import stablemodels.depgraph as depgraph
import stablemodels.formula as formula
import stablemodels.semantics as semantics
from stablemodels import (
    BOT,
    TOP,
    And,
    AtomRef,
    Bottom,
    DepGraph,
    GraphKind,
    Implies,
    Or,
    analyze,
    as_rule,
    atoms,
    check_split,
    classical_models,
    classify_occurrences,
    graph_of,
    interpretations_of,
    is_nondisjunctive_theory,
    is_pointwise_stable,
    is_stable,
    is_supported,
    loop_formula,
    parse_formula,
    parse_theory,
    pointwise_stable_models,
    rules_of,
    satisfies,
    spos,
    stable_models,
    strongly_connected_subsets,
    supported_models,
    theory_atoms,
)
from stablemodels.cli import main
from stablemodels.depgraph import _layout, _mask
from stablemodels.formula import (
    _AND, _ATOM, _BOT, _IMPLIES, _OR, _compile, _formulas, neg
)
from stablemodels.oracle import _loop_formula_ops, nes, satisfies_all
from stablemodels.semantics import (
    _by_fixpoint,
    _by_loops,
    _classical_pass,
    _fixpoint_rules,
    _head_cycle_free,
    _per_model,
)

# Running examples used throughout the suite.
P1_TEXT = "p -> q. q & not r -> p."
P2_TEXT = "p -> q. ((q -> r) -> r) -> p."
P3_TEXT = "(p -> q) & (((q -> p) -> p) -> p)"
NESTED_TEXT = "((p -> q) -> r) -> s"


def mset(*names):
    return frozenset(names)


def run_cli(argv, stdin=""):
    """Exit code and stdout of one in-process CLI call."""
    out = io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(
            io.StringIO()
        ):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def positive_nonnegated_atoms(f):
    """The atoms of ``f`` with a positive nonnegated occurrence, as
    ``classify_occurrences`` classifies them."""
    return frozenset(
        a for a, ctx in classify_occurrences(f)
        if ctx.positive and ctx.nonnegated
    )


def dependency_graph_scan(t, kind):
    """``kind``'s dependency graph of ``t`` by definition: for each rule
    Body -> Head that ``rules_of`` lists for a member, an edge from each
    atom of ``spos(Head)`` to each strictly positive (sp) or positive
    nonnegated (pnn, by ``classify_occurrences``) atom of Body."""
    body_atoms = spos if kind is GraphKind.SP else positive_nonnegated_atoms
    edges = {
        (h, b)
        for member in t
        for rule in rules_of(member)
        for h in spos(rule.head)
        for b in body_atoms(rule.body)
    }
    return DepGraph(theory_atoms(t), frozenset(edges))


def strongly_connected_subsets_scan(g):
    """The loops of ``g`` by definition: every nonempty vertex subset whose
    induced subgraph is strongly connected, in ``interpretations_of`` order.

    Each subset is checked by forward and backward reachability from one
    of its vertices over the edge set, with no per-component shortcut.
    """

    def strongly_connected(ys):
        start = next(iter(ys))
        for flip in (False, True):
            seen = {start}
            frontier = [start]
            while frontier:
                v = frontier.pop()
                for (a, b) in g.edges:
                    if flip:
                        a, b = b, a
                    if a == v and b in ys and b not in seen:
                        seen.add(b)
                        frontier.append(b)
            if seen != ys:
                return False
        return True

    subsets = interpretations_of(g.vertices)
    next(subsets)  # the empty set
    return [ys for ys in subsets if len(ys) == 1 or strongly_connected(ys)]


def _reached(g):
    """Each vertex of ``g`` with the vertices it reaches by zero or more
    edges."""
    reached = {}
    for v in g.vertices:
        seen, frontier = {v}, [v]
        while frontier:
            u = frontier.pop()
            for (a, b) in g.edges:
                if a == u and b not in seen:
                    seen.add(b)
                    frontier.append(b)
        reached[v] = seen
    return reached


def sccs_scan(g):
    """The strongly connected components of ``g`` by definition: the
    classes of mutual reachability, ordered lexicographically."""
    reached = _reached(g)
    components = {
        frozenset(w for w in reached[v] if v in reached[w]) for v in g.vertices
    }
    return sorted(components, key=lambda c: tuple(sorted(c)))


def compile_scan(t):
    """``formula._compile(t)`` by definition: a recursive postorder of the
    left-associated conjunction of ``t`` (``TOP`` if empty) that numbers
    each distinct node object once, after its operands, the left one
    first, with a memo by ``id``.  The recursion bounds the depth."""
    members = list(t)
    root = members[0] if members else TOP
    for member in members[1:]:
        root = And(root, member)
    ops = []
    numbered = {}

    def walk(g):
        if id(g) not in numbered:
            if isinstance(g, AtomRef):
                op = (_ATOM, g.name, 0)
            elif isinstance(g, Bottom):
                op = (_BOT, 0, 0)
            elif isinstance(g, Implies):
                op = (_IMPLIES, walk(g.antecedent), walk(g.consequent))
            else:
                code = _AND if isinstance(g, And) else _OR
                op = (code, walk(g.left), walk(g.right))
            ops.append(op)
            numbered[id(g)] = len(ops) - 1
        return numbered[id(g)]

    walk(root)
    return ops, {x for code, x, _ in ops if code == _ATOM}


def cyclic_scan(g):
    """Whether ``g`` has a directed cycle, by definition: some edge (a, b)
    whose b reaches a."""
    reached = _reached(g)
    return any(a in reached[b] for (a, b) in g.edges)


def loop_oracle_scan(f, kind):
    """The interpretations a loop oracle accepts, by definition: those of
    ``f``'s atoms where ``satisfies`` holds for ``f`` and for
    ``loop_formula(f, Y)`` for each loop Y of ``kind``'s graph, or for
    each nonempty atom subset Y when ``kind`` is None."""
    universe = atoms(f)
    if kind is None:
        family = list(interpretations_of(universe))[1:]
    else:
        family = strongly_connected_subsets(graph_of((f,), kind))
    lfs = [loop_formula(f, ys) for ys in family]
    return [
        i
        for i in interpretations_of(universe)
        if satisfies(i, f) and all(satisfies(i, lf) for lf in lfs)
    ]


def appended_loop_formula_mismatches(f):
    """The nonempty atom sets Y of ``f`` whose loop formula, as the ops
    that ``oracle._loop_formula_ops`` appends to ``f``'s and decoded by
    ``_formulas``, differs from ``loop_formula(f, Y)``, or whose conjuncts
    A -> not NES do not all read one op, equal to ``neg(nes(f, Y))``.
    The appended ops must also read only ops before them, keep ``f``'s
    ops as they are, and use one bottom op in all."""
    ops, universe = _compile((f,))
    names = _layout(universe)
    family = list(interpretations_of(universe))[1:]
    table, roots = _loop_formula_ops(ops, names, masks(family, names))
    assert table[: len(ops)] == ops
    assert [code for code, _, _ in table].count(_BOT) == 1
    assert all(
        code in (_ATOM, _BOT) or x < j and y < j
        for j, (code, x, y) in enumerate(table)
    )
    bad = []
    for ys, root in zip(family, roots):
        # The conjuncts, off the left spine of the conjunction.
        conjuncts = [root]
        for _ in range(len(ys) - 1):
            conjuncts[-1:] = table[conjuncts[-1]][:0:-1]
        supports = {table[op][2] for op in conjuncts}
        support = _formulas(table, supports)[0] if len(supports) == 1 else None
        if (
            _formulas(table, [root])[0] != loop_formula(f, ys)
            or support != neg(nes(f, ys))
        ):
            bad.append(ys)
    return bad


def clark_completion(t):
    """The Clark completion of the program ``t``, from its rules: per atom
    A, in sorted order, ``(A -> B) & (B -> A)``, where B is the left
    disjunction of the bodies of the rules with head A, in rule order, or
    bottom if there are none."""
    rules = [as_rule(f) for f in t]
    members = []
    for a in sorted(theory_atoms(t)):
        bodies = [body for body, head in rules if head == a]
        b = functools.reduce(Or, bodies) if bodies else BOT
        members.append(And(Implies(AtomRef(a), b), Implies(b, AtomRef(a))))
    return tuple(members)


def masks(sets, names):
    """Each of ``sets`` as its mask in the layout ``names``, as the loop
    path of the sweep takes loops."""
    return [_mask(ys, names) for ys in sets]


def fixpoint_class_scan(t):
    """The atoms of each head of two or more atoms of ``t``'s pieces, in
    piece order, if t is in the fixpoint path's syntactic class, else
    None; by the class's statement over formula nodes, not over ops.

    The members of t are split at their top-level ``And``s, each node
    once, left before right.  Each piece must be bottom, a negation, a
    rule ``B -> H`` or a bare ``H``: H an ``Or`` tree of atoms, negations
    and bottom, and B with no ``Implies`` outside a negation."""

    def negation(f):
        return isinstance(f, Implies) and isinstance(f.consequent, Bottom)

    def head(f):
        if isinstance(f, AtomRef):
            return {f.name}
        if isinstance(f, Bottom) or negation(f):
            return set()
        if isinstance(f, Or):
            left, right = head(f.left), head(f.right)
            return None if left is None or right is None else left | right
        return None

    def body(f):
        if isinstance(f, (And, Or)):
            return body(f.left) and body(f.right)
        return not isinstance(f, Implies) or negation(f)

    heads, seen, stack = [], set(), list(reversed(t))
    while stack:
        f = stack.pop()
        if id(f) in seen:
            continue
        seen.add(id(f))
        if isinstance(f, And):
            stack += (f.right, f.left)
            continue
        if isinstance(f, Implies) and not negation(f):
            if not body(f.antecedent):
                return None
            f = f.consequent
        atoms = head(f)
        if atoms is None:
            return None
        if len(atoms) > 1:
            heads.append(atoms)
    return heads


def mutant(old, new, real):
    """The module ``real`` with its one occurrence of ``old`` replaced by
    ``new``, loaded beside the real one."""
    source = inspect.getsource(real)
    assert source.count(old) == 1
    module = types.ModuleType(real.__name__ + "_mutant")
    module.__package__ = "stablemodels"
    exec(compile(source.replace(old, new), real.__file__, "exec"), module.__dict__)
    return module


def fixpoint_rules(c):
    """``_fixpoint_rules(c)`` if every part of the pass ``c`` is in the
    fixpoint path's class, head-cycle-free heads included, else None."""
    rules = _fixpoint_rules(c)
    if rules is None or not _head_cycle_free(c, rules.heads):
        return None
    return rules


def sweep_paths(t, kind=GraphKind.PNN):
    """The classical, stable and pointwise stable lists of each path of
    ``analyze``'s sweep, called directly whatever path it would choose:
    one here-and-there pass per classical model, one pass per loop of
    ``kind``'s graph (pnn is the production path), the loops given as
    masks in the pass's layout, and, if t is in its class, the least
    fixpoint."""
    c = _classical_pass(*_compile(t))
    loops = masks(strongly_connected_subsets(graph_of(t, kind)), c.names)
    paths = {"per-model": _per_model(c), "loop-indexed": _by_loops(c, loops)}
    rules = fixpoint_rules(c)
    if rules is not None:
        paths["fixpoint"] = _by_fixpoint(c, rules)
    return {
        path: (c.build(c.keys), *(c.build(c.points(table)) for table in tables))
        for path, tables in paths.items()
    }


def split_sweep_paths(f, g, ps, qs, kind=GraphKind.PNN):
    """``check_split``'s report on each path of its one sweep, forced as
    ``sweep_paths`` forces them: the path choice is replaced by one that
    takes the per-model path, the loop path over every loop of the pnn
    graph of F & G, as masks in the pass's layout, or, if F & G is in its
    class, the fixpoint path."""
    loops = strongly_connected_subsets(graph_of((And(f, g),), GraphKind.PNN))
    choices = {
        "per-model": lambda c, pointwise: _per_model,
        "loop-indexed": lambda c, pointwise: functools.partial(
            _by_loops, loops=masks(loops, c.names)
        ),
    }
    if fixpoint_rules(_classical_pass(*_compile((And(f, g),)))) is not None:
        # The parts' pieces are pieces of F & G, and their graphs parts
        # of its graph, so the parts are in the class too.
        choices["fixpoint"] = lambda c, pointwise: functools.partial(
            _by_fixpoint, rules=fixpoint_rules(c), pointwise=pointwise
        )
    reports = {}
    for path, choice in choices.items():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(semantics, "_path", choice)
            reports[path] = check_split(f, g, ps, qs, kind)
    return reports


def oracle_mismatches(t):
    """Names of the enumerators whose lists differ from a definitional scan.

    Each scan runs the enumerator's predicate over ``interpretations_of``;
    classical models are also checked over a universe with two extra
    atoms, one sorting between the theory's atoms.  ``analyze``'s
    classical, stable and pointwise stable lists are checked too, and so
    are those of every sweep path ``sweep_paths`` runs.  Supported models
    are checked for
    nondisjunctive theories only.
    """
    universe = theory_atoms(t)
    wider = universe | {"a0", "z"}

    def scan(holds, atoms=universe):
        return [i for i in interpretations_of(atoms) if holds(i)]

    classical = scan(lambda i: satisfies_all(i, t))
    stable = scan(lambda i: is_stable(i, t))
    pointwise = scan(lambda i: is_pointwise_stable(i, t))
    report = analyze(t)
    pairs = [
        ("classical", classical_models(t), classical),
        ("classical over a wider universe", classical_models(t, wider),
         scan(lambda i: satisfies_all(i, t), wider)),
        ("stable", stable_models(t), stable),
        ("pointwise stable", pointwise_stable_models(t), pointwise),
        ("analyze classical", report.classical, classical),
        ("analyze stable", report.stable, stable),
        ("analyze pointwise stable", report.pointwise_stable, pointwise),
    ]
    for path, lists in sweep_paths(t).items():
        for name, fast, oracle in zip(
            ("classical", "stable", "pointwise stable"),
            lists,
            (classical, stable, pointwise),
        ):
            pairs.append((f"{path} {name}", fast, oracle))
    if is_nondisjunctive_theory(t):
        pairs.append(
            ("supported", supported_models(t),
             scan(lambda i: is_supported(i, t)))
        )
    return [name for name, fast, oracle in pairs if fast != oracle]


@pytest.fixture
def p1():
    return parse_theory(P1_TEXT)


@pytest.fixture
def p2():
    return parse_theory(P2_TEXT)


@pytest.fixture
def p3():
    return parse_formula(P3_TEXT)


@pytest.fixture
def nested():
    return parse_formula(NESTED_TEXT)


@pytest.fixture
def graph_builds(monkeypatch):
    """The calls of ``depgraph._graph``, as (ops, kind, names): every graph
    that ``loops`` and the loop oracles use is built from a compile's ops."""
    return count_calls(monkeypatch, depgraph, "_graph")


def count_calls(monkeypatch, module, name):
    """The argument tuples of the calls of ``module``'s function ``name``,
    counted through every binding of it in the package's modules."""
    calls = []
    function = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for module_name, loaded in list(sys.modules.items()):
        if module_name.split(".")[0] == "stablemodels":
            if getattr(loaded, name, None) is function:
                monkeypatch.setattr(loaded, name, counting)
    return calls


@pytest.fixture
def classical_passes(monkeypatch):
    """The calls of ``semantics._classical_pass``, each one evaluation of a
    theory over all 2**n interpretations."""
    return count_calls(monkeypatch, semantics, "_classical_pass")


@pytest.fixture
def compiles(monkeypatch):
    """The calls of ``formula._compile``, each one walk of a theory."""
    return count_calls(monkeypatch, formula, "_compile")


@pytest.fixture
def parsers_built(monkeypatch):
    """The ``argparse.ArgumentParser`` objects built, subparsers included,
    counted from an empty cache of command parsers."""
    cli.command_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built
