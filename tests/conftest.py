import pytest

from stablemodels import (
    classical_models,
    interpretations_of,
    is_nondisjunctive_theory,
    is_pointwise_stable,
    is_stable,
    is_supported,
    parse_formula,
    parse_theory,
    pointwise_stable_models,
    stable_models,
    supported_models,
    theory_atoms,
)
from stablemodels.semantics import satisfies_all

# Running examples used throughout the suite.
P1_TEXT = "p -> q. q & not r -> p."
P2_TEXT = "p -> q. ((q -> r) -> r) -> p."
P3_TEXT = "(p -> q) & (((q -> p) -> p) -> p)"
NESTED_TEXT = "((p -> q) -> r) -> s"


def mset(*names):
    return frozenset(names)


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


def oracle_mismatches(t):
    """Names of the enumerators whose lists differ from a definitional scan.

    Each scan runs the enumerator's predicate over ``interpretations_of``;
    classical models are also checked over a universe with two extra
    atoms, one sorting between the theory's atoms.  Supported models are
    checked for nondisjunctive theories only.
    """
    universe = theory_atoms(t)
    wider = universe | {"a0", "z"}

    def scan(holds, atoms=universe):
        return [i for i in interpretations_of(atoms) if holds(i)]

    def classical(i):
        return satisfies_all(i, t)

    pairs = [
        ("classical", classical_models(t), scan(classical)),
        ("classical over a wider universe",
         classical_models(t, wider), scan(classical, wider)),
        ("stable", stable_models(t), scan(lambda i: is_stable(i, t))),
        ("pointwise stable", pointwise_stable_models(t),
         scan(lambda i: is_pointwise_stable(i, t))),
    ]
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
