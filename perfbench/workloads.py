"""Seeded requests for the benchmark's three workloads.

A request is one ``stablemodels`` command line plus the text it reads
from standard input.  Each workload is a fixed cycle of request classes
(a family, an atom count and a command); a run issues one request of
every class per cycle, so every run sees the same mix of work whatever
its seed.

Each class has a corpus of ``per_class`` instances.  Instance ``k`` is
generated from its own string seed, so its text never depends on the
run seed; the run seed only chooses which instances a run uses and in
what order.  Cycle ``c`` of a run uses the ``c``-th entry of a seeded
permutation of the instances, so no input text repeats within a run and
a program-side memo cache cannot earn a gain that one-shot CLI users
would not see.

Caps: enumeration inputs have at most 11 atoms (the program caps
enumeration at 20) and loop graphs at most 16 vertices (the program
caps loop enumeration at 16).  Inputs beyond the caps are left out on
purpose: the program answers them with exit code 2 today, and planned
changes alter those answers, so they cannot carry a fixed reference.
The cost at scale already shows as the roughly threefold growth per
atom across the 8 to 11 atoms used here.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable

LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Request:
    """One CLI invocation, with what is known about its answer."""

    kind: str
    argv: tuple[str, ...]
    stdin: str = ""
    # Theories the request checks: the fuzz case count, otherwise 1.
    cases: int = 1
    # Facts known independently of the program, checked when the
    # reference answers are recorded (see record.py).
    facts: dict = field(default_factory=dict, compare=False)

    @property
    def key(self) -> str:
        """Digest of the request's whole input: argv and stdin."""
        text = "\0".join(self.argv) + "\0\0" + self.stdin
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _names(rng: random.Random, n: int) -> list[str]:
    """``n`` distinct atom names such as ``k17``, in random order."""
    names: set[str] = set()
    while len(names) < n:
        names.add(rng.choice(LETTERS) + str(rng.randrange(100)))
    out = sorted(names)
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# enumerate: `models` on theories of 8-11 atoms, and `split` on 8-10 atoms.


def free_choice(n: int, json: bool) -> Callable[[random.Random], Request]:
    """``a | not a`` for each of ``n`` atoms: all 2^n subsets are stable."""

    def make(rng: random.Random) -> Request:
        atoms = _names(rng, n)
        text = ". ".join(f"{a} | not {a}" for a in atoms) + ".\n"
        argv = ("models", "--json") if json else ("models",)
        return Request(f"free{n}", argv, text, facts={"free_choice": atoms})

    return make


def choice_chain(n: int, json: bool) -> Callable[[random.Random], Request]:
    """A nondisjunctive chain: every atom heads one rule over its predecessors.

    Half the atoms are free choices ``not not a -> a``; the others are
    derived from the previous one or two atoms, so `supported` and the
    completion are computed as well.
    """

    def make(rng: random.Random) -> Request:
        x = _names(rng, n)
        choices = set(rng.sample(range(1, n), n // 2 - 1)) | {0}
        rules = []
        for i in range(n):
            if i in choices:
                rules.append(f"not not {x[i]} -> {x[i]}")
            elif i >= 2 and rng.random() < 0.5:
                rules.append(f"{x[i - 1]} & not {x[i - 2]} -> {x[i]}")
            elif rng.random() < 0.5:
                rules.append(f"not {x[i - 1]} -> {x[i]}")
            else:
                rules.append(f"{x[i - 1]} -> {x[i]}")
        rng.shuffle(rules)
        argv = ("models", "--json") if json else ("models",)
        return Request(f"chain{n}", argv, "\n".join(rules) + "\n")

    return make


def random_theory(n: int, json: bool) -> Callable[[random.Random], Request]:
    """Seeded disjunctive theory: ``n // 2`` choices plus one rule per other atom."""

    def make(rng: random.Random) -> Request:
        x = _names(rng, n)
        free = x[: n // 2]
        rules = [f"{a} | not {a}" for a in free]
        for h in x[n // 2:]:
            b, c = rng.sample([a for a in x if a != h], 2)
            head = h if rng.random() < 0.7 else f"{h} | {rng.choice(free)}"
            body = f"{b} & not {c}" if rng.random() < 0.5 else b
            rules.append(f"{body} -> {head}")
        rng.shuffle(rules)
        argv = ("models", "--json") if json else ("models",)
        return Request(f"random{n}", argv, ". ".join(rules) + ".\n")

    return make


def split(n: int, graph: str, json: bool) -> Callable[[random.Random], Request]:
    """`split F G --p P`: F's rules have heads in P, G's in Q, bodies read both."""

    def make(rng: random.Random) -> Request:
        x = _names(rng, n)
        ps, qs = x[: n // 2], x[n // 2:]

        def side(own: list[str], other: list[str]) -> str:
            parts = [f"({a} | not {a})" for a in own[:2]]
            # Every atom heads a rule, so P and Q partition the atoms.
            for h in own + [rng.choice(own)]:
                b = rng.choice(own + other)
                c = rng.choice(other)
                parts.append(f"({b} & not {c} -> {h})")
            return " & ".join(parts)

        argv = ["split", side(ps, qs), side(qs, ps), "--p", ",".join(ps)]
        argv += ["--graph", graph] + (["--json"] if json else [])
        return Request(f"split{n}-{graph}", tuple(argv), facts={"graph": graph})

    return make


# ---------------------------------------------------------------------------
# loops: `loops`, `graph` and `tight` on formulas of 10-16 atoms.
#
# A rule is (head, positive body atoms, negated body atoms, nested pairs);
# a nested pair (a, b) is the body conjunct ((a -> b) -> b), whose atom b
# is strictly positive while a is only positive nonnegated, so it adds an
# edge to the pnn graph that the sp graph lacks.

Rule = tuple[str, tuple[str, ...], tuple[str, ...], tuple[tuple[str, str], ...]]


def _render(rule: Rule) -> str:
    head, pos, neg, nested = rule
    body = list(pos) + [f"not {c}" for c in neg]
    body += [f"(({a} -> {b}) -> {b})" for a, b in nested]
    return f"{' & '.join(body)} -> {head}" if body else head


def _model(rules: list[Rule], start: set[str]) -> set[str]:
    """Close ``start`` under the rules: the result is a classical model."""
    model = set(start)
    changed = True
    while changed:
        changed = False
        for head, pos, neg, nested in rules:
            if (
                head not in model
                and all(a in model for a in pos)
                and not any(c in model for c in neg)
                and all(a in model or b in model for a, b in nested)
            ):
                model.add(head)
                changed = True
    return model


def _one_big_scc(rng: random.Random, x: list[str]) -> list[Rule]:
    """A ring through all atoms but two, with chords; the two hang off it."""
    ring, rest = x[:-2], x[-2:]
    rules: list[Rule] = [
        (ring[i], (ring[(i + 1) % len(ring)],), (), ()) for i in range(len(ring))
    ]
    for _ in range(len(x) // 3):
        h, b = rng.sample(ring, 2)
        rules.append((h, (b,), (rng.choice(x),), ()))
    for h in rest:
        rules.append((h, (rng.choice(ring),), (rng.choice(ring),), ()))
    a, b, h = rng.sample(ring, 3)
    rules.append((h, (), (), ((a, b),)))
    return rules


def _mostly_acyclic(rng: random.Random, x: list[str]) -> list[Rule]:
    """Edges point forward along ``x``, except for two small positive cycles."""
    n = len(x)
    rules: list[Rule] = []
    for i in range(n - 1):
        b = x[rng.randrange(i + 1, n)]
        neg = (rng.choice(x),) if rng.random() < 0.5 else ()
        rules.append((x[i], (b,), neg, ()))
    for start in rng.sample(range(n - 3), 2):
        size = rng.choice((2, 3))
        cycle = x[start:start + size]
        for i in range(size):
            rules.append((cycle[(i + 1) % size], (cycle[i],), (), ()))
    a, b, h = rng.sample(x, 3)
    rules.append((h, (), (), ((a, b),)))
    return rules


def loop_request(
    shape: str, n: int, command: str, graph: str
) -> Callable[[random.Random], Request]:
    """A `loops`-workload request on a fresh ``n``-atom formula.

    ``shape`` is "scc" (one big SCC) or "dag" (mostly acyclic); ``command``
    is "loops", "loops-i", "dot", "edges" or "tight".
    """
    build = _one_big_scc if shape == "scc" else _mostly_acyclic

    def make(rng: random.Random) -> Request:
        x = _names(rng, n)
        rules = build(rng, x)
        rng.shuffle(rules)
        kind = f"{shape}{n}-{command}-{graph}"
        if command == "tight":
            # Given as separate rules, so the theory is nondisjunctive; its
            # sp graph is cyclic, so `tight` stays a graph request.
            text = ". ".join(_render(r) for r in rules) + ".\n"
            return Request(kind, ("tight", "--graph", graph), text)
        text = " & ".join(f"({_render(r)})" for r in rules) + "\n"
        if command in ("dot", "edges"):
            argv = ("graph", "--graph", graph, "--format", command)
            return Request(kind, argv, text)
        argv: tuple[str, ...] = ("loops", "--graph", graph)
        facts: dict = {}
        if command == "loops-i":
            model = _model(rules, {a for a in x if rng.random() < 0.3})
            interp = sorted(model)
            argv += ("-i", ",".join(interp))
            facts = {"interpretation": interp, "graph": graph, "atoms": n}
        return Request(kind, argv, text, facts=facts)

    return make


# ---------------------------------------------------------------------------
# fuzz: one campaign per property per cycle.

# Cases per request, sized so each campaign takes about 0.1 s on the
# program as first benchmarked; with 200 cases `loop-oracle-sp` all but
# surely meets its adversarial template, so its correct exit code is 5.
FUZZ_COUNTS = {
    "chain": 400,
    "lemma1": 1000,
    "loop-oracle": 200,
    "loop-oracle-sp": 200,
    "reduct-lemma": 1500,
    "sp-subgraph": 1000,
    "splitting": 60,
    "theorem1": 400,
    "theorem2": 500,
}


def fuzz_campaign(prop: str) -> Callable[[random.Random], Request]:
    count = FUZZ_COUNTS[prop]

    def make(rng: random.Random) -> Request:
        seed = rng.randrange(2**31)
        argv = ("fuzz", "--property", prop, "--seed", str(seed), "--count", str(count))
        exit_code = 5 if prop == "loop-oracle-sp" else 0
        return Request(f"fuzz-{prop}", argv, cases=count, facts={"exit": exit_code})

    return make


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    classes: tuple[Callable[[random.Random], Request], ...]
    # Instances per class: at least three times the cycles one run takes.
    per_class: int
    # Cycles in the fixed request set of a traced run.
    traced_cycles: int


# Each workload's cycle has an odd number of classes, 15 or 9, so the
# median falls in the middle of one class, not on the edge between two;
# in `enumerate` that is free choice at 9 atoms, whose cost is steady.
# With 15 classes the 90th percentile is the median of the slowest three,
# which have close costs and stand well above the rest: free choice at 11
# atoms and the two 10-atom splits in `enumerate`, the three 15-atom
# `loops -i` classes in `loops`.

WORKLOADS: dict[str, Workload] = {
    "enumerate": Workload(
        classes=(
            free_choice(8, json=False),
            free_choice(9, json=True),
            free_choice(10, json=False),
            free_choice(11, json=True),
            choice_chain(8, json=True),
            choice_chain(9, json=False),
            random_theory(8, json=False),
            random_theory(9, json=True),
            random_theory(10, json=False),
            random_theory(11, json=True),
            split(8, "sp", json=False),
            split(8, "pnn", json=True),
            split(9, "pnn", json=True),
            split(10, "sp", json=True),
            split(10, "pnn", json=False),
        ),
        per_class=60,
        traced_cycles=1,
    ),
    "loops": Workload(
        classes=tuple(
            loop_request(shape, n, command, graph)
            for shape, n, command, graph in (
                ("scc", 12, "loops", "pnn"),
                ("scc", 15, "loops-i", "sp"),
                ("scc", 15, "loops-i", "pnn"),
                ("scc", 10, "loops-i", "pnn"),
                ("scc", 11, "loops-i", "sp"),
                ("scc", 14, "dot", "pnn"),
                ("scc", 13, "edges", "sp"),
                ("scc", 16, "tight", "sp"),
                ("dag", 12, "loops", "pnn"),
                ("dag", 15, "loops", "sp"),
                ("dag", 15, "loops-i", "pnn"),
                ("dag", 10, "loops-i", "pnn"),
                ("dag", 11, "loops-i", "sp"),
                ("dag", 13, "edges", "sp"),
                ("dag", 16, "tight", "sp"),
            )
        ),
        per_class=80,
        traced_cycles=2,
    ),
    "fuzz": Workload(
        classes=tuple(fuzz_campaign(p) for p in sorted(FUZZ_COUNTS)),
        per_class=120,
        traced_cycles=3,
    ),
}


def instance(workload: str, cls: int, k: int) -> Request:
    """Instance ``k`` of class ``cls``; the same arguments give the same request."""
    make = WORKLOADS[workload].classes[cls]
    return make(random.Random(f"{workload}:{cls}:{k}"))


def corpus(workload: str):
    """Every request a run of ``workload`` can issue."""
    w = WORKLOADS[workload]
    for k in range(w.per_class):
        for cls in range(len(w.classes)):
            yield instance(workload, cls, k)


def cycles(workload: str, seed: int):
    """The seed's cycles of requests, each one request of every class."""
    w = WORKLOADS[workload]
    rng = random.Random(seed)
    picks = rng.sample(range(w.per_class), w.per_class)
    for k in picks:
        order = list(range(len(w.classes)))
        rng.shuffle(order)
        yield [instance(workload, cls, k) for cls in order]
