"""Spans and work counts at the program's layer boundaries, taken from outside.

The tracer replaces a layer's public functions with timing wrappers in
the namespaces of the modules that call them (``cli.analyze``,
``semantics.stable_models``, ``splitting.is_stable`` ...), so the
program itself is not edited.  Hot leaf helpers such as ``satisfies``,
``atoms`` and ``reduct`` are left alone: their time counts towards the
layer that calls them.  A name that the program no longer has is
reported as absent and skipped.

Each span is five integers in one flat array: the span's name, its start
and end in nanoseconds, its parent span and its request.  A layer's self
time is the duration of its spans minus the part covered by their child
spans.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from time import perf_counter_ns

# layer -> function -> modules whose binding of that function is wrapped.
# A binding in the owning module itself catches calls from inside the
# layer and from function-local imports (`cmd_tight`, `cmd_loops`).
BOUNDARIES: dict[str, dict[str, tuple[str, ...]]] = {
    "parser": {
        "parse_theory": ("cli",),
        "parse_formula": ("cli",),
    },
    "formula": {
        "print_formula": ("cli", "fuzz"),
        "print_theory": ("fuzz",),
        "is_nondisjunctive_theory": ("cli", "semantics", "fuzz"),
    },
    "semantics": {
        "analyze": ("cli",),
        "classical_models": ("semantics", "fuzz"),
        "stable_models": ("cli", "semantics", "fuzz"),
        "supported_models": ("cli", "semantics", "fuzz"),
        "pointwise_stable_models": ("semantics", "fuzz"),
        "completion": ("semantics", "fuzz"),
        "is_stable": ("splitting", "fuzz"),
    },
    "depgraph": {
        "graph_of": ("cli", "loopformulas", "splitting"),
        "g_sp": ("depgraph", "fuzz"),
        "g_pnn": ("depgraph", "fuzz"),
        "has_cycle": ("cli", "fuzz"),
        "sccs": ("depgraph", "splitting"),
        "strongly_connected_subsets": ("depgraph", "loopformulas"),
        "subgraph_of": ("fuzz",),
        "to_dot": ("cli",),
    },
    "loopformulas": {
        "loop_formula": ("cli", "loopformulas"),
        "nes": ("cli",),
        "stable_via_loops": ("cli", "fuzz"),
        "stable_via_all_sets": ("fuzz",),
    },
    "splitting": {
        "check_split": ("cli", "fuzz"),
    },
    "fuzz": {
        "run_fuzz": ("cli",),
    },
}


def _universe(args, kwargs):
    """The atoms an enumerator call ranges over."""
    # Imported here: the benchmark's parent process loads this module
    # without the program on its path.
    from stablemodels.formula import theory_atoms

    universe = kwargs.get("universe", args[1] if len(args) > 1 else None)
    return theory_atoms(args[0]) if universe is None else frozenset(universe)


def _enumerator(counts, args, kwargs, result):
    counts["semantics.candidates"] += 2 ** len(_universe(args, kwargs))


def _stable(counts, args, kwargs, result):
    _enumerator(counts, args, kwargs, result)
    counts["semantics.stable_models_out"] += len(result)


def _subsets(counts, args, kwargs, result):
    counts["depgraph.subsets_examined"] += 2 ** len(args[0].vertices) - 1
    counts["depgraph.loops_found"] += len(result)


def _fuzz(counts, args, kwargs, result):
    counts["fuzz.cases"] += result.checked


# Work counts taken from a call's arguments and result.  They run after
# the span has closed, so their cost is charged to the caller.
HOOKS = {
    "semantics.classical_models": _enumerator,
    "semantics.stable_models": _stable,
    "semantics.supported_models": _enumerator,
    "semantics.pointwise_stable_models": _enumerator,
    "depgraph.strongly_connected_subsets": _subsets,
    "fuzz.run_fuzz": _fuzz,
}

# Work counts that are numbers of calls, by span name.
CALL_COUNTS = {
    "semantics.is_stable_calls": ("semantics.is_stable",),
    "splitting.calls": ("splitting.check_split",),
    "depgraph.graph_builds": ("depgraph.g_sp", "depgraph.g_pnn"),
    "loopformulas.formulas_built": ("loopformulas.loop_formula",),
    "loopformulas.oracle_calls": (
        "loopformulas.stable_via_loops",
        "loopformulas.stable_via_all_sets",
    ),
    "parser.calls": ("parser.parse_theory", "parser.parse_formula"),
}

# Inclusive time of single functions, by metric.
FUNCTION_MS = {
    "semantics.stable_ms": "semantics.stable_models",
    "semantics.pointwise_ms": "semantics.pointwise_stable_models",
    "semantics.classical_ms": "semantics.classical_models",
    "semantics.supported_ms": "semantics.supported_models",
}

LAYERS = ("cli", "parser", "formula", "semantics", "depgraph", "loopformulas",
          "splitting", "fuzz")


class Tracer:
    """Span recorder; ``install`` wraps the boundaries, ``remove`` restores them."""

    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")
        self.counts: Counter = Counter()
        self.request = 0
        self.absent: list[str] = []
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        """``fn`` recording one span named ``name`` per call."""
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans) // 5
            spans.extend((name_id, 0, 0, stack[-1], self.request))
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[5 * index + 2] = perf_counter_ns()
                stack.pop()
            spans[5 * index + 1] = start
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for layer, functions in BOUNDARIES.items():
            for fname, importers in functions.items():
                for importer in importers:
                    try:
                        module = importlib.import_module(f"stablemodels.{importer}")
                    except ImportError:
                        module = None
                    fn = getattr(module, fname, None)
                    if not callable(fn):
                        self.absent.append(f"{importer}.{fname}")
                        continue
                    name = f"{layer}.{fname}"
                    self._saved.append((module, fname, fn))
                    setattr(module, fname, self.wrap(name, fn, HOOKS.get(name)))

    def remove(self) -> None:
        for module, fname, fn in reversed(self._saved):
            setattr(module, fname, fn)
        self._saved.clear()

    def metrics(self, scale: list[float]) -> dict[str, float]:
        """Per-layer self times and work counts of the spans recorded so far.

        A span's time is multiplied by ``scale[request]``, its request's
        factor to the reference speed.
        """
        spans, n = self.spans, len(self.spans) // 5
        child_ns = [0] * n
        self_ns: Counter = Counter()
        inclusive_ns: Counter = Counter()
        calls: Counter = Counter()
        # Children are recorded after their parents, so walking backwards
        # sees every child before its parent.
        for i in range(n - 1, -1, -1):
            name_id, start, end, parent, request = spans[5 * i:5 * i + 5]
            duration = end - start
            if parent >= 0:
                child_ns[parent] += duration
            name = self.names[name_id]
            self_ns[name.split(".")[0]] += (duration - child_ns[i]) * scale[request]
            inclusive_ns[name] += duration * scale[request]
            calls[name] += 1
        out: dict[str, float] = {f"{layer}.self_ms": self_ns[layer] / 1e6 for layer in LAYERS}
        for metric, name in FUNCTION_MS.items():
            out[metric] = inclusive_ns[name] / 1e6
        for metric, names in CALL_COUNTS.items():
            out[metric] = sum(calls[name] for name in names)
        for metric in ("semantics.candidates", "semantics.stable_models_out",
                       "depgraph.subsets_examined", "depgraph.loops_found",
                       "fuzz.cases"):
            out[metric] = self.counts[metric]
        examined = out["depgraph.subsets_examined"]
        out["depgraph.loop_yield"] = out["depgraph.loops_found"] / examined if examined else 0.0
        return out

    def write(self, path) -> None:
        """Write every span as a CSV line: request, span, parent, name, start, end."""
        spans = self.spans
        with open(path, "w", encoding="utf-8") as out:
            out.write("request,span,parent,name,start_ns,end_ns\n")
            for i in range(len(spans) // 5):
                name_id, start, end, parent, request = spans[5 * i:5 * i + 5]
                out.write(f"{request},{i},{parent},{self.names[name_id]},{start},{end}\n")
