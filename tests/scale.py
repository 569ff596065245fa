"""A scale ladder for the sweep: theories of growing size, up to the
20-atom cap, timed in process.

Each family is a function from an atom count to theory text:

- ``ring``: choices on a ring of n - 1 atoms, each derived from the next
  two unless c holds, and a choice on c.  The ring is one pnn component
  with many loops, and most points are classical models;
- ``hcf-blocks``: two atom-disjoint blocks of n / 2 atoms.  A block has
  choices on its atoms x_0 .. x_{m-1}, ``x_j & c -> x_i | d`` for every
  i != j, and a choice on c.  Its heads are head-cycle-free: d lies on
  no cycle;
- ``non-hcf-blocks``: the same blocks with ``d & c -> x_0`` added, which
  puts d and every x in one component, so no head is head-cycle-free;
- ``free``: a choice on each of n atoms, so every point is stable.

For each family the sizes step up to 20 atoms.  A family stops at the
first size whose classical pass and sweep together take longer than
``BUDGET`` seconds, and that row says so.  Per case the script reports
the seconds of the classical pass, of the sweep and of listing the
classical, stable and pointwise tables' points after it, the path the
sweep took (the first of ``_per_model``, ``_by_loops`` and
``_by_fixpoint`` it called), the seconds of the sweep's stable part
alone (``_sweep(c, pointwise=False)``, on a second, untimed classical
pass), the number of stable models, and the peak
traced memory (``tracemalloc``, in MiB) of one untimed repeat of all
three, run after every ``functools`` cache of ``semantics`` is cleared,
as a fresh process would start.  Each time is the median of ``REPEATS``
repeats, the whole case and its stable part alternating, each on a
classical pass of its own, since single runs of one case swing widely.
The first repeat also refills the caches that the memory run before it
cleared, and the median keeps that one slow repeat out.  It measures
and checks nothing.

Run it from anywhere, with the path of another checkout's package to
time that one::

    python tests/scale.py [PACKAGE] [--max-atoms N] [--json]
"""

import argparse
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stablemodels"
PATHS = ("_per_model", "_by_loops", "_by_fixpoint")
# Seconds of classical pass and sweep past which a family stops.
BUDGET = 2.0
# Timed repeats of each case, whose median each time column reports.
REPEATS = 3


def choices(atoms):
    return [f"{a} | not {a}" for a in atoms]


def ring(n):
    k = n - 1
    rules = choices([f"a{i}" for i in range(k)] + ["c"])
    rules += [f"a{(i + 1) % k} & a{(i + 2) % k} & not c -> a{i}" for i in range(k)]
    return rules


def block(m, tag, cyclic):
    xs = [f"{tag}x{i}" for i in range(m - 2)]
    c, d = f"{tag}c", f"{tag}d"
    rules = choices(xs + [c])
    rules += [f"{xj} & {c} -> {xi} | {d}" for xi in xs for xj in xs if xi != xj]
    if cyclic:
        rules.append(f"{d} & {c} -> {xs[0]}")
    return rules


def blocks(cyclic):
    return lambda n: block(n // 2, "p", cyclic) + block(n // 2, "q", cyclic)


# Each family and its sizes, in atoms.
FAMILIES = {
    "ring": (ring, (5, 9, 13, 17, 20)),
    "hcf-blocks": (blocks(False), (8, 12, 16, 20)),
    "non-hcf-blocks": (blocks(True), (8, 12, 16, 20)),
    "free": (lambda n: choices([f"a{i}" for i in range(n)]), (8, 12, 16, 18, 20)),
}


def run(semantics, ops, universe):
    """The seconds of the case's classical pass, of its sweep and of
    listing its classical, stable and pointwise tables, and its stable
    model count."""
    start = time.perf_counter()
    c = semantics._classical_pass(ops, universe)
    classical = time.perf_counter() - start
    start = time.perf_counter()
    stable, pointwise = semantics._sweep(c)
    sweep = time.perf_counter() - start
    start = time.perf_counter()
    c.keys, c.points(stable), c.points(pointwise)
    listing = time.perf_counter() - start
    return classical, sweep, listing, stable.bit_count()


def stable_part(semantics, ops, universe):
    """The seconds of the sweep without the pointwise table, on a classical
    pass of its own: at 20 atoms the n singleton passes of the pointwise
    table can hide the stable table's fixpoint steps."""
    c = semantics._classical_pass(ops, universe)
    start = time.perf_counter()
    semantics._sweep(c, pointwise=False)
    return time.perf_counter() - start


def measure(semantics, theory_ops, family, n):
    """One row: the case's median times, path, stable model count and peak
    traced memory."""
    text = ". ".join(FAMILIES[family][0](n)) + "."
    ops, universe, _ = theory_ops(text)
    taken = []
    originals = {
        name: getattr(semantics, name) for name in PATHS if hasattr(semantics, name)
    }
    for name, path in originals.items():
        def traced(*args, path=path, name=name, **kwargs):
            taken.append(name)
            return path(*args, **kwargs)
        setattr(semantics, name, traced)
    runs, parts = [], []
    try:
        for _ in range(REPEATS):
            runs.append(run(semantics, ops, universe))
            parts.append(stable_part(semantics, ops, universe))
    finally:
        for name, path in originals.items():
            setattr(semantics, name, path)
    classical, sweep, listing = map(statistics.median, list(zip(*runs))[:3])
    stable_s, stable = statistics.median(parts), runs[0][3]
    for f in vars(semantics).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()
    tracemalloc.start()
    try:
        run(semantics, ops, universe)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "family": family,
        "atoms": len(universe),
        "classical_s": round(classical, 4),
        "sweep_s": round(sweep, 4),
        "list_s": round(listing, 4),
        "path": taken[0].lstrip("_") if taken else None,
        "stable_s": round(stable_s, 4),
        "stable": stable,
        "peak_mib": round(peak / 2**20, 3),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("package", nargs="?", default=str(PACKAGE))
    parser.add_argument("--max-atoms", type=int, default=20)
    parser.add_argument("--json", action="store_true")
    return parser.parse_args(argv)


def main(args, semantics, theory_ops):
    rows = []
    for family in FAMILIES:
        for n in FAMILIES[family][1]:
            if n > args.max_atoms:
                break
            row = measure(semantics, theory_ops, family, n)
            row["over_budget"] = row["classical_s"] + row["sweep_s"] > BUDGET
            rows.append(row)
            if row["over_budget"]:
                break
    if args.json:
        print(json.dumps(rows, indent=2))
        return
    print(f"{'family':15} {'atoms':>5} {'classical s':>11} {'sweep s':>8} "
          f"{'list s':>7} {'path':>11} {'stable s':>8} {'stable':>7} "
          f"{'peak MiB':>8}")
    for row in rows:
        note = "  over budget: larger sizes skipped" if row["over_budget"] else ""
        print(f"{row['family']:15} {row['atoms']:5} {row['classical_s']:11.4f} "
              f"{row['sweep_s']:8.4f} {row['list_s']:7.4f} {row['path'] or '-':>11} "
              f"{row['stable_s']:8.4f} {row['stable']:7} {row['peak_mib']:8.3f}"
              + note)


if __name__ == "__main__":
    ARGS = parse_args()
    # The package to time is imported from the directory that holds it.
    sys.path.insert(0, str(Path(ARGS.package).resolve().parent))
    from stablemodels import semantics
    from stablemodels.parser import theory_ops

    main(ARGS, semantics, theory_ops)
