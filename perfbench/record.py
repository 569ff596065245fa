"""Record the reference answers that every benchmark request is checked against.

Usage, from the repository root:

    python3 perfbench/record.py [enumerate] [loops] [fuzz]

Runs every request of each named workload's corpus (all three by
default) through the program in process and writes
``perfbench/references/<workload>.json``.  For each request, keyed by a
digest of its argv and stdin, the file holds one string: the exit code
and a digest of the stdout bytes.  Before writing, it checks the answers
that are known without trusting the program:

- free choice: the stable models are all 2^n subsets of the atoms;
- `loops -i` on at most ORACLE_MAX_ATOMS atoms: the loop-formula oracle
  over every atom subset (`stable_via_all_sets`) agrees with the
  pnn-loop verdict, and a stable interpretation is accepted by the
  sp-loop oracle;
- `split` under pnn: conditions that pass imply the equivalence, so
  the exit code is never 4;
- `tight`: the sp graph is cyclic, so the answer is exit code 3 and no
  model enumeration;
- `fuzz`: exit code 0 for the theorems, 5 for `loop-oracle-sp`;
- no two requests of a corpus share an input.

Re-record only when the workloads change; a change to the program must
keep its answers byte-identical.
"""

from __future__ import annotations

import itertools
import json
import re
import sys

from run import REFERENCES, SRC, TRIVIAL, answer, call, environment
from workloads import WORKLOADS, Request, corpus

sys.path.insert(0, str(SRC))

from stablemodels import cli  # noqa: E402
from stablemodels.loopformulas import stable_via_all_sets  # noqa: E402
from stablemodels.parser import parse_formula  # noqa: E402

# stable_via_all_sets builds 2^n loop formulas; beyond this it is too slow.
ORACLE_MAX_ATOMS = 11


def _stable_line(text: str) -> set[frozenset[str]]:
    line = next(x for x in text.splitlines() if x.startswith("stable:"))
    return {frozenset(m.split()) for m in re.findall(r"\{([^}]*)\}", line)}


def check(request: Request, code: int, out: str) -> list[str]:
    """Independently known facts that the answer contradicts."""
    facts, problems = request.facts, []
    if "free_choice" in facts:
        atoms = facts["free_choice"]
        expected = {
            frozenset(c) for k in range(len(atoms) + 1) for c in itertools.combinations(atoms, k)
        }
        if request.argv[-1] == "--json":
            stable = {frozenset(m) for m in json.loads(out)["stable"]}
        else:
            stable = _stable_line(out)
        if stable != expected:
            problems.append("free choice: stable models are not all subsets")
    if "interpretation" in facts and facts["atoms"] <= ORACLE_MAX_ATOMS:
        interp = frozenset(facts["interpretation"])
        stable = stable_via_all_sets(interp, parse_formula(request.stdin.strip()))
        accepted = "accepted by" in out.splitlines()[-1]
        if facts["graph"] == "pnn" and accepted != stable:
            problems.append("pnn-loop verdict differs from stable_via_all_sets")
        if facts["graph"] == "sp" and stable and not accepted:
            problems.append("sp-loop oracle rejects a stable interpretation")
    if request.argv[0] == "split" and facts["graph"] == "pnn" and code == 4:
        problems.append("pnn splitting conditions pass but the equivalence fails")
    if request.argv[0] == "tight" and (code != 3 or "supported models" in out):
        problems.append("tight: expected a cyclic sp graph and no enumeration")
    if "exit" in facts and code != facts["exit"]:
        problems.append(f"exit code {code}, expected {facts['exit']}")
    if code is None:
        problems.append("the request raised")
    return problems


def record(workload: str) -> int:
    answers: dict[str, str] = {}
    bad = 0
    for request in itertools.chain([TRIVIAL], corpus(workload)):
        if request.key in answers:
            print(f"{workload}: duplicate input {request.kind} {request.key}", file=sys.stderr)
            bad += 1
            continue
        code, out, _ = call(cli.main, request)
        for problem in check(request, code, out.decode("utf-8")):
            print(f"{workload}: {request.kind} {list(request.argv)}: {problem}", file=sys.stderr)
            bad += 1
        answers[request.key] = answer(code, out)
    if bad:
        return bad
    REFERENCES.mkdir(exist_ok=True)
    document = {
        "workload": workload,
        "requests": len(answers),
        "recorded_with": environment(),
        "answers": answers,
    }
    path = REFERENCES / f"{workload}.json"
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{workload}: {len(answers)} answers -> {path}")
    return 0


def main(argv: list[str]) -> int:
    names = argv or sorted(WORKLOADS)
    unknown = set(names) - set(WORKLOADS)
    if unknown:
        print(f"unknown workloads: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    return 1 if sum(record(name) for name in names) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
