"""CLI answers stay byte-identical to the benchmark's recorded references.

Every request class of the ``enumerate``, ``loops`` and ``fuzz``
workloads is run through ``perfbench/run.py``'s ``call`` and compared by
``matches`` with ``perfbench/references/<workload>.json`` (exit code and
stdout digest): every instance of the classes that print loop formulas
(``loops`` and ``loops -i``), so that the printer is checked byte for
byte on the whole corpus, and instance 0 of every other class.  Nothing
under ``perfbench/`` is written.
"""

import sys
from pathlib import Path

import pytest

from stablemodels.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from run import call, load_references, matches  # noqa: E402
from workloads import WORKLOADS, instance  # noqa: E402

REPLAYED = ("enumerate", "loops", "fuzz")
REFERENCES = {workload: load_references(workload) for workload in REPLAYED}


def _replayed(workload, cls):
    """The requests of a class that are replayed."""
    first = instance(workload, cls, 0)
    count = WORKLOADS[workload].per_class if first.argv[0] == "loops" else 1
    return [first] + [instance(workload, cls, k) for k in range(1, count)]


CLASSES = [
    (workload, _replayed(workload, cls))
    for workload in REPLAYED
    for cls in range(len(WORKLOADS[workload].classes))
]


@pytest.mark.parametrize(
    "workload, requests",
    CLASSES,
    ids=[f"{workload}-{requests[0].kind}" for workload, requests in CLASSES],
)
def test_answer_matches_reference(workload, requests):
    for request_ in requests:
        code, out, _ = call(main, request_)
        assert matches(REFERENCES[workload], request_, code, out), (
            f"{list(request_.argv)} answered exit {code} with stdout:\n"
            + out.decode("utf-8")
        )
