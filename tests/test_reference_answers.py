"""CLI answers stay byte-identical to the benchmark's recorded references.

Requests of the ``enumerate``, ``loops`` and ``fuzz`` workloads are run
through ``perfbench/run.py``'s ``call`` and compared by ``matches`` with
``perfbench/references/<workload>.json`` (exit code and stdout digest):
every instance of every ``enumerate`` and ``loops`` class, since each of
them goes through the parser and most through the printer, so both are
checked byte for byte on the whole corpus; and instance 0 of each
``fuzz`` class, whose campaigns parse no text.  Nothing under
``perfbench/`` is written.
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
    count = 1 if workload == "fuzz" else WORKLOADS[workload].per_class
    return [instance(workload, cls, k) for k in range(count)]


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
