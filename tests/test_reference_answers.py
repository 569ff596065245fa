"""CLI answers stay byte-identical to the benchmark's recorded references.

Instance 0 of every request class of the ``enumerate``, ``loops`` and
``fuzz`` workloads is run through ``perfbench/run.py``'s ``call`` and
compared by ``matches`` with ``perfbench/references/<workload>.json``
(exit code and stdout digest).  Nothing under ``perfbench/`` is written.
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
REQUESTS = [
    (workload, instance(workload, cls, 0))
    for workload in REPLAYED
    for cls in range(len(WORKLOADS[workload].classes))
]


@pytest.mark.parametrize(
    "workload, request_",
    REQUESTS,
    ids=[f"{workload}-{request.kind}" for workload, request in REQUESTS],
)
def test_answer_matches_reference(workload, request_):
    code, out, _ = call(main, request_)
    assert matches(REFERENCES[workload], request_, code, out), (
        f"{list(request_.argv)} answered exit {code} with stdout:\n"
        + out.decode("utf-8")
    )
