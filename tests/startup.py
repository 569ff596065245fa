"""Time the CLI's start-up: a fresh interpreter imports ``stablemodels.cli``
and answers ``models`` on ``p.``.

The probe runs in N fresh interpreters (default 30) per condition, one
at a time, the two conditions alternating, and the script prints the
median milliseconds from before the import to the answer for each:
without a bytecode cache for the package, so that every run compiles
its modules, and with one, written by an untimed first run.  The
standard library's cache is read in both.  Each condition runs on its
own copy of the package in a temporary directory, so the checkout's
``__pycache__`` is neither read nor written.  It reports and checks
nothing.

Run it from anywhere::

    python tests/startup.py [N]
"""

import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stablemodels"
PROBE = """\
import sys, time
start = time.perf_counter()
from stablemodels.cli import main
code = main(["models"])
sys.stderr.write(f"{time.perf_counter() - start}\\n")
sys.exit(code)
"""


def probe_seconds(src, flags=()):
    """Seconds from the import to the answer in one fresh interpreter
    with ``src`` on its path and ``flags`` on its command line."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    done = subprocess.run(
        [sys.executable, *flags, "-c", PROBE],
        input="p.\n", capture_output=True, text=True, env=env, check=True,
    )
    return float(done.stderr.split()[-1])


def main():
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 30
    with tempfile.TemporaryDirectory() as tmp:
        cold, warm = Path(tmp, "cold"), Path(tmp, "warm")
        for src in (cold, warm):
            shutil.copytree(
                PACKAGE, src / "stablemodels",
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        probe_seconds(warm)
        times = {"no bytecode cache": [], "bytecode cache": []}
        for _ in range(runs):
            # -B: the cold copy's bytecode is never written.
            times["no bytecode cache"].append(probe_seconds(cold, ["-B"]))
            times["bytecode cache"].append(probe_seconds(warm))
    print(f"{'runs':20} {runs:8}")
    for condition, seconds in times.items():
        print(f"{condition:20} {1000 * statistics.median(seconds):8.1f} ms")


if __name__ == "__main__":
    main()
