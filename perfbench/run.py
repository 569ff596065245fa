"""Benchmark: time to a verdict for requests to the `stablemodels` CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload enumerate|loops|fuzz --seed N \
        --seconds S --trace 0|1

One client sends requests in a closed loop: each request is one
in-process call of ``stablemodels.cli.main(argv)`` with standard input
and output redirected, and the next is sent when it returns.  The
requests run in a fresh child interpreter, one workload per run.  Every
answer (exit code and a digest of the stdout bytes) is compared with the
reference recorded by ``perfbench/record.py``; a mismatch or an
exception counts as a failed request and does not stop the run.

With ``--trace 0`` the run reports the end-to-end metrics.  The loop
runs whole cycles of the workload until ``--seconds`` have passed and at
least ``MIN_REQUESTS`` requests are done, so the 90th percentile has at
least ten requests beyond it.  Before the loop, ``setup_s`` times fresh
interpreters, one at a time, from before they import ``stablemodels.cli``
to the exit code of one trivial request, and reports the median.

With ``--trace 1`` the run takes a fixed set of requests (the first
cycles of the seed's stream) and, after one untimed pass, alternates
untraced and traced passes over it for ``--seconds``.  It reports per-layer self times (median over
the traced passes), work counts (which must repeat exactly in every
traced pass) and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the same figures,
with the environment, go to ``perfbench/out/<workload>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS, Request, cycles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references"
OUT = HERE / "out"

MIN_REQUESTS = 110
SETUP_ROUNDS = 11
# A trivial request: the set-up probe and the untimed warm-up call.
TRIVIAL = Request("trivial", ("models",), "p.\n")
WORKER_TIMEOUT_S = 170


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def load_references(workload: str) -> dict[str, str]:
    with open(REFERENCES / f"{workload}.json", encoding="utf-8") as handle:
        return json.load(handle)["answers"]


def call(main, request: Request) -> tuple[object, bytes, float]:
    """Run one request in process: (exit code, stdout bytes, seconds).

    The exit code is None when the call raised.
    """
    stdout = io.StringIO()
    error = "returned no exit code"
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(request.stdin)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                code = main(list(request.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # one failed request must not stop the run
                code = None
                error = traceback.format_exc()
            seconds = time.perf_counter() - start
    finally:
        sys.stdin = saved_stdin
    if code is None:
        print(f"{request.kind} {list(request.argv)} failed:\n{error}", file=sys.stderr)
    return code, stdout.getvalue().encode("utf-8"), seconds


def answer(code, out: bytes) -> str:
    """How a reference answer is stored: exit code and stdout digest."""
    return f"{code} {digest(out)}"


def matches(references: dict, request: Request, code, out: bytes) -> bool:
    return code is not None and references.get(request.key) == answer(code, out)


# ---------------------------------------------------------------------------
# Speed calibration.  On a shared virtual machine the speed drifts:
# co-tenants slow every instruction, CPU time as much as wall time, by up
# to 2x, from one request to the next and for minutes at a time.  A short
# pure-Python loop that allocates and hashes small frozensets, as the
# program does, is timed before every request and after the last.  Each
# request's time is scaled to the reference speed: multiplied by
# CALIBRATION_REFERENCE_S over the mean of the two calibrations around it.
# Times in the metrics are therefore milliseconds at the reference speed;
# the raw ones go to the result file.

CALIBRATION_ROUNDS = 8000
# The loop's time on the machine the references were recorded on, unloaded.
CALIBRATION_REFERENCE_S = 0.002


def calibrate() -> float:
    found: set[frozenset[int]] = set()
    start = time.perf_counter()
    for i in range(CALIBRATION_ROUNDS):
        found.add(frozenset((i & 15, i & 7)))
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    return seconds * CALIBRATION_REFERENCE_S * 2 / (before + after)


# ---------------------------------------------------------------------------
# Worker: runs in a fresh interpreter and prints one JSON object.


@dataclass
class Served:
    kinds: list[str] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)  # scaled seconds
    raw: list[float] = field(default_factory=list)
    failed: int = 0
    done: int = 0
    cases: int = 0
    stdout_bytes: int = 0
    wall: float = 0.0
    exhausted: bool = False


def serve(main, references, stream, seconds=0.0, min_requests=0, tracer=None) -> Served:
    """Send the stream's requests one at a time, cycle by cycle.

    Stops at the end of the first cycle that finds ``seconds`` passed and
    ``min_requests`` sent.  With a tracer, each request is a root span.
    """
    root = main if tracer is None else tracer.wrap("cli.main", main)
    out = Served()
    before = calibrate()
    start = time.perf_counter()
    for cycle in stream:
        for request in cycle:
            if tracer is not None:
                tracer.request = len(out.raw)
            code, stdout, elapsed = call(root, request)
            after = calibrate()
            out.kinds.append(request.kind)
            out.raw.append(elapsed)
            out.latencies.append(scaled(elapsed, before, after))
            before = after
            out.stdout_bytes += len(stdout)
            if matches(references, request, code, stdout):
                out.done += 1
                out.cases += request.cases
            else:
                out.failed += 1
        if time.perf_counter() - start >= seconds and len(out.raw) >= min_requests:
            break
    else:
        out.exhausted = True
    out.wall = time.perf_counter() - start
    return out


def closed_loop(main, references, workload: str, seed: int, seconds: float) -> dict:
    call(main, TRIVIAL)
    served = serve(main, references, cycles(workload, seed), seconds, MIN_REQUESTS)
    if served.exhausted:
        print(f"warning: the {workload} corpus ran out after {served.wall:.1f} s",
              file=sys.stderr)
    latencies = served.latencies
    p90 = statistics.quantiles(latencies, n=10)[8]
    busy = sum(latencies)
    by_kind: dict[str, list[float]] = {}
    for kind, latency in zip(served.kinds, latencies):
        by_kind.setdefault(kind, []).append(latency * 1e3)
    return {
        "attempted": len(latencies),
        "failed": served.failed,
        "wall_s": served.wall,
        "beyond_p90": sum(1 for x in latencies if x > p90),
        "class_p50_ms": {kind: statistics.median(v) for kind, v in sorted(by_kind.items())},
        "raw": {
            "verdict_p50_ms": statistics.median(served.raw) * 1e3,
            "verdict_p90_ms": statistics.quantiles(served.raw, n=10)[8] * 1e3,
            "requests_per_s": served.done / served.wall,
            "fuzz_cases_per_s": served.cases / served.wall,
        },
        "metrics": {
            "verdict_p50_ms": statistics.median(latencies) * 1e3,
            "verdict_p90_ms": p90 * 1e3,
            "requests_per_s": served.done / busy,
            "fuzz_cases_per_s": served.cases / busy,
        },
    }


def traced_loop(main, references, workload: str, seed: int, seconds: float) -> dict:
    requests = list(chain.from_iterable(
        islice(cycles(workload, seed), WORKLOADS[workload].traced_cycles)))
    # An untimed pass first, so that neither side pays first-call costs.
    serve(main, references, [requests])
    untraced: list[float] = []
    traced: list[float] = []
    passes: list[dict] = []
    failed = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(traced) < 2:
        served = serve(main, references, [requests])
        untraced.append(sum(served.latencies))
        failed += served.failed
        tracer = Tracer()
        tracer.install()
        try:
            served = serve(main, references, [requests], tracer=tracer)
        finally:
            tracer.remove()
        traced.append(sum(served.latencies))
        failed += served.failed
        scale = [s / r for s, r in zip(served.latencies, served.raw)]
        passes.append(dict(tracer.metrics(scale),
                           **{"cli.stdout_bytes": served.stdout_bytes}))
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{workload}-spans.csv")

    metrics = {}
    repeat = True
    for name, first in passes[0].items():
        if name.endswith("_ms"):
            metrics[name] = statistics.median(p[name] for p in passes)
        else:
            metrics[name] = first
            repeat &= all(p[name] == first for p in passes)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    return {
        "attempted": len(requests) * (len(traced) + len(untraced)),
        "failed": failed,
        "counts_repeat": repeat,
        "passes": len(traced),
        "requests_per_pass": len(requests),
        "absent": tracer.absent,
        "metrics": metrics,
    }


def worker(args) -> int:
    sys.path.insert(0, str(SRC))
    from stablemodels import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {cli.__file__}, not the checkout's", file=sys.stderr)
        return 2
    references = load_references(args.workload)
    loop = traced_loop if args.trace else closed_loop
    result = loop(cli.main, references, args.workload, args.seed, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Parent: set-up probe, worker process, report.


# Run by a fresh interpreter: import the CLI and answer one request,
# timed from before the import to the exit code, between two
# calibrations.  Only `sys` and `time` are imported before the clock
# starts, so the CLI pays for every module it needs.
SETUP_PROBE = """\
import sys
import time
CALIBRATION_ROUNDS = {rounds}
{calibrate}
before = calibrate()
start = time.perf_counter()
from stablemodels.cli import main
code = main(sys.argv[1:])
elapsed = time.perf_counter() - start
sys.stderr.write(f"{{elapsed}} {{before}} {{calibrate()}}\\n")
sys.exit(code)
"""


def measure_setup(references) -> tuple[float, bool]:
    """Median scaled seconds for a fresh interpreter to import the CLI and answer TRIVIAL."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = SETUP_PROBE.format(rounds=CALIBRATION_ROUNDS, calibrate=inspect.getsource(calibrate))
    command = [sys.executable, "-c", probe, *TRIVIAL.argv]
    times = []
    ok = True
    # Round 0 is untimed: it compiles the bytecode, which users pay once.
    for round_ in range(SETUP_ROUNDS + 1):
        proc = subprocess.run(command, input=TRIVIAL.stdin.encode(), capture_output=True,
                              env=env, cwd=ROOT, timeout=60)
        ok &= references.get(TRIVIAL.key) == answer(proc.returncode, proc.stdout)
        try:
            elapsed, before, after = map(float, proc.stderr.split()[-3:])
        except ValueError:  # the probe failed before it reported its times
            ok = False
            continue
        if round_:
            times.append(scaled(elapsed, before, after))
    if not times:
        raise RuntimeError("the set-up probe never reported its times")
    return statistics.median(times), ok


def run_worker(args) -> dict:
    # Set iteration order changes the cost of the program's subset searches
    # (where a reachability search starts, for one), so every run uses the
    # same order and only the inputs change with the seed.
    env = dict(os.environ, PYTHONHASHSEED="0")
    command = [sys.executable, str(Path(__file__).resolve()), "--worker",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.decode().splitlines()[-1])


def environment() -> dict:
    revision = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                      text=True, timeout=10).stdout.strip() or revision
    return {"python": platform.python_version(), "revision": revision,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def declared_metrics(trace: int) -> dict[str, str]:
    """Name and unit of each metric BENCHMARK.json lists for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "stablemodels" / "cli.py").is_file():
        print(f"error: no stablemodels sources under {SRC}", file=sys.stderr)
        return 2
    if not (REFERENCES / f"{args.workload}.json").is_file():
        print(f"error: no reference answers for {args.workload}", file=sys.stderr)
        return 2
    if args.worker:
        return worker(args)

    references = load_references(args.workload)
    setup_ok = True
    if not args.trace:
        setup_s, setup_ok = measure_setup(references)
    result = run_worker(args)
    metrics = result.pop("metrics")
    if not args.trace:
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
    declared = declared_metrics(args.trace)
    if set(metrics) != set(declared):
        print(f"error: measured {sorted(metrics)}, BENCHMARK.json lists {sorted(declared)}",
              file=sys.stderr)
        return 1
    correct = setup_ok and result["failed"] == 0 and result.get("counts_repeat", True)
    failed_frac = result["failed"] / result["attempted"]

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{result['attempted']} requests, failed_frac {failed_frac:g}"
          + ("" if setup_ok else ", set-up answer WRONG"))
    if args.trace:
        print(f"{result['passes']} traced passes of {result['requests_per_pass']} requests;"
              f" work counts repeat: {result['counts_repeat']};"
              f" absent: {', '.join(result['absent']) or 'none'}")
    else:
        print(f"{result['attempted']} samples, {result['beyond_p90']} beyond p90,"
              f" {result['wall_s']:.1f} s")
    for name, unit in declared.items():
        print(f"  {name:34} {metrics[name]:14.4f} {unit}")

    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, correct=correct, failed_frac=failed_frac,
                  metrics=metrics, environment=environment())
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
