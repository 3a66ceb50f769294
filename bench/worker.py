"""One workload's operations against staircomp, as a closed loop with one caller.

Started by run.py in a process of its own, single-threaded.  It reads a
job (JSON on stdin), imports staircomp from the job's source directory,
runs whole passes of the operation list until the run time is used up
and prints timings as one JSON object on stdout.  Each pass runs the
operations in an order of its own, drawn from the job's seed, so a run
averages over orders instead of depending on one.

The outcomes of the first pass are written to the job's outputs file, for
run.py to check against the reference.  Every later outcome is compared
with the first pass by its digest, so each operation is checked while the
reference stays out of this process and out of its peak memory.

With tracing on, the first half of the run time is untraced and the rest
traced; the two give the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import resource
import sys
import traceback
from time import perf_counter, process_time

from tracer import Tracer


class Sink:
    """Stand-in for stdout that keeps the strings written to it."""

    def __init__(self):
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def series_text(series) -> str:
    """A series as text: its trunc, then one line "a b s c" per nonzero
    term, through the public ``trunc`` and ``terms()`` only."""
    lines = [f"trunc {series.trunc}"]
    lines.extend(f"{a} {b} {s} {c}" for (a, b, s), c in series.terms())
    return "\n".join(lines) + "\n"


def run_op(package, op: dict, tracer: Tracer | None):
    """(rc, output text, wall s, cpu s) of one operation; rc is 0 on success."""
    sink = Sink()
    result = None
    with contextlib.redirect_stdout(sink):
        if tracer is not None:
            tracer.active = True
        t0, c0 = perf_counter(), process_time()
        try:
            if "argv" in op:
                rc = package.cli.main(list(op["argv"]))
            else:
                result = getattr(package, op["call"])(*op["args"], **op["kwargs"])
                rc = 0
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an operation that raises counts as failed
            rc = f"{type(exc).__name__}: {exc}"
        c1, t1 = process_time(), perf_counter()
        if tracer is not None:
            tracer.active = False
    if isinstance(rc, str):
        traceback.print_exc()
    text = "".join(sink.parts) if result is None else series_text(result)
    return rc, text, t1 - t0, c1 - c0


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    import staircomp
    import staircomp.cli  # noqa: F401  (the package does not import its CLI)

    ops, seconds = job["ops"], job["seconds"]
    tracer = Tracer() if job["trace"] else None
    first: dict[int, tuple[object, str]] = {}  # op index -> (rc, digest) in pass 1
    passes: list[dict] = []
    failed = mismatched = 0
    bytes_out = 0
    start = perf_counter()

    def run_pass(traced: bool) -> None:
        nonlocal failed, mismatched, bytes_out
        lat, cpu = [], []
        order = list(range(len(ops)))
        random.Random(f"{job['seed']}:{len(passes)}").shuffle(order)
        out = open(job["outputs"], "w", encoding="utf-8") if not passes else None
        try:
            for i in order:
                rc, text, wall, spent = run_op(staircomp, ops[i], tracer if traced else None)
                lat.append(wall)
                cpu.append(spent)
                failed += rc != 0
                data = text.encode()
                if traced and "argv" in ops[i]:
                    bytes_out += len(data)
                digest = hashlib.sha256(data).hexdigest()
                if out is not None:
                    first[i] = (rc, digest)
                    out.write(json.dumps({"i": i, "rc": rc, "out": text}) + "\n")
                elif (rc, digest) != first[i]:
                    mismatched += 1
        finally:
            if out is not None:
                out.close()
        passes.append({"traced": traced, "lat": lat, "cpu": cpu})

    untraced_until = seconds / 2 if tracer else seconds
    while not passes or perf_counter() - start < untraced_until:
        run_pass(False)
    if tracer is not None:
        tracer.install(staircomp)
        run_pass(True)
        while perf_counter() - start < seconds:
            run_pass(True)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    json.dump({
        "passes": passes,
        "failed": failed,
        "mismatched": mismatched,
        "peak_rss_kb": peak_kb,
        "bytes_out": bytes_out,
        "trace": tracer.summary() if tracer else None,
    }, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
