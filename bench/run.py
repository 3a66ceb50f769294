"""Benchmark of staircomp: one workload per run, its metrics as one JSON line.

    python3 bench/run.py --workload gf-large --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports staircomp from ./src and
writes only under bench/out/.  The run

1. builds the workload's operation list (workloads.py); the seed sets
   the order of each pass;
2. with --trace 0, times fresh imports of staircomp (setup_s);
3. runs the operations in worker.py, a single-threaded process of its
   own, in whole passes for --seconds seconds;
4. checks every outcome against reference.py, which never imports
   staircomp;
5. prints {"correct", "attempted", "failed", "metrics"} as its last line:
   the end-to-end metrics with --trace 0, the per-layer metrics of a
   traced run with --trace 1.

It exits 0 when every outcome was right, 1 when one was wrong or the run
failed, and 2 on a usage error or when ./src holds no staircomp.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads
from tracer import MODULES as LAYERS

BENCH = Path(__file__).resolve().parent
TIME_LIMIT_S = 170  # the whole run, worker included
SETUP_SAMPLES = 15
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import staircomp, staircomp.cli
print(time.perf_counter() - t0)
"""

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MiB",
}

DETERMINANTS = tuple(
    f"determinants.{fn}" for fn in (
        "top_block_det", "inner_block_det", "det_division_free",
        "numerator_det", "denominator_det", "build_system",
    )
)
ORACLE = ("oracle.staircase_histogram", "oracle.total_staircases")
CALL_SPANS = ("series.mul", "series.inverse", "series.pow", *DETERMINANTS, *ORACLE)
SELF_SPANS = (
    "series.mul", "series.inverse", "series.pow", "series.terms", "series.to_json_obj",
    "genfun.staircase_gf", *DETERMINANTS, *ORACLE, "cli.main",
)
TOTAL_SPANS = (
    "genfun.staircase_gf", "genfun.total_staircases_gf", "genfun.gf_at_q1",
    "genfun.staircase_gf_cramer",
)
COUNTS = {
    "series.mul.terms_out": "terms/op",
    "series.mul.products": "products/op",  # computed from operand slice sizes
    "oracle.compositions": "compositions/op",  # computed from the call arguments
}

PER_LAYER = {
    **{f"{s}.calls": "calls/op" for s in CALL_SPANS},
    **{f"{s}.self_ms": "ms/op" for s in SELF_SPANS},
    **{f"{s}.total_ms": "ms/op" for s in TOTAL_SPANS},
    **COUNTS,
    "series.max_coeff_bits": "bits",
    "cli.bytes_out": "bytes/op",
    "trace.overhead": "ratio",
    **{f"layer.{layer}.share": "%" for layer in (*LAYERS, "tracing", "other")},
}


def measure_setup(src: Path, out_dir: Path) -> float:
    """Median time a fresh interpreter takes to import staircomp and its CLI,
    timed inside the interpreter so that starting it is not counted.

    Bytecode is cached under out_dir whatever the environment says, and an
    untimed first import fills that cache, so compiling is not counted.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    cmd = [sys.executable, "-X", f"pycache_prefix={out_dir / 'pycache'}",
           "-c", SETUP_CODE, str(src)]
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              check=True, timeout=60)
        samples.append(float(proc.stdout))
    return statistics.median(samples[1:])


def run_worker(job: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")],
        input=json.dumps(job), stdout=subprocess.PIPE, text=True,
        timeout=timeout, check=True,
    )
    return json.loads(proc.stdout.strip().rpartition("\n")[2])


def check_outputs(ops: list[dict], path: Path) -> list[str]:
    """Problems found in the first pass's outcomes; failed operations are
    counted by the worker and not repeated here."""
    problems = []
    with open(path, encoding="utf-8") as fh:
        seen = 0
        for line in fh:
            rec = json.loads(line)
            seen += 1
            if rec["rc"] != 0:
                continue
            problem = reference.check(ops[rec["i"]], rec["rc"], rec["out"])
            if problem:
                problems.append(f"op {rec['i']} {ops[rec['i']]}: {problem}")
    if seen != len(ops):
        problems.append(f"{seen} outcomes recorded for {len(ops)} operations")
    return problems


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(len(sorted_values) * p / 100))
    return sorted_values[rank - 1]


def end_to_end(result: dict, setup_s: float, ops_per_pass: int) -> dict:
    lat = sorted(v for p in result["passes"] for v in p["lat"])
    cpu = sum(v for p in result["passes"] for v in p["cpu"])
    return {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_tail_ms": percentile(lat, workloads.tail_percentile(ops_per_pass)) * 1000,
        "cpu_ms_per_op": cpu / len(lat) * 1000,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }


def per_layer(result: dict) -> dict:
    trace = result["trace"]
    spans = trace["spans"]
    traced = [p for p in result["passes"] if p["traced"]]
    untraced = [p for p in result["passes"] if not p["traced"]]
    ops = sum(len(p["lat"]) for p in traced)
    op_s = sum(sum(p["lat"]) for p in traced)

    def field(name, key):
        return spans.get(name, {}).get(key, 0)

    metrics = {}
    for name in CALL_SPANS:
        metrics[f"{name}.calls"] = field(name, "calls") / ops
    for name in SELF_SPANS:
        metrics[f"{name}.self_ms"] = field(name, "self_s") * 1000 / ops
    for name in TOTAL_SPANS:
        metrics[f"{name}.total_ms"] = field(name, "total_s") * 1000 / ops
    for name in COUNTS:
        metrics[name] = trace["counts"].get(name, 0) / ops
    metrics["series.max_coeff_bits"] = trace["max_coeff_bits"]
    metrics["cli.bytes_out"] = result["bytes_out"] / ops
    untraced_pass_s = statistics.mean(sum(p["lat"]) for p in untraced)
    metrics["trace.overhead"] = (op_s / len(traced)) / untraced_pass_s
    shares = {
        layer: sum(s["self_s"] for n, s in spans.items() if n.startswith(layer + "."))
        for layer in LAYERS
    }
    shares["tracing"] = trace["bookkeeping_s"]  # taking counts, outside every span
    shares["other"] = op_s - sum(shares.values())  # the harness, outside every span
    for layer, self_s in shares.items():
        metrics[f"layer.{layer}.share"] = 100 * self_s / op_s
    return metrics


def self_check(workload: str, spans: dict) -> list[str]:
    """Every layer named for the workload records a span; none it must not."""
    problems = [
        f"traced run recorded no {name} span"
        for name in workloads.REQUIRED_SPANS[workload]
        if not spans.get(name, {}).get("calls")
    ]
    problems += [
        f"traced run recorded {name} spans, which {workload} should not reach"
        for name in spans
        if name.startswith(workloads.FORBIDDEN_SPANS[workload])
    ]
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.OPERATIONS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    src = Path.cwd() / "src"
    if not (src / "staircomp" / "__init__.py").is_file():
        print(f"error: no staircomp sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outputs = out_dir / f"outputs-{tag}.jsonl"

    ops = workloads.OPERATIONS[args.workload]
    job = {"ops": ops, "seed": f"{args.workload}:{args.seed}",
           "seconds": args.seconds, "trace": args.trace,
           "src": str(src), "outputs": str(outputs)}
    try:
        setup_s = None if args.trace else measure_setup(src, out_dir)
        result = run_worker(job, TIME_LIMIT_S - (time.perf_counter() - started))
        problems = check_outputs(ops, outputs)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: worker run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        outputs.unlink(missing_ok=True)
    if result["mismatched"]:
        problems.append(f"{result['mismatched']} outcomes differ from the first pass")

    if args.trace:
        metrics, units = per_layer(result), PER_LAYER
        problems += self_check(args.workload, result["trace"]["spans"])
        report = {"workload": args.workload, "seed": args.seed, "metrics": metrics,
                  "problems": problems, **result["trace"]}
        (out_dir / f"trace-{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
        shares = ", ".join(f"{layer} {metrics[f'layer.{layer}.share']:.1f}%"
                           for layer in (*LAYERS, "tracing", "other"))
        print(f"share of op time: {shares}; tracing overhead "
              f"{metrics['trace.overhead']:.3f}x", file=sys.stderr)
    else:
        metrics, units = end_to_end(result, setup_s, len(ops)), END_TO_END
    for problem in problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)

    attempted = sum(len(p["lat"]) for p in result["passes"])
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
