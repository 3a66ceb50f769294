"""The benchmark's workloads: their operation lists and what each traces.

One pass runs every operation of the list once.  Each list is a fixed
grid of commands, window lengths and sizes; the seed sets the order in
which each pass runs them (worker.py).  Sizes are not drawn from the
seed: costs grow like the fourth power of the size, and a one-step size
jitter of the 40 gf-large operations moved their median latency by 8%
between seeds, against 1.3% between runs of one seed."""

from __future__ import annotations

GF_KINDS = (
    ("table", "--format", "csv"),
    ("table", "--format", "json"),
    ("series-dump", "--kind", "gf"),
    ("series-dump", "--kind", "gf-q1"),
    ("series-dump", "--kind", "total-gf"),
)
GF_SIZES = (40, 45, 50, 55, 60)
VERIFY_SIZES = (15, 15, 15, 16, 16, 16, 17)
SMALL_CALLS = (
    ("staircase_gf_cramer", {}),
    ("staircase_gf_cramer", {"direct": True}),
    ("top_block_det", {"mode": "closed"}),
    ("top_block_det", {"mode": "recurrence"}),
    ("inner_block_det", {"mode": "closed"}),
    ("inner_block_det", {"mode": "recurrence"}),
    ("numerator_det", {}),
    ("denominator_det", {}),
)
SMALL_SIZES = (12, 16, 20, 25, 30)


def gf_large() -> list[dict]:
    """Every command kind at every window length 1..8.  Per length the five
    kinds take the five sizes 40..60 in rotation, so that each kind meets
    each size."""
    ops = []
    for m in range(1, 9):
        for k, (cmd, flag, value) in enumerate(GF_KINDS):
            size = GF_SIZES[(k + m) % len(GF_SIZES)]
            size_flag = "--max-n" if cmd == "table" else "--trunc"
            ops.append({"argv": [cmd, "--m", str(m), size_flag, str(size), flag, value]})
    return ops


def verify_enum() -> list[dict]:
    """verify at window lengths 1..6, each at totals 15, 16 and 17."""
    return [
        {"argv": ["verify", "--m", str(m), "--max-n", str(n)]}
        for m in range(1, 7)
        for n in VERIFY_SIZES
    ]


def crosscheck_small() -> list[dict]:
    """Each library call at sizes 1..7 and all five orders 12..30.  Block
    sizes follow the matrix each call reduces to: top blocks of size m,
    inner blocks of size m - 1."""
    ops = []
    for call, kwargs in SMALL_CALLS:
        for m in range(1, 8):
            size = m - 1 if call == "inner_block_det" else m
            for trunc in SMALL_SIZES:
                ops.append({"call": call, "args": [size, trunc], "kwargs": kwargs})
    return ops


OPERATIONS = {
    "gf-large": gf_large(),
    "verify-enum": verify_enum(),
    "crosscheck-small": crosscheck_small(),
}

# Spans each workload must record in the traced run (layers named for it),
# and span prefixes it must never record.
REQUIRED_SPANS = {
    "gf-large": (
        "series.mul", "series.inverse", "series.pow", "series.terms",
        "series.to_json_obj", "genfun.staircase_gf", "genfun.total_staircases_gf",
        "genfun.gf_at_q1", "cli.main",
    ),
    "verify-enum": ("oracle.staircase_histogram", "oracle.total_staircases", "cli.main"),
    "crosscheck-small": (
        "series.mul", "genfun.staircase_gf_cramer", "determinants.top_block_det",
        "determinants.inner_block_det", "determinants.det_division_free",
        "determinants.numerator_det", "determinants.denominator_det",
        "determinants.build_system",
    ),
}
FORBIDDEN_SPANS = {"gf-large": ("oracle.",), "verify-enum": (), "crosscheck-small": ()}

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_percentile(ops_per_pass: int) -> float:
    """The highest percentile of the ladder with at least ten samples of a
    single pass beyond it; fixed per workload, whatever the run length."""
    for p in TAIL_LADDER:
        if ops_per_pass * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0
