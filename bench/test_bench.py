"""Tests of the benchmark itself: its reference, its checkers and its tracer.

    python3 -m unittest discover -s bench

The reference is checked against a brute-force enumeration written here;
each workload's checker is shown to accept the program's real outputs and
to reject corrupted ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from math import comb
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import staircomp  # noqa: E402
import staircomp.cli  # noqa: E402,F401
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import series_text  # noqa: E402


def brute_force(m: int, max_a: int) -> reference.Terms:
    """Count windows in every composition of every a <= max_a directly."""
    out = {(0, 0, 0): 1}

    def compositions(a):
        if a == 0:
            yield ()
            return
        for first in range(1, a + 1):
            for rest in compositions(a - first):
                yield (first,) + rest

    for a in range(1, max_a + 1):
        for parts in compositions(a):
            s = sum(
                all(parts[i + j] >= j + 1 for j in range(m))
                for i in range(len(parts) - m + 1)
            )
            key = (a, len(parts), s)
            out[key] = out.get(key, 0) + 1
    return out


def multiply(f: reference.Terms, g: reference.Terms, trunc: int) -> reference.Terms:
    out: reference.Terms = {}
    for (a1, b1, s1), c1 in f.items():
        for (a2, b2, s2), c2 in g.items():
            if a1 + a2 <= trunc:
                key = (a1 + a2, b1 + b2, s1 + s2)
                out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def add(*series: reference.Terms) -> reference.Terms:
    out: reference.Terms = {}
    for f in series:
        for k, v in f.items():
            out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def run_cli(*argv) -> tuple[int, str]:
    from staircomp import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([str(a) for a in argv])
    return rc, buf.getvalue()


class ReferenceTest(unittest.TestCase):
    MAX_A = 11

    def test_master_series_matches_enumeration(self):
        for m in range(1, 6):
            with self.subTest(m=m):
                self.assertEqual(reference.master_series(m, self.MAX_A), brute_force(m, self.MAX_A))

    def test_totals_and_marginal_match_enumeration(self):
        for m in range(1, 5):
            counts = brute_force(m, self.MAX_A)
            totals, marginal = {}, {}
            for (a, b, s), c in counts.items():
                if s:
                    totals[a, b, 0] = totals.get((a, b, 0), 0) + s * c
                marginal[a, b, 0] = marginal.get((a, b, 0), 0) + c
            with self.subTest(m=m):
                self.assertEqual(reference.totals_series(m, self.MAX_A), totals)
                self.assertEqual(reference.marginal_series(m, self.MAX_A), marginal)

    def test_determinant_ratio_is_the_master_series(self):
        trunc = 14
        for m in range(1, 7):
            with self.subTest(m=m):
                f = reference.master_series(m, trunc)
                self.assertEqual(
                    multiply(f, reference.denominator(m, trunc), trunc),
                    reference.numerator(m, trunc),
                )

    def test_block_families_follow_their_recurrences(self):
        """d_k = (1 - w (1+z)) d_{k-1} + w z d_{k-2} with w = x^i y and
        z = -1/(1-x); i = k - 1 for top blocks and i = k for inner ones."""
        trunc = 16
        z = {(a, 0, 0): -1 for a in range(trunc + 1)}
        one_plus_z = add({(0, 0, 0): 1}, z)

        def step(i, prev, prev2):
            w = {(i, 1, 0): 1}
            lead = add({(0, 0, 0): 1}, {k: -v for k, v in multiply(w, one_plus_z, trunc).items()})
            return add(multiply(lead, prev, trunc), multiply(multiply(w, z, trunc), prev2, trunc))

        top = [reference.top_block(k, trunc) for k in range(8)]
        self.assertEqual((top[0], top[1]), ({}, {(0, 0, 0): 1}))
        for k in range(2, 8):
            self.assertEqual(top[k], step(k - 1, top[k - 1], top[k - 2]), k)
        inner = {k: reference.inner_block(k, trunc) for k in range(-1, 7)}
        self.assertEqual((inner[-1], inner[0]), ({(0, 0, 0): 1}, {(0, 0, 0): 1}))
        for k in range(1, 7):
            self.assertEqual(inner[k], step(k, inner[k - 1], inner[k - 2]), k)

    def test_closed_total_is_the_paper_formula(self):
        self.assertEqual(reference.window_total(13, 5, 3), 3 * comb(9, 4))
        self.assertEqual(reference.window_total(5, 1, 2), 0)


class CheckerTest(unittest.TestCase):
    """Each workload's checker accepts real outputs and rejects a changed
    coefficient, a dropped row and a failed operation."""

    def assertRejects(self, op, rc, out):
        self.assertIsNotNone(reference.check(op, rc, out), out[:200])

    def corrupt(self, op, out, change, drop):
        self.assertIsNone(reference.check(op, 0, out))
        self.assertRejects(op, 0, change(out))
        self.assertRejects(op, 0, drop(out))
        self.assertRejects(op, 1, out)

    def test_gf_large_table(self):
        for fmt in ("csv", "json"):
            op = {"argv": ["table", "--m", "2", "--max-n", "12", "--format", fmt]}
            rc, out = run_cli(*op["argv"])
            self.assertEqual(rc, 0)
            if fmt == "csv":
                lines = out.splitlines(keepends=True)
                changed = lines[:5] + [lines[5].rstrip("\n") + "0\n"] + lines[6:]
                change = lambda o: "".join(changed)  # noqa: E731
                drop = lambda o: "".join(lines[:5] + lines[6:])  # noqa: E731
            else:
                rows = json.loads(out)
                changed = [dict(r) for r in rows]
                changed[4]["count"] = str(int(changed[4]["count"]) + 1)
                change = lambda o: json.dumps(changed)  # noqa: E731
                drop = lambda o: json.dumps(rows[:4] + rows[5:])  # noqa: E731
            with self.subTest(fmt=fmt):
                self.corrupt(op, out, change, drop)

    def test_gf_large_series_dump(self):
        for kind in ("gf", "gf-q1", "total-gf"):
            op = {"argv": ["series-dump", "--m", "3", "--trunc", "12", "--kind", kind]}
            rc, out = run_cli(*op["argv"])
            self.assertEqual(rc, 0)
            obj = json.loads(out)

            def edit(fn):
                return lambda o: json.dumps({**obj, "terms": fn(list(obj["terms"]))})

            def bump(terms):
                terms[3] = {**terms[3], "c": str(int(terms[3]["c"]) - 1)}
                return terms

            with self.subTest(kind=kind):
                self.corrupt(op, out, edit(bump), edit(lambda t: t[:3] + t[4:]))

    def test_verify_enum(self):
        op = {"argv": ["verify", "--m", "2", "--max-n", "8"]}
        rc, out = run_cli(*op["argv"])
        self.assertEqual(rc, 0)
        lines = out.splitlines(keepends=True)
        self.corrupt(
            op, out,
            lambda o: o.replace("PASS", "FAIL", 1),
            lambda o: "".join(lines[:1] + lines[2:]),
        )

    def test_crosscheck_small(self):
        for call, kwargs in workloads.SMALL_CALLS:
            op = {"call": call, "args": [3, 12], "kwargs": kwargs}
            out = series_text(getattr(staircomp, call)(*op["args"], **kwargs))
            lines = out.splitlines(keepends=True)
            a, b, s, c = lines[4].split()
            changed = lines[:4] + [f"{a} {b} {s} {int(c) + 1}\n"] + lines[5:]
            with self.subTest(call=call, **kwargs):
                self.corrupt(
                    op, out,
                    lambda o: "".join(changed),
                    lambda o: "".join(lines[:4] + lines[5:]),
                )
                self.assertRejects(op, "ValueError: boom", out)


class TracerTest(unittest.TestCase):
    def test_spans_reach_every_layer_of_each_workload(self):
        from worker import run_op

        samples = {
            "gf-large": [{"argv": ["table", "--m", "2", "--max-n", "10", "--format", "csv"]}] + [
                {"argv": ["series-dump", "--m", "2", "--trunc", "10", "--kind", kind]}
                for kind in ("gf", "gf-q1", "total-gf")
            ],
            "verify-enum": [{"argv": ["verify", "--m", "2", "--max-n", "6"]}],
            "crosscheck-small": [{"call": call, "args": [2, 8], "kwargs": kwargs}
                                 for call, kwargs in workloads.SMALL_CALLS],
        }
        # Calls through names that cli and genfun imported from determinants.
        imported = {
            "verify-enum": ("cli.main", "determinants.top_block_det"),
            "crosscheck-small": ("genfun.staircase_gf_cramer", "determinants.numerator_det"),
        }
        originals = (staircomp.cli.main, staircomp.genfun.numerator_det,
                     staircomp.series.TriSeries.__mul__)
        for workload, ops in samples.items():
            tracer = Tracer()
            tracer.install(staircomp)
            try:
                for op in ops:
                    rc, *_ = run_op(staircomp, op, tracer)
                    self.assertEqual(rc, 0, op)
            finally:
                tracer.uninstall()
            spans = tracer.summary()["spans"]
            with self.subTest(workload=workload):
                self.assertEqual(run.self_check(workload, spans), [])
                if workload in imported:
                    self.assertIn(imported[workload], tracer.edges)
                for name, span in spans.items():
                    self.assertGreaterEqual(span["total_s"], span["self_s"], name)
        self.assertEqual(originals, (staircomp.cli.main, staircomp.genfun.numerator_det,
                                     staircomp.series.TriSeries.__mul__))

    def test_mul_products_are_computed_from_slice_sizes(self):
        from staircomp.series import TriSeries

        left = TriSeries(5, {(0, 0, 0): 1, (1, 1, 0): 2, (1, 0, 0): 1, (4, 0, 0): 1})
        right = TriSeries(5, {(0, 0, 0): 1, (2, 1, 1): 3})
        tracer = Tracer()
        tracer.install(staircomp)
        tracer.active = True
        try:
            left * right
        finally:
            tracer.active = False
            tracer.uninstall()
        # slices {0: 1, 1: 2, 4: 1} x {0: 1, 2: 1}: pairs with i + j <= 5
        self.assertEqual(tracer.counts["series.mul.products"], 1 * 2 + 2 * 2 + 1 * 1)


class HarnessTest(unittest.TestCase):
    def test_metrics_match_the_benchmark_file(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.OPERATIONS))

    def test_tail_percentile_keeps_ten_samples_of_one_pass(self):
        want = {"gf-large": 75.0, "verify-enum": 75.0, "crosscheck-small": 95.0}
        for workload, p in want.items():
            ops = workloads.OPERATIONS[workload]
            self.assertEqual(workloads.tail_percentile(len(ops)), p, workload)
            self.assertGreaterEqual(len(ops) * (100 - p) / 100, 10)

    def test_nearest_rank_percentile(self):
        values = list(range(1, 41))
        self.assertEqual(run.percentile(values, 75.0), 30)
        self.assertEqual(run.percentile(values, 50.0), 20)


if __name__ == "__main__":
    unittest.main()
