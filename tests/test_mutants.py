"""Faults planted in the closed forms, each of which ``verify`` must report.

Each test patches one private helper with a faulty copy, in every module
that binds it, runs ``staircomp verify`` and asserts that it exits 1 with
exactly the expected checks failing.  Knowing which checks catch which
fault shows what each check covers: a fault shared by both sides of a
comparison passes that check.
"""

from __future__ import annotations

import contextlib
import io
from math import comb

import pytest

from staircomp import cli, determinants, genfun
from staircomp.series import TriSeries, monomial

ENUMERATION = "closed form vs enumeration"
CRAMER = "Cramer path vs closed form"
BLOCKS = "block determinant recurrences vs closed forms"
MARGINALS = "q = 1 marginals"


def _plant(monkeypatch, name, make_fault):
    """Rebind ``name`` to ``make_fault(original)`` in determinants and, when
    it imports the name, in genfun."""
    fault = make_fault(getattr(determinants, name))
    for module in (determinants, genfun):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, fault)


def _failures(argv):
    """verify's exit code and the names of the checks it reports failed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", *argv])
    names = {
        line[len("FAIL "):].split(":")[0]
        for line in out.getvalue().splitlines()
        if line.startswith("FAIL ")
    }
    return code, names


def _top_raised(top_in_u):
    # k_m with its top power of u, the term in u^(m-1), one x-degree higher.
    def fault(m, trunc):
        terms = dict(top_in_u(m, trunc)._terms)
        if terms:
            a, b, s = max(terms, key=lambda key: key[1])
            terms[a + 1, b, s] = terms.pop((a, b, s))
        return TriSeries(trunc, terms)

    return fault


def _closing_raised(closing):
    # The lead power x^C(m+1,2) u^m one x-degree higher.
    def fault(body, m):
        trunc, e = body.trunc, comb(m + 1, 2)
        return closing(body, m) - monomial(e, m, 0, 1, trunc) + monomial(e + 1, m, 0, 1, trunc)

    return fault


def _in_y_without_high_columns(in_y):
    # Every column of terms in u^j with j >= 5 dropped.
    def fault(series):
        kept = {key: c for key, c in series._terms.items() if key[1] < 5}
        return in_y(TriSeries(series.trunc, kept))

    return fault


def _sweep_step_lowered(recurrence):
    # The sweep with x^(i+1) u e_{i-1} in its step lowered to x^i u e_{i-1};
    # the step sits inside the sweep, so the fault is a whole faulty copy.
    def fault(before, start):
        trunc = start.trunc
        entries = [before, start]
        for i in range(1, trunc + 1):
            step = monomial(i, 1, 0, 1, trunc)
            entries.append(entries[-1] + step * (entries[-1] - entries[-2]))
        return iter(entries)

    return fault


@pytest.mark.parametrize("name, make_fault, argv, failing", [
    ("_top_in_u", _top_raised, ["--m", "4", "--max-n", "12", "--trunc", "14"], {BLOCKS}),
    ("_top_in_u", _top_raised, ["--m", "4", "--max-n", "20", "--trunc", "14"],
     {ENUMERATION, BLOCKS}),
    ("_closing", _closing_raised, ["--m", "3", "--max-n", "10"],
     {ENUMERATION, CRAMER, BLOCKS, MARGINALS}),
    # The blocks checked at m = 3 reach u^4 at most, so only the
    # master series' quotient loses terms.
    ("_in_y", _in_y_without_high_columns, ["--m", "3", "--max-n", "10"],
     {ENUMERATION, CRAMER, MARGINALS}),
    ("_recurrence", _sweep_step_lowered, ["--m", "3", "--max-n", "10"], {BLOCKS}),
], ids=["top-in-u-n12", "top-in-u-n20", "closing", "in-y", "sweep-step"])
def test_verify_reports_a_planted_fault(monkeypatch, name, make_fault, argv, failing):
    _plant(monkeypatch, name, make_fault)
    assert _failures(argv) == (1, failing)


@pytest.mark.parametrize("argv", [
    ["--m", "4", "--max-n", "12", "--trunc", "14"],
    ["--m", "4", "--max-n", "20", "--trunc", "14"],
    ["--m", "3", "--max-n", "10"],
], ids=" ".join)
def test_verify_passes_without_a_fault(argv):
    assert _failures(argv) == (0, set())
