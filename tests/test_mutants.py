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

from staircomp import cli, determinants, genfun, series, verify
from staircomp.series import TriSeries, monomial, one

ENUMERATION = "closed form vs enumeration"
CRAMER = "Cramer path vs closed form"
BLOCKS = "block determinant recurrences vs closed forms"
TOTALS = "window totals: formula vs enumeration"
MARGINALS = "q = 1 marginals"


def _plant(monkeypatch, name, make_fault):
    """Rebind ``name`` to ``make_fault(original)`` in each of series,
    determinants and genfun that binds it."""
    modules = [module for module in (series, determinants, genfun) if hasattr(module, name)]
    fault = make_fault(getattr(modules[0], name))
    for module in modules:
        monkeypatch.setattr(module, name, fault)


def _run(argv):
    """verify's exit code and its report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", *argv])
    return code, out.getvalue()


def _failures(argv):
    """verify's exit code and the names of the checks it reports failed."""
    code, report = _run(argv)
    names = {name for name, _check in verify.CHECKS if f"\nFAIL {name}: " in f"\n{report}"}
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


def _top_with_constant_two(top_in_u):
    # k_m with its constant term 1 doubled: every fraction built from it
    # has a divisor that is not a unit.
    return lambda m, trunc: top_in_u(m, trunc) + one(trunc)


def _fraction_with_plus_q(fraction_in_u):
    # D's term -q x^C(m+1,2) u^m with its sign flipped: the packed
    # quotient then has negative coefficients, which have no digits.
    def fault(m, trunc):
        num, den = fraction_in_u(m, trunc)
        return num, den + monomial(comb(m + 1, 2), m, 1, 2, trunc)

    return fault


def _totals_off_at_m_plus_one(total_staircases):
    # The scalar totals formula one too high at parts = m + 1.
    return lambda n, parts, m: total_staircases(n, parts, m) + (parts == m + 1)


def _in_y_without_high_columns(in_y):
    # Every column of terms in u^j with j >= 5 dropped.
    def fault(series):
        kept = {key: c for key, c in series._terms.items() if key[1] < 5}
        return in_y(TriSeries(series.trunc, kept))

    return fault


def _in_u_without_high_columns(in_u):
    # Every column of terms in y^j with j >= 3 dropped.
    def fault(series, shift=0):
        kept = {key: c for key, c in series._terms.items() if key[1] < 3}
        return in_u(TriSeries(series.trunc, kept), shift)

    return fault


def _shifted_sum_short_at_the_order(shifted_sum):
    # Every shifted term that lands exactly at x-degree trunc dropped, in
    # the ring's sums and products and in every term builder.
    def fault(trunc, base, *shifted):
        return shifted_sum(trunc, base, *(
            ({key: c for key, c in terms.items() if key[0] + shift[0] < trunc}, shift, factor)
            for terms, shift, factor in shifted
        ))

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
    # At order 20 the raised power reaches the master series, which the
    # Cramer route, built from the recurrence, does not share.
    ("_top_in_u", _top_raised, ["--m", "4", "--max-n", "12", "--trunc", "20"],
     {CRAMER, BLOCKS}),
    ("_closing", _closing_raised, ["--m", "3", "--max-n", "10"],
     {ENUMERATION, CRAMER, BLOCKS, MARGINALS}),
    # The blocks checked at m = 3 reach u^4 at most, so only the master
    # series loses terms.  Both routes write their quotient in y through
    # _in_y, so the fault hits both sides of the Cramer check alike, and
    # only the checks against enumeration and binomials see it.
    ("_in_y", _in_y_without_high_columns, ["--m", "3", "--max-n", "10"],
     {ENUMERATION, MARGINALS}),
    # Only the Cramer route writes in u, its two determinants before
    # dividing.  At m >= 2 both have degree m - 1 in y, so at m = 3 the
    # fault drops no term and survives every check.
    ("_in_u", _in_u_without_high_columns, ["--m", "4", "--max-n", "12", "--trunc", "20"],
     {CRAMER}),
    ("_in_u", _in_u_without_high_columns, ["--m", "3", "--max-n", "10"], set()),
    ("_recurrence", _sweep_step_lowered, ["--m", "3", "--max-n", "10"], {CRAMER, BLOCKS}),
    # The closed form's packed quotient then has negative coefficients,
    # so the two checks that split it report DigitSplitError; at q = 1
    # the flipped term no longer cancels, so the marginals see it too.
    ("_fraction_in_u", _fraction_with_plus_q, ["--m", "2", "--max-n", "10"],
     {ENUMERATION, CRAMER, MARGINALS}),
    ("total_staircases", _totals_off_at_m_plus_one, ["--m", "3", "--max-n", "10"], {TOTALS}),
    ("_shifted_sum", _shifted_sum_short_at_the_order, ["--m", "3", "--max-n", "10"], {BLOCKS}),
    ("_shifted_sum", _shifted_sum_short_at_the_order,
     ["--m", "4", "--max-n", "12", "--trunc", "20"], {BLOCKS}),
], ids=["top-in-u-n12", "top-in-u-n20", "top-in-u-t20", "closing", "in-y", "in-u-t20",
        "in-u-m3", "sweep-step", "plus-q", "totals", "shifted-sum", "shifted-sum-t20"])
def test_verify_reports_a_planted_fault(monkeypatch, name, make_fault, argv, failing):
    # A row whose set is empty pins a fault that survives every check.
    _plant(monkeypatch, name, make_fault)
    assert _failures(argv) == (1 if failing else 0, failing)


@pytest.mark.parametrize("argv", [
    ["--m", "4", "--max-n", "12", "--trunc", "14"],
    ["--m", "4", "--max-n", "20", "--trunc", "14"],
    ["--m", "3", "--max-n", "10"],
], ids=" ".join)
def test_verify_passes_without_a_fault(argv):
    assert _failures(argv) == (0, set())


def test_verify_reports_a_check_that_raises(monkeypatch):
    # Every fraction built from the faulty k_m has a divisor that is not a
    # unit, except at q = 1, where N = k_m - q (k_m - 1) is 1 whatever k_m.
    # Each check that divides by one reports the NonUnitError as its
    # failure, and the checks after it still run.
    _plant(monkeypatch, "_top_in_u", _top_with_constant_two)
    non_unit = "NonUnitError: series is invertible only when its x^0 slice is the constant +1 or -1"
    assert _run(["--m", "3", "--max-n", "8"]) == (1, (
        f"FAIL {ENUMERATION}: {non_unit}\n"
        f"FAIL {CRAMER}: {non_unit}\n"
        f"FAIL {BLOCKS}: top block size 0 (a=0, b=0, s=0): closed 1 vs recurrence 0\n"
        f"PASS {TOTALS}\n"
        f"PASS {MARGINALS}\n"
        "2/5 checks passed (m=3, max_n=8, trunc=14)\n"
    ))
