"""The cross-checks between the formulas and brute-force enumeration.

``staircomp verify`` runs every check in ``CHECKS``, and the acceptance
gate calls the same functions at its own sizes, so the two cannot drift
apart.  Each check takes the window length ``m``, the largest enumerated
total ``max_n``, the series truncation order ``trunc`` and the
enumeration cap ``cap``, ignoring the ones it does not need.  It returns
None when the check holds, or a short description of the first
disagreement found.

Each check is sized by what it compares.  The two checks against
enumeration read ``max_n`` and ignore ``trunc``: the coefficient of x^a
in the master series counts compositions of a only, so the series to
order ``max_n`` holds every coefficient they compare.  The three
series-only checks (Cramer, block determinants, marginals) read
``trunc``.  So ``trunc`` may lie below ``max_n``.

``check_cramer`` compares two independent computations of the master
series: ``genfun.staircase_gf`` divides in x and y alone, with q carried
in the coefficients' base-2^trunc digits, while the Cramer route keeps
the long division in x, y and q, of its own two determinants.

``check_gf_vs_oracle`` reads each census once anyway.  ``check_totals``
reads each one once per part count, so it alone opens
``oracle.shared_census()``; run inside one outer block, as
``staircomp verify`` runs them, it reads the censuses that
``check_gf_vs_oracle`` built.

The layers are reached through their module attributes, never through
names imported into this module, so that a test or a tracer that rebinds
a layer's function also reaches the calls made from here.
"""

from __future__ import annotations

from math import comb

from . import determinants, genfun, oracle


def check_gf_vs_oracle(m, max_n, trunc, cap=oracle.MAX_ENUM_N):
    """Closed-form master series at order max_n against enumeration,
    totals 1..max_n."""
    by_total: dict[int, dict] = {}
    for (a, b, s), c in genfun.staircase_gf(m, max_n).terms():
        by_total.setdefault(a, {})[a, b, s] = c
    for a in range(1, max_n + 1):
        hist = oracle.staircase_histogram(a, m, cap=cap)
        want = {(a, b, s): c for (b, s), c in hist.counts.items()}
        problem = _first_diff(by_total.get(a, {}), want, "series", "enumeration")
        if problem:
            return problem
    return None


def check_cramer(m, max_n, trunc, cap=oracle.MAX_ENUM_N):
    """Cramer route against the closed form at order trunc."""
    closed = dict(genfun.staircase_gf(m, trunc).terms())
    cramer = dict(genfun.staircase_gf_cramer(m, trunc).terms())
    problem = _first_diff(closed, cramer, "closed", "Cramer")
    return f"first difference at {problem}" if problem else None


def check_block_dets(m, max_n, trunc, cap=oracle.MAX_ENUM_N):
    """Closed forms against recurrences: top blocks of size 0..m+1 and
    inner blocks of size -1..m+1, at order trunc, up to size trunc + 2."""
    # At order trunc both modes are constant in the block size from
    # trunc + 1 on: every j >= 1 term of the closed forms has x-degree at
    # least the size, and the recurrence stops at step trunc, past which
    # its step x^i vanishes.  Any larger size repeats the comparison made
    # at the last one checked, so the loops stop here, not at m + 1.
    last = min(m + 1, trunc + 2)
    for k in range(0, last + 1):
        if (determinants.top_block_det(k, trunc, "closed")
                != determinants.top_block_det(k, trunc, "recurrence")):
            return f"top block size {k}: closed form differs from recurrence"
    for k in range(-1, last + 1):
        if (determinants.inner_block_det(k, trunc, "closed")
                != determinants.inner_block_det(k, trunc, "recurrence")):
            return f"inner block size {k}: closed form differs from recurrence"
    return None


def check_totals(m, max_n, trunc, cap=oracle.MAX_ENUM_N):
    """Closed-form window totals against enumeration, n = 1..max_n."""
    with oracle.shared_census():
        for n in range(1, max_n + 1):
            for parts in range(1, n + 1):
                formula = genfun.total_staircases(n, parts, m)
                brute = oracle.total_staircases(n, parts, m, cap=cap)
                if formula != brute:
                    return (
                        f"n={n}, parts={parts}: formula {formula} vs enumeration {brute}"
                    )
    return None


def check_marginals(m, max_n, trunc, cap=oracle.MAX_ENUM_N):
    """The q = 1 marginal against C(a-1, b-1) for every a <= trunc; its
    constant term is 1."""
    gf = genfun.gf_at_q1(m, trunc)
    for a in range(0, trunc + 1):
        for b in range(0, trunc + 2):
            want = comb(a - 1, b - 1) if 1 <= b <= a else int(a == b == 0)
            got = gf.coeff(a, b, 0)
            if got != want:
                return f"(a={a}, b={b}): marginal {got}, binomial {want}"
    return None


CHECKS = (
    ("closed form vs enumeration", check_gf_vs_oracle),
    ("Cramer path vs closed form", check_cramer),
    ("block determinant recurrences vs closed forms", check_block_dets),
    ("window totals: formula vs enumeration", check_totals),
    ("q = 1 marginals", check_marginals),
)
"""Every check ``staircomp verify`` runs, in order, with its report name."""


def _first_diff(got, want, got_name, want_name):
    """The smallest (a, b, s) key whose counts differ, described, or None."""
    for key in sorted(set(got) | set(want)):
        g, w = got.get(key, 0), want.get(key, 0)
        if g != w:
            a, b, s = key
            return f"(a={a}, b={b}, s={s}): {got_name} {g} vs {want_name} {w}"
    return None
