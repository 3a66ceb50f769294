"""The cross-checks between the formulas and brute-force enumeration.

``staircomp verify`` runs every check in ``CHECKS``, and the acceptance
gate calls the same functions at its own sizes, so the two cannot drift
apart.  Each check takes the window length ``m``, the largest enumerated
total ``max_n``, the series truncation order ``trunc`` and the
enumeration cap ``cap``, ignoring the ones it does not need.  It takes
the two maps it compares, a series' stored term map as it is or a map
it builds, and returns ``_first_diff`` of them: None when
they agree, else their first difference in one format,
``(<name>=<v>, ...): <got> <g> vs <want> <w>`` at the smallest differing
key.  The block check prefixes it with ``<family> block size <k> ``.

Each check is sized by what it compares.  The two checks against
enumeration read ``max_n`` and ignore ``trunc``: the coefficient of x^a
in the master series counts compositions of a only, so the series to
order ``max_n`` holds every coefficient they compare.  The three
series-only checks (Cramer, block determinants, marginals) read
``trunc``.  So ``trunc`` may lie below ``max_n``.

``check_cramer`` compares two computations of the master series:
``genfun.staircase_gf`` divides the closed-form fraction built from k_m
in x and u = y/(1-x) alone, with q carried in the coefficients'
base-2^trunc digits, and writes the quotient in y, while the Cramer
route takes the paper's cofactor expansions from ``numerator_det`` and
``denominator_det`` (read from the recurrence sweeps, written in y),
writes them back in u by ``determinants._in_u``, divides them in x, u
and q, and writes the quotient in y.

What the two sides of each check both call, so that a fault there may
pass that check:

    check            called by both sides
    enumeration      none
    totals           none
    blocks           ``_in_y`` and ``series._shifted_sum``
    marginals        none
    Cramer           the ring (whose sums and products are
                     ``series._shifted_sum``), ``divide`` and ``_in_y``

Only the Cramer side calls ``_in_u``.  ``_in_y`` writes both sides'
quotients in y, so a fault in it that changes a quotient changes both
alike.  The Cramer check sees such a fault only through the
determinants, which the Cramer side writes in y before ``_in_u`` reads
them back; the checks against enumeration and binomials can see it.
``_shifted_sum`` builds the closed forms and every sweep step alike, yet
a fault in it can still show in the block check, since the two sides
reach the same term through different sums.

``staircomp verify`` reports a check that raises ``series.NonUnitError``
as that check's failure: a divisor whose x^0 slice is not a unit is what
a fault in a determinant's constant term gives.

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
from .series import one, zero

_TERM_KEY = ("a", "b", "s")


def check_gf_vs_oracle(m, max_n, trunc, cap=oracle.MAX_ENUM_N):
    """Closed-form master series at order max_n against enumeration,
    totals 1..max_n."""
    series = {key: c for key, c in genfun.staircase_gf(m, max_n)._terms.items() if key[0]}
    census = {
        (a, b, s): c
        for a in range(1, max_n + 1)
        for (b, s), c in oracle.staircase_histogram(a, m, cap=cap).counts.items()
    }
    return _first_diff(_TERM_KEY, series, "series", census, "enumeration")


def check_cramer(m, max_n, trunc, cap=oracle.MAX_ENUM_N):
    """Cramer route against the closed form at order trunc."""
    closed = genfun.staircase_gf(m, trunc)._terms
    cramer = genfun.staircase_gf_cramer(m, trunc)._terms
    return _first_diff(_TERM_KEY, closed, "closed", cramer, "Cramer")


def check_block_dets(m, max_n, trunc, cap=oracle.MAX_ENUM_N):
    """Closed forms against recurrences: top blocks of size 0..m+1 and
    inner blocks of size -1..m+1, at order trunc, up to size trunc + 2.

    Each family's recurrence is one sweep in x and u = y/(1-x), read size
    by size: size k is entry k - first of ``determinants._recurrence``
    from the family's seeds, or its last entry once the sweep has ended,
    written in y by ``determinants._in_y``.
    """
    # At order trunc both modes are constant in the block size from
    # trunc + 1 on: every j >= 1 term of the closed forms has x-degree at
    # least the size, and the sweep ends at step trunc, past which its
    # step x^i vanishes.  Any larger size repeats the comparison made at
    # the last one checked, so the loops stop here, not at m + 1.
    last = min(m + 1, trunc + 2)
    for family, block_det, first, before in (
        ("top", determinants.top_block_det, 0, zero),
        ("inner", determinants.inner_block_det, -1, one),
    ):
        sweep = map(determinants._in_y, determinants._recurrence(before(trunc), one(trunc)))
        recurrence = None
        for k in range(first, last + 1):
            recurrence = next(sweep, recurrence)
            closed = block_det(k, trunc, "closed")._terms
            problem = _first_diff(_TERM_KEY, closed, "closed", recurrence._terms, "recurrence")
            if problem:
                return f"{family} block size {k} {problem}"
    return None


def check_totals(m, max_n, trunc, cap=oracle.MAX_ENUM_N):
    """Closed-form window totals against enumeration, n = 1..max_n."""
    keys = [(n, parts) for n in range(1, max_n + 1) for parts in range(1, n + 1)]
    with oracle.shared_census():
        formula = {(n, parts): genfun.total_staircases(n, parts, m) for n, parts in keys}
        brute = {(n, parts): oracle.total_staircases(n, parts, m, cap=cap) for n, parts in keys}
    return _first_diff(("n", "parts"), formula, "formula", brute, "enumeration")


def check_marginals(m, max_n, trunc, cap=oracle.MAX_ENUM_N):
    """The q = 1 marginal against C(a-1, b-1) for every a <= trunc; its
    constant term is 1, and it has no other term."""
    marginal = genfun.gf_at_q1(m, trunc)._terms
    binomial = {
        (a, b, 0): comb(a - 1, b - 1) for a in range(1, trunc + 1) for b in range(1, a + 1)
    }
    binomial[0, 0, 0] = 1
    return _first_diff(_TERM_KEY, marginal, "marginal", binomial, "binomial")


CHECKS = (
    ("closed form vs enumeration", check_gf_vs_oracle),
    ("Cramer path vs closed form", check_cramer),
    ("block determinant recurrences vs closed forms", check_block_dets),
    ("window totals: formula vs enumeration", check_totals),
    ("q = 1 marginals", check_marginals),
)
"""Every check ``staircomp verify`` runs, in order, with its report name."""


def _first_diff(names, got, got_name, want, want_name):
    """None when the maps agree, else their values at the smallest key
    where they differ (an absent key reads 0), described with the key's
    components named by ``names``.  It only reads the maps."""
    if got == want:
        return None
    key = min(k for k in got.keys() | want.keys() if got.get(k, 0) != want.get(k, 0))
    where = ", ".join(f"{name}={v}" for name, v in zip(names, key))
    return f"({where}): {got_name} {got.get(key, 0)} vs {want_name} {want.get(key, 0)}"
