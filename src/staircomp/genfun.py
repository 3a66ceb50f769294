"""Closed forms for the staircase generating function and its reductions.

The master series F(x, y, q) has coefficient of x^a y^b q^s equal to the
number of compositions of a with b parts that contain the length-m
staircase window exactly s times (windows may overlap).  Everything here
is exact and lives in the truncated integer series ring.
"""

from __future__ import annotations

from math import comb

from .determinants import (
    _closing_term,
    _ratio,
    build_system,
    denominator_det,
    det_division_free,
    numerator_det,
    numerator_matrix,
)
from .series import DEFAULT_TRUNC, TriSeries, monomial, one, variables


def staircase_gf(m: int, trunc: int = DEFAULT_TRUNC) -> TriSeries:
    """Master series for window length m, computed from the block closed forms.

    With U_k = top_block_det(k) the series is

        U_m - (q x^m y / (1-x)) U_{m-1}
        ------------------------------------------------------------------
        (1-q) x^C(m+1,2) (y/(1-x))^m + ((1-x-xy)/(1-x)) * (numerator)

    The denominator has constant term 1, so the division is an exact
    series inversion.
    """
    _validate(m, trunc)
    q = variables(trunc)[2]
    numerator = numerator_det(m, trunc)
    denominator = _closing_term(m, numerator, _ratio(trunc), weight=one(trunc) - q)
    return numerator * denominator.inverse()


def staircase_gf_cramer(m: int, trunc: int = DEFAULT_TRUNC, direct: bool = False) -> TriSeries:
    """Master series via Cramer's rule: det(numerator) / det(system).

    The default route evaluates both determinants through their cofactor
    reductions onto the block families; ``direct=True`` expands the built
    matrices with the division-free determinant instead (the dimension
    limit applies, so keep m small on that route).
    """
    _validate(m, trunc)
    if direct:
        matrix, _ = build_system(m, trunc)
        det_num = det_division_free(numerator_matrix(m, trunc))
        det_sys = det_division_free(matrix)
    else:
        det_num = numerator_det(m, trunc)
        det_sys = denominator_det(m, trunc)
    return det_num * det_sys.inverse()


def gf_at_q1(m: int, trunc: int = DEFAULT_TRUNC) -> TriSeries:
    """The master series with q := 1.

    Setting q to 1 forgets the window statistic, leaving the series of all
    compositions by weight and part count: the coefficient of x^a y^b is
    C(a-1, b-1) regardless of m.
    """
    return staircase_gf(m, trunc).at_q1()


def total_staircases_gf(m: int, trunc: int = DEFAULT_TRUNC) -> TriSeries:
    """Series of total window counts: coefficient of x^n y^l sums the
    number of length-m windows over all compositions of n with l parts.

    Equals the q-derivative of the master series at q = 1, which collapses
    to the closed form

        x^C(m+1,2) y^m (1-x)^(2-m) / (1-x-xy)^2.
    """
    _validate(m, trunc)
    x, y, _q = variables(trunc)
    core = ((one(trunc) - x - x * y).inverse()) ** 2
    lead = monomial(comb(m + 1, 2), m, 0, 1, trunc)
    return lead * (one(trunc) - x) ** (2 - m) * core


def total_staircases(n: int, num_parts: int, m: int) -> int:
    """Closed-form total of length-m windows over all compositions of n
    with exactly num_parts parts:

        (num_parts - m + 1) * C(n - 1 - m(m-1)/2, num_parts - 1)

    with C(u, v) = 0 whenever u < 0 or u < v.  The printed product turns
    negative for num_parts < m - 1 although the true count is zero, so
    anything below num_parts = m is clamped to 0; at num_parts = m - 1 the
    leading factor already vanishes, making this the tightest safe cut.
    """
    if n < 1 or num_parts < 1 or m < 1:
        raise ValueError("n, num_parts and m must all be positive")
    if num_parts < m:
        return 0
    top = n - 1 - comb(m, 2)
    if top < 0 or top < num_parts - 1:
        return 0
    return (num_parts - m + 1) * comb(top, num_parts - 1)


def _validate(m: int, trunc: int) -> None:
    if m < 1:
        raise ValueError(f"pattern length must be >= 1, got {m}")
    if trunc < 1:
        raise ValueError(f"truncation order must be >= 1, got {trunc}")
