"""Closed forms for the staircase generating function and its reductions.

The master series F(x, y, q) has coefficient of x^a y^b q^s equal to the
number of compositions of a with b parts that contain the length-m
staircase window exactly s times (windows may overlap).  Everything here
is exact and lives in the truncated integer series ring.
"""

from __future__ import annotations

from math import comb

from .determinants import (
    _check_dim,
    _closing,
    _sum_of_powers,
    _top_powers,
    build_system,
    denominator_det,
    det_division_free,
    numerator_det,
)
from .series import (
    DEFAULT_TRUNC,
    TriSeries,
    _check_size,
    _split_q_digits,
    monomial,
    one,
    variables,
)


def staircase_gf(m: int, trunc: int = DEFAULT_TRUNC) -> TriSeries:
    """Master series for window length m, as one long division.

    The paper writes the series as N / D with k_m = top_block_det(m),
    u = y/(1-x) and

        N = k_m - q x^m u k_{m-1},
        D = (1-q) x^C(m+1,2) u^m + ((1-x-xy)/(1-x)) N.

    Every piece is a list of signed, shifted powers c x^e u^j q^s: k_m
    and k_{m-1} are ``determinants._top_powers``, N is k_m plus
    k_{m-1} shifted by q x^m u with its sign flipped, and D is
    ``determinants._closing`` of N (x^C(m+1,2) u^m + (1 - x u) N) plus
    -q x^C(m+1,2) u^m.  Each power has j <= m, so the one column helper
    ``determinants._sum_of_powers`` writes both lists times (1-x)^m as
    polynomials, and the series is one division of N (1-x)^m by
    D (1-x)^m.  The x^0 slice of the cleared D is exactly 1.

    The division runs in x and y alone, with q carried inside the
    coefficients (Kronecker substitution).  Every coefficient c(a, b, s)
    counts compositions of a with b parts, so 0 <= c <= C(a-1, b-1) <
    2^trunc for a <= trunc (and c = 1 at a = 0).  Substituting q := Q =
    2^trunc, a ring homomorphism that keeps the x^0 slice of the cleared
    D at 1, therefore makes the quotient's coefficient of x^a y^b the number
    sum_s c(a, b, s) Q^s, whose base-Q digits are exactly the c(a, b, s):
    no digit reaches Q, so none carries into the next.  Reading the digits
    back gives F.
    """
    _validate(m, trunc)
    num, den = _cleared_fraction(m, trunc)
    base = 1 << trunc
    return _split_q_digits(num.at_q(base).divide(den.at_q(base)), trunc)


def staircase_gf_cramer(m: int, trunc: int = DEFAULT_TRUNC, direct: bool = False) -> TriSeries:
    """Master series via Cramer's rule: det(numerator) / det(system).

    The default route evaluates both determinants through their cofactor
    reductions onto the block families; ``direct=True`` expands the built
    matrices with the division-free determinant instead (the dimension
    limit applies, so keep m small on that route; a larger m is refused
    before the system is built).
    """
    _validate(m, trunc)
    if direct:
        _check_dim(m + 1)
        matrix, rhs = build_system(m, trunc)
        det_num = det_division_free(matrix.with_column(0, rhs))
        det_sys = det_division_free(matrix)
    else:
        det_num = numerator_det(m, trunc)
        det_sys = denominator_det(m, trunc)
    return det_num.divide(det_sys)


def gf_at_q1(m: int, trunc: int = DEFAULT_TRUNC) -> TriSeries:
    """The master series with q := 1.

    Setting q to 1 forgets the window statistic, leaving the series of all
    compositions by weight and part count: the coefficient of x^a y^b is
    C(a-1, b-1) regardless of m.

    q := 1 is substituted into the cleared numerator and denominator of
    ``staircase_gf`` before dividing.  The substitution is a ring
    homomorphism and the denominator's x^0 slice stays 1, so this is the
    same series as ``staircase_gf(m, trunc).at_q1()``, found by a long
    division in x and y alone.
    """
    _validate(m, trunc)
    num, den = _cleared_fraction(m, trunc)
    return num.at_q1().divide(den.at_q1())


def total_staircases_gf(m: int, trunc: int = DEFAULT_TRUNC) -> TriSeries:
    """Series of total window counts: coefficient of x^n y^l sums the
    number of length-m windows over all compositions of n with l parts.

    Equals the q-derivative of the master series at q = 1, which collapses
    to the closed form

        x^C(m+1,2) y^m (1-x)^(2-m) / (1-x-xy)^2.

    The power of 1-x goes to whichever side keeps its exponent
    non-negative, so the denominator is a polynomial inverted once.
    """
    _validate(m, trunc)
    x, y, _q = variables(trunc)
    lead = monomial(comb(m + 1, 2), m, 0, 1, trunc) * (one(trunc) - x) ** max(0, 2 - m)
    den = (one(trunc) - x) ** max(0, m - 2) * (one(trunc) - x - x * y) ** 2
    return lead * den.inverse()


def total_staircases(n: int, num_parts: int, m: int) -> int:
    """Closed-form total of length-m windows over all compositions of n
    with exactly num_parts parts:

        (num_parts - m + 1) * C(n - 1 - m(m-1)/2, num_parts - 1)

    with C(u, v) = 0 whenever u < 0 or u < v.  The printed product turns
    negative for num_parts < m - 1 although the true count is zero, so
    anything below num_parts = m is clamped to 0; at num_parts = m - 1 the
    leading factor already vanishes, making this the tightest safe cut.
    """
    _check_size("n", n)
    _check_size("num_parts", num_parts)
    _check_size("m", m)
    if num_parts < m:
        return 0
    top = n - 1 - comb(m, 2)
    if top < 0 or top < num_parts - 1:
        return 0
    return (num_parts - m + 1) * comb(top, num_parts - 1)


def _cleared_fraction(m: int, trunc: int) -> tuple[TriSeries, TriSeries]:
    """The polynomials (N (1-x)^m, D (1-x)^m) whose quotient is the master
    series (see ``staircase_gf``)."""
    numer = _top_powers(m, trunc) + [
        (-c, e + m, j + 1, s + 1) for c, e, j, s in _top_powers(m - 1, trunc)
    ]
    den = _closing(numer, m) + [(-1, comb(m + 1, 2), m, 1)]
    return _sum_of_powers(trunc, numer, m), _sum_of_powers(trunc, den, m)


def _validate(m: int, trunc: int) -> None:
    _check_size("m", m)
    _check_size("trunc", trunc)
