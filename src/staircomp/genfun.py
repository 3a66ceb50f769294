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
    _conjugated,
    _fraction_in_u,
    _in_u,
    _in_y,
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
    u = y/(1-x), A = x^C(m+1,2) u^m and

        N = k_m - q x^m u k_{m-1},   D = (1-q) A + (1 - x u) N.

    Term j of x^m u k_{m-1} is x^(m + (m-1)j - C(j,2)) u^(j+1), and
    m + (m-1)j - C(j,2) = m(j+1) - C(j+1,2) is the exponent of term j+1
    of k_m, so x^m u k_{m-1} = k_m - 1.  With w = q - 1 and K = k_m - 1
    the fraction is therefore

        F = N / ((1 - x u) N - w A),   N = 1 - w K.

    This is the Goulden-Jackson cluster form (Goulden & Jackson, "An
    inversion theorem for cluster decompositions of sequences with
    distinguished subsequences", J. London Math. Soc., 1979; Noonan &
    Zeilberger, "The Goulden-Jackson cluster method: extensions,
    applications and implementations", J. Difference Eq. Appl., 1999).
    A window is m consecutive parts, the j-th at least j; 1/(1 - x u)
    counts every composition; a cluster is a chain of marked windows, each overlapping
    the one before.  The first window weighs w A; a further window that
    overlaps the previous one by m - g parts adds g parts, at least
    m-g+1, ..., m, and weighs w x^(mg - C(g,2)) u^g, one term of w K
    for g = 1..m-1.  So the clusters sum to w A / N, and
    F = 1 / (1 - x u - w A / N).

    Every piece is a polynomial in x, u and q, with u in the y slot: each
    term has u-degree at most its x-degree, as the ring asks of y.
    ``determinants._fraction_in_u`` builds N = k_m - q (k_m - 1) = 1 - w K
    and D = A + (1 - x u) N - q A; written in y they are the two Cramer
    determinants.  D's x^0 slice is exactly 1.  Its term A, and
    -q A too when m >= 2, cancels against -x u times N's terms in
    u^(m-1), so once q := Q merges the terms that differ only in q, D has
    max(2, 2m - 1) terms (fewer when the order cuts some), and the series
    is one long division G = N / D in x and u.  ``determinants._in_y``
    then writes each term g x^e u^j of G in y as g x^e y^j (1-x)^-j, one
    column of terms sharing j at a time.  A
    term x^e u^j written in y has x-degree at least e, so G to order
    trunc gives F to order trunc.

    The division runs in x and u alone, with q carried inside the
    coefficients (Kronecker substitution).  Every coefficient c(a, b, s)
    of F counts compositions of a with b parts, so 0 <= c <= C(a-1, b-1)
    < 2^trunc for a <= trunc (and c = 1 at a = 0).  Substituting q := Q =
    2^trunc is a ring homomorphism that keeps D's x^0 slice at 1.  G's
    coefficients are signed, but the change from u to y is Z-linear and
    leaves q alone, so it commutes with q := Q: written in y, the packed
    quotient is F at q := Q, whose coefficient of x^a y^b is the number
    sum_s c(a, b, s) Q^s.  Its base-Q digits are exactly the c(a, b, s):
    no digit reaches Q, so none carries into the next.  Reading the
    digits back gives F.
    """
    _validate(m, trunc)
    num, den = _fraction_in_u(m, trunc)
    base = 1 << trunc
    return _split_q_digits(_in_y(num.at_q(base).divide(den.at_q(base))), trunc)


def staircase_gf_cramer(m: int, trunc: int = DEFAULT_TRUNC, direct: bool = False) -> TriSeries:
    """Master series via Cramer's rule: det(numerator) / det(system).

    The default route is the paper's own.  ``numerator_det`` and
    ``denominator_det`` take each determinant's last-row cofactor
    expansion d_m - q x^m u d_{m-1} in x and u = y/(1-x), with d read
    from one ``determinants._recurrence`` sweep per block family, and
    write it in y; ``determinants._in_u`` writes the two back in u.

    Both routes end alike: one long division of the two determinants in
    x, u and q, and ``_in_y`` writes the quotient in y.  The substitution
    y -> u (1-x) is a ring automorphism of the truncated ring that keeps
    every x^0 slice, so the quotient is exact and a divisor that is not a
    unit raises NonUnitError as it would in y.  In u the system
    determinant is the few-term polynomial d_m - q x^m u d_{m-1}; in y
    each u^j is the dense y^j (1-x)^-j, so the divisor has a slice at
    every x-degree.  Each route shares with ``staircase_gf`` the ring,
    ``divide`` and ``_in_y``, and none of the closed forms ``_top_in_u``
    and ``_closing``.  The default route takes its determinants through y
    and back because the benchmark's tracer test expects the edge
    ``genfun.staircase_gf_cramer -> determinants.numerator_det``
    (``bench/test_bench.py``).

    ``direct=True`` expands the built matrices with the division-free
    determinant instead (the dimension limit applies, so keep m small on
    that route; a larger m is refused before the system is built).  It
    expands them conjugated into u (``determinants._conjugated``):
    S^-1 A S with y written as u (1-x) and S = diag(1, 1-x, ...,
    (1-x)^m).  A similarity keeps the determinant, so both come out in
    u, and every entry is a polynomial of at most three terms: the
    superdiagonal z = -1/(1-x), a dense series in y, becomes -1.  It
    expands the system matrix first.  The numerator matrix differs from
    it only in column 0, and ``with_column`` hands on the minors found
    there that avoid column 0, the inner m x m block among them; the
    numerator's expansion then computes only the minors that use its new
    column.  At m = 7 the route takes 66 products of polynomials instead
    of 110.
    """
    _validate(m, trunc)
    if direct:
        _check_dim(m + 1)
        matrix, rhs = _conjugated(*build_system(m, trunc))
        det_sys = det_division_free(matrix)
        det_num = det_division_free(matrix.with_column(0, rhs))
    else:
        det_num = _in_u(numerator_det(m, trunc))
        det_sys = _in_u(denominator_det(m, trunc))
    return _in_y(det_num.divide(det_sys))


def gf_at_q1(m: int, trunc: int = DEFAULT_TRUNC) -> TriSeries:
    """The master series with q := 1.

    Setting q to 1 forgets the window statistic, leaving the series of all
    compositions by weight and part count: the coefficient of x^a y^b is
    C(a-1, b-1) regardless of m.

    q := 1 is substituted into the numerator and denominator of
    ``staircase_gf``, polynomials in x and u = y/(1-x), before dividing.
    The substitution is a ring homomorphism and the denominator's x^0
    slice stays 1, so this is the same series as
    ``staircase_gf(m, trunc).at_q1()``.  At q = 1, w = 0, so N = 1 and
    D = 1 - x u: the quotient in x and u is the sum of (x u)^j, one term
    per column, which ``_in_y`` writes in y.
    """
    _validate(m, trunc)
    num, den = _fraction_in_u(m, trunc)
    return _in_y(num.at_q1().divide(den.at_q1()))


def total_staircases_gf(m: int, trunc: int = DEFAULT_TRUNC) -> TriSeries:
    """Series of total window counts: coefficient of x^n y^l sums the
    number of length-m windows over all compositions of n with l parts.

    Equals the q-derivative of the master series at q = 1, which collapses
    to the paper's closed form

        x^C(m+1,2) y^m (1-x)^(2-m) / (1-x-xy)^2.

    Since 1-x-xy = (1-x)(1 - x u) with u = y/(1-x), this is

        B_1 = x^C(m+1,2) u^m / (1 - x u)^2,

    the one-window sum of the cluster form (see ``staircase_gf``): a
    marked window, weighing x^C(m+1,2) u^m, with any composition on either
    side.  The divisor has three terms and the quotient trunc + 1, and the
    lead term is a one-term shift, so no power of 1-x is ever built;
    ``_in_y`` writes the result in y, one column of powers of u at a time.
    The divisor is squared with ``** 2`` and inverted with ``inverse()``,
    not expanded to 1 - 2 x u + x^2 u^2 for one ``divide``, because the
    benchmark's gf-large workload requires spans of ``series.pow`` and
    ``series.inverse`` (``bench/workloads.py``, ``REQUIRED_SPANS``), and
    this is the only caller of either on that workload's route.
    """
    _validate(m, trunc)
    x, u, _q = variables(trunc)
    lead = monomial(comb(m + 1, 2), m, 0, 1, trunc)
    return _in_y(lead * ((one(trunc) - x * u) ** 2).inverse())


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


def _validate(m: int, trunc: int) -> None:
    _check_size("m", m)
    _check_size("trunc", trunc)
