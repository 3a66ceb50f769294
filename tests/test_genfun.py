"""The master series and its specializations against the enumeration oracle."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staircomp import determinants, genfun, oracle
from staircomp.series import TriSeries, monomial, one, variables, zero


def _table(gf, a):
    return {(b, s): c for (aa, b, s), c in gf.terms() if aa == a}


@pytest.mark.parametrize("m", [1, 2, 3])
def test_master_series_matches_enumeration(m):
    gf = genfun.staircase_gf(m, 10)
    for a in range(1, 11):
        assert _table(gf, a) == oracle.staircase_histogram(a, m).counts


def test_constant_term_is_the_empty_composition():
    assert genfun.staircase_gf(2, 8).coeff(0, 0, 0) == 1


def test_known_coefficient_for_pattern_two():
    assert genfun.staircase_gf(2, 10).coeff(3, 2, 1) == 1


def test_unit_pattern_coefficients_are_binomial_on_the_diagonal():
    gf = genfun.staircase_gf(1, 10)
    for a in range(1, 11):
        for b in range(0, 12):
            for s in range(0, 12):
                want = comb(a - 1, b - 1) if (1 <= b <= a and s == b) else 0
                assert gf.coeff(a, b, s) == want


def _three_variable_quotient(m, trunc):
    """The master series as one long division in x, y and q of the paper's
    fraction with m factors 1 - x cleared, each side built by ring
    operations: a route independent of the packing and of the column
    helper.  With w = q - 1, P = N (1-x)^(m-1) is a polynomial, and

        F = (1-x) P / ((1 - x - x y) P - w x^C(m+1,2) y^m).
    """
    x, y, q = variables(trunc)
    w = q - one(trunc)
    c = one(trunc) - x
    body = c ** (m - 1)
    for j in range(1, min(m, trunc + 1)):
        body = body - w * monomial(m * j - comb(j, 2), j, 0, 1, trunc) * c ** (m - 1 - j)
    lead = w * monomial(comb(m + 1, 2), m, 0, 1, trunc)
    return (c * body).divide((c - x * y) * body - lead)


@pytest.mark.parametrize("trunc", [1, 2, 3, 7, 12, 40, 60])
@pytest.mark.parametrize("m", [*range(1, 9), 12])
def test_packed_quotient_equals_the_three_variable_quotient(m, trunc):
    gf = genfun.staircase_gf(m, trunc)
    assert gf.trunc == trunc
    assert gf == _three_variable_quotient(m, trunc)


@pytest.mark.parametrize("m, trunc", [(4, 3), (13, 12), (61, 60), (10**9, 8)])
def test_packed_quotient_for_windows_longer_than_the_order(m, trunc):
    gf = genfun.staircase_gf(m, trunc)
    assert gf == _three_variable_quotient(m, trunc)
    assert all(s == 0 for (_a, _b, s), _c in gf.terms())


@pytest.mark.parametrize("trunc", [1, 2, 12, 30])
@pytest.mark.parametrize("m", range(1, 9))
def test_cleared_fraction_is_cramers_rule_times_the_cleared_factor(m, trunc):
    # Each side of the fraction in x and u = y/(1-x) is its Cramer
    # determinant's cofactor expansion over the recurrence, not only their
    # quotient, and in cluster form N = 1 - (q-1)(k_m - 1) and
    # D = (1-q) inner_block_det(m-1) + q (1 - x u).
    # At q := 2^trunc the divisor has at most max(2, 2m - 1) terms.
    x, y, q = variables(trunc)
    u = y * (one(trunc) - x).inverse()
    num, den = determinants._fraction_in_u(m, trunc)
    assert len(den.at_q(1 << trunc)._terms) <= max(2, 2 * m - 1)
    assert num == determinants._cofactor_in_u(m, trunc, zero(trunc))
    assert den == determinants._cofactor_in_u(m, trunc, one(trunc))
    num, den = determinants._in_y(num), determinants._in_y(den)
    k = determinants.top_block_det(m, trunc) - one(trunc)
    assert num == one(trunc) - (q - one(trunc)) * k
    assert den == (
        (one(trunc) - q) * determinants.inner_block_det(m - 1, trunc)
        + q * (one(trunc) - x * u)
    )


@pytest.mark.parametrize("m", range(1, 13))
def test_packed_divisor_has_max_2_and_2m_minus_1_terms(m):
    # At q := 2^trunc, D = (1 - x u) N + (1 - q) A has 2m + 1 terms less
    # the two that cancel for m >= 2: A (1 - q) against -x u times N's term
    # in u^(m-1).  At m = 1, N = 1 and D = 1 - q x u.  A short order cuts
    # terms.
    want = max(2, 2 * m - 1)
    for trunc in (200, 5):
        den = determinants._fraction_in_u(m, trunc)[1].at_q(1 << trunc)
        count = len(den._terms)
        assert count == want if trunc == 200 else count <= want


@given(st.integers(1, 12), st.integers(1, 30))
@settings(max_examples=40, deadline=None)
def test_packed_quotient_property(m, trunc):
    assert genfun.staircase_gf(m, trunc) == _three_variable_quotient(m, trunc)


@pytest.mark.parametrize("trunc", [1, 2, 3, 7, 12, 20, 30])
@pytest.mark.parametrize("m", [*range(1, 12), 40, 10**9])
def test_cramer_route_agrees(m, trunc):
    assert genfun.staircase_gf_cramer(m, trunc) == genfun.staircase_gf(m, trunc)


@pytest.mark.parametrize("m, trunc", [(1, 8), (4, 20), (10**9, 12)])
def test_cramer_route_uses_no_closed_form(monkeypatch, m, trunc):
    want = genfun.staircase_gf(m, trunc)

    def refuse(*args):
        raise AssertionError("the Cramer route built a closed form")

    for name in ("_top_in_u", "_closing"):
        for module in (determinants, genfun):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert genfun.staircase_gf_cramer(m, trunc) == want


@pytest.mark.parametrize("m", range(1, 8))
def test_direct_determinant_route_agrees(m):
    assert genfun.staircase_gf_cramer(m, 30, direct=True) == genfun.staircase_gf(m, 30)


def test_direct_route_expands_the_shared_minors_once(monkeypatch):
    # The numerator matrix inherits the system's minors off column 0; two
    # separate expansions took 110 products.
    products = []
    real = TriSeries.__mul__

    def counting(self, other):
        products.append(None)
        return real(self, other)

    monkeypatch.setattr(TriSeries, "__mul__", counting)
    genfun.staircase_gf_cramer(7, 30, direct=True)
    assert len(products) == 66


def test_avoiders_slice_matches_enumeration():
    # q := 0 keeps exactly the compositions with no window at all.
    gf = genfun.staircase_gf(2, 9)
    for a in range(1, 10):
        hist = oracle.staircase_histogram(a, 2)
        for b in range(1, a + 1):
            assert gf.coeff(a, b, 0) == hist.count(b, 0)


def test_q1_marginal_is_binomial():
    gf = genfun.gf_at_q1(2, 12)
    assert gf.coeff(5, 3, 0) == 6
    for a in range(1, 13):
        for b in range(0, 14):
            want = comb(a - 1, b - 1) if 1 <= b <= a else 0
            assert gf.coeff(a, b, 0) == want


def test_q1_marginal_is_independent_of_the_pattern():
    assert genfun.gf_at_q1(2, 10) == genfun.gf_at_q1(5, 10)


def test_q1_marginal_closed_form():
    x, y, _ = variables(12)
    assert genfun.gf_at_q1(3, 12) == (one(12) - x) * (one(12) - x - x * y).inverse()


@pytest.mark.parametrize("trunc", [1, 2, 20, 41])
@pytest.mark.parametrize("m", range(1, 9))
def test_q1_marginal_is_the_master_series_at_q1(m, trunc):
    assert genfun.gf_at_q1(m, trunc) == genfun.staircase_gf(m, trunc).at_q1()


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_totals_series_is_the_q_derivative_at_one(m):
    gf = genfun.staircase_gf(m, 12)
    assert genfun.total_staircases_gf(m, 12) == gf.diff_q().at_q1()


def test_totals_series_for_unit_pattern_counts_parts():
    gf = genfun.total_staircases_gf(1, 10)
    for n in range(1, 11):
        for parts in range(1, n + 1):
            assert gf.coeff(n, parts, 0) == parts * comb(n - 1, parts - 1)


def test_totals_series_known_coefficient():
    assert genfun.total_staircases_gf(2, 8).coeff(4, 2, 0) == 2


@pytest.mark.parametrize("m", range(1, 9))
def test_totals_series_is_the_corollary(m):
    gf = genfun.total_staircases_gf(m, 60)
    want = {
        (n, parts, 0): genfun.total_staircases(n, parts, m)
        for n in range(1, 61)
        for parts in range(1, n + 1)
    }
    assert dict(gf.terms()) == {key: c for key, c in want.items() if c}


def test_totals_series_for_windows_longer_than_the_order():
    gf = genfun.total_staircases_gf(10**9, 300)
    assert gf.trunc == 300
    assert not gf


def test_totals_series_needs_enough_parts():
    gf = genfun.total_staircases_gf(3, 12)
    for n in range(1, 13):
        for parts in (1, 2):
            assert gf.coeff(n, parts, 0) == 0


@pytest.mark.parametrize("m", [1, 2, 3])
def test_first_moments_match_the_closed_formula(m):
    gf = genfun.staircase_gf(m, 10)
    moments: dict = {}
    for (a, b, s), c in gf.terms():
        if s:
            moments[a, b] = moments.get((a, b), 0) + s * c
    for n in range(1, 11):
        for parts in range(1, n + 1):
            assert moments.get((n, parts), 0) == genfun.total_staircases(n, parts, m)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_total_formula_matches_enumeration(m):
    for n in range(1, 10):
        for parts in range(1, n + 1):
            assert genfun.total_staircases(n, parts, m) == oracle.total_staircases(
                n, parts, m
            )


def test_total_formula_known_values():
    assert genfun.total_staircases(4, 2, 2) == 2
    assert genfun.total_staircases(3, 2, 2) == 1
    assert genfun.total_staircases(13, 5, 3) == 378


def test_total_formula_clamps_below_the_pattern_length():
    # The raw product would be negative here; the count is zero.
    assert genfun.total_staircases(9, 1, 3) == 0
    assert genfun.total_staircases(9, 2, 4) == 0
    assert genfun.total_staircases(3, 1, 3) == 0


def test_support_of_the_master_series():
    m = 3
    gf = genfun.staircase_gf(m, 12)
    for (a, b, s), c in gf.terms():
        assert c > 0
        assert b <= a
        assert s <= max(0, b - m + 1)
        if s >= 1:
            assert a >= m * (m + 1) // 2


def test_argument_validation():
    with pytest.raises(ValueError):
        genfun.staircase_gf(0, 10)
    with pytest.raises(ValueError):
        genfun.total_staircases(0, 1, 1)
    with pytest.raises(ValueError):
        genfun.total_staircases_gf(1, 0)


def test_direct_route_builds_the_system_once(monkeypatch):
    builds = []
    real = determinants.build_system

    def counting(m, trunc):
        builds.append((m, trunc))
        return real(m, trunc)

    monkeypatch.setattr(determinants, "build_system", counting)
    monkeypatch.setattr(genfun, "build_system", counting)
    assert genfun.staircase_gf_cramer(3, 10, direct=True) == genfun.staircase_gf(3, 10)
    assert builds == [(3, 10)]


def test_direct_route_respects_the_determinant_limit():
    from staircomp.determinants import DeterminantLimitError

    with pytest.raises(DeterminantLimitError):
        genfun.staircase_gf_cramer(8, 10, direct=True)  # 9x9 matrices


def test_direct_route_refuses_before_building_the_system(monkeypatch):
    from staircomp.determinants import DeterminantLimitError

    def unexpected(m, trunc):
        raise AssertionError("the system was built")

    monkeypatch.setattr(genfun, "build_system", unexpected)
    with pytest.raises(DeterminantLimitError):
        genfun.staircase_gf_cramer(10**9, 3, direct=True)


def _printed_theorem(m, trunc):
    """F exactly as the paper's main theorem prints it."""
    x, y, q = variables(trunc)
    geom = (one(trunc) - x).inverse()
    u = y * geom

    def k(n):
        acc = zero(trunc)
        for j in range(n):
            acc = acc + monomial(n * j - comb(j, 2), 0, 0, 1, trunc) * u ** j
        return acc

    numerator = k(m) - q * monomial(m, 0, 0, 1, trunc) * y * geom * k(m - 1)
    denominator = (
        (one(trunc) - q) * monomial(comb(m + 1, 2), 0, 0, 1, trunc) * u ** m
        + (one(trunc) - x - x * y) * geom * numerator
    )
    return numerator * denominator.inverse()


def _printed_totals(m, trunc):
    """x^C(m+1,2) y^m (1-x)^(2-m) / (1-x-xy)^2, written as printed."""
    x, y, _ = variables(trunc)
    lead = monomial(comb(m + 1, 2), m, 0, 1, trunc)
    return lead * (one(trunc) - x) ** (2 - m) * (one(trunc) - x - x * y).inverse() ** 2


@pytest.mark.parametrize("trunc", [1, 2, 20, 41])
@pytest.mark.parametrize("m", range(1, 9))
def test_series_equal_the_printed_theorem(m, trunc):
    gf = genfun.staircase_gf(m, trunc)
    assert gf.trunc == trunc
    assert gf == _printed_theorem(m, trunc)
    totals = genfun.total_staircases_gf(m, trunc)
    assert totals.trunc == trunc
    assert totals == _printed_totals(m, trunc)
