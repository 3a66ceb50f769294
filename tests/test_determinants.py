"""System construction and the determinant reductions."""

import gc
import re
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staircomp import determinants
from staircomp.determinants import (
    DET_DIM_LIMIT,
    DeterminantLimitError,
    SeriesMatrix,
    build_system,
    denominator_det,
    det_division_free,
    inner_block_det,
    inner_block_matrix,
    numerator_det,
    numerator_matrix,
    top_block_det,
    top_block_matrix,
)
from staircomp.series import TriSeries, monomial, one, variables, zero

N = 12


def _z(trunc):
    x, _, _ = variables(trunc)
    return -((one(trunc) - x).inverse())


def test_system_for_unit_pattern():
    matrix, rhs = build_system(1, N)
    z = _z(N)
    assert matrix.dim == 2
    assert matrix[0, 0] == one(N)
    assert matrix[0, 1] == z
    assert matrix[1, 0] == monomial(1, 1, 1, -1, N)  # -q x y
    assert matrix[1, 1] == one(N)
    assert rhs == [one(N), zero(N)]


def test_system_entries_for_pattern_two():
    matrix, rhs = build_system(2, N)
    x, y, q = variables(N)
    assert matrix[1, 1] == one(N) - x * y
    assert matrix[2, 1] == -(q * x ** 2 * y)
    assert matrix[1, 0] == zero(N)
    assert rhs[1] == x * y
    assert rhs[2] == zero(N)


def test_system_row_for_longer_prefix():
    # Run-length-2 row at m = 3: weights are triangular-number differences.
    matrix, rhs = build_system(3, N)
    x, y, _ = variables(N)
    assert matrix[2, 1] == -(x ** 3 * y ** 2)
    assert matrix[2, 2] == one(N) - x ** 2 * y
    assert matrix[2, 3] == _z(N)
    assert rhs[2] == x ** 3 * y ** 2


def test_numerator_matrix_swaps_in_the_rhs():
    b = numerator_matrix(1, N)
    assert b[0, 0] == one(N)
    assert b[0, 1] == _z(N)
    assert b[1, 0] == zero(N)
    assert b[1, 1] == one(N)
    for m in (2, 3, 4):
        bm = numerator_matrix(m, N)
        assert bm[m, 0] == zero(N)
        assert bm[1, 0] == monomial(1, 1, 0, 1, N)  # x y


def test_division_free_det_of_identity():
    eye = SeriesMatrix(
        [[one(N) if i == j else zero(N) for j in range(3)] for i in range(3)]
    )
    assert det_division_free(eye) == one(N)


def test_division_free_det_of_unit_numerator():
    assert det_division_free(numerator_matrix(1, N)) == one(N)


def test_division_free_det_respects_the_dimension_limit():
    dim = DET_DIM_LIMIT + 1
    eye = SeriesMatrix(
        [[one(4) if i == j else zero(4) for j in range(dim)] for i in range(dim)]
    )
    with pytest.raises(DeterminantLimitError, match=f"^dimension {dim} exceeds "):
        det_division_free(eye)


def test_matrix_validation():
    with pytest.raises(ValueError):
        SeriesMatrix([[one(4), one(4)]])
    with pytest.raises(ValueError):
        SeriesMatrix([[one(4), one(5)], [one(4), one(4)]])


@pytest.mark.parametrize("key, name, index", [
    ((-1, -1), "row", -1), ((0, -1), "column", -1), ((3, 0), "row", 3), ((0, 3), "column", 3),
])
def test_entries_outside_the_matrix_are_refused(key, name, index):
    matrix, _ = build_system(2, 3)
    with pytest.raises(IndexError, match=f"^{name} {index} is outside 0..2$"):
        matrix[key]


@pytest.mark.parametrize("key", [0, (0, 1, 2), "ab", (1,), [0, 1]])
def test_entries_at_keys_other_than_pairs_are_refused(key):
    matrix, _ = build_system(2, 3)
    message = f"an entry is indexed by a (row, column) pair, got {key!r}"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        matrix[key]


@pytest.mark.parametrize("key, name, index", [
    ((True, True), "row", True), ((0, False), "column", False), ((1.0, 0), "row", 1.0),
    ((0, 2.0), "column", 2.0),
])
def test_entries_at_indices_other_than_ints_are_refused(key, name, index):
    matrix, _ = build_system(2, 3)
    with pytest.raises(TypeError, match=f"^{name} must be an int, got {index!r}$"):
        matrix[key]


@pytest.mark.parametrize("rows, cols, name, index", [
    ([-1], [-1], "row", -1), ([0], [-1], "column", -1), ([0, 3], [0, 1], "row", 3),
    ([0], [5], "column", 5),
])
def test_minors_outside_the_matrix_are_refused(rows, cols, name, index):
    matrix, _ = build_system(2, 3)
    with pytest.raises(IndexError, match=f"^{name} {index} is outside 0..2$"):
        matrix.submatrix(rows, cols)


@pytest.mark.parametrize("rows, cols, name, index", [
    ([True], [False], "row", True), ([0], [False], "column", False), ([0, 1.0], [0, 1], "row", 1.0),
    ([0, 1], [2, 0.0], "column", 0.0),
])
def test_minors_at_indices_other_than_ints_are_refused(rows, cols, name, index):
    matrix, _ = build_system(2, 3)
    with pytest.raises(TypeError, match=f"^{name} must be an int, got {index!r}$"):
        matrix.submatrix(rows, cols)


@pytest.mark.parametrize("rows, cols, name, index", [
    ([0, 0], [1, 2], "row", 0), ([0, 1], [1, 1], "column", 1), ([2, 1, 2], [0, 1, 2], "row", 2),
])
def test_minors_with_a_repeated_index_are_refused(rows, cols, name, index):
    matrix, _ = build_system(2, 3)
    with pytest.raises(ValueError, match=f"^{name} {index} is repeated$"):
        matrix.submatrix(rows, cols)


@pytest.mark.parametrize("length", [1, 3])
def test_replacement_column_must_match_the_dimension(length):
    matrix, _ = build_system(1, 4)
    with pytest.raises(ValueError, match="^replacement column has the wrong length$"):
        matrix.with_column(0, [one(4)] * length)


@pytest.mark.parametrize("col", [-1, 3, 5, 0.5])
def test_replacement_column_must_be_inside_the_matrix(col):
    matrix, rhs = build_system(2, 3)
    with pytest.raises(IndexError, match=f"^column {col} is outside 0..2$"):
        matrix.with_column(col, rhs)


@pytest.mark.parametrize("col", [True, False, 1.0])
def test_replacement_column_must_be_an_int(col):
    matrix, rhs = build_system(2, 3)
    with pytest.raises(TypeError, match=f"^column must be an int, got {col!r}$"):
        matrix.with_column(col, rhs)


@pytest.mark.parametrize("matrix", [[[one(3)]], ((one(3),),), one(3), None],
                         ids=["list", "tuple", "series", "none"])
def test_division_free_det_needs_a_series_matrix(matrix):
    with pytest.raises(TypeError, match="^expected a SeriesMatrix, got "):
        det_division_free(matrix)


@pytest.mark.parametrize(
    "rows",
    [[[1]], [[one(4), 0], [one(4), one(4)]], [[one(4), one(4)], [one(4), None]]],
    ids=["int-first", "int-later", "none"],
)
def test_matrix_entries_must_be_series(rows):
    with pytest.raises(TypeError, match="^entries must be TriSeries, got "):
        SeriesMatrix(rows)


@pytest.mark.parametrize("block_det", [top_block_det, inner_block_det])
def test_closed_blocks_build_no_term_beyond_the_order(block_det):
    # Every term of the cleared sum sits at x-degree >= j + t, so a huge
    # block size costs no more than a small one once both exceed the order.
    assert block_det(10 ** 9, 8) == block_det(12, 8)
    assert block_det(10 ** 9 + 1, 3) == block_det(13, 3)


def test_top_block_values():
    z = _z(N)
    x, y, _ = variables(N)
    assert top_block_det(0, N) == zero(N)
    assert top_block_det(1, N) == one(N)
    assert top_block_det(2, N) == one(N) - x * y - z * x * y


def test_inner_block_values():
    x, y, _ = variables(N)
    assert inner_block_det(-1, N) == one(N)
    assert inner_block_det(0, N) == one(N)
    assert inner_block_det(1, N) == one(N) - x * y


# Orders 1 and 2 lie below the degree of most divisors (1-x)^k.
ORDERS = (1, 2, N, 30)


def _printed_top_sum(k, trunc):
    """k_k = sum_{j<k} x^(kj - C(j,2)) (y/(1-x))^j, built as printed."""
    x, y, _ = variables(trunc)
    u = y * (one(trunc) - x).inverse()
    acc = zero(trunc)
    for j in range(k):
        acc = acc + monomial(k * j - comb(j, 2), 0, 0, 1, trunc) * u ** j
    return acc


@pytest.mark.parametrize("k", range(0, 9))
def test_top_block_modes_agree(k):
    for trunc in ORDERS:
        closed = top_block_det(k, trunc, "closed")
        assert closed == top_block_det(k, trunc, "recurrence")
        assert closed == _printed_top_sum(k, trunc)


@pytest.mark.parametrize("k", range(-1, 9))
def test_inner_block_modes_agree(k):
    # Printed: x^C(k+2,2) u^(k+1) + psi k_{k+1}, u = y/(1-x), psi = (1-x-xy)/(1-x).
    for trunc in ORDERS:
        x, y, _ = variables(trunc)
        geom = (one(trunc) - x).inverse()
        lead = monomial(comb(k + 2, 2), 0, 0, 1, trunc) * (y * geom) ** (k + 1)
        psi = (one(trunc) - x - x * y) * geom
        closed = inner_block_det(k, trunc, "closed")
        assert closed == inner_block_det(k, trunc, "recurrence")
        assert closed == lead + psi * _printed_top_sum(k + 1, trunc)


def test_recurrence_stops_at_the_order(monkeypatch):
    # A step past the order is zero, so the sweep ends after step 3: the
    # block of size 1000 reads the seeds and three entries.
    entries = []
    real = determinants._recurrence

    def counting(before, start):
        for entry in real(before, start):
            entries.append(entry)
            yield entry

    monkeypatch.setattr(determinants, "_recurrence", counting)
    top_block_det(1000, 3, "recurrence")
    assert len(entries) == 2 + 3


@pytest.mark.parametrize("trunc", [1, 2, 3, 8])
def test_recurrences_at_a_huge_block_equal_the_closed_forms(trunc):
    for k in (10**9, *range(trunc, trunc + 6)):
        assert top_block_det(k, trunc, "recurrence") == top_block_det(k, trunc, "closed")
        assert inner_block_det(k, trunc, "recurrence") == inner_block_det(k, trunc, "closed")


def _printed_sequence(n, before, start):
    """e_{-1}, ..., e_n of e_i = (1 - x^i y (1+z)) e_{i-1} + x^i y z e_{i-2},
    each step taken as printed, every step to n."""
    trunc = start.trunc
    z = _z(trunc)
    seq = [before, start]
    for i in range(1, n + 1):
        step = monomial(i, 1, 0, 1, trunc)
        seq.append((one(trunc) - step * (one(trunc) + z)) * seq[-1] + step * z * seq[-2])
    return seq


@pytest.mark.parametrize("trunc", [1, 2, 3, 8])
def test_sweep_entries_are_the_block_dets_at_every_size(trunc):
    # trunc + 2 entries in x and u; size k of a family is entry k - first,
    # or the last entry beyond it, and each entry written in y is the
    # printed y-recurrence's.
    for block_det, first, seed in ((top_block_det, 0, zero), (inner_block_det, -1, one)):
        entries = list(determinants._recurrence(seed(trunc), one(trunc)))
        assert len(entries) == trunc + 2
        printed = _printed_sequence(trunc + 3 - first, seed(trunc), one(trunc))
        for k in range(first, trunc + 4):
            in_y = determinants._in_y(entries[min(k - first, trunc + 1)])
            assert block_det(k, trunc, "recurrence") == in_y == printed[k - first], (block_det, k)


@st.composite
def seed_series(draw, trunc):
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        key = (draw(st.integers(0, trunc)), draw(st.integers(0, 3)), draw(st.integers(0, 2)))
        terms[key] = draw(st.integers(-9, 9))
    return TriSeries(trunc, terms)


@given(st.integers(1, 8).flatmap(lambda t: st.tuples(seed_series(t), seed_series(t))))
def test_sweep_step_is_the_printed_step(seeds):
    # e_{i-1} + x^i u (x e_{i-1} - e_{i-2}) is the step in u as printed,
    # (1 + x^(i+1) u) e_{i-1} - x^i u e_{i-2}, by ring operations with u
    # in the y slot.
    before, start = seeds
    trunc = start.trunc
    x, u, _ = variables(trunc)
    printed = [before, start]
    for i in range(1, trunc + 1):
        printed.append((one(trunc) + x ** (i + 1) * u) * printed[-1] - x ** i * u * printed[-2])
    assert list(determinants._recurrence(before, start)) == printed


def _cleared_top_sum(k, trunc):
    """U~_k = sum_{j<k} x^(kj - C(j,2)) y^j (1-x)^(k-1-j), the top block
    of size k times (1-x)^(k-1), built by ring operations."""
    x, y, _ = variables(trunc)
    acc = zero(trunc)
    for j in range(k):
        term = monomial(k * j - comb(j, 2), 0, 0, 1, trunc) * y ** j
        acc = acc + term * (one(trunc) - x) ** (k - 1 - j)
    return acc


@pytest.mark.parametrize("trunc", [1, 2, 7, 20])
def test_closed_blocks_equal_the_cleared_division(trunc):
    # The cleared polynomials, built by ring operations, over powers of
    # 1 - x: a route to the closed forms by long division instead of
    # binomial columns.
    x, y, _ = variables(trunc)
    for k in range(trunc + 4):
        cleared = _cleared_top_sum(k, trunc)
        assert top_block_det(k, trunc) == cleared.divide((one(trunc) - x) ** max(0, k - 1)), k
    for k in range(-1, trunc + 4):
        lead = monomial(comb(k + 2, 2), 0, 0, 1, trunc) * y ** (k + 1)
        body = lead + (one(trunc) - x - x * y) * _cleared_top_sum(k + 1, trunc)
        assert inner_block_det(k, trunc) == body.divide((one(trunc) - x) ** (k + 1)), k


@st.composite
def series_in_u(draw, trunc=None):
    """A series in x and u = y/(1-x), u in the y slot: up to three crowded
    columns, each of many terms sharing one (j, s), written by running
    sums, and lone terms with j up to 12, written by binomial runs once j
    is large enough."""
    if trunc is None:
        trunc = draw(st.integers(1, 14))
    coeff, degree = st.integers(-9, 9), st.integers(0, trunc)
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        j, s = draw(st.integers(0, 12)), draw(st.integers(0, 3))
        for e in draw(st.lists(degree, min_size=4, max_size=12)):
            terms[e, j, s] = draw(coeff)
    for _ in range(draw(st.integers(0, 6))):
        terms[draw(degree), draw(st.integers(0, 12)), draw(st.integers(0, 3))] = draw(coeff)
    return TriSeries(trunc, terms)


def _in_y_by_ring(series):
    """sum of c x^e y^j q^s / (1-x)^j over the terms c x^e u^j q^s, by
    ring operations."""
    trunc = series.trunc
    x, _, _ = variables(trunc)
    want = zero(trunc)
    for (e, j, s), c in series.terms():
        want = want + monomial(e, j, s, c, trunc) * ((one(trunc) - x) ** j).inverse()
    return want


@given(series_in_u())
@settings(max_examples=200)
def test_in_y_is_the_ring_sum(series):
    got = determinants._in_y(series)
    assert got == _in_y_by_ring(series)
    assert all(c for _key, c in got.terms())


def _within_the_ring(series):
    """``series`` without its terms whose y-degree exceeds their x-degree."""
    return TriSeries(series.trunc, {key: c for key, c in series.terms() if key[1] <= key[0]})


@given(series_in_u().map(_within_the_ring))
@settings(max_examples=200)
def test_in_u_undoes_in_y(series):
    assert determinants._in_u(determinants._in_y(series)) == series


@given(series_in_u().map(_within_the_ring))
@settings(max_examples=200)
def test_in_y_undoes_in_u(series):
    # The same strategy's series, read as series in x and y.
    got = determinants._in_u(series)
    assert determinants._in_y(got) == series
    assert all(c for _key, c in got.terms())


@given(series_in_u(), st.integers(0, 6))
@settings(max_examples=100)
def test_in_u_with_a_shift_is_a_product_by_a_power_of_one_minus_x(series, shift):
    x, _, _ = variables(series.trunc)
    want = determinants._in_u(series) * (one(series.trunc) - x) ** shift
    assert determinants._in_u(series, shift) == want


def test_in_u_refuses_a_negative_power_of_one_minus_x():
    # x^2 y (1-x)^-1 is x^2 u, but x^2 y (1-x)^-2 is x^2 u / (1-x).
    lone = monomial(2, 1, 0, 3, N)
    assert determinants._in_u(lone, -1) == lone
    for series in (lone, lone + monomial(1, 3, 0, 1, N)):
        with pytest.raises(ValueError, match=r"y\^1 times \(1-x\)\^-2"):
            determinants._in_u(series, -2)


CONJUGATION_ORDERS = (1, 2, 3, 7, N, 20, 30)


@pytest.mark.parametrize("m", range(1, 8))
def test_conjugated_system_has_the_determinants_in_u(m):
    # A similarity keeps the determinant; a scaling of rows or columns
    # that is not one would change both determinants but not their ratio.
    for trunc in CONJUGATION_ORDERS:
        matrix, rhs = build_system(m, trunc)
        conjugated, conjugated_rhs = determinants._conjugated(matrix, rhs)
        in_u = determinants._in_u
        assert det_division_free(conjugated) == in_u(det_division_free(matrix)), trunc
        assert det_division_free(conjugated.with_column(0, conjugated_rhs)) == in_u(
            det_division_free(numerator_matrix(m, trunc))
        ), trunc


@pytest.mark.parametrize("m", range(1, 8))
def test_conjugated_entries_are_polynomials_of_at_most_three_terms(m):
    for trunc in CONJUGATION_ORDERS:
        conjugated, conjugated_rhs = determinants._conjugated(*build_system(m, trunc))
        entries = [conjugated[j, i] for j in range(m + 1) for i in range(m + 1)]
        assert all(len(list(entry.terms())) <= 3 for entry in entries + conjugated_rhs), trunc
        # z = -1/(1-x), on the superdiagonal, becomes -1.
        assert all(conjugated[j, j + 1] == -one(trunc) for j in range(m)), trunc


@st.composite
def unit_divisor(draw, trunc):
    """A series in x, y and q whose x^0 slice is the constant +1 or -1,
    with every other term's y- and q-degrees at most its x-degree."""
    terms = {(0, 0, 0): draw(st.sampled_from([1, -1]))}
    for _ in range(draw(st.integers(0, 8))):
        a = draw(st.integers(1, trunc))
        terms[a, draw(st.integers(0, a)), draw(st.integers(0, min(a, 2)))] = draw(
            st.integers(-9, 9)
        )
    return TriSeries(trunc, terms)


@given(
    st.integers(1, 10).flatmap(
        lambda t: st.tuples(series_in_u(t).map(_within_the_ring), unit_divisor(t))
    )
)
@settings(max_examples=100, deadline=None)
def test_quotient_in_u_is_the_quotient_in_y(case):
    # y -> u (1-x) is a ring automorphism that keeps every x^0 slice, so
    # dividing in u and writing the quotient in y is dividing in y.
    num, den = case
    in_u, in_y = determinants._in_u, determinants._in_y
    assert in_y(in_u(num).divide(in_u(den))) == num.divide(den)


@given(st.integers(1, 12).flatmap(lambda t: st.tuples(series_in_u(t), st.integers(0, 6))))
@settings(max_examples=100)
def test_closing_is_the_printed_closing(case):
    # _in_y(_closing(body, m)) = x^C(m+1,2) y^m (1-x)^-m
    #                            + (1-x-xy) (1-x)^-1 _in_y(body).
    body, m = case
    trunc = body.trunc
    x, y, _ = variables(trunc)
    inv = (one(trunc) - x).inverse()
    lead = monomial(comb(m + 1, 2), m, 0, 1, trunc) * inv ** m
    want = lead + (one(trunc) - x - x * y) * inv * _in_y_by_ring(body)
    assert determinants._in_y(determinants._closing(body, m)) == want


@pytest.mark.parametrize("m", range(1, 9))
def test_cofactor_expansions_equal_their_printed_products(m):
    # The product by z taken as the general product, as printed.
    for trunc in ORDERS:
        z = determinants._z(trunc)
        marker = monomial(m, 1, 1, 1, trunc)
        top = top_block_det(m, trunc) + z * marker * top_block_det(m - 1, trunc)
        inner = inner_block_det(m - 1, trunc) + z * marker * inner_block_det(m - 2, trunc)
        assert numerator_det(m, trunc) == top
        assert denominator_det(m, trunc) == inner


def test_mode_name_is_validated():
    with pytest.raises(ValueError):
        top_block_det(2, N, "fast")


@pytest.mark.parametrize("k", range(1, 5))
def test_block_dets_match_direct_expansion(k):
    assert det_division_free(top_block_matrix(k, N)) == top_block_det(k, N)
    assert det_division_free(inner_block_matrix(k, N)) == inner_block_det(k, N)


@pytest.mark.parametrize("m", range(1, 5))
def test_cramer_dets_match_direct_expansion(m):
    matrix, _ = build_system(m, N)
    assert det_division_free(matrix) == denominator_det(m, N)
    assert det_division_free(numerator_matrix(m, N)) == numerator_det(m, N)


def _fresh_det(matrix):
    """det_division_free of a new matrix on the same rows, which inherits
    no minor."""
    dim = matrix.dim
    return det_division_free(SeriesMatrix([[matrix[i, j] for j in range(dim)] for i in range(dim)]))


@pytest.mark.parametrize("m", range(1, 8))
def test_replaced_column_keeps_only_the_minors_that_avoid_it(m):
    matrix, rhs = build_system(m, 8)
    det_division_free(matrix)
    for col in range(m + 1):
        replaced = matrix.with_column(col, rhs)
        assert det_division_free(replaced) == _fresh_det(replaced), col


@given(
    st.integers(1, 7).flatmap(lambda m: st.tuples(
        st.just(m), st.integers(0, m), st.lists(seed_series(6), min_size=m + 1, max_size=m + 1)
    ))
)
@settings(max_examples=30, deadline=None)
def test_replaced_column_of_any_series_keeps_only_the_minors_that_avoid_it(case):
    m, col, column = case
    matrix, _ = build_system(m, 6)
    det_division_free(matrix)
    replaced = matrix.with_column(col, column)
    assert det_division_free(replaced) == _fresh_det(replaced)


def test_division_free_det_leaves_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        det_division_free(build_system(5, 20)[0])
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_numerator_det_for_unit_pattern():
    assert numerator_det(1, N) == one(N)


def test_denominator_det_for_unit_pattern():
    # 1 + z q x y, i.e. 1 - q x y / (1 - x).
    expected = one(N) + _z(N) * monomial(1, 1, 1, 1, N)
    assert denominator_det(1, N) == expected


def test_denominator_det_without_marker_is_the_inner_block():
    # Dropping every q-term from the m = 2 determinant leaves inner block 1.
    det = denominator_det(2, N)
    marker_free = {key: c for key, c in det.terms() if key[2] == 0}
    assert marker_free == dict(inner_block_det(1, N).terms())


@pytest.mark.parametrize("k", range(0, 9))
def test_bridge_between_the_block_families(k):
    x, y, _ = variables(N)
    geom = (one(N) - x).inverse()
    u = y * geom
    psi = (one(N) - x - x * y) * geom
    lead = monomial(comb(k + 2, 2), 0, 0, 1, N) * u ** (k + 1)
    assert inner_block_det(k, N) == lead + psi * top_block_det(k + 1, N)


@pytest.mark.parametrize("m", range(1, 9))
def test_denominator_rewrites_through_the_top_blocks(m):
    x, y, q = variables(N)
    geom = (one(N) - x).inverse()
    u = y * geom
    psi = (one(N) - x - x * y) * geom
    ratio = q * monomial(m, 1, 0, 1, N) * geom  # q x^m y / (1-x)
    left = inner_block_det(m - 1, N) - ratio * inner_block_det(m - 2, N)
    lead = monomial(comb(m + 1, 2), 0, 0, 1, N) * u ** m
    right = (one(N) - q) * lead + psi * (
        top_block_det(m, N) - ratio * top_block_det(m - 1, N)
    )
    assert left == right


def test_block_determinants_are_units():
    for k in range(1, 8):
        assert top_block_det(k, N).coeff(0, 0, 0) == 1
    for k in range(0, 8):
        assert inner_block_det(k, N).coeff(0, 0, 0) == 1


def test_block_size_validation():
    with pytest.raises(ValueError):
        top_block_det(-1, N)
    with pytest.raises(ValueError):
        inner_block_det(-2, N)
    with pytest.raises(ValueError):
        top_block_matrix(0, N)
    with pytest.raises(ValueError):
        build_system(0, N)


# Every entry point with the name of its size argument and the least size.
SIZED_ENTRY_POINTS = [
    (build_system, "m", 1),
    (top_block_matrix, "k", 1),
    (inner_block_matrix, "k", 1),
    (numerator_det, "m", 1),
    (denominator_det, "m", 1),
    (top_block_det, "k", 0),
    (inner_block_det, "k", -1),
]


@pytest.mark.parametrize(
    "entry, name, least", SIZED_ENTRY_POINTS, ids=[e.__name__ for e, _, _ in SIZED_ENTRY_POINTS]
)
def test_sizes_must_be_ints_of_at_least_the_least_size(entry, name, least):
    for bad in (True, False, 2.0, least + 0.0):
        with pytest.raises(TypeError, match=f"^{name} must be an int, got {re.escape(repr(bad))}$"):
            entry(bad, N)
    with pytest.raises(ValueError, match=f"^{name} must be at least {least}, got {least - 1}$"):
        entry(least - 1, N)
    entry(least, N)


@pytest.mark.parametrize(
    "entry",
    [build_system, top_block_matrix, inner_block_matrix, numerator_det, denominator_det],
    ids=lambda e: e.__name__,
)
def test_truncation_orders_must_be_ints(entry):
    for bad in (2.5, True):
        with pytest.raises(TypeError, match=f"^trunc must be an int, got {re.escape(repr(bad))}$"):
            entry(2, bad)
