"""Ring operations of the truncated trivariate series."""

import json
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staircomp import determinants
from staircomp.series import (
    DigitSplitError,
    NonUnitError,
    TriSeries,
    _format_term,
    _split_q_digits,
    monomial,
    one,
    variables,
    zero,
)

N = 12


@st.composite
def sparse_series(draw, trunc=N, max_terms=6):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        key = (
            draw(st.integers(0, trunc)),
            draw(st.integers(0, 3)),
            draw(st.integers(0, 3)),
        )
        terms[key] = draw(st.integers(-9, 9))
    return TriSeries(trunc, terms)


@st.composite
def units(draw, trunc=N):
    # Constant +/-1 plus terms of positive x-degree: always invertible.
    sign = draw(st.sampled_from((1, -1)))
    tail = draw(sparse_series(trunc=trunc, max_terms=4))
    x = monomial(1, 0, 0, 1, trunc)
    return sign + x * tail


@st.composite
def digit_series(draw, bits):
    """A series whose coefficients are base-2**bits digits: each lies in
    [0, 2**bits), and q-degrees spread wide enough to leave runs of zero
    digits between the terms of one x^a y^b."""
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        key = (draw(st.integers(0, N)), draw(st.integers(0, 3)), draw(st.integers(0, 40)))
        terms[key] = draw(st.integers(0, (1 << bits) - 1))
    return TriSeries(N, terms)


def test_monomial_and_coeff():
    m = monomial(3, 2, 1, trunc=20)
    assert m.coeff(3, 2, 1) == 1
    assert m.coeff(3, 2, 0) == 0
    assert monomial(0, 0, 0, 1, 20) == one(20)


def test_monomial_beyond_truncation_is_zero():
    assert monomial(25, 0, 0, 7, trunc=20) == zero(20)


def test_geometric_identity():
    x, _, _ = variables(N)
    geometric = TriSeries(N, {(a, 0, 0): 1 for a in range(N + 1)})
    assert (one(N) - x) * geometric == one(N)


def test_multiplying_by_one_is_identity():
    f = monomial(2, 1, 0, 5, N) + monomial(0, 0, 2, -3, N)
    assert f * one(N) == f
    assert f * 1 == f


def test_monomial_product():
    x, y, _ = variables(N)
    assert (x * y) * (x * y) == monomial(2, 2, 0, 1, N)


def test_inverse_of_one_minus_x_is_geometric():
    x, _, _ = variables(N)
    inv = (one(N) - x).inverse()
    for a in range(N + 1):
        assert inv.coeff(a, 0, 0) == 1


def test_inverse_of_one():
    assert one(N).inverse() == one(N)


def test_inverse_multiplies_back():
    x, y, _ = variables(N)
    f = one(N) - x - x * y
    assert f * f.inverse() == one(N)


def test_inverse_of_negative_unit():
    x, y, _ = variables(N)
    f = -(one(N)) + x
    assert f * f.inverse() == one(N)
    den = -(one(N)) + x * y + x ** 4
    num = one(N) + 7 * x ** 2
    assert num.divide(den) * den == num


def test_non_unit_rejected():
    x, y, _ = variables(N)
    num = one(N) + x
    for divide in (TriSeries.inverse, num.divide):
        with pytest.raises(NonUnitError):
            divide(one(N) + one(N))  # constant 2
        with pytest.raises(NonUnitError):
            divide(x)  # constant 0
        with pytest.raises(NonUnitError):
            divide(one(N) + y)  # extra x^0 term: quotient would not truncate


def test_divide_multiplies_back_at_the_smaller_order():
    x, y, q = variables(N)
    num = TriSeries(N, {(0, 0, 0): 3, (2, 1, 1): -4, (N, 2, 0): 5})
    den = (one(N) - x - x * y + q * x ** 3).truncated(9)
    quotient = num.divide(den)
    assert quotient.trunc == 9
    assert quotient * den == num.truncated(9)


@pytest.mark.parametrize("order", [1, 2, 12])
def test_divisors_steeper_in_y_or_q_than_in_x(order):
    # Quotient degrees in y and q outgrow the x-degree here, so the packed
    # (y, q) keys of the long division must leave room for them.
    x, y, q = variables(order)
    nums = (
        one(order),
        one(order) + x * y ** 2 * q ** 4 - 3 * x ** 3 * q ** 11,
        TriSeries(order, {(0, 7, 9): 2, (1, 0, 13): -5, (2, 4, 0): 1}),
    )
    dens = (
        one(order) + x * y ** 5 * q ** 3,
        one(order) - x ** 2 * y ** 9,
        -one(order) + x * q ** 6 - x ** 2 * y ** 3 * q ** 15,
    )
    for num in nums:
        for den in dens:
            assert num.divide(den) * den == num
    if order >= 4:
        quotient = one(order).divide(one(order) + x * y ** 5 * q ** 3)
        assert quotient.coeff(4, 20, 12) == 1


def test_inverse_is_one_divided_by_the_series():
    x, y, q = variables(N)
    f = one(N) - x - q * x * y + 2 * x ** 3
    assert f.inverse() == one(N).divide(f)


def test_coeff_validates_range():
    f = one(N)
    with pytest.raises(ValueError):
        f.coeff(N + 1, 0, 0)
    with pytest.raises(ValueError):
        f.coeff(1, -1, 0)


@pytest.mark.parametrize(
    "exponents",
    [(True, 1, 0), (1.0, 1, 0), (1, 1.0, 0), (1, 1, False)],
    ids=["bool-x", "float-x", "float-y", "bool-q"],
)
def test_coeff_rejects_non_int_exponents(exponents):
    # The x y coefficient is 1, which a bool or float exponent used to read.
    f = monomial(1, 1, 0, 1, N)
    with pytest.raises(TypeError, match="-degree must be an int"):
        f.coeff(*exponents)


def test_substitute_q_one():
    _, _, q = variables(N)
    assert q.at_q1() == one(N)
    f = monomial(3, 2, 0, 1, N) + monomial(3, 2, 1, 1, N)
    assert f.at_q1() == monomial(3, 2, 0, 2, N)
    g = TriSeries(N, {(0, 0, 0): 1, (2, 1, 3): -4, (2, 1, 0): 4, (5, 2, 1): 7})
    assert g.at_q(1) == g.at_q1() == TriSeries(N, {(0, 0, 0): 1, (5, 2, 0): 7})


@pytest.mark.parametrize("value", [0, 1, -1, 3, 2**64])
def test_substitute_q_value(value):
    x, y, q = variables(N)
    f = 2 * x * y * q * q - 3 * x * q + y + 5
    assert f.at_q(value) == 2 * value**2 * x * y - 3 * value * x + y + 5
    assert q.at_q(value) == value * one(N)


@pytest.mark.parametrize("value", [True, 1.0], ids=["bool", "float"])
def test_substitute_q_takes_ints_only(value):
    _, _, q = variables(N)
    with pytest.raises(TypeError, match="int"):
        q.at_q(value)


@given(sparse_series(), sparse_series(), units(), st.sampled_from((0, 1, -1, 3, 2**64)))
@settings(max_examples=60)
def test_substituting_q_commutes_with_the_ring_operations(f, g, u, value):
    assert (f + g).at_q(value) == f.at_q(value) + g.at_q(value)
    assert (f - g).at_q(value) == f.at_q(value) - g.at_q(value)
    assert (f * g).at_q(value) == f.at_q(value) * g.at_q(value)
    assert f.divide(u).at_q(value) == f.at_q(value).divide(u.at_q(value))


@given(st.integers(1, 70).flatmap(lambda bits: st.tuples(st.just(bits), digit_series(bits))))
def test_digit_split_reads_back_the_substituted_digits(case):
    bits, g = case
    packed = g.at_q(1 << bits)
    assert _split_q_digits(packed, bits) == g


@given(sparse_series(), st.integers(1, 8))
def test_digit_split_of_non_negative_coefficients(f, bits):
    packed = TriSeries(N, {(a, b, 0): abs(c) << (3 * s * bits) for (a, b, s), c in f.terms()})
    digits = _split_q_digits(packed, bits)
    assert digits.at_q(1 << bits) == packed
    assert all(0 < c < 1 << bits for _key, c in digits.terms())


def test_digit_split_skips_runs_of_zero_digits():
    packed = TriSeries(N, {(2, 1, 0): (5 << 700) + 3, (4, 0, 0): 1 << 60})
    assert _split_q_digits(packed, 7) == TriSeries(N, {(2, 1, 0): 3, (2, 1, 100): 5, (4, 0, 8): 16})


def test_digit_split_refuses_a_negative_coefficient():
    # A negative int has no base-2^bits digits; shifting it right ends at
    # -1, never at 0, so without the check the split never returns.
    message = "coefficient -5 of x^1 y^1 is negative: it has no base-2^4 digits"
    for packed in (TriSeries(3, {(1, 1, 0): -5}), TriSeries(3, {(0, 0, 0): 7, (1, 1, 0): -5})):
        with pytest.raises(DigitSplitError, match=f"^{re.escape(message)}$"):
            _split_q_digits(packed, 4)
    assert issubclass(DigitSplitError, ArithmeticError)


def test_digit_split_skips_a_long_run_of_zero_digits_in_one_shift():
    # Shifting digit by digit copies the 6-million-bit rest 100000 times
    # (several seconds); one shift over the run takes well under 1 ms.
    packed = TriSeries(N, {(0, 0, 0): 5 + (3 << (60 * 100000))})
    start = time.perf_counter()
    digits = _split_q_digits(packed, 60)
    assert time.perf_counter() - start < 1.0
    assert dict(digits.terms()) == {(0, 0, 0): 5, (0, 0, 100000): 3}


def test_q_derivative():
    _, _, q = variables(N)
    assert (q * q).diff_q() == 2 * q
    assert monomial(3, 2, 0, 1, N).diff_q() == zero(N)


def test_power_including_negative_exponents():
    x, _, _ = variables(N)
    f = one(N) - x
    assert f ** 0 == one(N)
    assert f ** 2 == one(N) - 2 * x + x * x
    assert f ** -2 == (f.inverse()) ** 2
    assert f ** 2 * f ** -2 == one(N)


def test_equality_up_to_common_truncation():
    # == is strict; agreement up to the smaller order goes through truncated.
    wide = TriSeries(20, {(a, 0, 0): 1 for a in range(21)})
    narrow = TriSeries(10, {(a, 0, 0): 1 for a in range(11)})
    assert wide != narrow
    assert wide.truncated(10) == narrow
    assert narrow != narrow - monomial(10, 0, 0, 1, 10)
    assert one(5) != one(6)


def test_equality_is_transitive_across_orders():
    # b and c differ only at x^7, beyond a's order: a == b and a == c would
    # follow from agreement up to the common order, although b != c.
    a = one(5)
    b = one(10)
    c = one(10) + monomial(7, 0, 0, 1, 10)
    assert b != c
    assert a != b and a != c
    assert a == b.truncated(5) == c.truncated(5)


def test_truncated_cannot_extend():
    with pytest.raises(ValueError):
        one(5).truncated(6)


@pytest.mark.parametrize(
    "own, order, error",
    [(20, 20.0, TypeError), (1, True, TypeError), (1, 0, ValueError), (1, -1, ValueError)],
    ids=["float", "bool", "zero", "negative"],
)
def test_truncated_checks_the_order_before_the_same_order_shortcut(own, order, error):
    # 20.0 == 20 and True == 1, so the order is checked before the
    # same-order shortcut can return the series itself.
    with pytest.raises(error):
        one(own).truncated(order)


@pytest.mark.parametrize(
    "exponent",
    [True, False, 2.0, Fraction(2), Fraction(1, 2)],
    ids=["True", "False", "float", "Fraction(2)", "Fraction(1, 2)"],
)
def test_powers_take_int_exponents_only(exponent):
    x, _, _ = variables(N)
    with pytest.raises(TypeError):
        (one(N) - x) ** exponent


NON_INTS = [1.0, True, Fraction(1), Fraction(1, 2)]
RING_OPERATIONS = {
    "add": lambda f, v: f + v,
    "radd": lambda f, v: v + f,
    "sub": lambda f, v: f - v,
    "rsub": lambda f, v: v - f,
    "mul": lambda f, v: f * v,
    "rmul": lambda f, v: v * f,
    "divide": lambda f, v: f.divide(v),
}


@pytest.mark.parametrize("value", NON_INTS, ids=repr)
@pytest.mark.parametrize("operation", RING_OPERATIONS.values(), ids=RING_OPERATIONS.keys())
def test_ring_operations_take_no_non_int_operand(operation, value):
    # The ring holds exact ints only: a float, bool or Fraction never
    # coerces to a constant series.
    x, _, _ = variables(N)
    with pytest.raises(TypeError):
        operation(one(N) - x, value)


@pytest.mark.parametrize("value", NON_INTS, ids=repr)
def test_a_series_equals_no_non_int(value):
    assert not one(N) == value
    assert one(N) != value


def test_non_int_truncation_orders_rejected():
    for build in (
        lambda: TriSeries(2.5),
        lambda: TriSeries(True),
        lambda: monomial(1, 0, 0, 1, 5.0),
        lambda: one(5).truncated(2.0),
    ):
        with pytest.raises(TypeError):
            build()


@pytest.mark.parametrize("build", [list, iter], ids=["list", "iterator"])
def test_non_mapping_terms_rejected(build):
    with pytest.raises(TypeError):
        TriSeries(5, build([((1, 0, 0), 1), ((1, 0, 0), 2)]))


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        TriSeries(5, {(-1, 0, 0): 1})


@pytest.mark.parametrize("coefficient", [1.5, 2.0, True])
def test_non_int_coefficients_rejected(coefficient):
    with pytest.raises(TypeError):
        TriSeries(5, {(1, 0, 0): coefficient})


@pytest.mark.parametrize("key", [(1.0, 0, 0), (0, 2.0, 0), (0, 0, True)])
def test_non_int_exponents_rejected(key):
    with pytest.raises(TypeError):
        TriSeries(5, {key: 1})


def test_json_round_trip_and_sorted_terms():
    f = monomial(3, 1, 0, -12345678901234567890, N) + monomial(1, 0, 2, 4, N) + one(N)
    obj = f.to_json_obj()
    assert obj["trunc"] == N
    keys = [(t["a"], t["b"], t["s"]) for t in obj["terms"]]
    assert keys == sorted(keys)
    assert all(isinstance(t["c"], str) for t in obj["terms"])
    assert TriSeries.from_json_obj(json.loads(json.dumps(obj))) == f


@pytest.mark.parametrize(
    "obj",
    [
        {"trunc": 5.7, "terms": [{"a": 1, "b": 1, "s": 0, "c": "3"}]},
        {"trunc": True, "terms": []},
        {"trunc": "5", "terms": []},
        {"trunc": 5, "terms": [{"a": 1.9, "b": 1, "s": 0, "c": "3"}]},
        {"trunc": 5, "terms": [{"a": 1, "b": True, "s": 0, "c": "3"}]},
        {"trunc": 5, "terms": [{"a": 1, "b": 1, "s": "0", "c": "3"}]},
        {"trunc": 5, "terms": [{"a": 1, "b": 1, "s": 0, "c": 3}]},
        {"trunc": 5, "terms": [{"a": 1, "b": 1, "s": 0, "c": "3.0"}]},
        {"trunc": 5, "terms": [{"a": 1, "b": 1, "s": 0, "c": " 3"}]},
        {"trunc": 5, "terms": [{"a": 1, "b": 1, "s": 0, "c": "+3"}]},
        {"trunc": 5, "terms": [{"a": 1, "b": 1, "s": 0, "c": "03"}]},
        {"trunc": 5, "terms": [{"a": 1, "b": 1, "s": 0, "c": "3_0"}]},
        {"trunc": 5, "terms": [{"a": 1, "b": 1, "s": 0, "c": "\u0663"}]},
    ],
)
def test_from_json_obj_coerces_nothing(obj):
    with pytest.raises((TypeError, ValueError)):
        TriSeries.from_json_obj(obj)


def test_from_json_obj_rejects_a_repeated_term():
    # to_json_obj never writes two terms with the same exponents.
    obj = {
        "trunc": 3,
        "terms": [{"a": 1, "b": 0, "s": 0, "c": "5"}, {"a": 1, "b": 0, "s": 0, "c": "7"}],
    }
    with pytest.raises(ValueError, match=r"\(1, 0, 0\)"):
        TriSeries.from_json_obj(obj)


def test_str_rendering():
    x, y, q = variables(N)
    assert str(zero(N)) == "0"
    assert str(one(N) - 2 * x * y + q ** 2) == "1 + q^2 - 2*x*y"


def _assert_output_sorted_by_key(f):
    # terms(), to_json_obj() and str() all list the terms in (x, y, q)
    # order, whatever the order of the stored dict.
    ordered = sorted(f._terms.items())
    assert list(f.terms()) == ordered
    assert [((t["a"], t["b"], t["s"]), int(t["c"])) for t in f.to_json_obj()["terms"]] == ordered
    rendered = "".join(_format_term(key, c, first=not i) for i, (key, c) in enumerate(ordered))
    assert str(f) == (rendered or "0")


@given(
    st.dictionaries(
        st.tuples(st.integers(0, N), st.integers(0, 3), st.integers(0, 3)),
        st.integers(-9, 9).filter(bool),
        max_size=20,
    ).flatmap(lambda terms: st.permutations(list(terms.items())))
)
def test_output_of_a_shuffled_mapping_is_sorted_by_key(items):
    _assert_output_sorted_by_key(TriSeries(N, dict(items)))


@st.composite
def series_in_u(draw):
    """A series in x and u = y/(1-x), u in the y slot, with up to three
    crowded columns of terms sharing one (j, s) and lone terms with j up
    to 12."""
    degree = st.integers(0, N)
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        j, s = draw(st.integers(0, 12)), draw(st.integers(0, 3))
        for e in draw(st.lists(degree, min_size=4, max_size=12)):
            terms[e, j, s] = draw(st.integers(-9, 9))
    for _ in range(draw(st.integers(0, 6))):
        terms[draw(degree), draw(st.integers(0, 12)), draw(st.integers(0, 3))] = draw(
            st.integers(-9, 9)
        )
    return TriSeries(N, terms)


@given(series_in_u())
@settings(max_examples=200)
def test_output_of_in_y_is_sorted_by_key(series):
    # _in_y stores its terms column by column, u-degree major.
    _assert_output_sorted_by_key(determinants._in_y(series))


@given(sparse_series(), sparse_series(), sparse_series())
@settings(max_examples=60)
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(st.integers(1, N).flatmap(sparse_series), sparse_series(), st.integers(-9, 9))
def test_additive_inverse(f, g, c):
    # Subtraction adds the negation; f's order is at most g's, so the
    # orders differ in most examples.
    assert g + (-g) == zero(N)
    assert f - g == f + (-g)
    assert g - f == g + (-f)
    assert f - c == f + (-c)
    assert c - f == c + (-f)


@given(units())
@settings(max_examples=40)
def test_units_invert(f):
    assert f * f.inverse() == one(N)


@given(sparse_series(), units())
@settings(max_examples=40)
def test_division_by_sparse_polynomials(num, den):
    assert num.divide(den) * den == num


@given(sparse_series(), sparse_series())
@settings(max_examples=40)
def test_truncation_coherence_of_products(f, g):
    assert (f * g).truncated(6) == f.truncated(6) * g.truncated(6)


@given(sparse_series(), sparse_series())
def test_truncation_coherence_of_sums(f, g):
    assert (f + g).truncated(6) == f.truncated(6) + g.truncated(6)


@given(units())
@settings(max_examples=30)
def test_truncation_coherence_of_inverses(f):
    assert f.inverse().truncated(6) == f.truncated(6).inverse()


@given(sparse_series())
def test_truncation_coherence_of_specializations(f):
    assert f.at_q1().truncated(6) == f.truncated(6).at_q1()
    assert f.at_q(-3).truncated(6) == f.truncated(6).at_q(-3)
    assert f.diff_q().truncated(6) == f.truncated(6).diff_q()


# -- ring results are built without the public checks ------------------------


def _assert_stored_as_checked(r):
    """r is what the public constructor would store: no zero coefficient
    and no x-degree above the order."""
    stored = dict(r.terms())
    assert r == TriSeries(r.trunc, stored)
    assert all(stored.values())
    assert all(a <= r.trunc for a, _b, _s in stored)


@given(
    sparse_series(),
    st.integers(1, N).flatmap(lambda order: sparse_series(trunc=order)),
    units(),
    st.integers(1, N),
    st.sampled_from((0, 1, -1, 3, 2**64)),
    digit_series(5),
)
@settings(max_examples=60)
def test_ring_results_hold_the_stored_invariant(f, g, u, k, value, d):
    for r in (
        f + g, f - g, -f, f * g, f ** 3, f.divide(u),
        f.at_q1(), f.at_q(value), f.diff_q(), f.truncated(k),
        _split_q_digits(d.at_q(32), 5),
    ):
        _assert_stored_as_checked(r)


def test_cancellation_leaves_no_stored_zero():
    x, _y, q = variables(N)
    f = 3 * x * q - 2
    assert not (f - f)
    product = (1 + x) * (1 - x)
    assert (1, 0, 0) not in dict(product.terms())
    assert product == 1 - x * x
    assert not (q - 1).at_q1()
    assert not (q + 1).at_q(-1)
    assert not (x * q).at_q(0)


def _schoolbook(f, g):
    """f * g term by term, truncated at the smaller order."""
    n = min(f.trunc, g.trunc)
    out = {}
    for (a1, b1, s1), c1 in f.terms():
        for (a2, b2, s2), c2 in g.terms():
            if a1 + a2 <= n:
                key = (a1 + a2, b1 + b2, s1 + s2)
                out[key] = out.get(key, 0) + c1 * c2
    return TriSeries(n, out)


_POLY = TriSeries(N, {(0, 0, 0): 2, (1, 1, 0): -3, (4, 2, 1): 5, (9, 0, 3): 1, (N, 1, 1): 7})


@pytest.mark.parametrize(
    "left, right",
    [
        (monomial(2, 1, 0, 3, N), _POLY),
        (_POLY, monomial(2, 1, 0, 3, N)),
        (monomial(1, 1, 1, -2, N), monomial(3, 0, 2, 5, N)),
        (monomial(1, 0, 1, 1, 30), _POLY),
        (_POLY, monomial(1, 0, 1, 1, 5)),
        (monomial(0, 2, 1, -7, N), _POLY),
        (_POLY, monomial(5, 0, 0, 4, 30)),
        (monomial(15, 1, 0, 1, 30), _POLY),
        (1 + monomial(1, 0, 0, 1, N), 1 - monomial(1, 0, 0, 1, N)),
    ],
    ids=[
        "term-left", "term-right", "both-terms", "wider-term", "narrower-term",
        "negative", "partly-cut", "beyond-order", "cancelling",
    ],
)
def test_products_match_the_schoolbook_product(left, right):
    product = left * right
    assert product == _schoolbook(left, right)
    _assert_stored_as_checked(product)


@given(
    st.integers(1, N).flatmap(lambda order: sparse_series(trunc=order)),
    st.integers(1, N).flatmap(lambda order: sparse_series(trunc=order)),
)
def test_random_products_match_the_schoolbook_product(f, g):
    assert f * g == _schoolbook(f, g)
    assert g * f == _schoolbook(g, f)


def test_ring_operations_skip_the_public_constructor(monkeypatch):
    x, y, q = variables(N)
    f = 3 * x * y - q + 2
    g = x - 5 * y * q
    u = 1 - x * y
    packed = (2 * x * y + x * x).at_q(1 << 40)
    calls = []
    checked_init = TriSeries.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        checked_init(self, *args, **kwargs)

    monkeypatch.setattr(TriSeries, "__init__", counting)
    results = [
        f * g, f * x, x * f, f + g, f - g, -f, f.divide(u),
        f.at_q1(), f.at_q(7), f.diff_q(), f.truncated(5),
        _split_q_digits(packed, 40),
    ]
    assert calls == []
    monkeypatch.undo()
    for r in results:
        _assert_stored_as_checked(r)
