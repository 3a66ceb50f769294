"""Truncated trivariate power series with exact integer coefficients.

The ring is Z[x, y, q] cut off at a fixed x-degree: a series keeps every
term whose x-degree is at most ``trunc`` and silently discards the rest.
Coefficients are plain Python ints, so nothing overflows or rounds.
Truncation acts on the x-degree only; in every series this package builds,
a term's y- and q-degrees never exceed its x-degree, so the single cutoff
keeps all computations finite.

Division (``divide``, and ``inverse`` as 1 / self) is restricted to
divisors whose entire x^0 slice is the constant +1 or -1.  Those are the
only divisions the closed forms ever need, and their quotients again have
integer coefficients.  A polynomial divisor makes the quotient one long
division over its few x-slices.  Inside that loop a (y, q) exponent
pair (b, s) is packed into the one int b * width + s, so a product of two
terms adds two ints instead of building a tuple.  Packing commutes with
addition as long as every q-degree stays below ``width``, and ``width``
is computed from the operands to guarantee it: the numerator's top
q-degree plus the quotient's order times the divisor's steepest q-slope
s / i over its terms x^i y^b q^s with i > 0 (a quotient slice of x-degree
a gains at most that slope times a).  The y-degree is the high digit and
needs no bound.

``at_q(v)`` substitutes a plain int v for q: a ring homomorphism onto the
series in x and y alone, so it commutes with sums, products and ``divide``
(a divisor's x^0 slice has no q term, so it stays +1 or -1).  With
v = 2**bits it packs the q-degrees into the coefficients as base-2**bits
digits, and the private ``_split_q_digits`` reads them back.  That split
is exact only when the series before packing had every coefficient in
[0, 2**bits): then no digit carries into the next, and the digits of a
non-negative int are unique.  A negative packed coefficient has no such
digits, and the split raises ``DigitSplitError`` naming its key; a
coefficient that reached 2**bits before packing carried into the next
digit, which the split cannot see, so its caller must know that bound.

A series is built in one of two ways.  Public construction, ``TriSeries``
and the helpers ``zero``, ``one``, ``monomial`` and ``from_json_obj``,
checks the order and the type and sign of every term.  The ring's own
results (sums, products, quotients, specializations and truncations) skip
those checks and are stored as computed: their terms come from operands
that were checked already, and each operation drops its own zeros and its
terms above the order, so a stored series never holds a zero coefficient
or an x-degree beyond ``trunc``.

Sums and products are one kernel, ``_shifted_sum``: a sum adds one
shifted copy of a term map, a product one per term of the shorter factor.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator, Mapping, Union

DEFAULT_TRUNC = 20

Key = tuple[int, int, int]
TermsLike = Union[Mapping[Key, int], None]

_BY_KEY = itemgetter(0)
"""Sort key for ``_terms.items()``: the exponent triple alone.  Keys are
unique, so the order is the same as sorting the (key, coefficient) pairs,
but the comparisons are between int triples, not between pairs."""


class NonUnitError(ArithmeticError):
    """Raised when a divisor (of ``divide``, or the series ``inverse``
    inverts) is not a unit of the ring: its x^0 slice is not +1 or -1."""


class DigitSplitError(ArithmeticError):
    """Raised when ``_split_q_digits`` meets a negative packed coefficient,
    which has no base-2**bits digits; a fault that flips a sign in a
    fraction whose quotient is packed gives one."""


class TriSeries:
    """Immutable series in x, y and q, truncated at a fixed x-degree.

    ``trunc`` is the largest retained x-degree.  Terms are given, and
    stored sparsely, as a mapping from (x_deg, y_deg, q_deg) to an int;
    zero coefficients and terms above ``trunc`` are dropped, and anything
    other than a mapping, such as a list of pairs, raises TypeError.  Two
    series are equal only when their orders and their terms are; compare
    series of different orders through ``truncated``.  Binary operations
    truncate their result to the smaller of the operands' orders.  The
    order, exponents and coefficients must be plain ints (bools are
    rejected too), and plain ints coerce to constant series.
    """

    __slots__ = ("trunc", "_terms")

    def __init__(self, trunc: int, terms: TermsLike = None):
        _check_size("trunc", trunc)
        kept: dict[Key, int] = {}
        if terms is not None:
            if not hasattr(terms, "items"):
                raise TypeError(f"terms must be a mapping, got {type(terms).__name__}")
            for (a, b, s), c in terms.items():
                if type(a) is not int or type(b) is not int or type(s) is not int:
                    raise TypeError(f"exponents must be int, got ({a!r}, {b!r}, {s!r})")
                if a < 0 or b < 0 or s < 0:
                    raise ValueError(f"negative exponents in term ({a}, {b}, {s})")
                if type(c) is not int:
                    raise TypeError(f"coefficients must be int, got {c!r} at ({a}, {b}, {s})")
                if c and a <= trunc:
                    kept[a, b, s] = c
        self.trunc = trunc
        self._terms = kept

    # -- inspection --------------------------------------------------------

    def coeff(self, a: int, b: int, s: int) -> int:
        """Exact coefficient of x^a y^b q^s (zero for absent terms)."""
        _check_size("x-degree", a, least=0)
        _check_size("y-degree", b, least=0)
        _check_size("q-degree", s, least=0)
        if a > self.trunc:
            raise ValueError(f"x-degree {a} exceeds truncation order {self.trunc}")
        return self._terms.get((a, b, s), 0)

    def terms(self) -> Iterator[tuple[Key, int]]:
        """Nonzero terms in lexicographic (x, y, q) order."""
        return iter(sorted(self._terms.items(), key=_BY_KEY))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.trunc == o.trunc and self._terms == o._terms

    __hash__ = None  # mutable-dict backing

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _from_ring(self.trunc, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _shifted_sum(self.trunc, o._terms, (self._terms, (0, 0, 0), -1))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        f, g = self._terms, o._terms
        if len(f) < len(g):
            f, g = g, f
        # One shifted copy of the longer factor per term of the shorter.
        return _shifted_sum(min(self.trunc, o.trunc), {}, *((f, key, c) for key, c in g.items()))

    __rmul__ = __mul__

    def __pow__(self, k):
        # Raised here, not left to the exponent: Fraction(2).__rpow__
        # would otherwise compute self ** 2.
        if type(k) is not int:
            raise TypeError(f"a series power takes an int exponent, got {k!r}")
        if k < 0:
            return self.inverse() ** (-k)
        result = one(self.trunc)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def inverse(self) -> TriSeries:
        """Multiplicative inverse up to the truncation order (see divide)."""
        return one(self.trunc).divide(self)

    def divide(self, den: TriSeries) -> TriSeries:
        """Quotient self / den up to the smaller truncation order.

        The x^0 slice of den must be exactly +1 or -1.  Anything else
        raises NonUnitError: a different constant breaks integrality, and
        extra x^0 terms in y or q would give the quotient unboundedly many
        terms at a fixed x-degree.  The quotient g is found slice by slice
        from g * den = self, by long division over the x-slices den has:
        a polynomial den costs a few slice products per quotient slice.
        """
        o = self._coerce(den)
        if o is None:
            raise TypeError(f"cannot divide a series by {den!r}")
        n = min(self.trunc, o.trunc)
        slices = o._slices()
        head = slices.get(0, {})
        const = head.get((0, 0), 0)
        if const not in (1, -1) or len(head) != 1:
            raise NonUnitError(
                "series is invertible only when its x^0 slice is the constant +1 or -1"
            )
        num = self._slices()
        top_q = max((s for sl in num.values() for _b, s in sl), default=0)
        steepest = max((s * n // i for i, fi in slices.items() if i for _b, s in fi), default=0)
        width = top_q + steepest + 1
        tail = [
            (i, [(b * width + s, c) for (b, s), c in fi.items()])
            for i, fi in sorted(slices.items())
            if 0 < i <= n
        ]
        g: dict[int, list[tuple[int, int]]] = {}
        for a in range(n + 1):
            acc = {b * width + s: c for (b, s), c in num.get(a, {}).items()}
            get = acc.get
            for i, fi in tail:
                if i > a:
                    break
                gj = g.get(a - i)
                if not gj:
                    continue
                for k1, c1 in fi:
                    for k2, c2 in gj:
                        k = k1 + k2
                        acc[k] = get(k, 0) - c1 * c2
            slice_a = [(k, const * c) for k, c in acc.items() if c]
            if slice_a:
                g[a] = slice_a
        return _from_ring(
            n,
            {(a, k // width, k % width): c for a, sl in g.items() for k, c in sl},
        )

    # -- specializations -----------------------------------------------------

    def at_q(self, value: int) -> TriSeries:
        """Substitute q := value, a plain int (a bool or float raises
        TypeError), folding all q-degrees together.  The substitution is a
        ring homomorphism onto the series in x and y alone."""
        if type(value) is not int:
            raise TypeError(f"q can only be replaced by an int, got {value!r}")
        powers: dict[int, int] = {}
        out: dict[Key, int] = {}
        for (a, b, s), c in self._terms.items():
            p = powers.get(s)
            if p is None:
                p = powers[s] = value ** s
            key = (a, b, 0)
            out[key] = out.get(key, 0) + c * p
        return _from_ring(self.trunc, {k: c for k, c in out.items() if c})

    def at_q1(self) -> TriSeries:
        """Substitute q := 1, folding all q-degrees together."""
        return self.at_q(1)

    def diff_q(self) -> TriSeries:
        """Formal partial derivative with respect to q."""
        out: dict[Key, int] = {}
        for (a, b, s), c in self._terms.items():
            if s:
                out[a, b, s - 1] = s * c
        return _from_ring(self.trunc, out)

    def truncated(self, trunc: int) -> TriSeries:
        """Copy with a smaller truncation order; terms above it are dropped."""
        _check_size("trunc", trunc)
        if trunc > self.trunc:
            raise ValueError("cannot extend a truncated series")
        if trunc == self.trunc:
            return self
        return _from_ring(trunc, {k: c for k, c in self._terms.items() if k[0] <= trunc})

    # -- serialization ---------------------------------------------------------

    def to_json_obj(self) -> dict:
        """JSON-ready dict; coefficients become decimal strings."""
        return {
            "trunc": self.trunc,
            "terms": [
                {"a": a, "b": b, "s": s, "c": str(c)}
                for (a, b, s), c in sorted(self._terms.items(), key=_BY_KEY)
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> TriSeries:
        """Inverse of ``to_json_obj``.  The order and exponents must be ints
        and each coefficient a decimal string; nothing is coerced.  A term
        repeated with the same exponents raises ValueError."""
        terms = {}
        for t in obj["terms"]:
            key = (t["a"], t["b"], t["s"])
            if key in terms:
                raise ValueError(f"repeated term with exponents {key}")
            terms[key] = _parse_coeff(t["c"])
        return cls(obj["trunc"], terms)

    # -- display ---------------------------------------------------------------

    def __repr__(self):
        return f"TriSeries(trunc={self.trunc}, nterms={len(self._terms)})"

    def __str__(self):
        if not self._terms:
            return "0"
        out = []
        for key, c in sorted(self._terms.items(), key=_BY_KEY):
            out.append(_format_term(key, c, first=not out))
        return "".join(out)

    # -- internals -------------------------------------------------------------

    def _slices(self) -> dict[int, dict[tuple[int, int], int]]:
        """Terms regrouped by x-degree, afresh on every call."""
        grouped: dict[int, dict[tuple[int, int], int]] = {}
        for (a, b, s), c in self._terms.items():
            grouped.setdefault(a, {})[b, s] = c
        return grouped

    def _plus(self, other, sign: int):
        """self + sign * other, sign being 1 or -1."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.trunc, o.trunc)
        base = self if self.trunc == n else self.truncated(n)
        return _shifted_sum(n, base._terms, (o._terms, (0, 0, 0), sign))

    def _coerce(self, other) -> TriSeries | None:
        if isinstance(other, TriSeries):
            return other
        if type(other) is int:
            return TriSeries(self.trunc, {(0, 0, 0): other})
        return None


def _from_ring(trunc: int, terms: dict[Key, int]) -> TriSeries:
    """The series of a ring result, built without the public checks.

    The caller guarantees what ``TriSeries`` would check: ``trunc`` is a
    positive int, every key is an (a, b, s) triple of non-negative ints
    with a <= trunc, and every value is a non-zero int.  ``terms`` is
    stored as given, not copied, so the caller must not keep it.
    """
    series = object.__new__(TriSeries)
    series.trunc = trunc
    series._terms = terms
    return series


def _shifted_sum(trunc: int, base: Mapping[Key, int], *shifted) -> TriSeries:
    """The series of the term map ``base`` plus, for each
    ``(terms, (da, db, ds), c)`` in ``shifted``, the term map ``terms``
    times c x^da y^db q^ds, cut at x-degree ``trunc``.  Coefficients that
    cancel are dropped as they arise.  Every sum and product of the ring,
    and every term builder of ``determinants``, is this one call.

    The caller guarantees what ``_from_ring`` asks of the maps it passes:
    keys are (a, b, s) triples of non-negative ints and values non-zero
    ints, each c is a non-zero int, and ``base`` has no x-degree above
    ``trunc`` (it is copied as it is, the shifted maps are cut).  No map
    passed in is changed or kept.
    """
    out = dict(base)
    get = out.get
    for terms, (da, db, ds), factor in shifted:
        top = trunc - da
        for (a, b, s), c in terms.items():
            if a <= top:
                key = (a + da, b + db, s + ds)
                c = get(key, 0) + c * factor
                if c:
                    out[key] = c
                else:
                    del out[key]
    return _from_ring(trunc, out)


def _split_q_digits(packed: TriSeries, bits: int) -> TriSeries:
    """The series G with G.at_q(2**bits) == packed and every coefficient
    in [0, 2**bits): each coefficient of x^a y^b is read as a number in
    base 2**bits, and its digit s becomes the coefficient of x^a y^b q^s.

    Precondition: ``packed`` has no q term.  A negative coefficient has
    no digits, and raises DigitSplitError naming its key.  Otherwise the
    digits are unique, so G is the only such series; whether G is the
    series the caller wants depends on the caller knowing that its
    coefficients lie in [0, 2**bits).  A run of zero digits is skipped in
    one shift, found from the lowest set bit, not one digit at a time.
    """
    mask = (1 << bits) - 1
    out: dict[Key, int] = {}
    for (a, b, _s), v in packed._terms.items():
        if v < 0:
            raise DigitSplitError(
                f"coefficient {v} of x^{a} y^{b} is negative: it has no base-2^{bits} digits"
            )
        s = 0
        while v:
            digit = v & mask
            if digit:
                out[a, b, s] = digit
                v >>= bits
                s += 1
            else:
                skip = ((v & -v).bit_length() - 1) // bits
                v >>= skip * bits
                s += skip
    return _from_ring(packed.trunc, out)


def _check_size(name: str, value: int, least: int = 1) -> None:
    """The rule for every size, order and degree an entry point takes: a
    plain int (a bool or float raises TypeError) of at least ``least``
    (else ValueError)."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def _parse_coeff(text) -> int:
    if type(text) is not str:
        raise TypeError(f"coefficients must be decimal strings, got {text!r}")
    c = int(text)
    if str(c) != text:
        raise ValueError(f"coefficients must be decimal strings, got {text!r}")
    return c


def _format_term(key: Key, c: int, first: bool) -> str:
    a, b, s = key
    factors = []
    for name, e in (("x", a), ("y", b), ("q", s)):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    if abs(c) != 1 or not factors:
        factors.insert(0, str(abs(c)))
    body = "*".join(factors)
    if first:
        return body if c > 0 else "-" + body
    return (" + " if c > 0 else " - ") + body


def zero(trunc: int = DEFAULT_TRUNC) -> TriSeries:
    return TriSeries(trunc)


def one(trunc: int = DEFAULT_TRUNC) -> TriSeries:
    return TriSeries(trunc, {(0, 0, 0): 1})


def monomial(a: int, b: int, s: int, coeff: int = 1, trunc: int = DEFAULT_TRUNC) -> TriSeries:
    """Single-term series coeff * x^a y^b q^s (the zero series if a > trunc)."""
    return TriSeries(trunc, {(a, b, s): coeff})


def variables(trunc: int = DEFAULT_TRUNC) -> tuple[TriSeries, TriSeries, TriSeries]:
    """The three generators (x, y, q) at the given truncation order."""
    return (
        monomial(1, 0, 0, 1, trunc),
        monomial(0, 1, 0, 1, trunc),
        monomial(0, 0, 1, 1, trunc),
    )
