"""The staircase statistic as a ratio of banded determinants.

Classifying compositions by how long an opening run 1, 2, ..., j they
realise ties the generating functions of the classes into a banded linear
system; the marker q enters only through the relation that closes a
completed window.  Cramer's rule then writes the master series as
det(numerator matrix) / det(system matrix).

Expanding both determinants along their last rows reduces them to a
single family of banded block determinants: ``top_block_det`` covers the
blocks anchored at the top-left corner of the numerator matrix, and
``inner_block_det`` the blocks left after stripping the first row and
column.  The two families differ by an index shift.  Each has a closed
form built from k_m = sum_{j<m} x^(mj - C(j,2)) (y/(1-x))^j, and each
satisfies one three-term recurrence in the block size, seeded
differently per family:

    e_i = (1 - x^i y (1+z)) e_{i-1} + x^i y z e_{i-2},   z = -1/(1-x).

``_recurrence`` generates the whole sequence e_{-1}, e_0, ..., e_trunc in
one sweep, each step written with one product by z and one one-term
shift, by x^i y:

    e_i = e_{i-1} + x^i y (z (e_{i-2} - e_{i-1}) - e_{i-1}).

The product by z is a negated running sum along x (``_times_z``): the
coefficient of x^a y^b q^s in z d is minus the sum of d's coefficients
of x^a' y^b q^s over a' <= a.  The top blocks read d_k = e_{k-1} from the
seeds (0, 1), the inner blocks d_k = e_k from (1, 1);
``verify.check_block_dets`` reads every block size of a family from one
sweep.

The closed forms are lists of signed, shifted powers c x^e u^j q^s of
u = y/(1-x), and one helper writes any such list as a series
(``_sum_of_powers``): each power is one binomial column, so no block
needs a division.  The top block of size m is k_m (``_top_powers``);
since (1-x-xy)/(1-x) = 1 - x u, the inner block of size m - 1 is
x^C(m+1,2) u^m + (1 - x u) k_m (``_closing``), the same powers again,
shifted by x u with their signs flipped, and one lead power.
``genfun.staircase_gf`` builds the master series' numerator
N = 1 - (q-1)(k_m - 1) from k_m's list alone, with the powers j >= 1
marked by q and negated, and its denominator as ``_closing`` of N, both
evaluated with m factors 1 - x cleared.  The cofactor expansions in
``numerator_det`` and ``denominator_det`` take their product by z as the
same running sum.
The recurrences and ``det_division_free`` (ring operations only, with
general products by z) are the independent routes the closed forms are
checked against.
"""

from __future__ import annotations

from itertools import islice
from math import comb
from typing import Iterable, Iterator, Sequence

from .series import (
    DEFAULT_TRUNC,
    TriSeries,
    _check_size,
    _from_ring,
    monomial,
    one,
    zero,
)

_Power = tuple[int, int, int, int]
"""(c, e, j, s): the term c x^e u^j q^s of a closed form, u = y/(1-x)."""

DET_DIM_LIMIT = 8
"""Default cap for direct determinant expansion (cost grows with 2^dim)."""


class DeterminantLimitError(RuntimeError):
    """A direct determinant was requested beyond the dimension limit."""


class SeriesMatrix:
    """A square matrix of TriSeries entries sharing one truncation order."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable[TriSeries]]):
        grid = tuple(tuple(row) for row in rows)
        if not grid or any(len(row) != len(grid) for row in grid):
            raise ValueError("matrix must be square and non-empty")
        for row in grid:
            for entry in row:
                # grid[0][0] is checked first, so reading its trunc is safe.
                if not isinstance(entry, TriSeries):
                    raise TypeError(f"entries must be TriSeries, got {type(entry).__name__}")
                if entry.trunc != grid[0][0].trunc:
                    raise ValueError("entries must share one truncation order")
        self._rows = grid

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def trunc(self) -> int:
        return self._rows[0][0].trunc

    def __getitem__(self, key: tuple[int, int]) -> TriSeries:
        i, j = key
        return self._rows[i][j]

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "SeriesMatrix":
        return SeriesMatrix(
            [[self._rows[i][j] for j in cols] for i in rows]
        )

    def with_column(self, col: int, column: Sequence[TriSeries]) -> "SeriesMatrix":
        if col not in range(self.dim):
            raise IndexError(f"column {col} is outside 0..{self.dim - 1}")
        if len(column) != self.dim:
            raise ValueError("replacement column has the wrong length")
        return SeriesMatrix(
            [
                [column[i] if j == col else self._rows[i][j] for j in range(self.dim)]
                for i in range(self.dim)
            ]
        )


def _z(trunc: int) -> TriSeries:
    """z = -1/(1-x) = -(1 + x + x^2 + ...), the superdiagonal entry of the
    system matrix."""
    _check_size("trunc", trunc)  # before range() sees a float
    return TriSeries(trunc, {(a, 0, 0): -1 for a in range(trunc + 1)})


def build_system(m: int, trunc: int = DEFAULT_TRUNC) -> tuple[SeriesMatrix, list[TriSeries]]:
    """Coefficient matrix and right-hand side of the opening-run system.

    Unknowns are ordered (master series, run length 1, ..., run length m).
    Row 0 ties the master series to the length-1 class; row j for
    1 <= j <= m-1 expands the class with opening run 1..j into the runs it
    can continue to, with x-exponents given by differences of triangular
    numbers; the final row closes a completed window and is the only place
    the marker q appears.
    """
    _check_size("m", m)
    z = _z(trunc)
    dim = m + 1
    rows = [[zero(trunc) for _ in range(dim)] for _ in range(dim)]
    rhs = [zero(trunc) for _ in range(dim)]

    rows[0][0] = one(trunc)
    rows[0][1] = z
    rhs[0] = one(trunc)

    for j in range(1, m):
        t_next = comb(j + 1, 2)
        for i in range(1, j):
            rows[j][i] = monomial(t_next - comb(i, 2), j + 1 - i, 0, -1, trunc)
        rows[j][j] = one(trunc) - monomial(t_next - comb(j, 2), 1, 0, 1, trunc)
        rows[j][j + 1] = z
        rhs[j] = monomial(t_next, j, 0, 1, trunc)

    rows[m][m - 1] = monomial(m, 1, 1, -1, trunc)  # -q x^m y
    rows[m][m] = one(trunc)

    return SeriesMatrix(rows), rhs


def numerator_matrix(m: int, trunc: int = DEFAULT_TRUNC) -> SeriesMatrix:
    """System matrix with its first column replaced by the right-hand side."""
    matrix, rhs = build_system(m, trunc)
    return matrix.with_column(0, rhs)


def top_block_matrix(k: int, trunc: int = DEFAULT_TRUNC) -> SeriesMatrix:
    """Leading k x k block of the numerator matrix (q never appears), k >= 1."""
    _check_size("k", k)
    idx = range(k)
    return numerator_matrix(k, trunc).submatrix(idx, idx)


def inner_block_matrix(k: int, trunc: int = DEFAULT_TRUNC) -> SeriesMatrix:
    """The k x k block after stripping the first row and column, k >= 1."""
    _check_size("k", k)
    matrix, _ = build_system(k + 1, trunc)
    idx = range(1, k + 1)
    return matrix.submatrix(idx, idx)


def det_division_free(matrix: SeriesMatrix) -> TriSeries:
    """Exact determinant by memoized cofactor expansion.

    Uses ring operations only: it needs no unit pivots, so it is a route
    independent of ``TriSeries.divide`` for the closed forms to be checked
    against.  Minors are memoized on their column set, so the cost is
    O(2^dim * dim) series multiplications; a dimension above
    ``DET_DIM_LIMIT`` raises DeterminantLimitError.
    """
    if not isinstance(matrix, SeriesMatrix):
        raise TypeError(f"expected a SeriesMatrix, got {type(matrix).__name__}")
    n = matrix.dim
    _check_dim(n)
    unit = one(matrix.trunc)
    empty = zero(matrix.trunc)
    memo: dict[int, TriSeries] = {0: unit}

    def expand(cols: int) -> TriSeries:
        cached = memo.get(cols)
        if cached is not None:
            return cached
        row = n - bin(cols).count("1")
        acc = empty
        sign = 1
        for j in range(n):
            bit = 1 << j
            if not cols & bit:
                continue
            entry = matrix[row, j]
            if entry:
                term = entry * expand(cols & ~bit)
                acc = acc + term if sign > 0 else acc - term
            sign = -sign
        memo[cols] = acc
        return acc

    return expand((1 << n) - 1)


def _check_dim(n: int) -> None:
    """Refuse a direct determinant of dimension n above DET_DIM_LIMIT,
    before anything of that size is built."""
    if n > DET_DIM_LIMIT:
        raise DeterminantLimitError(
            f"dimension {n} exceeds the direct-determinant limit {DET_DIM_LIMIT}"
        )


def top_block_det(k: int, trunc: int = DEFAULT_TRUNC, mode: str = "closed") -> TriSeries:
    """Determinant of the leading k x k block, defined for k >= 0.

    closed:      sum_{j=0}^{k-1}  x^(kj - j(j-1)/2) * (y/(1-x))^j
    recurrence:  d_k = (1 - x^(k-1) y (1+z)) d_{k-1} + x^(k-1) y z d_{k-2}
                 from d_0 = 0 and d_1 = 1, with z = -1/(1-x).

    The closed form is the power list k_k (``_top_powers``), summed by
    ``_sum_of_powers`` from the binomial columns of u^j = (y/(1-x))^j.
    The size-0 value is 0, the seed the recurrence needs.  The recurrence
    reads entry k of the ``_recurrence`` sweep, or its last entry.
    """
    _check_size("k", k, least=0)
    _check_mode(mode)
    if mode == "closed":
        return _sum_of_powers(trunc, _top_powers(k, trunc))
    return _entry(_recurrence(zero(trunc), one(trunc)), k)


def inner_block_det(k: int, trunc: int = DEFAULT_TRUNC, mode: str = "closed") -> TriSeries:
    """Determinant of the stripped k x k block, defined for k >= -1.

    closed:      x^C(k+2,2) (y/(1-x))^(k+1)
                 + ((1-x-xy)/(1-x)) * sum_{j=0}^{k} x^((k+1)j - j(j-1)/2) (y/(1-x))^j
    recurrence:  d_k = (1 - x^k y (1+z)) d_{k-1} + x^k y z d_{k-2}
                 from d_{-1} = 1 and d_0 = 1.

    The closed form is x^C(k+2,2) u^(k+1) + psi * top_block_det(k+1) with
    u = y/(1-x) and psi = (1-x-xy)/(1-x) = 1 - x u, so it is the top
    block's powers of u, the same powers shifted by x u with their signs
    flipped, and one lead power (``_closing``).  The recurrence
    reads entry k + 1 of the ``_recurrence`` sweep, or its last entry.
    """
    _check_size("k", k, least=-1)
    _check_mode(mode)
    if mode == "closed":
        return _sum_of_powers(trunc, _closing(_top_powers(k + 1, trunc), k + 1))
    return _entry(_recurrence(one(trunc), one(trunc)), k + 1)


def _top_powers(m: int, trunc: int) -> list[_Power]:
    """k_m = sum_{j<m} x^(mj - C(j,2)) u^j with u = y/(1-x), the top block
    of size m, as (coeff, e, j, s) powers for ``_sum_of_powers``.

    Each power has x-degree mj - C(j,2) >= j, so no j above ``trunc``
    keeps a term and the list stops at min(m, trunc + 1): a huge m costs
    no more than m = trunc + 1.
    """
    _check_size("trunc", trunc)  # before range() sees a float
    return [(1, m * j - comb(j, 2), j, 0) for j in range(min(m, trunc + 1))]


def _closing(powers: list[_Power], m: int) -> list[_Power]:
    """x^C(m+1,2) u^m + (1 - x u) body, with body given as ``powers``; for
    body = k_m this is the inner block of size m - 1."""
    shifted = [(-c, e + 1, j + 1, s) for c, e, j, s in powers]
    return [*powers, *shifted, (1, comb(m + 1, 2), m, 0)]


def _sum_of_powers(trunc: int, powers: Iterable[_Power], cleared: int = 0) -> TriSeries:
    """sum of c x^e y^j q^s (1-x)^(-r), r = j - cleared, over (c, e, j, s)
    in ``powers``: with ``cleared`` = 0 these are the powers c x^e u^j q^s
    of u = y/(1-x), and with ``cleared`` = M the same sum times (1-x)^M.

    The coefficients of (1-x)^(-r) satisfy c_{t+1} = c_t (t + r)/(t + 1)
    from c_0 = 1, an exact division for every integer r, so each power is
    one binomial column written from x-degree e up to ``trunc``.  For
    r <= 0 the column is a polynomial and stops after 1 - r terms; a
    power with e > trunc has no term.  Coefficients that cancel are
    dropped.
    """
    acc: dict[tuple[int, int, int], int] = {}
    get = acc.get
    for c, e, j, s in powers:
        r = j - cleared
        stop = trunc - e + 1
        if r <= 0 and stop > 1 - r:
            stop = 1 - r
        for t in range(stop):
            key = (e + t, j, s)
            acc[key] = get(key, 0) + c
            c = c * (t + r) // (t + 1)
    return _from_ring(trunc, {key: c for key, c in acc.items() if c})


def _recurrence(before: TriSeries, start: TriSeries) -> Iterator[TriSeries]:
    """e_{-1}, e_0, ..., e_trunc of
    e_i = (1 - x^i y (1+z)) e_{i-1} + x^i y z e_{i-2}, seeded with
    e_{-1} = before and e_0 = start: trunc + 2 entries.

    Each step is taken as e_i = e_{i-1} + x^i y (z (e_{i-2} - e_{i-1}) - e_{i-1}),
    one product by z, as the running sum ``_times_z``, and one shift by
    x^i y; everything else is a ring operation.  Past step trunc the step
    x^i is zero at this order, so every later e_i equals e_trunc and the
    sweep stops there.
    """
    trunc = start.trunc
    prev2, prev = before, start
    yield prev2
    yield prev
    for i in range(1, trunc + 1):
        step = monomial(i, 1, 0, 1, trunc)
        prev2, prev = prev, prev + step * (_times_z(prev2 - prev) - prev)
        yield prev


def _times_z(d: TriSeries) -> TriSeries:
    """z d with z = -1/(1-x), as a negated running sum along x: the
    coefficient of x^a y^b q^s is minus the sum of d's coefficients of
    x^a' y^b q^s over a' <= a, for every a up to d's order.

    It reads d's stored terms directly; the sums that cancel to 0 are not
    stored.
    """
    trunc = d.trunc
    columns: dict[tuple[int, int], dict[int, int]] = {}
    for (a, b, s), c in d._terms.items():
        columns.setdefault((b, s), {})[a] = c
    out: dict[tuple[int, int, int], int] = {}
    for (b, s), column in columns.items():
        run = 0
        get = column.get
        for a in range(min(column), trunc + 1):
            run -= get(a, 0)
            if run:
                out[a, b, s] = run
    return _from_ring(trunc, out)


def _entry(sweep: Iterator[TriSeries], index: int) -> TriSeries:
    """Entry ``index`` of a sweep, or its last entry when it is shorter."""
    for value in islice(sweep, index + 1):
        pass
    return value


def numerator_det(m: int, trunc: int = DEFAULT_TRUNC) -> TriSeries:
    """det of the numerator matrix, via its last-row cofactor expansion:
    top_block_det(m) + z q x^m y top_block_det(m-1), the product by z taken
    as the running sum ``_times_z``."""
    _check_size("m", m)
    marker = monomial(m, 1, 1, 1, trunc)  # q x^m y
    return top_block_det(m, trunc) + _times_z(marker * top_block_det(m - 1, trunc))


def denominator_det(m: int, trunc: int = DEFAULT_TRUNC) -> TriSeries:
    """det of the system matrix, via its last-row cofactor expansion:
    inner_block_det(m-1) + z q x^m y inner_block_det(m-2), the product by z
    taken as the running sum ``_times_z``."""
    _check_size("m", m)
    marker = monomial(m, 1, 1, 1, trunc)
    return inner_block_det(m - 1, trunc) + _times_z(marker * inner_block_det(m - 2, trunc))


def _check_mode(mode: str) -> None:
    if mode not in ("closed", "recurrence"):
        raise ValueError(f"mode must be 'closed' or 'recurrence', got {mode!r}")
