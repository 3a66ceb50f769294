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
differently per family, which the paper prints in y:

    e_i = (1 - x^i y (1+z)) e_{i-1} + x^i y z e_{i-2},   z = -1/(1-x).

Every block determinant is computed in x and u = y/(1-x), held as a
series with u in the y slot, and written in y once at the end.  Since
y z = -u and y (1+z) = -x u, the recurrence in u is a polynomial one,

    e_i = (1 + x^(i+1) u) e_{i-1} - x^i u e_{i-2},

and ``_recurrence`` generates the whole sequence e_{-1}, e_0, ...,
e_trunc in one sweep, each step adding two shifted copies of the terms
before it:

    e_i = e_{i-1} + x^(i+1) u e_{i-1} - x^i u e_{i-2}.

The top blocks read d_k = e_{k-1} from the seeds (0, 1), the inner
blocks d_k = e_k from (1, 1); ``verify.check_block_dets`` reads every
block size of a family from one sweep.

Two helpers change the variable, one column of terms sharing (j, s) at
a time.  ``_in_y`` writes any series in x and u in y: a column of few
terms as one binomial run per term, a dense one as j running sums along
x.  ``_in_u``, its inverse, writes a series in x and y in u, as j
running differences along x.  So no block needs a division.  The top
block of size m is k_m (``_top_in_u``); since (1-x-xy)/(1-x) = 1 - x u,
the inner block of size m - 1 is
x^C(m+1,2) u^m + (1 - x u) k_m (``_closing``): k_m's terms, the same
terms shifted by x u with their signs flipped, and one lead term.

The last-row cofactor expansions d_m + z q x^m y d_{m-1} of the two
Cramer determinants become d_m - q x^m u d_{m-1}.  ``numerator_det`` and
``denominator_det`` read d_{m-1} and d_m from one sweep per family
(``_cofactor_in_u``), the paper's determinant route, which uses no
closed form; ``genfun.staircase_gf_cramer`` writes the two in u by
``_in_u``, where the divisor is a polynomial, divides, and writes the
quotient in y.  Over the closed forms, since x^m u k_{m-1} = k_m - 1,
the same expansions are N = k_m - q (k_m - 1) and
D = x^C(m+1,2) u^m (1 - q) + (1 - x u) N, the master series' fraction;
``_fraction_in_u`` is the one place that builds it, and
``genfun.staircase_gf`` divides it.  The recurrence and
``det_division_free`` (ring operations only) are the independent routes
the closed forms are checked against.
Each of these builders adds a few shifted copies of term maps in
``series._shifted_sum``, the kernel of the ring's sums and products.

The direct Cramer route (``genfun.staircase_gf_cramer(direct=True)``)
expands neither built matrix as it stands, since there z makes every
minor a dense series.  It expands S^-1 A S with y written as u (1-x),
S = diag(1, 1-x, ..., (1-x)^m) (``_conjugated``): entry (j, i) gains
the factor (1-x)^(i-j), so z becomes -1, and every entry is a polynomial
of at most three terms.  A similarity keeps the determinant, so
``det_division_free`` returns both determinants already in u.
"""

from __future__ import annotations

from itertools import accumulate, chain, islice
from math import comb
from operator import sub
from typing import Iterable, Iterator, Sequence

from .series import (
    DEFAULT_TRUNC,
    TriSeries,
    _check_size,
    _from_ring,
    _shifted_sum,
    monomial,
    one,
    zero,
)

_DENSE = 4
"""``_in_y`` writes a column of n terms in u^j by running sums when
n * _DENSE > j, else by one binomial run per term.  A running-sum step is
an addition, a binomial step a multiplication and a division, and in a
measured sweep every value from 3 to 8 timed alike."""

_ONE = {(0, 0, 0): 1}
"""The term map of the constant 1: shifted by (e, j, s), the one term
x^e u^j q^s that a builder adds."""

DET_DIM_LIMIT = 8
"""Default cap for direct determinant expansion (cost grows with 2^dim)."""


class DeterminantLimitError(RuntimeError):
    """A direct determinant was requested beyond the dimension limit."""


class SeriesMatrix:
    """A square matrix of TriSeries entries sharing one truncation order.

    The matrix also keeps the minors ``det_division_free`` has found on
    it, each the determinant on the last rows and a set of columns, keyed
    by that set as a bit mask.  The entries never change, so a kept minor
    stays valid as long as the matrix exists.  A new matrix knows only
    the empty minor, 1; ``with_column`` hands on those that avoid the
    replaced column.
    """

    __slots__ = ("_rows", "_minors")

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
        self._minors: dict[int, TriSeries] = {0: one(self.trunc)}

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def trunc(self) -> int:
        return self._rows[0][0].trunc

    def __getitem__(self, key: tuple[int, int]) -> TriSeries:
        """The entry at (row, column); a key other than such a pair raises
        TypeError, an index outside 0..dim-1, negative ones included,
        IndexError, and one that is not a plain int TypeError."""
        if not isinstance(key, tuple) or len(key) != 2:
            raise TypeError(f"an entry is indexed by a (row, column) pair, got {key!r}")
        i, j = key
        return self._rows[self._checked("row", i)][self._checked("column", j)]

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "SeriesMatrix":
        """The minor on the given rows and columns, in the order given.  An
        index outside 0..dim-1 raises IndexError, one that is not a plain
        int TypeError, and a repeated one ValueError."""
        rows, cols = self._distinct("row", rows), self._distinct("column", cols)
        return SeriesMatrix(
            [[self._rows[i][j] for j in cols] for i in rows]
        )

    def with_column(self, col: int, column: Sequence[TriSeries]) -> "SeriesMatrix":
        """This matrix with column ``col`` replaced by ``column``.

        A minor whose column set avoids ``col`` has the same entries in
        both matrices, so the new matrix keeps every such minor already
        found on this one; expanding it then computes only the minors
        that use the new column.
        """
        self._checked("column", col)
        if len(column) != self.dim:
            raise ValueError("replacement column has the wrong length")
        matrix = SeriesMatrix(
            [
                [column[i] if j == col else self._rows[i][j] for j in range(self.dim)]
                for i in range(self.dim)
            ]
        )
        bit = 1 << col
        matrix._minors.update(
            (cols, minor) for cols, minor in self._minors.items() if not cols & bit
        )
        return matrix

    def _checked(self, name: str, index: int) -> int:
        """``index`` when it is a plain int in 0..dim-1.  A value outside
        that range raises IndexError; one equal to an index in it but not a
        plain int, such as True or 1.0, raises TypeError."""
        if index not in range(self.dim):
            raise IndexError(f"{name} {index} is outside 0..{self.dim - 1}")
        if type(index) is not int:
            raise TypeError(f"{name} must be an int, got {index!r}")
        return index

    def _distinct(self, name: str, indices: Sequence[int]) -> list[int]:
        seen: list[int] = []
        for index in indices:
            if self._checked(name, index) in seen:
                raise ValueError(f"{name} {index} is repeated")
            seen.append(index)
        return seen


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


def _conjugated(
    matrix: SeriesMatrix, rhs: Sequence[TriSeries]
) -> tuple[SeriesMatrix, list[TriSeries]]:
    """S^-1 A S in x and u = y/(1-x), with S = diag(1, 1-x, ..., (1-x)^(dim-1)),
    for the matrix A and right-hand side that ``build_system`` returns.

    Entry (j, i) is ``_in_u`` of A's entry with shift i - j, and entry j
    of the right-hand side, which replaces column 0, has shift -j.  A
    similarity keeps the determinant, so the determinant of the result,
    or of the result with column 0 replaced, is the one of A (or of A with
    column 0 replaced) written in u.  On the built system every term
    x^e y^k of entry (j, i) has k + i - j equal to 0 or 1: z becomes -1,
    -x^e y^k becomes -x^e u^k (1-x), the last row's -q x^m y becomes
    -q x^m u and the right-hand side's x^t y^j becomes x^t u^j, so no
    entry has more than three terms.  Zero entries are kept as they are.
    """
    conjugated = SeriesMatrix(
        [_in_u(entry, i - j) if entry else entry for i, entry in enumerate(row)]
        for j, row in enumerate(matrix._rows)
    )
    return conjugated, [_in_u(entry, -j) if entry else entry for j, entry in enumerate(rhs)]


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
    against.  Each minor on the last rows is expanded along its first row
    and kept on the matrix, keyed by its column set, so the cost is
    O(2^dim * dim) series multiplications, and a second call on the same
    matrix costs nothing.  Minors a matrix inherited through
    ``with_column`` are not expanded again.  A dimension above
    ``DET_DIM_LIMIT`` raises DeterminantLimitError.  The determinant is in
    the variables of the entries: on the matrices ``_conjugated`` writes
    in u it comes out in u, and each product is one of polynomials.
    """
    if not isinstance(matrix, SeriesMatrix):
        raise TypeError(f"expected a SeriesMatrix, got {type(matrix).__name__}")
    n = matrix.dim
    _check_dim(n)
    return _minor(matrix._rows, matrix._minors, zero(matrix.trunc), (1 << n) - 1)


def _minor(
    rows: tuple[tuple[TriSeries, ...], ...],
    memo: dict[int, TriSeries],
    empty: TriSeries,
    cols: int,
) -> TriSeries:
    """The minor on the last ``cols.bit_count()`` rows and the columns in
    the bit mask ``cols``, from ``memo`` or expanded along its first row
    and stored there.  ``memo`` must hold the empty minor, 1, at key 0."""
    cached = memo.get(cols)
    if cached is not None:
        return cached
    row = rows[len(rows) - cols.bit_count()]
    acc = empty
    sign = 1
    for j, entry in enumerate(row):
        bit = 1 << j
        if not cols & bit:
            continue
        if entry:
            term = entry * _minor(rows, memo, empty, cols & ~bit)
            acc = acc + term if sign > 0 else acc - term
        sign = -sign
    memo[cols] = acc
    return acc


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

    Both modes run in x and u = y/(1-x), where the recurrence reads
    d_k = (1 + x^k u) d_{k-1} - x^(k-1) u d_{k-2}, and write the result in
    y by ``_in_y``.  The closed form is k_k (``_top_in_u``).  The size-0
    value is 0, the seed the recurrence needs.  The recurrence reads entry
    k of the ``_recurrence`` sweep, or its last entry.
    """
    _check_size("k", k, least=0)
    _check_mode(mode)
    if mode == "closed":
        return _in_y(_top_in_u(k, trunc))
    return _in_y(_entry(_recurrence(zero(trunc), one(trunc)), k))


def inner_block_det(k: int, trunc: int = DEFAULT_TRUNC, mode: str = "closed") -> TriSeries:
    """Determinant of the stripped k x k block, defined for k >= -1.

    closed:      x^C(k+2,2) (y/(1-x))^(k+1)
                 + ((1-x-xy)/(1-x)) * sum_{j=0}^{k} x^((k+1)j - j(j-1)/2) (y/(1-x))^j
    recurrence:  d_k = (1 - x^k y (1+z)) d_{k-1} + x^k y z d_{k-2}
                 from d_{-1} = 1 and d_0 = 1.

    Both modes run in x and u = y/(1-x), where the recurrence reads
    d_k = (1 + x^(k+1) u) d_{k-1} - x^k u d_{k-2}, and write the result in
    y by ``_in_y``.  The closed form is x^C(k+2,2) u^(k+1) + psi k_(k+1)
    with psi = (1-x-xy)/(1-x) = 1 - x u (``_closing``).  The recurrence
    reads entry k + 1 of the ``_recurrence`` sweep, or its last entry.
    """
    _check_size("k", k, least=-1)
    _check_mode(mode)
    if mode == "closed":
        return _in_y(_closing(_top_in_u(k + 1, trunc), k + 1))
    return _in_y(_entry(_recurrence(one(trunc), one(trunc)), k + 1))


def _top_in_u(m: int, trunc: int) -> TriSeries:
    """k_m = sum_{j<m} x^(mj - C(j,2)) u^j with u = y/(1-x), the top block
    of size m, as a polynomial in x and u with u in the y slot.

    The x-degree mj - C(j,2) grows with j, by m - j > 0 at each step, so
    the sum stops at its first term above ``trunc``: a huge m costs no
    more than m = trunc + 1.
    """
    _check_size("trunc", trunc)  # stored unchecked by _from_ring
    terms = {}
    for j in range(m):
        e = m * j - comb(j, 2)
        if e > trunc:
            break
        terms[e, j, 0] = 1
    return _from_ring(trunc, terms)


def _closing(body: TriSeries, m: int) -> TriSeries:
    """x^C(m+1,2) u^m + (1 - x u) body, for a polynomial ``body`` in x and
    u with u in the y slot; for body = k_m this is the inner block of
    size m - 1.  It is body's terms, the same terms shifted by x u with
    their signs flipped, and the lead term, in one ``_shifted_sum``.
    """
    terms = body._terms
    return _shifted_sum(
        body.trunc, terms, (terms, (1, 1, 0), -1), (_ONE, (comb(m + 1, 2), m, 0), 1)
    )


def _in_y(series: TriSeries) -> TriSeries:
    """A series in x and u = y/(1-x), u in the y slot, written in y: each
    term c x^e u^j q^s becomes c x^e y^j q^s (1-x)^(-j).

    Terms that share (j, s) form one column, and each column is written
    on its own: no two columns reach the same key.  A column of n terms
    is written in one of two ways.
    - One binomial run per term: the coefficients of (1-x)^(-j) satisfy
      c_{t+1} = c_t (t + j)/(t + 1) from c_0 = 1, an exact division, so a
      term is one run from x-degree e up to the order.  That is n runs of
      multiplications and divisions.
    - j running sums along x of the column's polynomial in x: each sum is
      a product by 1/(1-x), additions alone.
    The running sums cost less once n * ``_DENSE`` exceeds j, and always
    at j = 0.  Coefficients that cancel are dropped.
    """
    trunc = series.trunc
    columns: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for (e, j, s), c in series._terms.items():
        columns.setdefault((j, s), []).append((e, c))
    out: dict[tuple[int, int, int], int] = {}
    for (j, s), column in columns.items():
        low = min(e for e, _c in column)
        run = [0] * (trunc + 1 - low)
        in_y: Iterable[int] = run
        if len(column) * _DENSE > j:
            for e, c in column:
                run[e - low] += c
            for _ in range(j):
                in_y = accumulate(in_y)
        else:
            for e, c in column:
                i = e - low
                for t in range(trunc + 1 - e):
                    run[i + t] += c
                    c = c * (t + j) // (t + 1)
        for a, c in enumerate(in_y, low):
            if c:
                out[a, j, s] = c
    return _from_ring(trunc, out)


def _in_u(series: TriSeries, shift: int = 0) -> TriSeries:
    """The inverse of ``_in_y``, times (1-x)^shift: a series in x and y
    written in x and u = y/(1-x), with u in the y slot.  Each term
    c x^e y^j q^s becomes c x^e u^j q^s (1-x)^(j+shift).

    Terms that share (j, s) form one column, as in ``_in_y``, and each
    column's polynomial in x, from its lowest x-degree up to the order, is
    multiplied by (1-x)^(j+shift) as j + shift running differences along
    x.  A term with j + shift < 0 would need a division by 1 - x and
    raises ValueError.  The substitution y -> u (1-x) is a ring
    automorphism of the truncated ring that keeps every x^0 slice, so a
    unit stays a unit and a quotient written in u is the quotient of the
    two series written in u.  ``shift`` is the factor (1-x)^(i-j) of
    entry (j, i) of a matrix conjugated by diag((1-x)^i)
    (``_conjugated``).  Coefficients that cancel are dropped.
    """
    trunc = series.trunc
    columns: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for (e, j, s), c in series._terms.items():
        columns.setdefault((j, s), []).append((e, c))
    out: dict[tuple[int, int, int], int] = {}
    for (j, s), column in columns.items():
        if j + shift < 0:
            raise ValueError(
                f"a term in y^{j} times (1-x)^{shift} is not a polynomial in x and u"
            )
        low = min(e for e, _c in column)
        run = [0] * (trunc + 1 - low)
        for e, c in column:
            run[e - low] += c
        for _ in range(j + shift):
            run = list(map(sub, run, chain((0,), run)))
        for a, c in enumerate(run, low):
            if c:
                out[a, j, s] = c
    return _from_ring(trunc, out)


def _recurrence(before: TriSeries, start: TriSeries) -> Iterator[TriSeries]:
    """e_{-1}, e_0, ..., e_trunc of
    e_i = (1 + x^(i+1) u) e_{i-1} - x^i u e_{i-2}, in x and u with u in
    the y slot, seeded with e_{-1} = before and e_0 = start: trunc + 2
    entries.

    Each step is taken as e_i = e_{i-1} + x^i u (x e_{i-1} - e_{i-2}):
    e_{i-1}'s terms, the same terms shifted by x^(i+1) u, and e_{i-2}'s
    shifted by x^i u with their signs flipped, in one ``_shifted_sum``.
    Past step trunc the step x^i is zero at this order, so every later
    e_i equals e_trunc and the sweep stops there.
    """
    trunc = start.trunc
    prev2, prev = before, start
    yield prev2
    yield prev
    for i in range(1, trunc + 1):
        terms = prev._terms
        prev2, prev = prev, _shifted_sum(
            trunc, terms, (terms, (i + 1, 1, 0), 1), (prev2._terms, (i, 1, 0), -1)
        )
        yield prev


def _entry(sweep: Iterator[TriSeries], index: int) -> TriSeries:
    """Entry ``index`` of a sweep, or its last entry when it is shorter."""
    for value in islice(sweep, index + 1):
        pass
    return value


def numerator_det(m: int, trunc: int = DEFAULT_TRUNC) -> TriSeries:
    """det of the numerator matrix, via its last-row cofactor expansion:
    top_block_det(m) + z q x^m y top_block_det(m-1).  Since y z = -u,
    this is d_m - q x^m u d_{m-1} over the top blocks, read from their
    recurrence sweep (``_cofactor_in_u``) and written in y.  Over the
    closed form, since x^m u k_{m-1} = k_m - 1, it is the master series'
    numerator N = k_m - q (k_m - 1) (``_fraction_in_u``)."""
    _check_size("m", m)
    return _in_y(_cofactor_in_u(m, trunc, zero(trunc)))


def denominator_det(m: int, trunc: int = DEFAULT_TRUNC) -> TriSeries:
    """det of the system matrix, via its last-row cofactor expansion:
    inner_block_det(m-1) + z q x^m y inner_block_det(m-2), that is
    d_{m-1} - q x^m u d_{m-2} over the inner blocks, read from their
    recurrence sweep (``_cofactor_in_u``) and written in y.  Over the
    closed forms d_k = x^C(k+2,2) u^(k+1) + (1 - x u) k_(k+1), and since
    x^m u k_{m-1} = k_m - 1 and x^m u x^C(m,2) u^(m-1) = x^C(m+1,2) u^m,
    it is the master series' denominator
    D = x^C(m+1,2) u^m (1 - q) + (1 - x u) N (``_fraction_in_u``)."""
    _check_size("m", m)
    return _in_y(_cofactor_in_u(m, trunc, one(trunc)))


def _fraction_in_u(m: int, trunc: int) -> tuple[TriSeries, TriSeries]:
    """The polynomials N and D in x, u = y/(1-x) and q whose quotient is the
    master series, with u in the y slot: N = k_m - q (k_m - 1) and
    D = ``_closing`` of N minus q x^C(m+1,2) u^m, that is
    x^C(m+1,2) u^m (1 - q) + (1 - x u) N.  They equal the two Cramer
    determinants' cofactor expansions in x and u (``_cofactor_in_u``)."""
    k = _top_in_u(m, trunc)._terms
    numer = _shifted_sum(trunc, k, (k, (0, 0, 1), -1), (_ONE, (0, 0, 1), 1))
    closing = _closing(numer, m)._terms
    return numer, _shifted_sum(trunc, closing, (_ONE, (comb(m + 1, 2), m, 1), -1))


def _cofactor_in_u(m: int, trunc: int, before: TriSeries) -> TriSeries:
    """d_m - q x^m u d_{m-1}, the paper's last-row cofactor expansion, for
    the block family whose ``_recurrence`` sweep starts from (before, 1):
    d_k is the sweep's entry k, or its last entry once the sweep has
    ended.  From (0, 1) it is the numerator determinant in x and u, from
    (1, 1) the system determinant.  The sweep ends at entry trunc + 1;
    once m is past that, ``below`` is not d_{m-1}, but x^m vanishes at
    this order."""
    sweep = _recurrence(before, one(trunc))
    last = next(sweep)
    for entry in islice(sweep, m):
        below, last = last, entry
    return _shifted_sum(trunc, last._terms, (below._terms, (m, 1, 1), -1))


def _check_mode(mode: str) -> None:
    if mode not in ("closed", "recurrence"):
        raise ValueError(f"mode must be 'closed' or 'recurrence', got {mode!r}")
