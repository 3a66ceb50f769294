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
column.  Each family satisfies a three-term recurrence in the block size
and has an explicit closed form; both routes are implemented, and
``det_division_free`` evaluates determinants directly (ring operations
only, no division) to validate the reductions.  The two families differ
by an index shift: they share one recurrence, seeded differently, and
the inner closed form is the top one closed off by ``_closing_term``,
x^C(m+1,2) u^m + ((1-x-xy)/(1-x)) k_m with u = y/(1-x).  The master
series' denominator has the same shape, with the lead weighted by 1 - q
and the numerator determinant in place of k_m; ``genfun.staircase_gf``
builds it with every 1/(1-x) cleared, as a polynomial.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Sequence

from .series import DEFAULT_TRUNC, TriSeries, monomial, one, variables, zero

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
        trunc = grid[0][0].trunc
        for row in grid:
            for entry in row:
                if entry.trunc != trunc:
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
        if len(column) != self.dim:
            raise ValueError("replacement column has the wrong length")
        return SeriesMatrix(
            [
                [column[i] if j == col else self._rows[i][j] for j in range(self.dim)]
                for i in range(self.dim)
            ]
        )


def _atoms(trunc: int):
    """Shared building blocks: x, y, q, 1/(1-x) and z = -1/(1-x)."""
    x, y, q = variables(trunc)
    geom = (one(trunc) - x).inverse()
    return x, y, q, geom, -geom


def build_system(m: int, trunc: int = DEFAULT_TRUNC) -> tuple[SeriesMatrix, list[TriSeries]]:
    """Coefficient matrix and right-hand side of the opening-run system.

    Unknowns are ordered (master series, run length 1, ..., run length m).
    Row 0 ties the master series to the length-1 class; row j for
    1 <= j <= m-1 expands the class with opening run 1..j into the runs it
    can continue to, with x-exponents given by differences of triangular
    numbers; the final row closes a completed window and is the only place
    the marker q appears.
    """
    if m < 1:
        raise ValueError(f"pattern length must be >= 1, got {m}")
    x, y, q, geom, z = _atoms(trunc)
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
    if k < 1:
        raise ValueError(f"block size must be >= 1, got {k}")
    idx = range(k)
    return numerator_matrix(k, trunc).submatrix(idx, idx)


def inner_block_matrix(k: int, trunc: int = DEFAULT_TRUNC) -> SeriesMatrix:
    """The k x k block after stripping the first row and column, k >= 1."""
    if k < 1:
        raise ValueError(f"block size must be >= 1, got {k}")
    matrix, _ = build_system(k + 1, trunc)
    idx = range(1, k + 1)
    return matrix.submatrix(idx, idx)


def det_division_free(matrix: SeriesMatrix, limit: int = DET_DIM_LIMIT) -> TriSeries:
    """Exact determinant by memoized cofactor expansion.

    Uses ring operations only, which is required because the truncated
    series ring has no division.  Minors are memoized on their column
    set, so the cost is O(2^dim * dim) series multiplications.
    """
    n = matrix.dim
    if n > limit:
        raise DeterminantLimitError(
            f"dimension {n} exceeds the direct-determinant limit {limit}"
        )
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


def top_block_det(k: int, trunc: int = DEFAULT_TRUNC, mode: str = "closed") -> TriSeries:
    """Determinant of the leading k x k block, defined for k >= 0.

    closed:      sum_{j=0}^{k-1}  x^(kj - j(j-1)/2) * (y/(1-x))^j
    recurrence:  d_k = (1 - x^(k-1) y (1+z)) d_{k-1} + x^(k-1) y z d_{k-2}
                 from d_0 = 0 and d_1 = 1, with z = -1/(1-x).

    The size-0 value is 0, the seed the recurrence needs.
    """
    if k < 0:
        raise ValueError(f"block size must be >= 0, got {k}")
    _check_mode(mode)
    if mode == "closed":
        return _top_sum(k, _ratio(trunc))
    return _recurrence(k - 1, zero(trunc), one(trunc))


def inner_block_det(k: int, trunc: int = DEFAULT_TRUNC, mode: str = "closed") -> TriSeries:
    """Determinant of the stripped k x k block, defined for k >= -1.

    closed:      x^C(k+2,2) (y/(1-x))^(k+1)
                 + ((1-x-xy)/(1-x)) * sum_{j=0}^{k} x^((k+1)j - j(j-1)/2) (y/(1-x))^j
    recurrence:  d_k = (1 - x^k y (1+z)) d_{k-1} + x^k y z d_{k-2}
                 from d_{-1} = 1 and d_0 = 1.

    The closed form is x^C(k+2,2) u^(k+1) + psi * top_block_det(k+1) with
    u = y/(1-x) and psi = (1-x-xy)/(1-x).
    """
    if k < -1:
        raise ValueError(f"block size must be >= -1, got {k}")
    _check_mode(mode)
    if mode == "closed":
        u = _ratio(trunc)
        return _closing_term(k + 1, _top_sum(k + 1, u), u)
    return _recurrence(k, one(trunc), one(trunc))


def _ratio(trunc: int) -> TriSeries:
    """u = y/(1-x), the variable of the closed forms' sums."""
    x, y, _q = variables(trunc)
    return y * (one(trunc) - x).inverse()


def _top_sum(m: int, u: TriSeries) -> TriSeries:
    """k_m = sum_{j<m} x^(mj - C(j,2)) u^j, the closed form of the top
    block of size m."""
    trunc = u.trunc
    acc = zero(trunc)
    power = one(trunc)
    for j in range(m):
        acc = acc + monomial(m * j - comb(j, 2), 0, 0, 1, trunc) * power
        power = power * u
    return acc


def _closing_term(m: int, body: TriSeries, u: TriSeries) -> TriSeries:
    """x^C(m+1,2) u^m + psi * body, where psi = (1-x-xy)/(1-x) is written
    as 1 - x u.

    With body = k_m this is the inner block of size m - 1.
    """
    trunc = u.trunc
    lead = monomial(comb(m + 1, 2), 0, 0, 1, trunc) * u ** m
    psi = one(trunc) - monomial(1, 0, 0, 1, trunc) * u
    return lead + psi * body


def _recurrence(n: int, before: TriSeries, start: TriSeries) -> TriSeries:
    """e_n of e_i = (1 - x^i y (1+z)) e_{i-1} + x^i y z e_{i-2} for n >= -1,
    seeded with e_{-1} = before and e_0 = start.

    The top blocks are d_k = e_{k-1} from (0, 1), the inner blocks
    d_k = e_k from (1, 1).
    """
    if n == -1:
        return before
    trunc = start.trunc
    *_rest, z = _atoms(trunc)
    prev2, prev = before, start
    for i in range(1, n + 1):
        step = monomial(i, 1, 0, 1, trunc)
        current = (one(trunc) - step * (one(trunc) + z)) * prev + step * z * prev2
        prev2, prev = prev, current
    return prev


def numerator_det(m: int, trunc: int = DEFAULT_TRUNC) -> TriSeries:
    """det of the numerator matrix, via its last-row cofactor expansion:
    top_block_det(m) + z q x^m y top_block_det(m-1)."""
    if m < 1:
        raise ValueError(f"pattern length must be >= 1, got {m}")
    *_rest, z = _atoms(trunc)
    marker = monomial(m, 1, 1, 1, trunc)  # q x^m y
    return top_block_det(m, trunc) + z * marker * top_block_det(m - 1, trunc)


def denominator_det(m: int, trunc: int = DEFAULT_TRUNC) -> TriSeries:
    """det of the system matrix, via its last-row cofactor expansion:
    inner_block_det(m-1) + z q x^m y inner_block_det(m-2)."""
    if m < 1:
        raise ValueError(f"pattern length must be >= 1, got {m}")
    *_rest, z = _atoms(trunc)
    marker = monomial(m, 1, 1, 1, trunc)
    return inner_block_det(m - 1, trunc) + z * marker * inner_block_det(m - 2, trunc)


def _check_mode(mode: str) -> None:
    if mode not in ("closed", "recurrence"):
        raise ValueError(f"mode must be 'closed' or 'recurrence', got {mode!r}")
