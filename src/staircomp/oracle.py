"""Brute-force ground truth for staircase counts in integer compositions.

A composition of n is an ordered sequence of positive parts summing to n;
there are 2^(n-1) of them for n >= 1.  A staircase window of length m is a
run of m consecutive parts whose j-th part is at least j; occurrences may
overlap.  Everything here is computed by exhaustive enumeration and is the
reference the generating-function formulas are tested against.

Enumeration and counting read each composition as the same binary word:
a part p is the letter 1 followed by p - 1 letters 0.  The words of n are
the binary numerals 2^(n-1) .. 2^n - 1, so both run over that range and
visit every composition once.  ``compositions()`` splits each word into
its parts; the counts take the number of parts as the numeral's bit
count.  A window is then a factor 1 0^{>=0} 1 0^{>=1} ... 1 0^{>=m-1} of
the word, found by one compiled lookahead pattern at every start, so
overlapping windows all count.  No states are merged: the histogram of n
is a census of all 2^(n-1) words.

Inside a ``shared_census()`` block each census of one (n, m) is built at
most once and then read by every histogram and total that asks for it;
``verify`` runs its checks in one block, so the histogram check and the
totals check share one pass over each total.  The memo is dropped when
the outermost block exits, so no census outlives the run, and outside
any block every call enumerates afresh.
"""

from __future__ import annotations

import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from .series import _check_size

MAX_ENUM_N = 24
"""Default enumeration cap: 2^23 compositions, the largest casual run."""


class EnumerationLimitError(RuntimeError):
    """Exhaustive enumeration was requested beyond the configured cap."""


@dataclass(frozen=True, slots=True)
class Composition:
    """An ordered sequence of positive integer parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        for p in self.parts:
            if type(p) is not int or p < 1:
                raise ValueError(f"parts must be positive integers, got {p!r}")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)


@dataclass(frozen=True)
class Histogram:
    """Exact staircase counts for one total a: (parts, occurrences) -> count.

    Absent keys mean zero.  The counts over all keys sum to 2^(a-1).
    """

    a: int
    counts: dict[tuple[int, int], int]

    def count(self, b: int, s: int) -> int:
        return self.counts.get((b, s), 0)

    def total(self) -> int:
        return sum(self.counts.values())


def _windows(m: int):
    """findall of the window rule on words: part j of a window is 1 followed
    by at least j - 1 letters 0.  The lookahead matches once at every start
    of a window, overlapping ones included."""
    return re.compile("(?=" + "".join(f"10{{{j},}}" for j in range(m)) + ")").findall


def _enumerate(n: int, m: int) -> Counter:
    """(parts, windows) -> count over every composition of n >= 1, read
    from the numerals 2^(n-1) .. 2^n - 1."""
    findall = _windows(m)
    words = range(1 << (n - 1), 1 << n)
    return Counter(zip(map(int.bit_count, words), map(len, map(findall, map(bin, words)))))


_memo: dict[tuple[int, int], Counter] | None = None
"""The censuses of the open ``shared_census()`` block, or None outside one."""


@contextmanager
def shared_census():
    """Build each census at most once until the block exits.

    A nested block joins the outer one's memo, and the memo is dropped
    when the outermost block exits, also by an exception.
    """
    global _memo
    if _memo is not None:
        yield
        return
    _memo = {}
    try:
        yield
    finally:
        _memo = None


def _census(n: int, m: int) -> Counter:
    """The census of n, read from the open block's memo if it is there.
    A window needs m parts and a composition of n has at most n, so any
    m > n runs as m = n + 1, whose pattern never matches and stays short.
    Callers must not mutate the result: it may be shared."""
    key = n, min(m, n + 1)
    memo = _memo
    if memo is None:
        return _enumerate(*key)
    census = memo.get(key)
    if census is None:
        census = memo[key] = _enumerate(*key)
    return census


def _check_cap(n: int, cap: int) -> None:
    _check_size("cap", cap, least=0)
    if n > cap:
        raise EnumerationLimitError(
            f"enumerating compositions of {n} means 2^{n - 1} cases, "
            f"beyond the cap of {cap}; raise the cap to force the run"
        )


def compositions(n: int, cap: int = MAX_ENUM_N) -> Iterator[Composition]:
    """Yield every composition of n exactly once.

    The compositions are read from the same words as the counts, the
    numerals 2^(n-1) .. 2^n - 1 in increasing order, which is reverse
    lexicographic order of the parts: (4), (3, 1), (2, 2), (2, 1, 1),
    (1, 3), ..., (1, 1, 1, 1) for n = 4.  n = 0 yields the empty
    composition alone.
    """
    _check_size("n", n, least=0)
    _check_cap(n, cap)
    if n == 0:
        return iter((Composition(()),))
    # After the leading 1, each run of 0s is one part minus one.
    return (Composition(tuple(len(run) + 1 for run in bin(v)[3:].split("1")))
            for v in range(1 << (n - 1), 1 << n))


def count_staircases(composition, m: int) -> int:
    """Number of staircase windows of length m inside the composition.

    Windows at every start index are tested, so occurrences may overlap;
    a composition with fewer than m parts contains none.  A plain sequence
    of parts is validated as a Composition first.
    """
    _check_size("m", m)
    if not isinstance(composition, Composition):
        composition = Composition(tuple(composition))
    # A window compares parts with 1..m only and needs m parts, so capping
    # each part at m letters and m at one more than the parts changes no count.
    m = min(m, len(composition) + 1)
    return len(_windows(m)("".join("1" + "0" * (min(p, m) - 1) for p in composition)))


def staircase_histogram(a: int, m: int, cap: int = MAX_ENUM_N) -> Histogram:
    """Classify all compositions of a by (number of parts, window count)."""
    _check_size("a", a)
    _check_size("m", m)
    _check_cap(a, cap)
    return Histogram(a, dict(_census(a, m)))


def total_staircases(n: int, num_parts: int, m: int, cap: int = MAX_ENUM_N) -> int:
    """Total window count over all compositions of n with exactly num_parts parts."""
    _check_size("n", n)
    _check_size("num_parts", num_parts)
    _check_size("m", m)
    _check_cap(n, cap)
    return sum(s * c for (b, s), c in _census(n, m).items() if b == num_parts)
