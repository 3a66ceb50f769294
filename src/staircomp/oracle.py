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
its parts.  A window is a factor 1 0^{>=0} 1 0^{>=1} ... 1 0^{>=m-1} of
the word; ``count_staircases`` finds it with one compiled lookahead
pattern at every start, so overlapping windows all count.

The histograms and totals come from a census that evaluates the same
rule bit-sliced (Knuth, TAOCP 4A, 7.1.3): bit plane t is an int holding
bit t of every numeral in a chunk, one bit per composition.  A few
operations on whole planes mark the bits where a part starts and where a
window starts, two bit-sliced counters sum those marks for every
composition at once, and each class (parts, windows) is then a popcount.
No states are merged: the histogram of n is a census of all 2^(n-1)
words, and the per-composition pattern above is the independent second
implementation the tests compare it against.

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
from typing import Iterable, Iterator

from .series import _check_size

MAX_ENUM_N = 24
"""Default enumeration cap: 2^23 compositions, the largest casual run."""


class EnumerationLimitError(RuntimeError):
    """Exhaustive enumeration was requested beyond the configured cap."""


class _Record:
    """Fields named by ``__match_args__`` that cannot be reassigned, with a
    field-by-field ``==``, ``hash``, ``repr`` and pickle: the frozen record
    a dataclass would give, without importing ``dataclasses``.  A record is
    hashable when its fields are."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class Composition(_Record):
    """An ordered sequence of positive integer parts."""

    __slots__ = __match_args__ = ("parts",)

    def __init__(self, parts: Iterable[int]):
        object.__setattr__(self, "parts", tuple(parts))
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


class Histogram(_Record):
    """Exact staircase counts for one total a: (parts, occurrences) -> count.

    Absent keys mean zero.  The counts over all keys sum to 2^(a-1).  Its
    counts are a dict, so a histogram is not hashable.
    """

    __slots__ = __match_args__ = ("a", "counts")

    def __init__(self, a: int, counts: dict[tuple[int, int], int]):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "counts", counts)

    def count(self, b: int, s: int) -> int:
        return self.counts.get((b, s), 0)

    def total(self) -> int:
        return sum(self.counts.values())


def _windows(m: int):
    """findall of the window rule on words: part j of a window is 1 followed
    by at least j - 1 letters 0.  The lookahead matches once at every start
    of a window, overlapping ones included."""
    return re.compile("(?=" + "".join(f"10{{{j},}}" for j in range(m)) + ")").findall


_CHUNK_BITS = 14
"""A census runs over chunks of at most 2^14 numerals, one bit each."""


def _add_plane(counter: list[int], plane: int) -> None:
    """Add a plane of 0/1 digits to a bit-sliced counter, whose planes hold
    the binary digits of one count per bit, low digit first (a ripple
    carry)."""
    for i, digit in enumerate(counter):
        counter[i], plane = digit ^ plane, digit & plane
        if not plane:
            return
    if plane:
        counter.append(plane)


def _classes(mask: int, counter: list[int]) -> list[tuple[int, int]]:
    """The (count, bits) pairs that split mask by the counter's value, each
    with bits nonzero: one split per digit plane, high digit first."""
    classes = [(0, mask)]
    for i in range(len(counter) - 1, -1, -1):
        digit, split = counter[i], []
        for value, bits in classes:
            ones = bits & digit
            if ones:
                split.append((value | 1 << i, ones))
            if bits ^ ones:
                split.append((value, bits ^ ones))
        classes = split
    return classes


def _enumerate(n: int, m: int) -> Counter:
    """(parts, windows) -> count over every composition of n >= 1, read
    from the numerals 2^(n-1) .. 2^n - 1 a chunk of 2^k of them at a time.

    Inside a chunk, plane P_t holds bit t of each numeral, one bit per
    composition.  Bits t < k repeat 2^t zeros and 2^t ones; the higher
    bits are those of the chunk's first numeral, so their planes are
    constant.  A part starts at every set bit and runs down to the next
    one, so the part starting at bit t is at least j long where
    P_t & ~P_{t-1} & ... & ~P_{t-j+1} (none when t < j - 1).  Level m of
    a window is a part at least m long, and level j < m is a part at least
    j long whose next part is level j + 1, which one scan up the bits
    finds; the window starts are level 1.  Two bit-sliced counters then
    sum the planes of part starts and of window starts, and each class
    (parts, windows) is a popcount.
    """
    k = min(n - 1, _CHUNK_BITS)
    width = 1 << k
    full = (1 << width) - 1
    low = []
    for t in range(k):
        half = 1 << t
        plane, period = ((1 << half) - 1) << half, 2 * half
        while period < width:
            plane |= plane << period
            period *= 2
        low.append(plane)
    census = Counter()
    for first in range(1 << (n - 1), 1 << n, width):
        starts = low + [full if first >> t & 1 else 0 for t in range(k, n)]
        clear = [full ^ plane for plane in starts]
        # at_least[j - 1][t]: the part starting at bit t is at least j long.
        at_least = [starts]
        for j in range(2, m + 1):
            prev = at_least[-1]
            at_least.append([prev[t] & clear[t - j + 1] if t >= j - 1 else 0
                             for t in range(n)])
        level = at_least.pop()
        while at_least:
            # below: the next level holds at the highest part start under bit t.
            below, linked = 0, []
            for long_enough, next_level, zero in zip(at_least.pop(), level, clear):
                linked.append(long_enough & below)
                below = next_level | zero & below
            level = linked
        parts, windows = [], []
        for plane in starts:
            _add_plane(parts, plane)
        for plane in level:
            _add_plane(windows, plane)
        for b, of_b in _classes(full, parts):
            for s, bits in _classes(of_b, windows):
                census[b, s] += bits.bit_count()
    return census


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
    m > n runs as m = n + 1, which finds no window in a few levels.
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
    return (Composition(len(run) + 1 for run in bin(v)[3:].split("1"))
            for v in range(1 << (n - 1), 1 << n))


def count_staircases(composition, m: int) -> int:
    """Number of staircase windows of length m inside the composition.

    Windows at every start index are tested, so occurrences may overlap;
    a composition with fewer than m parts contains none.  A plain sequence
    of parts is validated as a Composition first.
    """
    _check_size("m", m)
    if not isinstance(composition, Composition):
        composition = Composition(composition)
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
