"""Brute-force ground truth for staircase counts in integer compositions.

A composition of n is an ordered sequence of positive parts summing to n;
there are 2^(n-1) of them for n >= 1.  A staircase window of length m is a
run of m consecutive parts whose j-th part is at least j; occurrences may
overlap.  Everything here is computed by exhaustive enumeration and is the
reference the generating-function formulas are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

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


def _parts_from_mask(n: int, mask: int) -> tuple[int, ...]:
    # Cut positions are the set bits; bit i cuts between positions i+1 and i+2.
    parts = []
    prev = 0
    for pos in range(1, n):
        if mask & 1:
            parts.append(pos - prev)
            prev = pos
        mask >>= 1
    parts.append(n - prev)
    return tuple(parts)


def _window_count(parts: Sequence[int], m: int) -> int:
    count = 0
    for i in range(len(parts) - m + 1):
        for j in range(m):
            if parts[i + j] < j + 1:
                break
        else:
            count += 1
    return count


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise EnumerationLimitError(
            f"enumerating compositions of {n} means 2^{n - 1} cases, "
            f"beyond the cap of {cap}; raise the cap to force the run"
        )


def compositions(n: int, cap: int = MAX_ENUM_N) -> Iterator[Composition]:
    """Yield every composition of n exactly once.

    Compositions of n correspond to subsets of the n-1 possible cut
    positions, so the enumeration walks bit masks.  n = 0 yields the empty
    composition alone.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    _check_cap(n, cap)
    return _compositions_iter(n)


def _compositions_iter(n: int) -> Iterator[Composition]:
    if n == 0:
        yield Composition(())
        return
    for mask in range(1 << (n - 1)):
        yield Composition(_parts_from_mask(n, mask))


def count_staircases(composition, m: int) -> int:
    """Number of staircase windows of length m inside the composition.

    Windows at every start index are tested, so occurrences may overlap;
    a composition with fewer than m parts contains none.  A plain sequence
    of parts is validated as a Composition first.
    """
    if m < 1:
        raise ValueError(f"pattern length must be a positive integer, got {m}")
    if not isinstance(composition, Composition):
        composition = Composition(tuple(composition))
    return _window_count(composition.parts, m)


def staircase_histogram(a: int, m: int, cap: int = MAX_ENUM_N) -> Histogram:
    """Classify all compositions of a by (number of parts, window count)."""
    if a < 1:
        raise ValueError(f"a must be positive, got {a}")
    if m < 1:
        raise ValueError(f"pattern length must be a positive integer, got {m}")
    _check_cap(a, cap)
    counts: dict[tuple[int, int], int] = {}
    for mask in range(1 << (a - 1)):
        parts = _parts_from_mask(a, mask)
        key = (len(parts), _window_count(parts, m))
        counts[key] = counts.get(key, 0) + 1
    return Histogram(a, counts)


def total_staircases(n: int, num_parts: int, m: int, cap: int = MAX_ENUM_N) -> int:
    """Total window count over all compositions of n with exactly num_parts parts."""
    if n < 1 or num_parts < 1 or m < 1:
        raise ValueError("n, num_parts and m must all be positive")
    _check_cap(n, cap)
    if num_parts > n:
        return 0
    total = 0
    for cuts in combinations(range(1, n), num_parts - 1):
        bounds = (0,) + cuts + (n,)
        parts = tuple(bounds[i + 1] - bounds[i] for i in range(num_parts))
        total += _window_count(parts, m)
    return total
