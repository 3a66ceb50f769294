"""Brute-force enumeration: known values and counting invariants."""

import copy
import os
import pickle
import subprocess
import sys
from collections import Counter
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staircomp import genfun, oracle
from staircomp.oracle import (
    Composition,
    EnumerationLimitError,
    compositions,
    count_staircases,
    shared_census,
    staircase_histogram,
    total_staircases,
)


def test_single_composition_of_one():
    assert [c.parts for c in compositions(1)] == [(1,)]


def test_compositions_of_three():
    got = {c.parts for c in compositions(3)}
    assert got == {(3,), (2, 1), (1, 2), (1, 1, 1)}


def test_compositions_of_zero_is_the_empty_one():
    (only,) = list(compositions(0))
    assert only.parts == ()
    assert only.weight == 0
    assert count_staircases(only, 1) == 0


def test_compositions_of_thirteen_cardinality_and_sums():
    count = 0
    for c in compositions(13):
        assert c.weight == 13
        count += 1
    assert count == 4096


@pytest.mark.parametrize("m, expected", [(3, 1), (2, 3), (1, 5)])
def test_window_counts_in_4_3_1_2_3(m, expected):
    assert count_staircases(Composition((4, 3, 1, 2, 3)), m) == expected


def test_too_few_parts_means_no_windows():
    assert count_staircases(Composition((1,)), 2) == 0


def test_zero_length_pattern_rejected():
    with pytest.raises(ValueError):
        count_staircases(Composition((1, 2)), 0)


def test_histogram_of_three_with_pattern_two():
    hist = staircase_histogram(3, 2)
    assert hist.counts == {(1, 0): 1, (2, 0): 1, (2, 1): 1, (3, 0): 1}


def test_histogram_of_one_with_pattern_one():
    assert staircase_histogram(1, 1).counts == {(1, 1): 1}


def test_histogram_total_is_a_power_of_two():
    assert staircase_histogram(4, 2).total() == 8


def test_histogram_marginals_are_binomial():
    for a in (3, 5, 8):
        hist = staircase_histogram(a, 2)
        for b in range(1, a + 1):
            by_parts = sum(c for (bb, _s), c in hist.counts.items() if bb == b)
            assert by_parts == comb(a - 1, b - 1)


def test_histogram_key_bounds():
    m = 3
    hist = staircase_histogram(7, m)
    for b, s in hist.counts:
        assert 1 <= b <= 7
        assert 0 <= s <= max(0, b - m + 1)


def test_total_staircases_known_values():
    # Of {[1,3], [2,2], [3,1]}, the first two contain one window each.
    assert total_staircases(4, 2, 2) == 2
    # Only [1,2] among the two-part compositions of 3.
    assert total_staircases(3, 2, 2) == 1
    # Fewer parts than the pattern needs.
    assert total_staircases(3, 2, 3) == 0


def test_total_staircases_for_unit_pattern_counts_parts():
    for n in range(1, 9):
        for parts in range(1, n + 1):
            assert total_staircases(n, parts, 1) == parts * comb(n - 1, parts - 1)


def test_enumeration_cap():
    with pytest.raises(EnumerationLimitError):
        list(compositions(6, cap=5))
    with pytest.raises(EnumerationLimitError):
        staircase_histogram(6, 2, cap=5)
    with pytest.raises(EnumerationLimitError):
        total_staircases(6, 2, 2, cap=5)
    assert sum(1 for _ in compositions(6, cap=6)) == 32


@pytest.mark.parametrize(
    "cap, error",
    [(True, TypeError), (2.5, TypeError), (None, TypeError), (-1, ValueError)],
    ids=["bool", "float", "none", "negative"],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda cap: list(compositions(0, cap=cap)),
        lambda cap: list(compositions(2, cap=cap)),
        lambda cap: staircase_histogram(1, 2, cap=cap),
        lambda cap: total_staircases(2, 1, 1, cap=cap),
    ],
    ids=["compositions-empty", "compositions", "histogram", "totals"],
)
def test_cap_must_be_a_non_negative_int(call, cap, error):
    with pytest.raises(error, match="^cap must be"):
        call(cap)


def test_composition_rejects_bad_parts():
    with pytest.raises(ValueError):
        Composition((1, 0, 2))
    with pytest.raises(ValueError):
        Composition((True, 2))
    with pytest.raises(ValueError):
        Composition((2.0,))
    with pytest.raises(ValueError):
        Composition((-1, 3))


def test_enumerated_compositions_equal_publicly_built_ones():
    for n in range(13):
        for c in compositions(n):
            public = Composition(c.parts)
            assert type(c) is Composition
            assert c == public and hash(c) == hash(public)
            assert c.weight == n and len(c) == len(public) and tuple(c) == c.parts
            with pytest.raises(AttributeError):
                c.parts = (n,)


def test_records_compare_show_and_pickle_by_value():
    c = Composition((2, 1))
    h = oracle.Histogram(3, {(1, 0): 1})
    assert repr(c) == "Composition(parts=(2, 1))"
    assert repr(h) == "Histogram(a=3, counts={(1, 0): 1})"
    assert Composition(parts=(2, 1)) == c != Composition((1, 2))
    assert c != (2, 1) and c.__eq__((2, 1)) is NotImplemented
    assert h == oracle.Histogram(a=3, counts={(1, 0): 1}) != oracle.Histogram(3, {})
    assert hash(c) == hash(((2, 1),))
    with pytest.raises(TypeError, match="^unhashable type: 'dict'$"):
        hash(h)
    for record, field in ((c, "parts"), (h, "a"), (h, "counts")):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(record, field)
        with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
            record.extra = 1
        assert pickle.loads(pickle.dumps(record)) == record == copy.deepcopy(record)


def test_importing_the_package_and_cli_leaves_out_dataclasses():
    # -S: no site hook may import it first.  dataclasses pulls in inspect,
    # ast, dis and tokenize, several milliseconds of every start-up.
    src = str(Path(oracle.__file__).parents[1])
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import staircomp, staircomp.cli\n"
        "print('dataclasses' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          check=True)
    assert done.stdout == "False\n"


def test_the_ith_composition_is_the_ith_numeral():
    # A part p re-encoded as the letter 1 then p - 1 letters 0.
    for n in range(1, 13):
        for i, c in enumerate(compositions(n)):
            word = "".join("1" + "0" * (p - 1) for p in c.parts)
            assert int(word, 2) == (1 << (n - 1)) + i


def test_count_staircases_rejects_non_positive_parts():
    with pytest.raises(ValueError):
        count_staircases([0, -3, 2], 1)
    assert count_staircases([4, 3, 1, 2, 3], 2) == 3


@given(st.integers(1, 12))
def test_cardinality_is_two_to_the_n_minus_one(n):
    assert sum(1 for _ in compositions(n)) == 2 ** (n - 1)


@given(st.integers(1, 10))
def test_every_composition_has_the_right_weight(n):
    assert all(c.weight == n for c in compositions(n))


@given(st.lists(st.integers(1, 6), min_size=0, max_size=10))
def test_unit_pattern_counts_parts(parts):
    assert count_staircases(Composition(tuple(parts)), 1) == len(parts)


@given(st.lists(st.integers(1, 6), min_size=0, max_size=10), st.integers(1, 5))
def test_longer_patterns_never_occur_more_often(parts, m):
    c = Composition(tuple(parts))
    assert count_staircases(c, m + 1) <= count_staircases(c, m)


@given(st.lists(st.integers(1, 6), min_size=0, max_size=10), st.integers(1, 5))
def test_window_count_respects_the_shift_bound(parts, m):
    c = Composition(tuple(parts))
    assert count_staircases(c, m) <= max(0, len(parts) - m + 1)


@settings(max_examples=25)
@given(st.integers(1, 9), st.integers(1, 4))
def test_histogram_matches_direct_recount(a, m):
    hist = staircase_histogram(a, m)
    recount: dict = {}
    for c in compositions(a):
        key = (len(c), count_staircases(c, m))
        recount[key] = recount.get(key, 0) + 1
    assert hist.counts == recount


@pytest.mark.parametrize(
    "call",
    [
        lambda: staircase_histogram(4, True),
        lambda: count_staircases((1, 2), True),
        lambda: list(compositions(True)),
        lambda: genfun.total_staircases(True, True, True),
    ],
    ids=["histogram", "count", "compositions", "closed-total"],
)
def test_bool_sizes_rejected(call):
    with pytest.raises(TypeError):
        call()


def _compositions_by_first_part(n):
    # Independent of the library: first part p, then every composition of n - p.
    if n == 0:
        return [()]
    return [(p, *rest) for p in range(1, n + 1) for rest in _compositions_by_first_part(n - p)]


def test_enumeration_matches_an_independent_recursion():
    for n in range(13):
        reference = _compositions_by_first_part(n)
        assert len(set(reference)) == len(reference)
        # The documented order: increasing numerals, which is reverse
        # lexicographic order of the parts.
        assert [c.parts for c in compositions(n)] == sorted(reference, reverse=True)
        if n == 0:
            continue  # the histogram and the totals start at n = 1
        for m in range(1, 5):
            hist = Counter((len(p), count_staircases(p, m)) for p in reference)
            with shared_census():  # one enumeration for the histogram and every total
                assert staircase_histogram(n, m).counts == hist
                for k in range(1, n + 1):
                    assert total_staircases(n, k, m) == sum(
                        s * c for (b, s), c in hist.items() if b == k
                    )


def _windows_by_definition(parts, m):
    # The definition, independent of the library: a run of m consecutive
    # parts whose j-th part is at least j, at every start.
    count = 0
    for i in range(len(parts) - m + 1):
        if all(parts[i + j] >= j + 1 for j in range(m)):
            count += 1
    return count


def _histogram_by_definition(n, m):
    return Counter((len(p), _windows_by_definition(p, m)) for p in _compositions_by_first_part(n))


def _total(hist, k):
    return sum(s * c for (b, s), c in hist.items() if b == k)


def test_counts_match_the_definition():
    for n in range(1, 13):
        reference = _compositions_by_first_part(n)
        for m in range(1, 9):
            hist = _histogram_by_definition(n, m)
            with shared_census():  # one enumeration for the histogram and every total
                assert staircase_histogram(n, m).counts == hist
                for k in range(1, n + 2):
                    assert total_staircases(n, k, m) == _total(hist, k)
            assert [count_staircases(p, m) for p in reference] == [
                _windows_by_definition(p, m) for p in reference
            ]


@pytest.mark.parametrize("bits", [1, 3])
def test_census_across_chunk_boundaries(monkeypatch, bits):
    # Chunks of 2^bits numerals: every census from n = bits + 2 on spans
    # several chunks, and its high bit planes are constant in each.
    monkeypatch.setattr(oracle, "_CHUNK_BITS", bits)
    for n in range(1, 13):
        for m in range(1, 9):
            assert staircase_histogram(n, m).counts == _histogram_by_definition(n, m), (n, m)


def test_census_equals_a_recount_of_each_composition():
    # The per-composition pattern count is the second implementation.
    for n in range(1, 15):
        listed = list(compositions(n))
        for m in range(1, 7):
            want = Counter((len(c), count_staircases(c, m)) for c in listed)
            assert staircase_histogram(n, m).counts == want, (n, m)


@settings(deadline=None)
@given(st.integers(1, 20), st.integers(1, 8))
def test_census_sums_to_the_closed_forms(n, m):
    hist = staircase_histogram(n, m)
    assert hist.total() == 2 ** (n - 1)
    for b in range(1, n + 1):
        of_b = {s: c for (bb, s), c in hist.counts.items() if bb == b}
        assert sum(of_b.values()) == comb(n - 1, b - 1), b
        assert sum(s * c for s, c in of_b.items()) == genfun.total_staircases(n, b, m), b


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux's VmHWM")
def test_the_census_at_the_default_cap_stays_small():
    # VmHWM is the peak resident size of the child alone.  Its ru_maxrss
    # may carry the test process's own peak across the fork and exec.
    src = str(Path(oracle.__file__).parents[1])
    code = (
        "from staircomp.oracle import staircase_histogram\n"
        "assert staircase_histogram(24, 6).total() == 2 ** 23\n"
        "with open('/proc/self/status') as status:\n"
        "    print(next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert int(done.stdout) < 64 * 1024, f"peak {done.stdout.strip()} KiB"


def test_huge_parts_count_like_any_part_of_at_least_m():
    assert count_staircases([10**9, 10**9], 2) == 1
    assert count_staircases([10**9, 10**9, 3], 3) == 1
    assert count_staircases([10**9], 10**9) == 0


@given(st.lists(st.integers(1, 10**6), max_size=12), st.integers(1, 8))
def test_window_count_matches_the_definition(parts, m):
    assert count_staircases(parts, m) == _windows_by_definition(parts, m)


def test_mutating_a_histogram_changes_no_later_count():
    want = _histogram_by_definition(9, 3)
    first = staircase_histogram(9, 3)
    first.counts.clear()
    first.counts[1, 5] = 7
    assert staircase_histogram(9, 3).counts == want
    for k in range(1, 10):
        assert total_staircases(9, k, 3) == _total(want, k)


def test_interleaved_calls_equal_fresh_results():
    want = {(n, m): _histogram_by_definition(n, m) for n in (7, 8) for m in (2, 3)}
    order = [(7, 2), (8, 3), (7, 2), (7, 3), (8, 2), (8, 3), (7, 3), (8, 2)]
    for (n, m), other in zip(order, order[1:]):
        assert staircase_histogram(n, m).counts == want[n, m]
        for k in range(1, n + 1):
            assert total_staircases(n, k, m) == _total(want[n, m], k)
            # A call for another (n, m) between two totals of this one.
            assert staircase_histogram(*other).counts == want[other]


def test_totals_beyond_every_part_count_are_zero():
    for n in range(1, 10):
        for m in (1, 2, 4):
            for k in range(n + 1, n + 4):
                assert total_staircases(n, k, m) == 0


def test_every_call_enumerates_outside_a_block(builds):
    staircase_histogram(6, 2)
    staircase_histogram(6, 2)
    total_staircases(6, 3, 2)
    assert builds == [(6, 2)] * 3


def test_a_block_builds_each_census_once(builds):
    with shared_census():
        for _ in range(2):
            staircase_histogram(6, 2)
            for k in range(1, 8):
                total_staircases(6, k, 2)
        # m beyond n + 1 is the same census as m = n + 1.
        staircase_histogram(3, 4)
        staircase_histogram(3, 9)
        total_staircases(3, 1, 5)
    assert builds == [(6, 2), (3, 4)]


def test_nested_blocks_share_one_memo(builds):
    with shared_census():
        staircase_histogram(5, 2)
        with shared_census():
            staircase_histogram(5, 2)
            staircase_histogram(5, 3)
        # Still open: the inner exit kept the outer memo.
        staircase_histogram(5, 3)
        total_staircases(5, 2, 2)
    assert builds == [(5, 2), (5, 3)]


def test_no_census_outlives_its_block(builds):
    with shared_census():
        staircase_histogram(7, 3)
    staircase_histogram(7, 3)
    with pytest.raises(KeyError):
        with shared_census():
            staircase_histogram(7, 3)
            raise KeyError("inside the block")
    staircase_histogram(7, 3)
    assert builds == [(7, 3)] * 4
    assert oracle._memo is None


def test_mutating_a_histogram_inside_a_block_changes_no_later_count():
    want = _histogram_by_definition(9, 3)
    with shared_census():
        first = staircase_histogram(9, 3)
        first.counts.clear()
        first.counts[1, 5] = 7
        assert staircase_histogram(9, 3).counts == want
        for k in range(1, 10):
            assert total_staircases(9, k, 3) == _total(want, k)
