"""Acceptance gate: every check the library promises, at full strength.

Each criterion prints one PASS/FAIL line outside pytest's capture, so the
lines always reach the console; all comparisons are exact, there are no
tolerances anywhere.  Criteria 2 to 6 run the checks of ``staircomp
verify`` (``staircomp.verify``) at the gate's own sizes.
"""

from contextlib import contextmanager
from functools import lru_cache
from math import comb

import pytest

from staircomp import genfun, oracle, verify
from staircomp.determinants import (
    det_division_free,
    inner_block_det,
    inner_block_matrix,
    top_block_det,
    top_block_matrix,
)


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def report(label):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"FAIL {label}", flush=True)
            raise
        with capsys.disabled():
            print(f"PASS {label}", flush=True)

    return report


@lru_cache(maxsize=None)
def master_series(m, trunc):
    return genfun.staircase_gf(m, trunc)


def test_criterion_1_window_counts_of_the_reference_composition(criterion):
    with criterion("1: window counts of (4,3,1,2,3) are 1, 3, 5 for m = 3, 2, 1"):
        c = oracle.Composition((4, 3, 1, 2, 3))
        assert oracle.count_staircases(c, 3) == 1
        assert oracle.count_staircases(c, 2) == 3
        assert oracle.count_staircases(c, 1) == 5


def test_criterion_2_master_series_equals_enumeration(criterion):
    with criterion("2: master series equals enumeration for m <= 4, totals <= 20"):
        for m in (1, 2, 3, 4):
            assert verify.check_gf_vs_oracle(m, max_n=20, trunc=20) is None, m


def test_criterion_3_marginal_at_q1_is_binomial(criterion):
    with criterion("3: q = 1 marginal has binomial coefficients for m <= 5 at order 20"):
        for m in (1, 2, 3, 4, 5):
            assert verify.check_marginals(m, max_n=0, trunc=20) is None, m


def test_criterion_4_block_determinants_cross_check(criterion):
    with criterion(
        "4: block determinants: closed = recurrence (size <= 8, order 20) "
        "and = direct expansion (size <= 6, order 16)"
    ):
        # top blocks of size 0..8 and inner blocks of size -1..8
        assert verify.check_block_dets(7, max_n=0, trunc=20) is None
        for k in range(1, 7):
            assert det_division_free(top_block_matrix(k, 16)) == top_block_det(k, 16), k
            assert det_division_free(inner_block_matrix(k, 16)) == inner_block_det(k, 16), k


def test_criterion_5_cramer_route_equals_the_closed_form(criterion):
    with criterion("5: Cramer route equals the closed form for m <= 5 at order 14"):
        for m in (1, 2, 3, 4, 5):
            assert verify.check_cramer(m, max_n=0, trunc=14) is None, m


def test_criterion_6_window_totals_formula_equals_enumeration(criterion):
    with criterion("6: window totals formula equals enumeration for m <= 4, n <= 20"):
        for m in (1, 2, 3, 4):
            assert verify.check_totals(m, max_n=20, trunc=0) is None, m


def test_criterion_7_totals_series_is_the_q_derivative_at_one(criterion):
    with criterion("7: totals series equals d/dq of the master series at q = 1, m <= 5, order 20"):
        for m in (1, 2, 3, 4, 5):
            derivative = master_series(m, 20).diff_q().at_q1()
            assert genfun.total_staircases_gf(m, 20) == derivative, m


def test_criterion_8_support_and_sign_laws(criterion):
    with criterion("8: support and sign laws hold on every computed table"):
        tables = [(m, 14) for m in (1, 2, 3, 4)] + [(m, 20) for m in (1, 2, 3, 4, 5)]
        for m, trunc in tables:
            gf = master_series(m, trunc)
            marginals: dict = {}
            for (a, b, s), c in gf.terms():
                assert isinstance(c, int) and c > 0, (m, a, b, s, c)
                assert b <= a, (m, a, b)
                if s >= 1:
                    assert a >= m * (m + 1) // 2, (m, a, b, s)
                marginals[a, b] = marginals.get((a, b), 0) + c
            for a in range(1, trunc + 1):
                for b in range(0, trunc + 2):
                    want = comb(a - 1, b - 1) if 1 <= b <= a else 0
                    assert marginals.get((a, b), 0) == want, (m, a, b)
