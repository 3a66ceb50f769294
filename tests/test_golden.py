"""The CLI's machine-readable output, byte for byte, against committed files.

Each case is one invocation; its stdout lives in ``tests/golden/<name>.out``,
and it must exit 0 with nothing on stderr.  The cases cover
``table`` in every format and every ``series-dump`` kind at m 1..3, at
the smallest size and a small one (the smallest ``total-gf`` series at
m = 3 is empty), plus ``oracle`` and ``verify``.

Regenerate the files only when a change of output is intended:

    PYTHONPATH=src python3 tests/test_golden.py

Larger outputs are pinned by their SHA-256 digests in ``DIGESTS``, at
order 60, where a coefficient of the master series spans up to 60 bits.
They were recorded from the long division in x, y and q that
``staircase_gf`` used before it carried q inside big-int coefficients,
so they check the packed route against the route it replaced.  The
``gf`` digests at m = 3 and m = 8 were recorded from the packed route
while it still built the numerator from k_m and k_{m-1}, so they check
the cluster-form numerator, built from k_m alone, against it.  The ``gf``
digests at m = 10 and at order 100, and the json table at m = 7, were
recorded while the master series was still divided in x and y with
m factors 1 - x cleared, so they check the division in x and u = y/(1-x)
and the column-by-column change to y against it.  The ``total-gf``
digests at m = 1, 5 and 8 were recorded while the totals series still
inverted (1-x)^(m-2) (1-x-xy)^2 in x and y, so they check its quotient
in x and u, written in y, against that route; the ``gf-q1`` digest at
m = 4 was recorded at the same time.  The ``numerator-det`` and
``denominator-det`` digests at m = 5, 8 and 12 were recorded while the
closed block determinants were still built from lists of (c, e, j, s)
powers of u = y/(1-x), so they check the closed forms built as
polynomials in x and u against that route.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import pytest

from staircomp import cli

GOLDEN = Path(__file__).parent / "golden"
KINDS = ("gf", "gf-q1", "total-gf", "numerator-det", "denominator-det")


def _cases() -> dict[str, list[str]]:
    cases = {}
    for m in (1, 2, 3):
        for size in (1, 7):
            for fmt in ("json", "csv", "text"):
                cases[f"table-m{m}-n{size}-{fmt}"] = [
                    "table", "--m", str(m), "--max-n", str(size), "--format", fmt,
                ]
            for kind in KINDS:
                cases[f"series-dump-m{m}-t{size}-{kind}"] = [
                    "series-dump", "--m", str(m), "--trunc", str(size), "--kind", kind,
                ]
        for fmt in ("json", "csv", "text"):
            cases[f"oracle-m{m}-n5-{fmt}"] = ["oracle", "--n", "5", "--m", str(m), "--format", fmt]
        cases[f"verify-m{m}-n6"] = ["verify", "--m", str(m), "--max-n", "6"]
    return cases


CASES = _cases()

DIGESTS = {
    ("table", "--m", "1", "--max-n", "60", "--format", "csv"):
        "5a1e70f0b6f2999455d5b89c962a083dd16d3c28779029ccd937441b4cfdc363",
    ("table", "--m", "2", "--max-n", "60", "--format", "csv"):
        "df16c7b238ee091d6732d4d531d54b9fed57e804d88efdec647d9d7003b1261f",
    ("table", "--m", "3", "--max-n", "60", "--format", "csv"):
        "6d7fd4b23da295876703b20ac3e963cda9ec26582bed6c160484f1fd8af35a3c",
    ("table", "--m", "8", "--max-n", "60", "--format", "csv"):
        "dcd2aae1f323739e422c7d1e387ce0ec9af1148e4a67564474edac9dc3e430c5",
    ("table", "--m", "7", "--max-n", "60", "--format", "json"):
        "03891b21e29c34727b6640331070bc2836f17aabdcb092282335ba1c1157485b",
    ("series-dump", "--m", "1", "--trunc", "60", "--kind", "gf"):
        "44a6ec8280a0e4a96adaebad8869e58c085bea6d44757283f557844fbf6732a8",
    ("series-dump", "--m", "2", "--trunc", "60", "--kind", "gf"):
        "18cd4765f9082057d0988820765554f406a1680f9c7bcb792609ef57e468483e",
    ("series-dump", "--m", "3", "--trunc", "60", "--kind", "gf"):
        "d653e83a4cc3e69becf6d314caae65df9d52f066cac46f9f8aba835831dc0ec9",
    ("series-dump", "--m", "5", "--trunc", "60", "--kind", "gf"):
        "27af29c38a5c7470bbd8e0dbfe67953f95ad4761daee54c5ba117e32afbd677f",
    ("series-dump", "--m", "8", "--trunc", "60", "--kind", "gf"):
        "e357163cbb6018d64afa799715b094705c2d0d8cacf61c2c780f9c287f78df8a",
    ("series-dump", "--m", "10", "--trunc", "60", "--kind", "gf"):
        "1448332c4ceac1a634eedd623ee0dbdfe91fff7ae9ac1614038278a3ca5cb560",
    ("series-dump", "--m", "2", "--trunc", "100", "--kind", "gf"):
        "17e567490a3acd89714ea3f95c6820806a775f78a9fe57c00e5268366966a19f",
    ("series-dump", "--m", "12", "--trunc", "100", "--kind", "gf"):
        "d2a6545aa60d57def79a5d19f1e806066c7b7b546bf08caff2d1365b499239c5",
    ("series-dump", "--m", "4", "--trunc", "60", "--kind", "gf-q1"):
        "ff2627a1472644182995ab21bd0cb45878e5d0b13533d0935ed0f0b1b79aab72",
    ("series-dump", "--m", "1", "--trunc", "40", "--kind", "total-gf"):
        "e32e7a711bd80ace93b581e1db21c648836e8a0679e3880aa7cb830896420601",
    ("series-dump", "--m", "5", "--trunc", "60", "--kind", "total-gf"):
        "2af5a9b5d98a9a66d5c5ecb0d1377cc66fa5e8a9efe0c97a153e9e4ccd06cda3",
    ("series-dump", "--m", "8", "--trunc", "50", "--kind", "total-gf"):
        "56eb4468618c17aec8a7cc1794f75a60400eea10c275faa6b5c0f2107b973b97",
    ("series-dump", "--m", "5", "--trunc", "30", "--kind", "numerator-det"):
        "bc8fb3ee0a415a868a3b8f6c2b08def79e170262ecb0b5191489134a6520857c",
    ("series-dump", "--m", "8", "--trunc", "40", "--kind", "numerator-det"):
        "339354f0113531cc61878c07abcd13a07a0ff70fb299530d2f3c1df154256cfc",
    ("series-dump", "--m", "12", "--trunc", "60", "--kind", "numerator-det"):
        "a2ffb904fbe1f5888733cb8404e2791337cc7ec192257e53962b18d915904dea",
    ("series-dump", "--m", "5", "--trunc", "30", "--kind", "denominator-det"):
        "55b664ad1f1ecad94acbe683b1b1db9782de0eb53cffa141bd5a37b5938440dd",
    ("series-dump", "--m", "8", "--trunc", "40", "--kind", "denominator-det"):
        "71c6c64aae1eb9dd5cbb7a61f91805a2a546019a74685666ad0434bb844edb16",
    ("series-dump", "--m", "12", "--trunc", "60", "--kind", "denominator-det"):
        "c3b7df5e4b5a54a8676c07e86b92dbedc6db3ac8a00a2bdd8a7b3945553c52a7",
}


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert _run(CASES[name]) == (0, expected, "")


@pytest.mark.parametrize("argv", sorted(DIGESTS), ids=" ".join)
def test_cli_output_matches_digest(argv):
    code, out, err = _run(list(argv))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[argv]


def test_every_golden_file_has_a_case():
    names = {path.stem for path in GOLDEN.iterdir()}
    assert names == set(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        code, out, err = _run(argv)
        if code or err:
            sys.exit(f"{name}: exit {code}, stderr {err!r}")
        (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8")
    print(f"wrote {len(CASES)} cases to {GOLDEN}", file=sys.stderr)
