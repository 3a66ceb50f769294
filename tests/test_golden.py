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
so they check the packed route against the route it replaced.
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
    ("series-dump", "--m", "1", "--trunc", "60", "--kind", "gf"):
        "44a6ec8280a0e4a96adaebad8869e58c085bea6d44757283f557844fbf6732a8",
    ("series-dump", "--m", "2", "--trunc", "60", "--kind", "gf"):
        "18cd4765f9082057d0988820765554f406a1680f9c7bcb792609ef57e468483e",
    ("series-dump", "--m", "5", "--trunc", "60", "--kind", "gf"):
        "27af29c38a5c7470bbd8e0dbfe67953f95ad4761daee54c5ba117e32afbd677f",
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
