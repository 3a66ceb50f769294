"""The CLI's machine-readable output, byte for byte, against committed files.

Each case is one invocation; its stdout lives in ``tests/golden/<name>.out``,
and it must exit 0 with nothing on stderr.  The cases cover
``table`` in every format and every ``series-dump`` kind at m 1..3, at
the smallest size and a small one (the smallest ``total-gf`` series at
m = 3 is empty), plus ``oracle`` and ``verify``.

Regenerate the files only when a change of output is intended:

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import contextlib
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


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert _run(CASES[name]) == (0, expected, "")


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
