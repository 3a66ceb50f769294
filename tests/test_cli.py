"""Command-line surface: formats, exit codes, determinism."""

import csv
import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staircomp import cli, determinants, genfun, oracle, verify
from staircomp.series import TriSeries, monomial


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_contains_the_expected_row(capsys):
    code, out, _ = run(capsys, "table", "--m", "2", "--max-n", "3", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 0
    assert rows[0] == ["a", "b", "s", "count"]
    assert ["3", "2", "1", "1"] in rows


def test_table_for_unit_pattern(capsys):
    code, out, _ = run(capsys, "table", "--m", "1", "--max-n", "2", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert code == 0
    assert rows == [["1", "1", "1", "1"], ["2", "1", "1", "1"], ["2", "2", "2", "1"]]


def test_table_with_an_unreachable_pattern_has_no_occurrences(capsys):
    code, out, _ = run(capsys, "table", "--m", "5", "--max-n", "3", "--format", "json")
    assert code == 0
    assert all(row["s"] == 0 for row in json.loads(out))


def test_json_and_csv_agree(capsys):
    _, json_out, _ = run(capsys, "table", "--m", "2", "--max-n", "6", "--format", "json")
    _, csv_out, _ = run(capsys, "table", "--m", "2", "--max-n", "6", "--format", "csv")
    from_json = {
        (row["a"], row["b"], row["s"], int(row["count"]))
        for row in json.loads(json_out)
    }
    from_csv = {
        (int(a), int(b), int(s), int(c))
        for a, b, s, c in list(csv.reader(io.StringIO(csv_out)))[1:]
    }
    assert from_json == from_csv


def test_output_is_deterministic(capsys):
    first = run(capsys, "table", "--m", "3", "--max-n", "8", "--format", "json")
    second = run(capsys, "table", "--m", "3", "--max-n", "8", "--format", "json")
    assert first == second


def test_table_writes_to_a_file(capsys, tmp_path):
    target = tmp_path / "table.csv"
    code, out, _ = run(
        capsys, "table", "--m", "2", "--max-n", "4",
        "--format", "csv", "--output", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("a,b,s,count\n")


def test_unwritable_output_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "table.csv"
    code, out, err = run(
        capsys, "table", "--m", "2", "--max-n", "5", "--output", str(target),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write ")
    assert err.count("\n") == 1


class _FullStdout:
    """A stdout whose writes, or only its flushes, fail as on a full disk."""

    def __init__(self, failing):
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return len(text)

    def flush(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


COMMANDS = {
    "table": ("table", "--m", "2", "--max-n", "5"),
    "verify": ("verify", "--m", "2", "--max-n", "5"),
    "oracle": ("oracle", "--n", "5", "--m", "2"),
    "corollary": ("corollary", "--n", "5", "--parts", "2", "--m", "2", "--check"),
    "series-dump": ("series-dump", "--m", "2", "--trunc", "5"),
}


@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
def test_unwritable_stdout_is_a_usage_error(capsys, monkeypatch, argv, failing):
    monkeypatch.setattr(sys, "stdout", _FullStdout(failing))
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err == "error: cannot write stdout: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    *COMMANDS.values(),
    ("table", "--m", "2", "--max-n", "5", "--output", "/dev/full"),
], ids=[*COMMANDS, "table-output"])
def test_a_full_device_gives_one_error_line(argv):
    # In a real interpreter: nothing more is reported at exit.
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "staircomp.cli", *argv],
                              stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    target = "/dev/full" if "--output" in argv else "stdout"
    assert done.returncode == 2
    assert done.stderr == f"error: cannot write {target}: No space left on device\n"


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("bad", [
    ("table", "--m", "0", "--max-n", "5"),
    ("verify", "--m", "2"),
    ("nonsense",),
], ids=["bad-value", "missing-option", "unknown-command"])
def test_the_shared_parser_survives_a_usage_error(capsys, bad):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(list(bad))
    assert exit_info.value.code == 2
    capsys.readouterr()
    golden = Path(__file__).parent / "golden"
    assert run(capsys, "verify", "--m", "2", "--max-n", "6") == (
        0, (golden / "verify-m2-n6.out").read_text(encoding="utf-8"), ""
    )
    assert run(capsys, "table", "--m", "2", "--max-n", "7", "--format", "csv") == (
        0, (golden / "table-m2-n7-csv.out").read_text(encoding="utf-8"), ""
    )


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--m", "2", "--max-n", "8")
    assert code == 0
    assert out.count("PASS") == 5
    assert "FAIL" not in out


def test_verify_for_unit_pattern(capsys):
    code, out, _ = run(capsys, "verify", "--m", "1", "--max-n", "8")
    assert code == 0
    assert "5/5 checks passed" in out


def _extra_histogram_count(real):
    def fake(a, m, cap=oracle.MAX_ENUM_N):
        hist = real(a, m, cap=cap)
        return oracle.Histogram(a, {**hist.counts, (a, 0): hist.count(a, 0) + 1})
    return fake


def _extra_term(real, key):
    return lambda m, trunc: real(m, trunc) + monomial(*key, 1, trunc)


def _recurrence_off_by_one(real):
    return lambda before, start: (entry + 1 for entry in real(before, start))


# For each check: the layer function it depends on, a faulty stand-in, and
# the first difference the report must name for each check that fails.  The
# Cramer route reads its determinants from the recurrence sweep, so a
# faulty sweep fails it too, with a divisor that is not a unit.
MISMATCHES = {
    "gf": (oracle, "staircase_histogram", _extra_histogram_count,
           {"closed form vs enumeration": "(a=1, b=1, s=0): series 1 vs enumeration 2"}),
    "cramer": (genfun, "staircase_gf_cramer", lambda real: _extra_term(real, (3, 2, 1)),
               {"Cramer path vs closed form": "(a=3, b=2, s=1): closed 1 vs Cramer 2"}),
    "blocks": (determinants, "_recurrence", _recurrence_off_by_one, {
        "Cramer path vs closed form":
            "NonUnitError: series is invertible only when its x^0 slice is the constant +1 or -1",
        "block determinant recurrences vs closed forms":
            "top block size 0 (a=0, b=0, s=0): closed 0 vs recurrence 1",
    }),
    "totals": (genfun, "total_staircases", lambda real: lambda n, parts, m: 0,
               {"window totals: formula vs enumeration": "(n=3, parts=2): formula 0 vs enumeration 1"}),
    "marginals": (genfun, "gf_at_q1", lambda real: _extra_term(real, (2, 1, 0)),
                  {"q = 1 marginals": "(a=2, b=1, s=0): marginal 2 vs binomial 1"}),
}


@pytest.mark.parametrize(
    "module, attr, make_fake, failures", MISMATCHES.values(), ids=MISMATCHES.keys()
)
def test_verify_reports_mismatches(capsys, monkeypatch, module, attr, make_fake, failures):
    monkeypatch.setattr(module, attr, make_fake(getattr(module, attr)))
    code, out, _ = run(capsys, "verify", "--m", "2", "--max-n", "6")
    assert code == 1
    # The report names each failing check, the first offending point and both values.
    assert [line for line in out.splitlines() if line.startswith("FAIL ")] == [
        f"FAIL {name}: {difference}" for name, difference in failures.items()
    ]
    assert f"{5 - len(failures)}/5 checks passed" in out


@pytest.mark.parametrize("key", [(2, 9, 0), (3, 1, 1)], ids=["b-above-a", "q-term"])
def test_marginal_check_sees_a_stray_term_at_any_b_or_s(monkeypatch, key):
    monkeypatch.setattr(genfun, "gf_at_q1", _extra_term(genfun.gf_at_q1, key))
    a, b, s = key
    assert verify.check_marginals(2, 6, 6) == f"(a={a}, b={b}, s={s}): marginal 1 vs binomial 0"


def test_block_check_finishes_for_a_huge_window():
    assert verify.check_block_dets(10**9, 3, 14, oracle.MAX_ENUM_N) is None


@pytest.mark.parametrize("family, first, seed", [("top", 0, 0), ("inner", -1, 1)],
                         ids=["top_block_det-top", "inner_block_det-inner"])
def test_block_check_reaches_size_trunc_plus_two(monkeypatch, family, first, seed):
    # A recurrence wrong at the last size checked, and nowhere else: the
    # family's sweep runs on to that size, where its entry is off by one.
    trunc = 6
    real = determinants._recurrence
    index = trunc + 2 - first

    def fake(before, start):
        entries = list(real(before, start))
        if before == seed:
            entries += entries[-1:] * (index + 1 - len(entries))
            entries[index] += 1
        return iter(entries)

    monkeypatch.setattr(determinants, "_recurrence", fake)
    assert verify.check_block_dets(50, 3, trunc) == (
        f"{family} block size {trunc + 2} (a=0, b=0, s=0): closed 1 vs recurrence 2"
    )


def test_block_check_sweeps_each_family_once(monkeypatch):
    sweeps, modes = [], []
    real_sweep = determinants._recurrence

    def counting_sweep(before, start):
        sweeps.append(before)
        return real_sweep(before, start)

    monkeypatch.setattr(determinants, "_recurrence", counting_sweep)
    for attr in ("top_block_det", "inner_block_det"):
        def recording(k, trunc, mode="closed", real=getattr(determinants, attr)):
            modes.append(mode)
            return real(k, trunc, mode)
        monkeypatch.setattr(determinants, attr, recording)
    assert verify.check_block_dets(60, 0, 60) is None
    assert sweeps == [0, 1]
    # Top sizes 0..61 and inner sizes -1..61, each once, closed only.
    assert len(modes) == 62 + 63 and set(modes) == {"closed"}


def test_verify_enumerates_each_total_once_per_run(capsys, builds):
    first = run(capsys, "verify", "--m", "3", "--max-n", "9")
    assert first[0] == 0
    assert [n for n, _ in builds] == list(range(1, 10))
    # No census survives the run: an identical second run enumerates anew.
    assert run(capsys, "verify", "--m", "3", "--max-n", "9") == first
    assert [n for n, _ in builds] == list(range(1, 10)) * 2
    assert oracle._memo is None


def test_each_enumeration_check_alone_enumerates_each_total_once(builds):
    for check in (verify.check_gf_vs_oracle, verify.check_totals):
        builds.clear()
        assert check(2, 8, 14) is None
        assert [n for n, _ in builds] == list(range(1, 9))


def test_verify_rejects_totals_beyond_the_cap(capsys):
    code, _, err = run(capsys, "verify", "--m", "2", "--max-n", "30")
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize(
    "argv, out_before",
    [
        (("oracle", "--n", "30", "--m", "2"), ""),
        (("corollary", "--n", "30", "--parts", "3", "--m", "2", "--check"), "756\n"),
    ],
    ids=["oracle", "corollary-check"],
)
def test_enumeration_beyond_the_cap_is_a_usage_error(capsys, argv, out_before):
    code, out, err = run(capsys, *argv)
    assert code == 2
    # The formula's value is printed before the enumeration is attempted.
    assert out == out_before
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "cap" in err


def test_corollary_prints_the_total(capsys):
    code, out, _ = run(capsys, "corollary", "--n", "4", "--parts", "2", "--m", "2")
    assert code == 0
    assert out == "2\n"


def test_corollary_clamps(capsys):
    code, out, _ = run(capsys, "corollary", "--n", "3", "--parts", "1", "--m", "3")
    assert code == 0
    assert out == "0\n"


def test_corollary_check_agrees(capsys):
    code, out, _ = run(
        capsys, "corollary", "--n", "13", "--parts", "5", "--m", "3", "--check"
    )
    assert code == 0
    assert out == "378\noracle 378\n"


def test_corollary_check_fails_on_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(cli.genfun, "total_staircases", lambda n, parts, m: 99)
    code, out, err = run(
        capsys, "corollary", "--n", "6", "--parts", "2", "--m", "2", "--check"
    )
    assert code == 1
    assert "MISMATCH" in err


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "3", "--m", "2", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 0
    assert rows == [
        ["b", "s", "count"],
        ["1", "0", "1"],
        ["2", "0", "1"],
        ["2", "1", "1"],
        ["3", "0", "1"],
    ]


def test_series_dump_schema(capsys):
    code, out, _ = run(capsys, "series-dump", "--m", "1", "--trunc", "4")
    payload = json.loads(out)
    assert code == 0
    assert payload["trunc"] == 4
    keys = [(t["a"], t["b"], t["s"]) for t in payload["terms"]]
    assert keys == sorted(keys)
    assert {"a": 0, "b": 0, "s": 0, "c": "1"} in payload["terms"]
    assert all(isinstance(t["c"], str) for t in payload["terms"])


def test_series_dump_other_kinds(capsys):
    for kind in ("gf-q1", "total-gf", "numerator-det", "denominator-det"):
        code, out, _ = run(capsys, "series-dump", "--m", "2", "--trunc", "6", "--kind", kind)
        assert code == 0
        assert json.loads(out)["trunc"] == 6


SERIES_KINDS = {
    "gf": genfun.staircase_gf,
    "gf-q1": genfun.gf_at_q1,
    "total-gf": genfun.total_staircases_gf,
    "numerator-det": determinants.numerator_det,
    "denominator-det": determinants.denominator_det,
}


@pytest.mark.parametrize("kind", sorted(SERIES_KINDS))
def test_series_dump_round_trips(capsys, kind):
    for m, trunc in ((1, 1), (3, 2), (3, 12), (5, 9)):
        code, out, _ = run(capsys, "series-dump", "--m", str(m), "--trunc", str(trunc), "--kind", kind)
        assert code == 0
        assert TriSeries.from_json_obj(json.loads(out)) == SERIES_KINDS[kind](m, trunc)


def _json_rows(rows, header):
    payload = [{**dict(zip(header[:-1], row[:-1])), header[-1]: str(row[-1])} for row in rows]
    return json.dumps(payload, indent=2) + "\n"


def _csv_rows(rows, header):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _assert_writers_match_the_stdlib(series):
    obj = series.to_json_obj()
    assert cli._render_series(obj) == json.dumps(obj, indent=2) + "\n"
    header = ("a", "b", "s", "count")
    rows = [(a, b, s, c) for (a, b, s), c in series.terms()]
    assert cli._render_rows(rows, header, "json") == _json_rows(rows, header)
    assert cli._render_rows(rows, header, "csv") == _csv_rows(rows, header)
    rows = [(b, s, c) for (_a, b, s), c in series.terms()]
    assert cli._render_rows(rows, header[1:], "json") == _json_rows(rows, header[1:])
    assert cli._render_rows(rows, header[1:], "csv") == _csv_rows(rows, header[1:])


@pytest.mark.parametrize("kind", sorted(SERIES_KINDS))
@pytest.mark.parametrize("m, trunc", [(1, 1), (3, 1), (2, 7), (4, 16)])
def test_writers_match_json_and_csv_modules(kind, m, trunc):
    series = SERIES_KINDS[kind](m, trunc)
    if (kind, m, trunc) == ("total-gf", 3, 1):
        assert not series  # the empty list
    if (kind, trunc) == ("numerator-det", 16):
        assert any(c < 0 for _key, c in series.terms())
    _assert_writers_match_the_stdlib(series)


@given(
    st.integers(1, 5),
    st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 12), st.integers(0, 12)),
        st.integers(-(10 ** 30), 10 ** 30),
        max_size=8,
    ),
)
@settings(max_examples=60)
def test_writers_match_json_and_csv_modules_on_random_series(trunc, terms):
    _assert_writers_match_the_stdlib(TriSeries(trunc, terms))


def test_usage_errors_exit_with_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--m", "0", "--max-n", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--max-n", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("option, text", [("--m", "abc"), ("--max-n", "1.5")])
def test_a_non_integer_size_is_a_usage_error(capsys, option, text):
    argv = {"--m": "2", "--max-n": "3", option: text}
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", *(word for pair in argv.items() for word in pair)])
    assert exc.value.code == 2
    assert f"expected an integer, got {text!r}" in capsys.readouterr().err


def test_truncation_below_the_verify_range_runs_the_checks(capsys):
    code, out, err = run(capsys, "verify", "--m", "2", "--max-n", "10", "--trunc", "5")
    assert (code, err) == (0, "")
    assert out.endswith("\n5/5 checks passed (m=2, max_n=10, trunc=5)\n")


def test_enumeration_check_builds_the_series_to_the_largest_total(monkeypatch):
    orders = []
    real = genfun.staircase_gf

    def recording(m, trunc):
        orders.append((m, trunc))
        return real(m, trunc)

    monkeypatch.setattr(genfun, "staircase_gf", recording)
    for trunc in (3, 9, 20):
        orders.clear()
        assert verify.check_gf_vs_oracle(2, 9, trunc) is None
        assert orders == [(2, 9)]


def test_table_takes_no_truncation_order(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--m", "2", "--max-n", "5", "--trunc", "9"])
    assert exc.value.code == 2
    assert "--trunc" in capsys.readouterr().err


@pytest.mark.parametrize("m", [1, 2, 3])
def test_table_rows_are_the_series_read_to_max_n(capsys, m):
    # F's coefficients of x^a do not depend on the order the series is cut
    # at, so the table at --max-n n is the series at any order >= n read to n.
    gf = genfun.staircase_gf(m, 30)
    header = ("a", "b", "s", "count")
    for max_n in range(1, 26):
        want = [(a, b, s, c) for (a, b, s), c in gf.terms() if 1 <= a <= max_n]
        for fmt, render in (("json", _json_rows), ("csv", _csv_rows)):
            code, out, _ = run(capsys, "table", "--m", str(m), "--max-n", str(max_n), "--format", fmt)
            assert code == 0
            assert out == render(want, header)


def test_verify_refuses_beyond_the_cap_with_the_oracles_error(capsys, builds):
    code, out, err = run(capsys, "verify", "--m", "2", "--max-n", "30")
    assert (code, out) == (2, "")
    assert builds == []  # refused before any enumeration
    assert err == run(capsys, "oracle", "--n", "30", "--m", "2")[2]


@pytest.mark.parametrize("kind", sorted(SERIES_KINDS))
def test_series_dump_at_a_huge_window_builds_only_the_kept_terms(capsys, kind):
    # At order 8 no window of length >= 12 fits, so m = 10**9 prints what
    # m = 12 does; building every term of m = 10**9 would never finish.
    huge = run(capsys, "series-dump", "--m", str(10 ** 9), "--trunc", "8", "--kind", kind)
    assert huge == run(capsys, "series-dump", "--m", "12", "--trunc", "8", "--kind", kind)
    assert huge[0] == 0
