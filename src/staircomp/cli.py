"""Command-line interface: coefficient tables, verification runs, totals.

Exit codes: 0 on success, 1 when a verification detects a mismatch, 2 for
usage errors.  Usage errors include an output path or a standard output
that cannot be written and a total beyond the enumeration cap
(``--enum-cap``).  The json and csv formats are stable for machine
parsing; the text format is aligned for humans and makes no stability
promise.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import determinants, genfun, oracle, verify
from .series import DEFAULT_TRUNC, DigitSplitError, NonUnitError

VERIFY_TRUNC = 14

# series-dump --kind -> (module, name) of the function that computes it;
# the first kind is the default.  The function is looked up on each call,
# as in ``verify``, so that a rebinding of it (a test double, a tracer)
# reaches the dump too.
SERIES_KINDS = {
    "gf": (genfun, "staircase_gf"),
    "gf-q1": (genfun, "gf_at_q1"),
    "total-gf": (genfun, "total_staircases_gf"),
    "numerator-det": (determinants, "numerator_det"),
    "denominator-det": (determinants, "denominator_det"),
}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: ``parse_args`` leaves it
    unchanged, so every ``main`` call can share it."""
    parser = argparse.ArgumentParser(
        prog="staircomp",
        description="Exact staircase-pattern statistics for integer compositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser(
        "table",
        help="emit nonzero coefficients (a, b, s, count) of the master series",
    )
    table.add_argument("--m", type=_positive_int, required=True, help="staircase window length")
    table.add_argument("--max-n", type=_positive_int, required=True, help="largest total a to include")
    table.add_argument("--format", choices=("json", "csv", "text"), default="text")
    table.add_argument("--output", help="write to this path instead of stdout")
    table.set_defaults(run=cmd_table)

    check = sub.add_parser(
        "verify",
        help="run the cross-checks between formulas and brute-force enumeration",
    )
    check.add_argument("--m", type=_positive_int, required=True)
    check.add_argument("--max-n", type=_positive_int, required=True, help="largest total covered by enumeration")
    check.add_argument("--trunc", type=_positive_int, help="order of the series-only checks (default max(14, max-n))")
    check.add_argument("--enum-cap", type=_positive_int, default=oracle.MAX_ENUM_N,
                       help="enumeration cap override")
    check.set_defaults(run=cmd_verify)

    corollary = sub.add_parser(
        "corollary",
        help="total staircase windows over all compositions of n with a given part count",
    )
    corollary.add_argument("--n", type=_positive_int, required=True)
    corollary.add_argument("--parts", type=_positive_int, required=True)
    corollary.add_argument("--m", type=_positive_int, required=True)
    corollary.add_argument("--check", action="store_true",
                           help="also enumerate and fail on disagreement")
    corollary.add_argument("--enum-cap", type=_positive_int, default=oracle.MAX_ENUM_N)
    corollary.set_defaults(run=cmd_corollary)

    orc = sub.add_parser(
        "oracle",
        help="brute-force histogram (b, s, count) for the compositions of n",
    )
    orc.add_argument("--n", type=_positive_int, required=True)
    orc.add_argument("--m", type=_positive_int, required=True)
    orc.add_argument("--format", choices=("json", "csv", "text"), default="text")
    orc.add_argument("--output", help="write to this path instead of stdout")
    orc.add_argument("--enum-cap", type=_positive_int, default=oracle.MAX_ENUM_N)
    orc.set_defaults(run=cmd_oracle)

    dump = sub.add_parser(
        "series-dump",
        help="serialize a computed series as JSON",
    )
    dump.add_argument("--m", type=_positive_int, required=True)
    dump.add_argument("--trunc", type=_positive_int, default=DEFAULT_TRUNC)
    dump.add_argument("--kind", choices=tuple(SERIES_KINDS), default=next(iter(SERIES_KINDS)))
    dump.add_argument("--output", help="write to this path instead of stdout")
    dump.set_defaults(run=cmd_series_dump)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            return args.run(args)
        finally:
            sys.stdout.flush()  # a full or closed stdout fails here, not at exit
    except oracle.EnumerationLimitError as exc:
        message = exc
    except OSError as exc:
        # Only table, oracle and series-dump take --output, and with it they
        # write nothing to stdout, so a write error names that file then.
        target = exc.filename or getattr(args, "output", None) or "stdout"
        if target == "stdout":
            _discard_stdout()
        message = f"cannot write {target}: {exc.strerror or exc}"
    print(f"error: {message}", file=sys.stderr)
    return 2


def _discard_stdout() -> None:
    """Point stdout's file descriptor, if it has one, at the null device:
    the interpreter's exit-time flush of the text that could not be
    written then succeeds instead of reporting the error a second time."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


# -- commands -----------------------------------------------------------------


def cmd_table(args: argparse.Namespace) -> int:
    gf = genfun.staircase_gf(args.m, args.max_n)
    rows = [(a, b, s, c) for (a, b, s), c in gf.terms() if a >= 1]
    _emit(_render_rows(rows, ("a", "b", "s", "count"), args.format), args.output)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    # Before any work: the oracle would raise only at total cap + 1, after
    # enumerating every total up to the cap.
    oracle._check_cap(args.max_n, args.enum_cap)
    trunc = args.trunc or max(VERIFY_TRUNC, args.max_n)
    failures = 0
    # One census per total for the whole run: the checks share it.
    with oracle.shared_census():
        for name, check in verify.CHECKS:
            try:
                problem = check(args.m, args.max_n, trunc, args.enum_cap)
            except (NonUnitError, DigitSplitError) as exc:  # a faulty divisor or sign
                problem = f"{type(exc).__name__}: {exc}"
            if problem is None:
                print(f"PASS {name}")
            else:
                failures += 1
                print(f"FAIL {name}: {problem}")
    total = len(verify.CHECKS)
    print(f"{total - failures}/{total} checks passed (m={args.m}, max_n={args.max_n}, trunc={trunc})")
    return 1 if failures else 0


def cmd_corollary(args: argparse.Namespace) -> int:
    value = genfun.total_staircases(args.n, args.parts, args.m)
    print(value)
    if not args.check:
        return 0
    reference = oracle.total_staircases(args.n, args.parts, args.m, cap=args.enum_cap)
    print(f"oracle {reference}")
    if reference != value:
        print(
            f"MISMATCH formula {value} != oracle {reference} "
            f"at n={args.n}, parts={args.parts}, m={args.m}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    hist = oracle.staircase_histogram(args.n, args.m, cap=args.enum_cap)
    rows = [(b, s, c) for (b, s), c in sorted(hist.counts.items())]
    _emit(_render_rows(rows, ("b", "s", "count"), args.format), args.output)
    return 0


def cmd_series_dump(args: argparse.Namespace) -> int:
    module, name = SERIES_KINDS[args.kind]
    series = getattr(module, name)(args.m, args.trunc)
    _emit(_render_series(series.to_json_obj()), args.output)
    return 0


# -- output helpers -----------------------------------------------------------


def _render_series(obj: dict) -> str:
    """What ``json.dumps(obj, indent=2)`` writes for a ``TriSeries.to_json_obj()``
    dict, plus a newline."""
    terms = ",\n".join(
        f'    {{\n      "a": {t["a"]},\n      "b": {t["b"]},\n'
        f'      "s": {t["s"]},\n      "c": "{t["c"]}"\n    }}'
        for t in obj["terms"]
    )
    body = f"[\n{terms}\n  ]" if terms else "[]"
    return f'{{\n  "trunc": {obj["trunc"]},\n  "terms": {body}\n}}\n'


def _render_rows(rows, header, fmt):
    """Rows of ints as json (the last column as a decimal string), csv or
    aligned text.  json is ``json.dumps(..., indent=2)`` of one dict per
    row and csv is what the ``csv`` module writes, byte for byte.  A json
    or csv row is one call of a format bound once per table."""
    if fmt == "json":
        if not rows:
            return "[]\n"
        fields = [f'    "{name}": {{}}' for name in header[:-1]]
        fields.append(f'    "{header[-1]}": "{{}}"')
        record = ("  {{\n" + ",\n".join(fields) + "\n  }}").format
        return "[\n" + ",\n".join([record(*row) for row in rows]) + "\n]\n"
    if fmt == "csv":
        line = (",".join(["{}"] * len(header)) + "\n").format
        return ",".join(header) + "\n" + "".join([line(*row) for row in rows])
    widths = [
        max(len(name), *(len(str(row[i])) for row in rows)) if rows else len(name)
        for i, name in enumerate(header)
    ]
    lines = ["  ".join(name.rjust(w) for name, w in zip(header, widths))]
    for row in rows:
        lines.append("  ".join(str(v).rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    sys.exit(main())
