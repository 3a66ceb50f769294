"""Independent reference values and output checkers for the benchmark.

Nothing here imports staircomp: every expected coefficient is computed
by a method of its own, so a fault in the program cannot hide in its
reference.

- The master series F comes from a transfer-matrix count over the
  opening-run length L (the length of the longest suffix of the parts
  that is a prefix of the staircase 1+, 2+, ..., m+).  Appending part p
  sets L' = min(L, p - 1) + 1; when L' reaches m one window completes and
  L' drops to m - 1 (to 0 when m = 1).  Parts p >= m all act alike, so
  they are summed through prefix sums instead of one by one.
- The window totals use the paper's closed form
  (l - m + 1) * C(n - 1 - C(m, 2), l - 1); the q = 1 marginal is
  C(a - 1, b - 1).
- The block determinants are the paper's closed forms expanded term by
  term with 1/(1-x)^g = sum_i C(i + g - 1, g - 1) x^i.

Each checker takes one operation and its outcome and returns None when
the outcome is right, or a one-line description of the first problem.
"""

from __future__ import annotations

import csv
import io
import json
from functools import lru_cache
from math import comb

Terms = dict[tuple[int, int, int], int]


# -- the master series by transfer matrix --------------------------------------


@lru_cache(maxsize=None)
def master_series(m: int, trunc: int) -> Terms:
    """{(a, b, s): count} of compositions of a <= trunc with b parts and
    s windows of length m; a = 0 is the empty composition.

    The DP keeps, for each total a and state L, the whole (b, s) table
    packed into one int: digit (b, s) sits at bit (b * (trunc + 1) + s) * W,
    with W wide enough that no digit overflows into the next.
    """
    if m < 1 or trunc < 0:
        raise ValueError("need m >= 1 and trunc >= 0")
    stride = trunc + 1
    width = 8 * ((trunc + 9) // 8)  # every count is below 2^(trunc + 1)
    part = stride * width  # one more part: b -> b + 1
    window = width  # one more window: s -> s + 1
    full = m - 1 if m > 1 else 0  # state after a completed window
    # D[a][L]: compositions of a ending in state L; G[a][L] = sum of D[0..a][L].
    D = [[1] + [0] * (m - 1)]
    G = [D[0][:]]
    for a in range(1, trunc + 1):
        row = [0] * m
        for p in range(1, min(m - 1, a) + 1):
            for L, v in enumerate(D[a - p]):
                if v:
                    row[min(L, p - 1) + 1] += v
        if a >= m:  # every part p >= m: L' = L + 1
            for L, v in enumerate(G[a - m]):
                if not v:
                    continue
                if L + 1 == m:
                    row[full] += v << window
                else:
                    row[L + 1] += v
        row = [v << part for v in row]
        D.append(row)
        G.append([g + d for g, d in zip(G[a - 1], row)])

    out: Terms = {}
    nbytes = width // 8
    for a, row in enumerate(D):
        packed = sum(row).to_bytes((stride * stride * width) // 8 + 1, "little")
        for b in range(a + 1):
            for s in range(b + 1):
                off = (b * stride + s) * nbytes
                c = int.from_bytes(packed[off:off + nbytes], "little")
                if c:
                    out[a, b, s] = c
    return out


def marginal_series(m: int, trunc: int) -> Terms:
    """F at q = 1: C(a - 1, b - 1) compositions of a with b parts."""
    out: Terms = {(0, 0, 0): 1}
    for a in range(1, trunc + 1):
        for b in range(1, a + 1):
            out[a, b, 0] = comb(a - 1, b - 1)
    return out


def window_total(n: int, parts: int, m: int) -> int:
    """The paper's closed total over all compositions of n with `parts` parts."""
    top = n - 1 - comb(m, 2)
    if parts < m or top < parts - 1:
        return 0
    return (parts - m + 1) * comb(top, parts - 1)


def totals_series(m: int, trunc: int) -> Terms:
    out: Terms = {}
    for n in range(1, trunc + 1):
        for parts in range(1, n + 1):
            c = window_total(n, parts, m)
            if c:
                out[n, parts, 0] = c
    return out


# -- block determinants by binomial expansion ----------------------------------
# An atom (c, e, j, s, g) stands for c * x^e y^j q^s / (1-x)^g.


def _expand(atoms, trunc: int) -> Terms:
    out: Terms = {}
    for c, e, j, s, g in atoms:
        for a in range(e, trunc + 1):
            coeff = c * (comb(a - e + g - 1, g - 1) if g else int(a == e))
            if coeff:
                out[a, j, s] = out.get((a, j, s), 0) + coeff
    return {k: v for k, v in out.items() if v}


def _top_atoms(k: int):
    """sum_{j<k} x^(kj - C(j,2)) (y/(1-x))^j."""
    return [(1, k * j - comb(j, 2), j, 0, j) for j in range(k)]


def _inner_atoms(k: int):
    """x^C(k+2,2) (y/(1-x))^(k+1) + (1 - xy/(1-x)) * sum_{j<=k} x^f_j (y/(1-x))^j
    with f_j = (k+1)j - C(j,2)."""
    atoms = [(1, comb(k + 2, 2), k + 1, 0, k + 1)]
    for j in range(k + 1):
        f = (k + 1) * j - comb(j, 2)
        atoms.append((1, f, j, 0, j))
        atoms.append((-1, f + 1, j + 1, 0, j + 1))
    return atoms


def _with_marker(m: int, lead, tail):
    """lead - q x^m y / (1-x) * tail."""
    return list(lead) + [(-c, e + m, j + 1, s + 1, g + 1) for c, e, j, s, g in tail]


def top_block(k: int, trunc: int) -> Terms:
    return _expand(_top_atoms(k), trunc)


def inner_block(k: int, trunc: int) -> Terms:
    return _expand(_inner_atoms(k), trunc)


def numerator(m: int, trunc: int) -> Terms:
    return _expand(_with_marker(m, _top_atoms(m), _top_atoms(m - 1)), trunc)


def denominator(m: int, trunc: int) -> Terms:
    return _expand(_with_marker(m, _inner_atoms(m - 1), _inner_atoms(m - 2)), trunc)


# Library calls of the crosscheck workload -> reference for (args) alone;
# the keyword arguments pick a route, never the value.
LIBRARY_REFERENCE = {
    "staircase_gf_cramer": master_series,
    "top_block_det": top_block,
    "inner_block_det": inner_block,
    "numerator_det": numerator,
    "denominator_det": denominator,
}

SERIES_KINDS = {"gf": master_series, "gf-q1": marginal_series, "total-gf": totals_series}

VERIFY_CHECKS = 5
VERIFY_TRUNC = 14  # verify's default truncation floor: max(14, max-n)


# -- checkers ------------------------------------------------------------------


def check(op: dict, rc, out: str) -> str | None:
    """None if the outcome of `op` is right, else the first problem found."""
    if rc != 0:
        return f"exit status {rc!r}, expected 0"
    if "call" in op:
        return _check_library(op, out)
    cmd, opts = op["argv"][0], _options(op["argv"])
    if cmd == "table":
        m, max_n = int(opts["--m"]), int(opts["--max-n"])
        want = {k: c for k, c in master_series(m, max_n).items() if k[0] >= 1}
        return _check_table(out, opts["--format"], want)
    if cmd == "series-dump":
        m, trunc = int(opts["--m"]), int(opts["--trunc"])
        return _check_dump(out, trunc, SERIES_KINDS[opts["--kind"]](m, trunc))
    if cmd == "verify":
        return _check_verify(out, int(opts["--m"]), int(opts["--max-n"]))
    raise ValueError(f"no checker for command {cmd!r}")


def _options(argv) -> dict[str, str]:
    return dict(zip(argv[1::2], argv[2::2]))


def _compare(got: Terms, want: Terms) -> str | None:
    for key in sorted(set(got) | set(want)):
        g, w = got.get(key, 0), want.get(key, 0)
        if g != w:
            return f"coefficient {key}: got {g}, reference {w}"
    return None


def _collect(rows) -> tuple[Terms, str | None]:
    """Rows (a, b, s, count) in strictly increasing key order, no zero counts."""
    got: Terms = {}
    prev = None
    for a, b, s, c in rows:
        key = (int(a), int(b), int(s))
        if prev is not None and key <= prev:
            return got, f"row {key} out of order after {prev}"
        if int(c) == 0:
            return got, f"row {key} has a zero count"
        got[key] = int(c)
        prev = key
    return got, None


def _check_table(out: str, fmt: str, want: Terms) -> str | None:
    try:
        if fmt == "csv":
            rows = list(csv.reader(io.StringIO(out)))
            if not rows or rows[0] != ["a", "b", "s", "count"]:
                return "csv header missing"
            body = rows[1:]
            if any(len(r) != 4 for r in body):
                return "csv row without four fields"
        elif fmt == "json":
            body = [(r["a"], r["b"], r["s"], r["count"]) for r in json.loads(out)]
        else:
            raise ValueError(f"no checker for format {fmt!r}")
        got, problem = _collect(body)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable {fmt} table: {exc}"
    return problem or _compare(got, want)


def _check_dump(out: str, trunc: int, want: Terms) -> str | None:
    try:
        obj = json.loads(out)
        if obj["trunc"] != trunc:
            return f"trunc {obj['trunc']}, expected {trunc}"
        got, problem = _collect((t["a"], t["b"], t["s"], t["c"]) for t in obj["terms"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable series dump: {exc}"
    return problem or _compare(got, want)


def _check_verify(out: str, m: int, max_n: int) -> str | None:
    lines = out.splitlines()
    passes = sum(line.startswith("PASS ") for line in lines)
    if passes != VERIFY_CHECKS or len(lines) != VERIFY_CHECKS + 1:
        return f"{passes} PASS lines in {len(lines)} lines, expected {VERIFY_CHECKS} and a summary"
    trunc = max(VERIFY_TRUNC, max_n)
    summary = f"{VERIFY_CHECKS}/{VERIFY_CHECKS} checks passed (m={m}, max_n={max_n}, trunc={trunc})"
    if lines[-1] != summary:
        return f"summary {lines[-1]!r}, expected {summary!r}"
    return None


def _check_library(op: dict, out: str) -> str | None:
    args = op["args"]
    trunc = args[1]
    lines = out.splitlines()
    if not lines or lines[0] != f"trunc {trunc}":
        return f"series header {lines[:1]!r}, expected trunc {trunc}"
    try:
        got, problem = _collect(line.split() for line in lines[1:])
    except ValueError as exc:
        return f"unparsable series: {exc}"
    return problem or _compare(got, LIBRARY_REFERENCE[op["call"]](*args))

