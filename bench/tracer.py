"""Spans around the public functions of staircomp, installed from outside.

``Tracer.install`` wraps the public functions of ``series`` (the TriSeries
methods and the module helpers), ``determinants``, ``genfun`` and
``oracle``, and ``cli.main``.  A wrapper replaces the original under every
name a caller can look it up by: module attributes, the package's
re-exports and names imported into other modules (``genfun`` and ``cli``
import determinant functions by name).  Otherwise the time of such a call
would land silently in its caller's self time.

A span's self time is its duration minus the durations of its child
spans.  Spans are aggregated in memory per name and per caller -> callee
edge; counts are taken at the same boundaries.  The work of taking a
count is timed and removed from the enclosing span's self time.  Spans
record only while ``active`` is true, so the harness's own calls between
operations are not traced.
"""

from __future__ import annotations

import inspect
from collections import Counter
from math import comb
from time import perf_counter

MODULES = ("series", "determinants", "genfun", "oracle", "cli")
CLI_SPANS = ("main",)  # the cmd_* handlers are reached only through main

SERIES_DUNDERS = {
    "__mul__": "mul", "__rmul__": "mul", "__pow__": "pow",
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__neg__": "neg", "__eq__": "eq",
}


class Tracer:
    def __init__(self):
        self.active = False
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: Counter = Counter()  # (caller, callee) -> calls
        self.counts: Counter = Counter()
        self.max_coeff_bits = 0
        self.bookkeeping_s = 0.0
        self._stack: list[list] = []  # open spans as [name, child_s]
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        """``fn`` recording one span named ``name`` per call while active."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        count = COUNTS.get(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            caller = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                self.edges[caller, name] += 1
                if stack:
                    stack[-1][1] += dt
            if count is not None:
                b0 = perf_counter()
                count(self, fn, args, kwargs, result)
                spent = perf_counter() - b0
                self.bookkeeping_s += spent
                if stack:
                    stack[-1][1] += spent
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap the package's layers under every name they are bound to."""
        modules = [getattr(package, name) for name in MODULES]
        wrappers: dict[int, object] = {}  # id(original) -> wrapper
        for layer, module in zip(MODULES, modules):
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")
                        and (layer != "cli" or attr in CLI_SPANS)):
                    wrappers[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        series_cls = package.series.TriSeries
        for attr, fn in list(vars(series_cls).items()):
            if not inspect.isfunction(fn) or (attr.startswith("_") and attr not in SERIES_DUNDERS):
                continue
            if id(fn) not in wrappers:  # __rmul__ is __mul__: one wrapper for both
                wrappers[id(fn)] = self.wrap(f"series.{SERIES_DUNDERS.get(attr, attr)}", fn)
            self._bind(series_cls, attr, wrappers[id(fn)])
        for module in [package, *modules]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._bind(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _bind(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def summary(self) -> dict:
        return {
            "spans": {k: {"calls": c, "total_s": t, "self_s": s}
                      for k, (c, t, s) in sorted(self.stats.items()) if c},
            "edges": [{"caller": a, "callee": b, "calls": n}
                      for (a, b), n in sorted(self.edges.items(), key=str)],
            "counts": dict(self.counts),
            "max_coeff_bits": self.max_coeff_bits,
            "bookkeeping_s": self.bookkeeping_s,
        }


# -- counts at the layer boundaries ----------------------------------------------
# Term counts read the series' term map; a series without one is counted
# through the public terms() instead.


def _terms(series):
    terms = getattr(series, "_terms", None)
    return terms if terms is not None else dict(series.terms())


def _coeff_bits(tracer, series) -> None:
    bits = max((abs(c).bit_length() for c in _terms(series).values()), default=0)
    tracer.max_coeff_bits = max(tracer.max_coeff_bits, bits)


def _count_mul(tracer, fn, args, kwargs, result) -> None:
    """Output terms, and the schoolbook coefficient products computed from
    the operands' x-slice sizes: sum of |A_i| * |B_j| over i + j <= trunc."""
    if result is NotImplemented:
        return
    n = result.trunc
    left, right = (
        Counter({0: 1}) if isinstance(s, int) else Counter(a for a, _b, _s in _terms(s))
        for s in args
    )
    upto = [0] * (n + 1)  # upto[j]: right terms of x-degree <= j
    running = 0
    for j in range(n + 1):
        running += right.get(j, 0)
        upto[j] = running
    tracer.counts["series.mul.products"] += sum(
        size * upto[n - i] for i, size in left.items() if i <= n
    )
    tracer.counts["series.mul.terms_out"] += len(_terms(result))
    _coeff_bits(tracer, result)


def _count_bits(tracer, fn, args, kwargs, result) -> None:
    _coeff_bits(tracer, result)


def _count_histogram(tracer, fn, args, kwargs, result) -> None:
    a = inspect.signature(fn).bind(*args, **kwargs).args[0]
    tracer.counts["oracle.compositions"] += 2 ** (a - 1)


def _count_total(tracer, fn, args, kwargs, result) -> None:
    n, parts = inspect.signature(fn).bind(*args, **kwargs).args[:2]
    tracer.counts["oracle.compositions"] += comb(n - 1, parts - 1)


COUNTS = {
    "series.mul": _count_mul,
    "series.inverse": _count_bits,
    "series.pow": _count_bits,
    "oracle.staircase_histogram": _count_histogram,
    "oracle.total_staircases": _count_total,
}
