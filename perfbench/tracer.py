"""
Outside-in tracer for the schubert package.

The tracer wraps public functions of the package from the outside and
rebinds every name under which a ``schubert.*`` module holds them.  The
rebinding matters: ``calc``, ``verify`` and ``cli`` import with
``from .x import f`` and ``chains`` looks ``bruhat_covers`` up as a module
global, so replacing only the defining module's attribute would silently
miss those calls.

Each wrapped call opens a span.  Generator functions are timed across their
``next()`` calls only, so the consumer's work between items is not charged
to them.  A span's self time is its duration minus the durations of its
direct child spans.  Spans are folded into per-name totals when they close;
nothing is written while tracing, and :meth:`Tracer.summary` returns the
totals at the end.  ``poly.monomial_key`` and ``poly.trim`` run millions of
times, so they are only counted and get no span.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# kinds of instrumentation
FUNC, GEN, COUNT = "func", "gen", "count"

COVERS = "perms.bruhat_covers"
WALK = "chains.increasing_chains"
TO_W0 = "chains.increasing_chains_to_w0"
RCGRAPHS = "rcgraphs.enumerate_rcgraphs"
SCHUBERT = "calc.schubert"
ENUMERATIONS = (TO_W0, RCGRAPHS)


def _mul_pairs(args, result, frame):
    a, b = args[0], args[1]
    return len(a) * (len(b) if hasattr(b, "items") else 1), 0


# (module, attribute, span name, kind, counter).  A counter maps
# (args, result, frame) to the two per-span work counts summed into
# "a" and "b"; for GEN spans the result is the number of items yielded.
SPECS = (
    ("perms", "bruhat_covers", COVERS, FUNC, lambda a, r, f: (len(r), 0)),
    ("perms", "bruhat_leq", "perms.bruhat_leq", FUNC, None),
    # a = chains yielded, b = bruhat_covers calls made under the walk
    ("chains", "increasing_chains", WALK, GEN, lambda a, r, f: (r, f[1])),
    ("chains", "increasing_chains_to_w0", TO_W0, GEN, lambda a, r, f: (r, 0)),
    ("rcgraphs", "enumerate_rcgraphs", RCGRAPHS, GEN, None),
    ("poly", "Poly.__mul__", "poly.mul", FUNC, _mul_pairs),
    ("poly", "normal_form", "poly.normal_form", FUNC,
     lambda a, r, f: (len(a[0]), len(r))),
    ("poly", "monomial_key", "poly.monomial_key", COUNT, None),
    ("poly", "trim", "poly.trim", COUNT, None),
    # a = hits: calls that start no enumeration child span
    ("calc", "schubert", SCHUBERT, FUNC, lambda a, r, f: (int(f[2] == 0), 0)),
    # a = products that vanish
    ("calc", "lr_coefficients", "calc.lr_coefficients", FUNC,
     lambda a, r, f: (int(len(r) == 0), 0)),
    ("calc", "expand_in_schubert_basis", "calc.expand_in_schubert_basis", FUNC,
     lambda a, r, f: (len(r), 0)),
    ("calc", "skew", "calc.skew", FUNC, None),
    ("calc", "pieri", "calc.pieri", FUNC, None),
    ("verify", "run_suite", "verify.run_suite", FUNC, None),
    ("cli", "main", "cli.main", FUNC, None),
)


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`."""

    def __init__(self) -> None:
        # name -> [calls, total_s, self_s, a, b]
        self.totals: dict[str, list] = {spec[2]: [0, 0.0, 0.0, 0, 0] for spec in SPECS}
        # open spans: [child_s, covers_children, enumeration_children]
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _close(self, name, dur, frame, counts):
        tot = self.totals[name]
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - frame[0]
        if counts is not None:
            tot[3] += counts[0]
            tot[4] += counts[1]
        if self._stack:
            parent = self._stack[-1]
            parent[0] += dur
            if name == COVERS:
                parent[1] += 1
            elif name in ENUMERATIONS:
                parent[2] += 1

    def _wrap_func(self, name, fn, counter):
        stack, close = self._stack, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, 0, 0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                close(name, perf_counter() - t0, frame, None)
                raise
            dur = perf_counter() - t0
            stack.pop()
            close(name, dur, frame, counter(args, result, frame) if counter else None)
            return result

        return traced

    def _wrap_gen(self, name, fn, counter):
        stack, close = self._stack, self._close

        def timed_iter(args, it):
            frame = [0.0, 0, 0]
            active = 0.0
            items = 0
            try:
                while True:
                    stack.append(frame)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        active += perf_counter() - t0
                        stack.pop()
                    items += 1
                    yield item
            finally:
                it.close()
                close(name, active, frame, counter(args, items, frame) if counter else None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return timed_iter(args, fn(*args, **kwargs))

        return traced

    def _wrap_count(self, name, fn):
        tot = self.totals[name]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tot[0] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in SPECS and rebind each name that holds it."""
        for mod_name in {spec[0] for spec in SPECS}:
            importlib.import_module("schubert." + mod_name)
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "schubert" or key.startswith("schubert."))]
        for mod_name, attr, name, kind, counter in SPECS:
            owner = sys.modules["schubert." + mod_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            if kind == FUNC:
                wrapper = self._wrap_func(name, original, counter)
            elif kind == GEN:
                wrapper = self._wrap_gen(name, original, counter)
            else:
                wrapper = self._wrap_count(name, original)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, value))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._undo):
            setattr(holder, key, value)
        self._undo.clear()

    def summary(self) -> dict[str, list]:
        """Per-name totals: [calls, total_s, self_s, a, b]."""
        return {name: list(tot) for name, tot in self.totals.items()}


def merge(into: dict[str, list], other: dict[str, list]) -> None:
    """Add the totals of another summary (for example a child process's)."""
    for name, tot in other.items():
        acc = into.setdefault(name, [0, 0.0, 0.0, 0, 0])
        for i, v in enumerate(tot):
            acc[i] += v


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(totals: dict[str, list]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name, as (value, unit)."""
    t = {name: totals.get(name, [0, 0.0, 0.0, 0, 0]) for name in
         (spec[2] for spec in SPECS)}
    m = {}

    def calls(name):
        m[name + ".calls"] = (t[name][0], "count")

    def self_s(name):
        m[name + ".self_s"] = (t[name][2], "s")

    calls(COVERS)
    self_s(COVERS)
    m[COVERS + ".covers"] = (t[COVERS][3], "count")
    self_s(WALK)
    m[WALK + ".chains"] = (t[WALK][3], "count")
    m[WALK + ".nodes"] = (t[WALK][4], "count")
    m[WALK + ".yield_ratio"] = (_ratio(t[WALK][3], t[WALK][4]), "ratio")
    calls("perms.bruhat_leq")
    self_s("perms.bruhat_leq")
    calls("poly.mul")
    self_s("poly.mul")
    m["poly.mul.term_pairs"] = (t["poly.mul"][3], "count")
    calls("poly.normal_form")
    self_s("poly.normal_form")
    m["poly.normal_form.terms_in"] = (t["poly.normal_form"][3], "count")
    m["poly.normal_form.terms_out"] = (t["poly.normal_form"][4], "count")
    calls("poly.monomial_key")
    calls("poly.trim")
    calls(SCHUBERT)
    self_s(SCHUBERT)
    m[SCHUBERT + ".hit_ratio"] = (_ratio(t[SCHUBERT][3], t[SCHUBERT][0]), "ratio")
    self_s(TO_W0)
    m[TO_W0 + ".chains"] = (t[TO_W0][3], "count")
    self_s(RCGRAPHS)
    lr = "calc.lr_coefficients"
    calls(lr)
    self_s(lr)
    m[lr + ".zero_ratio"] = (_ratio(t[lr][3], t[lr][0]), "ratio")
    self_s("calc.expand_in_schubert_basis")
    m["calc.expand_in_schubert_basis.terms_out"] = (
        t["calc.expand_in_schubert_basis"][3], "count")
    self_s("calc.skew")
    self_s("calc.pieri")
    self_s("verify.run_suite")
    self_s("cli.main")
    return m
