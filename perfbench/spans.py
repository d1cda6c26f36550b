"""Per-layer tracing from outside the program: wrap public functions.

``Trace.install()`` replaces each traced function in every ``motivic``
module namespace that holds it (``points`` is imported by name into
``sieves`` and ``kring``, for instance) and each traced method on its class.
A span is ``[name, start, end, parent index]``; spans stay in memory and
``Trace.report()`` turns them into per-layer metrics when the pass is over.
Installing is one-way: a worker process traces one pass and exits.  Self time is a
span's duration minus the durations of its direct children.

The highest-frequency functions are counted, not timed, so the clock is not
read millions of times.  ``fields`` gets no span: its operations are too
fine-grained to wrap, and their cost lands in the self time of
``fatpoints`` and ``poly``.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# metrics reported per span name: calls, distinct inputs, self time
SPAN_METRICS = {
    "poly.buchberger": ("calls", "distinct", "self_s"),
    "poly.krull_dimension": ("self_s",),
    "schemes.points": ("calls", "self_s"),
    "schemes.weil_restrict": ("self_s",),
    "schemes.adjunction_check": ("self_s",),
    "sieves.count": ("calls", "distinct", "self_s"),
    "kring.canonical_conjunction": ("calls", "distinct", "self_s"),
    "kring.class_of_sieve": ("self_s",),
    "kring.class_of_simplicial": ("self_s",),
    "kring.counting_hom": ("calls", "self_s"),
    "kring.class_str": ("self_s",),
    "measures.limit_measure": ("calls", "self_s"),
    "topology.preservation_check": ("self_s",),
    "topology.smith_normal_form": ("calls", "self_s"),
    "dsl.parse_script": ("self_s",),
    "dsl.print_statement": ("self_s",),
    "cli.evaluate": ("calls", "self_s"),
}
COUNTERS = ("poly.reduce_full.calls", "fatpoints.eval_poly.calls",
            "sieves.node_member.calls", "schemes.points.found",
            "schemes.points.space", "kring.expand_node.conjunctions")


def _replace_everywhere(original, wrapper):
    """Rebind `original` in every motivic module that imported it by name."""
    hits = 0
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "motivic" and not mod_name.startswith("motivic."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                hits += 1
    if not hits:
        raise RuntimeError("no module holds %s" % original.__qualname__)


class Trace:
    def __init__(self):
        self.spans = []     # [name, start, end, parent]
        self.stack = []     # indices into spans of the open spans
        self.counts = {}    # metric name -> int
        self.distinct = {}  # span name -> set of input keys

    def bump(self, name, by=1):
        self.counts[name] = self.counts.get(name, 0) + by

    def span(self, name, fn, key=None, after=None):
        """Time `fn` as a span; `key` names its input, `after` sees its result."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            if key is not None:
                self.distinct.setdefault(name, set()).add(key(*args, **kw))
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kw)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(out, *args, **kw)
            return out

        return wrapper

    def counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kw):
            self.bump(name)
            return fn(*args, **kw)

        return wrapper

    def _points_after(self, out, x, m, *rest, **kw):
        self.bump("schemes.points.found", len(out))
        n = len(x.vars)
        self.bump("schemes.points.space", x.field.order ** (n * m.length) if n else 1)

    def _conjunctions_after(self, out, *args, **kw):
        self.bump("kring.expand_node.conjunctions", len(out))

    def install(self):
        from motivic import (cli, dsl, fatpoints, kring, measures, poly,
                             schemes, sieves, topology)

        functions = [
            ("poly.buchberger", poly.buchberger,
             lambda gens, *a, **k: tuple(g.key() for g in gens), None),
            ("schemes.points", schemes.points, None, self._points_after),
            ("schemes.weil_restrict", schemes.weil_restrict, None, None),
            ("schemes.adjunction_check", schemes.adjunction_check, None, None),
            ("kring.expand_node", kring.expand_node, None, self._conjunctions_after),
            ("kring.canonical_conjunction", kring.canonical_conjunction,
             lambda amb, lits, *a, **k: (amb.presentation_key(), frozenset(lits)),
             None),
            ("kring.class_of_sieve", kring.class_of_sieve, None, None),
            ("kring.class_of_simplicial", kring.class_of_simplicial, None, None),
            ("kring.counting_hom", kring.counting_hom, None, None),
            ("kring.class_str", kring.class_str, None, None),
            ("measures.limit_measure", measures.limit_measure, None, None),
            ("topology.preservation_check", topology.preservation_check, None, None),
            ("topology.smith_normal_form", topology.smith_normal_form, None, None),
            ("dsl.parse_script", dsl.parse_script, None, None),
            ("dsl.print_statement", dsl.print_statement, None, None),
        ]
        for name, fn, key, after in functions:
            _replace_everywhere(fn, self.span(name, fn, key, after))
        for name, fn in (("poly.reduce_full.calls", poly.reduce_full),
                         ("sieves.node_member.calls", sieves.node_member)):
            _replace_everywhere(fn, self.counter(name, fn))

        # methods are wrapped on the class that defines them; plain and
        # simplicial sieve counts share one name
        methods = [
            ("poly.krull_dimension", poly.Ideal, "krull_dimension", None),
            ("sieves.count", sieves.Sieve, "count",
             lambda s, m, *a, **k: (s.key(), m.presentation_key())),
            ("sieves.count", sieves.SimplicialSieve, "count",
             lambda s, m, n, *a, **k: (s.key(), m.presentation_key(), n)),
            ("cli.evaluate", cli.Session, "evaluate", None),
        ]
        for name, cls, attr, key in methods:
            setattr(cls, attr, self.span(name, getattr(cls, attr), key))
        alg = fatpoints.QuotientAlgebra
        alg.eval_poly = self.counter("fatpoints.eval_poly.calls", alg.eval_poly)

    def report(self):
        """{metric: value} for the pass traced since ``install()``."""
        calls, self_s = {}, {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - inner)
        out = {}
        for name, kinds in SPAN_METRICS.items():
            for kind in kinds:
                if kind == "calls":
                    out[name + ".calls"] = calls.get(name, 0)
                elif kind == "distinct":
                    out[name + ".distinct"] = len(self.distinct.get(name, ()))
                else:
                    out[name + ".self_s"] = self_s.get(name, 0.0)
        for name in COUNTERS:
            out[name] = self.counts.get(name, 0)
        space = out["schemes.points.space"]
        out["schemes.points.yield"] = out["schemes.points.found"] / space if space else 0.0
        return out
