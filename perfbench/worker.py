"""One cold pass over a workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRACE

Imports ``motivic`` from ``src/``, generates the workload's inputs from SEED,
prints ``ready``, then runs every item once and prints one JSON line: the
pass's wall time, each item's latency and outputs, the calibration loop's
time, peak RSS and, with TRACE=1, the per-layer metrics.  ``run.py`` starts
one worker per pass so that the process-global caches of ``sieves`` and
``kring`` start empty every time.

A ``probe.SpeedProbe`` samples the host's speed from the first line to the
last, and every time the worker reports is in reference seconds (see
``probe.py``), with the raw figure next to it.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from probe import SpeedProbe  # noqa: E402

PROBE = SpeedProbe()
PROBE.start()
T_START = perf_counter()

import gen  # noqa: E402

# report fields the orchestrator checks against its oracle
KEPT = ("status", "value", "ok", "tensor_count", "arc_count")


def calib_ms() -> float:
    """Median time of a fixed stdlib loop: how fast this host runs now."""
    times = []
    for _ in range(5):
        t0 = perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append((perf_counter() - t0) * 1000)
    return statistics.median(times)


def records(report):
    out = []
    for block in report.strip().split("\n\n"):
        rec = {}
        for line in block.split("\n"):
            key, _, val = line.partition("=")
            if key in KEPT:
                rec[key] = val
        out.append(rec)
    return out


# -- ring-laws battery ----------------------------------------------------------

class Battery:
    """Builds cases from their specs over shared ambients, as criterion 3 does.

    Library names are imported when a case runs, not at module level, so a
    traced pass calls the wrappers ``spans.Trace.install()`` put in their
    place.
    """

    def __init__(self):
        from motivic.fatpoints import base_point, make_fat_point
        from motivic.fields import GF
        from motivic.poly import Ideal, Poly
        from motivic.schemes import AffineScheme

        self.Poly = Poly
        self.fields, self.ambients, self.points = {}, {}, {}
        for p in (2, 3):
            field = GF(p)
            self.fields[p] = field
            for name in gen.RING_AMBIENTS:
                vars, rels = gen.AMBIENTS[name]
                gens = [self.poly(r, vars, field) for r in rels]
                self.ambients[p, name] = AffineScheme(name, Ideal(vars, field, gens))
            t = Poly.variable("t", ("t",), field)
            self.points[p] = [base_point(field),
                              make_fat_point(("t",), field, [t * t], "t2")]

    def poly(self, spec, vars, field):
        return self.Poly(tuple(vars), field,
                         {tuple(e): field.of(c) for c, e in spec})

    def sieve(self, tree, amb):
        from motivic import sieves
        tag = tree[0]
        if tag == "V":
            return sieves.closed_sieve(amb, [self.poly(g, amb.vars, amb.field)
                                             for g in tree[1]])
        if tag == "D":
            return sieves.open_sieve(amb, self.poly(tree[1], amb.vars, amb.field))
        if tag == "full":
            return sieves.full_sieve(amb)
        if tag == "empty":
            return sieves.empty_sieve(amb)
        op = sieves.sieve_union if tag == "or" else sieves.sieve_inter
        return op(self.sieve(tree[1], amb), self.sieve(tree[2], amb))

    def ring_class(self, terms, p):
        from motivic.kring import class_of_sieve, kclass_int, lefschetz
        field = self.fields[p]
        out = kclass_int(field, 0)
        for sign, kind, payload in terms:
            if kind == "int":
                term = kclass_int(field, payload)
            elif kind == "lef":
                term = lefschetz(field, payload)
            else:
                ambient, tree, twist = payload
                term = class_of_sieve(self.sieve(tree, self.ambients[p, ambient]))
                if twist:
                    term = term.twist(twist)
            out = out + term if sign > 0 else out - term
        return out

    def run(self, case):
        """(identity verdicts, [[#s, #t, #s|t, #s&t] per point])."""
        from motivic.kring import (class_of_sieve, counting_hom, kclass_one,
                                   kclass_zero)
        from motivic.sieves import sieve_inter, sieve_union
        p = case["p"]
        a, b, c = (self.ring_class(terms, p) for terms in case["classes"])
        one, zero = kclass_one(self.fields[p]), kclass_zero(self.fields[p])
        laws = [(a + b) + c == a + (b + c), a + b == b + a,
                (a * b) * c == a * (b * c), a * b == b * a,
                a * (b + c) == a * b + a * c, a + zero == a, a * one == a]
        for m in self.points[p]:
            ha, hb, hc = (counting_hom(z, m) for z in (a, b, c))
            laws += [counting_hom(a + b, m) == ha + hb,
                     counting_hom(a * b, m) == ha * hb,
                     counting_hom(a * (b + c), m) == ha * (hb + hc)]
        amb = self.ambients[p, case["ambient"]]
        s, t = (self.sieve(tree, amb) for tree in case["sieves"])
        u, i = sieve_union(s, t), sieve_inter(s, t)
        zs, zt, zu, zi = (class_of_sieve(x) for x in (s, t, u, i))
        laws.append(zu + zi == zs + zt)
        counts = []
        for m in self.points[p]:
            row = [x.count(m) for x in (s, t, u, i)]
            counts.append(row)
            laws += [row[0] + row[1] == row[2] + row[3],
                     counting_hom(zu + zi, m) == row[2] + row[3],
                     counting_hom(zs + zt, m) == row[2] + row[3]]
        return laws, counts


# -- the pass -------------------------------------------------------------------

def main(argv):
    workload, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    from motivic.cli import run_script
    items = gen.items_for(workload, seed)
    battery = Battery() if workload == "ring-laws" else None
    if traced:
        import spans
        tracer = spans.Trace()
        tracer.install()
    setup_speed = PROBE.speed(T_START, perf_counter())
    print("ready", flush=True)
    calib = calib_ms()

    outputs, timed = [], []
    for item in items:
        t0, spent0 = perf_counter(), PROBE.spent
        try:
            out = battery.run(item) if battery else run_script(item["text"])
        except Exception:
            out = traceback.format_exc()
        t1 = perf_counter()
        timed.append((t0, t1, t1 - t0 - (PROBE.spent - spent0)))
        outputs.append(out)
    PROBE.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = [PROBE.reference(raw, t0, t1) for t0, t1, raw in timed]
    wall, wall_raw = sum(latencies), sum(raw for _, _, raw in timed)

    results = []
    for item, out, dt in zip(items, outputs, latencies):
        res = {"id": item["id"], "ms": dt * 1000.0}
        if isinstance(out, str):
            res["raised"] = out
        elif battery:
            res["laws"], res["counts"] = out
        else:
            report, _code = out
            res["digest"] = hashlib.sha256(report.encode()).hexdigest()
            res["records"] = records(report)
        results.append(res)
    summary = {"wall_s": wall, "wall_raw_s": wall_raw, "setup_speed": setup_speed,
               "calib_ms": calib, "rss_mb": rss_mb, "items": results}
    if traced:
        # self times are raw clock readings; bring them to reference seconds
        # at the pass's mean speed
        layers = tracer.report()
        for name in layers:
            if name.endswith("_s"):
                layers[name] *= wall / wall_raw
        summary["layers"] = layers
    print(json.dumps(summary))


if __name__ == "__main__":
    main(sys.argv[1:])
