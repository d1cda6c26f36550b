"""The motivic benchmark: one workload, cold workers, checked outputs.

    python3 perfbench/run.py --workload jet-count --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

Workloads (see RATIONALE.md for why each exists):
    jet-count    scripts over F2/F3: point counting, sieves, adjunction, topology
    class-canon  scripts over Q: classes, scissor checks, arcs, limit measures
    ring-laws    library battery over F2/F3: ring laws, counting, gluing
``--workload all`` runs the three in turn, each printing its own block.

Each pass runs in a fresh worker process (``worker.py``) and passes repeat
until ``--seconds`` have gone by.  Every time is in reference seconds: the
raw time times the host speed sampled around it (``probe.py``), so that the
figures follow the program and not the host's speed of the moment.  With
``--trace 0`` the end-to-end metrics are medians over the passes (per item
for the item latencies, whose percentiles are Harrell-Davis estimates).
With ``--trace 1`` traced and untraced passes alternate and the per-layer
metrics come from the traced ones.  Every output is checked against a
brute-force oracle (``oracle.py``), the identities the item asserts, or a
report digest recorded in ``expected.json``.  The last line of standard output is one JSON object; the
lines before it print every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracle  # noqa: E402

WORKLOADS = ("jet-count", "class-canon", "ring-laws")
MIN_PASSES = 3         # passes in every run, whatever --seconds says
RUN_LIMIT_S = 150.0    # no pass starts that would end past this, in seconds
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("item_p50_ms", "ms"),
              ("item_p90_ms", "ms"), ("peak_rss_mb", "MiB"))


class WorkerFailed(Exception):
    pass


def run_worker(workload, seed, traced):
    """One cold pass; its summary plus the set-up time seen from outside."""
    # a fixed hash seed keeps set iteration order, and with it the call
    # counts of a traced pass, the same in every pass
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
         "1" if traced else "0"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    try:
        first = proc.stdout.readline()
        setup = perf_counter() - t0
        out, err = proc.communicate(timeout=RUN_LIMIT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or first.strip() != "ready":
        raise WorkerFailed("worker exited %s:\n%s" % (proc.returncode, err))
    summary = json.loads(out.splitlines()[-1])
    summary["setup_raw_s"] = setup
    summary["setup_s"] = setup * summary["setup_speed"]
    return summary


def hd_quantile(values, p):
    """Harrell-Davis estimate of the p-quantile of a list of numbers.

    Every order statistic is weighted by the Beta((n+1)p, (n+1)(1-p)) mass of
    its rank interval, instead of taking the one or two at rank pn.  Where
    the items leave a gap around rank pn, the nearest-rank figure jumps
    across the gap when two items trade places; this one moves smoothly.
    """
    x = sorted(values)
    n = len(x)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    cells = 64   # midpoint-rule cells per rank interval
    weights = []
    for i in range(n):
        mass = 0.0
        for j in range(cells):
            u = (i + (j + 0.5) / cells) / n
            mass += math.exp(log_norm + (a - 1) * math.log(u) + (b - 1) * math.log1p(-u))
        weights.append(mass)
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def show(name, value, unit, n):
    shown = "%d" % value if isinstance(value, int) else "%.6g" % value
    print("%s=%s %s (n=%d)" % (name, shown, unit, n))


# -- checking outputs ---------------------------------------------------------

def outputs(summary):
    """The part of a pass that must repeat exactly: everything but timings."""
    return [{k: v for k, v in res.items() if k != "ms"} for res in summary["items"]]


class Verdict:
    def __init__(self):
        self.wrong = 0          # outputs that disagree with the oracle
        self.failed = 0         # statements or cases that fail unexpectedly
        self.known = 0          # items that hit a recorded known defect
        self.changed = 0        # known-defect statements that now succeed
        self.erroring = 0       # items with any error status or exception
        self.notes = []

    def note(self, item_id, msg):
        self.notes.append("%s: %s" % (item_id, msg))


def check_script(item, res, digests, v):
    if "raised" in res:
        v.failed += 1
        v.erroring += 1
        v.note(item["id"], "raised " + res["raised"].strip().splitlines()[-1])
        return
    recs = res["records"]
    bad = [i for i, r in enumerate(recs, 1)
           if (r.get("status") == "error") != (i in item["errors"])]
    if any(r.get("status") == "error" for r in recs):
        v.erroring += 1
    if item["errors"]:
        v.known += 1
    for i in bad:
        if i in item["errors"]:
            v.changed += 1
            v.note(item["id"], "statement %d no longer fails" % i)
        else:
            v.failed += 1
            v.note(item["id"], "statement %d ended status=error" % i)
    if bad:
        return
    for check in item["checks"]:
        if check[0] == "digest":
            if res["digest"] != digests.get(item["id"]):
                v.wrong += 1
                v.note(item["id"], "report differs from its recorded digest")
            continue
        rec = recs[check[1] - 1]
        if check[0] == "count":
            want = oracle.count(check[2][0], (check[2][1],), *check[2][2:])
            got = rec.get("value")
        elif check[0] == "simplicial":
            p, n, ambient, tree, shape, level = check[2]
            want = oracle.simplicial_count(p, (n,), ambient, tree, shape, level)
            got = rec.get("value")
        elif check[0] == "adjunction":
            want = oracle.count(*check[2])
            got = rec.get("tensor_count")
            if rec.get("arc_count") != got or rec.get("ok") != "true":
                got = None
        else:
            want, got = "true", rec.get("ok")
        if str(want) != got:
            v.wrong += 1
            v.note(item["id"], "statement %d gave %s, oracle %s" % (check[1], got, want))


def check_case(case, res, v):
    if "raised" in res:
        v.failed += 1
        v.erroring += 1
        v.note(case["id"], "raised " + res["raised"].strip().splitlines()[-1])
        return
    if not all(res["laws"]):
        v.wrong += 1
        v.note(case["id"], "identities %s fail" % [
            i for i, ok in enumerate(res["laws"]) if not ok])
    ambient, (s, t) = case["ambient"], case["sieves"]
    for dims, row in zip(gen.RING_POINTS, res["counts"]):
        want = [oracle.count(case["p"], dims, ambient, tree)
                for tree in (s, t, ("or", s, t), ("and", s, t))]
        if want != row:
            v.wrong += 1
            v.note(case["id"], "counts %s at %s, oracle %s" % (row, dims, want))


def verdict(workload, items, summary):
    with open(os.path.join(HERE, "expected.json")) as fh:
        digests = json.load(fh).get(workload, {})
    v = Verdict()
    for item, res in zip(items, summary["items"]):
        if workload == "ring-laws":
            check_case(item, res, v)
        else:
            check_script(item, res, digests, v)
    return v


# -- the run ------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all three in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "motivic", "cli.py")):
        sys.stderr.write("run.py: no motivic sources at %s/src; run from a"
                         " checkout of the repository\n" % ROOT)
        return 2
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(w, args.seed, args.seconds, args.trace) for w in chosen)


def run_workload(workload, seed, seconds, trace):
    """Run one workload, print its metrics; the exit code."""
    items = gen.items_for(workload, seed)
    # a --trace 1 run alternates untraced and traced passes: U T T U T T ...
    plan = (lambda k: k % 3 != 0) if trace else (lambda k: False)
    plain, traced = [], []
    start = perf_counter()
    longest = 0.0
    while True:
        # start a pass only if it should end inside --seconds, once the
        # minimum is met; RUN_LIMIT_S bounds a run whatever the minimum
        elapsed = perf_counter() - start
        done = len(plain) + len(traced)
        if done >= MIN_PASSES and elapsed + longest > seconds:
            break
        if done and elapsed + longest > RUN_LIMIT_S:
            break
        t0 = perf_counter()
        try:
            summary = run_worker(workload, seed, plan(done))
        except (WorkerFailed, subprocess.TimeoutExpired) as err:
            sys.stderr.write("run.py: %s\n" % err)
            return 1
        longest = max(longest, perf_counter() - t0)
        (traced if plan(done) else plain).append(summary)
    if trace and not traced:
        sys.stderr.write("run.py: no traced pass fits in %.0f s\n" % RUN_LIMIT_S)
        return 1

    passes = plain + traced
    reference = outputs(passes[0])
    repeatable = all(outputs(s) == reference for s in passes[1:])
    v = verdict(workload, items, passes[0])
    if not repeatable:
        v.note("run", "passes of the same seed gave different outputs")
    for note in v.notes[:20]:
        sys.stderr.write("run.py: %s\n" % note)

    n_items = len(items)
    per_item = [statistics.median(s["items"][i]["ms"] for s in plain)
                for i in range(n_items)]
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in plain),
        "wall_s": statistics.median(s["wall_s"] for s in plain),
        "item_p50_ms": hd_quantile(per_item, 0.5),
        "item_p90_ms": hd_quantile(per_item, 0.9),
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in plain),
    }
    counts = {"setup_s": len(plain), "wall_s": len(plain), "item_p50_ms": n_items,
              "item_p90_ms": n_items, "peak_rss_mb": len(plain)}
    print("workload=%s seed=%d passes=%d traced=%d items=%d"
          % (workload, seed, len(plain), len(traced), n_items))
    for name, unit in END_TO_END:
        show(name, values[name], unit, counts[name])
    print("fail_ratio=%.6g 1 (n=%d; known defects %d, unexpected %d,"
          " no longer failing %d)" % (v.erroring / n_items, n_items, v.known,
                                      v.failed, v.changed))
    print("wrong=%d count (n=%d)" % (v.wrong, n_items))
    # the host's side: raw clock readings and the calibration loop
    show("setup_raw_s", statistics.median(s["setup_raw_s"] for s in plain), "s",
         len(plain))
    show("wall_raw_s", statistics.median(s["wall_raw_s"] for s in plain), "s",
         len(plain))
    calib = statistics.median(s["calib_ms"] for s in passes)
    show("calib_ms", calib, "ms", len(passes))

    correct = v.wrong == 0 and repeatable
    if trace:
        layers = trace_metrics(traced, statistics.median(s["wall_s"] for s in plain))
        if layers is None:
            correct = False
            sys.stderr.write("run.py: traced passes gave different counts\n")
            layers = {}
        for name, (value, unit) in layers.items():
            show(name, value, unit, len(traced))
        layers["calib_ms"] = (calib, "ms")
        metrics = {k: {"value": val, "unit": unit} for k, (val, unit) in layers.items()}
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": correct,
                      "attempted": n_items * len(passes),
                      "failed": v.failed * len(passes),
                      "metrics": metrics}))
    return 0 if correct else 1


def trace_metrics(traced, untraced_wall):
    """Per-layer metrics: counts must repeat exactly, times are medians.

    Self times and the traced wall time are medians of the same passes, so
    the self times of a pass's layers sum to at most its wall time.
    """
    first = traced[0]["layers"]
    out = {}
    for name in first:
        vals = [s["layers"][name] for s in traced]
        if name.endswith("_s"):
            out[name] = (statistics.median(vals), "s")
        elif len(set(vals)) != 1:
            return None
        else:
            out[name] = (vals[0], "1" if name.endswith(".yield") else "count")
    traced_wall = statistics.median(s["wall_s"] for s in traced)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead"] = (traced_wall / untraced_wall, "1")
    return out


if __name__ == "__main__":
    sys.exit(main())
