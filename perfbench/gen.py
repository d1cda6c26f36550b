"""Seeded inputs for the three benchmark workloads (stdlib only).

Every item is plain data, so the orchestrator can hand the same inputs to
the brute-force oracle without importing the program under test.

A script item is a dict:
    id       stable label, unique within the workload
    text     the script handed to ``run_script``
    checks   oracle checks on the report: ("count", stmt, spec),
             ("ok", stmt), ("adjunction", stmt, spec), ("digest",)
    errors   statement numbers expected to end ``status=error`` because
             they hit a known defect; every other statement must end ok
A ring-laws case is a dict with id, field prime, three class specs, an
ambient and two sieve trees (see ``ring_laws_cases``).

Polynomials are tuples of (int coefficient, exponent tuple); sieve trees are
("V", polys) | ("D", poly) | ("full",) | ("empty",) | ("or"|"and", l, r).
"""

from __future__ import annotations

import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "corpus")

# Ambients: name -> (variables, relations as polynomial specs).
PLANE = (("x", "y"), ())
AMBIENTS = {
    "line": (("x",), ()),
    "plane": PLANE,
    "A3": (("x", "y", "z"), ()),
    "par": (("x", "y"), (((1, (0, 1)), (-1, (2, 0))),)),              # y - x^2
    "cusp": (("x", "y"), (((1, (0, 2)), (-1, (3, 0))),)),             # y^2 - x^3
    "node": (("x", "y"), (((1, (0, 2)), (-1, (2, 0)), (-1, (3, 0))),)),  # y^2 - x^2 - x^3
    "cross": (("x", "y"), (((1, (1, 1)),),)),                          # x*y
}
CURVES = ("cusp", "node", "cross", "par")


# -- text ---------------------------------------------------------------------

def poly_text(poly, vars) -> str:
    out = ""
    for i, (c, exps) in enumerate(poly):
        mono = "*".join(v if e == 1 else "%s^%d" % (v, e)
                        for v, e in zip(vars, exps) if e)
        mag = abs(c)
        body = mono if mag == 1 and mono else (
            str(mag) if not mono else "%d*%s" % (mag, mono))
        if i == 0:
            out = ("-" if c < 0 else "") + body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out


def tree_text(tree, vars, prec=0) -> str:
    tag = tree[0]
    if tag == "V":
        return "V(%s)" % ", ".join(poly_text(g, vars) for g in tree[1])
    if tag == "D":
        return "D(%s)" % poly_text(tree[1], vars)
    if tag in ("full", "empty"):
        return tag
    if tag == "and":
        return "%s & %s" % (tree_text(tree[1], vars, 1), tree_text(tree[2], vars, 1))
    body = "%s | %s" % (tree_text(tree[1], vars), tree_text(tree[2], vars))
    return "(%s)" % body if prec else body


def scheme_line(name, ambient) -> str:
    vars, rels = AMBIENTS[ambient]
    head = "scheme %s = Spec k[%s]" % (name, ", ".join(vars))
    if rels:
        head += "/(%s)" % ", ".join(poly_text(r, vars) for r in rels)
    return head


def field_line(p) -> str:
    return "field Q" if p == 0 else "field F %d" % p


def jet_line(name, n, var="t") -> str:
    return "fatpoint %s = k[%s]/(%s^%d)" % (name, var, var, n)


# -- random polynomials and sieve trees ---------------------------------------

class Draw:
    """Two random streams: ``shape`` is fixed per workload, ``fill`` follows the seed.

    Shapes come from ``shape``: tree structure, leaf kinds, how many
    polynomials, their monomials, ambients and term kinds.  So every seed
    builds the same skeletons.  Coefficients, signs, twists and small
    integers come from ``fill``.  The seed changes the inputs but barely
    their cost, so runs with different seeds measure the same amount of work.
    Over F2 every coefficient is 1, so there the seed changes only the ring
    elements' signs and integers, not the sieves.
    """

    def __init__(self, workload, seed):
        self.shape = random.Random(workload + ":shape")
        self.fill = random.Random("%s:%d" % (workload, seed))


def rand_coeff(rng, p):
    if p == 0:
        return rng.choice((-3, -2, -1, 1, 2, 3))
    return rng.randrange(1, p)


def rand_poly(d, nvars, p, max_deg=2, max_terms=2, allow_const=False):
    """A small nonconstant-leading polynomial with merged terms."""
    terms = {}
    for _ in range(d.shape.randint(1, max_terms)):
        e = [0] * nvars
        for _ in range(d.shape.randint(0 if allow_const else 1, max_deg)):
            e[d.shape.randrange(nvars)] += 1
        key = tuple(e)
        c = terms.get(key, 0) + rand_coeff(d.fill, p)
        terms[key] = c % p if p else c
    terms = {e: c for e, c in terms.items() if c}
    if not terms:
        e = [0] * nvars
        e[d.fill.randrange(nvars)] = 1
        terms = {tuple(e): 1}
    return tuple((c, e) for e, c in sorted(terms.items(), reverse=True))


def rand_tree(d, nvars, p, depth=2):
    """A random union/intersection tree of V, D, full and empty leaves."""
    if depth <= 0 or d.shape.random() < 0.4:
        roll = d.shape.random()
        if roll < 0.45:
            return ("V", tuple(rand_poly(d, nvars, p)
                               for _ in range(d.shape.randint(1, 2))))
        if roll < 0.85:
            return ("D", rand_poly(d, nvars, p))
        return ("full",) if roll < 0.95 else ("empty",)
    op = "or" if d.shape.random() < 0.5 else "and"
    return (op, rand_tree(d, nvars, p, depth - 1),
            rand_tree(d, nvars, p, depth - 1))


# -- workloads ----------------------------------------------------------------

def corpus_items(fields):
    """The corpus scripts whose declared field is in `fields`."""
    out = []
    for name in sorted(os.listdir(CORPUS)):
        with open(os.path.join(CORPUS, name)) as fh:
            text = fh.read()
        decl = next(l for l in text.splitlines() if l.startswith("field"))
        p = 0 if decl.split()[1] == "Q" else int(decl.split()[2])
        if p in fields:
            # script 17 shows error isolation: its third statement fails
            errors = [3] if name.startswith("17_") else []
            out.append(dict(id="corpus/" + name, text=text,
                            checks=[("digest",)], errors=errors))
    return out


def _count_script(p, n, ambient, tree=None):
    lines = [field_line(p), jet_line("m", n), scheme_line("X", ambient)]
    if tree is None:
        lines.append("count X at m")
    else:
        lines.append("sieve s = %s in X" % tree_text(tree, AMBIENTS[ambient][0]))
        lines.append("count s at m")
    return "\n".join(lines) + "\n"


def jet_count_items(seed):
    draw = Draw("jet-count", seed)
    items = []
    # fixed ladders: plane curves at k[t]/(t^n), shaped by the cost per rung
    for p, top in ((2, 6), (3, 4)):
        for curve in CURVES:
            for n in range(1, top + 1):
                items.append(dict(
                    id="ladder/F%d/%s/%d" % (p, curve, n),
                    text=_count_script(p, n, curve),
                    checks=[("digest",), ("count", 4, (p, n, curve, None))],
                    errors=[]))
    # seeded sieve counts on the four curves (pruned by the relation) and on
    # the free plane (every candidate visited); the grid of field, ambient
    # and jet length is fixed so that the seed changes trees, not cost class
    grid = [(2, a, n) for a in CURVES + ("plane",) for n in (1, 2, 3)]
    grid += [(3, a, n) for a in CURVES + ("plane",) for n in (1, 2)]
    for i, (p, ambient, n) in enumerate(grid * 3):
        tree = rand_tree(draw, 2, p)
        items.append(dict(
            id="sieve/%d" % i, text=_count_script(p, n, ambient, tree),
            checks=[("count", 5, (p, n, ambient, tree))], errors=[]))
    # seeded simplicial counts: level 0..2 of each shape, over a random sieve
    shapes = [(s, lvl) for s in ("trivial", "fiber", "sym") for lvl in (0, 1, 2)]
    for i, (shape, level) in enumerate(shapes * 2):
        p, n = 2, (2 if level < 2 else 1)
        tree = rand_tree(draw, 2, p, depth=1)
        text = "\n".join([
            field_line(p), jet_line("m", n), scheme_line("X", "plane"),
            "sieve s = %s in X" % tree_text(tree, PLANE[0]),
            "simplicial S = %s(s) @ 3" % shape,
            "count S at m level %d" % level]) + "\n"
        items.append(dict(
            id="simplicial/%d" % i, text=text,
            checks=[("simplicial", 6, (p, n, "plane", tree, shape, level))],
            errors=[]))
    # fixed restriction adjunctions: tensor points against arc points
    for ambient in CURVES + ("line",):
        text = "\n".join([
            field_line(2), jet_line("m", 2), jet_line("a", 2, "s"),
            scheme_line("X", ambient), "check adjunction X m a"]) + "\n"
        items.append(dict(
            id="adjunction/%s" % ambient, text=text,
            checks=[("digest",), ("adjunction", 5, (2, (2, 2), ambient))],
            errors=[]))
    # fixed topology checks, level 1 and 2
    for i, (sa, sb, lvl) in enumerate((("trivial", "trivial", 1),
                                       ("trivial", "trivial", 2),
                                       ("fiber", "trivial", 1))):
        text = "\n".join([
            field_line(2), jet_line("m", 2), scheme_line("P", "plane"),
            "sieve a = V(x) in P", "sieve b = D(y) in P",
            "simplicial A = %s(a) @ 3" % sa, "simplicial B = %s(b) @ 3" % sb,
            "check topo A B at m level %d" % lvl]) + "\n"
        items.append(dict(id="topo/%d" % i, text=text,
                          checks=[("digest",), ("ok", 8)], errors=[]))
    # known defect: the discrete-shape check refuses this morphism count
    text = "\n".join([
        field_line(3), jet_line("m", 2), scheme_line("X", "line"),
        "scheme U = Spec k[u]", "sieve d = D(x) in X",
        "simplicial S = fiber(d) @ 3", "check tau U S at m level 2"]) + "\n"
    items.append(dict(id="known/tau-F3", text=text, checks=[], errors=[7]))
    items += corpus_items((2, 3, 5))
    return items


def class_canon_items(seed):
    draw = Draw("class-canon", seed)
    items = []
    # seeded classes and symbolic scissor checks over Q (no point: no counting)
    for i in range(250):
        ambient = ("plane", "par", "cusp", "A3")[i % 4]
        vars = AMBIENTS[ambient][0]
        a, b = (rand_tree(draw, len(vars), 0, depth=1) for _ in range(2))
        text = "\n".join([
            field_line(0), scheme_line("X", ambient),
            "sieve a = %s in X" % tree_text(a, vars),
            "sieve b = %s in X" % tree_text(b, vars),
            "class c = [a] - L * [b]",
            "check scissor a b"]) + "\n"
        items.append(dict(id="scissor/%d" % i, text=text,
                          checks=[("ok", 6)], errors=[]))
    # fixed union ladder: k principal opens, 2^k - 1 conjunctions to canonicalize
    for k in range(1, 10):
        opens = " | ".join("D(x + %d*y - %d)" % (i, i * i) for i in range(1, k + 1))
        text = "\n".join([field_line(0), scheme_line("P", "plane"),
                          "sieve u = %s in P" % opens, "class c = [u]"]) + "\n"
        items.append(dict(id="union/%d" % k, text=text,
                          checks=[("digest",)], errors=[]))
    # fixed arc spaces of the singular curves and of one sieve
    for curve in CURVES:
        for n in (2, 3):
            text = "\n".join([field_line(0), jet_line("m", n),
                              scheme_line("X", curve), "arc X at m"]) + "\n"
            items.append(dict(id="arc/%s/%d" % (curve, n), text=text,
                              checks=[("digest",)], errors=[]))
    text = "\n".join([field_line(0), jet_line("m", 3), scheme_line("P", "plane"),
                      "sieve s = V(x*y) | D(x - y^2) in P", "arc s at m"]) + "\n"
    items.append(dict(id="arc/sieve", text=text, checks=[("digest",)], errors=[]))
    # fixed limit measures along rule t^n, plain and lax
    measures = (("plane", None, "Q=1 horizon 8 window 3"),
                ("par", None, "Q=1 horizon 4 window 2"),
                ("line", "D(x)", "Q=1 horizon 6 window 3"),
                ("line", "V(x)", "Q=0 lax n horizon 6 window 3"),
                ("plane", "V(x*y)", "Q=0 lax 2n+1 horizon 4 window 2"))
    for i, (ambient, sieve, query) in enumerate(measures):
        lines = [field_line(0), "chain J = rule t^n", scheme_line("X", ambient)]
        subject = "X"
        if sieve is not None:
            lines.append("sieve s = %s in X" % sieve)
            subject = "s"
        lines.append("measure %s on J %s" % (subject, query))
        items.append(dict(id="measure/%d" % i, text="\n".join(lines) + "\n",
                          checks=[("digest",)], errors=[]))
    # known defect: elimination on the cusp's arcs exceeds the input-degree cap
    text = "\n".join([field_line(0), "chain J = rule t^n", scheme_line("X", "cusp"),
                      "measure X on J Q=1 horizon 4 window 2"]) + "\n"
    items.append(dict(id="known/measure-cusp", text=text, checks=[], errors=[4]))
    items += corpus_items((0,))
    return items


# -- the ring-laws battery ----------------------------------------------------

RING_AMBIENTS = ("line", "plane", "par")
RING_POINTS = ((1,), (2,))   # k and k[t]/(t^2)


def _class_spec(d, p, size):
    """`size` terms (sign, kind, payload) of a random ring element."""
    terms = []
    for _ in range(size):
        sign = 1 if d.fill.random() < 0.5 else -1
        roll = d.shape.random()
        if roll < 0.3:
            terms.append((sign, "lef", d.fill.randint(-2, 2)))
        elif roll < 0.8:
            ambient = d.shape.choice(RING_AMBIENTS)
            tree = rand_tree(d, len(AMBIENTS[ambient][0]), p, depth=1)
            twist = d.fill.choice((-1, 1)) if d.shape.random() < 0.2 else 0
            terms.append((sign, "sieve", (ambient, tree, twist)))
        else:
            terms.append((sign, "int", d.fill.randint(-2, 2)))
    return terms


def ring_laws_cases(seed):
    """Cases in the style of acceptance criteria 3 and 4, over F2 and F3."""
    draw = Draw("ring-laws", seed)
    cases = []
    for i in range(200):
        p = 2 if i % 2 == 0 else 3
        ambient = RING_AMBIENTS[i % 3]
        nvars = len(AMBIENTS[ambient][0])
        cases.append(dict(
            id="case/%d" % i, p=p,
            classes=[_class_spec(draw, p, size) for size in (1, 2, 3)],
            ambient=ambient,
            sieves=[rand_tree(draw, nvars, p, depth=1) for _ in range(2)]))
    return cases


def items_for(workload, seed):
    return {"jet-count": jet_count_items, "class-canon": class_canon_items,
            "ring-laws": ring_laws_cases}[workload](seed)
