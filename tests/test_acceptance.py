"""Desk-scale acceptance battery: ten criteria, one pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
Every check is exact (integers, Fractions, frozen normal forms); the timed
criteria assert their own wall-clock budgets.
"""

import glob
import os
import time
from fractions import Fraction
from itertools import product as iproduct

from battery import (enumerate_discrete_families, rand_class, rand_sieve,
                     reference_points, rng_for)
from motivic import dsl
from motivic.cli import run_script
from motivic.config import DEFAULT
from motivic.fatpoints import (PointSystem, base_point, jet_rule,
                               make_fat_point)
from motivic.fields import GF, QQ
from motivic.kring import (class_of_sieve, class_of_simplicial, counting_hom,
                           counting_simplicial, discrete_hom_check,
                           galois_check, kclass_one, kclass_zero, lefschetz,
                           level_class, lift_const, pushforward)
from motivic.measures import (MeasureQuery, finite_measure, lax_measure,
                              limit_measure)
from motivic.poly import Ideal, Poly, poly_str
from motivic.schemes import (AffineScheme, CoordMap, adjunction_check,
                             affine_space, points, weil_restrict)
from motivic.sieves import (ConstSieve, InterSieve, LimitSieve, ProductSieve,
                            UnionSieve, closed_sieve, full_sieve, lift_sieve,
                            open_sieve, sieve_inter, sieve_union,
                            simplicial_full)
from motivic.topology import (boundary_simplex, discrete_sset,
                              evaluate_to_sset, invariants, standard_simplex)

HERE = os.path.dirname(os.path.abspath(__file__))


def fat(field, k):
    t = Poly.variable("t", ("t",), field)
    return make_fat_point(("t",), field, [t ** k], "t%d" % k)


def wide(field):
    a = Poly.variable("a", ("a", "b"), field)
    b = Poly.variable("b", ("a", "b"), field)
    return make_fat_point(("a", "b"), field, [a * a, a * b, b * b], "sq")


def jets(field, cfg=DEFAULT):
    return PointSystem(rule=jet_rule(field, cfg=cfg))


def mono(ambient, name):
    return Poly.variable(name, ambient.vars, ambient.field)


def desk_schemes(field):
    x1 = Poly.variable("x", ("x",), field)
    x2 = Poly.variable("x", ("x", "y"), field)
    y2 = Poly.variable("y", ("x", "y"), field)
    return {
        "line": affine_space(field, ("x",), "line"),
        "dbl": AffineScheme("dbl", Ideal(("x",), field, [x1 * x1])),
        "par": AffineScheme("par", Ideal(("x", "y"), field, [y2 - x2 * x2])),
        "cross": AffineScheme("cross", Ideal(("x", "y"), field, [x2 * y2])),
        "plane": affine_space(field, ("x", "y"), "plane"),
    }


# -- criterion 1: restriction adjunction ------------------------------------


def test_criterion_01_restriction_adjunction():
    t0 = time.monotonic()
    budget = 1 << 16
    checked = 0
    for field in (GF(2), GF(3)):
        sch = desk_schemes(field)
        pts = {"k": base_point(field), "t2": fat(field, 2),
               "t3": fat(field, 3), "t4": fat(field, 4), "sq": wide(field)}
        plan = [
            ("line", ["k:t2", "t2:t2", "t2:t3", "t3:t3", "t2:t4",
                      "t3:t4", "sq:t2", "t2:sq", "sq:sq"]),
            ("dbl", ["k:t2", "t2:t2", "t2:t3", "sq:t2"]),
            ("par", ["k:t2", "t2:t2", "t2:t3", "k:sq"]),
            ("cross", ["k:t2", "t2:t2"]),
            ("plane", ["k:t2", "t2:t2", "t2:t3"]),
        ]
        if field.char == 2:
            plan[0][1].append("t4:t4")
        for name, pairs in plan:
            x = sch[name]
            for pair in pairs:
                am, aa = pair.split(":")
                m, a = pts[am], pts[aa]
                cand = field.order ** (len(x.vars) * m.length * a.length)
                if cand > budget:
                    continue
                rep = adjunction_check(x, m, a)
                assert rep["tensor_count"] == rep["arc_count"]
                assert rep["bijection"]
                # both sides go through the counting kernel; the tensor side
                # is also checked against the vector-level enumerator
                am = rep["tensor_point"]
                assert points(x, am) == reference_points(x, am)
                checked += 1
    dt = time.monotonic() - t0
    assert checked >= 30
    assert dt <= 60.0
    print("CRITERION 1 PASS: %d adjunction bijections over F2/F3 in %.1fs"
          % (checked, dt))


# -- criterion 2: jet regression ---------------------------------------------


def test_criterion_02_jet_regression():
    cfg = DEFAULT.with_overrides(max_variables=18)
    shapes = 0
    for d in (1, 2, 3):
        space = affine_space(QQ, tuple("xyz"[:d]), "A%d" % d, cfg)
        for n in range(1, 7):
            arc = weil_restrict(space, fat(QQ, n))
            assert len(arc.vars) == d * n
            assert list(arc.ideal.gens) == []
            shapes += 1
    x = Poly.variable("x", ("x",), QQ)
    dbl = AffineScheme("dbl", Ideal(("x",), QQ, [x * x]))
    arc = weil_restrict(dbl, fat(QQ, 2))
    assert [poly_str(g) for g in arc.ideal.gens] == ["x_0^2", "2*x_0*x_1"]
    print("CRITERION 2 PASS: %d free jet spaces, double point presentation"
          " (x_0^2, 2*x_0*x_1)" % shapes)


# -- criterion 3: ring laws on randomized classes ----------------------------


def test_criterion_03_ring_laws():
    t0 = time.monotonic()
    generated = 0
    for field in (GF(2), GF(3)):
        rng = rng_for("ring-laws-%d" % field.char, 0)
        sch = desk_schemes(field)
        ambients = [sch["line"], sch["plane"], sch["par"]]
        pts = [base_point(field), fat(field, 2)]
        one = kclass_one(field)
        zero = kclass_zero(field)
        for _ in range(167):
            a = rand_class(rng, field, ambients)
            b = rand_class(rng, field, ambients)
            c = rand_class(rng, field, ambients)
            generated += 3
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + zero == a
            assert a * one == a
            for m in pts:
                ha, hb, hc = (counting_hom(z, m) for z in (a, b, c))
                assert counting_hom(a + b, m) == ha + hb
                assert counting_hom(a * b, m) == ha * hb
                assert counting_hom(a * (b + c), m) == ha * (hb + hc)
            amb = rng.choice(ambients)
            s = rand_sieve(rng, amb)
            t = rand_sieve(rng, amb)
            zs, zt = class_of_sieve(s), class_of_sieve(t)
            zu = class_of_sieve(sieve_union(s, t))
            zi = class_of_sieve(sieve_inter(s, t))
            assert zu + zi == zs + zt
            for m in pts:
                lhs = s.count(m) + t.count(m)
                rhs = sieve_union(s, t).count(m) + sieve_inter(s, t).count(m)
                assert lhs == rhs
                assert counting_hom(zu + zi, m) == Fraction(rhs)
                assert counting_hom(zs + zt, m) == Fraction(rhs)
    dt = time.monotonic() - t0
    assert generated >= 1000
    assert dt <= 120.0
    print("CRITERION 3 PASS: %d random classes obey ring laws and scissor"
          " gluing in %.1fs" % (generated, dt))


# -- criterion 4: the counting rule is a ring homomorphism -------------------


def test_criterion_04_counting_homomorphism():
    pairs = 0
    for field in (GF(2), GF(3)):
        rng = rng_for("counting-%d" % field.char, 1)
        sch = desk_schemes(field)
        ambients = [sch["line"], sch["plane"], sch["cross"]]
        pts = [base_point(field), fat(field, 2), fat(field, 3)]
        for _ in range(40):
            a = rand_class(rng, field, ambients)
            b = rand_class(rng, field, ambients)
            for m in pts:
                assert (counting_hom(a + b, m)
                        == counting_hom(a, m) + counting_hom(b, m))
                assert (counting_hom(a * b, m)
                        == counting_hom(a, m) * counting_hom(b, m))
            pairs += 1
        for _ in range(10):
            za = lift_const(rand_class(rng, field, ambients))
            shape = lift_sieve(rand_sieve(rng, sch["plane"], depth=1),
                               rng.choice(("trivial", "fiber")))
            zb = class_of_simplicial(shape)
            for m in pts[:2]:
                for n in (0, 1, 2):
                    ca = counting_simplicial(za, m, n)
                    cb = counting_simplicial(zb, m, n)
                    assert counting_simplicial(za + zb, m, n) == ca + cb
                    prod = za.mul(zb, shape.scheme.ideal.cfg)
                    assert counting_simplicial(prod, m, n) == ca * cb
            pairs += 1
    assert pairs >= 100
    print("CRITERION 4 PASS: counting respects + and * on %d pairs" % pairs)


# -- criterion 5: level truncation against the constant lift -----------------


def test_criterion_05_truncation_identities():
    classes = 0
    for field in (QQ, GF(2)):
        L = lefschetz(field)
        for rep in (lift_const(L),
                    class_of_simplicial(simplicial_full(
                        affine_space(field, ("x",), "line")))):
            for n in range(5):
                assert level_class(rep, n) == L
        rng = rng_for("truncation-%d" % field.char, 2)
        sch = desk_schemes(field)
        ambients = [sch["line"], sch["plane"], sch["dbl"]]
        for _ in range(50):
            z = rand_class(rng, field, ambients)
            lifted = lift_const(z)
            for n in range(5):
                assert level_class(lifted, n) == z
            classes += 1
    assert classes >= 100
    print("CRITERION 5 PASS: level truncation inverts the constant lift on"
          " %d classes, and sends the constant Lefschetz class to L" % classes)


# -- criterion 6: discrete-shape and image adjunctions -----------------------


def degeneracy_lift(x, m, bottom, top):
    """The family obtained by pushing a bottom layer up with degeneracies."""
    fam = [tuple(bottom)]
    for n in range(top):
        fam.append(tuple(x.degeneracy(n, 0, pt) for pt in fam[-1]))
    return tuple(fam)


def test_criterion_06_adjunction_batteries():
    # discrete shapes against level extraction
    tau_instances = 0
    for field in (GF(2), GF(3)):
        sch = desk_schemes(field)
        u = Poly.variable("u", ("u",), field)
        two = AffineScheme("two", Ideal(("u",), field, [u * u - u]))
        one_pt = AffineScheme("one", Ideal(("u",), field, [u]))
        sources = [two, one_pt]
        base_sieves = [closed_sieve(sch["plane"], [mono(sch["plane"], "x")]),
                       open_sieve(sch["line"], mono(sch["line"], "x"))]
        for y in sources:
            for s in base_sieves:
                for tag in ("trivial", "fiber", "sym"):
                    x = lift_sieve(s, tag)
                    m = base_point(field)
                    top = 1 if tag == "fiber" else 2
                    rep = discrete_hom_check(y, x, m, top)
                    assert rep["ok"]
                    assert rep["morphisms"] == rep["expected"]
                    tau_instances += 1
                    valid, levels, ypts = enumerate_discrete_families(
                        y, x, m, top)
                    lifts = {degeneracy_lift(x, m, bottom, top)
                             for bottom in iproduct(levels[0],
                                                    repeat=len(ypts))}
                    assert set(valid) == lifts
                    assert len(valid) == rep["expected"]
    assert tau_instances >= 10

    # image against preimage along coordinate maps
    galois_instances = 0
    for field in (GF(2), GF(3)):
        sch = desk_schemes(field)
        line, plane = sch["line"], sch["plane"]
        line2 = affine_space(field, ("v",), "line2")
        u = mono(line, "x")
        x2, y2 = mono(plane, "x"), mono(plane, "y")
        graph = CoordMap(line, plane, {"x": u, "y": u * u})
        square = CoordMap(line, line2, {"v": u * u})
        proj = CoordMap(plane, line2, {"v": x2})
        cases = [
            (graph, closed_sieve(line, [u]), open_sieve(plane, y2)),
            (graph, open_sieve(line, u), closed_sieve(plane, [x2 - y2])),
            (graph, full_sieve(line), open_sieve(plane, x2)),
            (square, open_sieve(line, u), open_sieve(line2, mono(line2, "v"))),
            (square, closed_sieve(line, [u - 1]),
             closed_sieve(line2, [mono(line2, "v") - 1])),
            (proj, closed_sieve(plane, [x2]), closed_sieve(line2, [mono(line2, "v")])),
            (proj, open_sieve(plane, x2), open_sieve(line2, mono(line2, "v"))),
        ]
        for m in (base_point(field), fat(field, 2)):
            for f, a, b in cases:
                rep = galois_check(f, a, b, m)
                assert rep["ok"]
                apts = set(a.points(m))
                bpts = set(b.points(m))
                image = {f.apply_point(m, p) for p in apts}
                push = pushforward(a, f)
                assert set(push.points(m)) == image
                pull = b.pullback(f)
                assert set(pull.points(m)) == {
                    p for p in full_sieve(f.source).points(m)
                    if f.apply_point(m, p) in bpts}
                # unit and counit of the adjunction, pointwise
                assert apts <= set(push.pullback(f).points(m))
                assert set(pushforward(pull, f).points(m)) <= bpts
                galois_instances += 1
    assert galois_instances >= 10
    print("CRITERION 6 PASS: %d discrete-shape and %d image adjunction"
          " instances, bijections with explicit mutual inverses"
          % (tau_instances, galois_instances))


# -- criterion 7: measure specialization --------------------------------------


def singleton_battery():
    """(family, probe point, plain sieve) triples on a one-member system."""
    out = []
    for field in (GF(2), GF(3), QQ):
        rng = rng_for("singleton-%d" % field.char, 7)
        sch = desk_schemes(field)
        for amb_name in ("line", "plane", "dbl", "cross"):
            amb = sch[amb_name]
            for k in (2, 3):
                s = rand_sieve(rng, amb, depth=1)
                m = fat(field, k)
                fam = LimitSieve(s, PointSystem(members=[m]))
                out.append((fam, m, s))
    return out


def test_criterion_07_measure_specialization():
    battery = singleton_battery()
    assert len(battery) >= 20
    for fam, m, s in battery:
        rep = limit_measure(MeasureQuery(fam, Q=0))
        assert rep.stabilized
        assert rep.value == lift_const(finite_measure(s, m))

    for d in (1, 2, 3):
        cfg = DEFAULT.with_overrides(max_variables=8 * d)
        space = affine_space(QQ, tuple("xyz"[:d]), "A%d" % d, cfg)
        fam = LimitSieve(space, jets(QQ, cfg))
        rep = limit_measure(MeasureQuery(fam, Q=1, horizon=8, window=3))
        assert rep.stabilized and rep.since == 0
        assert rep.value == lift_const(kclass_one(QQ))

    line = affine_space(QQ, ("x",), "line")

    def origin_rule(m):
        arc = weil_restrict(line, m)
        return ConstSieve(closed_sieve(arc, [Poly.variable("x_0", arc.vars, QQ)]))

    fam = LimitSieve(line, jets(QQ), rule=origin_rule)
    rep = limit_measure(MeasureQuery(fam, Q=1))
    assert rep.stabilized
    assert rep.value == lift_const(lefschetz(QQ, -1))
    print("CRITERION 7 PASS: %d singleton measures match the finite measure;"
          " full arcs of A^1..A^3 measure 1; origin arcs measure L^-1"
          % len(battery))


# -- criterion 8: lax rules against the plain limit ---------------------------


def test_criterion_08_lax_consistency():
    queries = []
    for fam, m, s in singleton_battery():
        queries.append(MeasureQuery(fam, Q=0))
    line = affine_space(QQ, ("x",), "line")
    for d in (1, 2, 3):
        cfg = DEFAULT.with_overrides(max_variables=8 * d)
        space = affine_space(QQ, tuple("xyz"[:d]), "A%d" % d, cfg)
        fam = LimitSieve(space, jets(QQ, cfg))
        queries.append(MeasureQuery(fam, Q=1, horizon=8, window=3))
    for q in queries:
        plain = limit_measure(q)
        zero = lax_measure(MeasureQuery(q.subject, q.Q, lambda m: 0,
                                        horizon=q.horizon, window=q.window))
        assert [v for _, v in zero.sequence] == [v for _, v in plain.sequence]
        assert zero.stabilized == plain.stabilized
        assert zero.value == plain.value
        assert zero.since == plain.since

    fam = LimitSieve(line, jets(QQ))
    flip = lax_measure(MeasureQuery(fam, Q=1, lax_rule=lambda m: m.length % 2))
    assert not flip.stabilized
    assert flip.mode == "lax"
    print("CRITERION 8 PASS: zero lax rule reproduces the plain limit on %d"
          " queries; the alternating rule stays indeterminate" % len(queries))


# -- criterion 9: topological invariants --------------------------------------


def rank_sum_matches_chi(sset):
    inv = invariants(sset)
    alt = sum((-1) ** n * h[0] for n, h in enumerate(inv.homology))
    return alt == inv.euler_characteristic


def test_criterion_09_topological_invariants():
    t0 = time.monotonic()
    circle = invariants(boundary_simplex(2))
    assert circle.component_count == 1
    assert circle.euler_characteristic == 0
    assert circle.homology[0] == (1, ())
    assert circle.homology[1] == (1, ())

    fixtures = [standard_simplex(0), standard_simplex(1), standard_simplex(2),
                boundary_simplex(2), boundary_simplex(3),
                discrete_sset(["a", "b", "c"])]
    for sset in fixtures:
        assert rank_sum_matches_chi(sset)

    field = GF(2)
    sch = desk_schemes(field)
    rng = rng_for("chi-battery", 9)
    pairs = 0
    for _ in range(50):
        amb = rng.choice((sch["line"], sch["plane"], sch["cross"]))
        a = lift_sieve(rand_sieve(rng, amb, depth=1), "trivial")
        b = lift_sieve(rand_sieve(rng, amb, depth=1), "trivial")
        m = rng.choice((base_point(field), fat(field, 2)))
        parts = {
            "a": evaluate_to_sset(a, m, top=2),
            "b": evaluate_to_sset(b, m, top=2),
            "u": evaluate_to_sset(UnionSieve(a, b), m, top=2),
            "i": evaluate_to_sset(InterSieve(a, b), m, top=2),
            "p": evaluate_to_sset(ProductSieve(a, b), m, top=2),
        }
        chi = {}
        for key, sset in parts.items():
            assert rank_sum_matches_chi(sset)
            chi[key] = invariants(sset).euler_characteristic
        assert chi["u"] + chi["i"] == chi["a"] + chi["b"]
        assert chi["p"] == chi["a"] * chi["b"]
        pairs += 1
    dt = time.monotonic() - t0
    assert pairs == 50
    assert dt <= 30.0
    print("CRITERION 9 PASS: boundary 2-simplex is a circle; chi add/mult on"
          " %d sieve pairs; homology ranks always resum to chi (%.1fs)"
          % (pairs, dt))


# -- criterion 10: determinism and round-trip ---------------------------------


def test_criterion_10_determinism_and_round_trip():
    corpus = sorted(glob.glob(os.path.join(HERE, "corpus", "*.mot")))
    assert len(corpus) == 20
    expected = {"16_continuity_fail.mot": 1, "17_error_isolation.mot": 2}
    for path in corpus:
        with open(path) as fh:
            text = fh.read()
        first = run_script(text)
        second = run_script(text)
        assert first == second
        want = expected.get(os.path.basename(path), 0)
        assert first[1] == want
        printed = dsl.print_script(dsl.parse_script(text))
        assert dsl.print_script(dsl.parse_script(printed)) == printed
    print("CRITERION 10 PASS: 20 scripts re-run byte-identically;"
          " print/parse is a fixed point on all of them")
