"""Affine presentations, point functors, and coefficient-expansion arcs.

The jet oracles are classical: restricting the affine line along k[t]/(t^n)
gives n free coefficient coordinates, and the double point x^2 = 0 picks up
the relations (x_0^2, 2 x_0 x_1) at the dual numbers.
"""

import pytest

from battery import (kernel_points, rand_poly, rand_sieve, reference_points,
                     reference_sieve_points, rng_for)
from motivic.config import DEFAULT
from motivic.errors import CapExceeded, FieldMismatch
from motivic.fatpoints import base_point, make_fat_point, tensor_points
from motivic.fields import GF, QQ
from motivic.poly import Ideal, Poly, poly_str
from motivic.schemes import (AffineScheme, CoordMap, adjunction_check,
                             affine_space, arc_of_map, arc_var, count_points,
                             points, product_scheme, truncation_map,
                             weil_restrict)

F3 = GF(3)


def fat(field, k, name=""):
    t = Poly.variable("t", ("t",), field)
    return make_fat_point(("t",), field, [t ** k], name or "t%d" % k)


def parabola(field):
    vars = ("x", "y")
    x = Poly.variable("x", vars, field)
    y = Poly.variable("y", vars, field)
    return AffineScheme("P", Ideal(vars, field, [y - x * x]))


def test_point_counts_over_f3():
    A1 = affine_space(F3, ("x",), "A1")
    assert count_points(A1, base_point(F3)) == 3
    assert count_points(A1, fat(F3, 2)) == 9
    P = parabola(F3)
    assert count_points(P, base_point(F3)) == 3
    assert count_points(P, fat(F3, 2)) == 9


def test_a_space_is_counted_by_the_search():
    # no relations is no shortcut: the search's field check and candidate
    # cap hold, as they do for the space's points
    A = affine_space(GF(2), ("x",), "A")
    for run in (points, count_points):
        with pytest.raises(FieldMismatch):
            run(A, base_point(F3))
    A2 = affine_space(F3, ("x", "y"), "A2")
    for run in (points, count_points):
        with pytest.raises(CapExceeded, match="^enumeration of 4782969 candidates"):
            run(A2, fat(F3, 7))


def test_derived_presentations_keep_the_source_config():
    tight = DEFAULT.with_overrides(max_candidates=8)
    vars = ("x", "y")
    x, y = (Poly.variable(v, vars, F3) for v in vars)
    P = AffineScheme("P", Ideal(vars, F3, [y - x * x], tight))
    assert P == parabola(F3)
    assert weil_restrict(P, fat(F3, 2)).ideal.cfg is P.ideal.cfg
    # 3^4 candidates at k[t]/(t^2): past the tight cap, under the default
    with pytest.raises(CapExceeded):
        points(P, fat(F3, 2))
    assert len(points(parabola(F3), fat(F3, 2))) == 9


def test_points_satisfy_relations():
    P = parabola(F3)
    m = fat(F3, 2)
    # the reference tests each relation through `eval_poly`
    assert points(P, m) == reference_points(P, m)


def test_jet_coordinates_are_free():
    for d in (1, 2):
        Ad = affine_space(QQ, tuple("x%d" % i for i in range(d)), "A%d" % d)
        for n in (1, 2, 3):
            arc = weil_restrict(Ad, fat(QQ, n))
            assert len(arc.vars) == d * n
            assert not arc.ideal.gens
            assert weil_restrict(Ad, fat(QQ, n)).ideal.krull_dimension() == d * n


def test_arc_coordinate_naming():
    A1 = affine_space(QQ, ("x",), "A1")
    arc = weil_restrict(A1, fat(QQ, 3))
    assert arc.vars == ("x_0", "x_1", "x_2")
    assert arc_var("x", 1) == "x_1"


def test_double_point_arc_presentation():
    x = Poly.variable("x", ("x",), QQ)
    D = AffineScheme("D", Ideal(("x",), QQ, [x * x]))
    arc = weil_restrict(D, fat(QQ, 2))
    assert [poly_str(g) for g in arc.ideal.gens] == ["x_0^2", "2*x_0*x_1"]


def test_parabola_arc_presentation():
    arc = weil_restrict(parabola(QQ), fat(QQ, 2))
    assert arc.vars == ("x_0", "x_1", "y_0", "y_1")
    gens = [poly_str(g) for g in arc.ideal.gens]
    assert gens == ["-x_0^2 + y_0", "-2*x_0*x_1 + y_1"]


def test_points_match_the_reference_enumerator():
    # the counting kernel against the vector-level backtracking it replaced:
    # the same points in the same order, for schemes and for sieves
    checked = 0
    for field in (GF(2), GF(3), GF(5)):
        rng = rng_for("kernel", field.char)
        for m in kernel_points(field):
            for _ in range(4):
                vs = ("x", "y")[:rng.randint(1, 2)]
                if field.order ** (len(vs) * m.length) > 4096:
                    vs = vs[:1]
                if field.order ** (len(vs) * m.length) > 4096:
                    continue
                gens = [rand_poly(rng, vs, field, max_deg=3)
                        for _ in range(rng.randint(1, 2))]
                x = AffineScheme("X", Ideal(vs, field, gens))
                assert points(x, m) == reference_points(x, m)
                s = rand_sieve(rng, x)
                assert s.points(m) == reference_sieve_points(s, m)
                checked += 1
    assert checked >= 60


def test_restriction_counts_match_hom_sets():
    A1 = affine_space(F3, ("x",), "A1")
    m = fat(F3, 2)
    arc = weil_restrict(A1, m)
    assert count_points(arc, base_point(F3)) == count_points(A1, m)


def test_adjunction_bijection_for_smooth_and_fat():
    m = fat(GF(2), 2)
    a = fat(GF(2), 2)
    A1 = affine_space(GF(2), ("x",), "A1")
    rep = adjunction_check(A1, m, a)
    assert rep["bijection"] and rep["tensor_count"] == rep["arc_count"] == 16

    x = Poly.variable("x", ("x",), GF(2))
    D = AffineScheme("D", Ideal(("x",), GF(2), [x * x]))
    rep2 = adjunction_check(D, m, a)
    assert rep2["bijection"], rep2

    # a probe of length one gives each arc coordinate one tensor coefficient
    rep3 = adjunction_check(parabola(F3), fat(F3, 2), base_point(F3))
    assert rep3["bijection"] and rep3["tensor_count"] == rep3["arc_count"] == 9


def test_tensor_point_symmetry_in_counts():
    m = fat(GF(2), 2)
    a = fat(GF(2), 3)
    P = parabola(GF(2))
    left = count_points(P, tensor_points(a, m))
    right = count_points(P, tensor_points(m, a))
    assert left == right


def test_truncation_map_drops_high_coefficients():
    A1 = affine_space(F3, ("x",), "A1")
    big, small = fat(F3, 3), fat(F3, 2)
    tr = truncation_map(A1, big, small)
    arc_big = weil_restrict(A1, big)
    k = base_point(F3)
    for p in points(arc_big, k):
        q = tr.apply_point(k, p)
        assert q == p[:2]


def test_arc_of_map_is_coefficientwise():
    A1 = affine_space(QQ, ("x",), "A1")
    x = Poly.variable("x", A1.vars, QQ)
    sq = CoordMap(A1, A1, {"x": x * x})
    arc_sq = arc_of_map(sq, fat(QQ, 2))
    images = [poly_str(arc_sq.images[v]) for v in arc_sq.target.vars]
    assert images == ["x_0^2", "2*x_0*x_1"]


def test_map_relation_respect():
    A1 = affine_space(QQ, ("u",), "A1")
    u = Poly.variable("u", A1.vars, QQ)
    P = parabola(QQ)
    good = CoordMap(A1, P, {"x": u, "y": u * u})
    assert good.respects_relations()
    bad = CoordMap(A1, P, {"x": u, "y": u})
    assert not bad.respects_relations()
    assert CoordMap(P, P, {v: Poly.variable(v, P.vars, QQ) for v in P.vars}) \
        .respects_relations()


def test_map_composition_point_action():
    A1 = affine_space(F3, ("u",), "A1")
    u = Poly.variable("u", A1.vars, F3)
    one = Poly.constant(1, A1.vars, F3)
    sq = CoordMap(A1, A1, {"u": u * u})
    shift = CoordMap(A1, A1, {"u": u + one})
    comp = sq.compose(shift)
    k = base_point(F3)
    for p in points(A1, k):
        assert comp.apply_point(k, p) == sq.apply_point(k, shift.apply_point(k, p))


def test_product_scheme_multiplies_counts():
    A1 = affine_space(F3, ("x",), "A1")
    P = parabola(F3)
    prod, _, _ = product_scheme(A1, P)
    assert count_points(prod, base_point(F3)) == 9


def test_iterated_restriction_names_stay_distinct():
    A1 = affine_space(QQ, ("x",), "A1")
    arc = weil_restrict(A1, fat(QQ, 2))
    tower = weil_restrict(arc, fat(QQ, 2))
    assert len(set(tower.vars)) == 4
    assert not tower.ideal.gens
