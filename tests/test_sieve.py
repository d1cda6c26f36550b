"""Sieves: lattice operations, images, admissible opens, arcs, shapes."""

from fractions import Fraction

import pytest

from battery import (jet_point, kernel_points, mixed_cases, rand_sieve,
                     reference_level_points, reference_member,
                     reference_points, rng_for)
from motivic.config import Config
from motivic.errors import AmbientMismatch, CapExceeded, EvalError, WorkbenchError
from motivic.fatpoints import (PointSystem, SimplicialFatPoint, base_point,
                               jet_rule, make_fat_point)
from motivic.fields import GF, QQ
from motivic.kring import (class_of_sieve, class_of_simplicial, counting_hom,
                           counting_simplicial)
from motivic.poly import Ideal, Poly, poly_str
from motivic.schemes import AffineScheme, CoordMap, affine_space, weil_restrict
from motivic.sieves import (Closed, ConstSieve, DisjointSieve, InterSieve,
                            LevelSieve, LimitSieve, OpenLoc, ProductSieve,
                            UnionSieve, arc_plain_sieve, closed_sieve,
                            continuity_probe, empty_sieve,
                            fiber_product_schemes, full_sieve, image_sieve,
                            is_admissible_open, lift_sieve, open_sieve,
                            sieve_inter, sieve_union, simplicial_arc)
from motivic.topology import evaluate_to_sset

F3 = GF(3)
F2 = GF(2)
A1 = affine_space(F3, ("x",), "A1")
X = Poly.variable("x", A1.vars, F3)
K3 = base_point(F3)


def dual_numbers(field):
    t = Poly.variable("t", ("t",), field)
    return make_fat_point(("t",), field, [t * t], "t2")


class TestPlainLattice:
    def test_counts_at_the_ground_point(self):
        assert closed_sieve(A1, [X]).count(K3) == 1
        assert open_sieve(A1, X).count(K3) == 2
        assert full_sieve(A1).count(K3) == 3
        assert empty_sieve(A1).count(K3) == 0

    def test_union_and_intersection(self):
        vx, dx = closed_sieve(A1, [X]), open_sieve(A1, X)
        assert sieve_union(vx, dx).count(K3) == 3
        assert sieve_inter(vx, dx).count(K3) == 0

    def test_mixed_ambient_is_rejected(self):
        B = affine_space(F3, ("y",), "B")
        with pytest.raises(AmbientMismatch):
            sieve_union(full_sieve(A1), full_sieve(B))

    def test_fat_point_membership_is_not_reduced(self):
        # x = t is neither zero nor a unit at the dual numbers
        t2 = dual_numbers(F3)
        vx, dx = closed_sieve(A1, [X]), open_sieve(A1, X)
        both = sieve_union(vx, dx)
        assert both.count(t2) < full_sieve(A1).count(t2)


class TestMembership:
    def test_member_reads_like_the_eval_poly_reference(self):
        checked = images = 0
        for field in (F2, F3, GF(5)):
            rng = rng_for("member", field.char)
            for m in kernel_points(field):
                if m.length > 4:
                    continue
                for x, s in mixed_cases(field, m, rng, 4):
                    for p in reference_points(x, m):
                        want = reference_member(s.node, x, m, p)
                        assert s.member(m, p) == want, (s, m, p)
                        checked += 1
                    images += "im(" in repr(s)
        assert checked >= 1000
        assert images >= 10

    def test_member_over_the_rationals(self):
        # x = 1 + 2t and y = t/2 at the dual numbers: x is a unit, y is
        # neither zero nor a unit, and xy = y
        A2 = affine_space(QQ, ("x", "y"), "A2")
        x, y = (Poly.variable(v, A2.vars, QQ) for v in A2.vars)
        m = jet_point(QQ, 2)
        point = ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(1, 2)))
        cases = [(closed_sieve(A2, [x * y - y]), True),
                 (closed_sieve(A2, [y]), False),
                 (open_sieve(A2, x), True),
                 (open_sieve(A2, y), False),
                 (sieve_union(open_sieve(A2, y), closed_sieve(A2, [x * y - y])), True),
                 (sieve_inter(open_sieve(A2, x), closed_sieve(A2, [y])), False),
                 (full_sieve(A2), True), (empty_sieve(A2), False)]
        rng = rng_for("member-q")
        cases += [(s, reference_member(s.node, A2, m, point))
                  for s in (rand_sieve(rng, A2) for _ in range(20))]
        for s, want in cases:
            assert reference_member(s.node, A2, m, point) == want, s
            assert s.member(m, point) == want, s


class TestImages:
    def test_image_of_squaring(self):
        sq = CoordMap(A1, A1, {"x": X * X})
        im = image_sieve(sq)
        assert im.count(K3) == 2
        assert im.points(K3) == (((0,),), ((1,),))

    def test_open_pullback_is_substitution(self):
        sq = CoordMap(A1, A1, {"x": X * X})
        assert open_sieve(A1, X).pullback(sq).count(K3) == 2

    def test_image_pullback_uses_a_fiber_product(self):
        sq = CoordMap(A1, A1, {"x": X * X})
        one = Poly.constant(1, A1.vars, F3)
        shift = CoordMap(A1, A1, {"x": X + one})
        got = image_sieve(sq).pullback(shift).points(K3)
        assert got == (((0,),), ((2,),))


class TestAdmissibleOpens:
    def test_host_cut_with_opens_is_admissible(self):
        host = full_sieve(A1)
        adm = sieve_inter(host, open_sieve(A1, X))
        assert is_admissible_open(adm, host)
        two = sieve_inter(host, sieve_union(open_sieve(A1, X), open_sieve(A1, X - 1)))
        assert is_admissible_open(two, host)
        assert not is_admissible_open(closed_sieve(A1, [X]), host)

    def test_degenerate_open_is_rejected(self):
        fat = AffineScheme("T", Ideal(("x",), F3, [X * X]))
        host = full_sieve(fat)
        bad = sieve_inter(host, open_sieve(fat, X * X))
        assert not is_admissible_open(bad, host)

    def test_continuity_counterexample_is_structural(self):
        host = full_sieve(A1)
        adm = sieve_inter(host, open_sieve(A1, X))
        const0 = CoordMap(A1, A1, {"x": Poly.zero(A1.vars, F3)})
        rep = continuity_probe(const0, K3, host, adm)
        assert not rep["ok"]
        assert rep["admissible_before"] and not rep["admissible_after"]
        assert rep["semantic"] is True

    def test_identity_preserves_admissibility(self):
        host = full_sieve(A1)
        adm = sieve_inter(host, open_sieve(A1, X))
        assert continuity_probe(CoordMap(A1, A1, {"x": X}), K3, host, adm)["ok"]


class TestArcsOfSieves:
    def test_closed_condition_expands_to_coefficient_rows(self):
        AQ = affine_space(QQ, ("x",), "A1Q")
        xq = Poly.variable("x", AQ.vars, QQ)
        arc = arc_plain_sieve(closed_sieve(AQ, [xq * xq]), dual_numbers(QQ))
        assert isinstance(arc.node, Closed)
        assert len(arc.node.gens) == 2

    def test_open_condition_keeps_the_residue(self):
        AQ = affine_space(QQ, ("x",), "A1Q")
        xq = Poly.variable("x", AQ.vars, QQ)
        arc = arc_plain_sieve(open_sieve(AQ, xq), dual_numbers(QQ))
        assert isinstance(arc.node, OpenLoc)
        assert poly_str(arc.node.g) == "x_0"

    def test_arc_counts_match_membership(self):
        t2 = dual_numbers(F3)
        dx = open_sieve(A1, X)
        arc = arc_plain_sieve(dx, t2)
        assert arc.count(K3) == dx.count(t2)

    def test_the_arc_of_an_image_counts_like_the_image(self):
        # the parabola's 9 arcs, the 9 arcs on x = 0, and one arc in both
        t2 = dual_numbers(F3)
        X2 = affine_space(F3, ("x", "y"), "X2")
        U = affine_space(F3, ("u",), "U")
        u = Poly.variable("u", U.vars, F3)
        f = CoordMap(U, X2, {"x": u, "y": u * u})
        s = sieve_union(image_sieve(f),
                        closed_sieve(X2, [Poly.variable("x", X2.vars, F3)]))
        arc = arc_plain_sieve(s, t2)
        assert s.count(t2) == arc.count(K3) == 17


class TestSimplicialShapes:
    def test_level_counts_by_shape(self):
        B = affine_space(F2, ("x",), "B")
        k2 = base_point(F2)
        fib = lift_sieve(full_sieve(B), "fiber")
        sym = lift_sieve(full_sieve(B), "sym")
        triv = lift_sieve(full_sieve(B), "trivial")
        assert [fib.count(k2, n) for n in range(4)] == [2, 4, 8, 16]
        assert [sym.count(k2, n) for n in range(4)] == [2, 3, 4, 5]
        assert [triv.count(k2, n) for n in range(4)] == [2, 2, 2, 2]

    def test_structure_maps_land_inside(self):
        B = affine_space(F2, ("x",), "B")
        k2 = base_point(F2)
        xb = Poly.variable("x", B.vars, F2)
        for s in (lift_sieve(open_sieve(B, xb), "fiber"),
                  lift_sieve(full_sieve(B), "fiber"),
                  lift_sieve(full_sieve(B), "sym")):
            # top 3 checks the degeneracies of level 2 as well; a face or
            # degeneracy that leaves the sieve raises EvalError
            evaluate_to_sset(s, k2, top=3)

    def test_level_presentation_of_a_power(self):
        B = affine_space(F2, ("x",), "B")
        xb = Poly.variable("x", B.vars, F2)
        db = lift_sieve(open_sieve(B, xb), "fiber")
        assert len(db.level_presentation(1).ambient.vars) == 2

    def test_image_leaves_carry_into_power_and_product_levels(self):
        U = affine_space(F3, ("u",), "U")
        u = Poly.variable("u", U.vars, F3)
        squares = image_sieve(CoordMap(U, A1, {"x": u * u}))
        fib = lift_sieve(squares, "fiber")
        prod = ProductSieve(ConstSieve(squares), ConstSieve(full_sieve(A1)))
        for s, n, want in ((fib, 1, 4), (fib, 2, 8), (prod, 0, 6)):
            assert s.count(K3, n) == s.level_presentation(n).count(K3) == want

    def test_symmetric_shape_has_no_level_presentation(self):
        B = affine_space(F2, ("x",), "B")
        sym = lift_sieve(full_sieve(B), "sym")
        assert sym.level_presentation(1) is None


def every_shape(field):
    """One shape of each class over the line, by name: the three lifts, the
    four two-sided shapes and a level list."""
    line = affine_space(field, ("x",), "A1")
    x = Poly.variable("x", line.vars, field)
    a, b = closed_sieve(line, [x * x]), open_sieve(line, x - 1)
    fa, fb = lift_sieve(a, "fiber"), lift_sieve(b, "fiber")
    return {"trivial": lift_sieve(b, "trivial"), "fiber": fb,
            "sym": lift_sieve(b, "sym"),
            "product": ProductSieve(lift_sieve(a, "trivial"), fb),
            "disjoint": DisjointSieve(fa, lift_sieve(b, "trivial")),
            "union": UnionSieve(fa, fb), "intersection": InterSieve(fa, fb),
            "levels": LevelSieve([a, b, full_sieve(line)])}


class TestShapesAnswerForThemselves:
    """Each shape presents its levels and restricts itself along a fat
    point, at the points of `kernel_points` of length at most 3."""

    @pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
    def test_level_presentations_and_arcs(self, field):
        k = base_point(field)
        points = [m for m in kernel_points(field) if m.length <= 3]
        assert len(points) == 3
        shapes = every_shape(field)
        line = shapes["trivial"].scheme
        for name, s in shapes.items():
            assert s.scheme is line, name
            for m in points:
                for n in range(3):
                    pres = s.level_presentation(n)
                    assert (pres is None) == (name in ("sym", "disjoint")), name
                    if pres is not None:
                        assert pres.count(m) == s.count(m, n), (name, m, n)
                if name == "levels":
                    with pytest.raises(WorkbenchError,
                                       match="^indexed family carries no arc transform$"):
                        s.arc(m)
                    continue
                arc = s.arc(m)
                assert type(arc) is type(s)
                # restriction along m is right adjoint to the product with m
                for n in range(3):
                    assert arc.count(k, n) == s.count(m, n), (name, m, n)

    @pytest.mark.parametrize("name", list(every_shape(F3)))
    def test_a_shape_names_itself_and_the_levels_it_cuts(self, name):
        # key() names a shape and ambient_key() the levels it cuts: a shape
        # built again has the same keys and no other shape shares its key;
        # a union with itself cuts its levels; each listed point is a member
        shapes, again = every_shape(F3), every_shape(F3)
        s = shapes[name]
        assert s.key() == again[name].key()
        assert s.ambient_key() == again[name].ambient_key()
        assert hash(s.key()) == hash(again[name].key())
        assert [o for o, t in shapes.items() if t.key() == s.key()] == [name]
        union = UnionSieve(s, again[name])
        assert union.key() == ("union", s.key(), s.key())
        assert union.ambient_key() == s.ambient_key()
        m = dual_numbers(F3)
        for n in range(3):
            assert all(s.member(m, n, p) for p in s.level_points(m, n)), n

    @pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
    def test_truncations_and_level_dimensions(self, field):
        # a shape knows each level's dimension without presenting it: where
        # a level is presented, its ambient has that Krull dimension
        shapes = every_shape(field)
        shapes["product with a list"] = ProductSieve(shapes["levels"],
                                                     shapes["trivial"])
        presented = 0
        for name, s in shapes.items():
            for n in range(3):
                pres = s.level_presentation(n)
                if pres is not None:
                    got = pres.ambient.ideal.krull_dimension()
                    assert s.dimension(n) == got, (name, n)
                    presented += 1
            if isinstance(s, (ProductSieve, DisjointSieve, UnionSieve,
                              InterSieve)):
                assert s.truncation == min(s.left.truncation,
                                           s.right.truncation), name
        assert presented == 7 * 3
        sym, line = shapes["sym"], shapes["sym"].scheme
        assert line.ideal.krull_dimension() == 1
        for n in range(3):
            assert sym.dimension(n) == (n + 1) * line.ideal.krull_dimension()
            # the larger side's: the fiber power's, not the line's
            assert shapes["disjoint"].dimension(n) == n + 1
        assert shapes["levels"].truncation == 2
        assert shapes["product with a list"].truncation == 2
        assert shapes["trivial"].truncation == 4

    @pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
    def test_a_presented_level_counts_like_the_class_of_its_shape(self, field):
        # the class of a presented level, the shape's class at that level
        # and the shape's own count agree; sym and disjoint present no
        # level, so only their class is checked
        points = [m for m in kernel_points(field) if m.length <= 3]
        checked = 0
        for name, s in every_shape(field).items():
            z = class_of_simplicial(s)
            for m in points:
                for n in range(3):
                    want = s.count(m, n)
                    assert counting_simplicial(z, m, n) == want, (name, m, n)
                    pres = s.level_presentation(n)
                    if pres is not None:
                        got = counting_hom(class_of_sieve(pres), m)
                        assert got == want, (name, m, n)
                    checked += 1
        assert checked == 8 * 3 * 3


class TestLevelPoints:
    @pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
    def test_every_shape_matches_enumerate_then_filter(self, field):
        # seeded const, fiber, sym, union, inter, product and disjoint sieves
        # at k and k[t]/(t^2), levels 0-2, against the reference, order included
        x, y = (Poly.variable(v, ("x", "y"), field) for v in ("x", "y"))
        schemes = (affine_space(field, ("x",), "A1"),
                   AffineScheme("cross", Ideal(("x", "y"), field, [x * y])))
        fat = (base_point(field), dual_numbers(field))
        rng = rng_for("level-points", field.char)
        tags = ("trivial", "fiber", "sym")
        # the reference lists every candidate before filtering; a small cap
        # keeps it quick, and a case past the cap is skipped
        cfg = Config(max_candidates=4000)
        checked = {}
        for _ in range(3):
            scheme = rng.choice(schemes)
            plain = [rand_sieve(rng, scheme, depth=1) for _ in range(2)]
            for tag in tags:
                a, b = (lift_sieve(p, tag) for p in plain)
                other = lift_sieve(plain[1], rng.choice(tags))
                for s in (a, UnionSieve(a, b), InterSieve(a, b),
                          ProductSieve(a, other), DisjointSieve(a, other)):
                    for m in fat:
                        for n in range(3):
                            try:
                                want = reference_level_points(s, m, n, cfg)
                            except CapExceeded:
                                continue
                            assert s.level_points(m, n) == want
                            name = type(s).__name__
                            checked[name] = checked.get(name, 0) + 1
        assert len(checked) == 6 and min(checked.values()) >= 8

    def test_power_and_product_caps_count_member_tuples(self):
        small = Config(max_candidates=100)
        line = affine_space(F3, ("x",), "A1", small)
        vx = closed_sieve(line, [Poly.variable("x", line.vars, F3)])
        fib = lift_sieve(vx, "fiber")
        assert fib.count(K3, 4) == 1
        assert ProductSieve(lift_sieve(vx, "trivial"), fib).count(K3, 3) == 1
        F5 = GF(5)
        line5 = affine_space(F5, ("x",), "A1", small)
        with pytest.raises(CapExceeded, match="power level too large to enumerate"):
            lift_sieve(full_sieve(line5), "fiber").count(base_point(F5), 3)
        # the symmetric shape builds C(5 + 3, 4) multisets, not 5^4 tuples
        assert lift_sieve(full_sieve(line5), "sym").count(base_point(F5), 3) == 70


class TestSimplicialArcs:
    def test_fiber_shape_gives_an_indexed_family(self):
        AQ = affine_space(QQ, ("x",), "A1Q")
        xq = Poly.variable("x", AQ.vars, QQ)
        sfp = SimplicialFatPoint("fiber", dual_numbers(QQ), truncation=2)
        fam = simplicial_arc(closed_sieve(AQ, [xq * xq]), sfp)
        assert isinstance(fam, LevelSieve)
        with pytest.raises(EvalError, match="indexed family carries no structure maps"):
            fam.face(1, 0, ((0,),))
        assert ([len(fam.level_presentation(n).ambient.vars) for n in range(3)]
                == [2, 4, 8])

    def test_trivial_shape_keeps_structure(self):
        AQ = affine_space(QQ, ("x",), "A1Q")
        xq = Poly.variable("x", AQ.vars, QQ)
        sfp = SimplicialFatPoint("trivial", dual_numbers(QQ))
        fam = simplicial_arc(closed_sieve(AQ, [xq * xq]), sfp)
        assert isinstance(fam, ConstSieve)

    def test_symmetric_shape_is_refused(self):
        AQ = affine_space(QQ, ("x",), "A1Q")
        sfp = SimplicialFatPoint("sym", dual_numbers(QQ))
        with pytest.raises(WorkbenchError):
            simplicial_arc(full_sieve(AQ), sfp)


class TestRelativeSieves:
    def test_fiber_product_counts(self):
        A2 = affine_space(F3, ("x", "y"), "A2")
        xx = Poly.variable("x", A2.vars, F3)
        pr1 = CoordMap(A2, A1, {"x": xx})
        sq = CoordMap(A1, A1, {"x": X * X})
        total, to_a, to_b = fiber_product_schemes(pr1, sq)
        pts = full_sieve(total).points(K3)
        assert len(pts) == full_sieve(total).count(K3) == 9
        # each point lies over one base point through both sides
        assert all(pr1.apply_point(K3, to_a.apply_point(K3, p))
                   == sq.apply_point(K3, to_b.apply_point(K3, p)) for p in pts)


class TestLimitFamilies:
    def test_full_arc_family_validates(self):
        jets = PointSystem(rule=jet_rule(F3))
        rep = LimitSieve(A1, jets).battery_validate(3)
        assert rep["ok"] and not rep["skipped"]

    def test_incompatible_family_is_caught(self):
        jets = PointSystem(rule=jet_rule(F3))

        def bad_rule(m):
            arc = weil_restrict(A1, m)
            if m.length % 2 == 0:
                gens = tuple(Poly.variable(v, arc.vars, F3) for v in arc.vars)
                return ConstSieve(closed_sieve(arc, gens))
            return ConstSieve(full_sieve(arc))

        rep = LimitSieve(A1, jets, rule=bad_rule).battery_validate(3)
        assert not rep["ok"] and rep["issues"]

    def test_a_check_that_cannot_run_is_listed(self):
        t = Poly.variable("t", ("t",), F3)
        members = [make_fat_point(("t",), F3, [t ** k], "t%d" % k) for k in (3, 2)]
        rep = LimitSieve(A1, PointSystem(members=members)).battery_validate(3)
        assert rep["ok"] and not rep["issues"]
        assert len(rep["skipped"]) == 1
        assert rep["skipped"][0].startswith("members 0-1: ")

    def test_a_member_outside_the_base_arcs_is_an_issue(self):
        # the base is D(x), the members are the whole arc schemes
        base = open_sieve(A1, Poly.variable("x", A1.vars, F3))
        jets = PointSystem(rule=jet_rule(F3))
        rep = LimitSieve(base, jets,
                         rule=lambda m: full_sieve(weil_restrict(A1, m))).battery_validate(2)
        assert not rep["ok"] and not rep["skipped"]
        assert "member 0 escapes the base arcs at level 0" in rep["issues"]

    def test_a_member_on_another_points_arcs_is_an_issue(self):
        # member 0 is k[t]/(t), whose arcs are presented as the base point's
        jets = PointSystem(rule=jet_rule(F3))
        rep = LimitSieve(A1, jets,
                         rule=lambda m: full_sieve(weil_restrict(A1, K3))).battery_validate(2)
        assert not rep["ok"]
        assert rep["issues"] == ["member 1 lives off the arc ambient"]
