"""Limit measures: stabilization windows, lax variants, indexed mode."""

import pytest

from motivic import measures
from motivic.config import DEFAULT, Config
from motivic.errors import CapExceeded, EvalError
from motivic.fatpoints import (PointSystem, SimplicialFatPoint, base_point,
                               jet_rule, make_fat_point)
from motivic.fields import GF, QQ
from motivic.kring import (class_of_simplicial, class_str, kclass_one,
                           kclass_zero, lefschetz, level_class, lift_const,
                           lift_power)
from motivic.measures import (MeasureQuery, counting_consistency,
                              finite_measure, indexed_mode,
                              lax_measure, limit_measure, stable_set_measure)
from motivic.poly import Ideal, Poly
from motivic.schemes import AffineScheme, affine_space, weil_restrict
from motivic.sieves import (ConstSieve, DisjointSieve, LevelSieve, LimitSieve,
                            PowerSieve, ProductSieve, closed_sieve, empty_sieve,
                            full_sieve, lift_sieve, presented_levels,
                            simplicial_arc)

A1 = affine_space(QQ, ("x",), "A1")
L = lefschetz(QQ)


def fat(field, k):
    t = Poly.variable("t", ("t",), field)
    return make_fat_point(("t",), field, [t ** k], "t%d" % k)


def jets(field, cfg=DEFAULT):
    return PointSystem(rule=jet_rule(field, cfg=cfg))


class TestFiniteMeasure:
    def test_line_at_dual_numbers(self):
        assert finite_measure(A1, fat(QQ, 2)) == L * L

    def test_point_and_empty(self):
        pt = AffineScheme("pt", Ideal((), QQ, []))
        assert finite_measure(pt, fat(QQ, 2)) == kclass_one(QQ)
        assert finite_measure(empty_sieve(A1), fat(QQ, 2)) == kclass_zero(QQ)


class TestLimitMeasure:
    def test_full_arcs_normalize_to_one(self):
        for d in (1, 2, 3):
            Ad = affine_space(QQ, tuple("x%d" % i for i in range(d)), "A%d" % d)
            rep = limit_measure(MeasureQuery(LimitSieve(Ad, jets(QQ)), Q=1))
            assert rep.stabilized
            assert rep.value == lift_const(kclass_one(QQ))

    def test_origin_arcs_give_inverse_lefschetz(self):
        def origin_rule(m):
            arc = weil_restrict(A1, m)
            first = Poly.variable("x_0", arc.vars, QQ)
            return ConstSieve(closed_sieve(arc, [first]))

        fam = LimitSieve(A1, jets(QQ), rule=origin_rule)
        rep = limit_measure(MeasureQuery(fam, Q=1))
        assert rep.stabilized
        assert rep.value == lift_const(lefschetz(QQ, -1))

    def test_singleton_chain_at_rate_zero_is_the_finite_measure(self):
        m = fat(QQ, 2)
        vx = closed_sieve(A1, [Poly.variable("x", A1.vars, QQ)])
        fam = LimitSieve(vx, PointSystem(members=[m]))
        rep = limit_measure(MeasureQuery(fam, Q=0))
        assert rep.stabilized
        assert rep.value == lift_const(finite_measure(vx, m))

    def test_empty_family_measures_zero(self):
        fam = LimitSieve(empty_sieve(A1), jets(QQ))
        rep = limit_measure(MeasureQuery(fam, Q=1))
        assert rep.stabilized and rep.value.is_zero()

    def test_growing_family_at_rate_zero_is_indeterminate(self):
        rep = limit_measure(MeasureQuery(LimitSieve(A1, jets(QQ)), Q=0))
        assert not rep.stabilized

    def test_horizon_extension_keeps_the_verdict(self):
        wide = DEFAULT.with_overrides(max_degree=10)
        fam = LimitSieve(A1, jets(QQ, cfg=wide))
        rep = limit_measure(MeasureQuery(fam, Q=1, horizon=10))
        assert rep.stabilized and rep.value == lift_const(kclass_one(QQ))

    def test_query_validation(self):
        fam = LimitSieve(A1, jets(QQ))
        with pytest.raises(EvalError, match="^Q must be nonnegative$"):
            MeasureQuery(fam, Q=-1)
        with pytest.raises(EvalError, match="^stability window must be at least 2$"):
            MeasureQuery(fam, Q=1, window=1)
        with pytest.raises(EvalError,
                           match="^horizon must cover the stability window$"):
            MeasureQuery(fam, Q=1, horizon=2, window=3)

    def test_a_plain_sieve_rule_measures_as_its_constant_shape(self):
        # the arcs at the origin, given as a plain sieve
        def origin_rule(m):
            arc = weil_restrict(A1, m)
            return closed_sieve(arc, [Poly.variable("x_0", arc.vars, QQ)])

        rep = limit_measure(MeasureQuery(LimitSieve(A1, jets(QQ), rule=origin_rule),
                                         Q=1))
        assert rep.stabilized and rep.value == lift_const(lefschetz(QQ, -1))

    @pytest.mark.parametrize("field", [GF(3), QQ], ids=["F3", "Q"])
    def test_an_untwisted_member_is_its_class(self, field):
        # at Q = 0 with no lax term the value is the member's class, so a
        # symmetric power, whose levels have no affine presentation, measures
        line = affine_space(field, ("x",), "A1")
        fam = LimitSieve(lift_sieve(full_sieve(line), "sym"), jets(field))
        rep = limit_measure(MeasureQuery(fam, Q=0, horizon=4, window=2))
        assert [v for _, v in rep.sequence] == [
            lift_power(lefschetz(field, n), symmetric=True) for n in range(1, 5)]


# the line under skeletal level 2: its arcs and their shapes carry that config
LINE2 = affine_space(QQ, ("x",), "A1", Config(skeletal_level=2))


def fiber_member(m):
    return lift_sieve(full_sieve(weil_restrict(LINE2, m)), "fiber")


def product_member(m):
    arc = weil_restrict(LINE2, m)
    return ProductSieve(ConstSieve(full_sieve(arc)), ConstSieve(full_sieve(arc)))


class TestShapedMembers:
    """Fiber-power and product members: level n of the ambient is a product."""

    @pytest.mark.parametrize("rule", [fiber_member, product_member],
                             ids=["fiber", "product"])
    def test_full_arcs_normalize_to_one_at_every_level(self, rule):
        fam = LimitSieve(LINE2, jets(QQ), rule=rule)
        rep = limit_measure(MeasureQuery(fam, Q=1))
        assert rep.stabilized and rep.since == 0
        for n in range(3):
            assert level_class(rep.value, n) == kclass_one(QQ)

    def test_a_product_is_classed_to_the_skeletal_level_of_its_scheme(self):
        # a fiber shape times a constant one leaves the closed shapes, so
        # its levels are materialized: 3 of them, as `[a] * [b]` has under
        # --skeletal-level 2
        line = full_sieve(LINE2)
        z = class_of_simplicial(ProductSieve(lift_sieve(line, "fiber"),
                                             lift_sieve(line, "trivial")))
        assert [len(sym[1]) for sym in z.terms if sym[0] == "levels"] == [3]


def twice_the_arcs(shape):
    """A rule whose member at m is built by `shape` from the full arcs of
    the line at m, as a constant shape."""

    def rule(m):
        arc = weil_restrict(affine_space(m.field, ("x",), "A1"), m)
        return shape(ConstSieve(full_sieve(arc)))

    return rule


def twisted(rule, field):
    line = affine_space(field, ("x",), "A1")
    fam = LimitSieve(line, jets(field), rule=rule)
    return limit_measure(MeasureQuery(fam, Q=1, horizon=4, window=2))


@pytest.mark.parametrize("field", [GF(3), QQ], ids=["F3", "Q"])
class TestTheShapeDecidesItsLevels:
    """A member's shape gives its truncation and each level's dimension; the
    measure presents no level to learn them."""

    def test_a_disjoint_union_of_two_lines_measures_two(self, field):
        rep = twisted(twice_the_arcs(lambda c: DisjointSieve(c, c)), field)
        assert rep.stabilized and class_str(rep.value) == "2"

    def test_a_product_with_a_level_list_stops_at_the_list_end(self, field):
        def shape(c):
            return ProductSieve(LevelSieve([c.base, c.base]), c)

        rep = twisted(twice_the_arcs(shape), field)
        assert rep.stabilized and class_str(rep.value) == "levels(1; 1)"

    def test_a_twisted_fiber_power_presents_no_level(self, field, monkeypatch):
        def refuse(self, n):
            raise AssertionError("level %d presented" % n)

        monkeypatch.setattr(PowerSieve, "level_presentation", refuse)
        line = affine_space(field, ("x",), "A1")
        fam = LimitSieve(lift_sieve(full_sieve(line), "fiber"), jets(field))
        rep = limit_measure(MeasureQuery(fam, Q=1, horizon=4, window=2))
        assert rep.stabilized
        assert class_str(rep.value) == "levels(1; 1; 1; 1; 1)"

    def test_a_twisted_symmetric_power_still_has_no_level_class(self, field):
        # its dimensions are known, but its class has no plain levels to twist
        line = affine_space(field, ("x",), "A1")
        fam = LimitSieve(lift_sieve(full_sieve(line), "sym"), jets(field))
        with pytest.raises(EvalError, match="symmetric shape has no level"):
            limit_measure(MeasureQuery(fam, Q=1, horizon=4, window=2))

    def test_a_level_list_is_classed_to_its_own_end(self, field):
        # six levels, one more than the default skeletal level gives
        assert DEFAULT.skeletal_level == 4
        six = twice_the_arcs(lambda c: LevelSieve([c.base] * 6))
        k0 = base_point(field)
        z = class_of_simplicial(six(k0))
        assert [len(sym[1]) for sym in z.terms] == [6]
        rep = twisted(six, field)
        assert rep.stabilized
        assert class_str(rep.value) == "levels(%s)" % "; ".join(["1"] * 6)


def truncated_fiber_member(m):
    """Arcs of A1 over F3 along a fiber shape cut at level 1, below the
    default skeletal level."""
    dual = fat(GF(3), 2)
    A1f = affine_space(GF(3), ("x",), "A1f")
    return simplicial_arc(full_sieve(weil_restrict(A1f, m)),
                          SimplicialFatPoint("fiber", dual, truncation=1))


class TestTruncatedMembers:
    """A level-list member shorter than the skeletal level is measured up to
    its own truncation."""

    def family(self):
        A1f = affine_space(GF(3), ("x",), "A1f")
        return LimitSieve(A1f, jets(GF(3)), rule=truncated_fiber_member)

    def test_measures_instead_of_raising(self):
        assert DEFAULT.skeletal_level > 1
        rep = limit_measure(MeasureQuery(self.family(), Q=1, horizon=4, window=2))
        assert rep.stabilized and rep.since == 0
        for n in range(2):
            assert level_class(rep.value, n) == kclass_one(GF(3))

    def test_indexed_breakdown_stops_at_the_truncation(self):
        rep = indexed_mode(MeasureQuery(self.family(), Q=1, horizon=4, window=2))
        assert rep.stabilized
        assert [e["level"] for e in rep.per_level] == [0, 1]
        assert rep.diagnostics == ["per-level breakdown stops at level 2: "
                                   "level 2 beyond materialized tuple"]


class TestLaxMeasure:
    def test_zero_correction_is_verbatim(self):
        fam = LimitSieve(A1, jets(QQ))
        plain = limit_measure(MeasureQuery(fam, Q=1))
        lax0 = lax_measure(MeasureQuery(fam, Q=1, lax_rule=lambda m: 0))
        assert lax0.stabilized == plain.stabilized
        assert lax0.value == plain.value
        assert [v for _, v in lax0.sequence] == [v for _, v in plain.sequence]

    def test_length_correction_cancels_the_growth(self):
        fam = LimitSieve(A1, jets(QQ))
        rep = lax_measure(MeasureQuery(fam, Q=0, lax_rule=lambda m: m.length))
        assert rep.stabilized and rep.value == lift_const(kclass_one(QQ))

    def test_divergent_correction_is_indeterminate(self):
        fam = LimitSieve(A1, jets(QQ))
        rep = lax_measure(MeasureQuery(fam, Q=0, lax_rule=lambda m: 2 * m.length))
        assert not rep.stabilized


class TestStableSets:
    def test_validated_family_over_a_finite_field(self):
        F3 = GF(3)
        A1f = affine_space(F3, ("x",), "A1f")
        rep = stable_set_measure(LimitSieve(A1f, jets(F3)), horizon=6)
        assert rep.stabilized and rep.value == lift_const(kclass_one(F3))

    def test_counting_consistency_of_the_value(self):
        F3 = GF(3)
        A1f = affine_space(F3, ("x",), "A1f")
        rep = stable_set_measure(LimitSieve(A1f, jets(F3)), horizon=6)
        k3 = base_point(F3)
        assert counting_consistency(rep, [(k3, 0), (k3, 2)], window=3)

    def test_skipped_checks_reach_the_diagnostics(self):
        F3 = GF(3)
        A1f = affine_space(F3, ("x",), "A1f")
        members = PointSystem(members=[fat(F3, 3), fat(F3, 2)])
        rep = stable_set_measure(LimitSieve(A1f, members), horizon=3)
        assert rep.stabilized
        assert rep.diagnostics[0] == "family validated to horizon 3"
        assert rep.diagnostics[1].startswith("validation skipped members 0-1: ")

    def test_incompatible_family_is_refused(self):
        F3 = GF(3)
        A1f = affine_space(F3, ("x",), "A1f")

        def bad_rule(m):
            arc = weil_restrict(A1f, m)
            if m.length % 2 == 0:
                gens = tuple(Poly.variable(v, arc.vars, F3) for v in arc.vars)
                return ConstSieve(closed_sieve(arc, gens))
            return ConstSieve(closed_sieve(arc, []))

        fam = LimitSieve(A1f, jets(F3), rule=bad_rule)
        with pytest.raises(EvalError):
            stable_set_measure(fam, horizon=4)


class TestIndexedMode:
    def test_verdict_coincides_with_the_structured_one(self):
        F3 = GF(3)
        A1f = affine_space(F3, ("x",), "A1f")
        fam = LimitSieve(A1f, jets(F3))
        rep_i = indexed_mode(MeasureQuery(fam, Q=1))
        rep_p = limit_measure(MeasureQuery(fam, Q=1))
        assert rep_i.mode == "indexed"
        assert rep_i.stabilized == rep_p.stabilized
        assert rep_i.since == rep_p.since
        assert rep_i.per_level and all(e["stabilized"] for e in rep_i.per_level)

    def test_forget_structure_preserves_level_counts(self):
        F3 = GF(3)
        A1f = affine_space(F3, ("x",), "A1f")
        k3 = base_point(F3)
        from motivic.sieves import lift_sieve
        fib = lift_sieve(full_sieve(A1f), "fiber")
        flat = LevelSieve(presented_levels(fib))
        for n in range(3):
            assert flat.count(k3, n) == fib.count(k3, n)

    def test_a_stopped_breakdown_is_reported(self, monkeypatch):
        F3 = GF(3)
        A1f = affine_space(F3, ("x",), "A1f")
        real = measures.level_class

        def level_class_to_one(z, n):
            if n > 1:
                raise CapExceeded("level %d beyond materialized tuple" % n)
            return real(z, n)

        monkeypatch.setattr(measures, "level_class", level_class_to_one)
        rep = indexed_mode(MeasureQuery(LimitSieve(A1f, jets(F3)), Q=1))
        assert [e["level"] for e in rep.per_level] == [0, 1]
        assert rep.diagnostics == ["per-level breakdown stops at level 2: "
                                   "level 2 beyond materialized tuple"]
