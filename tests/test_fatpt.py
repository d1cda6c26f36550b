"""Fat points: quotient algebras, validation, tensors, systems of points."""

import pytest

from motivic.config import DEFAULT
from motivic.errors import NotFinite, NotLocal, WorkbenchError
from motivic.fatpoints import (PointSystem, SimplicialFatPoint, base_point,
                               jet_rule, make_fat_point, tensor_points,
                               truncation_compatible)
from motivic.fields import GF, QQ
from motivic.poly import Poly

T = Poly.variable("t", ("t",), QQ)


def dual_numbers(field=QQ):
    t = Poly.variable("t", ("t",), field)
    return make_fat_point(("t",), field, [t * t], "t2")


def test_base_point_has_length_one():
    k = base_point(QQ)
    assert k.length == 1


def test_dual_numbers_have_length_two():
    m = dual_numbers()
    assert m.length == 2
    t_vec = m.nf_vector(T)
    assert m.is_zero_vec(m.mul(t_vec, t_vec))
    assert not m.is_unit(t_vec)
    assert m.is_unit(m.unit_vector())


def test_non_nilpotent_coordinate_is_rejected():
    with pytest.raises(NotLocal):
        make_fat_point(("t",), QQ, [T * T - T])


def test_unit_ideal_is_rejected():
    with pytest.raises(NotLocal):
        make_fat_point(("t",), QQ, [Poly.constant(1, ("t",), QQ)])


def test_infinite_quotient_is_rejected():
    with pytest.raises((NotFinite, NotLocal)):
        make_fat_point(("t",), QQ, [])


def test_tensor_multiplies_lengths():
    a = dual_numbers()
    t3 = make_fat_point(("t",), QQ, [T ** 3], "t3")
    assert tensor_points(a, t3).length == 6
    assert tensor_points(a, base_point(QQ)).length == 2


def test_jet_rule_lengths_and_cap_threading():
    rule = jet_rule(QQ)
    assert [rule(i).length for i in range(1, 5)] == [1, 2, 3, 4]
    wide = DEFAULT.with_overrides(max_degree=10)
    assert jet_rule(QQ, cfg=wide)(10).length == 10


def test_two_variable_fat_point():
    a, b = (Poly.variable(v, ("a", "b"), GF(2)) for v in ("a", "b"))
    m = make_fat_point(("a", "b"), GF(2), [a * a, a * b, b * b], "square0")
    assert m.length == 3


def test_simplicial_levels_by_tag():
    m = dual_numbers()
    fib = SimplicialFatPoint("fiber", m, truncation=3)
    assert [fib.level(n).length for n in range(3)] == [2, 4, 8]
    triv = SimplicialFatPoint("trivial", m)
    assert all(triv.level(n).length == 2 for n in range(3))
    sym = SimplicialFatPoint("sym", m)
    with pytest.raises(WorkbenchError):
        sym.level(1)


def test_point_system_rule_vs_explicit():
    jets = PointSystem(rule=jet_rule(QQ))
    assert not jets.finite
    assert [m.length for m in jets.materialize(3)] == [1, 2, 3]
    assert first_unnested(jets, 4) is None

    fixed = PointSystem(members=[dual_numbers()])
    assert fixed.finite
    assert len(fixed.materialize(8)) == 1

    with pytest.raises(WorkbenchError):
        PointSystem()
    with pytest.raises(WorkbenchError):
        PointSystem(members=[dual_numbers()], rule=jet_rule(QQ))


def first_unnested(system, horizon):
    """The first index whose member is not a truncation of the next, or None."""
    ms = system.materialize(horizon)
    return next((i for i in range(len(ms) - 1)
                 if not truncation_compatible(ms[i], ms[i + 1])), None)


def test_chain_check_catches_non_nested_members():
    t2 = dual_numbers()
    t3 = make_fat_point(("t",), QQ, [T ** 3], "t3")
    assert first_unnested(PointSystem(members=[t3, t2]), 2) == 0
    assert first_unnested(PointSystem(members=[t2, t3]), 2) is None


def test_truncation_compatibility():
    t2 = dual_numbers()
    t3 = make_fat_point(("t",), QQ, [T ** 3], "t3")
    assert truncation_compatible(t2, t3)
    assert not truncation_compatible(t3, t2)
