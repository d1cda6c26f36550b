"""The point search against the reference enumerator.

`schemes.search` lists and counts the points of a scheme, of a plain sieve
and of a level of a level list, with the sieve's leaves read inside the
search. Every answer here is compared with `tests/battery.py`, which lists
the ambient's points vector by vector and tests each leaf through
`eval_poly`, image leaves included.
"""

import pytest

from battery import (jet_point, kernel_points, mixed_cases, reference_points,
                     reference_sieve_points, rng_for)
from motivic.config import DEFAULT
from motivic.errors import CapExceeded
from motivic.fatpoints import base_point
from motivic.fields import GF
from motivic.poly import Ideal, Poly
from motivic.schemes import AffineScheme, CoordMap, affine_space, count_points, points
from motivic.sieves import (Closed, ConstSieve, Full, Im, Inter, LevelSieve,
                            OpenLoc, Sieve, Union, closed_sieve, full_sieve,
                            image_sieve, open_sieve, sieve_union)

FIELDS = (GF(2), GF(3), GF(5))


def test_sieves_list_and_count_like_the_reference():
    checked = images = 0
    for field in FIELDS:
        rng = rng_for("search", field.char)
        for m in kernel_points(field):
            for x, s in mixed_cases(field, m, rng, 5):
                want = reference_sieve_points(s, m)
                assert s.points(m) == want, (s, m)
                assert s.count(m) == len(want), (s, m)
                assert points(x, m) == reference_points(x, m)
                assert count_points(x, m) == len(reference_points(x, m))
                checked += 1
                images += "im(" in repr(s)
    assert checked >= 60
    assert images >= 15


def test_level_lists_list_and_count_like_the_reference():
    checked = 0
    for field in FIELDS:
        rng = rng_for("search-levels", field.char)
        for m in kernel_points(field):
            cases = mixed_cases(field, m, rng, 3)
            if not cases:
                continue
            family = LevelSieve([s for _, s in cases])
            for n, (x, s) in enumerate(cases):
                want = reference_sieve_points(s, m)
                assert family.level_points(m, n) == want
                assert family.count(m, n) == len(want)
                assert ConstSieve(s).count(m, n) == len(want)
                checked += 1
    assert checked >= 30


def plane(field):
    A2 = affine_space(field, ("x", "y"), "A2")
    return A2, Poly.variable("x", A2.vars, field), Poly.variable("y", A2.vars, field)


def test_a_decided_branch_counts_its_free_tail():
    # D(x) is decided by x_0 alone, so the other seven coordinates of a
    # point of the plane at k[t]/(t^4) are free; nothing is listed
    F5 = GF(5)
    A2, x, y = plane(F5)
    m = jet_point(F5, 4)
    assert open_sieve(A2, x).count(m) == 4 * 5 ** 7
    assert sieve_union(open_sieve(A2, x), open_sieve(A2, y)).count(m) == 5 ** 8 - 5 ** 6
    # x^2 = 0 at k[t]/(t^4) when x_0 = x_1 = 0: then D(x) fails, and the
    # closed leaf decides the branch at x_1 with six coordinates free
    s = Sieve(A2, Union(Closed((x * x,)), OpenLoc(x)))
    assert s.count(m) == 4 * 5 ** 7 + 5 ** 6
    F3 = GF(3)
    A2, x, y = plane(F3)
    m = jet_point(F3, 2)
    for s in (Sieve(A2, Union(Closed((x * x,)), OpenLoc(x))),
              sieve_union(open_sieve(A2, x), closed_sieve(A2, [y])),
              Sieve(A2, Union(OpenLoc(x), Closed((x * y,))))):
        want = reference_sieve_points(s, m)
        assert s.points(m) == want
        assert s.count(m) == len(want)


def test_a_nonzero_constant_vetoes_every_point():
    F3 = GF(3)
    A1 = affine_space(F3, ("u",), "A1")
    x = AffineScheme("E", Ideal(("x",), F3, [Poly.constant(2, ("x",), F3)]))
    f = CoordMap(A1, x, {"x": Poly.variable("u", A1.vars, F3)})
    m = jet_point(F3, 2)
    assert points(x, m) == [] and count_points(x, m) == 0
    for s in (full_sieve(x), image_sieve(f), sieve_union(image_sieve(f), full_sieve(x))):
        assert s.points(m) == () and s.count(m) == 0
    # a constant leaf: V(1) is empty and D(2) is everything
    A2, u, v = plane(F3)
    one = Poly.constant(1, A2.vars, F3)
    s = sieve_union(closed_sieve(A2, [one]), open_sieve(A2, u))
    assert s.points(m) == open_sieve(A2, u).points(m) == reference_sieve_points(s, m)
    assert open_sieve(A2, one + one).count(m) == 3 ** 4


def test_a_zero_variable_ambient_has_one_point():
    F3 = GF(3)
    pt = AffineScheme("pt", Ideal((), F3, []))
    A1 = affine_space(F3, ("u",), "A1")
    u = Poly.variable("u", A1.vars, F3)
    nowhere = AffineScheme("N", Ideal(("u",), F3, [u * u + Poly.constant(1, A1.vars, F3)]))
    onto = image_sieve(CoordMap(A1, pt, {}))
    empty_image = image_sieve(CoordMap(nowhere, pt, {}))
    for m in (base_point(F3), jet_point(F3, 3)):
        assert points(pt, m) == [()] and count_points(pt, m) == 1
        assert full_sieve(pt).points(m) == ((),)
        assert open_sieve(pt, Poly.constant(2, (), F3)).count(m) == 1
        assert open_sieve(pt, Poly.zero((), F3)).count(m) == 0
        assert closed_sieve(pt, [Poly.constant(1, (), F3)]).count(m) == 0
        assert onto.points(m) == ((),) == reference_sieve_points(onto, m)
    # u^2 + 1 has no root over F3, so nothing maps to the point
    m = base_point(F3)
    assert empty_image.count(m) == 0 == len(reference_sieve_points(empty_image, m))


def cusp(field):
    vs = ("x", "y")
    x, y = (Poly.variable(v, vs, field) for v in vs)
    return AffineScheme("C", Ideal(vs, field, [y * y - x ** 3])), x


def test_the_candidate_cap_is_checked_before_the_search():
    F3 = GF(3)
    c, x = cusp(F3)
    m = jet_point(F3, 7)
    message = "enumeration of 4782969 candidates exceeds cap 1048576"
    for run in (lambda: points(c, m), lambda: count_points(c, m),
                lambda: open_sieve(c, x).count(m),
                lambda: open_sieve(c, x).points(m),
                lambda: LevelSieve([open_sieve(c, x)]).level_points(m, 0),
                lambda: LevelSieve([open_sieve(c, x)]).count(m, 0)):
        with pytest.raises(CapExceeded) as err:
            run()
        assert str(err.value) == message


def test_an_image_leaf_is_read_only_when_the_search_needs_it():
    # the source has 81 candidates at k[t]/(t^2), past its own cap of 8, so
    # reading the image raises. Every point of V(x - 1) lies in D(x), which
    # decides im(f) | D(x) before the image is needed: the count is an
    # answer. Enumerate-then-filter read the left leaf first and raised.
    F3 = GF(3)
    tight = DEFAULT.with_overrides(max_candidates=8)
    src = AffineScheme("S", Ideal(("u", "v"), F3, [], tight))
    x1 = Poly.variable("x", ("x",), F3)
    line = AffineScheme("X", Ideal(("x",), F3, [x1 - Poly.constant(1, ("x",), F3)]))
    f = CoordMap(src, line, {"x": Poly.variable("u", src.vars, F3)})
    m = jet_point(F3, 2)
    decided = Sieve(line, Union(Im(f), OpenLoc(x1)))
    assert decided.count(m) == 1 and decided.points(m) == (((1, 0),),)
    assert Sieve(line, Union(Im(f), Full())).count(m) == 1
    undecided = Sieve(line, Union(Im(f), Closed((x1,))))
    with pytest.raises(CapExceeded) as err:
        undecided.count(m)
    assert str(err.value) == "enumeration of 81 candidates exceeds cap 8"


def test_image_leaves_combine_at_whole_points():
    # two image leaves that no row decides: the union and the intersection
    # are read at whole points, from the two looked-up images
    F3 = GF(3)
    A1 = affine_space(F3, ("x",), "A1")
    x = Poly.variable("x", A1.vars, F3)
    U = affine_space(F3, ("u",), "U")
    u = Poly.variable("u", U.vars, F3)
    squares = Im(CoordMap(U, A1, {"x": u * u}))
    shifted = Im(CoordMap(U, A1, {"x": u * u + Poly.constant(1, U.vars, F3)}))
    for m in (base_point(F3), jet_point(F3, 2), jet_point(F3, 3)):
        for node in (Union(squares, shifted), Inter(squares, shifted),
                     Union(Inter(squares, shifted), Closed((x,))),
                     Inter(Union(squares, OpenLoc(x)), shifted)):
            s = Sieve(A1, node)
            want = reference_sieve_points(s, m)
            assert s.points(m) == want and s.count(m) == len(want)


def test_an_image_read_under_a_looser_cap_does_not_answer_for_a_tighter_one():
    # equal maps whose sources differ only in their cap share a memo key
    # but for the cap: the tight one enumerates its source again and raises,
    # whether its image is counted or one point of it is tested (a member
    # memo keyed by the equal trees alone would answer from the loose one)
    F3 = GF(3)
    A1 = affine_space(F3, ("x",), "A1")
    m = jet_point(F3, 2)

    def image(cfg):
        src = AffineScheme("S", Ideal(("u", "v"), F3, [], cfg))
        return image_sieve(CoordMap(src, A1, {"x": Poly.variable("u", src.vars, F3)}))

    loose, tight = image(DEFAULT), image(DEFAULT.with_overrides(max_candidates=8))
    assert loose.node == tight.node
    assert loose.count(m) == 9 and loose.member(m, ((1, 2),))
    for read in (tight.count, lambda m: tight.member(m, ((1, 2),))):
        with pytest.raises(CapExceeded) as err:
            read(m)
        assert str(err.value) == "enumeration of 81 candidates exceeds cap 8"
