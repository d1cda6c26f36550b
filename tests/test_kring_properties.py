"""Laws of the class ring as `hypothesis` properties, over F2 and F3.

A class is a small integer combination of Lefschetz twists of sieve
classes, on the line and on the plane, so products meet blocks from both
ambients. Sums and products must commute, associate and distribute, and
the counting homomorphism must be additive and multiplicative at the
ground point and at the dual numbers k[t]/(t^2). The fat points are made
once per field, so later examples count through the block-count memo that
earlier ones filled. Over F2, F3 and F5, counting a class, or a constant,
fiber or symmetric shape of classes, must agree with a plain `Fraction`
sum over its symbols.
"""

from fractions import Fraction
from math import comb

import pytest

from battery import jet_point
from motivic.errors import EvalError
from motivic.fatpoints import base_point
from motivic.fields import GF
from motivic.kring import (class_of_sieve, counting_hom, counting_simplicial,
                           kclass_int, lefschetz, lift_const, lift_power)
from motivic.poly import Poly
from motivic.schemes import affine_space
from motivic.sieves import Closed, Empty, Full, Inter, OpenLoc, Sieve, Union

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
FIELDS = [GF(2), GF(3)]
COUNT_FIELDS = FIELDS + [GF(5)]
POINTS = {field: (base_point(field), jet_point(field, 2)) for field in COUNT_FIELDS}


def sieves(field):
    """A sieve on the line or the plane: a tree of at most four leaves."""
    def on(ambient):
        n = len(ambient.vars)
        polys = st.dictionaries(
            st.tuples(*(st.integers(0, 2) for _ in range(n))),
            st.integers(1, field.char - 1), min_size=1, max_size=3,
        ).map(lambda terms: Poly(ambient.vars, field, terms))
        leaves = (polys.map(lambda g: Closed((g,))) | polys.map(OpenLoc)
                  | st.just(Full()) | st.just(Empty()))
        trees = st.recursive(
            leaves, lambda kids: st.builds(Union, kids, kids) | st.builds(Inter, kids, kids),
            max_leaves=4)
        return trees.map(lambda node: Sieve(ambient, node))

    return (on(affine_space(field, ("u",), "A1"))
            | on(affine_space(field, ("x", "y"), "A2")))


def classes(field, lowest=-1):
    """Sums of one or two terms c * L^e * [sieve], c nonzero, lowest <= e <= 1."""
    terms = st.tuples(st.sampled_from([1, -1, 2, -2]), st.integers(lowest, 1),
                      sieves(field)).map(
        lambda t: class_of_sieve(t[2]).twist(t[1]) * kclass_int(field, t[0]))
    return st.lists(terms, min_size=1, max_size=2).map(
        lambda ts: sum(ts, kclass_int(field, 0)))


def triples():
    return st.sampled_from(FIELDS).flatmap(
        lambda f: st.tuples(classes(f), classes(f), classes(f)))


@SETTINGS
@hypothesis.given(triples())
def test_sums_and_products_commute_and_associate(abc):
    a, b, c = abc
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)


@SETTINGS
@hypothesis.given(triples())
def test_products_distribute_over_sums(abc):
    a, b, c = abc
    assert a * (b + c) == a * b + a * c
    assert (b + c) * a == b * a + c * a


@SETTINGS
@hypothesis.given(triples())
def test_counting_is_additive_and_multiplicative(abc):
    a, b, _ = abc
    for m in POINTS[a.field]:
        ca, cb = counting_hom(a, m), counting_hom(b, m)
        assert counting_hom(a + b, m) == ca + cb
        assert counting_hom(a * b, m) == ca * cb
        assert counting_hom(a * lefschetz(a.field), m) == ca * a.field.order ** m.length


def reference_count(z, m):
    """Sum of c * q^(length * lef) * (count of each block) in `Fraction`s."""
    q = Fraction(z.field.order)
    total = Fraction(0)
    for (blocks, lef), c in z.terms.items():
        val = q ** (m.length * lef)
        for block in blocks:
            val *= block.sieve.count(m)
        total += c * val
    return total


@SETTINGS
@hypothesis.given(st.sampled_from(COUNT_FIELDS).flatmap(lambda f: classes(f, lowest=-2)))
def test_counting_matches_a_fraction_reference(z):
    for m in POINTS[z.field]:
        got = counting_hom(z, m)
        assert type(got) is Fraction
        assert got == reference_count(z, m)


@SETTINGS
@hypothesis.given(st.sampled_from(COUNT_FIELDS).flatmap(lambda f: st.tuples(
    st.sampled_from(["const", "fib", "sym"]), st.sampled_from([1, -1, 2]),
    st.integers(-2, 0), classes(f, lowest=-2), classes(f, lowest=-2))))
def test_shapes_count_as_their_fraction_references(case):
    """c * (a shape of z L^e) + (the constant shape of w), at levels 0-2."""
    kind, c, e, z, w = case
    z = z.twist(e)
    shape = lift_const(z) if kind == "const" else lift_power(z, kind == "sym")
    sz = shape.scale(c) + lift_const(w)
    for m in POINTS[z.field]:
        base, rest = reference_count(z, m), reference_count(w, m)
        for n in range(3):
            if kind == "const":
                want = base
            elif kind == "fib":
                want = base ** (n + 1)
            elif base.denominator == 1 and base >= 0:
                want = Fraction(comb(int(base) + n, n + 1))
            else:
                with pytest.raises(EvalError):
                    counting_simplicial(sz, m, n)
                continue
            got = counting_simplicial(sz, m, n)
            assert type(got) is Fraction
            assert got == c * want + rest
