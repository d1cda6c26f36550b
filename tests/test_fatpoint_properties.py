"""Fat-point arithmetic against the normal form, as `hypothesis` properties.

`QuotientAlgebra` reads a product of basis monomials off the exponents
where it can, and takes powers by halving the exponent. On random monomial
points and random non-monomial local points, over Q and F3, every basis
product, `mul`, `eval_poly` and `coefficient_rows` must equal what the
normal form by the reduced basis gives, and `make_fat_point` must accept a
monomial point that the nilpotency test would accept.
"""

import pytest

from motivic.fatpoints import make_fat_point
from motivic.fields import GF, QQ
from motivic.poly import Poly, reduce_full

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
POINT_VARS = ("s", "t")
VARS = ("x", "y")
F3 = GF(3)
fields = st.sampled_from([QQ, F3])


def _monomial(field, exps):
    return Poly.monomial(exps, 1, POINT_VARS, field)


@st.composite
def monomial_points(draw):
    """k[s, t]/(s^a, t^b, and up to two more monomials)."""
    field = draw(fields)
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    extra = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2))
                          .filter(any), max_size=2))
    gens = [_monomial(field, e) for e in [(a, 0), (0, b)] + extra]
    return make_fat_point(POINT_VARS, field, gens)


@st.composite
def local_points(draw):
    """k[s, t]/(s^a, t^b, m1 + c*m2) with m1 and m2 standard monomials,
    neither dividing the other, so that the binomial stays in the basis."""
    field = draw(fields)
    a, b = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    exps = st.tuples(st.integers(0, a - 1), st.integers(0, b - 1))
    m1 = draw(exps.filter(any))
    m2 = draw(exps.filter(lambda e: (e[0] - m1[0]) * (e[1] - m1[1]) < 0))
    c = field.of(draw(st.sampled_from([-1, 1, 2])))
    f = Poly(POINT_VARS, field, {m1: field.one, m2: c})
    return make_fat_point(POINT_VARS, field, [_monomial(field, (a, 0)),
                                              _monomial(field, (0, b)), f])


points = st.one_of(monomial_points(), local_points())


def vectors(m, draw):
    return tuple(m.field.of(draw(st.integers(-2, 2))) for _ in range(m.length))


def poly_of(m, vec):
    """The polynomial sum_k vec[k] b_k over the point's variables."""
    return Poly(m.vars, m.field, {e: c for e, c in zip(m.basis_exps, vec)})


def polys_over(field):
    return st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                           st.integers(1, 2), max_size=3).map(
        lambda terms: Poly(VARS, field, {e: field.of(c) for e, c in terms.items()}))


def rows_by_normal_form(m, p):
    """`coefficient_rows` by substitution and a normal form: p at the generic
    point, in a ring of the coordinates a<pos> followed by m's variables,
    reduced by m's reduced basis (still a reduced basis there, since grevlex
    on m's variables is the order that ring induces on them)."""
    n, f = len(p.vars), m.field
    coords = tuple("a%d" % pos for pos in range(n * m.length))
    ring = coords + m.vars
    images = {}
    for i, v in enumerate(p.vars):
        acc = Poly.zero(ring, f)
        for j, b in enumerate(m.basis):
            acc = acc + Poly.variable(coords[j * n + i], ring, f) * b.embed(ring)
        images[v] = acc
    nf = reduce_full(p.substitute(images, vars=ring, field=f),
                     [g.embed(ring) for g in m.ideal.basis()])
    rows = [[] for _ in m.basis]
    for e, c in nf.terms.items():
        mono = tuple((pos, k) for pos, k in enumerate(e[:len(coords)]) if k)
        rows[m.index[e[len(coords):]]].append((c, mono))
    return tuple(tuple(sorted(r, key=lambda term: term[1])) for r in rows)


@SETTINGS
@hypothesis.given(points)
def test_basis_products_match_the_normal_form(m):
    units = [tuple(m.field.one if k == i else m.field.zero for k in range(m.length))
             for i in range(m.length)]
    for i, bi in enumerate(m.basis):
        for j, bj in enumerate(m.basis):
            assert m.mul(units[i], units[j]) == m.nf_vector(bi * bj)


@SETTINGS
@hypothesis.given(points, st.data())
def test_products_match_the_normal_form(m, data):
    u, v = vectors(m, data.draw), vectors(m, data.draw)
    assert m.mul(u, v) == m.nf_vector(poly_of(m, u) * poly_of(m, v))


@SETTINGS
@hypothesis.given(points, st.data())
def test_evaluation_matches_the_normal_form(m, data):
    p = data.draw(polys_over(m.field))
    u, v = vectors(m, data.draw), vectors(m, data.draw)
    want = m.nf_vector(p.substitute({"x": poly_of(m, u), "y": poly_of(m, v)},
                                    vars=m.vars, field=m.field))
    assert m.eval_poly(p, {"x": u, "y": v}) == want


@SETTINGS
@hypothesis.given(points, st.data())
def test_coefficient_rows_match_the_normal_form(m, data):
    p = data.draw(polys_over(m.field))
    assert m.coefficient_rows(p) == rows_by_normal_form(m, p)


@SETTINGS
@hypothesis.given(points, st.data(), st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))
def test_high_powers_multiply_like_their_exponents(m, data, a, b):
    u = vectors(m, data.draw)
    x = Poly.variable("x", ("x",), m.field)
    assert m.eval_poly(x ** (a + b), {"x": u}) == m.mul(
        m.eval_poly(x ** a, {"x": u}), m.eval_poly(x ** b, {"x": u}))


@SETTINGS
@hypothesis.given(monomial_points())
def test_a_monomial_point_passes_the_nilpotency_test_it_skips(m):
    assert m.monomial_ideal
    for v in m.vars:
        assert m.ideal.contains(Poly.variable(v, m.vars, m.field) ** m.length)
