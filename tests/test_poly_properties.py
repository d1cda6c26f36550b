"""Ring laws, division and the term order as `hypothesis` properties.

Coefficients are rationals with random denominators and signs, so every
product and division goes through the clearing of denominators and the
primitive int forms of `motivic.poly`. Products are also checked against a
schoolbook product on Fractions, and full division against the one-step
reference division of `battery.py`. Over Q and F5, the leading term, the
key and the printed form must order terms as a sort by `grevlex_key` does,
the leading term that `reduce_full` records must be the largest one, and
`monic` must agree with a division by the leading coefficient.
"""

from fractions import Fraction

import pytest

from motivic.fields import GF, QQ
from motivic.poly import Poly, grevlex_key, join_terms, poly_str, reduce_full

from battery import reference_reduce_full

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

VARS = ("x", "y", "z")
SETTINGS = hypothesis.settings(max_examples=80, deadline=None, derandomize=True)

rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
exponents = st.tuples(*(st.integers(0, 2) for _ in VARS))
polys = st.dictionaries(exponents, rationals, max_size=5).map(
    lambda terms: Poly(VARS, QQ, terms))
nonzero_polys = polys.filter(lambda p: not p.is_zero())

F5 = GF(5)
wide_exponents = st.tuples(*(st.integers(0, 3) for _ in VARS))


def polys_over(field, min_size=0):
    """Polynomials with nonzero coefficients and at least min_size terms."""
    coeffs = (st.builds(Fraction, st.integers(-30, 30).filter(bool), st.integers(1, 12))
              if field is QQ else st.integers(1, field.char - 1))
    return st.dictionaries(wide_exponents, coeffs, min_size=min_size, max_size=8).map(
        lambda terms: Poly(VARS, field, terms))


def over_a_field(draw_polys):
    """A field, Q or F5, with `draw_polys(field)` drawn over it."""
    return st.sampled_from([QQ, F5]).flatmap(draw_polys)


def schoolbook(a: Poly, b: Poly) -> Poly:
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return Poly(VARS, QQ, out)


@SETTINGS
@hypothesis.given(polys, polys)
def test_products_commute_and_match_the_schoolbook_product(a, b):
    assert a * b == b * a == schoolbook(a, b)


@SETTINGS
@hypothesis.given(polys, polys, polys)
def test_products_associate(a, b, c):
    assert (a * b) * c == a * (b * c)


@SETTINGS
@hypothesis.given(polys, polys, polys)
def test_products_distribute_over_sums(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (b + c) * a == b * a + c * a


@SETTINGS
@hypothesis.given(polys, polys, st.lists(nonzero_polys, min_size=1, max_size=3))
def test_full_division_matches_the_reference_division(f, g, basis):
    f = f * g + f
    assert reduce_full(f, basis) == reference_reduce_full(f, basis)


@SETTINGS
@hypothesis.given(over_a_field(lambda f: polys_over(f, min_size=1)))
def test_leading_key_and_printing_follow_the_grevlex_sort(p):
    increasing = sorted(p.terms, key=grevlex_key)
    top = increasing[-1]
    assert p.leading() == (top, p.terms[top])
    assert p.key() == (VARS, p.field, tuple((e, p.terms[e]) for e in increasing))
    assert poly_str(p) == join_terms(
        [poly_str(Poly(VARS, p.field, {e: p.terms[e]})) for e in reversed(increasing)])


@SETTINGS
@hypothesis.given(over_a_field(lambda f: st.tuples(
    polys_over(f), polys_over(f, min_size=1),
    st.lists(polys_over(f, min_size=1), max_size=3))))
def test_reduce_full_records_the_largest_term_as_leading(fgb):
    f, g, basis = fgb
    for h, divisors, divides in ((f, basis, False), (f, [], False), (f * g, [g], True)):
        r = reduce_full(h, divisors)
        if divides:
            assert r.is_zero()
        if r.is_zero():
            with pytest.raises(ValueError):
                r.leading()
        else:
            top = max(r.terms, key=grevlex_key)
            assert r.leading() == (top, r.terms[top])


@SETTINGS
@hypothesis.given(over_a_field(lambda f: polys_over(f, min_size=1)))
def test_monic_divides_by_the_leading_coefficient(p):
    c = p.field.inv(max(p.terms.items(), key=lambda t: grevlex_key(t[0]))[1])
    m = p.monic()
    assert m.terms == {e: p.field.mul(a, c) for e, a in p.terms.items()}
    assert m.leading()[1] == 1
