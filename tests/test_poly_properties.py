"""Ring laws and division over Q as `hypothesis` properties.

Coefficients are rationals with random denominators and signs, so every
product and division goes through the clearing of denominators and the
primitive int forms of `motivic.poly`. Products are also checked against a
schoolbook product on Fractions, and full division against the one-step
reference division of `battery.py`.
"""

from fractions import Fraction

import pytest

from motivic.fields import QQ
from motivic.poly import Poly, reduce_full

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
