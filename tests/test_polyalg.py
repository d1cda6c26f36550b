"""Polynomial layer: grevlex order, division, reduced bases, dimensions.

Oracle values are hand computed: the running example (x^2 + y^2, x*y)
completes to a reduced basis {x*y, x^2 + y^2, y^3} by a single S-pair
reduction, and its quotient has standard monomials {1, y, x, y^2}. Random
ideals are checked against the textbook loop in `battery.py` and, when it
is installed, against sympy's grevlex bases.
"""

from fractions import Fraction

import pytest

from motivic.config import DEFAULT
from motivic.errors import CapExceeded, FieldMismatch
from motivic.fields import GF, QQ
from motivic.poly import Ideal, Poly, buchberger, poly_str, reduce_full

from battery import (rand_ideal_gens, rand_monomial_gens, rand_rational_gens,
                     reference_buchberger, reference_krull_dimension,
                     reference_reduce_full, rng_for)

VARS = ("x", "y")
X = Poly.variable("x", VARS, QQ)
Y = Poly.variable("y", VARS, QQ)
ONE = Poly.constant(1, VARS, QQ)


def test_printing_follows_graded_order():
    p = Y * Y + X * X + X * Y + X + ONE
    assert poly_str(p) == "x^2 + x*y + y^2 + x + 1"


def test_arithmetic_oracles():
    assert poly_str((X + Y) * (X + Y)) == "x^2 + 2*x*y + y^2"
    assert poly_str(X * X - X * X) == "0"
    p = X * Y - ONE
    assert poly_str(p * p) == "x^2*y^2 - 2*x*y + 1"


def test_substitution_is_evaluation():
    p = Y - X * X
    image = p.substitute({"x": X + Y, "y": Y})
    assert poly_str(image) == "-x^2 - 2*x*y - y^2 + y"


def test_full_division_reduces_every_term():
    rem = reduce_full(X * X * Y + Y, [X * X + Y])
    assert poly_str(rem) == "-y^2 + y"


def test_buchberger_oracle_xy_plus_squares():
    ideal = Ideal(VARS, QQ, [X * X + Y * Y, X * Y])
    assert [poly_str(g) for g in ideal.basis()] == ["x*y", "x^2 + y^2", "y^3"]
    assert [poly_str(m) for m in ideal.quotient_basis()] == ["1", "y", "x", "y^2"]


def test_graph_relation_is_already_a_basis():
    ideal = Ideal(VARS, QQ, [Y - X * X])
    assert [poly_str(g) for g in ideal.basis()] == ["x^2 - y"]
    assert ideal.contains(X * X * X - X * Y)
    assert not ideal.contains(X)


def test_unit_ideal_detection():
    ideal = Ideal(VARS, QQ, [X * Y - ONE, X * X])
    assert ideal.is_unit()


def test_repeated_generators_collapse_to_one_copy():
    # equal generators must not cancel each other during autoreduction
    ideal = Ideal(VARS, QQ, [Y - X * X, Y - X * X])
    assert [poly_str(g) for g in ideal.basis()] == ["x^2 - y"]
    two = GF(2)
    x = Poly.variable("x", VARS, two)
    y = Poly.variable("y", VARS, two)
    dup = Ideal(VARS, two, [y - x * x, x * x + y])
    assert [poly_str(g) for g in dup.basis()] == ["x^2 + y"]


def test_normal_form_is_idempotent():
    ideal = Ideal(VARS, QQ, [X * X + Y * Y, X * Y])
    p = X * X * X + X * Y + Y
    r = ideal.normal_form(p)
    assert ideal.normal_form(r) == r


def test_krull_dimension_oracles():
    assert Ideal(VARS, QQ, []).krull_dimension() == 2
    assert Ideal(VARS, QQ, [X * Y]).krull_dimension() == 1
    assert Ideal(VARS, QQ, [X]).krull_dimension() == 1
    assert Ideal(VARS, QQ, [X, Y]).krull_dimension() == 0
    assert Ideal(VARS, QQ, [ONE]).krull_dimension() == -1


@pytest.mark.parametrize("field", [GF(2), QQ], ids=["F2", "Q"])
def test_krull_dimension_matches_the_subset_sweep(field):
    for seed in range(150):
        nvars = 1 + seed % 10
        gens = rand_monomial_gens(rng_for("krull", seed), field, nvars)
        ideal = Ideal(gens[0].vars, field, gens)
        assert ideal.krull_dimension() == reference_krull_dimension(ideal), seed


def test_finite_field_arithmetic_wraps():
    F3 = GF(3)
    x3 = Poly.variable("x", ("x",), F3)
    two = Poly.constant(2, ("x",), F3)
    assert poly_str(two * two) == "1"
    assert poly_str(x3 + x3 + x3) == "0"


def test_field_mismatch_is_rejected():
    x3 = Poly.variable("x", ("x",), GF(3))
    with pytest.raises(FieldMismatch):
        Ideal(("x",), QQ, [x3])


def test_degree_cap_guards_basis_computation():
    deg9 = Poly.monomial((9, 0), QQ.one, VARS, QQ)
    with pytest.raises(CapExceeded):
        Ideal(VARS, QQ, [deg9], DEFAULT).basis()
    wide = DEFAULT.with_overrides(max_degree=10)
    assert Ideal(VARS, QQ, [deg9], wide).basis()


def test_variable_cap_guards_basis_computation():
    names = tuple("v%d" % i for i in range(13))
    gens = [Poly.variable(n, names, QQ) * Poly.variable(names[0], names, QQ)
            for n in names[1:]]
    with pytest.raises(CapExceeded):
        Ideal(names, QQ, gens).basis()


# -- differential checks of the Groebner kernel --------------------------------


def _edge_cases():
    """The hand-checked inputs above: repeated generators, a unit ideal,
    the running example, and generators that are all zero."""
    two = GF(2)
    x2 = Poly.variable("x", VARS, two)
    y2 = Poly.variable("y", VARS, two)
    return [
        (QQ, [Y - X * X, Y - X * X]),
        (two, [y2 - x2 * x2, x2 * x2 + y2]),
        (QQ, [X * Y - ONE, X * X]),
        (QQ, [X * X + Y * Y, X * Y]),
        (QQ, [ONE * 0, X * 0]),
    ]


def _random_ideals(label, per_shape):
    """Seeded generator lists over Q/F2/F3/F7 in 2-4 variables, then lists
    over Q whose coefficients have denominators and either sign."""
    out = []
    for field in (QQ, GF(2), GF(3), GF(7)):
        for nvars in (2, 3, 4):
            for seed in range(per_shape):
                rng = rng_for("%s:%r:%d" % (label, field, nvars), seed)
                out.append((field, rand_ideal_gens(rng, field, nvars)))
    for nvars in (2, 3, 4):
        for seed in range(per_shape):
            rng = rng_for("%s:Q/rational:%d" % (label, nvars), seed)
            out.append((QQ, rand_rational_gens(rng, nvars)))
    return out


def _keys(basis):
    return [g.key() for g in basis]


def test_buchberger_matches_the_reference_loop():
    for _, gens in _edge_cases() + _random_ideals("groebner", 30):
        assert _keys(buchberger(gens)) == _keys(reference_buchberger(gens)), gens


def test_full_division_matches_the_reference_division():
    # the generators are seldom a basis, so the remainder depends on the
    # division rule: the first divisor whose leading term divides wins
    for _, gens in _random_ideals("division", 10):
        f = gens[0] * gens[-1] * gens[-1] + gens[0]
        assert reduce_full(f, gens) == reference_reduce_full(f, gens), gens


def test_full_division_of_unrelated_rational_dividends():
    # a dividend built from the divisors keeps its coefficients multiples of
    # their leading ones; an unrelated one makes the fraction-free division
    # scale its work and carry that multiplier into the remainder
    for nvars in (2, 3, 4):
        for seed in range(20):
            rng = rng_for("scaled-division:%d" % nvars, seed)
            gens = rand_rational_gens(rng, nvars)
            other = rand_rational_gens(rng, nvars)
            f = other[0] * other[-1] + gens[0]
            assert reduce_full(f, gens) == reference_reduce_full(f, gens), gens


def test_buchberger_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for field, gens in _edge_cases() + _random_ideals("sympy", 8):
        syms = sympy.symbols(gens[0].vars)
        opts = {"modulus": field.char} if field.char else {"domain": "QQ"}

        def to_sympy(p):
            return sympy.Poly.from_dict(
                {e: sympy.Rational(c.numerator, c.denominator) if not field.char else c
                 for e, c in p.terms.items()}, *syms, **opts)

        def of_sympy(b):
            return frozenset((e, Fraction(int(c.p), int(c.q)) if not field.char
                              else int(c) % field.char)
                             for e, c in b.terms())

        polys = [to_sympy(g) for g in gens if not g.is_zero()]
        want = ([of_sympy(b) for b in sympy.groebner(polys, *syms, order="grevlex",
                                                      **opts).polys]
                if polys else [])
        got = [frozenset(g.terms.items()) for g in buchberger(gens)]
        assert len(got) == len(want) and set(got) == set(want), gens
