"""Jet counts by linear tails, against independent oracles.

At a monomial point whose largest standard degree is D, a product of two
basis monomials of degree > D//2 vanishes, so every coefficient row is
affine in the coordinates of those monomials (`QuotientAlgebra.tail_start`).
In count mode `schemes.search` counts them by one elimination mod p. List
mode still enumerates them, so a count is checked against the length of the
list and against the brute-force counter of `perfbench/oracle.py`
(`test_linear_tail_properties.py`); here, past the reach of enumeration,
against closed forms and a recurrence, and within a budget of row reads.
The rows the search reads over F_q keep every exponent below q, and they
must agree with the exact coefficient rows at every point.
"""

from battery import jet_point, monomial_point, rand_poly, rng_for
from motivic import schemes
from motivic.config import DEFAULT
from motivic.fatpoints import make_fat_point, row_value
from motivic.fields import GF
from motivic.poly import Ideal, Poly
from motivic.schemes import AffineScheme, count_points

# long jets are past the default caps on candidates and generator degree
LONG = DEFAULT.with_overrides(max_candidates=10 ** 60, max_degree=64)
PLANE = ("x", "y")
F3, F5 = GF(3), GF(5)


def plane_curve(field, name):
    x, y = (Poly.variable(v, PLANE, field) for v in PLANE)
    one = Poly.constant(1, PLANE, field)
    g = {"cusp": y * y - x ** 3, "cross": x * y, "circle": x * x + y * y - one}[name]
    return AffineScheme(name, Ideal(PLANE, field, [g], LONG))


def test_the_split_is_read_off_the_standard_degrees():
    F2 = GF(2)
    assert [jet_point(F2, n, LONG).tail_start for n in range(1, 9)] == \
        [None, None, None, 2, 3, 3, 4, 4]
    # degrees 0, 1, 1: the two monomials of degree 1 are the tail
    assert monomial_point(F2, [(2, 0), (1, 1), (0, 2)]).tail_start == 1
    # degrees 0, 1, 1, 2: only a*b is past D//2 = 1
    assert monomial_point(F2, [(2, 0), (0, 2)]).tail_start is None
    # degrees 0, 1, 1, 2, 2, 3: a*b, b^2 and a*b^2
    assert monomial_point(F2, [(2, 0), (0, 3)]).tail_start == 3
    a, b = (Poly.variable(v, ("a", "b"), F2) for v in ("a", "b"))
    curved = make_fat_point(("a", "b"), F2, [a * a - b ** 3, a * b])
    assert not curved.monomial_ideal and curved.tail_start is None


def test_no_tail_row_holds_a_product_of_two_tail_coordinates():
    checked = 0
    for field in (GF(2), F3, F5, GF(7)):
        rng = rng_for("linear-tail", field.char)
        for _ in range(12):
            a, b = rng.randint(1, 4), rng.randint(1, 4)
            extra = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(0, 2))]
            m = monomial_point(field, [(a, 0), (0, b)] + [e for e in extra if any(e)])
            degrees = [sum(e) for e in m.basis_exps]
            assert degrees == sorted(degrees)
            split = next((i for i, d in enumerate(degrees) if d > degrees[-1] // 2),
                         m.length)
            assert m.tail_start == (split if m.length - split >= 2 else None)
            for _ in range(3):
                n = rng.randint(1, 2)
                g = rand_poly(rng, PLANE[:n], field, max_deg=4, max_terms=4)
                for row in m.coefficient_rows(g, field.char):
                    for _, mono in row:
                        tail = [e for pos, e in mono if pos >= split * n]
                        assert tail in ([], [1]), (m, g, mono)
                        checked += 1
    assert checked >= 500


def test_cross_and_circle_counts_have_closed_forms():
    for field, top in ((F3, 12), (F5, 8)):
        q = field.char
        cross, circle = plane_curve(field, "cross"), plane_curve(field, "circle")
        for n in range(1, top + 1):
            m = jet_point(field, n, LONG)
            assert count_points(cross, m) == ((n + 1) * (q - 1) + 1) * q ** (n - 1)
            assert count_points(circle, m) == 4 * q ** (n - 1)


def test_cusp_counts_over_f3_follow_their_recurrence():
    cusp = plane_curve(F3, "cusp")
    counts = [None] + [count_points(cusp, jet_point(F3, n, LONG)) for n in range(1, 13)]
    assert counts[8:] == [37179, 111537, 334611, 1003833, 6200145]
    for n in range(8, 13):
        assert counts[n] == 3 * counts[n - 1] + 2187 * counts[n - 6] - 6561 * counts[n - 7]


def test_the_cusp_at_t12_is_counted_within_a_budget_of_row_reads(monkeypatch):
    # the tail reads each remaining row once per head (28,341 reads here);
    # setting every coordinate one at a time read 1,440,108 rows at t^10
    budget = 50000
    calls = [0]
    real = schemes.row_value

    def budgeted(row, vals):
        calls[0] += 1
        if calls[0] > budget:
            raise RuntimeError("over the budget of row reads")
        return real(row, vals)

    monkeypatch.setattr(schemes, "row_value", budgeted)
    assert count_points(plane_curve(F3, "cusp"), jet_point(F3, 12, LONG)) == 6200145


def test_rows_read_on_points_keep_exponents_below_q():
    # v^q = v on F_q: the rows the search reads agree with the exact
    # coefficient rows at every point, and no exponent reaches q
    checked = 0
    for field in (GF(2), F3, F5):
        q = field.char
        rng = rng_for("point-rows", q)
        for n in (1, 2, 4):
            m = jet_point(field, n, LONG)
            for _ in range(4):
                g = rand_poly(rng, PLANE, field, max_deg=9, max_terms=3)
                exact, read = m.coefficient_rows(g), m.coefficient_rows(g, q)
                assert all(e < q for row in read for _, mono in row for _, e in mono)
                for _ in range(20):
                    vals = [rng.randrange(q) for _ in range(2 * n)]
                    assert [row_value(r, vals) % q for r in exact] == \
                        [row_value(r, vals) % q for r in read]
                    checked += 1
    assert checked == 720
