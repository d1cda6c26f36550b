"""Counts by linear tails against lists and the brute-force oracle, as a
`hypothesis` property.

Count mode solves the tail of a monomial point (`schemes.search`), and list
mode still enumerates it. On random plane curves and lines, with random
sieve trees drawn as `perfbench/gen.py` draws them, over F2, F3, F5 and F7,
at k[t]/(t^n) for 4 <= n <= 6 and at monomial points in two variables
(each with a tail of two or more basis monomials), a count must equal the
length of the list, and the count of `perfbench/oracle.py` where the oracle
reads the point (jets and boxes k[a, b]/(a^i, b^j)) and its candidates are
few.
"""

import sys
from pathlib import Path

import pytest

from battery import jet_point, monomial_point
from motivic.fields import GF
from motivic.poly import Ideal, Poly
from motivic.schemes import AffineScheme, count_points, points
from motivic.sieves import Closed, Empty, Full, Inter, OpenLoc, Sieve, Union

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402
import oracle  # noqa: E402

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

PLANE = ("x", "y")
# candidates of a listed case, and of a case the oracle also counts
LIST_BUDGET = 20000
ORACLE_BUDGET = 2500


# (builder, length, oracle dims or None), each with a tail of two or more
# basis monomials, which the search solves in count mode
POINTS = [(lambda f, n=n: jet_point(f, n), n, (n,)) for n in range(4, 7)] + [
    (lambda f: monomial_point(f, [(2, 0), (1, 1), (0, 2)]), 3, None),
    (lambda f: monomial_point(f, [(3, 0), (1, 1), (0, 3)]), 5, None),
    (lambda f: monomial_point(f, [(2, 0), (0, 3)]), 6, (2, 3)),
]
CASES = [(p, point, nvars) for p in (2, 3, 5, 7) for point in POINTS
         for nvars in (1, 2) if p ** (nvars * point[1]) <= LIST_BUDGET]


def spec_poly(spec, vars, field):
    return Poly(vars, field, {e: field.of(c) for c, e in spec})


def spec_node(tree, vars, field):
    """A `perfbench/gen.py` sieve tree as a condition tree."""
    tag = tree[0]
    if tag == "V":
        return Closed(tuple(spec_poly(g, vars, field) for g in tree[1]))
    if tag == "D":
        return OpenLoc(spec_poly(tree[1], vars, field))
    if tag in ("full", "empty"):
        return Full() if tag == "full" else Empty()
    parts = (spec_node(tree[1], vars, field), spec_node(tree[2], vars, field))
    return Union(*parts) if tag == "or" else Inter(*parts)


@hypothesis.settings(max_examples=120, deadline=None, derandomize=True)
@hypothesis.given(st.sampled_from(CASES), st.integers(0, 10 ** 6), st.booleans())
def test_counts_equal_lists_and_the_oracle(case, seed, curved):
    p, (build, length, dims), nvars = case
    field = GF(p)
    m = build(field)
    assert m.length == length and m.tail_start is not None
    draw = gen.Draw("linear-tail:%d" % seed, seed)
    vars = PLANE[:nvars]
    rel = gen.rand_poly(draw, nvars, p, max_deg=3, max_terms=3) if curved else None
    tree = gen.rand_tree(draw, nvars, p)
    x = AffineScheme("X", Ideal(vars, field, [spec_poly(rel, vars, field)] if rel else []))
    s = Sieve(x, spec_node(tree, vars, field))
    want = len(s.points(m))
    assert s.count(m) == want
    assert count_points(x, m) == len(points(x, m))
    if dims is not None and p ** (nvars * length) <= ORACLE_BUDGET:
        ambient = "plane" if nvars == 2 else "line"
        assert oracle.count(p, dims, ambient, ("and", ("V", (rel,)), tree) if rel
                            else tree) == want
