"""Realization invariants: normal forms, homology, preservation, stability."""

import pytest

from motivic.errors import EvalError, WorkbenchError
from motivic.fatpoints import (PointSystem, base_point, jet_rule,
                                make_fat_point)
from motivic.fields import GF
from motivic.poly import Poly
from motivic.schemes import affine_space
from motivic.sieves import (ConstSieve, DisjointSieve, InterSieve, LevelSieve,
                            LimitSieve, ProductSieve, UnionSieve, closed_sieve,
                            full_sieve, lift_sieve, open_sieve,
                            presented_levels)
from motivic.topology import (HOMOTOPY_KEY_PROXY, FiniteSimplicialSet,
                              boundary_simplex, discrete_sset,
                              evaluate_to_sset, homotopy_stabilization,
                              invariants, preservation_check,
                              smith_normal_form, standard_simplex)

from battery import rng_for

F2 = GF(2)
F3 = GF(3)


class TestSmithNormalForm:
    def test_diagonal_folding(self):
        assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]

    def test_identity(self):
        assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]

    def test_classic_two_by_two(self):
        assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]

    def test_zero_matrix(self):
        assert smith_normal_form([[0, 0], [0, 0]]) == []

    def test_single_entry(self):
        assert smith_normal_form([[6]]) == [6]

    def test_triangle_boundary(self):
        assert smith_normal_form([[-1, 1, 0], [-1, 0, 1], [0, -1, 1]]) == [1, 1]

    def test_matches_sympy_invariant_factors(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors
        rng = rng_for("smith")
        for _ in range(60):
            r, k, c = rng.randint(1, 5), rng.randint(1, 4), rng.randint(1, 5)
            # a product through k columns has rank at most k, so singular
            # matrices come up as often as regular ones
            a = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(r)]
            b = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(k)]
            rows = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(c)]
                    for i in range(r)]
            want = [abs(int(d)) for d in
                    invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ) if d]
            assert smith_normal_form(rows) == want, rows


class TestStandardComplexes:
    def test_solid_triangle_is_contractible_in_homology(self):
        inv = invariants(standard_simplex(2))
        assert inv.component_count == 1
        assert inv.euler_characteristic == 1
        assert inv.homology[0] == (1, ())
        assert all(h == (0, ()) for h in inv.homology[1:])

    def test_triangle_boundary_is_a_circle(self):
        inv = invariants(boundary_simplex(2))
        assert inv.component_count == 1
        assert inv.euler_characteristic == 0
        assert inv.homology[0] == (1, ())
        assert inv.homology[1] == (1, ())
        assert all(h == (0, ()) for h in inv.homology[2:])

    def test_two_points(self):
        inv = invariants(discrete_sset(("a", "b")))
        assert inv.component_count == 2
        assert inv.euler_characteristic == 2

    def test_homotopy_keys_separate_these(self):
        d0 = invariants(standard_simplex(0)).key()
        assert invariants(standard_simplex(2)).key() == d0
        assert invariants(boundary_simplex(2)).key() != d0
        assert invariants(discrete_sset(("a", "b"))).key() != d0

    def test_euler_equals_alternating_rank_sum(self):
        for A in (standard_simplex(2), boundary_simplex(2),
                  discrete_sset(("a", "b", "c"))):
            inv = invariants(A)
            assert sum((-1) ** n * h[0] for n, h in enumerate(inv.homology)) \
                == inv.euler_characteristic


class TestEvaluation:
    def setup_method(self):
        self.B = affine_space(F2, ("x",), "B")
        self.k2 = base_point(F2)
        self.xb = Poly.variable("x", self.B.vars, F2)

    def test_constant_shape_realizes_discretely(self):
        triv = lift_sieve(full_sieve(self.B), "trivial")
        A = evaluate_to_sset(triv, self.k2, top=3)
        inv = invariants(A)
        assert inv.component_count == 2 and inv.euler_characteristic == 2
        assert [len(A.nondegenerate(n)) for n in range(4)] == [2, 0, 0, 0]

    def test_fiber_shape_level_sizes(self):
        fib = lift_sieve(full_sieve(self.B), "fiber")
        A = evaluate_to_sset(fib, self.k2, top=2)
        assert len(A.levels[1]) == 4

    def test_single_point_is_contractible(self):
        onept = lift_sieve(closed_sieve(self.B, [self.xb]), "trivial")
        inv = invariants(evaluate_to_sset(onept, self.k2, top=2))
        assert inv.component_count == 1 and inv.euler_characteristic == 1

    def test_indexed_families_carry_no_structure(self):
        fib = lift_sieve(full_sieve(self.B), "fiber")
        flat = LevelSieve(presented_levels(fib))
        with pytest.raises(EvalError):
            evaluate_to_sset(flat, self.k2, top=2)

    def test_euler_additivity_and_multiplicativity(self):
        a = ConstSieve(closed_sieve(self.B, [self.xb]))
        b = ConstSieve(open_sieve(self.B, self.xb))

        def chi(s, top=2):
            return invariants(evaluate_to_sset(s, self.k2, top=top)) \
                .euler_characteristic

        assert chi(UnionSieve(a, b)) + chi(InterSieve(a, b)) == chi(a) + chi(b)
        assert chi(ProductSieve(a, b)) == chi(a) * chi(b)

    def test_products_and_disjoint_unions_realize(self):
        fib = lift_sieve(full_sieve(self.B), "fiber")
        triv = lift_sieve(full_sieve(self.B), "trivial")
        prod, dis = ProductSieve(fib, triv), DisjointSieve(triv, fib)
        for s in (prod, dis):
            # raises EvalError when a face or degeneracy leaves the sieve
            evaluate_to_sset(s, self.k2, top=3)

        def inv(s):
            return invariants(evaluate_to_sset(s, self.k2, top=2))

        a, b = inv(triv), inv(fib)
        assert inv(prod).component_count == a.component_count * b.component_count == 2
        # a disjoint union adds every homology group
        assert inv(dis).homology == tuple(
            (ra + rb, ()) for (ra, _), (rb, _) in zip(a.homology, b.homology))
        assert inv(dis).component_count == 3

    def test_preservation_of_set_operations(self):
        a = ConstSieve(closed_sieve(self.B, [self.xb]))
        b = ConstSieve(open_sieve(self.B, self.xb))
        rep = preservation_check(a, b, self.k2)
        assert rep["ok"] and rep["union"] and rep["intersection"] and rep["product"]


class TestHomotopyStabilization:
    def test_constant_point_family_stabilizes(self):
        A1f = affine_space(F3, ("x",), "A1f")
        xf = Poly.variable("x", A1f.vars, F3)
        origin = closed_sieve(A1f, [xf])
        fam = LimitSieve(origin, PointSystem(rule=jet_rule(F3)))
        rep = homotopy_stabilization(fam, horizon=4, window=3, top=1)
        assert rep["stabilized"]
        assert rep["proxy"] == HOMOTOPY_KEY_PROXY
        assert rep["key"][0] == 1

    def test_growing_family_is_honestly_indeterminate(self):
        A1f = affine_space(F3, ("x",), "A1f")
        fam = LimitSieve(A1f, PointSystem(rule=jet_rule(F3)))
        rep = homotopy_stabilization(fam, horizon=4, window=3, top=1)
        assert not rep["stabilized"]
        assert rep["proxy"] == HOMOTOPY_KEY_PROXY

    def test_explicit_chain_settles_at_its_last_member(self):
        # a finite system is read at its last member, even when it is
        # shorter than the window; `since` is where the final run of keys
        # begins
        A1f = affine_space(F3, ("x",), "A1f")
        t = Poly.variable("t", ("t",), F3)
        members = [make_fat_point(("t",), F3, [t ** k], "t%d" % k)
                   for k in (2, 3, 3)]
        fam = LimitSieve(A1f, PointSystem(members=members))
        rep = homotopy_stabilization(fam, horizon=4, window=4, top=1)
        assert rep["stabilized"]
        assert rep["keys"][0] != rep["keys"][1] == rep["keys"][2]
        assert rep["key"] == rep["keys"][-1]
        assert rep["since"] == 1


class TestValidation:
    def test_face_identities_are_checked(self):
        # an edge whose second face lands outside level 0 is refused
        def face(n, i, x):
            return "v" if i == 0 else "w"

        def degen(n, i, x):
            return "e"

        with pytest.raises(WorkbenchError):
            FiniteSimplicialSet(levels=[("v",), ("e",)], face=face, degen=degen)

    def test_cell_cap(self):
        from motivic.config import DEFAULT
        tight = DEFAULT.with_overrides(max_cells=2)
        with pytest.raises(WorkbenchError):
            standard_simplex(2, cfg=tight)
