"""Realization invariants: normal forms, homology, evaluation, preservation."""

import pytest

from motivic.errors import EvalError, WorkbenchError
from motivic.fatpoints import base_point
from motivic.fields import GF
from motivic.poly import Poly
from motivic.schemes import affine_space
from motivic.sieves import (ConstSieve, DisjointSieve, InterSieve, LevelSieve,
                            ProductSieve, UnionSieve, closed_sieve, full_sieve,
                            lift_sieve, open_sieve, presented_levels)
from motivic.topology import (FiniteSimplicialSet, boundary_simplex,
                              discrete_sset, evaluate_to_sset, invariants,
                              preservation_check, smith_normal_form,
                              standard_simplex)

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
        v, d = closed_sieve(self.B, [self.xb]), open_sieve(self.B, self.xb)
        full = full_sieve(self.B)
        pairs = [(ConstSieve(v), ConstSieve(d)),
                 (LevelSieve([v, full, d]), LevelSieve([d, v, full]))]
        for a, b in pairs:
            rep = preservation_check(a, b, self.k2)
            assert rep == {"union": True, "intersection": True,
                           "product": True, "ok": True}

    def test_a_member_test_unlike_the_levels_fails_the_intersection(self):
        # b lists only the origin but its member test accepts every point, so
        # the intersection lists all of a where the set operation keeps one
        class AcceptsAll(ConstSieve):
            def member(self, m, n, point):
                return True

        a = ConstSieve(full_sieve(self.B))
        b = AcceptsAll(closed_sieve(self.B, [self.xb]))
        rep = preservation_check(a, b, self.k2)
        assert rep == {"union": True, "intersection": False, "product": True,
                       "ok": False}


class TestValidation:
    def test_face_identities_are_checked(self):
        # an edge whose second face lands outside level 0 is refused
        def face(n, i, x):
            return "v" if i == 0 else "w"

        def degen(n, i, x):
            return "e"

        with pytest.raises(WorkbenchError):
            FiniteSimplicialSet(levels=[("v",), ("e",)], face=face, degen=degen)

    # maps that stay inside the levels but break one identity each
    @pytest.mark.parametrize("levels, face, degen, message", [
        # d_0 d_2 f = a but d_1 d_0 f = b
        ([("a", "b"), ("e",), ("f",)],
         lambda n, i, x: ("a", "b")[i] if n == 1 else "e",
         lambda n, i, x: "e" if n == 0 else "f",
         "face identity fails at n=2"),
        # s_0 s_0 v = f but s_1 s_0 v = g
        ([("v",), ("e",), ("f", "g")],
         lambda n, i, x: "v" if n == 1 else "e",
         lambda n, i, x: "e" if n == 0 else ("f", "g")[i],
         "degeneracy identity fails at n=0"),
        # d_1 s_0 a = b
        ([("a", "b"), ("e",)],
         lambda n, i, x: ("a", "b")[i],
         lambda n, i, x: "e",
         "mixed identity fails at n=0"),
    ], ids=["face", "degeneracy", "mixed"])
    def test_each_simplicial_identity_is_checked(self, levels, face, degen, message):
        with pytest.raises(EvalError, match=message):
            FiniteSimplicialSet(levels=levels, face=face, degen=degen)

    def test_cell_cap(self):
        from motivic.config import DEFAULT
        tight = DEFAULT.with_overrides(max_cells=2)
        with pytest.raises(WorkbenchError):
            standard_simplex(2, cfg=tight)
