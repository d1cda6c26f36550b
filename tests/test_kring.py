"""Class ring: canonical forms, counting homomorphisms, simplicial classes."""

from fractions import Fraction

import pytest

from motivic.config import DEFAULT, Config
from motivic.errors import AmbientMismatch, CapExceeded
from motivic.fatpoints import base_point, make_fat_point
from motivic.fields import GF, QQ
from motivic.kring import (MEMO_BOUND, class_of_scheme, class_of_sieve,
                           class_of_simplicial, class_str, counting_hom,
                           counting_simplicial, discrete_hom_check,
                           expand_node, galois_check, is_strictly_schemic,
                           kclass_int, kclass_one, kclass_zero, lefschetz,
                           level_class, lift_const, pushforward,
                           twist_by_rule)
from motivic.poly import Ideal, Poly
from motivic.schemes import AffineScheme, CoordMap, affine_space
from motivic.sieves import (Closed, ConstSieve, DisjointSieve, Inter,
                            InterSieve, OpenLoc, Sieve, UnionSieve,
                            closed_sieve, full_sieve, lift_sieve, open_sieve,
                            sieve_inter, sieve_union)

from battery import rand_class, rand_sieve, rng_for

F2, F3, F5 = GF(2), GF(3), GF(5)


def fat2(field):
    t = Poly.variable("t", ("t",), field)
    return make_fat_point(("t",), field, [t * t], "t2")


class TestPlainClasses:
    def test_affine_spaces_are_lefschetz_powers(self):
        A1 = affine_space(QQ, ("x",), "A1")
        A3 = affine_space(QQ, ("x", "y", "z"), "A3")
        L = lefschetz(QQ)
        assert class_of_scheme(A1) == L
        assert class_of_scheme(A3) == L * L * L
        assert class_str(class_of_scheme(A1)) == "L"

    def test_reduced_points_add_up(self):
        A1 = affine_space(QQ, ("x",), "A1")
        x = Poly.variable("x", A1.vars, QQ)
        one = Poly.constant(1, A1.vars, QQ)
        va, vb = closed_sieve(A1, [x]), closed_sieve(A1, [x - one])
        assert class_of_sieve(va) == kclass_one(QQ)
        assert class_of_sieve(sieve_union(va, vb)) == kclass_int(QQ, 2)
        assert class_of_sieve(sieve_inter(va, vb)).is_zero()
        assert class_of_sieve(sieve_union(va, va)) == kclass_one(QQ)

    def test_graph_eliminates_to_a_line(self):
        A2 = affine_space(QQ, ("x", "y"), "A2")
        x = Poly.variable("x", A2.vars, QQ)
        y = Poly.variable("y", A2.vars, QQ)
        assert class_of_sieve(closed_sieve(A2, [y - x * x])) == lefschetz(QQ)

    def test_hyperbola_is_presentation_faithful(self):
        # Not identified with L - 1 as a symbol, but counts like q - 1.
        H = affine_space(F5, ("x", "y"), "H")
        x = Poly.variable("x", H.vars, F5)
        y = Poly.variable("y", H.vars, F5)
        one = Poly.constant(1, H.vars, F5)
        z = class_of_sieve(closed_sieve(H, [x * y - one]))
        L5 = lefschetz(F5)
        assert z != L5 - 1
        assert counting_hom(z, base_point(F5)) == 4
        assert counting_hom(L5 - 1, base_point(F5)) == 4

    def test_component_split_identifies_product_presentations(self):
        T = affine_space(F3, ("x", "y"), "T")
        x = Poly.variable("x", T.vars, F3)
        y = Poly.variable("y", T.vars, F3)
        torus = sieve_inter(open_sieve(T, x), open_sieve(T, y))
        U = affine_space(F3, ("u",), "U")
        u = Poly.variable("u", U.vars, F3)
        gm = class_of_sieve(open_sieve(U, u))
        assert class_of_sieve(torus) == gm * gm

    def test_variable_names_do_not_matter(self):
        A = affine_space(F3, ("a",), "A")
        B = affine_space(F3, ("b",), "B")
        za = class_of_sieve(open_sieve(A, Poly.variable("a", A.vars, F3)))
        zb = class_of_sieve(open_sieve(B, Poly.variable("b", B.vars, F3)))
        assert za == zb


class TestPickling:
    def test_class_counts_after_a_round_trip_through_another_process(self):
        # the payload of each block travels with the class: no table in the
        # building process is needed to print or count it
        import os
        import pickle
        import subprocess
        import sys

        import motivic
        build = (
            "import pickle\n"
            "from motivic.fatpoints import make_fat_point\n"
            "from motivic.fields import GF\n"
            "from motivic.kring import class_of_sieve, class_str, counting_hom\n"
            "from motivic.poly import Poly\n"
            "from motivic.schemes import affine_space\n"
            "from motivic.sieves import closed_sieve, open_sieve, sieve_inter\n"
            "F3 = GF(3)\n"
            "A2 = affine_space(F3, ('x', 'y'), 'A2')\n"
            "x, y = (Poly.variable(v, A2.vars, F3) for v in A2.vars)\n"
            "t = Poly.variable('t', ('t',), F3)\n"
            "m = make_fat_point(('t',), F3, [t * t], 't2')\n"
            "cusp = y * y - x * x * x\n"
            "z = class_of_sieve(sieve_inter(closed_sieve(A2, [cusp]),\n"
            "                               open_sieve(A2, x)))\n"
            "hash(cusp)\n"
            "print(pickle.dumps((z, cusp)).hex())\n"
            "print(class_str(z))\n"
            "print(counting_hom(z, m))\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(motivic.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("PYTHONHASHSEED", None)  # string hashes differ from ours
        proc = subprocess.run([sys.executable, "-c", build], env=env,
                              capture_output=True, text=True, check=True)
        blob, printed, count = proc.stdout.splitlines()
        z, cusp = pickle.loads(bytes.fromhex(blob))
        A2 = affine_space(F3, ("x", "y"), "A2")
        x, y = (Poly.variable(v, A2.vars, F3) for v in A2.vars)
        assert cusp in {y * y - x * x * x}
        assert z == class_of_sieve(sieve_inter(closed_sieve(A2, [cusp]),
                                               open_sieve(A2, x)))
        assert "V(" in printed and "D(" in printed
        assert class_str(z) == printed
        assert str(counting_hom(z, fat2(F3))) == count


class TestConjunctionMemo:
    def test_the_config_is_part_of_the_key(self):
        A2 = affine_space(QQ, ("x", "y"), "A2")
        x, y = (Poly.variable(v, A2.vars, QQ) for v in A2.vars)
        s = closed_sieve(A2, [x * x - y * y * y + x])
        assert class_of_sieve(s, DEFAULT) == class_of_sieve(s, DEFAULT)
        assert A2.memo
        with pytest.raises(CapExceeded):
            class_of_sieve(s, Config(max_degree=1))

    def test_the_memo_stays_bounded_and_serves_equal_classes(self):
        ambient = AffineScheme("X", Ideal(("x", "y"), F3, []))
        rng = rng_for("memo")
        sieves, seen = [], set()
        while len(seen) <= MEMO_BOUND + 20:
            s = rand_sieve(rng, ambient, depth=2)
            sieves.append(s)
            seen.update(lits for _, lits in expand_node(s.node))
        classes = []
        for s in sieves:
            classes.append(class_of_sieve(s))
            assert len(ambient.memo) <= MEMO_BOUND
        assert len(ambient.memo) == MEMO_BOUND
        # again, now with the early conjunctions evicted and the late ones
        # served from the memo, then on a fresh ambient without a memo entry
        for s, z in zip(sieves, classes):
            assert class_of_sieve(s) == z
            fresh = AffineScheme("X", Ideal(("x", "y"), F3, []))
            again = class_of_sieve(Sieve(fresh, s.node))
            assert again == z and class_str(again) == class_str(z)
        assert len(ambient.memo) <= MEMO_BOUND


class TestCounting:
    def test_counts_at_ground_and_fat_points(self):
        U = affine_space(F3, ("u",), "U")
        u = Poly.variable("u", U.vars, F3)
        dx = open_sieve(U, u)
        z = class_of_sieve(dx)
        assert counting_hom(z, base_point(F3)) == 2
        assert counting_hom(z, fat2(F3)) == 6
        assert dx.count(fat2(F3)) == 6

    def test_scissor_identity_symbolic_and_counted(self):
        T = affine_space(F3, ("x", "y"), "T")
        x = Poly.variable("x", T.vars, F3)
        y = Poly.variable("y", T.vars, F3)
        a = closed_sieve(T, [x * y])
        b = open_sieve(T, x - y)
        lhs = (class_of_sieve(sieve_union(a, b))
               + class_of_sieve(sieve_inter(a, b)))
        rhs = class_of_sieve(a) + class_of_sieve(b)
        assert lhs == rhs
        for s in (sieve_union(a, b), sieve_inter(a, b), a, b):
            for m in (base_point(F3), fat2(F3)):
                assert counting_hom(class_of_sieve(s), m) == s.count(m)

    def test_negative_twists_count_fractionally(self):
        z = (lefschetz(F5) - 1).twist(-1)
        assert counting_hom(z, base_point(F5)) == Fraction(4, 5)

    def test_counting_respects_ring_operations(self):
        rng = rng_for("kring-ops")
        A2 = affine_space(F3, ("x", "y"), "A2")
        k = base_point(F3)
        for _ in range(20):
            za = class_of_sieve(rand_sieve(rng, A2, depth=1))
            zb = class_of_sieve(rand_sieve(rng, A2, depth=1))
            ca = counting_hom(za, k)
            cb = counting_hom(zb, k)
            assert counting_hom(za + zb, k) == ca + cb
            assert counting_hom(za * zb, k) == ca * cb

    def test_ring_axioms_on_random_classes(self):
        rng = rng_for("kring-axioms")
        ambients = (affine_space(F3, ("x", "y"), "A2"),
                    affine_space(F3, ("u",), "A1"))
        for _ in range(20):
            a = rand_class(rng, F3, ambients)
            b = rand_class(rng, F3, ambients)
            c = rand_class(rng, F3, ambients)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + kclass_zero(F3) == a
            assert a * kclass_one(F3) == a


class TestSimplicialClasses:
    def setup_method(self):
        self.B = affine_space(F2, ("x",), "B")
        self.k2 = base_point(F2)
        self.fib = lift_sieve(full_sieve(self.B), "fiber")
        self.sym = lift_sieve(full_sieve(self.B), "sym")
        self.triv = lift_sieve(full_sieve(self.B), "trivial")

    def test_fiber_power_levels(self):
        z = class_of_simplicial(self.fib)
        for n in range(4):
            assert counting_simplicial(z, self.k2, n) == 2 ** (n + 1)
            assert level_class(z, n) == lefschetz(F2, n + 1)

    def test_symmetric_power_levels(self):
        z = class_of_simplicial(self.sym)
        for n in range(4):
            assert counting_simplicial(z, self.k2, n) == n + 2
            assert counting_simplicial(z, self.k2, n) == self.sym.count(self.k2, n)

    def test_constant_shape_is_strictly_schemic(self):
        z = class_of_simplicial(self.triv)
        assert is_strictly_schemic(z)
        assert not is_strictly_schemic(class_of_simplicial(self.fib))
        for n in range(3):
            assert counting_simplicial(z, self.k2, n) == 2
            assert level_class(z, n) == lefschetz(F2)

    def test_disjoint_union_adds(self):
        dis = DisjointSieve(self.triv, self.fib)
        z = class_of_simplicial(dis)
        for n in range(3):
            assert counting_simplicial(z, self.k2, n) == dis.count(self.k2, n)

    def test_simplicial_scissor_on_const_shapes(self):
        xb = Poly.variable("x", self.B.vars, F2)
        ca = ConstSieve(self.B, Closed((xb,)))
        cb = ConstSieve(self.B, OpenLoc(xb))
        lhs = (class_of_simplicial(UnionSieve(ca, cb))
               + class_of_simplicial(InterSieve(ca, cb)))
        rhs = class_of_simplicial(ca) + class_of_simplicial(cb)
        assert lhs == rhs

    def test_mixed_product_materializes_levels(self):
        z = class_of_simplicial(self.triv).mul(class_of_simplicial(self.fib))
        for n in range(3):
            assert counting_simplicial(z, self.k2, n) == 2 * 2 ** (n + 1)

    def test_twist_by_rule_shifts_levels(self):
        z = twist_by_rule(class_of_simplicial(self.triv), lambda n: -n)
        for n in range(3):
            assert level_class(z, n) == lefschetz(F2, 1 - n)

    def test_constant_lift_inverts_levelwise(self):
        rng = rng_for("kring-lift")
        A2 = affine_space(F3, ("x", "y"), "A2")
        for _ in range(10):
            z = class_of_sieve(rand_sieve(rng, A2, depth=1))
            zs = lift_const(z)
            for n in range(3):
                assert level_class(zs, n) == z


class TestAdjunctions:
    def test_discrete_hom_counts(self):
        B = affine_space(F2, ("x",), "B")
        k2 = base_point(F2)
        yvar = Poly.variable("y", ("y",), F2)
        Y = AffineScheme("Y", Ideal(("y",), F2, [yvar * yvar - yvar]))
        fib = lift_sieve(full_sieve(B), "fiber")
        triv = lift_sieve(full_sieve(B), "trivial")
        for target in (fib, triv):
            rep = discrete_hom_check(Y, target, k2, top=2)
            assert rep["ok"] and rep["expected"] == 4

    def test_pushforward_image_points(self):
        A2 = affine_space(F3, ("x", "y"), "A2f")
        x = Poly.variable("x", A2.vars, F3)
        y = Poly.variable("y", A2.vars, F3)
        A1 = affine_space(F3, ("u",), "A1f")
        proj = CoordMap(A2, A1, {"u": x})
        curve = Sieve(A2, Inter(Closed((y - x * x,)), OpenLoc(x)))
        pushed = pushforward(curve, proj)
        assert set(pushed.points(base_point(F3))) == {((1,),), ((2,),)}

    def test_image_preimage_adjunction(self):
        A2 = affine_space(F3, ("x", "y"), "A2f")
        x = Poly.variable("x", A2.vars, F3)
        y = Poly.variable("y", A2.vars, F3)
        A1 = affine_space(F3, ("u",), "A1f")
        u = Poly.variable("u", A1.vars, F3)
        proj = CoordMap(A2, A1, {"u": x})
        curve = Sieve(A2, Inter(Closed((y - x * x,)), OpenLoc(x)))
        for target in (full_sieve(A1), closed_sieve(A1, [u]), open_sieve(A1, u)):
            assert galois_check(proj, curve, target, base_point(F3))["ok"]

    def test_galois_check_validates_ambients(self):
        A2 = affine_space(F3, ("x", "y"), "A2f")
        x = Poly.variable("x", A2.vars, F3)
        A1 = affine_space(F3, ("u",), "A1f")
        proj = CoordMap(A2, A1, {"u": x})
        wrong = full_sieve(A1)
        with pytest.raises(AmbientMismatch):
            galois_check(proj, wrong, wrong, base_point(F3))
