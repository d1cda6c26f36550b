"""Class ring: canonical forms, counting homomorphisms, simplicial classes."""

from fractions import Fraction
from itertools import permutations

import pytest

from motivic.config import Config
from motivic.errors import AmbientMismatch, CapExceeded, EvalError
from motivic.fatpoints import base_point, make_fat_point
from motivic.fields import GF, QQ
from motivic.kring import (MEMO_BOUND, KClass, SClass, _block_candidates,
                           canonical_conjunction,
                           class_of_scheme, class_of_sieve,
                           class_of_simplicial, class_str, counting_hom,
                           counting_simplicial, discrete_hom_check,
                           expand_node, galois_check,
                           kclass_int, kclass_one, kclass_zero, lefschetz,
                           level_class, lift_const, lift_power, pushforward,
                           twist_levels)
from motivic.poly import Ideal, Poly, buchberger
from motivic.schemes import AffineScheme, CoordMap, affine_space
from motivic.sieves import (Closed, ConstSieve, DisjointSieve, Inter,
                            InterSieve, LevelSieve, OpenLoc, Sieve, UnionSieve,
                            closed_sieve, full_sieve, image_sieve, lift_sieve,
                            open_sieve, sieve_inter, sieve_union)
from motivic.topology import evaluate_to_sset

from battery import (enumerate_discrete_families, rand_class, rand_poly,
                     rand_sieve, reference_block_key, rng_for)

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

    def test_a_class_reprs_as_it_prints(self):
        # pytest shows the two sides of a failed class comparison by repr
        z = class_of_scheme(affine_space(QQ, ("x",), "A1")) - 3
        assert repr(z) == class_str(z) == "-3 + L"

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


def in_order(field, names, gens, opens=(), unions=(), images=None):
    """A sieve in Spec field[names]/(gens) cut by principal opens.

    Each polynomial is a function of a name -> variable dict, so the same
    presentation can be written in any variable order. `opens` are
    intersected; `unions` are opens joined to the result with `|`. With
    `images`, a name -> function of the (u, v) dict of the plane, the image
    of that map from the plane is intersected last.
    """
    v = {n: Poly.variable(n, names, field) for n in names}
    x = AffineScheme("X", Ideal(names, field, [g(v) for g in gens]))
    s = full_sieve(x)
    for g in opens:
        s = sieve_inter(s, open_sieve(x, g(v)))
    for g in unions:
        s = sieve_union(s, open_sieve(x, g(v)))
    if images:
        plane = affine_space(field, ("u", "v"), "A2")
        w = {n: Poly.variable(n, plane.vars, field) for n in plane.vars}
        f = CoordMap(plane, x, {n: g(w) for n, g in images.items()})
        s = sieve_inter(s, image_sieve(f))
    return s


# (u, v) -> (u^2, v^2, uv) maps the plane onto the cone xy = z^2
CONE = [lambda v: v["x"] * v["y"] - v["z"] ** 2]
SQUARES = {"x": lambda w: w["u"] ** 2, "y": lambda w: w["v"] ** 2,
           "z": lambda w: w["u"] * w["v"]}

RENAMED = {
    "cusp-inverted": (QQ, ("x", "y", "z"),
                      [lambda v: v["y"] ** 2 - v["x"] ** 3,
                       lambda v: v["z"] * v["x"] - 1], [], []),
    "circle-open": (QQ, ("x", "y", "w"),
                    [lambda v: v["x"] ** 2 + v["y"] ** 2 - 1],
                    [lambda v: v["x"] + v["y"]], []),
    "cone": (QQ, ("a", "b", "c", "d"),
             [lambda v: v["a"] * v["b"] - v["c"] * v["d"]],
             [lambda v: v["a"] - v["d"]], []),
    "union": (F3, ("x", "y", "z"), CONE, [lambda v: v["x"] + v["z"]],
              [lambda v: v["y"] - v["z"] + 1, lambda v: v["x"] - v["y"]]),
    "image-F3": (F3, ("x", "y", "z"), CONE, [lambda v: v["x"] + v["z"]], [],
                 SQUARES),
    "image-Q": (QQ, ("x", "y", "z"), CONE, [lambda v: v["x"] + v["z"]], [],
                SQUARES),
}


@pytest.mark.parametrize("name", sorted(RENAMED))
def test_renaming_coordinates_keeps_the_class(name):
    """The canonical block is least over coordinate permutations, so the
    order in which a presentation lists its variables cannot matter."""
    field, names, *parts = RENAMED[name]
    want = class_of_sieve(in_order(field, names, *parts))
    for order in permutations(names):
        got = class_of_sieve(in_order(field, order, *parts))
        assert got == want and class_str(got) == class_str(want), order


def test_an_image_block_runs_buchberger_once_per_permutation(monkeypatch):
    # the reduced basis of the conjunction, then one run for each of the
    # five permutations of (x, y, z) other than the identity. Expanding the
    # node hashes the map, which reduces its own presentations first
    s = in_order(F3, ("x", "y", "z"), CONE, images=SQUARES)
    expand_node(s.node)
    calls = []

    def counted(gens, cfg):
        calls.append(1)
        return buchberger(gens, cfg)

    monkeypatch.setattr("motivic.poly.buchberger", counted)
    assert class_str(class_of_sieve(s)) == "[(V(z0*z1 + 2*z2^2) & im(A2))]"
    assert len(calls) <= 6


def block_cases(field, rng):
    """(variables, reduced basis, open or None, image maps, kind) of blocks
    on 2 to 5 coordinates with nonempty bases, of every kind: no open, an
    open, an open in the ideal, and image leaves from a line and a plane."""
    sources = [affine_space(field, ("s",), "S1"), affine_space(field, ("s", "t"), "S2")]
    for n in range(2, 6):
        vars = tuple("v%d" % i for i in range(n))
        kinds = ["plain", "open", "zero open", "image"]
        made = 0
        while made < 2 * len(kinds):
            gens = [rand_poly(rng, vars, field, max_deg=2, max_terms=3, allow_const=False)
                    for _ in range(rng.randint(1, 3))]
            ideal = Ideal(vars, field, gens)
            if ideal.is_unit():
                continue
            basis = list(ideal.basis())
            kind = kinds[made % len(kinds)]
            made += 1
            open_g, ims = None, []
            if kind == "open":
                open_g = rand_poly(rng, vars, field, max_deg=2, max_terms=3)
            elif kind == "zero open":
                open_g = basis[0] * rand_poly(rng, vars, field, max_deg=1, max_terms=2)
            elif kind == "image":
                open_g = rand_poly(rng, vars, field, max_deg=1, max_terms=2)
                tgt = AffineScheme("blk", ideal)
                ims = [CoordMap(src, tgt, {v: rand_poly(rng, src.vars, field, max_terms=2)
                                           for v in vars})
                       for src in rng.sample(sources, rng.randint(1, 2))]
            yield vars, basis, open_g, ims, kind


@pytest.mark.parametrize("field", [F3, QQ], ids=repr)
def test_pruned_block_search_matches_the_unpruned_reference(field):
    """A candidate that loses on its basis stops early, and the block it
    picks is the one that trying every permutation in full picks."""
    seen = set()
    for vars, basis, open_g, ims, kind in block_cases(field, rng_for("blocks", field.char)):
        want = reference_block_key(vars, field, basis, open_g, ims)
        got = _block_candidates(vars, field, basis, open_g, ims, Config())
        if want is None:
            assert got is None, (kind, basis, open_g)
        else:
            assert (got.key, repr(got)) == want, (kind, basis, open_g)
        seen.add((len(vars), kind, want is None))
    for n in range(2, 6):
        assert {(n, "plain", False), (n, "open", False), (n, "zero open", True),
                (n, "image", False)} <= seen, n


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
    def test_each_ambient_enforces_its_own_caps(self):
        A2 = affine_space(QQ, ("x", "y"), "A2")
        tight = affine_space(QQ, ("x", "y"), "A2", Config(max_degree=1))
        assert tight == A2
        x, y = (Poly.variable(v, A2.vars, QQ) for v in A2.vars)
        s = closed_sieve(A2, [x * x - y * y * y + x])
        assert class_of_sieve(s) == class_of_sieve(s)
        assert A2.memo and A2.ideals
        # a basis that raises is not stored, so a retry raises again
        for _ in range(2):
            with pytest.raises(CapExceeded):
                class_of_sieve(Sieve(tight, s.node))
        assert not tight.memo and not tight.ideals

    def test_the_memo_stays_bounded_and_serves_equal_classes(self):
        ambient = AffineScheme("X", Ideal(("x", "y"), F3, []))
        rng = rng_for("memo")
        sieves, classes, seen, ideals = [], [], set(), set()
        # until both memos have evicted at least 20 entries
        while len(seen) <= MEMO_BOUND + 20 or len(ideals) <= MEMO_BOUND + 20:
            s = rand_sieve(rng, ambient, depth=2)
            sieves.append(s)
            seen.update(lits for _, lits in expand_node(s.node))
            classes.append(class_of_sieve(s))
            ideals.update(ambient.ideals)
            assert len(ambient.memo) <= MEMO_BOUND
            assert len(ambient.ideals) <= MEMO_BOUND
        assert len(ambient.memo) == len(ambient.ideals) == MEMO_BOUND
        # again, now with the early conjunctions evicted and the late ones
        # served from the memo, then on a fresh ambient without a memo entry
        for s, z in zip(sieves, classes):
            warm = class_of_sieve(s)
            fresh = AffineScheme("X", Ideal(("x", "y"), F3, []))
            again = class_of_sieve(Sieve(fresh, s.node))
            assert warm == again == z
            assert class_str(warm) == class_str(again) == class_str(z)
        assert len(ambient.memo) <= MEMO_BOUND
        assert len(ambient.ideals) <= MEMO_BOUND

    def test_closed_literals_in_either_order_share_one_ideal(self):
        # a conjunction's literals come in frozenset order, which follows
        # the per-process string hash
        plane = affine_space(F3, ("x", "y"), "P")
        x, y = (Poly.variable(v, plane.vars, F3) for v in plane.vars)
        a, b = x * x + y * y, x * y
        first = canonical_conjunction(plane, [("C", a), ("C", b)])
        assert canonical_conjunction(plane, [("C", b), ("C", a)]) == first
        assert len(plane.ideals) == 1

    @pytest.mark.parametrize("kept", ["symbols", "ideals"])
    def test_an_entry_read_late_outlives_older_ones(self, kept):
        # V(xy - i) over Q: one conjunction, one symbol and one reduced
        # presentation each; a symbol is read through class_of_sieve, an
        # ideal through canonical_conjunction, which bypasses the symbols
        plane = affine_space(QQ, ("x", "y"), "P")
        x, y = (Poly.variable(v, plane.vars, QQ) for v in plane.vars)
        gens = [x * y - i for i in range(MEMO_BOUND + 1)]
        if kept == "symbols":
            memo = plane.memo
            keys = [frozenset([("C", g)]) for g in gens]

            def read(g):
                class_of_sieve(closed_sieve(plane, [g]))
        else:
            memo = plane.ideals
            keys = [(plane.vars, (g,)) for g in gens]

            def read(g):
                canonical_conjunction(plane, [("C", g)])
        for g in gens[:MEMO_BOUND - 1]:
            read(g)
        read(gens[0])
        read(gens[MEMO_BOUND - 1])
        assert len(memo) == MEMO_BOUND and keys[0] in memo and keys[1] in memo
        # the bound is reached: the next entry evicts the least recently
        # used, which is the second, not the first
        read(gens[MEMO_BOUND])
        assert len(memo) == MEMO_BOUND
        assert keys[0] in memo and keys[1] not in memo


def union_ladder(k):
    """D(x + i*y - i^2) for i = 1..k, joined with `|` in Spec Q[x, y]."""
    plane = AffineScheme("P", Ideal(("x", "y"), QQ, []))
    x, y = (Poly.variable(v, plane.vars, QQ) for v in plane.vars)
    s = open_sieve(plane, x + y - 1)
    for i in range(2, k + 1):
        s = sieve_union(s, open_sieve(plane, x + i * y - i * i))
    return s


class TestSharedProducts:
    def test_the_union_ladder_shares_its_products(self, monkeypatch):
        calls = []
        real = Poly.__mul__

        def counted(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(Poly, "__mul__", counted)
        class_of_sieve(union_ladder(9))
        # one product per conjunction of two or more opens: 2^9 - 1 - 9,
        # where multiplying out each conjunction alone takes 9 * 2^8
        assert len(calls) <= 2 ** 9

    @pytest.mark.parametrize("field", [F3, QQ], ids=["F3", "Q"])
    def test_shared_products_give_the_unshared_class(self, field):
        sieves = [union_ladder(5)] if field == QQ else []
        sieves += [rand_sieve(rng_for("chain", seed),
                              affine_space(field, ("x", "y"), "X"), 3)
                   for seed in range(8)]
        for s in sieves:
            want = kclass_zero(field)
            for coeff, lits in expand_node(s.node):
                sym = canonical_conjunction(s.ambient, lits)
                if sym is not None:
                    want = want + KClass(field, {sym: coeff})
            got = class_of_sieve(s)
            assert got == want and class_str(got) == class_str(want)


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


class TestBlockCountMemo:
    """counting_hom keeps each block's count in the fat point's memo."""

    @staticmethod
    def block_counts(m):
        return [key for key in m.memo if key[0] == "count"]

    def test_a_tighter_cap_raises_as_an_uncached_count_does(self):
        def hyperbola(cfg):
            h = AffineScheme("H", Ideal(("x", "y"), F3, [], cfg))
            x, y = (Poly.variable(v, h.vars, F3) for v in h.vars)
            return class_of_sieve(closed_sieve(h, [x * y - 1]))

        loose = hyperbola(Config())
        tight = hyperbola(Config(max_candidates=80))
        assert loose == tight
        m = fat2(F3)
        assert counting_hom(loose, m) == 6
        assert len(self.block_counts(m)) == 1
        # 3^4 candidates at k[t]/(t^2): the memo holds the count, but not
        # under this cap, so the count is made again and refused
        with pytest.raises(CapExceeded) as cached:
            counting_hom(tight, m)
        with pytest.raises(CapExceeded) as fresh:
            counting_hom(tight, fat2(F3))
        assert str(cached.value) == str(fresh.value)
        assert str(cached.value) == "enumeration of 81 candidates exceeds cap 80"
        assert counting_hom(loose, m) == 6

    @pytest.mark.parametrize("name", ["union", "image-F3"])
    def test_renamed_presentations_share_their_block_counts(self, name):
        field, names, *parts = RENAMED[name]
        m = fat2(field)
        want = in_order(field, names, *parts).count(m)
        blocks = None
        for order in permutations(names):
            z = class_of_sieve(in_order(field, order, *parts))
            blocks = blocks or {b for (bs, _) in z.terms for b in bs}
            assert counting_hom(z, m) == want, order
            assert counting_hom(z, fat2(field)) == want, order
        assert len(self.block_counts(m)) == len(blocks)


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

    def test_an_integer_lifts_as_a_constant_shape(self):
        z = class_of_sieve(open_sieve(self.B, Poly.variable("x", self.B.vars, F2)))
        assert lift_const(z) + 1 == lift_const(z + 1)
        assert lift_const(z) - 1 == lift_const(z - 1)

    def test_a_plain_class_lifts_into_a_sum_with_a_simplicial_one(self):
        k, s = lefschetz(F2), lift_const(lefschetz(F2, 2))
        mixed = [k + s, s + k, k - s, s - k]
        assert all(isinstance(z, SClass) for z in mixed)
        assert [class_str(z) for z in mixed] \
            == ["L + L^2", "L + L^2", "L - L^2", "-L + L^2"]

    def test_a_plain_times_a_simplicial_class_needs_the_config(self):
        k, s = lefschetz(F2), lift_const(lefschetz(F2, 2))
        with pytest.raises(TypeError):
            k * s
        cfg = Config()
        assert s.mul(k, cfg) == s.mul(lift_const(k), cfg)

    def test_symmetric_power_levels(self):
        z = class_of_simplicial(self.sym)
        for n in range(4):
            assert counting_simplicial(z, self.k2, n) == n + 2
            assert counting_simplicial(z, self.k2, n) == self.sym.count(self.k2, n)

    def test_a_twisted_symmetric_base_counts_when_its_count_is_whole(self):
        A1 = affine_space(F3, ("u",), "A1")
        u = Poly.variable("u", A1.vars, F3)
        # (#D(u) + 1) / q: 3/3 at k, but 7/9 at k[t]/(t^2)
        base = (class_of_sieve(open_sieve(A1, u)) + 1).twist(-1)
        z = lift_power(base, symmetric=True)
        for n in range(3):
            assert counting_simplicial(z, base_point(F3), n) == 1
            assert counting_simplicial(lift_power(base), fat2(F3), n) == Fraction(7, 9) ** (n + 1)
            with pytest.raises(EvalError):
                counting_simplicial(z, fat2(F3), n)

    def test_constant_shape_is_strictly_schemic(self):
        z = class_of_simplicial(self.triv)
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
        ca = ConstSieve(closed_sieve(self.B, [xb]))
        cb = ConstSieve(open_sieve(self.B, xb))
        lhs = (class_of_simplicial(UnionSieve(ca, cb))
               + class_of_simplicial(InterSieve(ca, cb)))
        rhs = class_of_simplicial(ca) + class_of_simplicial(cb)
        assert lhs == rhs

    def test_mixed_product_materializes_levels(self):
        z = class_of_simplicial(self.triv).mul(class_of_simplicial(self.fib),
                                               self.B.ideal.cfg)
        for n in range(3):
            assert counting_simplicial(z, self.k2, n) == 2 * 2 ** (n + 1)

    def test_product_materializes_the_configured_levels(self):
        cfg = Config(skeletal_level=2)
        B = AffineScheme("B", Ideal(("x",), F2, [], cfg))
        triv = class_of_simplicial(lift_sieve(full_sieve(B), "trivial"))
        fib = class_of_simplicial(lift_sieve(full_sieve(B), "fiber"))
        z = triv.mul(fib, cfg)
        (sym,) = z.terms
        assert sym[0] == "levels" and len(sym[1]) == 3
        with pytest.raises(CapExceeded):
            level_class(z, 3)
        with pytest.raises(TypeError):
            triv * fib
        assert triv * 2 == triv + triv

    def test_twist_levels_shifts_levels(self):
        z = twist_levels(class_of_simplicial(self.triv), [0, -1, -2])
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


class BrokenAwayFromTheOrigin(ConstSieve):
    """A constant shape over F3 with one part broken at every point but the
    origin: "s0" negates the first degeneracy, so its faces miss; "s1"
    negates the second, so two degeneracies disagree; "level" keeps only
    the origin above level 0, so a degeneracy leaves the sieve."""

    def __init__(self, s, broken):
        super().__init__(s)
        self.broken = broken

    def level_points(self, m, n):
        return tuple(p for p in super().level_points(m, n) if self.member(m, n, p))

    def member(self, m, n, point):
        origin = not any(any(vec) for vec in point)
        return super().member(m, n, point) and (
            origin or n == 0 or self.broken != "level")

    def degeneracy(self, n, i, p):
        if self.broken != "s%d" % i:
            return p
        return tuple(tuple(-c % 3 for c in vec) for vec in p)


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

    def test_discrete_hom_check_matches_the_family_enumeration(self):
        k3 = base_point(F3)
        A1 = affine_space(F3, ("x",), "A1")
        dx = open_sieve(A1, Poly.variable("x", A1.vars, F3))
        u = Poly.variable("u", ("u",), F3)
        two = AffineScheme("two", Ideal(("u",), F3, [u * u - u]))
        none = AffineScheme("none", Ideal(("u",), F3, [u, u - 1]))
        shapes = [lift_sieve(dx, tag) for tag in ("trivial", "fiber", "sym")]
        shapes += [BrokenAwayFromTheOrigin(full_sieve(A1), broken)
                   for broken in ("s0", "s1", "level")]
        verdicts = set()
        for y in (two, none):
            for x in shapes:
                for top in (0, 1, 2):
                    rep = discrete_hom_check(y, x, k3, top)
                    valid, levels, ypts = enumerate_discrete_families(y, x, k3, top)
                    assert rep["morphisms"] == len(valid), (y, x, top)
                    assert rep["expected"] == len(levels[0]) ** len(ypts)
                    assert rep["ok"] == (len(valid) == rep["expected"])
                    verdicts.add((y.name, rep["ok"]))
        # the broken shapes fail against two points; nothing maps from none
        assert verdicts == {("two", True), ("two", False), ("none", True)}

    def test_the_tau_check_counts_a_power_shape_at_a_jet(self):
        # the F3 instance with 6**9 morphisms; one point of y enumerates the
        # chains by brute force, and the points of y are independent
        t2 = fat2(F3)
        A1 = affine_space(F3, ("x",), "A1")
        x = lift_sieve(open_sieve(A1, Poly.variable("x", A1.vars, F3)), "fiber")
        U = affine_space(F3, ("u",), "U")
        u = Poly.variable("u", ("u",), F3)
        origin = AffineScheme("O", Ideal(("u",), F3, [u]))
        valid, levels, _ = enumerate_discrete_families(origin, x, t2, 2)
        assert len(valid) == len(levels[0]) == 6
        rep = discrete_hom_check(U, x, t2, top=2)
        assert rep == {"morphisms": 6 ** 9, "expected": 10077696, "ok": True}

    def test_a_degeneracy_leaving_the_sieve_is_refused_on_evaluation(self):
        k3 = base_point(F3)
        A1 = affine_space(F3, ("x",), "A1")
        evaluate_to_sset(ConstSieve(full_sieve(A1)), k3, top=2)
        broken = BrokenAwayFromTheOrigin(full_sieve(A1), "level")
        with pytest.raises(EvalError, match="degeneracy leaves the level set"):
            evaluate_to_sset(broken, k3, top=2)

    def test_a_shape_without_maps_has_no_tau_check(self):
        k2 = base_point(F2)
        B = affine_space(F2, ("x",), "B")
        family = LevelSieve([full_sieve(B)] * 2)
        for check in (discrete_hom_check, enumerate_discrete_families):
            with pytest.raises(EvalError, match="indexed family carries no structure maps"):
                check(B, family, k2, 1)

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
