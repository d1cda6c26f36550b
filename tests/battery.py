"""Seeded random generators and reference enumerators for the test batteries.

Everything is driven by random.Random seeded from a string, which is stable
across runs and platforms, so battery tests are reproducible bit for bit.
The reference enumerators evaluate through `QuotientAlgebra.eval_poly`, one
algebra vector per coordinate, independently of the point search; an image
leaf holds at the points that the source's reference points reach through
`eval_poly` of the map. The discrete-family enumerator tries every choice
of level points for every point of y, where `discrete_hom_check` walks one
degeneracy chain per vertex. The reference Buchberger run is the plain textbook
loop on `Poly` sums and monomial multiples formed term by term in the field's
own arithmetic (Fractions over Q): every pair, re-sorted before each pop, with
only the coprime-leading-term skip, independently of the int kernels of
products, division and bases in `motivic.poly`. The reference Krull dimension
tries every subset of the variables. The reference block search makes and
`repr`s the whole key of every coordinate permutation of a block, where
`kring._block_candidates` stops a candidate that loses on its basis.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product as iproduct

from motivic.config import DEFAULT
from motivic.errors import CapExceeded
from motivic.fatpoints import base_point, make_fat_point
from motivic.fields import QQ, Field
from motivic.kring import KClass, class_of_sieve, kclass_int, lefschetz
from motivic.poly import Ideal, Poly, grevlex_key
from motivic.schemes import AffineScheme, CoordMap
from motivic.sieves import (Closed, ConstSieve, DisjointSieve, Empty, Full, Im,
                            Inter, InterSieve, LevelSieve, OpenLoc, PowerSieve,
                            ProductSieve, Sieve, Union, UnionSieve, closed_sieve,
                            empty_sieve, full_sieve, image_sieve, open_sieve,
                            sieve_inter, sieve_union)


def rng_for(label: str, seed: int = 0) -> random.Random:
    return random.Random("%s:%d" % (label, seed))


def rand_scalar(rng, field: Field, zero_ok: bool = False):
    if field.char == 0:
        lo = 0 if zero_ok else 1
        c = Fraction(rng.randint(lo, 3))
        return -c if rng.random() < 0.5 and c else c
    lo = 0 if zero_ok else 1
    return rng.randrange(lo, field.char)


def rand_poly(rng, vars, field: Field, max_deg: int = 2,
              max_terms: int = 3, allow_const: bool = True) -> Poly:
    """A small nonzero polynomial."""
    n = len(vars)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = [0] * n
        for _ in range(rng.randint(0 if allow_const else 1, max_deg)):
            e[rng.randrange(n)] += 1
        key = tuple(e)
        c = rand_scalar(rng, field)
        terms[key] = field.add(terms.get(key, field.zero), c)
    terms = {e: c for e, c in terms.items() if c != field.zero}
    if not terms:
        return Poly.variable(vars[rng.randrange(n)], tuple(vars), field)
    return Poly(tuple(vars), field, terms)


def rand_map(rng, source: AffineScheme, target: AffineScheme) -> CoordMap:
    """A morphism whose coordinate images are small random polynomials."""
    return CoordMap(source, target, {
        v: rand_poly(rng, source.vars, source.field, max_deg=2, max_terms=2)
        for v in target.vars})


def rand_sieve(rng, scheme: AffineScheme, depth: int = 2, maps=()) -> Sieve:
    """A random union/intersection tree of V, D, full, empty leaves, and
    images of the given maps into the scheme when there are any."""
    if depth <= 0 or rng.random() < 0.4:
        if maps and rng.random() < 0.2:
            return image_sieve(maps[rng.randrange(len(maps))])
        roll = rng.random()
        if roll < 0.45:
            gens = [rand_poly(rng, scheme.vars, scheme.field, max_deg=2,
                              max_terms=2, allow_const=False)
                    for _ in range(rng.randint(1, 2))]
            return closed_sieve(scheme, gens)
        if roll < 0.85:
            g = rand_poly(rng, scheme.vars, scheme.field, max_deg=2,
                          max_terms=2, allow_const=False)
            return open_sieve(scheme, g)
        if roll < 0.95:
            return full_sieve(scheme)
        return empty_sieve(scheme)
    left = rand_sieve(rng, scheme, depth - 1, maps)
    right = rand_sieve(rng, scheme, depth - 1, maps)
    op = sieve_union if rng.random() < 0.5 else sieve_inter
    return op(left, right)


def rand_class(rng, field: Field, schemes) -> KClass:
    """A random ring element: ints, Lefschetz powers, sieve classes."""
    out = kclass_int(field, 0)
    for _ in range(rng.randint(1, 3)):
        term = kclass_int(field, rng.randint(-2, 2))
        roll = rng.random()
        if roll < 0.3:
            term = lefschetz(field, rng.randint(-2, 2))
        elif roll < 0.8:
            amb = schemes[rng.randrange(len(schemes))]
            term = class_of_sieve(rand_sieve(rng, amb, depth=1))
            if rng.random() < 0.3:
                term = term.twist(rng.randint(-1, 1))
        if rng.random() < 0.5:
            out = out + term
        else:
            out = out - term
    return out


def jet_point(field: Field, k: int):
    t = Poly.variable("t", ("t",), field)
    return make_fat_point(("t",), field, [t ** k], "t%d" % k)


def kernel_points(field: Field):
    """Fat points for the differential tests of the point search: jets of
    length 1 to 4, and two points in two variables, monomial and not."""
    vs = ("x", "y")
    x = Poly.variable("x", vs, field)
    y = Poly.variable("y", vs, field)
    return [base_point(field), jet_point(field, 2), jet_point(field, 3),
            jet_point(field, 4),
            make_fat_point(vs, field, [x * x, y * y], "sq"),
            make_fat_point(vs, field, [x * x - y ** 3, x * y], "cusp")]


# candidates of the reference enumerator per scheme in `mixed_cases`
BUDGET = 729


def small(field, m, names):
    """As many of `names` as keep the candidates within the budget."""
    while names and field.order ** (len(names) * m.length) > BUDGET:
        names = names[:-1]
    return names


def rand_scheme(rng, field, names, label="X"):
    gens = [rand_poly(rng, names, field, max_deg=3)
            for _ in range(rng.randint(0, 2))]
    return AffineScheme(label, Ideal(names, field, gens))


def mixed_cases(field, m, rng, count):
    """(ambient, sieve) pairs whose sieves mix V, D, im, full and empty."""
    out = []
    while len(out) < count:
        vs = small(field, m, ("x", "y")[:rng.randint(1, 2)])
        us = small(field, m, ("u", "v")[:rng.randint(1, 2)])
        if not vs or not us:
            return out
        x = rand_scheme(rng, field, vs)
        maps = [rand_map(rng, rand_scheme(rng, field, us, "S"), x)
                for _ in range(2)]
        out.append((x, rand_sieve(rng, x, maps=maps)))
    return out


# -- reference enumerators ---------------------------------------------------


def reference_points(x: AffineScheme, m, cfg=DEFAULT):
    """points(x, m) by backtracking over whole algebra vectors.

    Each variable in turn takes every vector of O_m, and an equation is
    tested through `eval_poly` once every variable it touches has an image.
    The points come out sorted because the vectors are tried in order.
    """
    n = len(x.vars)
    total = (x.field.order ** (n * m.length)) if n else 1
    if total > cfg.max_candidates:
        raise CapExceeded("enumeration of %d candidates exceeds cap %d"
                          % (total, cfg.max_candidates))
    eqs = []
    for g in x.ideal.gens:
        sup = g.support()
        eqs.append((max(sup) if sup else -1, g))
    # constant equations (no variables) veto everything up front
    if any(last < 0 and not m.is_zero_vec(m.eval_poly(g, {})) for last, g in eqs):
        return []
    options = list(iproduct(x.field.elements(), repeat=m.length))
    out = []
    images = {}

    def assign(i):
        if i == n:
            out.append(tuple(images[v] for v in x.vars))
            return
        for vec in options:
            images[x.vars[i]] = vec
            if all(last != i or m.is_zero_vec(m.eval_poly(g, images))
                   for last, g in eqs):
                assign(i + 1)
        images.pop(x.vars[i], None)

    assign(0)
    return out


@lru_cache(maxsize=256)
def reference_image(cmap, m, cfg=DEFAULT):
    """The image of cmap at m: each reference point of the source, pushed
    through the map's coordinate images by `eval_poly`. Kept per map and
    point, since membership asks for it once per candidate."""
    out = set()
    for q in reference_points(cmap.source, m, cfg):
        src = dict(zip(cmap.source.vars, q))
        out.add(tuple(m.eval_poly(cmap.images[v], src)
                      for v in cmap.target.vars))
    return frozenset(out)


def reference_member(node, ambient: AffineScheme, m, point) -> bool:
    """Membership in a tree of full/empty/V/D/im leaves through `eval_poly`."""
    images = dict(zip(ambient.vars, point))
    if isinstance(node, Full):
        return True
    if isinstance(node, Empty):
        return False
    if isinstance(node, Closed):
        return all(m.is_zero_vec(m.eval_poly(g, images)) for g in node.gens)
    if isinstance(node, OpenLoc):
        return m.is_unit(m.eval_poly(node.g, images))
    if isinstance(node, Im):
        return tuple(point) in reference_image(node.cmap, m)
    if isinstance(node, Union):
        return (reference_member(node.left, ambient, m, point)
                or reference_member(node.right, ambient, m, point))
    if isinstance(node, Inter):
        return (reference_member(node.left, ambient, m, point)
                and reference_member(node.right, ambient, m, point))
    raise TypeError("no reference for %r" % (node,))


def reference_sieve_points(s: Sieve, m, cfg=DEFAULT):
    """Sieve.points(m) from the reference enumerator and membership."""
    return tuple(p for p in reference_points(s.ambient, m, cfg)
                 if reference_member(s.node, s.ambient, m, p))


def _reference_ambient_level(s, m, n, cfg):
    """Every candidate point of level n of s's shape, members or not, in the
    order the shape lists them; power and product levels keep the caps on
    these unfiltered tuples."""
    if isinstance(s, (UnionSieve, InterSieve)):
        return _reference_ambient_level(s.left, m, n, cfg)
    if isinstance(s, ConstSieve):
        return reference_points(s.scheme, m, cfg)
    if isinstance(s, LevelSieve):
        return reference_points(s.level_presentation(n).ambient, m, cfg)
    if isinstance(s, PowerSieve):
        base = reference_points(s.scheme, m, cfg)
        if len(base) ** (n + 1) > cfg.max_candidates:
            raise CapExceeded("power level too large to enumerate")
        if s.symmetric:
            return list(combinations_with_replacement(base, n + 1))
        return list(iproduct(base, repeat=n + 1))
    ls = _reference_ambient_level(s.left, m, n, cfg)
    rs = _reference_ambient_level(s.right, m, n, cfg)
    if isinstance(s, DisjointSieve):
        return [("L", p) for p in ls] + [("R", p) for p in rs]
    if isinstance(s, ProductSieve):
        if len(ls) * len(rs) > cfg.max_candidates:
            raise CapExceeded("product level too large to enumerate")
        return list(iproduct(ls, rs))
    raise TypeError("no reference for %r" % (s,))


def reference_level_points(s, m, n, cfg=DEFAULT):
    """level_points(m, n) by enumerate-then-filter: every candidate of the
    shape's level, from the reference enumerator, kept when `s.member`
    admits it."""
    return tuple(p for p in _reference_ambient_level(s, m, n, cfg)
                 if s.member(m, n, p))


def enumerate_discrete_families(y, x, m, top):
    """All simplicial maps from the discrete object on y(m) into x at m, by
    brute force: every choice of a level-n point of x for each reference
    point of y and each n up to top, kept when every face of the level-n
    choice is the level-(n-1) choice and every degeneracy of the level-n
    choice is the level-(n+1) choice. Returns (families, levels, y points)."""
    ypts = reference_points(y, m)
    levels = [list(x.level_points(m, n)) for n in range(top + 1)]

    def compatible(fam):
        return all(
            all(x.face(n, i, fam[n][j]) == fam[n - 1][j] for i in range(n + 1))
            for n in range(1, top + 1) for j in range(len(ypts))) and all(
            all(x.degeneracy(n, i, fam[n][j]) == fam[n + 1][j] for i in range(n + 1))
            for n in range(top) for j in range(len(ypts)))

    choice_sets = [list(iproduct(lv, repeat=len(ypts))) for lv in levels]
    valid = [fam for fam in iproduct(*choice_sets) if compatible(fam)]
    return valid, levels, ypts


# -- reference Groebner bases ------------------------------------------------


def _lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _monomial_times(shift, c, g: Poly) -> Poly:
    """c * x^shift * g, term by term in the field's own arithmetic."""
    field = g.field
    return Poly(g.vars, field, {tuple(x + y for x, y in zip(e, shift)): field.mul(c, gc)
                                for e, gc in g.terms.items()})


def _made_monic(g: Poly) -> Poly:
    """g over its leading coefficient, term by term in the field's own arithmetic."""
    return _monomial_times((0,) * len(g.vars), g.field.inv(g.leading()[1]), g)


def reference_s_poly(f: Poly, g: Poly) -> Poly:
    fe, fc = f.leading()
    ge, gc = g.leading()
    lcm = _lcm(fe, ge)
    field = f.field
    return (_monomial_times(tuple(x - y for x, y in zip(lcm, fe)), field.inv(fc), f)
            - _monomial_times(tuple(x - y for x, y in zip(lcm, ge)), field.inv(gc), g))


def reference_reduce_full(f: Poly, basis) -> Poly:
    """Full division of f by the list `basis`, one `Poly` step at a time."""
    field = f.field
    lead = [(g.leading(), g) for g in basis if not g.is_zero()]
    rem = {}
    work = f
    while not work.is_zero():
        e, c = work.leading()
        hit = None
        for (ge, gc), g in lead:
            if all(x >= y for x, y in zip(e, ge)):
                hit = (ge, gc, g)
                break
        if hit is None:
            rem[e] = c
            work = work - Poly.monomial(e, c, f.vars, field)
        else:
            ge, gc, g = hit
            shift = tuple(x - y for x, y in zip(e, ge))
            work = work - _monomial_times(shift, field.div(c, gc), g)
    return Poly(f.vars, field, rem)


def reference_buchberger(gens):
    """The reduced grevlex basis, monic and sorted by leading term; no caps."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    basis = [_made_monic(g) for g in gens]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        pairs.sort(key=lambda ij: grevlex_key(
            _lcm(basis[ij[0]].leading()[0], basis[ij[1]].leading()[0])))
        i, j = pairs.pop(0)
        fe = basis[i].leading()[0]
        ge = basis[j].leading()[0]
        if _lcm(fe, ge) == tuple(x + y for x, y in zip(fe, ge)):
            continue  # coprime leads reduce to zero
        r = reference_reduce_full(reference_s_poly(basis[i], basis[j]), basis)
        if not r.is_zero():
            basis.append(_made_monic(r))
            k = len(basis) - 1
            pairs.extend((i2, k) for i2 in range(k))
    # autoreduce; each element is rewritten against the already-reduced head
    # plus the untouched tail, so equal generators collapse to one copy
    changed = True
    while changed:
        changed = False
        nxt = []
        for i, g in enumerate(basis):
            others = [h for h in nxt + basis[i + 1:] if not h.is_zero()]
            r = reference_reduce_full(g, others) if others else g
            if r.key() != g.key():
                changed = True
            if not r.is_zero():
                nxt.append(_made_monic(r))
        basis = nxt
    basis.sort(key=lambda g: grevlex_key(g.leading()[0]))
    return basis


def reference_block_key(vars, field: Field, gens, open_g, ims):
    """(key, repr of the key) of the least presentation of a block, or None
    when the open reduces to zero.

    Every permutation of the coordinates is tried, and its whole key is
    made and `repr`'d: ("blk", n, basis keys, key of the monic reduced open
    or None for a constant one, image map keys), each tuple sorted by
    `repr`. The least repr wins. The open is reduced by
    `reference_reduce_full` and made monic term by term.
    """
    n = len(vars)
    zvars = tuple("z%d" % j for j in range(n))
    best = None
    for perm in permutations(range(n)):
        def moved(g):
            out = {}
            for e, c in g.terms.items():
                ne = [0] * n
                for i, k in enumerate(e):
                    ne[perm[i]] = k
                out[tuple(ne)] = c
            return Poly(zvars, field, out)

        ideal = Ideal(zvars, field, [moved(g) for g in gens])
        basis = ideal.basis()
        open_key = None
        if open_g is not None:
            r = reference_reduce_full(moved(open_g), basis)
            if r.is_zero():
                return None
            if not r.is_constant():
                open_key = _made_monic(r).key()
        target = AffineScheme("blk", ideal)
        map_keys = [CoordMap(cm.source, target, {zvars[perm[i]]: cm.images[v]
                                                 for i, v in enumerate(vars)}).key()
                    for cm in ims]
        key = ("blk", n, tuple(sorted((g.key() for g in basis), key=repr)), open_key,
               tuple(sorted(map_keys, key=repr)))
        if best is None or repr(key) < best[1]:
            best = (key, repr(key))
    return best


def rand_ideal_gens(rng, field: Field, nvars: int):
    """Up to four random generators of degree at most 2 in nvars variables."""
    vars = tuple("xyzw"[:nvars])
    return [rand_poly(rng, vars, field, max_deg=2, max_terms=4)
            for _ in range(rng.randint(1, 4))]


def rand_monomial_gens(rng, field: Field, nvars: int):
    """One to six monomials in x0.. x(nvars-1), each on one to three
    variables with exponents of at most 2, with nonzero coefficients."""
    vars = tuple("x%d" % i for i in range(nvars))
    out = []
    for _ in range(rng.randint(1, 6)):
        e = [0] * nvars
        for i in rng.sample(range(nvars), rng.randint(1, min(3, nvars))):
            e[i] = rng.randint(1, 2)
        out.append(Poly.monomial(e, rand_scalar(rng, field), vars, field))
    return out


def reference_krull_dimension(ideal) -> int:
    """The dimension of the quotient as the largest set of variables that
    holds the support of no leading term, found by trying every subset."""
    if not ideal.gens:
        return len(ideal.vars)
    if ideal.is_unit():
        return -1
    n = len(ideal.vars)
    supports = [frozenset(i for i, k in enumerate(e) if k)
                for e in ideal.leading_exponents()]
    best = 0
    for mask in range(1 << n):
        size = bin(mask).count("1")
        if size <= best:
            continue
        chosen = {i for i in range(n) if mask >> i & 1}
        if all(not s <= chosen for s in supports):
            best = size
    return best


def rand_rational(rng) -> Fraction:
    """A non-integral rational of either sign, with denominator 2..9."""
    while True:
        c = Fraction(rng.randint(1, 9), rng.randint(2, 9))
        if c.denominator != 1:
            return -c if rng.random() < 0.5 else c


def rand_rational_gens(rng, nvars: int):
    """`rand_ideal_gens` over Q with every coefficient scaled by its own
    `rand_rational`, so generators mix denominators and leading signs."""
    return [Poly(g.vars, g.field, {e: c * rand_rational(rng) for e, c in g.terms.items()})
            for g in rand_ideal_gens(rng, QQ, nvars)]
