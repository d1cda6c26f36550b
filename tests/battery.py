"""Seeded random generators and reference enumerators for the test batteries.

Everything is driven by random.Random seeded from a string, which is stable
across runs and platforms, so battery tests are reproducible bit for bit.
The reference enumerators evaluate through `QuotientAlgebra.eval_poly`, one
algebra vector per coordinate, independently of the counting kernel. The
reference Buchberger run is the plain textbook loop on `Poly` arithmetic:
every pair, re-sorted before each pop, with only the coprime-leading-term
skip, independently of the Gröbner kernel in `motivic.poly`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product as iproduct

from motivic.config import DEFAULT
from motivic.errors import CapExceeded
from motivic.fields import Field
from motivic.kring import KClass, class_of_sieve, kclass_int, lefschetz
from motivic.poly import Poly, grevlex_key, s_poly
from motivic.schemes import AffineScheme
from motivic.sieves import (Closed, Empty, Full, Inter, OpenLoc, Sieve, Union,
                            closed_sieve, empty_sieve, full_sieve, open_sieve,
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


def rand_sieve(rng, scheme: AffineScheme, depth: int = 2) -> Sieve:
    """A random union/intersection tree of V, D, full, empty leaves."""
    if depth <= 0 or rng.random() < 0.4:
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
    left = rand_sieve(rng, scheme, depth - 1)
    right = rand_sieve(rng, scheme, depth - 1)
    op = sieve_union if rng.random() < 0.5 else sieve_inter
    return op(left, right)


def rand_class(rng, field: Field, schemes, cfg=None) -> KClass:
    """A random ring element: ints, Lefschetz powers, sieve classes."""
    cfg = cfg or DEFAULT
    out = kclass_int(field, 0)
    for _ in range(rng.randint(1, 3)):
        term = kclass_int(field, rng.randint(-2, 2))
        roll = rng.random()
        if roll < 0.3:
            term = lefschetz(field, rng.randint(-2, 2))
        elif roll < 0.8:
            amb = schemes[rng.randrange(len(schemes))]
            term = class_of_sieve(rand_sieve(rng, amb, depth=1), cfg)
            if rng.random() < 0.3:
                term = term.twist(rng.randint(-1, 1))
        if rng.random() < 0.5:
            out = out + term
        else:
            out = out - term
    return out


# -- reference enumerators ---------------------------------------------------


def reference_points(x: AffineScheme, m, cfg=DEFAULT):
    """points(x, m) by backtracking over whole algebra vectors.

    Each variable in turn takes every vector of O_m, and an equation is
    tested through `eval_poly` once every variable it touches has an image.
    The points come out sorted because the vectors are tried in order.
    """
    alg = m.algebra
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
    if any(last < 0 and not alg.is_zero_vec(alg.eval_poly(g, {})) for last, g in eqs):
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
            if all(last != i or alg.is_zero_vec(alg.eval_poly(g, images))
                   for last, g in eqs):
                assign(i + 1)
        images.pop(x.vars[i], None)

    assign(0)
    return out


def reference_member(node, ambient: AffineScheme, m, point) -> bool:
    """Membership in a tree of full/empty/V/D leaves through `eval_poly`."""
    alg = m.algebra
    images = dict(zip(ambient.vars, point))
    if isinstance(node, Full):
        return True
    if isinstance(node, Empty):
        return False
    if isinstance(node, Closed):
        return all(alg.is_zero_vec(alg.eval_poly(g, images)) for g in node.gens)
    if isinstance(node, OpenLoc):
        return alg.is_unit(alg.eval_poly(node.g, images))
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


# -- reference Groebner bases ------------------------------------------------


def _lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


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
            factor = Poly.monomial(shift, field.div(c, gc), f.vars, field)
            work = work - factor * g
    return Poly(f.vars, field, rem)


def reference_buchberger(gens):
    """The reduced grevlex basis, monic and sorted by leading term; no caps."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    basis = [g.monic() for g in gens]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        pairs.sort(key=lambda ij: grevlex_key(
            _lcm(basis[ij[0]].leading()[0], basis[ij[1]].leading()[0])))
        i, j = pairs.pop(0)
        fe = basis[i].leading()[0]
        ge = basis[j].leading()[0]
        if _lcm(fe, ge) == tuple(x + y for x, y in zip(fe, ge)):
            continue  # coprime leads reduce to zero
        r = reference_reduce_full(s_poly(basis[i], basis[j]), basis)
        if not r.is_zero():
            basis.append(r.monic())
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
                nxt.append(r.monic())
        basis = nxt
    basis.sort(key=lambda g: grevlex_key(g.leading()[0]))
    return basis


def rand_ideal_gens(rng, field: Field, nvars: int):
    """Up to four random generators of degree at most 2 in nvars variables."""
    vars = tuple("xyzw"[:nvars])
    return [rand_poly(rng, vars, field, max_deg=2, max_terms=4)
            for _ in range(rng.randint(1, 4))]
