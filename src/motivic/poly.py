"""Exact multivariate polynomial arithmetic and reduced bases.

Terms are exponent tuples against a fixed variable tuple; coefficients live in
a Field (Fraction or int mod p). The term order is graded reverse
lexicographic throughout: higher total degree wins, ties broken by the
reversed, negated exponent comparison.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import product as iproduct
from operator import add, ge, sub

from .config import DEFAULT, Config
from .errors import CapExceeded, FieldMismatch, WorkbenchError
from .fields import Field


def grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _div_exps(a, b):
    return all(map(ge, a, b))


def _sub_exps(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _lcm_exps(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


class Poly:
    __slots__ = ("vars", "field", "terms", "_key", "_hash", "_lead", "_divisor")

    def __init__(self, vars: tuple, field: Field, terms: dict):
        self.vars = tuple(vars)
        self.field = field
        clean = {e: c for e, c in terms.items() if c}
        self.terms = clean
        self._key = None
        self._hash = None
        self._lead = None
        self._divisor = None

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls, vars, field):
        return cls(vars, field, {})

    @classmethod
    def constant(cls, c, vars, field):
        c = field.of(c)
        if not c:
            return cls.zero(vars, field)
        return cls(vars, field, {(0,) * len(vars): c})

    @classmethod
    def variable(cls, name, vars, field):
        i = tuple(vars).index(name)
        e = [0] * len(vars)
        e[i] = 1
        return cls(vars, field, {tuple(e): field.one})

    @classmethod
    def monomial(cls, exps, coeff, vars, field):
        return cls(vars, field, {tuple(exps): field.of(coeff)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_coeff(self):
        return self.terms.get((0,) * len(self.vars), self.field.zero)

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def leading(self):
        """(exponents, coefficient) of the grevlex-largest term."""
        if self._lead is None:
            e = max(self.terms, key=grevlex_key)
            self._lead = (e, self.terms[e])
        return self._lead

    def divisor(self):
        """(leading exponents, inverse leading coefficient, other terms).

        What `reduce_full` reads of a nonzero divisor; taken once per
        polynomial, since a basis divides many remainders.
        """
        if self._divisor is None:
            le, lc = self.leading()
            tail = [(e, c) for e, c in self.terms.items() if e != le]
            self._divisor = (le, self.field.inv(lc), tail)
        return self._divisor

    def support(self):
        """Indices of variables that actually occur."""
        out = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    out.add(i)
        return out

    def key(self):
        if self._key is None:
            self._key = (self.vars, self.field,
                         tuple(sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]))))
        return self._key

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.vars != other.vars or self.field != other.field:
            raise FieldMismatch("polynomials live in different rings")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(other, self.vars, self.field)
        self._check(other)
        f = self.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = f.add(out.get(e, f.zero), c)
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.vars, f, out)

    def __neg__(self):
        f = self.field
        return Poly(self.vars, f, {e: f.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(other, self.vars, self.field)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(other, self.vars, self.field)
        self._check(other)
        p = self.field.char
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                old = out.get(e)
                if old is None:
                    out[e] = c1 * c2 % p if p else c1 * c2
                else:
                    out[e] = (old + c1 * c2) % p if p else old + c1 * c2
        return Poly(self.vars, self.field, out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return Poly.constant(other, self.vars, self.field) - self

    def __pow__(self, n):
        if n < 0:
            raise WorkbenchError("negative polynomial power")
        acc = Poly.constant(1, self.vars, self.field)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base if n > 1 else base
            n >>= 1
        return acc

    def scale(self, c):
        f = self.field
        c = f.of(c)
        return Poly(self.vars, f, {e: f.mul(cc, c) for e, cc in self.terms.items()})

    def monic(self):
        if self.is_zero():
            return self
        _, c = self.leading()
        return self if c == 1 else self.scale(self.field.inv(c))

    # -- structural maps ----------------------------------------------------

    def substitute(self, images: dict, vars=None, field=None):
        """Ring map determined by var -> Poly; all occurring vars need images.

        The target ring is read off the images unless given explicitly (needed
        when nothing occurs, e.g. mapping a constant).
        """
        target = None
        for p in images.values():
            target = p
            break
        if target is None:
            if vars is None:
                raise WorkbenchError("empty substitution with no target ring")
            target = Poly.zero(vars, field or self.field)
        powers = {}

        def power(name, k):
            cache = powers.setdefault(name, {0: Poly.constant(1, target.vars, target.field)})
            while k not in cache:
                top = max(cache)
                cache[top + 1] = cache[top] * images[name]
            return cache[k]

        out = Poly.zero(target.vars, target.field)
        for e, c in self.terms.items():
            term = Poly.constant(c, target.vars, target.field)
            for i, k in enumerate(e):
                if k:
                    name = self.vars[i]
                    if name not in images:
                        raise WorkbenchError("no image for variable %r" % name)
                    term = term * power(name, k)
            out = out + term
        return out

    def embed(self, new_vars):
        """Reinterpret in a ring whose variable tuple contains ours."""
        new_vars = tuple(new_vars)
        idx = [new_vars.index(v) for v in self.vars]
        out = {}
        for e, c in self.terms.items():
            ne = [0] * len(new_vars)
            for i, k in enumerate(e):
                ne[idx[i]] = k
            out[tuple(ne)] = c
        return Poly(new_vars, self.field, out)

    def rename(self, mapping: dict):
        new_vars = tuple(mapping.get(v, v) for v in self.vars)
        if len(set(new_vars)) != len(new_vars):
            raise WorkbenchError("renaming collides")
        return Poly(new_vars, self.field, dict(self.terms))

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Poly) and self.key() == other.key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __reduce__(self):
        # leave the cached hash behind: string hashes differ between processes
        return (Poly, (self.vars, self.field, self.terms))

    def __repr__(self):
        return poly_str(self)


def join_terms(bits) -> str:
    """Signed term strings joined as "a + b - c"; no terms print as "0"."""
    if not bits:
        return "0"
    out = bits[0]
    for b in bits[1:]:
        out += " - " + b[1:] if b.startswith("-") else " + " + b
    return out


def poly_str(p: Poly) -> str:
    bits = []
    for e in sorted(p.terms, key=grevlex_key, reverse=True):
        c = p.terms[e]
        factors = []
        for i, k in enumerate(e):
            if k == 1:
                factors.append(p.vars[i])
            elif k:
                factors.append("%s^%d" % (p.vars[i], k))
        mono = "*".join(factors)
        cs = str(c)
        if mono:
            piece = mono if cs == "1" else ("-" + mono if cs == "-1" else cs + "*" + mono)
        else:
            piece = cs
        bits.append(piece)
    return join_terms(bits)


# -- division and bases ------------------------------------------------------


def _descending(e):
    """Heap entry that pops exponents grevlex-largest first."""
    return (-sum(e), e[::-1], e)


def reduce_full(f: Poly, basis) -> Poly:
    """Remainder of f on full division by the list `basis` (every term reduced).

    The largest remaining term is divided by the first element of `basis`
    whose leading term divides it, or else moved to the remainder. The work
    is one term dict, with its exponents waiting in a grevlex-descending
    heap; each divisor's leading exponent, inverse leading coefficient and
    other terms are read from its `divisor` cache.
    """
    field = f.field
    p = field.char
    divisors = [g.divisor() for g in basis if g.terms]
    work = dict(f.terms)
    heap = [_descending(e) for e in work]
    heapify(heap)
    rem = {}
    while heap:
        e = heappop(heap)[2]
        c = work.pop(e, None)
        if c is None:  # cancelled after it was queued, or queued twice
            continue
        for le, inv, tail in divisors:
            if all(map(ge, e, le)):
                break
        else:
            rem[e] = c
            continue
        q = c * inv % p if p else c * inv
        shift = tuple(map(sub, e, le))
        for te, tc in tail:
            ne = tuple(map(add, te, shift))
            old = work.get(ne)
            if old is None:
                work[ne] = -q * tc % p if p else -q * tc
                heappush(heap, _descending(ne))
            else:
                v = (old - q * tc) % p if p else old - q * tc
                if v:
                    work[ne] = v
                else:
                    del work[ne]
    return Poly(f.vars, field, rem)


def s_poly(f: Poly, g: Poly) -> Poly:
    fe, fc = f.leading()
    ge, gc = g.leading()
    l = _lcm_exps(fe, ge)
    mf = Poly.monomial(_sub_exps(l, fe), f.field.inv(fc), f.vars, f.field)
    mg = Poly.monomial(_sub_exps(l, ge), g.field.inv(gc), g.vars, g.field)
    return mf * f - mg * g


def _coprime(a, b):
    return not any(x and y for x, y in zip(a, b))


def buchberger(gens, cfg: Config = DEFAULT):
    """Reduced basis of the ideal the generators span.

    S-pairs wait in a heap keyed by the grevlex key of the lcm of their
    leading terms, and the least is reduced first (the normal strategy).
    Each polynomial that joins the basis, input or nonzero remainder, goes
    through the Gebauer-Moller update (J. Symb. Comput. 6, 1988):

    - of its new pairs, one whose lcm is a multiple of another new pair's
      lcm is not formed (one pair is kept per equal lcm), and pairs with
      coprime leading terms are dropped, since they reduce to zero;
    - a waiting pair is dropped when the new leading term divides its lcm
      and differs from it in the lcm with either member;
    - an element whose leading term the new one divides leaves the set
      that remainders are reduced against; its pairs stay queued.

    The surviving set is minimized, each element is reduced against the
    others, and the result is monic, autoreduced, and sorted with
    grevlex-increasing leading terms.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    nvars = len(gens[0].vars)
    if nvars > cfg.max_variables:
        raise CapExceeded("%d variables exceeds cap %d" % (nvars, cfg.max_variables))
    for g in gens:
        if g.total_degree() > cfg.max_degree:
            raise CapExceeded("generator degree %d exceeds cap %d"
                              % (g.total_degree(), cfg.max_degree))
    one = Poly.constant(1, gens[0].vars, gens[0].field)
    basis = []   # every polynomial added so far; pairs are index pairs
    lead = []    # leading exponents of basis
    active = []  # indices that remainders are reduced against
    pairs = []   # heap of (grevlex key of lcm, i, j, lcm)

    def update(h):
        """Add h to the basis and rearrange the pairs; False if h is a unit."""
        nonlocal active, pairs
        if h.is_constant():
            return False
        k = len(basis)
        he = h.leading()[0]
        basis.append(h)
        lead.append(he)
        new = [(i, _lcm_exps(lead[i], he)) for i in active]
        kept = []
        for at, (i, l) in enumerate(new):
            if _coprime(lead[i], he) or not any(
                    _div_exps(l, l2) for _, l2 in new[at + 1:] + kept):
                kept.append((i, l))
        live = [pr for pr in pairs
                if not (_div_exps(pr[3], he)
                        and _lcm_exps(lead[pr[1]], he) != pr[3]
                        and _lcm_exps(lead[pr[2]], he) != pr[3])]
        if len(live) != len(pairs):
            heapify(live)
            pairs = live
        for i, l in kept:
            if not _coprime(lead[i], he):
                heappush(pairs, (grevlex_key(l), i, k, l))
        active = [i for i in active if not _div_exps(lead[i], he)] + [k]
        return True

    for g in gens:
        if not update(g.monic()):
            return [one]
    while pairs:
        _, i, j, _ = heappop(pairs)
        r = reduce_full(s_poly(basis[i], basis[j]), [basis[a] for a in active])
        if not r.is_zero() and not update(r.monic()):
            return [one]
    # minimize, then reduce each element against the others: leading terms
    # stay put, so the elements stay monic and the order stays sorted
    minimal = []
    for g in sorted((basis[i] for i in active), key=lambda g: grevlex_key(g.leading()[0])):
        e = g.leading()[0]
        if not any(_div_exps(e, m.leading()[0]) for m in minimal):
            minimal.append(g)
    if len(minimal) == 1:
        return minimal
    return [reduce_full(g, minimal[:at] + minimal[at + 1:])
            for at, g in enumerate(minimal)]


class Ideal:
    """An ideal presentation with a cached reduced basis."""

    def __init__(self, vars, field: Field, gens, cfg: Config = DEFAULT):
        self.vars = tuple(vars)
        self.field = field
        self.gens = tuple(g if isinstance(g, Poly) else
                          Poly.constant(g, self.vars, field) for g in gens)
        for g in self.gens:
            if g.vars != self.vars or g.field != field:
                raise FieldMismatch("generator not in the ambient ring")
        self.cfg = cfg
        self._basis = None

    def basis(self):
        if self._basis is None:
            self._basis = buchberger(list(self.gens), self.cfg)
        return self._basis

    def normal_form(self, f: Poly) -> Poly:
        if f.vars != self.vars:
            raise FieldMismatch("polynomial not in the ambient ring")
        b = self.basis()
        return reduce_full(f, b) if b else f

    def contains(self, f: Poly) -> bool:
        return self.normal_form(f).is_zero()

    def is_unit(self) -> bool:
        b = self.basis()
        return bool(b) and b[0].is_constant() and not b[0].is_zero()

    def plus(self, other: "Ideal") -> "Ideal":
        if self.vars != other.vars or self.field != other.field:
            raise FieldMismatch("ideal sum needs a common ring")
        return Ideal(self.vars, self.field, self.gens + other.gens, self.cfg)

    def leading_exponents(self):
        return [g.leading()[0] for g in self.basis()]

    def quotient_basis(self):
        """Standard monomials of the quotient, grevlex-increasing.

        Returns None when the quotient is infinite-dimensional. The unit
        ideal yields the empty basis (zero ring).
        """
        if self.is_unit():
            return []
        lts = self.leading_exponents()
        n = len(self.vars)
        if n == 0:
            return [Poly.constant(1, self.vars, self.field)]
        bounds = []
        for i in range(n):
            pure = [e[i] for e in lts if sum(e) == e[i]]
            if not pure:
                return None
            bounds.append(min(pure))
        total = 1
        for b in bounds:
            total *= b
            if total > self.cfg.max_candidates:
                raise CapExceeded("quotient basis enumeration too large")
        out = []
        for exps in iproduct(*(range(b) for b in bounds)):
            if not any(_div_exps(exps, lt) for lt in lts):
                out.append(exps)
        out.sort(key=grevlex_key)
        return [Poly.monomial(e, 1, self.vars, self.field) for e in out]

    def krull_dimension(self) -> int:
        """Dimension of the quotient ring; -1 for the unit ideal (empty locus)."""
        if not self.gens:
            return len(self.vars)
        if self.is_unit():
            return -1
        lts = self.leading_exponents()
        n = len(self.vars)
        supports = [frozenset(i for i, k in enumerate(e) if k) for e in lts]
        best = 0
        for mask in range(1 << n):
            size = bin(mask).count("1")
            if size <= best:
                continue
            chosen = {i for i in range(n) if mask >> i & 1}
            if all(not s <= chosen for s in supports):
                best = size
        return best

    def rename(self, mapping: dict) -> "Ideal":
        new_vars = tuple(mapping.get(v, v) for v in self.vars)
        out = Ideal(new_vars, self.field, [g.rename(mapping) for g in self.gens], self.cfg)
        if self._basis is not None:
            out._basis = [g.rename(mapping) for g in self._basis]
        return out

    def __eq__(self, other):
        return (isinstance(other, Ideal) and self.vars == other.vars
                and self.field == other.field
                and tuple(g.key() for g in self.basis())
                == tuple(g.key() for g in other.basis()))

    def __hash__(self):
        return hash((self.vars, self.field, tuple(g.key() for g in self.basis())))

    def __repr__(self):
        inside = ", ".join(poly_str(g) for g in self.gens) or "0"
        return "<%s | %s>" % (", ".join(self.vars), inside)


def disjoint_vars(left, right):
    """Rename the right-hand variable tuple away from the left one."""
    taken = set(left)
    mapping = {}
    for v in right:
        name = v
        while name in taken:
            name += "'"
        mapping[v] = name
        taken.add(name)
    return mapping


def tensor_product(a: Ideal, b: Ideal) -> tuple:
    """Presentation of the tensor algebra on the disjoint union of variables.

    Returns (ideal, left-name map, right-name map). The reduced basis is the
    union of the factor bases (their leading terms are coprime), so it is
    installed directly instead of recomputed.
    """
    if a.field != b.field:
        raise FieldMismatch("tensor factors over different fields")
    lmap = {v: v for v in a.vars}
    rmap = disjoint_vars(a.vars, b.vars)
    vars = tuple(a.vars) + tuple(rmap[v] for v in b.vars)
    gens = [g.embed(vars) for g in a.gens]
    gens += [g.rename(rmap).embed(vars) for g in b.gens]
    out = Ideal(vars, a.field, gens, a.cfg)
    basis = [g.embed(vars) for g in a.basis()]
    basis += [g.rename(rmap).embed(vars) for g in b.basis()]
    basis.sort(key=lambda g: grevlex_key(g.leading()[0]))
    out._basis = basis
    return out, lmap, rmap
