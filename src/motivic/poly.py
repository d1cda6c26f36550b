"""Exact multivariate polynomial arithmetic and reduced bases.

Terms are exponent tuples against a fixed variable tuple; a `Poly` holds
coefficients of its Field (Fraction over Q, int mod p). The term order is
graded reverse lexicographic throughout: higher total degree wins, ties
broken by the reversed, negated exponent comparison.

Products, division and Buchberger compute on int coefficients. Over F_p
these are the residues, and a divisor is made monic. Over Q a polynomial is
cleared of its denominators, and a divisor or basis element is made
primitive: its content is divided out and its leading coefficient is
positive. Fractions are made again only where a `Poly` leaves these
kernels, and a reduced basis leaves them monic.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import product as iproduct
from math import gcd
from operator import add, ge, mul, sub

from .config import DEFAULT, Config
from .errors import CapExceeded, FieldMismatch, WorkbenchError
from .fields import Field


def grevlex_key(exps):
    """Ascending grevlex key, for the min-heaps and sorts that want the
    least term first; `_descending` orders terms greatest first."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _descending(e):
    """Sort and heap key that puts exponents grevlex-largest first.

    It ends in e itself, so a heap entry gives its exponents back; the first
    two parts already tell any two exponent tuples apart.
    """
    return (-sum(e), e[::-1], e)


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

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def leading(self):
        """(exponents, coefficient) of the grevlex-largest term."""
        if self._lead is None:
            e = min(self.terms, key=_descending)
            self._lead = (e, self.terms[e])
        return self._lead

    def divisor(self):
        """The int form `reduce_full` reads of a nonzero divisor.

        (leading exponents, leading coefficient, other terms) of the monic
        multiple mod p, or over Q of the primitive multiple with a positive
        leading coefficient. Taken once per polynomial, since a basis
        divides many remainders.
        """
        if self._divisor is None:
            self._divisor = _int_form(self)
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
            # grevlex-increasing terms
            self._key = (self.vars, self.field,
                         tuple(sorted(self.terms.items(), key=lambda t: _descending(t[0]),
                                      reverse=True)))
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
        a, da = _cleared(self)
        b, db = _cleared(other)
        b = list(b.items())
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b:
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        if p:
            return Poly(self.vars, self.field, {e: c % p for e, c in out.items()})
        return Poly(self.vars, self.field, _over(out, da * db))

    __radd__ = __add__
    __rmul__ = __mul__

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
        """The monic multiple, made from the int form: one coefficient is
        made per term. It fills no divisor cache, here or on the result."""
        if self.is_zero():
            return self
        _, c = self.leading()
        return self if c == 1 else _monic(_int_form(self), self.vars, self.field)

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
        out = Poly.zero(target.vars, target.field)
        for e, c in self.terms.items():
            term = Poly.constant(c, target.vars, target.field)
            for i, k in enumerate(e):
                if k:
                    name = self.vars[i]
                    if name not in images:
                        raise WorkbenchError("no image for variable %r" % name)
                    cache = powers.setdefault(name, {1: images[name]})
                    term = term * cached_power(cache, k, mul)
            out = out + term
        return out

    def reindex(self, where, new_vars):
        """This polynomial with variable i moved to position `where[i]` of
        `new_vars`.

        Every variable that occurs must have a position. An identity map
        is a rename: the same terms under the new variables.
        """
        n = len(new_vars)
        if len(where) == n and all(i == w for i, w in enumerate(where)):
            return Poly(new_vars, self.field, self.terms)
        out = {}
        for e, c in self.terms.items():
            ne = [0] * n
            for i, k in enumerate(e):
                if k:
                    ne[where[i]] = k
            out[tuple(ne)] = c
        return Poly(new_vars, self.field, out)

    def embed(self, new_vars):
        """Reinterpret in a ring whose variable tuple contains ours."""
        new_vars = tuple(new_vars)
        return self.reindex([new_vars.index(v) for v in self.vars], new_vars)

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


def cached_power(cache: dict, k: int, mul):
    """x^k for k >= 1 from cache[1] = x, by halving: x^(k - k//2) * x^(k//2).

    Each power made is kept in cache, so the exponents of one polynomial
    share them, and at most two products are taken per bit of k.
    """
    got = cache.get(k)
    if got is None:
        got = mul(cached_power(cache, k - k // 2, mul),
                  cached_power(cache, k // 2, mul))
        cache[k] = got
    return got


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
    for e in sorted(p.terms, key=_descending):
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


# -- the int kernels -----------------------------------------------------------


def _cleared(p: Poly):
    """(int terms, denominator): p is terms / denominator.

    Over Q the denominator is the least common one of the coefficients;
    over F_p the terms are the residues and the denominator is 1.
    """
    if p.field.char:
        return dict(p.terms), 1
    den = 1
    for c in p.terms.values():
        d = c.denominator
        if den % d:
            den *= d // gcd(den, d)
    return {e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}, den


def _over(terms, den):
    """Fraction coefficients: the int terms divided by den."""
    if den == 1:
        return {e: Fraction(c) for e, c in terms.items()}
    return {e: Fraction(c, den) for e, c in terms.items()}


def _normalized(terms, le, p):
    """(le, leading coefficient, other terms) of a nonzero int term dict
    whose leading exponents are le: scaled to be monic mod p, or over Q
    divided by its content, with the sign that makes the leading
    coefficient positive."""
    lc = terms[le]
    if p:
        inv = pow(lc, p - 2, p)
        return le, 1, [(e, c * inv % p) for e, c in terms.items() if e != le]
    g = 0
    for c in terms.values():
        g = gcd(g, c)
        if g == 1:
            break
    if lc < 0:
        g = -g
    return le, lc // g, [(e, c // g) for e, c in terms.items() if e != le]


def _int_form(p: Poly):
    """The `_normalized` form of a nonzero polynomial: its divisor cache
    when that is filled, else computed and not stored."""
    if p._divisor is not None:
        return p._divisor
    return _normalized(_cleared(p)[0], p.leading()[0], p.field.char)


def _reduce(work, divisors, p):
    """Fraction-free full division of the int term dict `work` (consumed).

    `divisors` are `_normalized` forms. The work's exponents wait in a
    grevlex-descending heap; the largest is divided by the first divisor
    whose leading term divides it, or else moved to the remainder. A monic
    divisor, as every one mod p is, divides with no gcd. Otherwise, when
    its leading coefficient lc does not divide the term's coefficient c,
    the work and the remainder are first multiplied by lc / gcd(c, lc).
    Returns (remainder, multiplier): over the field, the input's remainder
    is remainder / multiplier, and the multiplier is 1 mod p.
    """
    heap = [_descending(e) for e in work]
    heapify(heap)
    rem = {}
    mult = 1
    while heap:
        e = heappop(heap)[2]
        c = work.pop(e, None)
        if c is None:  # cancelled after it was queued, or queued twice
            continue
        for le, lc, tail in divisors:
            if all(map(ge, e, le)):
                break
        else:
            rem[e] = c
            continue
        q = c
        if lc != 1:
            g = gcd(c, lc)
            q = c // g
            if g != lc:
                a = lc // g
                mult *= a
                for k in work:
                    work[k] *= a
                for k in rem:
                    rem[k] *= a
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
    return rem, mult


def reduce_full(f: Poly, basis) -> Poly:
    """Remainder of f on full division by the list `basis` (every term reduced).

    The first element of `basis` whose leading term divides a term divides
    it. The division runs on int forms: f cleared of its denominators, each
    divisor read from its `divisor` cache. The remainder is exact, and its
    leading term is recorded: the division heap pops terms grevlex-largest
    first, so the remainder's first term leads.
    """
    p = f.field.char
    work, den = _cleared(f)
    rem, mult = _reduce(work, [g.divisor() for g in basis if g.terms], p)
    out = Poly(f.vars, f.field, rem if p else _over(rem, den * mult))
    if rem:
        e = next(iter(out.terms))
        out._lead = (e, out.terms[e])
    return out


def _s_terms(f, g, p):
    """The S-polynomial of two `_normalized` forms, as int terms.

    Each is multiplied up to the lcm of the leading terms, over Q by the
    other's leading coefficient over their gcd, so the leading terms cancel
    and only the other terms are formed.
    """
    fe, fc, ftail = f
    ge, gc, gtail = g
    lcm = _lcm_exps(fe, ge)
    d = gcd(fc, gc)
    a, b = gc // d, fc // d
    fu, gu = _sub_exps(lcm, fe), _sub_exps(lcm, ge)
    out = {tuple(map(add, e, fu)): a * c for e, c in ftail}
    for e, c in gtail:
        k = tuple(map(add, e, gu))
        v = out.get(k, 0) - b * c
        if p:
            v %= p
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def _coprime(a, b):
    return not any(x and y for x, y in zip(a, b))


def buchberger(gens, cfg: Config = DEFAULT):
    """Reduced basis of the ideal the generators span.

    The run is on `_normalized` int forms (`_int_form`): a generator's is
    read from its `divisor` cache but not stored there, S-polynomials and
    remainders are formed fraction-free, and each remainder is normalized
    before it joins the basis. S-pairs wait in a heap keyed by the grevlex
    key of the lcm of their leading terms, and the least is reduced first
    (the normal strategy). Each polynomial that joins the basis, input or
    nonzero remainder, goes through the Gebauer-Moller update (J. Symb.
    Comput. 6, 1988):

    - of its new pairs, one whose lcm is a multiple of another new pair's
      lcm is not formed (one pair is kept per equal lcm), and pairs with
      coprime leading terms are dropped, since they reduce to zero;
    - a waiting pair is dropped when the new leading term divides its lcm
      and differs from it in the lcm with either member;
    - an element whose leading term the new one divides leaves the set
      that remainders are reduced against; its pairs stay queued.

    The surviving set is minimized and each element is reduced against the
    others. The result is made monic, and is autoreduced and sorted with
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
    vars, field = gens[0].vars, gens[0].field
    p = field.char
    basis = []   # normalized forms of every polynomial added; pairs are index pairs
    lead = []    # leading exponents of basis
    active = []  # indices that remainders are reduced against
    pairs = []   # heap of (grevlex key of lcm, i, j, lcm)

    def update(h):
        """Add h to the basis and rearrange the pairs; False if h is a unit."""
        nonlocal active, pairs
        he = h[0]
        if not any(he):
            return False
        k = len(basis)
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
        if not update(_int_form(g)):
            return [Poly.constant(1, vars, field)]
    while pairs:
        _, i, j, _ = heappop(pairs)
        rem, _ = _reduce(_s_terms(basis[i], basis[j], p),
                         [basis[a] for a in active], p)
        # the heap pops the remainder grevlex-descending: its first term leads
        if rem and not update(_normalized(rem, next(iter(rem)), p)):
            return [Poly.constant(1, vars, field)]
    # minimize, then reduce each element against the others: leading terms
    # stay put, so the order stays sorted
    minimal = []
    for i in sorted(active, key=lambda i: grevlex_key(lead[i])):
        if not any(_div_exps(lead[i], lead[m]) for m in minimal):
            minimal.append(i)
    if len(minimal) == 1:
        # basis[i] is the normalized gens[i] for i < len(gens). A lone input
        # comes back as gens[i].monic(), the very object when it is monic
        # already, so no copy of it and of its cached key is made
        i = minimal[0]
        return [gens[i].monic() if i < len(gens) else _basis_element(basis[i], vars, field)]
    minimal = [basis[i] for i in minimal]
    out = []
    for at, h in enumerate(minimal):
        rem, _ = _reduce(_terms_of(h), minimal[:at] + minimal[at + 1:], p)
        out.append(_basis_element(_normalized(rem, h[0], p), vars, field))
    return out


def _terms_of(h):
    """The int term dict of a `_normalized` form, leading term first."""
    le, lc, tail = h
    out = {le: lc}
    out.update(tail)
    return out


def _monic(h, vars, field) -> Poly:
    """The monic `Poly` of a `_normalized` form."""
    terms = _terms_of(h)
    return Poly(vars, field, terms if field.char else _over(terms, h[1]))


def _basis_element(h, vars, field) -> Poly:
    """`_monic`, with h as the divisor cache: a reduced basis divides many
    remainders."""
    out = _monic(h, vars, field)
    out._divisor = h
    return out


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
        """Dimension of the quotient ring; -1 for the unit ideal (empty locus).

        It is the number of variables less the fewest variables that meet
        the support of every leading term of the reduced basis
        (Kredel-Weispfenning, J. Symb. Comput. 6, 1988).
        """
        if not self.gens:
            return len(self.vars)
        if self.is_unit():
            return -1
        supports = [frozenset(i for i, k in enumerate(e) if k)
                    for e in self.leading_exponents()]
        return len(self.vars) - _fewest_meeting(supports)


def _fewest_meeting(sets) -> int:
    """The size of a smallest set of elements that meets every one of `sets`.

    One element of a smallest set not yet met must be taken: try each.
    """
    if not sets:
        return 0
    least = min(sets, key=len)
    return 1 + min(_fewest_meeting([s for s in sets if i not in s])
                   for i in least)


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
    right = range(len(a.vars), len(vars))    # where the right factor sits
    gens = [g.embed(vars) for g in a.gens]
    gens += [g.reindex(right, vars) for g in b.gens]
    out = Ideal(vars, a.field, gens, a.cfg)
    basis = [g.embed(vars) for g in a.basis()]
    basis += [g.reindex(right, vars) for g in b.basis()]
    basis.sort(key=lambda g: grevlex_key(g.leading()[0]))
    out._basis = basis
    return out, lmap, rmap
