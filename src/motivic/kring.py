"""Classes of sieves in a cut-and-paste ring with a Lefschetz twist.

A plain class is an integer combination of canonical symbols. Each symbol is
a multiset of blocks together with a power of L, the class of the affine
line. A block is a canonically renamed conjunction: a reduced equation basis,
at most one localizing function, and any image conditions. Canonicalization
eliminates variables that occur linearly with constant coefficient, splits
the rest into variable-disjoint components, strips free variables into the L
exponent, and minimizes over coordinate permutations of small blocks, so the
usual textbook identifications (a graph is an affine space, distinct reduced
points add up) fall out. Identification is presentational, not up to
arbitrary isomorphism; counting at finite fat points is the semantic anchor.
Each block carries the plain sieve that realizes it, so a class prints and
counts without any state outside itself.

Union classes are expanded by inclusion-exclusion, which makes the
cut-and-paste identity hold by construction; the battery helpers re-verify
it against honest point counts.

Simplicial classes layer level shapes over plain classes: constant lifts,
fiber powers, symmetric powers (orbit counts only), and explicit level
tuples. Products that leave the closed shapes materialize level tuples up
to the configured skeletal level, twists up to their last exponent.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import comb
from operator import itemgetter

from .config import Config
from .errors import AmbientMismatch, CapExceeded, EvalError, WorkbenchError
from .fatpoints import FatPoint
from .fields import Field
from .poly import Ideal, Poly, join_terms
from .schemes import AffineScheme, CoordMap, points
from .sieves import (Closed, ConstSieve, DisjointSieve, Empty, Full, Im,
                     Inter, InterSieve, OpenLoc, PowerSieve, ProductSieve,
                     Sieve, SimplicialSieve, Union, UnionSieve, image_sieve,
                     node_str, presented_levels, sieve_inter)

# ---------------------------------------------------------------------------
# inclusion-exclusion expansion into conjunctions of literals


def expand_node(node):
    """[(coefficient, frozenset of literals)] with multiplicity merged."""

    def raw(nd):
        if isinstance(nd, Full):
            return [(1, frozenset())]
        if isinstance(nd, Empty):
            return []
        if isinstance(nd, Closed):
            lits = frozenset(("C", g) for g in nd.gens)
            return [(1, lits)]
        if isinstance(nd, OpenLoc):
            return [(1, frozenset([("O", nd.g)]))]
        if isinstance(nd, Im):
            return [(1, frozenset([("I", nd.cmap)]))]
        if isinstance(nd, Inter):
            out = []
            for c1, s1 in raw(nd.left):
                for c2, s2 in raw(nd.right):
                    out.append((c1 * c2, s1 | s2))
            return out
        if isinstance(nd, Union):
            a = raw(nd.left)
            b = raw(nd.right)
            out = list(a) + list(b)
            for c1, s1 in a:
                for c2, s2 in b:
                    out.append((-c1 * c2, s1 | s2))
            return out
        raise WorkbenchError("unknown node %r" % (nd,))

    merged = {}
    for c, s in raw(node):
        merged[s] = merged.get(s, 0) + c
    return [(c, s) for s, c in merged.items() if c]


# ---------------------------------------------------------------------------
# canonical blocks


class Block:
    """A canonical block: its key and the plain sieve that realizes it.

    Equality, hashing and repr come from the key alone, so blocks order and
    merge as their keys do; the payload is what printing and counting read.
    The key's repr is given, since choosing the block compares reprs
    already, and its hash is taken once: canonical order sorts by repr and
    every class sum hashes its symbols.
    """

    __slots__ = ("key", "sieve", "_repr", "_hash")

    def __init__(self, key, key_repr: str, sieve: Sieve):
        self.key = key
        self.sieve = sieve
        self._repr = key_repr
        self._hash = hash(key)

    def __eq__(self, other):
        return isinstance(other, Block) and self.key == other.key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return self._repr

    def __reduce__(self):
        # string hashes are salted per process: rebuild rather than copy _hash
        return Block, (self.key, self._repr, self.sieve)


def _remembered(memo: dict, key, make):
    """memo[key], made by `make()` on a miss.

    A hit moves its entry to the end, and past MEMO_BOUND the entry at the
    front, the least recently used, goes first. A value whose making raises
    is not stored.
    """
    if key in memo:
        value = memo.pop(key)
    else:
        value = make()
        if len(memo) >= MEMO_BOUND:
            del memo[next(iter(memo))]
    memo[key] = value
    return value


def _reduced(ambient: AffineScheme, vars, gens, opens):
    """(reduced basis, opens in normal form that are not constants), or None
    when the conjunction is empty: the ideal is the unit ideal, or an open
    reduces to zero.

    The ideal of `gens` over `vars` comes from the ambient's memo of
    presentations, whose bases were made under the ambient's config.
    """
    def make():
        made = Ideal(vars, ambient.field, gens, ambient.ideal.cfg)
        made.basis()
        return made

    ideal = _remembered(ambient.ideals, (vars, tuple(gens)), make)
    if ideal.is_unit():
        return None
    opens = [ideal.normal_form(g) for g in opens]
    if any(g.is_zero() for g in opens):
        return None
    return list(ideal.basis()), [g for g in opens if not g.is_constant()]


def _eliminable(basis):
    """(gen index, var index, coeff) where the gen is c*v + (terms without v)."""
    for gi, f in enumerate(basis):
        nv = len(f.vars)
        for i in range(nv):
            terms_with = [(e, c) for e, c in f.terms.items() if e[i]]
            if len(terms_with) != 1:
                continue
            e, c = terms_with[0]
            if e[i] == 1 and sum(e) == 1:
                return gi, i, c
    return None


def _node_of_parts(gens, open_g, ims):
    parts = []
    if gens:
        parts.append(Closed(tuple(gens)))
    if open_g is not None:
        parts.append(OpenLoc(open_g))
    parts.extend(Im(cm) for cm in ims)
    if not parts:
        return Full()
    node = parts[0]
    for p in parts[1:]:
        node = Inter(node, p)
    return node


def _ranked(keys):
    """(the keys sorted by repr, the repr of that tuple); each key is
    repr'd once."""
    ranked = sorted(((repr(k), k) for k in keys), key=itemgetter(0))
    reprs = [r for r, _ in ranked]
    text = "(%s,)" % reprs[0] if len(reprs) == 1 else "(%s)" % ", ".join(reprs)
    return tuple(k for _, k in ranked), text


def _block_candidates(vars_sub, field, gens, open_g, ims, cfg):
    """The least presentation over coordinate permutations, or None when the
    open reduces to zero.

    `gens` is a reduced basis in the order of `vars_sub`, of an ideal that
    is not the unit ideal, so no renaming of it is either.

    A candidate's key is ("blk", n, basis keys, open key, image map keys),
    and the least repr of a key wins. Every repr in a key is paren-balanced
    and closes only at its end, so one basis part is never a proper prefix
    of another: two reprs first differ inside the basis part, unless the
    basis parts are equal. A candidate whose basis part sorts strictly after
    the best one's loses whatever its open and image maps are, so those are
    not made for it. Whether the open reduces to zero does not depend on
    the permutation, and the first candidate is never skipped.
    """
    n = len(vars_sub)
    identity = tuple(range(n))
    perm_source = permutations(range(n)) if n <= 5 else [identity]
    best = None  # (key, key repr, basis repr, basis, open, image maps) of the least
    zvars = tuple("z%d" % j for j in range(n))
    for perm in perm_source:
        pgens = [g.reindex(perm, zvars) for g in gens]
        ideal = Ideal(zvars, field, pgens, cfg)
        if perm == identity:
            # an in-order renaming keeps a reduced grevlex basis reduced
            ideal._basis = pgens
        basis = ideal.basis()
        basis_keys, basis_repr = _ranked(g.key() for g in basis)
        if best is not None and basis_repr > best[2]:
            continue
        popen = None
        if open_g is not None:
            popen = ideal.normal_form(open_g.reindex(perm, zvars))
            if popen.is_zero():
                return None
            if popen.is_constant():
                popen = None
            else:
                popen = popen.monic()
        pims = []
        if ims:
            mapping = {vars_sub[i]: zvars[perm[i]] for i in range(n)}
            tgt = AffineScheme("blk", ideal)
            for cm in ims:
                images = {mapping[v]: cm.images[v] for v in cm.target.vars}
                pims.append(CoordMap(cm.source, tgt, images))
        open_key = None if popen is None else popen.key()
        ims_keys, ims_repr = _ranked(cm.key() for cm in pims)
        key_repr = "('blk', %d, %s, %r, %s)" % (n, basis_repr, open_key, ims_repr)
        if best is None or key_repr < best[1]:
            key = ("blk", n, basis_keys, open_key, ims_keys)
            best = (key, key_repr, basis_repr, basis, popen, pims)
    key, key_repr, _, basis, popen, pims = best
    scheme_ideal = Ideal(zvars, field, list(basis), cfg)
    scheme_ideal._basis = list(basis)
    sieve = Sieve(AffineScheme("blk", scheme_ideal), _node_of_parts(basis, popen, pims))
    return Block(key, key_repr, sieve)


def canonical_conjunction(ambient: AffineScheme, literals, chain=None):
    """Symbol (blocks, lef) for one conjunction, or None when empty.

    Every presentation derived here keeps the ambient's config. A
    `_ProductChain` of the node the literals come from orders the opens
    and shares their products with the node's other conjunctions.
    """
    field = ambient.field
    cfg = ambient.ideal.cfg
    closed = []
    opens = []
    ims = []
    for kind, obj in literals:
        if kind == "C":
            if obj.is_zero():
                continue
            if obj.is_constant():
                return None
            closed.append(obj)
        elif kind == "O":
            if obj.is_zero():
                return None
            if obj.is_constant():
                continue
            opens.append(obj)
        else:
            ims.append(obj)
    if chain is not None:
        opens = chain.order(opens)
    # literals come in frozenset order, which follows the per-process string
    # hash; sort the generators so one ideal is one memo entry. Sort by the
    # term tuple: a key also holds its Field, which does not order.
    closed.sort(key=lambda g: g.key()[2])

    vars = ambient.vars
    reduced = _reduced(ambient, vars, list(ambient.ideal.gens) + closed, opens)
    if reduced is None:
        return None
    basis, opens = reduced
    while not ims and (hit := _eliminable(basis)) is not None:
        gi, vi, c = hit
        f = basis[gi]
        unit = {tuple(1 if j == vi else 0 for j in range(len(vars))): c}
        r = f - Poly(vars, field, unit)
        img = r.scale(field.neg(field.inv(c)))
        images = {v: Poly.variable(v, vars, field) for v in vars}
        images[vars[vi]] = img
        new_vars = vars[:vi] + vars[vi + 1:]
        where = list(range(vi)) + [None] + list(range(vi, len(new_vars)))
        basis = [g.substitute(images).reindex(where, new_vars)
                 for j, g in enumerate(basis) if j != gi]
        opens = [g.substitute(images).reindex(where, new_vars) for g in opens]
        vars = new_vars
        reduced = _reduced(ambient, vars, basis, opens)
        if reduced is None:
            return None
        basis, opens = reduced

    n = len(vars)
    if ims:
        # image conditions constrain every coordinate: one indivisible block
        block = _block_candidates(vars, field, basis,
                                  _merge_opens(opens, chain), ims, cfg)
        return None if block is None else ((block,), 0)

    # variable-disjoint components: each support absorbs every one it meets
    supports = [(g, g.support()) for g in basis + opens]
    comps = []
    for _, sup in supports:
        met = [comp for comp in comps if not comp.isdisjoint(sup)]
        comps = [comp for comp in comps if comp.isdisjoint(sup)] + [sup.union(*met)]
    lef = n - sum(len(comp) for comp in comps)

    blocks = []
    nb = len(basis)
    for comp in sorted(comps, key=min):
        idxs = sorted(comp)
        sub_vars = tuple(vars[i] for i in idxs)
        where = [None] * n
        for j, i in enumerate(idxs):
            where[i] = j
        bgens = [g.reindex(where, sub_vars)
                 for g, sup in supports[:nb] if sup <= comp]
        bopens = [g.reindex(where, sub_vars)
                  for g, sup in supports[nb:] if sup <= comp]
        block = _block_candidates(sub_vars, field, bgens,
                                  _merge_opens(bopens, chain), [], cfg)
        if block is None:
            return None
        blocks.append(block)

    return (tuple(sorted(blocks, key=repr)), lef)


def _merge_opens(opens, chain=None):
    """The product of the opens, or None for none; through `chain` if given."""
    if not opens:
        return None
    if chain is None:
        chain = _ProductChain(Full())
    return chain.product(opens)


class _ProductChain:
    """Partial products of the opens of one node, shared by its conjunctions.

    Each open has its first position in the node, and a conjunction takes
    its opens last position first. `expand_node` lists the conjunctions of a
    union of k opens in binary-counting order, so each product extends the
    live prefix left by the one before with a single multiplication:
    2^k - 1 - k products in all, and never more than k held at once. The
    prefix is matched on the polynomials themselves, so opens that were
    reduced or restricted differently in another conjunction are simply
    multiplied again.
    """

    def __init__(self, node):
        self.position = {}
        self.factors = []   # the opens of the live prefix
        self.products = []  # products[i] is the product of factors[:i + 1]
        _open_positions(node, self.position)

    def order(self, opens):
        return sorted(opens, key=self.position.__getitem__, reverse=True)

    def product(self, opens):
        live = 0
        for f, g in zip(self.factors, opens):
            if f.vars != g.vars or f.terms != g.terms:
                break
            live += 1
        del self.factors[live:], self.products[live:]
        for g in opens[live:]:
            self.products.append(self.products[-1] * g if self.products else g)
            self.factors.append(g)
        return self.products[-1]


def _open_positions(node, out):
    if isinstance(node, OpenLoc):
        out.setdefault(node.g, len(out))
    elif isinstance(node, (Inter, Union)):
        _open_positions(node.left, out)
        _open_positions(node.right, out)


# ---------------------------------------------------------------------------
# plain classes


class _Combination:
    """Integer combination of symbols over one base field.

    The arithmetic shared by plain and simplicial classes; a subclass says
    how symbols multiply and what lifts into it (`_lifted`): a plain class
    lifts an int, a simplicial class lifts an int or a plain class to a
    constant shape. A sum or difference of a plain and a simplicial class
    is simplicial, whichever side the plain one is on.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms: dict):
        self.field = field
        self.terms = {s: c for s, c in terms.items() if c}

    def _check(self, other):
        if self.field != other.field:
            raise AmbientMismatch("classes over different fields")

    def __add__(self, other):
        if type(other) is not type(self):
            other = self._lifted(other)
            if other is NotImplemented:
                return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for s, c in other.terms.items():
            out[s] = out.get(s, 0) + c
        return type(self)(self.field, out)

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: int):
        return type(self)(self.field, {s: cc * c for s, cc in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def frozen(self):
        return tuple(sorted(self.terms.items(), key=lambda kv: repr(kv[0])))

    def __eq__(self, other):
        return (type(other) is type(self) and self.field == other.field
                and self.terms == other.terms)

    def __repr__(self):
        return class_str(self)


class KClass(_Combination):
    """Integer combination of canonical symbols over one base field."""

    __slots__ = ()

    def _lifted(self, other):
        if isinstance(other, int):
            return kclass_int(self.field, other)
        return other if isinstance(other, KClass) else NotImplemented

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, KClass):
            return NotImplemented
        self._check(other)
        out = {}
        for s1, c1 in self.terms.items():
            for s2, c2 in other.terms.items():
                s = (tuple(sorted(s1[0] + s2[0], key=repr)), s1[1] + s2[1])
                out[s] = out.get(s, 0) + c1 * c2
        return KClass(self.field, out)

    __rmul__ = __mul__

    def twist(self, e: int) -> "KClass":
        """Multiply by L**e; e may be negative (localized ring)."""
        return KClass(self.field, {(s[0], s[1] + e): c for s, c in self.terms.items()})


def kclass_zero(field: Field) -> KClass:
    return KClass(field, {})


def kclass_int(field: Field, n: int) -> KClass:
    return KClass(field, {((), 0): n})


def kclass_one(field: Field) -> KClass:
    return kclass_int(field, 1)


def lefschetz(field: Field, e: int = 1) -> KClass:
    return KClass(field, {((), e): 1})


def _thaw(field: Field, frozen) -> KClass:
    return KClass(field, dict(frozen))


# entries of each memo on an ambient; past this the least recently used
# goes first
MEMO_BOUND = 64


def class_of_sieve(s: Sieve) -> KClass:
    """Sum of the canonical symbols of the node's conjunctions.

    Each symbol is looked up in the ambient's memo under its literals first;
    the memo lives on the ambient, whose config is fixed, and keeps the
    MEMO_BOUND symbols used most recently. Conjunctions with image literals
    bypass the memo: equal maps may come from differently named sources,
    and the block prints the name. Canonicalization takes the ideal of each
    presentation it reduces from a second memo on the ambient, so one
    presentation runs Buchberger once per ambient. One `_ProductChain`
    carries the partial products of the node's opens from one conjunction
    to the next.
    """
    memo = s.ambient.memo
    chain = _ProductChain(s.node)
    terms: dict = {}
    for coeff, lits in expand_node(s.node):
        if any(kind == "I" for kind, _ in lits):
            sym = canonical_conjunction(s.ambient, lits, chain)
        else:
            sym = _remembered(memo, lits, lambda: canonical_conjunction(
                s.ambient, lits, chain))
        if sym is None:
            continue
        terms[sym] = terms.get(sym, 0) + coeff
    return KClass(s.ambient.field, terms)


def class_of_scheme(x: AffineScheme) -> KClass:
    return class_of_sieve(Sieve(x, Full()))


def symbol_str(sym) -> str:
    blocks, lef = sym
    nodes = [b.sieve.node for b in blocks]
    bits = ["[pt]" if isinstance(nd, Full) else "[%s]" % node_str(nd) for nd in nodes]
    if lef:
        bits.append("L" if lef == 1 else "L^%d" % lef)
    return "*".join(bits) if bits else "1"


def class_str(z) -> str:
    """Printed form of a plain class, a simplicial class or a frozen plain class."""
    # classes nested in simplicial symbols print through _terms_str, so one
    # printed class is one call here (perfbench/spans.py times this name)
    return _terms_str(z)


def _terms_str(z) -> str:
    body_str = sym_str if isinstance(z, SClass) else symbol_str
    bits = []
    for sym, c in (z if isinstance(z, tuple) else z.frozen()):
        body = body_str(sym)
        if c == 1:
            bits.append(body)
        elif c == -1:
            bits.append("-" + body)
        elif body == "1":
            bits.append("%d" % c)
        else:
            bits.append("%d*%s" % (c, body))
    return join_terms(bits)


def counting_hom(z: KClass, m: FatPoint) -> Fraction:
    """Point count of a class at a finite fat point; L goes to q**length.

    The sum is made in integers, over the denominator of the class's
    largest negative twist, and becomes one `Fraction` at the end. Each
    block is counted once per fat point: its count is kept in m's memo
    under the block and the candidate cap it was counted under, so a
    tighter cap counts again (and raises) rather than reading a count the
    cap would refuse.
    """
    num, s = _scaled_count(z, m)
    return Fraction(num, z.field.order ** (m.length * s))


def _scaled_count(z: KClass, m: FatPoint):
    """(n, s) with n / q**(length*s) the count of z at m, where s is the
    largest negative Lefschetz exponent of z, or 0 if it has none."""
    field = z.field
    unit = field.order ** m.length
    s = max(0, -min((lef for _, lef in z.terms), default=0))
    memo = m.memo
    total = 0
    for (blocks, lef), c in z.terms.items():
        val = c * unit ** (lef + s)
        for block in blocks:
            key = ("count", block, block.sieve.ambient.ideal.cfg.max_candidates)
            got = memo.get(key)
            if got is None:
                got = memo[key] = block.sieve.count(m)
            val *= got
        total += val
    return total, s


# ---------------------------------------------------------------------------
# simplicial classes


class SClass(_Combination):
    """Integer combination of shaped symbols.

    Symbol kinds: ("const", plain symbol), ("pow", frozen class, symmetric),
    ("levels", tuple of frozen classes). Constant lifts distribute linearly;
    power shapes wrap a whole plain class since levels are genuine powers.
    """

    __slots__ = ()

    def _lifted(self, other):
        if isinstance(other, int):
            other = kclass_int(self.field, other)
        if isinstance(other, KClass):
            return lift_const(other)
        return other if isinstance(other, SClass) else NotImplemented

    def mul(self, other, cfg: Config) -> "SClass":
        """The product with a simplicial class or a plain one, which lifts to
        a constant shape; one that leaves the closed shapes materializes
        levels up to cfg.skeletal_level."""
        other = self._lifted(other)
        self._check(other)
        out = SClass(self.field, {})
        for s1, c1 in self.terms.items():
            for s2, c2 in other.terms.items():
                piece = _sym_mul(self.field, s1, s2, cfg)
                out = out + piece.scale(c1 * c2)
        return out

    def __mul__(self, other):
        # a product of two classes depends on a config: it is `mul`
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented


def lift_const(z: KClass) -> SClass:
    return SClass(z.field, {("const", s): c for s, c in z.terms.items()})


def lift_power(z: KClass, symmetric: bool = False) -> SClass:
    return SClass(z.field, {("pow", z.frozen(), symmetric): 1})


def _level(field, sym, n: int) -> KClass:
    """The plain class at level n of one shaped symbol."""
    kind = sym[0]
    if kind == "const":
        return KClass(field, {sym[1]: 1})
    if kind == "pow":
        if sym[2]:
            raise EvalError("symmetric shape has no level presentation")
        base = _thaw(field, sym[1])
        out = base
        for _ in range(n):
            out = out * base
        return out
    if kind == "levels":
        if n >= len(sym[1]):
            raise CapExceeded("level %d beyond materialized tuple" % n)
        return _thaw(field, sym[1][n])
    raise WorkbenchError("unknown symbol kind %r" % (kind,))


def _materialize(field, sym, top: int):
    """Tuple of frozen plain classes: every level of a level tuple, and the
    closed shapes up to level top."""
    if sym[0] == "levels":
        top = len(sym[1]) - 1
    return tuple(_level(field, sym, n).frozen() for n in range(top + 1))


def _sym_mul(field, s1, s2, cfg: Config) -> SClass:
    k1, k2 = s1[0], s2[0]
    if k1 == "const" and k2 == "const":
        prod = KClass(field, {s1[1]: 1}) * KClass(field, {s2[1]: 1})
        return lift_const(prod)
    if k1 == "pow" and k2 == "pow" and not s1[2] and not s2[2]:
        prod = _thaw(field, s1[1]) * _thaw(field, s2[1])
        return SClass(field, {("pow", prod.frozen(), False): 1})
    t1 = _materialize(field, s1, cfg.skeletal_level)
    t2 = _materialize(field, s2, cfg.skeletal_level)
    top = min(len(t1), len(t2))
    levels = tuple((_thaw(field, t1[n]) * _thaw(field, t2[n])).frozen()
                   for n in range(top))
    return SClass(field, {("levels", levels): 1})


def class_of_simplicial(s: SimplicialSieve) -> SClass:
    """The class of a shape; a shape with no closed form of its own is
    classed level by level, up to its truncation."""
    if isinstance(s, ConstSieve):
        return lift_const(class_of_sieve(s.base))
    if isinstance(s, PowerSieve):
        return lift_power(class_of_sieve(s.base), s.symmetric)
    if isinstance(s, ProductSieve):
        a = class_of_simplicial(s.left)
        b = class_of_simplicial(s.right)
        return a.mul(b, s.scheme.ideal.cfg)
    if isinstance(s, DisjointSieve):
        return class_of_simplicial(s.left) + class_of_simplicial(s.right)
    if isinstance(s, UnionSieve):
        inter = InterSieve(s.left, s.right)
        return (class_of_simplicial(s.left) + class_of_simplicial(s.right)
                - class_of_simplicial(inter))
    if isinstance(s, InterSieve):
        # equal ambient keys: two constant shapes, or two powers of one
        # scheme with one symmetry, meet in the shape of their bases' meet
        a, b = s.left, s.right
        if isinstance(a, ConstSieve) and isinstance(b, ConstSieve):
            return lift_const(class_of_sieve(sieve_inter(a.base, b.base)))
        if isinstance(a, PowerSieve) and isinstance(b, PowerSieve):
            return lift_power(class_of_sieve(sieve_inter(a.base, b.base)),
                              a.symmetric)
    out = [class_of_sieve(level) for level in presented_levels(s)]
    return SClass(out[0].field, {("levels", tuple(z.frozen() for z in out)): 1})


def level_class(z: SClass, n: int) -> KClass:
    """Extract the plain class of level n."""
    out = kclass_zero(z.field)
    for sym, c in z.terms.items():
        out = out + _level(z.field, sym, n) * c
    return out


def twist_levels(z: SClass, exps) -> SClass:
    """Multiply level n by L**exps[n] for the levels 0..len(exps) - 1; a
    constant list keeps constant shapes closed."""
    field = z.field
    constant = all(e == exps[0] for e in exps)
    out: dict = {}
    for sym, c in z.terms.items():
        kind = sym[0]
        if constant and kind == "const":
            blocks, lef = sym[1]
            nsym = ("const", (blocks, lef + exps[0]))
        else:
            tup = tuple(_thaw(field, fr).twist(e).frozen() for fr, e
                        in zip(_materialize(field, sym, len(exps) - 1), exps))
            nsym = ("levels", tup)
        out[nsym] = out.get(nsym, 0) + c
    return SClass(field, out)


def sym_str(sym) -> str:
    kind = sym[0]
    if kind == "const":
        return symbol_str(sym[1])
    if kind == "pow":
        tag = "sym" if sym[2] else "fib"
        return "%s(%s)" % (tag, _terms_str(sym[1]))
    if kind == "levels":
        return "levels(%s)" % "; ".join(_terms_str(fr) for fr in sym[1])
    raise WorkbenchError("unknown symbol kind %r" % (kind,))


def counting_simplicial(z: SClass, m: FatPoint, n: int) -> Fraction:
    """Level-n point count of a simplicial class at a finite fat point.

    A power shape counts its base once: level n is that count to the n+1,
    or the number of (n+1)-multisets of it in the symmetric shape. As in
    `counting_hom`, the sum is made in integers over one power of q.
    """
    field = z.field
    parts = []  # (numerator, s): a term's count is numerator / q**(length*s)
    for sym, c in z.terms.items():
        if sym[0] != "pow":
            num, s = _scaled_count(_level(field, sym, n), m)
        else:
            num, s = _scaled_count(_thaw(field, sym[1]), m)
            if not sym[2]:
                num, s = num ** (n + 1), s * (n + 1)
            else:
                den = field.order ** (m.length * s)
                if num < 0 or num % den:
                    raise EvalError("orbit count needs a nonnegative integer base")
                num, s = comb(num // den + n, n + 1), 0
        parts.append((c * num, s))
    if not parts:
        return Fraction(0)
    unit = field.order ** m.length
    top = max(s for _, s in parts)
    return Fraction(sum(num * unit ** (top - s) for num, s in parts), unit ** top)


# ---------------------------------------------------------------------------
# the discrete-object adjunction


def discrete_hom_check(y: AffineScheme, x: SimplicialSieve, m: FatPoint,
                       top: int = 2) -> dict:
    """Morphisms from the discrete object on y into x, counted two ways.

    A morphism is a compatible family of maps from y(m) into levels 0..top
    of x(m). The discrete side has identity faces and degeneracies, so the
    points of y(m) are independent, and at each one the family is a chain of
    one point per level: every degeneracy of a point gives the next, whose
    every face gives the point back. A degeneracy fixes the next level, so
    the check walks each vertex's chain once and reports chains^|y(m)|
    against |level 0|^|y(m)|, the maps from y(m) into the vertices. An
    empty y(m) has one morphism and no chain to walk; a shape without
    structure maps raises on the first step of a chain.
    """
    k = len(points(y, m))
    vertices = x.level_points(m, 0)
    chains = 0
    for p in (vertices if k else ()):
        for n in range(top):
            q = x.degeneracy(n, 0, p)
            if not (all(x.degeneracy(n, i, p) == q for i in range(1, n + 1))
                    and all(x.face(n + 1, i, q) == p for i in range(n + 2))
                    and x.member(m, n + 1, q)):
                break
            p = q
        else:
            chains += 1
    got, expected = chains ** k, len(vertices) ** k
    return {"morphisms": got, "expected": expected, "ok": got == expected}


# ---------------------------------------------------------------------------
# pushforward and the projection adjunction


def _conjunction_parts(node):
    if isinstance(node, Full):
        return [], []
    if isinstance(node, Closed):
        return list(node.gens), []
    if isinstance(node, OpenLoc):
        return [], [node.g]
    if isinstance(node, Inter):
        g1, o1 = _conjunction_parts(node.left)
        g2, o2 = _conjunction_parts(node.right)
        return g1 + g2, o1 + o2
    raise WorkbenchError("pushforward needs a conjunction of equations and opens")


def pushforward(s: Sieve, f: CoordMap) -> Sieve:
    """Image sieve of a conjunction under a morphism.

    Opens are absorbed by inverting the localizing function in one extra
    coordinate, so the source stays an honest affine scheme.
    """
    if f.source != s.ambient:
        raise AmbientMismatch("pushforward along a morphism from a different ambient")
    gens, opens = _conjunction_parts(s.node)
    field = s.ambient.field
    vars = s.ambient.vars
    all_gens = list(s.ambient.ideal.gens) + gens
    if opens:
        loc = _merge_opens(opens)
        w = "w"
        k = 0
        while w in vars:
            w = "w%d" % k
            k += 1
        new_vars = vars + (w,)
        all_gens = [g.embed(new_vars) for g in all_gens]
        wpoly = Poly.variable(w, new_vars, field)
        all_gens.append(loc.embed(new_vars) * wpoly - 1)
        vars = new_vars
    src = AffineScheme(s.ambient.name + "_sub",
                       Ideal(vars, field, all_gens, s.ambient.ideal.cfg))
    images = {v: f.images[v].embed(vars) for v in f.target.vars}
    return image_sieve(CoordMap(src, f.target, images))


def galois_check(f: CoordMap, a: Sieve, b: Sieve, m: FatPoint) -> dict:
    """Image-of and preimage-of are adjoint on point sets.

    Containment of the image of a in b must coincide with containment of a
    in the preimage of b, at every finite fat point probed.
    """
    if a.ambient != f.source:
        raise AmbientMismatch("left sieve does not live in the map source")
    if b.ambient != f.target:
        raise AmbientMismatch("right sieve does not live in the map target")
    apts = set(a.points(m))
    bpts = set(b.points(m))
    image = set(f.apply_point(m, p) for p in apts)
    left = image <= bpts
    pull = b.pullback(f)
    right = apts <= set(pull.points(m))
    return {"left": left, "right": right, "ok": left == right}
