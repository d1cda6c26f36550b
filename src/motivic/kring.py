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
Each block carries the scheme and sieve node that realize it, so a class
prints and counts without any state outside itself.

Union classes are expanded by inclusion-exclusion, which makes the
cut-and-paste identity hold by construction; the battery helpers re-verify
it against honest point counts.

Simplicial classes layer level shapes over plain classes: constant lifts,
fiber powers, symmetric powers (orbit counts only), and explicit level
tuples. Products and twists that leave the closed shapes materialize finite
level tuples up to the configured skeletal level.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product as iproduct
from math import comb

from .config import DEFAULT, Config
from .errors import (AmbientMismatch, CapExceeded, EnumerationUnavailable,
                     EvalError, WorkbenchError)
from .fatpoints import FatPoint
from .fields import Field
from .poly import Ideal, Poly, join_terms
from .schemes import AffineScheme, CoordMap, points
from .sieves import (Closed, ConstSieve, DisjointSieve, Empty, Full, Im,
                     Inter, InterSieve, LevelSieve, OpenLoc, PowerSieve,
                     ProductSieve, Sieve, SimplicialSieve, Union, UnionSieve,
                     image_sieve, level_presentation, node_str)

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
    """A canonical block: its key and the (scheme, node) that realizes it.

    Equality, hashing and repr come from the key alone, so blocks order and
    merge as their keys do; the payload is what printing and counting read.
    The key's repr and hash are taken once, since canonical order sorts by
    repr and every class sum hashes its symbols.
    """

    __slots__ = ("key", "scheme", "node", "_repr", "_hash")

    def __init__(self, key, scheme: AffineScheme, node):
        self.key = key
        self.scheme = scheme
        self.node = node
        self._repr = repr(key)
        self._hash = hash(key)

    def __eq__(self, other):
        return isinstance(other, Block) and self.key == other.key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return self._repr

    def __reduce__(self):
        # string hashes are salted per process: rebuild rather than copy _hash
        return Block, (self.key, self.scheme, self.node)


def _permute_poly(p: Poly, perm, new_vars, field) -> Poly:
    out = {}
    for e, c in p.terms.items():
        ne = [0] * len(e)
        for i, k in enumerate(e):
            ne[perm[i]] = k
        out[tuple(ne)] = c
    return Poly(new_vars, field, out)


def _drop_variable(p: Poly, idx: int, new_vars) -> Poly:
    out = {}
    for e, c in p.terms.items():
        if e[idx]:
            raise WorkbenchError("variable still occurs")
        out[e[:idx] + e[idx + 1:]] = c
    return Poly(new_vars, p.field, out)


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


def _node_of_parts(vars, field, gens, open_g, ims):
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


def _block_candidates(vars_sub, field, gens, open_g, ims, cfg):
    """The least presentation over coordinate permutations, or None when empty."""
    n = len(vars_sub)
    perm_source = permutations(range(n)) if n <= 5 else [tuple(range(n))]
    best_key = None
    best_payload = None
    zvars = tuple("z%d" % j for j in range(n))
    for perm in perm_source:
        pgens = [_permute_poly(g, perm, zvars, field) for g in gens]
        ideal = Ideal(zvars, field, pgens, cfg)
        basis = ideal.basis()
        if ideal.is_unit():
            return None
        popen = None
        if open_g is not None:
            popen = ideal.normal_form(_permute_poly(open_g, perm, zvars, field))
            if popen.is_zero():
                return None
            if popen.is_constant():
                popen = None
            else:
                popen = popen.monic()
        pims = []
        if ims:
            mapping = {vars_sub[i]: zvars[perm[i]] for i in range(n)}
            tgt = AffineScheme("blk", Ideal(zvars, field, pgens, cfg))
            for cm in ims:
                images = {mapping[v]: cm.images[v] for v in cm.target.vars}
                pims.append(CoordMap(cm.source, tgt, images))
        key = ("blk", n,
               tuple(sorted((g.key() for g in basis), key=repr)),
               None if popen is None else popen.key(),
               tuple(sorted((cm.key() for cm in pims), key=repr)))
        if best_key is None or repr(key) < repr(best_key):
            best_key = key
            scheme_ideal = Ideal(zvars, field, list(basis), cfg)
            scheme_ideal._basis = list(basis)
            scheme = AffineScheme("blk", scheme_ideal)
            best_payload = (scheme, _node_of_parts(zvars, field, basis, popen, pims))
    return Block(best_key, *best_payload)


def canonical_conjunction(ambient: AffineScheme, literals, cfg: Config = DEFAULT):
    """Symbol (blocks, lef) for one conjunction, or None when empty."""
    field = ambient.field
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

    vars = ambient.vars
    gens = list(ambient.ideal.gens) + closed
    ideal = Ideal(vars, field, gens, cfg)
    if ideal.is_unit():
        return None
    basis = list(ideal.basis())
    opens = [ideal.normal_form(g) for g in opens]
    if any(g.is_zero() for g in opens):
        return None
    opens = [g for g in opens if not g.is_constant()]

    if not ims:
        while True:
            hit = _eliminable(basis)
            if hit is None:
                break
            gi, vi, c = hit
            f = basis[gi]
            unit = {tuple(1 if j == vi else 0 for j in range(len(vars))): c}
            r = f - Poly(vars, field, unit)
            img = r.scale(field.neg(field.inv(c)))
            images = {v: Poly.variable(v, vars, field) for v in vars}
            images[vars[vi]] = img
            new_vars = vars[:vi] + vars[vi + 1:]
            basis = [_drop_variable(g.substitute(images), vi, new_vars)
                     for j, g in enumerate(basis) if j != gi]
            opens = [_drop_variable(g.substitute(images), vi, new_vars)
                     for g in opens]
            vars = new_vars
            ideal = Ideal(vars, field, basis, cfg)
            if ideal.is_unit():
                return None
            basis = list(ideal.basis())
            opens = [ideal.normal_form(g) for g in opens]
            if any(g.is_zero() for g in opens):
                return None
            opens = [g for g in opens if not g.is_constant()]

    n = len(vars)
    if ims:
        # image conditions constrain every coordinate: one indivisible block
        block = _block_candidates(vars, field, basis,
                                  _merge_opens(opens, field, vars), ims, cfg)
        return None if block is None else ((block,), 0)

    used = set()
    edges = []
    for g in basis + opens:
        sup = frozenset(g.support())
        used |= sup
        edges.append(sup)
    lef = n - len(used)

    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for sup in edges:
        lst = sorted(sup)
        for a, b in zip(lst, lst[1:]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

    comps: dict = {}
    for i in sorted(used):
        comps.setdefault(find(i), []).append(i)

    blocks = []
    for root in comps:
        idxs = comps[root]
        sub_vars = tuple(vars[i] for i in idxs)
        pos = {i: j for j, i in enumerate(idxs)}

        def restrict(p):
            out = {}
            for e, c in p.terms.items():
                ne = [0] * len(idxs)
                for i, k in enumerate(e):
                    if k:
                        ne[pos[i]] = k
                out[tuple(ne)] = c
            return Poly(sub_vars, field, out)

        bgens = [restrict(g) for g in basis if g.support() <= set(idxs)]
        bopens = [restrict(g) for g in opens if g.support() <= set(idxs)]
        merged = _merge_opens(bopens, field, sub_vars)
        block = _block_candidates(sub_vars, field, bgens, merged, [], cfg)
        if block is None:
            return None
        blocks.append(block)

    return (tuple(sorted(blocks, key=repr)), lef)


def _merge_opens(opens, field, vars):
    if not opens:
        return None
    out = Poly.constant(1, vars, field)
    for g in opens:
        out = out * g
    return out


# ---------------------------------------------------------------------------
# plain classes


class _Combination:
    """Integer combination of symbols over one base field.

    The arithmetic shared by plain and simplicial classes; a subclass says
    how an integer lifts into it (`_of_int`) and how symbols multiply.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms: dict | None = None):
        self.field = field
        self.terms = {s: c for s, c in (terms or {}).items() if c}

    def _check(self, other):
        if self.field != other.field:
            raise AmbientMismatch("classes over different fields")

    def __add__(self, other):
        if isinstance(other, int):
            other = self._of_int(other)
        self._check(other)
        out = dict(self.terms)
        for s, c in other.terms.items():
            out[s] = out.get(s, 0) + c
        return type(self)(self.field, out)

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if isinstance(other, int):
            other = self._of_int(other)
        return self + (-other)

    def __rsub__(self, other):
        return self._of_int(other) - self

    def scale(self, c: int):
        return type(self)(self.field, {s: cc * c for s, cc in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def frozen(self):
        return tuple(sorted(self.terms.items(), key=lambda kv: repr(kv[0])))

    def __eq__(self, other):
        return (type(other) is type(self) and self.field == other.field
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field, self.frozen()))

    def __repr__(self):
        return class_str(self)


class KClass(_Combination):
    """Integer combination of canonical symbols over one base field."""

    __slots__ = ()

    def _of_int(self, n: int) -> "KClass":
        return kclass_int(self.field, n)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
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


# entries of an ambient's conjunction memo; the oldest goes first past this
MEMO_BOUND = 64


def class_of_sieve(s: Sieve, cfg: Config = DEFAULT) -> KClass:
    """Sum of the canonical symbols of the node's conjunctions.

    Each symbol is looked up in the ambient's memo under (literals, cfg)
    first. Conjunctions with image literals bypass the memo: equal maps
    may come from differently named sources, and the block prints the name.
    """
    memo = s.ambient.memo
    terms: dict = {}
    for coeff, lits in expand_node(s.node):
        key = (lits, cfg)
        if any(kind == "I" for kind, _ in lits):
            sym = canonical_conjunction(s.ambient, lits, cfg)
        elif key in memo:
            sym = memo[key]
        else:
            sym = canonical_conjunction(s.ambient, lits, cfg)
            if len(memo) >= MEMO_BOUND:
                del memo[next(iter(memo))]
            memo[key] = sym
        if sym is None:
            continue
        terms[sym] = terms.get(sym, 0) + coeff
    return KClass(s.ambient.field, terms)


def class_of_scheme(x: AffineScheme, cfg: Config = DEFAULT) -> KClass:
    return class_of_sieve(Sieve(x, Full()), cfg)


def symbol_str(sym) -> str:
    blocks, lef = sym
    bits = ["[pt]" if isinstance(b.node, Full) else "[%s]" % node_str(b.node)
            for b in blocks]
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


def counting_hom(z: KClass, m: FatPoint, cfg: Config = DEFAULT) -> Fraction:
    """Point count of a class at a finite fat point; L goes to q**length."""
    field = z.field
    if not field.finite:
        raise EnumerationUnavailable("counting needs a finite base field")
    q = field.order
    ell = m.length
    total = Fraction(0)
    for (blocks, lef), c in z.terms.items():
        val = Fraction(q) ** (ell * lef)
        for block in blocks:
            val *= Sieve(block.scheme, block.node).count(m, cfg)
        total += c * val
    return total


# ---------------------------------------------------------------------------
# simplicial classes


class SClass(_Combination):
    """Integer combination of shaped symbols.

    Symbol kinds: ("const", plain symbol), ("pow", frozen class, symmetric),
    ("levels", tuple of frozen classes). Constant lifts distribute linearly;
    power shapes wrap a whole plain class since levels are genuine powers.
    """

    __slots__ = ()

    def _of_int(self, n: int) -> "SClass":
        return lift_const(kclass_int(self.field, n))

    def mul(self, other: "SClass", cfg: Config = DEFAULT) -> "SClass":
        self._check(other)
        out = SClass(self.field, {})
        for s1, c1 in self.terms.items():
            for s2, c2 in other.terms.items():
                piece = _sym_mul(self.field, s1, s2, cfg)
                out = out + piece.scale(c1 * c2)
        return out

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return self.mul(other)


def lift_const(z: KClass) -> SClass:
    return SClass(z.field, {("const", s): c for s, c in z.terms.items()})


def lift_power(z: KClass, symmetric: bool = False) -> SClass:
    return SClass(z.field, {("pow", z.frozen(), symmetric): 1})


def _materialize(field, sym, cfg: Config):
    """Tuple of frozen plain classes, one per level up to the skeletal cap."""
    top = cfg.skeletal_level
    kind = sym[0]
    if kind == "const":
        z = KClass(field, {sym[1]: 1})
        return tuple(z.frozen() for _ in range(top + 1))
    if kind == "pow":
        if sym[2]:
            raise EvalError("symmetric shape has no level presentation")
        base = _thaw(field, sym[1])
        out = []
        acc = kclass_one(field)
        for _ in range(top + 1):
            acc = acc * base
            out.append(acc.frozen())
        return tuple(out)
    if kind == "levels":
        return sym[1]
    raise WorkbenchError("unknown symbol kind %r" % (kind,))


def _sym_mul(field, s1, s2, cfg: Config) -> SClass:
    k1, k2 = s1[0], s2[0]
    if k1 == "const" and k2 == "const":
        prod = KClass(field, {s1[1]: 1}) * KClass(field, {s2[1]: 1})
        return lift_const(prod)
    if k1 == "pow" and k2 == "pow" and not s1[2] and not s2[2]:
        prod = _thaw(field, s1[1]) * _thaw(field, s2[1])
        return SClass(field, {("pow", prod.frozen(), False): 1})
    t1 = _materialize(field, s1, cfg)
    t2 = _materialize(field, s2, cfg)
    top = min(len(t1), len(t2))
    levels = tuple((_thaw(field, t1[n]) * _thaw(field, t2[n])).frozen()
                   for n in range(top))
    return SClass(field, {("levels", levels): 1})


def class_of_simplicial(s, cfg: Config = DEFAULT) -> SClass:
    if isinstance(s, Sieve):
        return lift_const(class_of_sieve(s, cfg))
    if isinstance(s, ConstSieve):
        return lift_const(class_of_sieve(s.plain(), cfg))
    if isinstance(s, PowerSieve):
        base = class_of_sieve(Sieve(s.scheme, s.node), cfg)
        return lift_power(base, s.symmetric)
    if isinstance(s, ProductSieve):
        a = class_of_simplicial(s.left, cfg)
        b = class_of_simplicial(s.right, cfg)
        return a.mul(b, cfg)
    if isinstance(s, DisjointSieve):
        return class_of_simplicial(s.left, cfg) + class_of_simplicial(s.right, cfg)
    if isinstance(s, UnionSieve):
        inter = InterSieve(s.left, s.right)
        return (class_of_simplicial(s.left, cfg) + class_of_simplicial(s.right, cfg)
                - class_of_simplicial(inter, cfg))
    if isinstance(s, InterSieve):
        a, b = s.left, s.right
        if isinstance(a, ConstSieve) and isinstance(b, ConstSieve):
            return lift_const(class_of_sieve(
                Sieve(a.scheme, Inter(a.node, b.node)), cfg))
        if (isinstance(a, PowerSieve) and isinstance(b, PowerSieve)
                and a.symmetric == b.symmetric
                and a.scheme.presentation_key() == b.scheme.presentation_key()):
            base = class_of_sieve(Sieve(a.scheme, Inter(a.node, b.node)), cfg)
            return lift_power(base, a.symmetric)
        return _levels_class(s, cfg)
    if isinstance(s, LevelSieve):
        return _levels_class(s, cfg)
    raise WorkbenchError("no class for %r" % (s,))


def _levels_class(s: SimplicialSieve, cfg: Config) -> SClass:
    field = None
    out = []
    top = cfg.skeletal_level
    if isinstance(s, LevelSieve):
        top = min(top, s.truncation)
    for n in range(top + 1):
        pres = level_presentation(s, n, cfg)
        if pres is None:
            raise EvalError("no affine presentation at level %d" % n)
        scheme, node = pres
        z = class_of_sieve(Sieve(scheme, node), cfg)
        field = z.field
        out.append(z.frozen())
    return SClass(field, {("levels", tuple(out)): 1})


def level_class(z: SClass, n: int, cfg: Config = DEFAULT) -> KClass:
    """Extract the plain class of level n."""
    field = z.field
    out = kclass_zero(field)
    for sym, c in z.terms.items():
        kind = sym[0]
        if kind == "const":
            out = out + KClass(field, {sym[1]: c})
        elif kind == "pow":
            if sym[2]:
                raise EvalError("symmetric shape has no level presentation")
            base = _thaw(field, sym[1])
            acc = kclass_one(field)
            for _ in range(n + 1):
                acc = acc * base
            out = out + acc * c
        elif kind == "levels":
            if n >= len(sym[1]):
                raise CapExceeded("level %d beyond materialized tuple" % n)
            out = out + _thaw(field, sym[1][n]) * c
        else:
            raise WorkbenchError("unknown symbol kind %r" % (kind,))
    return out


def is_strictly_schemic(z: SClass) -> bool:
    """Every symbol is a constant lift; level 0 then determines the class."""
    return all(sym[0] == "const" for sym in z.terms)


def twist_by_rule(z: SClass, rule, cfg: Config = DEFAULT) -> SClass:
    """Multiply level n by L**rule(n); constant rules keep closed shapes."""
    field = z.field
    probe = [rule(n) for n in range(cfg.skeletal_level + 1)]
    constant = all(e == probe[0] for e in probe)
    out: dict = {}
    for sym, c in z.terms.items():
        kind = sym[0]
        if constant and kind == "const":
            blocks, lef = sym[1]
            nsym = ("const", (blocks, lef + probe[0]))
        elif kind == "levels":
            tup = tuple(_thaw(field, fr).twist(rule(n)).frozen()
                        for n, fr in enumerate(sym[1]))
            nsym = ("levels", tup)
        else:
            tup = tuple(_thaw(field, fr).twist(rule(n)).frozen()
                        for n, fr in enumerate(_materialize(field, sym, cfg)))
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


def counting_simplicial(z: SClass, m: FatPoint, n: int,
                        cfg: Config = DEFAULT) -> Fraction:
    """Level-n point count of a simplicial class at a finite fat point."""
    field = z.field
    total = Fraction(0)
    for sym, c in z.terms.items():
        kind = sym[0]
        if kind == "const":
            val = counting_hom(KClass(field, {sym[1]: 1}), m, cfg)
        elif kind == "pow":
            base = counting_hom(_thaw(field, sym[1]), m, cfg)
            if sym[2]:
                if base.denominator != 1 or base < 0:
                    raise EvalError("orbit count needs a nonnegative integer base")
                val = Fraction(comb(int(base) + n, n + 1))
            else:
                val = base ** (n + 1)
        elif kind == "levels":
            if n >= len(sym[1]):
                raise CapExceeded("level %d beyond materialized tuple" % n)
            val = counting_hom(_thaw(field, sym[1][n]), m, cfg)
        else:
            raise WorkbenchError("unknown symbol kind %r" % (kind,))
        total += c * val
    return total


# ---------------------------------------------------------------------------
# the discrete-object adjunction


def discrete_hom_check(y: AffineScheme, x: SimplicialSieve, m: FatPoint,
                       top: int = 2, cfg: Config = DEFAULT) -> dict:
    """Morphisms from the discrete object on y into x, counted two ways.

    A morphism is a compatible family of maps from y(m) into the levels of
    x(m); the discrete side has identity faces and degeneracies, so the
    family is pinned by its bottom layer. The check enumerates all families
    and compares with the one-level count.
    """
    ypts = list(points(y, m, cfg))
    levels = [list(x.level_points(m, n, cfg)) for n in range(top + 1)]
    expected = len(levels[0]) ** len(ypts)
    total = 1
    for lv in levels:
        total *= max(1, len(lv)) ** len(ypts)
        if total > cfg.max_candidates:
            raise CapExceeded("morphism enumeration too large")
    amb = x.ambient

    def families():
        choices = [list(iproduct(range(len(lv)), repeat=len(ypts))) for lv in levels]
        return iproduct(*choices)

    got = 0
    for fam in families():
        maps = [[levels[n][i] for i in fam[n]] for n in range(top + 1)]
        ok = True
        for n in range(1, top + 1):
            for j, p in enumerate(ypts):
                for i in range(n + 1):
                    if amb.face(m, n, i, maps[n][j]) != maps[n - 1][j]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            for n in range(0, top):
                for j, p in enumerate(ypts):
                    for i in range(n + 1):
                        if amb.degeneracy(m, n, i, maps[n][j]) != maps[n + 1][j]:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
        if ok:
            got += 1
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


def pushforward(s: Sieve, f: CoordMap, cfg: Config = DEFAULT) -> Sieve:
    """Image sieve of a conjunction under a morphism.

    Opens are absorbed by inverting the localizing function in one extra
    coordinate, so the source stays an honest affine scheme.
    """
    if f.source.presentation_key() != s.ambient.presentation_key():
        raise AmbientMismatch("pushforward along a morphism from a different ambient")
    gens, opens = _conjunction_parts(s.node)
    field = s.ambient.field
    vars = s.ambient.vars
    all_gens = list(s.ambient.ideal.gens) + gens
    if opens:
        loc = _merge_opens(opens, field, vars)
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
    src = AffineScheme(s.ambient.name + "_sub", Ideal(vars, field, all_gens, cfg))
    images = {v: f.images[v].embed(vars) for v in f.target.vars}
    return image_sieve(CoordMap(src, f.target, images))


def galois_check(f: CoordMap, a: Sieve, b: Sieve, m: FatPoint,
                 cfg: Config = DEFAULT) -> dict:
    """Image-of and preimage-of are adjoint on point sets.

    Containment of the image of a in b must coincide with containment of a
    in the preimage of b, at every finite fat point probed.
    """
    if a.ambient.presentation_key() != f.source.presentation_key():
        raise AmbientMismatch("left sieve does not live in the map source")
    if b.ambient.presentation_key() != f.target.presentation_key():
        raise AmbientMismatch("right sieve does not live in the map target")
    apts = set(a.points(m, cfg))
    bpts = set(b.points(m, cfg))
    alg = m.algebra
    image = set(f.apply_point(alg, p) for p in apts)
    left = image <= bpts
    pull = b.pullback(f, cfg)
    right = apts <= set(pull.points(m, cfg))
    return {"left": left, "right": right, "ok": left == right}
