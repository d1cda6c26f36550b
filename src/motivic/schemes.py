"""Affine schemes of finite type, their points over fat points, and arcs.

The arc construction is a Weil restriction: coordinates are expanded over the
standard-monomial basis of the fat point, and one equation is read off per
(generator, basis monomial) pair. Point enumeration searches the same
coefficients one base-field coordinate at a time.
"""

from __future__ import annotations

import re
from itertools import product as iproduct
from operator import itemgetter

from .config import DEFAULT, Config
from .errors import (AmbientMismatch, CapExceeded, EnumerationUnavailable,
                     FieldMismatch, WorkbenchError)
from .fatpoints import (FatPoint, QuotientAlgebra, point_of, row_value,
                        truncation_compatible)
from .fields import Field
from .poly import Ideal, Poly, poly_str, tensor_product

_RESERVED = re.compile(r".*_[0-9]+$")


def reserved_name(v: str) -> bool:
    """Names ending in _<digits> belong to generated arc coordinates."""
    return bool(_RESERVED.match(v))


class AffineScheme:
    def __init__(self, name: str, ideal: Ideal, check_names: bool = False):
        self.name = name
        self.ideal = ideal
        # canonical symbols of conjunctions on this ambient, kept by
        # kring.class_of_sieve; not part of equality or hashing
        self.memo = {}
        if check_names:
            for v in ideal.vars:
                if reserved_name(v):
                    raise WorkbenchError(
                        "coordinate %r uses the reserved arc-name pattern" % v)

    @property
    def vars(self):
        return self.ideal.vars

    @property
    def field(self) -> Field:
        return self.ideal.field

    def presentation_key(self):
        return (self.field, self.vars, tuple(g.key() for g in self.ideal.basis()))

    def __eq__(self, other):
        return (isinstance(other, AffineScheme)
                and self.presentation_key() == other.presentation_key())

    def __hash__(self):
        return hash(self.presentation_key())

    def __repr__(self):
        if not self.vars:
            return "Spec %r" % self.field
        inside = ", ".join(poly_str(g) for g in self.ideal.gens)
        body = "%s[%s]" % (self.field, ", ".join(self.vars))
        return "Spec %s/(%s)" % (body, inside) if inside else "Spec " + body


def affine_space(field: Field, names, name: str = "", cfg: Config = DEFAULT) -> AffineScheme:
    return AffineScheme(name or "A^%d" % len(tuple(names)),
                        Ideal(tuple(names), field, [], cfg))


def product_scheme(a: AffineScheme, b: AffineScheme, name: str = "") -> tuple:
    """(product, left var map, right var map); right names dodge collisions."""
    ideal, lmap, rmap = tensor_product(a.ideal, b.ideal)
    return AffineScheme(name or a.name + "*" + b.name, ideal), lmap, rmap


class CoordMap:
    """A morphism given by coordinate images: target var -> Poly over source."""

    def __init__(self, source: AffineScheme, target: AffineScheme, images: dict):
        self.source = source
        self.target = target
        self.images = {}
        for v in target.vars:
            if v not in images:
                raise WorkbenchError("morphism misses coordinate %r" % v)
            p = images[v]
            if p.vars != source.vars or p.field != source.field:
                raise FieldMismatch("coordinate image not over the source ring")
            self.images[v] = p

    def pullback_poly(self, p: Poly) -> Poly:
        """Precompose: polynomial on the target becomes one on the source."""
        if p.is_zero() or p.is_constant():
            return Poly.constant(p.constant_coeff(), self.source.vars, self.source.field)
        return p.substitute(self.images, vars=self.source.vars, field=self.source.field)

    def apply_point(self, alg: QuotientAlgebra, point):
        src = dict(zip(self.source.vars, point))
        return tuple(alg.eval_poly(self.images[v], src) for v in self.target.vars)

    def compose(self, inner: "CoordMap") -> "CoordMap":
        """self after inner (inner.source -> self.target)."""
        if inner.target.vars != self.source.vars:
            raise AmbientMismatch("morphisms do not compose")
        images = {v: inner.pullback_poly(p) for v, p in self.images.items()}
        return CoordMap(inner.source, self.target, images)

    def respects_relations(self) -> bool:
        return all(self.source.ideal.contains(self.pullback_poly(g))
                   for g in self.target.ideal.gens)

    def key(self):
        return (self.source.presentation_key(), self.target.presentation_key(),
                tuple((v, self.images[v].key()) for v in self.target.vars))

    def __eq__(self, other):
        return isinstance(other, CoordMap) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        inside = ", ".join("%s=%s" % (v, poly_str(p)) for v, p in self.images.items())
        return "%s -> %s : %s" % (self.source.name, self.target.name, inside)


def identity_map(x: AffineScheme) -> CoordMap:
    return CoordMap(x, x, {v: Poly.variable(v, x.vars, x.field) for v in x.vars})


# -- point enumeration --------------------------------------------------------


def points(x: AffineScheme, m: FatPoint, cfg: Config = DEFAULT):
    """All algebra maps from x's coordinate ring into O_m, as image tuples.

    A point is a tuple of base-field coordinates, the coefficients of each
    variable's image over m's standard basis (the restriction adjunction).
    Each generator becomes one coefficient row per basis monomial
    (`QuotientAlgebra.coefficient_rows`, cached on m's algebra). The search
    sets the n*len coordinates one at a time in basis order x_0, y_0, x_1,
    y_1, ..., and tests each row, mod p, as soon as its last coordinate is
    set, so a partial jet is dropped at the first equation it breaks.
    Returns the points sorted, each a tuple of coefficient vectors, one per
    variable. Finite fields only.
    """
    if not x.field.finite:
        raise EnumerationUnavailable("point enumeration needs a finite field")
    if x.field != m.field:
        raise FieldMismatch("scheme and fat point over different fields")
    alg = m.algebra
    n, length = len(x.vars), m.length
    size = n * length
    total = (x.field.order ** size) if n else 1
    if total > cfg.max_candidates:
        raise CapExceeded("enumeration of %d candidates exceeds cap %d"
                          % (total, cfg.max_candidates))
    p = x.field.char
    due = [[] for _ in range(size)]      # rows by the position that completes them
    for g in x.ideal.gens:
        for row in alg.coefficient_rows(g):
            if not row:
                continue
            last = max(mono[-1][0] if mono else -1 for _, mono in row)
            if last < 0:                 # a nonzero constant vetoes everything
                return []
            due[last].append(row)
    # coordinates past the last one that completes a row are unconstrained
    free = max((s for s in range(size) if due[s]), default=-1) + 1
    vals = [0] * size
    found = []

    def assign(s):
        if s == free:
            head = vals[:free]
            for tail in iproduct(range(p), repeat=size - free):
                found.append(point_of(head + list(tail), n))
            return
        rows = due[s]
        for v in range(p):
            vals[s] = v
            for row in rows:
                if row_value(row, vals) % p:
                    break
            else:
                assign(s + 1)

    assign(0)
    found.sort()
    return found


def count_points(x: AffineScheme, m: FatPoint, cfg: Config = DEFAULT) -> int:
    if not x.ideal.gens:
        return x.field.order ** (len(x.vars) * m.length)
    return len(points(x, m, cfg))


def validate_point(x: AffineScheme, m: FatPoint, point) -> bool:
    alg = m.algebra
    images = dict(zip(x.vars, point))
    return all(alg.is_zero_vec(alg.eval_poly(g, images)) for g in x.ideal.gens)


# -- Weil restriction ---------------------------------------------------------


def arc_var(v: str, j: int) -> str:
    return "%s_%d" % (v, j)


class ArcScheme(AffineScheme):
    """The restriction of a scheme along a fat point, with its bookkeeping."""

    def __init__(self, ideal: Ideal, source: AffineScheme, point: FatPoint,
                 raw_equation_count: int):
        super().__init__("arc(%s@%s)" % (source.name, point.name or repr(point)), ideal)
        self.source = source
        self.point = point
        self.raw_equation_count = raw_equation_count


def arc_coefficients(polys, x: AffineScheme, m: FatPoint, cfg: Config = DEFAULT):
    """Expand each polynomial over the point's basis and split off coefficients.

    Returns (arc variable tuple, list of coefficient rows); row s has one
    polynomial (over the arc variables) per standard basis monomial of m.
    These are m's `coefficient_rows` with the coordinate at position j*n + i
    named v_j for the i-th variable v.
    """
    if x.field != m.field:
        raise FieldMismatch("scheme and fat point over different fields")
    field = x.field
    arc_vars = tuple(arc_var(v, j) for v in x.vars for j in range(m.length))
    names = arc_vars + tuple(m.ideal.vars)
    if len(set(names)) != len(names):
        raise WorkbenchError("arc coordinate names collide with the point's")
    # arc variable v_j is coefficient j of v: the arc variables list the
    # coordinates of a point variable by variable
    order = [pos for vec in point_of(range(len(x.vars) * m.length), len(x.vars))
             for pos in vec]
    slot = {pos: a for a, pos in enumerate(order)}

    def named(row):
        terms = {}
        for c, mono in row:
            e = [0] * len(arc_vars)
            for pos, k in mono:
                e[slot[pos]] = k
            terms[tuple(e)] = c
        return Poly(arc_vars, field, terms)

    rows = [[named(row) for row in m.algebra.coefficient_rows(f)] for f in polys]
    return arc_vars, rows


def weil_restrict(x: AffineScheme, m: FatPoint, cfg: Config = DEFAULT) -> ArcScheme:
    """One equation per (generator, basis monomial), zero rows pruned."""
    arc_vars, rows = arc_coefficients(x.ideal.gens, x, m, cfg)
    raw = len(x.ideal.gens) * m.length
    gens = [c for row in rows for c in row if not c.is_zero()]
    return ArcScheme(Ideal(arc_vars, x.field, gens, cfg), x, m, raw)


def arc_dimension(x: AffineScheme, m: FatPoint, cfg: Config = DEFAULT) -> int:
    return weil_restrict(x, m, cfg).ideal.krull_dimension()


def arc_of_map(f: CoordMap, m: FatPoint, cfg: Config = DEFAULT) -> CoordMap:
    """Restriction applied to a morphism: coefficients of the pushed coordinates."""
    src = weil_restrict(f.source, m, cfg)
    tgt = weil_restrict(f.target, m, cfg)
    order = [f.images[v] for v in f.target.vars]
    _, rows = arc_coefficients(order, f.source, m, cfg)
    images = {}
    for vi, v in enumerate(f.target.vars):
        for j in range(m.length):
            images[arc_var(v, j)] = rows[vi][j]
    return CoordMap(src, tgt, images)


# -- truncation ---------------------------------------------------------------


def truncation_map(x: AffineScheme, big: FatPoint, small: FatPoint,
                   cfg: Config = DEFAULT) -> CoordMap:
    """The linear projection between arcs induced by a closed subpoint.

    `small` must present a closed subpoint of `big` (same coordinates, larger
    ideal); each big basis monomial is re-expanded in the small algebra.
    """
    if not truncation_compatible(small, big):
        raise AmbientMismatch("second point is not a closed subpoint of the first")
    src = weil_restrict(x, big, cfg)
    tgt = weil_restrict(x, small, cfg)
    salg = small.algebra
    rows = [salg.nf_vector(b) for b in big.algebra.basis]
    images = {}
    for v in x.vars:
        for t in range(small.length):
            acc = Poly.zero(src.vars, x.field)
            for j in range(big.length):
                c = rows[j][t]
                if c:
                    acc = acc + Poly.variable(arc_var(v, j), src.vars, x.field).scale(c)
            images[arc_var(v, t)] = acc
    return CoordMap(src, tgt, images)


# -- adjunction ---------------------------------------------------------------


def _joint_split(am: FatPoint, a: FatPoint, m: FatPoint):
    """Index map of the tensor basis against the factor bases."""
    la = len(a.ideal.vars)
    pairs = {}
    for idx, e in enumerate(am.algebra.basis_exps):
        u, v = tuple(e[:la]), tuple(e[la:])
        pairs[(a.algebra.index[u], m.algebra.index[v])] = idx
    return pairs


def adjunction_check(x: AffineScheme, m: FatPoint, a: FatPoint,
                     cfg: Config = DEFAULT) -> dict:
    """Compare maps out of the tensor point with points of the restriction.

    The rearrangement sends the coefficient at (a-basis u, m-basis v) of
    coordinate x_i to the coefficient at u of arc coordinate (x_i, v); the
    verdict requires it to be a bijection onto the enumerated arc points.
    """
    from .fatpoints import tensor_points
    am = tensor_points(a, m)
    left = points(x, am, cfg)
    arc = weil_restrict(x, m, cfg)
    right = points(arc, a, cfg)
    pairs = _joint_split(am, a, m)
    # arc coordinate v_j gathers the coefficients at (u, j) of v, for every
    # a-basis index u: one getter per arc coordinate, made once
    source = {}
    for i, v in enumerate(x.vars):
        for j in range(m.length):
            idx = [pairs[(u, j)] for u in range(a.length)]
            take = itemgetter(*idx) if len(idx) > 1 else (lambda w, k=idx[0]: (w[k],))
            source[arc_var(v, j)] = (i, take)
    gather = [source[av] for av in arc.vars]
    mapped = [tuple([take(pt[i]) for i, take in gather]) for pt in left]
    image = set(mapped)
    ok = len(mapped) == len(image) == len(right) and image == set(right)
    return {
        "tensor_count": len(left),
        "arc_count": len(right),
        "bijection": ok,
        "tensor_point": am,
    }
