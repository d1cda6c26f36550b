"""Affine schemes of finite type, their points over fat points, and arcs.

The arc construction is a Weil restriction: coordinates are expanded over the
standard-monomial basis of the fat point, defining equations are reduced with
polynomial coefficients, and one equation is read off per (generator, basis
monomial) pair.
"""

from __future__ import annotations

import re
from itertools import product as iproduct

from .config import DEFAULT, Config
from .errors import (AmbientMismatch, CapExceeded, EnumerationUnavailable,
                     FieldMismatch, WorkbenchError)
from .fatpoints import FatPoint, QuotientAlgebra, truncation_compatible
from .fields import Field
from .poly import Ideal, Poly, poly_str, reduce_full, tensor_product

_RESERVED = re.compile(r".*_[0-9]+$")


def reserved_name(v: str) -> bool:
    """Names ending in _<digits> belong to generated arc coordinates."""
    return bool(_RESERVED.match(v))


class AffineScheme:
    def __init__(self, name: str, ideal: Ideal, check_names: bool = False):
        self.name = name
        self.ideal = ideal
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


def _vector_options(m: FatPoint):
    field = m.field
    return [tuple(vec) for vec in iproduct(field.elements(), repeat=m.length)]


def points(x: AffineScheme, m: FatPoint, cfg: Config = DEFAULT):
    """All algebra maps from x's coordinate ring into O_m, as image tuples.

    Backtracking over coordinates with early rejection: an equation is tested
    as soon as every variable it touches has an image. Finite fields only.
    """
    if not x.field.finite:
        raise EnumerationUnavailable("point enumeration needs a finite field")
    if x.field != m.field:
        raise FieldMismatch("scheme and fat point over different fields")
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
    if not x.vars:
        ok = all(alg.is_zero_vec(alg.eval_poly(g, {})) for _, g in eqs)
        return [()] if ok else []
    options = _vector_options(m)
    out = []
    images = {}

    def assign(i):
        if i == n:
            out.append(tuple(images[v] for v in x.vars))
            return
        for vec in options:
            images[x.vars[i]] = vec
            good = True
            for last, g in eqs:
                if last == i and not alg.is_zero_vec(alg.eval_poly(g, images)):
                    good = False
                    break
            if good:
                assign(i + 1)
        images.pop(x.vars[i], None)

    # constant equations (no variables) veto everything up front
    if any(last < 0 and not alg.is_zero_vec(alg.eval_poly(g, {})) for last, g in eqs):
        return []
    assign(0)
    return out


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


def _expansion_ring(x: AffineScheme, m: FatPoint):
    """Variables for the expansion: arc coordinates first, then the point's."""
    arc_vars = tuple(arc_var(v, j) for v in x.vars for j in range(m.length))
    mixed = arc_vars + tuple(m.ideal.vars)
    if len(set(mixed)) != len(mixed):
        raise WorkbenchError("arc coordinate names collide with the point's")
    return arc_vars, mixed


def arc_coefficients(polys, x: AffineScheme, m: FatPoint, cfg: Config = DEFAULT):
    """Expand each polynomial over the point's basis and split off coefficients.

    Returns (arc variable tuple, list of coefficient rows); row s has one
    polynomial (over the arc variables) per standard basis monomial of m.
    """
    if x.field != m.field:
        raise FieldMismatch("scheme and fat point over different fields")
    field = x.field
    arc_vars, mixed = _expansion_ring(x, m)
    alg = m.algebra
    nm = len(m.ideal.vars)
    na = len(arc_vars)
    subs = {}
    for v in x.vars:
        acc = Poly.zero(mixed, field)
        for j, bexp in enumerate(alg.basis_exps):
            e = [0] * len(mixed)
            e[arc_vars.index(arc_var(v, j))] = 1
            for t, k in enumerate(bexp):
                e[na + t] = k
            acc = acc + Poly.monomial(tuple(e), 1, mixed, field)
        subs[v] = acc
    divisors = [g.embed(mixed) for g in m.ideal.basis()]
    rows = []
    for f in polys:
        expanded = f.substitute(subs, vars=mixed, field=field)
        reduced = reduce_full(expanded, divisors) if divisors else expanded
        cells = {j: {} for j in range(m.length)}
        for e, c in reduced.terms.items():
            yexp = tuple(e[na:])
            xexp = tuple(e[:na])
            j = alg.index[yexp]
            cells[j][xexp] = c
        rows.append([Poly(arc_vars, field, cells[j]) for j in range(m.length)])
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
    la_dim = a.length
    mapped = []
    for pt in left:
        images = {}
        for i, v in enumerate(x.vars):
            w = pt[i]
            for j in range(m.length):
                vec = tuple(w[pairs[(u, j)]] for u in range(la_dim))
                images[arc_var(v, j)] = vec
        mapped.append(tuple(images[av] for av in arc.vars))
    ok = (len(mapped) == len(set(mapped)) == len(right)
          and set(mapped) == set(right))
    return {
        "tensor_count": len(left),
        "arc_count": len(right),
        "bijection": ok,
        "tensor_point": am,
    }
