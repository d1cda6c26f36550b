"""Affine schemes of finite type, their points over fat points, and arcs.

The arc construction is a Weil restriction: coordinates are expanded over the
standard-monomial basis of the fat point, and one equation is read off per
(generator, basis monomial) pair. `search` is the one point search over a
finite field: it sets the same coefficients one base-field coordinate at a
time, and lists or counts the points that meet the generators and an
optional condition, which is how sieves are listed and counted (the
condition is a sieve's leaves, compiled by `sieves.node_condition`). The
same compiled condition, read at one whole point by `_settled`, is how
`sieves.node_member` tests a point in hand. The search lives here, beside
the coefficient rows it reads, and takes the condition as plain rows and
predicates, so this module needs nothing from `sieves`.
"""

from __future__ import annotations

from itertools import product as iproduct
from operator import itemgetter

from .config import DEFAULT, Config
from .errors import AmbientMismatch, CapExceeded, FieldMismatch, WorkbenchError
from .fatpoints import FatPoint, point_of, row_value, truncation_compatible
from .fields import Field
from .poly import Ideal, Poly, tensor_product

class AffineScheme:
    def __init__(self, name: str, ideal: Ideal):
        self.name = name
        self.ideal = ideal
        # least-recently-used memos of kring, neither part of equality or
        # hashing: the canonical symbols of conjunctions on this ambient
        # (class_of_sieve), and the ideals of presentations derived from it,
        # each with its reduced basis made under this ambient's config
        self.memo = {}
        self.ideals = {}

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


def affine_space(field: Field, names, name: str = "", cfg: Config = DEFAULT) -> AffineScheme:
    return AffineScheme(name or "A^%d" % len(tuple(names)),
                        Ideal(tuple(names), field, [], cfg))


def product_scheme(a: AffineScheme, b: AffineScheme) -> tuple:
    """(product, projection to a, projection to b); b's names dodge a's."""
    ideal, lmap, rmap = tensor_product(a.ideal, b.ideal)
    prod = AffineScheme(a.name + "*" + b.name, ideal)

    def projection(x, names):
        return CoordMap(prod, x, {v: Poly.variable(names[v], prod.vars, prod.field)
                                  for v in x.vars})

    return prod, projection(a, lmap), projection(b, rmap)


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
        return p.substitute(self.images, vars=self.source.vars, field=self.source.field)

    def apply_point(self, m: FatPoint, point):
        src = dict(zip(self.source.vars, point))
        return tuple(m.eval_poly(self.images[v], src) for v in self.target.vars)

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


# -- the point search ---------------------------------------------------------


def _join(tag, conds):
    """An "and" or "or" of compiled conditions, with decided ones folded in
    and nested ones of the same tag flattened."""
    absorb = tag == "or"    # True decides an "or", False an "and"
    neutral = not absorb
    kept = []
    for c in conds:
        if c is absorb:
            return absorb
        if c is not neutral:
            kept.extend(c[1] if c[0] == tag else (c,))
    if not kept:
        return neutral
    return kept[0] if len(kept) == 1 else (tag, tuple(kept))


def _compiled(cond, p: int):
    """A condition with each row as ("row", position, row, unit), where
    position is the coordinate that completes the row; constant rows are
    decided here, image tests never."""
    if cond is True or cond is False or cond[0] == "image":
        return cond
    tag, body = cond
    if tag in ("zero", "unit"):
        unit = tag == "unit"
        last = max((mono[-1][0] if mono else -1 for _, mono in body), default=-1)
        row = ("row", last, body, unit)
        return _settled(row, (), p, None) if last < 0 else row
    return _join(tag, [_compiled(c, p) for c in body])


def _decide(cond, s: int, vals, p: int):
    """cond with the rows that coordinate s completes read at `vals`."""
    tag = cond[0]
    if tag == "row":
        return _settled(cond, vals, p, None) if cond[1] == s else cond
    if tag == "image":
        return cond
    return _join(tag, [_decide(c, s, vals, p) for c in cond[1]])


def _positions(cond, out):
    """Mark in `out` every coordinate that completes a row of cond."""
    if cond is True or cond[0] == "image":
        return
    if cond[0] == "row":
        out[cond[1]] = True
        return
    for c in cond[1]:
        _positions(c, out)


def _settled(cond, vals, p: int, point) -> bool:
    """A compiled condition read left to right and only as far as the answer
    needs: rows at the flat coordinates `vals`, as far as they are set, mod
    p (exactly over Q, where p is 0), and image tests at the whole `point`."""
    if cond is True or cond is False:
        return cond
    tag = cond[0]
    if tag == "row":
        v = row_value(cond[2], vals)
        return bool(v % p if p else v) == cond[3]
    if tag == "image":
        return cond[1](point)
    if tag == "and":
        return all(_settled(c, vals, p, point) for c in cond[1])
    return any(_settled(c, vals, p, point) for c in cond[1])


def search(x: AffineScheme, m: FatPoint, condition=None, count: bool = False):
    """The one point search: the points of x at m that meet a condition.

    A point is a tuple of base-field coordinates, the coefficients of each
    variable's image over m's standard basis (the restriction adjunction).
    Each generator becomes one coefficient row per basis monomial
    (`QuotientAlgebra.coefficient_rows`, cached on m). The search
    sets the n*len coordinates one at a time in basis order x_0, y_0, x_1,
    y_1, ..., and tests each row, mod p, as soon as its last coordinate is
    set, so a partial jet is dropped at the first equation it breaks.

    `condition`, when given, is called once the search is known to run
    (finite field, same field, candidates within x's cap) and returns a
    condition: True, False, ("zero", row) or ("unit", row) for a row that
    vanishes or does not, ("image", test) for a predicate on the whole
    point, or ("and", conditions) / ("or", conditions). The rows of its
    top-level conjunction join the generators' rows; every other part is
    read three-valued on the partial assignment, as each row is completed.
    A branch decided false is dropped; once the condition holds and no row
    is left, the remaining coordinates are free. Image tests are read only
    at a whole point that the rows leave undecided.

    Returns the points sorted, each a tuple of coefficient vectors, one per
    variable, or with count=True their number, without building them.
    """
    p = x.field.order
    if x.field != m.field:
        raise FieldMismatch("scheme and fat point over different fields")
    n = len(x.vars)
    size = n * m.length
    total = p ** size
    cap = x.ideal.cfg.max_candidates
    if total > cap:
        raise CapExceeded("enumeration of %d candidates exceeds cap %d"
                          % (total, cap))
    eqs = tuple(("zero", row) for g in x.ideal.gens
                for row in m.coefficient_rows(g))
    extra = True if condition is None else condition()
    cond = _compiled(("and", eqs + (extra,)), p)
    if cond is False:                    # a nonzero constant vetoes everything
        return 0 if count else []
    due = [[] for _ in range(size)]      # rows by the coordinate that completes them
    seen = set()
    rest = []
    for c in (cond[1] if cond is not True and cond[0] == "and" else (cond,)):
        if c is not True and c[0] == "row" and not c[3]:
            if c[2] not in seen:
                seen.add(c[2])
                due[c[1]].append(c[2])
        else:
            rest.append(c)
    cond = _join("and", rest)
    pending = [False] * size
    _positions(cond, pending)
    # past the last row of the top-level conjunction, a decided branch is free
    free = max((s for s in range(size) if due[s]), default=-1) + 1
    vals = [0] * size
    found = []
    tally = 0

    def assign(s, cond):
        nonlocal tally
        if cond is True and s >= free:
            if count:
                tally += p ** (size - s)
            else:
                head = vals[:s]
                for tail in iproduct(range(p), repeat=size - s):
                    found.append(point_of(head + list(tail), n))
            return
        if s == size:
            if _settled(cond, vals, p, point_of(vals, n)):
                if count:
                    tally += 1
                else:
                    found.append(point_of(vals, n))
            return
        rows = due[s]
        check = pending[s] and cond is not True
        for v in range(p):
            vals[s] = v
            for row in rows:
                if row_value(row, vals) % p:
                    break
            else:
                now = _decide(cond, s, vals, p) if check else cond
                if now is not False:
                    assign(s + 1, now)

    assign(0, cond)
    if count:
        return tally
    found.sort()
    return found


def points(x: AffineScheme, m: FatPoint):
    """All algebra maps from x's coordinate ring into O_m, as image tuples,
    sorted (`search` in list mode). Finite fields only; the candidate cap is
    x's own."""
    return search(x, m)


def count_points(x: AffineScheme, m: FatPoint) -> int:
    """The number of points of x at m (`search` in count mode), under the
    same field check and candidate cap as `points`."""
    return search(x, m, count=True)


# -- Weil restriction ---------------------------------------------------------


def arc_var(v: str, j: int) -> str:
    return "%s_%d" % (v, j)


def arc_coefficients(polys, x: AffineScheme, m: FatPoint):
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

    rows = [[named(row) for row in m.coefficient_rows(f)] for f in polys]
    return arc_vars, rows


def weil_restrict(x: AffineScheme, m: FatPoint) -> AffineScheme:
    """One equation per (generator, basis monomial), zero rows pruned.

    The restriction keeps x's config, so its caps are x's.
    """
    arc_vars, rows = arc_coefficients(x.ideal.gens, x, m)
    gens = [c for row in rows for c in row if not c.is_zero()]
    return AffineScheme("arc(%s@%s)" % (x.name, m.name or repr(m)),
                        Ideal(arc_vars, x.field, gens, x.ideal.cfg))


def arc_of_map(f: CoordMap, m: FatPoint) -> CoordMap:
    """Restriction applied to a morphism: coefficients of the pushed coordinates."""
    src = weil_restrict(f.source, m)
    tgt = weil_restrict(f.target, m)
    order = [f.images[v] for v in f.target.vars]
    _, rows = arc_coefficients(order, f.source, m)
    images = {}
    for vi, v in enumerate(f.target.vars):
        for j in range(m.length):
            images[arc_var(v, j)] = rows[vi][j]
    return CoordMap(src, tgt, images)


# -- truncation ---------------------------------------------------------------


def truncation_map(x: AffineScheme, big: FatPoint, small: FatPoint) -> CoordMap:
    """The linear projection between arcs induced by a closed subpoint.

    `small` must present a closed subpoint of `big` (same coordinates, larger
    ideal); each big basis monomial is re-expanded in the small algebra.
    """
    if not truncation_compatible(small, big):
        raise AmbientMismatch("second point is not a closed subpoint of the first")
    src = weil_restrict(x, big)
    tgt = weil_restrict(x, small)
    rows = [small.nf_vector(b) for b in big.basis]
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
    for idx, e in enumerate(am.basis_exps):
        u, v = tuple(e[:la]), tuple(e[la:])
        pairs[(a.index[u], m.index[v])] = idx
    return pairs


def adjunction_check(x: AffineScheme, m: FatPoint, a: FatPoint) -> dict:
    """Compare maps out of the tensor point with points of the restriction.

    The rearrangement sends the coefficient at (a-basis u, m-basis v) of
    coordinate x_i to the coefficient at u of arc coordinate (x_i, v); the
    verdict requires it to be a bijection onto the enumerated arc points.
    """
    from .fatpoints import tensor_points
    am = tensor_points(a, m)
    left = points(x, am)
    arc = weil_restrict(x, m)
    right = points(arc, a)
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
