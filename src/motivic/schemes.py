"""Affine schemes of finite type, their points over fat points, and arcs.

The arc construction is a Weil restriction: coordinates are expanded over the
standard-monomial basis of the fat point, and one equation is read off per
(generator, basis monomial) pair. `search` is the one point search over a
finite field: it sets the same coefficients one base-field coordinate at a
time, and lists or counts the points that meet the generators and an
optional condition, which is how sieves are listed and counted (the
condition is a sieve's leaves, built by `sieves.node_condition` from
`_row`s, image tests and `_join`s). The same condition, read at one whole
point by `_settled`, is how `sieves.node_member` tests a point in hand. The
search lives here, beside the coefficient rows it reads, and takes the
condition as plain rows and predicates, so this module needs nothing from
`sieves`.
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
    """An "and" or "or" of conditions, with decided ones folded in
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


def _row(body, unit: bool, p: int):
    """The condition that a coefficient row vanishes (or, with unit, does
    not), as ("row", position, body, unit), where position is the
    coordinate that completes the row; a constant row is decided here."""
    last = max((mono[-1][0] if mono else -1 for _, mono in body), default=-1)
    row = ("row", last, body, unit)
    return _settled(row, (), p, None) if last < 0 else row


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


def _reads_image(cond) -> bool:
    """Does cond hold an image test?"""
    if cond is True or cond[0] == "row":
        return False
    return cond[0] == "image" or any(_reads_image(c) for c in cond[1])


def _affine(body, split: int):
    """A row read as affine in the coordinates from `split` on: its
    constant part, and (column, coefficient row) pairs with columns counted
    from split. A monomial holds at most one tail coordinate, to the first
    power, and positions increase, so it is the monomial's last."""
    const, cols = [], {}
    for c, mono in body:
        if mono and mono[-1][0] >= split:
            cols.setdefault(mono[-1][0] - split, []).append((c, mono[:-1]))
        else:
            const.append((c, mono))
    return const, tuple(cols.items())


def _tail_count(tail, vals, p: int, width: int) -> int:
    """The solutions mod p of the affine rows `tail` (made by `_affine`)
    in `width` tail coordinates, with the head read at `vals`: p^(width -
    rank) when they are consistent, else 0. Rows are brought to echelon
    form one at a time; pivots[c] has a 1 at column c and zeros before it."""
    pivots = {}
    for const, cols in tail:
        r = [0] * width + [row_value(const, vals) % p]
        for col, sub in cols:
            r[col] = row_value(sub, vals) % p
        for c in range(width):
            a = r[c]
            if a:
                piv = pivots.get(c)
                if piv is None:
                    inv = pow(a, p - 2, p)
                    pivots[c] = [x * inv % p for x in r]
                    break
                r = [(x - a * y) % p for x, y in zip(r, piv)]
        else:
            if r[width]:
                return 0
    return p ** (width - len(pivots))


def _settled(cond, vals, p: int, point) -> bool:
    """A condition read left to right and only as far as the answer
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
    Each generator becomes one coefficient row per basis monomial, read
    as a function on F_p-points, where v^p = v keeps every exponent below p
    (`QuotientAlgebra.coefficient_rows(g, p)`, cached on m). The search
    sets the n*len coordinates one at a time in basis order x_0, y_0, x_1,
    y_1, ..., and tests each row, mod p, as soon as its last coordinate is
    set, so a partial jet is dropped at the first equation it breaks.

    `condition`, when given, is called with p once the search is known to
    run (finite field, same field, candidates within x's cap) and returns a
    condition in the one form the search reads: True, False, a row made by
    `_row`, ("image", test) for a predicate on the whole point, or an "and"
    / "or" of conditions made by `_join`. The rows of its top-level
    conjunction join the generators' rows; every other part is read
    three-valued on the partial assignment, as each row is completed.
    A branch decided false is dropped; once the condition holds and no row
    is left, the remaining coordinates are free. Image tests are read only
    at a whole point that the rows leave undecided.

    The linear tail: at a monomial point, the coordinates of the basis
    monomials from `m.tail_start` on (those of degree > D//2, for D the
    largest standard degree) enter every row affinely, since a product of
    two of them is zero; they are a suffix of the positions. In count mode,
    when the point has such a tail of two or more monomials and the
    condition holds no image test, the search stops at the first tail
    position if every part of the condition other than the top-level rows
    is decided there (open leaves, unions): each row left is affine in the
    tail, with its constant and coefficients read from the head at `vals`,
    and one elimination mod p adds p^(tail - rank) when the rows are
    consistent, and 0 otherwise. Anything else, list mode included,
    enumerates the tail.

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
    extra = True if condition is None else condition(p)
    cond = _join("and", [_row(row, False, p) for g in x.ideal.gens
                         for row in m.coefficient_rows(g, p)] + [extra])
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
    last = max((s for s in range(size) if due[s]), default=-1) + 1
    # ... and from the first tail position on, its rows are solved
    free = split = last
    if (count and m.tail_start is not None and m.tail_start * n < last
            and not _reads_image(cond)):
        free = split = m.tail_start * n
        linear = [_affine(row, split) for s in range(split, size) for row in due[s]]
    vals = [0] * size
    found = []
    tally = 0

    def assign(s, cond):
        nonlocal tally
        if cond is True and s >= free:
            if s >= last:
                if count:
                    tally += p ** (size - s)
                else:
                    head = vals[:s]
                    for tail in iproduct(range(p), repeat=size - s):
                        found.append(point_of(head + list(tail), n))
                return
            if s == split:
                tally += _tail_count(linear, vals, p, size - s)
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
