"""Sieves: finite lattice expressions of point conditions inside schemes.

A plain sieve is an ambient scheme plus an expression tree whose leaves are
closed conditions (equations vanish), principal opens (the function is a unit
of the local target algebra), images of morphisms (membership by preimage
enumeration, finite fields only), or the trivial full/empty conditions.
A sieve is listed and counted inside the point search of its ambient
(`schemes.search`): `node_condition` turns the tree into the search's
condition, so a branch is dropped or its free coordinates counted as soon as
the coordinates set so far decide it, and a count builds no point.
`node_member` tests one point already in hand against the same
condition, through the search's whole-point reader, so the tree has one
reading. Pullback along a map and restriction along a fat point rewrite the
tree leaf by leaf through one walk (`rewrite_leaves`); `continuity_probe`
pulls one admissible open back along a map and tests it again.

Simplicial sieves layer a level structure on top, one class per shape:
constant levels, cartesian powers with coordinate deletion/duplication
(multisets in the symmetric shape), levelwise products, disjoint unions,
unions and intersections, and level lists that carry no maps at all (a
level list raises when asked for a face or a degeneracy). A shape
holds plain `Sieve`s, never a separate scheme and condition. Each shape
answers for itself: it builds the points, faces and degeneracies of level n
from its parts, gives the plain `Sieve` presenting level n
(`level_presentation`; a product level is the two sides pulled back along
the projections of `schemes.product_scheme` and intersected), says how many
levels it has (`truncation`) and how big the ambient of level n is
(`dimension(n)`, which a power or a two-sided shape reads off its parts
without presenting the level), restricts itself along a fat point (`arc`),
and names the scheme whose config caps its work (`scheme`).
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product as iproduct
from math import comb

from .errors import AmbientMismatch, CapExceeded, EvalError, WorkbenchError
from .fatpoints import (FatPoint, SimplicialFatPoint, base_point,
                        flat_coordinates)
from .poly import Ideal, Poly, poly_str
from .records import Record
from .schemes import (AffineScheme, CoordMap, _join, _row, _settled,
                      arc_coefficients, arc_of_map, points, product_scheme,
                      search, truncation_map, weil_restrict)

# ---------------------------------------------------------------------------
# expression nodes


class Full(Record):
    __slots__ = ()


class Empty(Record):
    __slots__ = ()


class Closed(Record):
    __slots__ = ("gens",)

    def __init__(self, gens: tuple):
        object.__setattr__(self, "gens", gens)


class OpenLoc(Record):
    __slots__ = ("g",)

    def __init__(self, g: Poly):
        object.__setattr__(self, "g", g)


class Im(Record):
    __slots__ = ("cmap",)

    def __init__(self, cmap: CoordMap):
        object.__setattr__(self, "cmap", cmap)


class Union(Record):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Inter(Record):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


def node_str(node) -> str:
    if isinstance(node, Full):
        return "full"
    if isinstance(node, Empty):
        return "empty"
    if isinstance(node, Closed):
        return "V(%s)" % ", ".join(poly_str(g) for g in node.gens)
    if isinstance(node, OpenLoc):
        return "D(%s)" % poly_str(node.g)
    if isinstance(node, Im):
        return "im(%s)" % node.cmap.source.name
    if isinstance(node, Union):
        return "(%s | %s)" % (node_str(node.left), node_str(node.right))
    if isinstance(node, Inter):
        return "(%s & %s)" % (node_str(node.left), node_str(node.right))
    raise WorkbenchError("unknown node %r" % (node,))


def _image_points(cmap: CoordMap, m: FatPoint):
    """The image of cmap's points at m, cached on m under the source's
    candidate cap, so a tighter cap enumerates again (and raises)."""
    key = ("image", cmap, cmap.source.ideal.cfg.max_candidates)
    got = m.memo.get(key)
    if got is None:
        got = frozenset(cmap.apply_point(m, p) for p in points(cmap.source, m))
        m.memo[key] = got
    return got


def node_condition(node, m: FatPoint, p: int):
    """The condition tree as a condition of `schemes.search` at m, with
    rows read mod p (exactly when p is 0).

    V(g) is the conjunction of g's coefficient rows vanishing; D(g) is its
    residue row (the basis monomial 1) not vanishing, which the search
    decides once the residue coordinates are set; im(f) is membership in
    f's image at m, looked up only when the search reaches a whole point
    the other leaves leave undecided.
    """

    def walk(nd):
        if isinstance(nd, Full):
            return True
        if isinstance(nd, Empty):
            return False
        if isinstance(nd, Closed):
            return _join("and", [_row(row, False, p) for g in nd.gens
                                 for row in m.coefficient_rows(g, p)])
        if isinstance(nd, OpenLoc):
            return _row(m.residue(m.coefficient_rows(nd.g, p)), True, p)
        if isinstance(nd, Im):
            return ("image", lambda point, cmap=nd.cmap: point in _image_points(cmap, m))
        if isinstance(nd, Union):
            return _join("or", [walk(nd.left), walk(nd.right)])
        if isinstance(nd, Inter):
            return _join("and", [walk(nd.left), walk(nd.right)])
        raise WorkbenchError("unknown node %r" % (nd,))

    return walk(node)


def node_member(node, m: FatPoint, point) -> bool:
    """Does one given point (of a face, a degeneracy, a pullback) satisfy
    the condition tree? It is read as `schemes.search` reads it: the
    condition `node_condition` builds, at the whole point. The condition
    is kept on m per tree object, not per equal tree: equal image leaves
    may read sources under different candidate caps."""
    p = m.field.char
    key = ("member", id(node))
    got = m.memo.get(key)
    if got is None:    # the entry holds the tree, so its id stays its own
        got = m.memo[key] = (node, node_condition(node, m, p))
    return _settled(got[1], flat_coordinates(point, m.length), p, tuple(point))


def rewrite_leaves(node, leaf):
    """The tree with each V, D and im leaf replaced by `leaf(nd)`; full and
    empty stay, unions and intersections keep their shape."""
    if isinstance(node, (Full, Empty)):
        return node
    if isinstance(node, (Closed, OpenLoc, Im)):
        return leaf(node)
    if isinstance(node, (Union, Inter)):
        return type(node)(rewrite_leaves(node.left, leaf),
                          rewrite_leaves(node.right, leaf))
    raise WorkbenchError("unknown node %r" % (node,))


def node_pullback(node, f: CoordMap):
    """Leafwise substitution; image leaves become images of fiber products."""

    def leaf(nd):
        if isinstance(nd, Closed):
            return Closed(tuple(f.pullback_poly(g) for g in nd.gens))
        if isinstance(nd, OpenLoc):
            return OpenLoc(f.pullback_poly(nd.g))
        return Im(fiber_product_schemes(f, nd.cmap)[1])

    return rewrite_leaves(node, leaf)


def fiber_product_schemes(f: CoordMap, g: CoordMap):
    """W x_X Z for f: W -> X, g: Z -> X; returns (scheme, to W, to Z)."""
    if f.target != g.target:
        raise AmbientMismatch("fiber product needs a common target")
    prod, to_w, to_z = product_scheme(f.source, g.source)
    fw, gz = f.compose(to_w), g.compose(to_z)
    gens = list(prod.ideal.gens)
    gens += [fw.images[v] - gz.images[v] for v in f.target.vars]
    total = AffineScheme(f.source.name + "x" + g.source.name,
                         Ideal(prod.vars, prod.field, gens, prod.ideal.cfg))
    return (total, CoordMap(total, f.source, to_w.images),
            CoordMap(total, g.source, to_z.images))


# ---------------------------------------------------------------------------
# plain sieves


class Sieve:
    def __init__(self, ambient: AffineScheme, node):
        self.ambient = ambient
        self.node = node

    def member(self, m: FatPoint, point) -> bool:
        return node_member(self.node, m, point)

    def points(self, m: FatPoint):
        return tuple(search(self.ambient, m, lambda p: node_condition(self.node, m, p)))

    def count(self, m: FatPoint) -> int:
        return search(self.ambient, m, lambda p: node_condition(self.node, m, p),
                      count=True)

    def pullback(self, f: CoordMap) -> "Sieve":
        if f.target != self.ambient:
            raise AmbientMismatch("pullback along a morphism into a different ambient")
        return Sieve(f.source, node_pullback(self.node, f))

    def key(self):
        return (self.ambient.presentation_key(), self.node)

    def __repr__(self):
        return "%s on %s" % (node_str(self.node), self.ambient.name)


def full_sieve(x: AffineScheme) -> Sieve:
    return Sieve(x, Full())


def empty_sieve(x: AffineScheme) -> Sieve:
    return Sieve(x, Empty())


def closed_sieve(x: AffineScheme, gens) -> Sieve:
    return Sieve(x, Closed(tuple(gens)))


def open_sieve(x: AffineScheme, g: Poly) -> Sieve:
    return Sieve(x, OpenLoc(g))


def image_sieve(cmap: CoordMap) -> Sieve:
    return Sieve(cmap.target, Im(cmap))


def _same_ambient(a: Sieve, b: Sieve):
    if a.ambient != b.ambient:
        raise AmbientMismatch("lattice operation across different ambients")


def sieve_union(a: Sieve, b: Sieve) -> Sieve:
    _same_ambient(a, b)
    return Sieve(a.ambient, Union(a.node, b.node))


def sieve_inter(a: Sieve, b: Sieve) -> Sieve:
    _same_ambient(a, b)
    return Sieve(a.ambient, Inter(a.node, b.node))


# ---------------------------------------------------------------------------
# admissible opens and the continuity probe


def _open_leaves(node):
    """The functions of a union tree of principal opens, or None when the
    tree holds any other node."""
    if isinstance(node, OpenLoc):
        return [node.g]
    if isinstance(node, Union):
        left, right = _open_leaves(node.left), _open_leaves(node.right)
        if left is not None and right is not None:
            return left + right
    return None


def is_admissible_open(s: Sieve, host: Sieve) -> bool:
    """Syntactic test: host cut with a union of honest principal opens.

    The opens must not degenerate (zero in the ambient coordinate ring),
    otherwise a closed condition is hiding in the open part.
    """
    if s.ambient != host.ambient:
        return False
    nd = s.node
    if not isinstance(nd, Inter):
        return False
    for side, rest in ((nd.left, nd.right), (nd.right, nd.left)):
        opens = _open_leaves(rest) if side == host.node else None
        if opens is not None:
            return all(not s.ambient.ideal.contains(g) for g in opens)
    return False


def continuity_probe(f: CoordMap, m, host: Sieve, adm: Sieve) -> dict:
    """Pull the admissible open `adm` of `host` back along f and re-test
    admissibility. When a finite-field fat point m (else None) is supplied
    the pullback is also checked semantically: a source point lands in the
    pulled sieve exactly when its image lands in the original.
    """
    if not is_admissible_open(adm, host):
        return {"ok": False, "admissible_before": False,
                "admissible_after": False, "semantic": None}
    pulled = adm.pullback(f)
    after = is_admissible_open(pulled, host.pullback(f))
    semantic = None
    if m is not None and f.source.field.finite:
        semantic = all(pulled.member(m, p) == adm.member(m, f.apply_point(m, p))
                       for p in points(f.source, m))
    return {"ok": after and semantic is not False, "admissible_before": True,
            "admissible_after": after, "semantic": semantic}


# ---------------------------------------------------------------------------
# arcs of sieves


def arc_node(node, x: AffineScheme, m: FatPoint):
    """Rewrite a condition on x into one on the restriction of x along m."""

    def leaf(nd):
        if isinstance(nd, Closed):
            if not nd.gens:
                return Full()
            _, rows = arc_coefficients(list(nd.gens), x, m)
            return Closed(tuple(c for row in rows for c in row if not c.is_zero()))
        if isinstance(nd, OpenLoc):
            # a Weil-restricted unit test: the residue coefficient must be a unit
            _, rows = arc_coefficients([nd.g], x, m)
            return OpenLoc(rows[0][0])
        return Im(arc_of_map(nd.cmap, m))

    return rewrite_leaves(node, leaf)


def arc_plain_sieve(s: Sieve, m: FatPoint) -> Sieve:
    arc = weil_restrict(s.ambient, m)
    return Sieve(arc, arc_node(s.node, s.ambient, m))


# ---------------------------------------------------------------------------
# simplicial sieves


class SimplicialSieve:
    """A levelwise subfunctor, one class per shape, built from plain sieves.

    Each shape builds `level_points(m, n)` from its parts and returns the
    points sorted. `member` tests one point, `face(n, i, p)` and
    `degeneracy(n, i, p)` are the structure maps (a level list has none:
    asking it for one raises `EvalError`), `key` names the sieve, and
    `ambient_key` names the levels it cuts, which the two sides of a union
    or an intersection must share.
    `level_presentation(n)` is the plain `Sieve` presenting level n, or
    None when the level has no single affine presentation; `truncation` is
    the last level the shape stands for (its scheme's skeletal level unless
    the shape says otherwise); `dimension(n)` is the Krull dimension of the
    ambient of level n; `arc(m)` is the same shape restricted along m;
    `scheme` is the defining affine scheme, whose config caps the work on
    the sieve.
    """

    @property
    def truncation(self) -> int:
        return self.scheme.ideal.cfg.skeletal_level

    def dimension(self, n) -> int:
        return self.level_presentation(n).ambient.ideal.krull_dimension()

    def count(self, m, n) -> int:
        return len(self.level_points(m, n))


class ConstSieve(SimplicialSieve):
    """Every level is the plain sieve; faces and degeneracies are identities."""

    def __init__(self, base: Sieve):
        self.base = base

    @property
    def scheme(self):
        return self.base.ambient

    def level_presentation(self, n):
        return self.base

    def arc(self, m):
        return ConstSieve(arc_plain_sieve(self.base, m))

    def level_points(self, m, n):
        return self.base.points(m)

    def count(self, m, n) -> int:
        return self.base.count(m)

    def member(self, m, n, point):
        return self.base.member(m, point)

    def face(self, n, i, p):
        return p

    def degeneracy(self, n, i, p):
        return p

    def key(self):
        return ("const",) + self.base.key()

    def ambient_key(self):
        return ("const", self.scheme.presentation_key())


class PowerSieve(SimplicialSieve):
    """Level n is the (n+1)-fold power of the plain sieve's points; the
    symmetric shape keeps sorted orbit representatives (multisets)."""

    def __init__(self, base: Sieve, symmetric: bool = False):
        self.base = base
        self.symmetric = symmetric

    @property
    def scheme(self):
        return self.base.ambient

    def level_points(self, m, n):
        base = self.base.points(m)
        size = comb(len(base) + n, n + 1) if self.symmetric else len(base) ** (n + 1)
        if size > self.scheme.ideal.cfg.max_candidates:
            raise CapExceeded("power level too large to enumerate")
        if self.symmetric:
            return tuple(combinations_with_replacement(base, n + 1))
        return tuple(iproduct(base, repeat=n + 1))

    def member(self, m, n, point):
        return all(self.base.member(m, p) for p in point)

    def face(self, n, i, p):
        return p[:i] + p[i + 1:]

    def degeneracy(self, n, i, p):
        out = p[:i + 1] + (p[i],) + p[i + 1:]
        return tuple(sorted(out)) if self.symmetric else out

    def dimension(self, n) -> int:
        return (n + 1) * self.scheme.ideal.krull_dimension()

    def level_presentation(self, n):
        """The (n+1)-fold product of the base; multisets have none."""
        if self.symmetric:
            return None
        out = self.base
        for _ in range(n):
            out = _level_product(out, self.base)
        return out

    def arc(self, m):
        return PowerSieve(arc_plain_sieve(self.base, m), self.symmetric)

    def key(self):
        return ("pow",) + self.base.key() + (self.symmetric,)

    def ambient_key(self):
        return ("pow", self.scheme.presentation_key(), self.symmetric)


def _level_product(a: Sieve, b: Sieve) -> Sieve:
    """The product of two level presentations: each is pulled back along its
    projection, so image leaves become images of fiber products."""
    prod, pa, pb = product_scheme(a.ambient, b.ambient)
    return sieve_inter(a.pullback(pa), b.pullback(pb))


class _Pair(SimplicialSieve):
    """A shape made of two sieves; `tag` names it in both keys, and `join`
    makes its level presentation from its sides' (a shape with no join
    presents nothing)."""

    tag = ""
    join = None

    def __init__(self, left: SimplicialSieve, right: SimplicialSieve):
        self.left = left
        self.right = right

    @property
    def scheme(self):
        return self.left.scheme

    @property
    def truncation(self) -> int:
        return min(self.left.truncation, self.right.truncation)

    def level_presentation(self, n):
        if self.join is None:
            return None
        lp = self.left.level_presentation(n)
        rp = self.right.level_presentation(n)
        if lp is None or rp is None:
            return None
        return self.join(lp, rp)

    def arc(self, m):
        return type(self)(self.left.arc(m), self.right.arc(m))

    def key(self):
        return (self.tag, self.left.key(), self.right.key())

    def ambient_key(self):
        return (self.tag, self.left.ambient_key(), self.right.ambient_key())


class ProductSieve(_Pair):
    """Level n is the pairs of the two sides' level-n points."""

    tag = "prod"
    join = staticmethod(_level_product)

    def dimension(self, n) -> int:
        return self.left.dimension(n) + self.right.dimension(n)

    def level_points(self, m, n):
        ls = self.left.level_points(m, n)
        rs = self.right.level_points(m, n)
        if len(ls) * len(rs) > self.scheme.ideal.cfg.max_candidates:
            raise CapExceeded("product level too large to enumerate")
        return tuple(iproduct(ls, rs))

    def member(self, m, n, point):
        return (self.left.member(m, n, point[0])
                and self.right.member(m, n, point[1]))

    def face(self, n, i, p):
        return (self.left.face(n, i, p[0]), self.right.face(n, i, p[1]))

    def degeneracy(self, n, i, p):
        return (self.left.degeneracy(n, i, p[0]), self.right.degeneracy(n, i, p[1]))


class DisjointSieve(_Pair):
    """Level n is the left side's points tagged "L", then the right's tagged
    "R"; tagged points of two schemes have no single presentation."""

    tag = "disj"

    def _side(self, tag):
        return self.left if tag == "L" else self.right

    def dimension(self, n) -> int:
        return max(self.left.dimension(n), self.right.dimension(n))

    def level_points(self, m, n):
        return tuple([("L", p) for p in self.left.level_points(m, n)]
                     + [("R", p) for p in self.right.level_points(m, n)])

    def member(self, m, n, point):
        tag, q = point
        return self._side(tag).member(m, n, q)

    def face(self, n, i, p):
        tag, q = p
        return (tag, self._side(tag).face(n, i, q))

    def degeneracy(self, n, i, p):
        tag, q = p
        return (tag, self._side(tag).degeneracy(n, i, q))


class _Lattice(_Pair):
    """Union and intersection: two sieves cutting the same levels, whose
    structure maps are the left side's."""

    word = ""

    def __init__(self, left: SimplicialSieve, right: SimplicialSieve):
        if left.ambient_key() != right.ambient_key():
            raise AmbientMismatch("simplicial %s across different ambients" % self.word)
        super().__init__(left, right)

    def dimension(self, n) -> int:
        return self.left.dimension(n)

    def face(self, n, i, p):
        return self.left.face(n, i, p)

    def degeneracy(self, n, i, p):
        return self.left.degeneracy(n, i, p)

    def ambient_key(self):
        return self.left.ambient_key()


class UnionSieve(_Lattice):
    tag, word, join = "union", "union", staticmethod(sieve_union)

    def level_points(self, m, n):
        both = set(self.left.level_points(m, n))
        both.update(self.right.level_points(m, n))
        return tuple(sorted(both))

    def member(self, m, n, point):
        return self.left.member(m, n, point) or self.right.member(m, n, point)


class InterSieve(_Lattice):
    tag, word, join = "inter", "intersection", staticmethod(sieve_inter)

    def level_points(self, m, n):
        return tuple(p for p in self.left.level_points(m, n)
                     if self.right.member(m, n, p))

    def member(self, m, n, point):
        return self.left.member(m, n, point) and self.right.member(m, n, point)


class LevelSieve(SimplicialSieve):
    """Explicit per-level plain sieves, with the structure maps forgotten."""

    def __init__(self, levels):
        self.levels = tuple(levels)

    @property
    def truncation(self) -> int:
        return len(self.levels) - 1

    @property
    def scheme(self):
        return self.levels[0].ambient

    def level_presentation(self, n):
        if n > self.truncation:
            raise CapExceeded("level %d beyond materialized truncation %d"
                              % (n, self.truncation))
        return self.levels[n]

    def level_points(self, m, n):
        return self.level_presentation(n).points(m)

    def count(self, m, n) -> int:
        return self.level_presentation(n).count(m)

    def member(self, m, n, point):
        return self.level_presentation(n).member(m, point)

    def face(self, n, i, p):
        raise EvalError("indexed family carries no structure maps")

    degeneracy = face

    def arc(self, m):
        raise WorkbenchError("indexed family carries no arc transform")

    def key(self):
        return ("levels", self.ambient_key(), tuple(s.node for s in self.levels))

    def ambient_key(self):
        return ("idx", tuple(s.ambient.presentation_key() for s in self.levels))


def simplicial_full(x: AffineScheme) -> ConstSieve:
    return ConstSieve(full_sieve(x))


def as_simplicial(s) -> SimplicialSieve:
    """A scheme as its full constant shape, a plain sieve as its constant
    shape; a simplicial sieve as it is."""
    if isinstance(s, AffineScheme):
        return simplicial_full(s)
    if isinstance(s, Sieve):
        return ConstSieve(s)
    return s


def lift_sieve(s: Sieve, tag: str) -> SimplicialSieve:
    """Apply a level shape to a plain sieve: constant, power, or orbit power."""
    if tag == "trivial":
        return ConstSieve(s)
    if tag == "fiber":
        return PowerSieve(s)
    if tag == "sym":
        return PowerSieve(s, symmetric=True)
    raise WorkbenchError("unknown shape tag %r" % tag)


def presented_levels(s: SimplicialSieve):
    """The plain sieves presenting levels 0..s.truncation."""
    out = []
    for n in range(s.truncation + 1):
        pres = s.level_presentation(n)
        if pres is None:
            raise EvalError("no affine presentation at level %d" % n)
        out.append(pres)
    return out


# ---------------------------------------------------------------------------
# arcs of simplicial sieves


def simplicial_arc(s, sfp: SimplicialFatPoint):
    """Levelwise restriction along a simplicial fat point.

    The constant shape keeps the full simplicial structure. The power shape
    (varying fat point per level) yields an indexed family: the level schemes
    are materialized but the structure maps are forgotten.
    """
    s = as_simplicial(s)
    if sfp.tag == "trivial":
        return s.arc(sfp.base)
    if sfp.tag == "sym":
        raise WorkbenchError("symmetric shape carries no ambient algebra for arcs")
    if not isinstance(s, ConstSieve):
        raise WorkbenchError("power-shaped restriction needs a constant base")
    return LevelSieve([arc_plain_sieve(s.base, sfp.level(n))
                       for n in range(sfp.truncation + 1)])


# ---------------------------------------------------------------------------
# limit sieves


class LimitSieve:
    """A family of sieves living inside the arcs of a base, one per member."""

    def __init__(self, base, system, rule=None):
        self.base = as_simplicial(base)
        self.system = system
        self.rule = rule  # FatPoint -> sieve over the arc ambient

    def member_at(self, m: FatPoint) -> SimplicialSieve:
        if self.rule is None:
            return self.base.arc(m)
        return as_simplicial(self.rule(m))

    def battery_validate(self, horizon: int) -> dict:
        """Finite-field checks on the family: each member sits inside the
        arcs of the base at levels 0 and 1, and consecutive members are
        compatible with the truncation projections between arc ambients.
        Arc ambients live over the ground field, so enumeration happens at
        the ground point; over the rationals only the presentational checks
        run. A check that cannot run is listed under "skipped" with its
        error."""
        ms = self.system.materialize(horizon)
        base0 = self.base.scheme
        field = base0.field
        finite = field.finite
        k0 = base_point(field)
        issues = []
        skipped = []
        for idx, m in enumerate(ms):
            inside = self.member_at(m)
            hull = self.base.arc(m)
            p_in = inside.level_presentation(0)
            p_hull = hull.level_presentation(0)
            if (p_in is not None and p_hull is not None
                    and p_in.ambient != p_hull.ambient):
                issues.append("member %d lives off the arc ambient" % idx)
                continue
            if finite:
                for n in (0, 1):
                    try:
                        got = set(inside.level_points(k0, n))
                        big = set(hull.level_points(k0, n))
                    except WorkbenchError as exc:
                        skipped.append("member %d level %d: %s" % (idx, n, exc))
                        continue
                    if not got <= big:
                        issues.append("member %d escapes the base arcs at level %d"
                                      % (idx, n))
        if finite:
            for idx in range(len(ms) - 1):
                small, big = ms[idx], ms[idx + 1]
                try:
                    tr = truncation_map(base0, big, small)
                except WorkbenchError as exc:
                    skipped.append("members %d-%d: %s" % (idx, idx + 1, exc))
                    continue
                small_sieve = self.member_at(small)
                big_sieve = self.member_at(big)
                for p in big_sieve.level_points(k0, 0):
                    q = tr.apply_point(k0, p)
                    if not small_sieve.member(k0, 0, q):
                        issues.append("member %d image escapes member %d"
                                      % (idx + 1, idx))
                        break
        return {"ok": not issues, "issues": issues, "skipped": skipped}

