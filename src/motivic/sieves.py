"""Sieves: finite lattice expressions of point conditions inside schemes.

A plain sieve is an ambient scheme plus an expression tree whose leaves are
closed conditions (equations vanish), principal opens (the function is a unit
of the local target algebra), images of morphisms (membership by preimage
enumeration, finite fields only), or the trivial full/empty conditions.

Simplicial sieves layer a level structure on top: constant levels, cartesian
powers with coordinate deletion/duplication (orbit-counted in the symmetric
shape), levelwise products and disjoint unions, explicit level lists with
coordinate face maps, and indexed families that carry no maps at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product as iproduct

from .config import DEFAULT, Config
from .errors import AmbientMismatch, CapExceeded, WorkbenchError
from .fatpoints import FatPoint, SimplicialFatPoint, base_point
from .poly import Ideal, Poly, poly_str
from .schemes import (AffineScheme, CoordMap, arc_coefficients, arc_of_map,
                      identity_map, points, product_scheme, truncation_map,
                      weil_restrict)

# ---------------------------------------------------------------------------
# expression nodes


@dataclass(frozen=True)
class Full:
    pass


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class Closed:
    gens: tuple


@dataclass(frozen=True)
class OpenLoc:
    g: Poly


@dataclass(frozen=True)
class Im:
    cmap: CoordMap


@dataclass(frozen=True)
class Union:
    left: object
    right: object


@dataclass(frozen=True)
class Inter:
    left: object
    right: object


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


_image_cache: dict = {}


def _image_points(cmap: CoordMap, m: FatPoint, cfg: Config):
    key = (cmap, m)
    got = _image_cache.get(key)
    if got is None:
        alg = m.algebra
        src = points(cmap.source, m, cfg)
        got = frozenset(cmap.apply_point(alg, p) for p in src)
        _image_cache[key] = got
    return got


def node_member(node, ambient: AffineScheme, m: FatPoint, point,
                cfg: Config = DEFAULT) -> bool:
    alg = m.algebra
    images = dict(zip(ambient.vars, point))

    def walk(nd) -> bool:
        if isinstance(nd, Full):
            return True
        if isinstance(nd, Empty):
            return False
        if isinstance(nd, Closed):
            return all(alg.is_zero_vec(alg.eval_poly(g, images)) for g in nd.gens)
        if isinstance(nd, OpenLoc):
            return alg.is_unit(alg.eval_poly(nd.g, images))
        if isinstance(nd, Im):
            return tuple(point) in _image_points(nd.cmap, m, cfg)
        if isinstance(nd, Union):
            return walk(nd.left) or walk(nd.right)
        if isinstance(nd, Inter):
            return walk(nd.left) and walk(nd.right)
        raise WorkbenchError("unknown node %r" % (nd,))

    return walk(node)


def node_pullback(node, f: CoordMap, cfg: Config = DEFAULT):
    """Leafwise substitution; image leaves become images of fiber products."""
    if isinstance(node, (Full, Empty)):
        return node
    if isinstance(node, Closed):
        return Closed(tuple(f.pullback_poly(g) for g in node.gens))
    if isinstance(node, OpenLoc):
        return OpenLoc(f.pullback_poly(node.g))
    if isinstance(node, Im):
        fp, pr, _ = fiber_product_schemes(f, node.cmap, cfg)
        return Im(pr)
    if isinstance(node, Union):
        return Union(node_pullback(node.left, f, cfg), node_pullback(node.right, f, cfg))
    if isinstance(node, Inter):
        return Inter(node_pullback(node.left, f, cfg), node_pullback(node.right, f, cfg))
    raise WorkbenchError("unknown node %r" % (node,))


def fiber_product_schemes(f: CoordMap, g: CoordMap, cfg: Config = DEFAULT):
    """W x_X Z for f: W -> X, g: Z -> X; returns (scheme, to W, to Z)."""
    if f.target.presentation_key() != g.target.presentation_key():
        raise AmbientMismatch("fiber product needs a common target")
    prod, lmap, rmap = product_scheme(f.source, g.source)
    field = f.source.field
    gens = list(prod.ideal.gens)
    for v in f.target.vars:
        a = f.images[v].rename(lmap).embed(prod.vars)
        b = g.images[v].rename(rmap).embed(prod.vars)
        gens.append(a - b)
    total = AffineScheme(f.source.name + "x" + g.source.name,
                         Ideal(prod.vars, field, gens, cfg))
    to_w = CoordMap(total, f.source,
                    {v: Poly.variable(lmap[v], total.vars, field) for v in f.source.vars})
    to_z = CoordMap(total, g.source,
                    {v: Poly.variable(rmap[v], total.vars, field) for v in g.source.vars})
    return total, to_w, to_z


# ---------------------------------------------------------------------------
# plain sieves


class Sieve:
    def __init__(self, ambient: AffineScheme, node):
        self.ambient = ambient
        self.node = node

    def member(self, m: FatPoint, point, cfg: Config = DEFAULT) -> bool:
        return node_member(self.node, self.ambient, m, point, cfg)

    def points(self, m: FatPoint, cfg: Config = DEFAULT):
        base = points(self.ambient, m, cfg)
        return tuple(p for p in sorted(base) if self.member(m, p, cfg))

    def count(self, m: FatPoint, cfg: Config = DEFAULT) -> int:
        return len(self.points(m, cfg))

    def pullback(self, f: CoordMap, cfg: Config = DEFAULT) -> "Sieve":
        if f.target.presentation_key() != self.ambient.presentation_key():
            raise AmbientMismatch("pullback along a morphism into a different ambient")
        return Sieve(f.source, node_pullback(self.node, f, cfg))

    def key(self):
        return (self.ambient.presentation_key(), self.node)

    def __eq__(self, other):
        return isinstance(other, Sieve) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

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
    if a.ambient.presentation_key() != b.ambient.presentation_key():
        raise AmbientMismatch("lattice operation across different ambients")


def sieve_union(a: Sieve, b: Sieve) -> Sieve:
    _same_ambient(a, b)
    return Sieve(a.ambient, Union(a.node, b.node))


def sieve_inter(a: Sieve, b: Sieve) -> Sieve:
    _same_ambient(a, b)
    return Sieve(a.ambient, Inter(a.node, b.node))


# ---------------------------------------------------------------------------
# admissible opens and the continuity probe


def _open_part(node) -> bool:
    """Union trees of principal opens only."""
    if isinstance(node, OpenLoc):
        return True
    if isinstance(node, Union):
        return _open_part(node.left) and _open_part(node.right)
    return False


def _open_leaves(node):
    if isinstance(node, OpenLoc):
        return [node.g]
    return _open_leaves(node.left) + _open_leaves(node.right)


def is_admissible_open(s: Sieve, host: Sieve) -> bool:
    """Syntactic test: host cut with a union of honest principal opens.

    The opens must not degenerate (zero in the ambient coordinate ring),
    otherwise a closed condition is hiding in the open part.
    """
    if s.ambient.presentation_key() != host.ambient.presentation_key():
        return False
    nd = s.node
    if not isinstance(nd, Inter):
        return False
    if nd.left == host.node and _open_part(nd.right):
        opens = _open_leaves(nd.right)
    elif nd.right == host.node and _open_part(nd.left):
        opens = _open_leaves(nd.left)
    else:
        return False
    return all(not s.ambient.ideal.contains(g) for g in opens)


def admissible_open(host: Sieve, opens) -> Sieve:
    """host cut with the union of the given open functions."""
    opens = list(opens)
    if not opens:
        raise WorkbenchError("need at least one open function")
    nd = OpenLoc(opens[0])
    for g in opens[1:]:
        nd = Union(nd, OpenLoc(g))
    return Sieve(host.ambient, Inter(host.node, nd))


def continuity_probe(f: CoordMap, battery, cfg: Config = DEFAULT) -> dict:
    """Pull admissible opens back along f and re-test admissibility.

    battery: iterable of (fat point or None, host sieve, admissible sieve).
    When a finite-field fat point is supplied the pullback is also checked
    semantically: a source point lands in the pulled sieve exactly when its
    image lands in the original.
    """
    results = []
    ok = True
    for m, host, adm in battery:
        if not is_admissible_open(adm, host):
            results.append({"admissible_before": False, "admissible_after": False,
                            "semantic": None})
            ok = False
            continue
        pulled = adm.pullback(f, cfg)
        pulled_host = host.pullback(f, cfg)
        after = is_admissible_open(pulled, pulled_host)
        semantic = None
        if m is not None and f.source.field.finite:
            alg = m.algebra
            semantic = all(
                pulled.member(m, p, cfg) == adm.member(m, f.apply_point(alg, p), cfg)
                for p in points(f.source, m, cfg))
        results.append({"admissible_before": True, "admissible_after": after,
                        "semantic": semantic})
        if not after or semantic is False:
            ok = False
    return {"ok": ok, "cases": results}


# ---------------------------------------------------------------------------
# arcs of sieves


def arc_node(node, x: AffineScheme, m: FatPoint, cfg: Config = DEFAULT):
    """Rewrite a condition on x into one on the restriction of x along m."""
    if isinstance(node, (Full, Empty)):
        return node
    if isinstance(node, Closed):
        if not node.gens:
            return Full()
        _, rows = arc_coefficients(list(node.gens), x, m, cfg)
        gens = tuple(c for row in rows for c in row if not c.is_zero())
        return Closed(gens)
    if isinstance(node, OpenLoc):
        # a Weil-restricted unit test: the residue coefficient must be a unit
        _, rows = arc_coefficients([node.g], x, m, cfg)
        return OpenLoc(rows[0][0])
    if isinstance(node, Im):
        return Im(arc_of_map(node.cmap, m, cfg))
    if isinstance(node, Union):
        return Union(arc_node(node.left, x, m, cfg), arc_node(node.right, x, m, cfg))
    if isinstance(node, Inter):
        return Inter(arc_node(node.left, x, m, cfg), arc_node(node.right, x, m, cfg))
    raise WorkbenchError("unknown node %r" % (node,))


def arc_plain_sieve(s: Sieve, m: FatPoint, cfg: Config = DEFAULT) -> Sieve:
    arc = weil_restrict(s.ambient, m, cfg)
    return Sieve(arc, arc_node(s.node, s.ambient, m, cfg))


# ---------------------------------------------------------------------------
# simplicial ambients


class SimplicialAmbient:
    has_maps = True

    def level_scheme(self, n: int):
        raise NotImplementedError

    def level_points(self, m: FatPoint, n: int, cfg: Config = DEFAULT):
        raise NotImplementedError

    def face(self, m, n, i, p):
        raise NotImplementedError

    def degeneracy(self, m, n, i, p):
        raise NotImplementedError

    def key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, SimplicialAmbient) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


class ConstAmbient(SimplicialAmbient):
    def __init__(self, scheme: AffineScheme):
        self.scheme = scheme

    def level_scheme(self, n):
        return self.scheme

    def level_points(self, m, n, cfg=DEFAULT):
        return tuple(sorted(points(self.scheme, m, cfg)))

    def face(self, m, n, i, p):
        return p

    def degeneracy(self, m, n, i, p):
        return p

    def key(self):
        return ("const", self.scheme.presentation_key())


class PowerAmbient(SimplicialAmbient):
    """Level n is the (n+1)-fold power; symmetric mode keeps sorted orbit reps."""

    def __init__(self, scheme: AffineScheme, symmetric: bool = False):
        self.scheme = scheme
        self.symmetric = symmetric

    def level_scheme(self, n):
        if self.symmetric:
            return None  # orbit sets carry no ambient algebra
        got = self.scheme
        for _ in range(n):
            got = product_scheme(got, self.scheme)[0]
        return got

    def base_points(self, m, cfg=DEFAULT):
        return tuple(sorted(points(self.scheme, m, cfg)))

    def level_points(self, m, n, cfg=DEFAULT):
        base = self.base_points(m, cfg)
        if len(base) ** (n + 1) > cfg.max_candidates:
            raise CapExceeded("power level too large to enumerate")
        if self.symmetric:
            return tuple(combinations_with_replacement(base, n + 1))
        return tuple(iproduct(base, repeat=n + 1))

    def face(self, m, n, i, p):
        return p[:i] + p[i + 1:]

    def degeneracy(self, m, n, i, p):
        out = p[:i + 1] + (p[i],) + p[i + 1:]
        return tuple(sorted(out)) if self.symmetric else out

    def key(self):
        return ("pow", self.scheme.presentation_key(), self.symmetric)


class ProductAmbient(SimplicialAmbient):
    def __init__(self, left: SimplicialAmbient, right: SimplicialAmbient):
        self.left = left
        self.right = right
        self._schemes = {}

    @property
    def has_maps(self):
        return self.left.has_maps and self.right.has_maps

    def level_scheme(self, n):
        if n not in self._schemes:
            l = self.left.level_scheme(n)
            r = self.right.level_scheme(n)
            if l is None or r is None:
                self._schemes[n] = None
            else:
                self._schemes[n] = product_scheme(l, r)
        got = self._schemes[n]
        return None if got is None else got[0]

    def level_points(self, m, n, cfg=DEFAULT):
        ls = self.left.level_points(m, n, cfg)
        rs = self.right.level_points(m, n, cfg)
        if len(ls) * len(rs) > cfg.max_candidates:
            raise CapExceeded("product level too large to enumerate")
        return tuple((a, b) for a in ls for b in rs)

    def face(self, m, n, i, p):
        return (self.left.face(m, n, i, p[0]), self.right.face(m, n, i, p[1]))

    def degeneracy(self, m, n, i, p):
        return (self.left.degeneracy(m, n, i, p[0]),
                self.right.degeneracy(m, n, i, p[1]))

    def key(self):
        return ("prod", self.left.key(), self.right.key())


class DisjointAmbient(SimplicialAmbient):
    def __init__(self, left: SimplicialAmbient, right: SimplicialAmbient):
        self.left = left
        self.right = right

    @property
    def has_maps(self):
        return self.left.has_maps and self.right.has_maps

    def level_scheme(self, n):
        return None

    def level_points(self, m, n, cfg=DEFAULT):
        ls = self.left.level_points(m, n, cfg)
        rs = self.right.level_points(m, n, cfg)
        return tuple([("L", p) for p in ls] + [("R", p) for p in rs])

    def face(self, m, n, i, p):
        tag, q = p
        side = self.left if tag == "L" else self.right
        return (tag, side.face(m, n, i, q))

    def degeneracy(self, m, n, i, p):
        tag, q = p
        side = self.left if tag == "L" else self.right
        return (tag, side.degeneracy(m, n, i, q))

    def key(self):
        return ("disj", self.left.key(), self.right.key())


class ExplicitAmbient(SimplicialAmbient):
    """Explicit N-truncated levels with coordinate face/degeneracy maps."""

    def __init__(self, levels, faces: dict, degens: dict, validate: bool = True):
        self.levels = tuple(levels)
        self.faces = dict(faces)
        self.degens = dict(degens)
        if validate:
            self._validate()

    @property
    def truncation(self):
        return len(self.levels) - 1

    def _maps_equal(self, f: CoordMap, g: CoordMap) -> bool:
        src = f.source.ideal
        return all(src.contains(f.images[v] - g.images[v]) for v in f.target.vars)

    def _validate(self):
        n_top = self.truncation
        for n in range(1, n_top + 1):
            for i in range(n + 1):
                if (n, i) not in self.faces:
                    raise WorkbenchError("missing face (%d, %d)" % (n, i))
        for n in range(0, n_top):
            for i in range(n + 1):
                if (n, i) not in self.degens:
                    raise WorkbenchError("missing degeneracy (%d, %d)" % (n, i))
        for n in range(2, n_top + 1):
            for j in range(1, n + 1):
                for i in range(j):
                    a = self.faces[(n - 1, i)].compose(self.faces[(n, j)])
                    b = self.faces[(n - 1, j - 1)].compose(self.faces[(n, i)])
                    if not self._maps_equal(a, b):
                        raise WorkbenchError("face identity fails at n=%d i=%d j=%d"
                                             % (n, i, j))
        for n in range(0, n_top):
            for j in range(n + 1):
                for i in range(n + 2):
                    left = self.faces.get((n + 1, i))
                    if left is None:
                        continue
                    comp = left.compose(self.degens[(n, j)])
                    if i == j or i == j + 1:
                        ident = identity_map(self.levels[n])
                        if not self._maps_equal(comp, ident):
                            raise WorkbenchError(
                                "face/degeneracy identity fails at n=%d i=%d j=%d"
                                % (n, i, j))

    def level_scheme(self, n):
        if n > self.truncation:
            raise CapExceeded("level %d beyond materialized truncation %d"
                              % (n, self.truncation))
        return self.levels[n]

    def level_points(self, m, n, cfg=DEFAULT):
        return tuple(sorted(points(self.level_scheme(n), m, cfg)))

    def face(self, m, n, i, p):
        return self.faces[(n, i)].apply_point(m.algebra, p)

    def degeneracy(self, m, n, i, p):
        return self.degens[(n, i)].apply_point(m.algebra, p)

    def key(self):
        return ("expl", tuple(s.presentation_key() for s in self.levels),
                tuple(sorted((k, v.key()) for k, v in self.faces.items())),
                tuple(sorted((k, v.key()) for k, v in self.degens.items())))


class IndexedAmbient(SimplicialAmbient):
    """A family of level schemes with the structure maps forgotten."""

    has_maps = False

    def __init__(self, levels):
        self.levels = tuple(levels)

    @property
    def truncation(self):
        return len(self.levels) - 1

    def level_scheme(self, n):
        if n > self.truncation:
            raise CapExceeded("level %d beyond materialized truncation %d"
                              % (n, self.truncation))
        return self.levels[n]

    def level_points(self, m, n, cfg=DEFAULT):
        return tuple(sorted(points(self.level_scheme(n), m, cfg)))

    def face(self, m, n, i, p):
        raise WorkbenchError("indexed family carries no face maps")

    def degeneracy(self, m, n, i, p):
        raise WorkbenchError("indexed family carries no degeneracy maps")

    def key(self):
        return ("idx", tuple(s.presentation_key() for s in self.levels))


# ---------------------------------------------------------------------------
# simplicial sieves


class SimplicialSieve:
    ambient: SimplicialAmbient

    def member(self, m, n, point, cfg: Config = DEFAULT) -> bool:
        raise NotImplementedError

    def level_points(self, m, n, cfg: Config = DEFAULT):
        return tuple(p for p in self.ambient.level_points(m, n, cfg)
                     if self.member(m, n, p, cfg))

    def count(self, m, n, cfg: Config = DEFAULT) -> int:
        return len(self.level_points(m, n, cfg))

    def key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, SimplicialSieve) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def check_structure(self, m, top: int, cfg: Config = DEFAULT) -> bool:
        """Faces and degeneracies keep member points inside the sieve."""
        amb = self.ambient
        if not amb.has_maps:
            raise WorkbenchError("indexed family carries no structure maps")
        for n in range(0, top + 1):
            pts = self.level_points(m, n, cfg)
            for p in pts:
                if n >= 1:
                    for i in range(n + 1):
                        if not self.member(m, n - 1, amb.face(m, n, i, p), cfg):
                            return False
                for i in range(n + 1):
                    try:
                        q = amb.degeneracy(m, n, i, p)
                    except (CapExceeded, KeyError):
                        continue
                    if not self.member(m, n + 1, q, cfg):
                        return False
        return True


class ConstSieve(SimplicialSieve):
    def __init__(self, scheme: AffineScheme, node):
        self.scheme = scheme
        self.node = node
        self.ambient = ConstAmbient(scheme)

    @classmethod
    def of(cls, s: Sieve) -> "ConstSieve":
        return cls(s.ambient, s.node)

    def plain(self) -> Sieve:
        return Sieve(self.scheme, self.node)

    def member(self, m, n, point, cfg=DEFAULT):
        return node_member(self.node, self.scheme, m, point, cfg)

    def key(self):
        return ("const", self.scheme.presentation_key(), self.node)

    def __repr__(self):
        return "(%s)_const on %s" % (node_str(self.node), self.scheme.name)


class PowerSieve(SimplicialSieve):
    def __init__(self, scheme: AffineScheme, node, symmetric: bool = False):
        self.scheme = scheme
        self.node = node
        self.symmetric = symmetric
        self.ambient = PowerAmbient(scheme, symmetric)

    def member(self, m, n, point, cfg=DEFAULT):
        return all(node_member(self.node, self.scheme, m, p, cfg) for p in point)

    def key(self):
        return ("pow", self.scheme.presentation_key(), self.node, self.symmetric)

    def __repr__(self):
        tag = "sym" if self.symmetric else "fiber"
        return "(%s)_%s on %s" % (node_str(self.node), tag, self.scheme.name)


class ProductSieve(SimplicialSieve):
    def __init__(self, left: SimplicialSieve, right: SimplicialSieve):
        self.left = left
        self.right = right
        self.ambient = ProductAmbient(left.ambient, right.ambient)

    def member(self, m, n, point, cfg=DEFAULT):
        return (self.left.member(m, n, point[0], cfg)
                and self.right.member(m, n, point[1], cfg))

    def key(self):
        return ("prod", self.left.key(), self.right.key())


class DisjointSieve(SimplicialSieve):
    def __init__(self, left: SimplicialSieve, right: SimplicialSieve):
        self.left = left
        self.right = right
        self.ambient = DisjointAmbient(left.ambient, right.ambient)

    def member(self, m, n, point, cfg=DEFAULT):
        tag, q = point
        side = self.left if tag == "L" else self.right
        return side.member(m, n, q, cfg)

    def key(self):
        return ("disj", self.left.key(), self.right.key())


class LevelSieve(SimplicialSieve):
    """Explicit per-level conditions over any ambient with level schemes."""

    def __init__(self, ambient: SimplicialAmbient, nodes):
        self.ambient = ambient
        self.nodes = tuple(nodes)

    @property
    def truncation(self):
        return len(self.nodes) - 1

    def member(self, m, n, point, cfg=DEFAULT):
        if n > self.truncation:
            raise CapExceeded("level %d beyond materialized truncation" % n)
        return node_member(self.nodes[n], self.ambient.level_scheme(n), m, point, cfg)

    def key(self):
        return ("levels", self.ambient.key(), self.nodes)


class UnionSieve(SimplicialSieve):
    def __init__(self, left: SimplicialSieve, right: SimplicialSieve):
        if left.ambient.key() != right.ambient.key():
            raise AmbientMismatch("simplicial union across different ambients")
        self.left = left
        self.right = right
        self.ambient = left.ambient

    def member(self, m, n, point, cfg=DEFAULT):
        return self.left.member(m, n, point, cfg) or self.right.member(m, n, point, cfg)

    def key(self):
        return ("union", self.left.key(), self.right.key())


class InterSieve(SimplicialSieve):
    def __init__(self, left: SimplicialSieve, right: SimplicialSieve):
        if left.ambient.key() != right.ambient.key():
            raise AmbientMismatch("simplicial intersection across different ambients")
        self.left = left
        self.right = right
        self.ambient = left.ambient

    def member(self, m, n, point, cfg=DEFAULT):
        return self.left.member(m, n, point, cfg) and self.right.member(m, n, point, cfg)

    def key(self):
        return ("inter", self.left.key(), self.right.key())


def simplicial_full(x: AffineScheme) -> ConstSieve:
    return ConstSieve(x, Full())


def lift_sieve(s: Sieve, tag: str) -> SimplicialSieve:
    """Apply a level shape to a plain sieve: constant, power, or orbit power."""
    if tag == "trivial":
        return ConstSieve(s.ambient, s.node)
    if tag == "fiber":
        return PowerSieve(s.ambient, s.node, symmetric=False)
    if tag == "sym":
        return PowerSieve(s.ambient, s.node, symmetric=True)
    raise WorkbenchError("unknown shape tag %r" % tag)


# ---------------------------------------------------------------------------
# level presentations (for class canonicalization)


def _rename_node(node, mapping: dict, new_vars, field):
    if isinstance(node, (Full, Empty)):
        return node
    if isinstance(node, Closed):
        return Closed(tuple(g.rename(mapping).embed(new_vars) for g in node.gens))
    if isinstance(node, OpenLoc):
        return OpenLoc(node.g.rename(mapping).embed(new_vars))
    if isinstance(node, Im):
        raise WorkbenchError("image leaves cannot be re-embedded into a product")
    if isinstance(node, Union):
        return Union(_rename_node(node.left, mapping, new_vars, field),
                     _rename_node(node.right, mapping, new_vars, field))
    if isinstance(node, Inter):
        return Inter(_rename_node(node.left, mapping, new_vars, field),
                     _rename_node(node.right, mapping, new_vars, field))
    raise WorkbenchError("unknown node %r" % (node,))


def level_presentation(s, n: int, cfg: Config = DEFAULT):
    """(scheme, node) presenting level n of a simplicial sieve, or None.

    Symmetric shapes and disjoint unions have no single affine presentation.
    """
    if isinstance(s, Sieve):
        return s.ambient, s.node
    if isinstance(s, ConstSieve):
        return s.scheme, s.node
    if isinstance(s, PowerSieve):
        if s.symmetric:
            return None
        scheme, node = s.scheme, s.node
        out_scheme, out_node = scheme, node
        for _ in range(n):
            prod, lmap, rmap = product_scheme(out_scheme, scheme)
            left = _rename_node(out_node, lmap, prod.vars, prod.field)
            right = _rename_node(node, rmap, prod.vars, prod.field)
            out_scheme, out_node = prod, Inter(left, right)
        return out_scheme, out_node
    if isinstance(s, ProductSieve):
        lp = level_presentation(s.left, n, cfg)
        rp = level_presentation(s.right, n, cfg)
        if lp is None or rp is None:
            return None
        (ls, lnode), (rs, rnode) = lp, rp
        prod, lmap, rmap = product_scheme(ls, rs)
        return prod, Inter(_rename_node(lnode, lmap, prod.vars, prod.field),
                           _rename_node(rnode, rmap, prod.vars, prod.field))
    if isinstance(s, LevelSieve):
        scheme = s.ambient.level_scheme(n)
        if scheme is None:
            return None
        return scheme, s.nodes[n]
    if isinstance(s, UnionSieve):
        lp = level_presentation(s.left, n, cfg)
        rp = level_presentation(s.right, n, cfg)
        if lp is None or rp is None:
            return None
        return lp[0], Union(lp[1], rp[1])
    if isinstance(s, InterSieve):
        lp = level_presentation(s.left, n, cfg)
        rp = level_presentation(s.right, n, cfg)
        if lp is None or rp is None:
            return None
        return lp[0], Inter(lp[1], rp[1])
    if isinstance(s, DisjointSieve):
        return None
    raise WorkbenchError("no level presentation for %r" % (s,))


# ---------------------------------------------------------------------------
# arcs of simplicial sieves


def arc_sieve(s, m: FatPoint, cfg: Config = DEFAULT):
    """Restriction applied leafwise, preserving the level shape."""
    if isinstance(s, Sieve):
        return arc_plain_sieve(s, m, cfg)
    if isinstance(s, ConstSieve):
        arc = weil_restrict(s.scheme, m, cfg)
        return ConstSieve(arc, arc_node(s.node, s.scheme, m, cfg))
    if isinstance(s, PowerSieve):
        arc = weil_restrict(s.scheme, m, cfg)
        return PowerSieve(arc, arc_node(s.node, s.scheme, m, cfg), s.symmetric)
    if isinstance(s, ProductSieve):
        return ProductSieve(arc_sieve(s.left, m, cfg), arc_sieve(s.right, m, cfg))
    if isinstance(s, DisjointSieve):
        return DisjointSieve(arc_sieve(s.left, m, cfg), arc_sieve(s.right, m, cfg))
    if isinstance(s, UnionSieve):
        return UnionSieve(arc_sieve(s.left, m, cfg), arc_sieve(s.right, m, cfg))
    if isinstance(s, InterSieve):
        return InterSieve(arc_sieve(s.left, m, cfg), arc_sieve(s.right, m, cfg))
    if isinstance(s, LevelSieve) and isinstance(s.ambient, ExplicitAmbient):
        amb = s.ambient
        levels = [weil_restrict(sc, m, cfg) for sc in amb.levels]
        faces = {k: arc_of_map(v, m, cfg) for k, v in amb.faces.items()}
        degens = {k: arc_of_map(v, m, cfg) for k, v in amb.degens.items()}
        new_amb = ExplicitAmbient(levels, faces, degens, validate=False)
        nodes = [arc_node(nd, amb.levels[i], m, cfg) for i, nd in enumerate(s.nodes)]
        return LevelSieve(new_amb, nodes)
    raise WorkbenchError("no arc transform for %r" % (s,))


def simplicial_arc(s, sfp: SimplicialFatPoint, top: int | None = None,
                   cfg: Config = DEFAULT):
    """Levelwise restriction along a simplicial fat point.

    The constant shape keeps the full simplicial structure. The power shape
    (varying fat point per level) yields an indexed family: the level schemes
    are materialized but the structure maps are forgotten.
    """
    if isinstance(s, AffineScheme):
        s = simplicial_full(s)
    if isinstance(s, Sieve):
        s = ConstSieve(s.ambient, s.node)
    if sfp.tag == "trivial":
        return arc_sieve(s, sfp.base, cfg)
    if sfp.tag == "sym":
        raise WorkbenchError("symmetric shape carries no ambient algebra for arcs")
    if not isinstance(s, ConstSieve):
        raise WorkbenchError("power-shaped restriction needs a constant base")
    top = sfp.truncation if top is None else top
    levels = []
    nodes = []
    for n in range(top + 1):
        mn = sfp.level(n)
        levels.append(weil_restrict(s.scheme, mn, cfg))
        nodes.append(arc_node(s.node, s.scheme, mn, cfg))
    return LevelSieve(IndexedAmbient(levels), nodes)


# ---------------------------------------------------------------------------
# relative sieves


class RelativeSieve:
    """A sieve with a structure morphism onto a base sieve's ambient."""

    def __init__(self, total: Sieve, base: Sieve, structure: CoordMap):
        if structure.source.presentation_key() != total.ambient.presentation_key():
            raise AmbientMismatch("structure morphism must start at the total ambient")
        if structure.target.presentation_key() != base.ambient.presentation_key():
            raise AmbientMismatch("structure morphism must land in the base ambient")
        self.total = total
        self.base = base
        self.structure = structure

    def points_over(self, m: FatPoint, cfg: Config = DEFAULT):
        """Total points labelled by their base image."""
        alg = m.algebra
        out = []
        for p in self.total.points(m, cfg):
            out.append((self.structure.apply_point(alg, p), p))
        return out

    def key(self):
        return (self.total.key(), self.base.key(), self.structure.key())

    def __eq__(self, other):
        return isinstance(other, RelativeSieve) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def fiber_product(a: RelativeSieve, b: RelativeSieve,
                  cfg: Config = DEFAULT) -> RelativeSieve:
    """Pointwise pairs agreeing on the base."""
    if a.base.key() != b.base.key():
        raise AmbientMismatch("fiber product needs a common base")
    total_scheme, to_a, to_b = fiber_product_schemes(a.structure, b.structure, cfg)
    node = Inter(node_pullback(a.total.node, to_a, cfg),
                 node_pullback(b.total.node, to_b, cfg))
    structure = a.structure.compose(to_a)
    return RelativeSieve(Sieve(total_scheme, node), a.base, structure)


# ---------------------------------------------------------------------------
# limit sieves


def _sieve_scheme(s) -> AffineScheme:
    """A defining affine scheme of a simplicial sieve (leftmost base)."""
    if isinstance(s, (ConstSieve, PowerSieve)):
        return s.scheme
    if isinstance(s, (ProductSieve, DisjointSieve, UnionSieve, InterSieve)):
        return _sieve_scheme(s.left)
    if isinstance(s, LevelSieve):
        return s.ambient.level_scheme(0)
    raise WorkbenchError("no defining scheme for %r" % (s,))


def _sieve_field(s):
    return _sieve_scheme(s).field


class LimitSieve:
    """A family of sieves living inside the arcs of a base, one per member."""

    def __init__(self, base, system, rule=None, label: str = ""):
        if isinstance(base, AffineScheme):
            base = simplicial_full(base)
        if isinstance(base, Sieve):
            base = ConstSieve(base.ambient, base.node)
        self.base = base
        self.system = system
        self.rule = rule  # FatPoint -> SimplicialSieve over the arc ambient
        self.label = label

    def member_at(self, m: FatPoint, cfg: Config = DEFAULT) -> SimplicialSieve:
        if self.rule is None:
            return arc_sieve(self.base, m, cfg)
        return self.rule(m)

    def members(self, horizon: int, cfg: Config = DEFAULT):
        return [(m, self.member_at(m, cfg)) for m in self.system.materialize(horizon)]

    def battery_validate(self, horizon: int, cfg: Config = DEFAULT,
                         levels: int = 1) -> dict:
        """Finite-field checks on the family: each member sits inside the
        arcs of the base, and consecutive members are compatible with the
        truncation projections between arc ambients. Arc ambients live over
        the ground field, so enumeration happens at the ground point; over
        the rationals only the presentational checks run."""
        ms = self.system.materialize(horizon)
        field = _sieve_field(self.base)
        finite = field.finite
        k0 = base_point(field)
        issues = []
        for idx, m in enumerate(ms):
            inside = self.member_at(m, cfg)
            hull = arc_sieve(self.base, m, cfg)
            s_in = inside.ambient.level_scheme(0)
            s_hull = hull.ambient.level_scheme(0)
            if (s_in is not None and s_hull is not None
                    and s_in.presentation_key() != s_hull.presentation_key()):
                issues.append("member %d lives off the arc ambient" % idx)
                continue
            if finite:
                for n in range(levels + 1):
                    try:
                        got = set(inside.level_points(k0, n, cfg))
                        big = set(hull.level_points(k0, n, cfg))
                    except WorkbenchError:
                        continue
                    if not got <= big:
                        issues.append("member %d escapes the base arcs at level %d"
                                      % (idx, n))
        if finite:
            base0 = _sieve_scheme(self.base)
            alg = k0.algebra
            for idx in range(len(ms) - 1):
                small, big = ms[idx], ms[idx + 1]
                try:
                    tr = truncation_map(base0, big, small, cfg)
                except WorkbenchError:
                    continue
                small_sieve = self.member_at(small, cfg)
                big_sieve = self.member_at(big, cfg)
                for p in big_sieve.level_points(k0, 0, cfg):
                    q = tr.apply_point(alg, p)
                    if not small_sieve.member(k0, 0, q, cfg):
                        issues.append("member %d image escapes member %d"
                                      % (idx + 1, idx))
                        break
        return {"ok": not issues, "issues": issues}


def limit_sieve(base, system, rule=None, label: str = "") -> LimitSieve:
    return LimitSieve(base, system, rule=rule, label=label)
