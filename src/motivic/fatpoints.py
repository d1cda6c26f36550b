"""Fat points: finite local algebra presentations and their simplicial shapes.

A fat point is k[y1..ys]/I with every generator nilpotent (so the algebra is
local with residue field k). `FatPoint` is that quotient algebra itself: a
validated `QuotientAlgebra` with a name. Elements are handled as coefficient
vectors over the standard-monomial basis, multiplied through a lazily built
table; `length` is the number of basis monomials. Point counting reads
polynomials through `QuotientAlgebra.coefficient_rows`: their coefficients
at the generic point, one row of plain terms per basis monomial.
"""

from __future__ import annotations

from .config import DEFAULT, Config
from .errors import NotFinite, NotLocal, WorkbenchError
from .fields import Field
from .poly import Ideal, Poly, poly_str, tensor_product


class QuotientAlgebra:
    """Finite-dimensional quotient k[y]/I with vector arithmetic over its basis."""

    def __init__(self, ideal: Ideal):
        self.ideal = ideal
        self.field = ideal.field
        basis = ideal.quotient_basis()
        if basis is None:
            raise NotFinite("quotient algebra is infinite-dimensional")
        self.basis = basis                      # monomial Polys, grevlex-increasing
        self.basis_exps = [b.leading()[0] for b in basis]
        self.index = {e: i for i, e in enumerate(self.basis_exps)}
        self.length = len(basis)
        self._table = {}
        # derived data that depends on this algebra only, keyed by a tagged
        # input: ("rows", poly) for coefficient rows, ("image", map, cap) for
        # the image sets of sieve leaves, ("count", block, cap) for the point
        # counts of canonical blocks
        self.memo = {}

    @property
    def vars(self):
        return self.ideal.vars

    def zero_vector(self):
        return (self.field.zero,) * self.length

    def unit_vector(self):
        one = (0,) * len(self.vars)
        if one not in self.index:
            raise WorkbenchError("zero algebra has no unit")
        out = list(self.zero_vector())
        out[self.index[one]] = self.field.one
        return tuple(out)

    def nf_vector(self, p: Poly):
        r = self.ideal.normal_form(p)
        out = list(self.zero_vector())
        for e, c in r.terms.items():
            out[self.index[e]] = c
        return tuple(out)

    def _pair(self, i: int, j: int):
        """b_i * b_j as sparse (basis index, coefficient) pairs."""
        key = (i, j) if i <= j else (j, i)
        got = self._table.get(key)
        if got is None:
            prod = Poly.monomial(
                tuple(a + b for a, b in zip(self.basis_exps[i], self.basis_exps[j])),
                1, self.vars, self.field)
            got = [(k, c) for k, c in enumerate(self.nf_vector(prod)) if c]
            self._table[key] = got
        return got

    def mul(self, u, v):
        f = self.field
        out = [f.zero] * self.length
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(v):
                if not b:
                    continue
                ab = f.mul(a, b)
                for k, c in self._pair(i, j):
                    out[k] = f.add(out[k], f.mul(ab, c))
        return tuple(out)

    def eval_poly(self, p: Poly, images: dict):
        """Evaluate p with variables sent to algebra vectors."""
        f = self.field
        powers = {}

        def pw(name, k):
            cache = powers.setdefault(name, {0: self.unit_vector()})
            while k not in cache:
                top = max(cache)
                cache[top + 1] = self.mul(cache[top], images[name])
            return cache[k]

        out = list(self.zero_vector())
        for e, c in p.terms.items():
            term = self.unit_vector()
            for i, k in enumerate(e):
                if k:
                    term = self.mul(term, pw(p.vars[i], k))
            for idx, t in enumerate(term):
                if t:
                    out[idx] = f.add(out[idx], f.mul(f.of(c), t))
        return tuple(out)

    def coefficient_rows(self, p: Poly):
        """The coefficients of p at the generic point, one row per basis monomial.

        Variable i of p (of n) goes to the generic element sum_j a_ij b_j over
        the standard basis b_0, b_1, ...; coordinate a_ij sits at position
        j*n + i, so positions run x_0, y_0, x_1, y_1, ... for variables x, y.
        Row k is the coefficient of b_k in the normal form, as a tuple of
        terms (c, ((position, exponent), ...)) with c a field element and
        positions increasing; a zero row is empty. Cached per polynomial.
        """
        key = ("rows", p)
        got = self.memo.get(key)
        if got is None:
            got = self._expand(p)
            self.memo[key] = got
        return got

    def _expand(self, p: Poly):
        f = self.field
        n = len(p.vars)

        def times_coordinate(acc, i):
            """acc * (sum_j a_ij b_j); acc maps (monomial, basis index) -> c."""
            out = {}
            for (mono, k), c in acc.items():
                for j in range(self.length):
                    prod = self._pair(k, j)
                    if prod:
                        grown = _bump(mono, j * n + i)
                        for l, t in prod:
                            out[(grown, l)] = out.get((grown, l), 0) + c * t
            return _clean(f, out)

        one = self.index[(0,) * len(self.vars)]
        total = {}
        for e, c in p.terms.items():
            acc = {((), one): c}
            for i, k in enumerate(e):
                for _ in range(k):
                    acc = times_coordinate(acc, i)
            for key, c2 in acc.items():
                total[key] = total.get(key, 0) + c2
        rows = [[] for _ in range(self.length)]
        for (mono, k), c in _clean(f, total).items():
            rows[k].append((c, mono))
        return tuple(tuple(sorted(r, key=lambda term: term[1])) for r in rows)

    def residue(self, vec):
        """Coefficient of the basis monomial 1."""
        one = (0,) * len(self.vars)
        return vec[self.index[one]]

    def is_unit(self, vec) -> bool:
        # local algebra: unit iff the residue is nonzero
        return bool(self.residue(vec))

    def is_zero_vec(self, vec) -> bool:
        return not any(vec)


def _clean(field: Field, coeffs: dict) -> dict:
    """coeffs with every value coerced into the field and zeros dropped."""
    out = {}
    for key, c in coeffs.items():
        c = field.of(c)
        if c:
            out[key] = c
    return out


def _bump(mono, pos: int):
    """A sparse monomial ((position, exponent), ...) times coordinate `pos`."""
    out = list(mono)
    for idx, (q, e) in enumerate(out):
        if q == pos:
            out[idx] = (q, e + 1)
            return tuple(out)
        if q > pos:
            out.insert(idx, (pos, 1))
            return tuple(out)
    out.append((pos, 1))
    return tuple(out)


def flat_coordinates(point, length: int):
    """A point's coefficient vectors as coordinates, in `coefficient_rows` order."""
    return [vec[j] for j in range(length) for vec in point]


def point_of(coords, n: int):
    """The point of n variables whose flat coordinates are `coords`."""
    return tuple(tuple(coords[i::n]) for i in range(n))


def row_value(row, vals):
    """A coefficient row at the coordinates `vals`, unreduced."""
    total = 0
    for c, mono in row:
        for pos, e in mono:
            c *= vals[pos] ** e
        total += c
    return total


class FatPoint(QuotientAlgebra):
    """A validated finite local algebra point: the quotient algebra itself."""

    def __init__(self, ideal: Ideal, name: str = ""):
        super().__init__(ideal)
        self.name = name

    def presentation_key(self):
        return (self.field, self.ideal.vars,
                tuple(g.key() for g in self.ideal.basis()))

    def __repr__(self):
        base = repr(self.field)
        if not self.ideal.vars:
            return base
        inside = ", ".join(poly_str(g) for g in self.ideal.gens) or "0"
        return "%s[%s]/(%s)" % (base, ", ".join(self.ideal.vars), inside)


def make_fat_point(vars, field: Field, gens, name: str = "",
                   cfg: Config = DEFAULT) -> FatPoint:
    """Validate and build a fat point; raises NotFinite or NotLocal."""
    ideal = Ideal(vars, field, gens, cfg)
    if ideal.is_unit():
        raise NotLocal("unit ideal presents the zero ring, not a point")
    m = FatPoint(ideal, name)
    # in an algebra of dimension d an element is nilpotent iff its d-th power vanishes
    for v in ideal.vars:
        if not ideal.contains(Poly.variable(v, ideal.vars, field) ** m.length):
            raise NotLocal("generator %r is not nilpotent" % v)
    return m


def base_point(field: Field) -> FatPoint:
    """The one-dimensional point with no coordinates."""
    return FatPoint(Ideal((), field, []), "k")


def tensor_points(a: FatPoint, b: FatPoint) -> FatPoint:
    """Tensor presentation on the disjoint union of coordinate lists.

    Locality is inherited: each generator stays nilpotent in the tensor.
    """
    ideal, _, _ = tensor_product(a.ideal, b.ideal)
    return FatPoint(ideal)


class SimplicialFatPoint:
    """A level rule over a base fat point: constant, power, or orbit-power."""

    TAGS = ("trivial", "fiber", "sym")

    def __init__(self, tag: str, base: FatPoint, truncation: int = DEFAULT.skeletal_level):
        if tag not in self.TAGS:
            raise WorkbenchError("unknown simplicial tag %r" % tag)
        self.tag = tag
        self.base = base
        self.truncation = truncation
        self._levels = {}

    def level(self, n: int) -> FatPoint:
        """Fat point at level n; the symmetric shape has no ambient algebra."""
        if n < 0:
            raise WorkbenchError("negative level")
        if self.tag == "trivial":
            return self.base
        if self.tag == "sym":
            raise WorkbenchError("symmetric shape carries no ambient algebra; "
                                 "levels exist only as orbit sets")
        if n not in self._levels:
            if n == 0:
                self._levels[0] = self.base
            else:
                self._levels[n] = tensor_points(self.level(n - 1), self.base)
        return self._levels[n]


class PointSystem:
    """A directed system of fat points, explicit or rule-generated.

    Explicit systems are finite lists; rule systems materialize members
    1..horizon from a callable index -> FatPoint.
    """

    def __init__(self, members=None, rule=None):
        if (members is None) == (rule is None):
            raise WorkbenchError("give exactly one of members / rule")
        self.explicit = list(members) if members is not None else None
        self.rule = rule

    @property
    def finite(self) -> bool:
        return self.explicit is not None

    def materialize(self, horizon: int):
        if self.finite:
            return list(self.explicit)
        return [self.rule(i) for i in range(1, horizon + 1)]


def stabilize(values, window: int, finite_system: bool):
    """(stabilized, value, since) of a sequence of values along a point system.

    A finite system settles at its last member. A rule system settles once
    its last `window` values agree; `since` is where the final run begins.
    """
    if not values:
        return False, None, None
    last = values[-1]
    if not finite_system and (len(values) < window
                              or any(v != last for v in values[-window:])):
        return False, None, None
    since = len(values) - 1
    while since > 0 and values[since - 1] == last:
        since -= 1
    return True, last, since


def jet_rule(field: Field, var: str = "t", cfg: Config = DEFAULT):
    """index -> k[var]/(var^index), the standard jet chain (index starts at 1)."""

    def rule(i: int) -> FatPoint:
        v = Poly.variable(var, (var,), field)
        return make_fat_point((var,), field, [v ** i],
                              name="%s^%d" % (var, i), cfg=cfg)

    return rule


def truncation_compatible(small: FatPoint, big: FatPoint) -> bool:
    """Is `small` a closed subpoint of `big` (same coordinates, larger ideal)?"""
    if small.ideal.vars != big.ideal.vars or small.field != big.field:
        return False
    return all(small.ideal.contains(g) for g in big.ideal.gens)
