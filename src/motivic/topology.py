"""Realization invariants of finite simplicial sets from sieve evaluation.

The realization itself is never built; what a desk check needs are the
CW-level invariants of the non-degenerate cells: Euler characteristic and
integral homology of the normalized chain complex, reduced by an integer
Smith normal form, with the component count read off as the rank of the
free group H_0. Simplicial identities are verified exhaustively on
construction, so a malformed face table fails fast.

`invariants(A).key()` bundles those invariants. Equal keys are a necessary
condition for homotopy equivalence, never a sufficient one, and every
consumer of the key is expected to say so.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product as iproduct

from .config import DEFAULT, Config
from .errors import CapExceeded, EvalError, WorkbenchError
from .fatpoints import FatPoint
from .sieves import InterSieve, ProductSieve, SimplicialSieve, UnionSieve

class FiniteSimplicialSet:
    """Finite levels 0..N with face and degeneracy functions.

    levels: list of ordered element tuples; face(n, i, x) for 1 <= n <= N;
    degen(n, i, x) for 0 <= n < N. All simplicial identities are checked on
    construction over every element they apply to.
    """

    def __init__(self, levels, face, degen, cfg: Config = DEFAULT):
        self.levels = [tuple(lv) for lv in levels]
        self.face = face
        self.degen = degen
        self.N = len(self.levels) - 1
        total = sum(len(lv) for lv in self.levels)
        if total > cfg.max_cells:
            raise CapExceeded("simplicial set has %d cells, cap %d"
                              % (total, cfg.max_cells))
        self._sets = [set(lv) for lv in self.levels]
        self._verify()

    def _verify(self):
        N = self.N
        for n in range(1, N + 1):
            for x in self.levels[n]:
                for i in range(n + 1):
                    if self.face(n, i, x) not in self._sets[n - 1]:
                        raise EvalError("face leaves the level set at n=%d" % n)
        for n in range(0, N):
            for x in self.levels[n]:
                for i in range(n + 1):
                    if self.degen(n, i, x) not in self._sets[n + 1]:
                        raise EvalError("degeneracy leaves the level set at n=%d" % n)
        for n in range(2, N + 1):
            for x in self.levels[n]:
                for j in range(1, n + 1):
                    for i in range(j):
                        a = self.face(n - 1, i, self.face(n, j, x))
                        b = self.face(n - 1, j - 1, self.face(n, i, x))
                        if a != b:
                            raise EvalError("face identity fails at n=%d" % n)
        for n in range(0, N - 1):
            for x in self.levels[n]:
                for j in range(n + 1):
                    for i in range(j + 1):
                        a = self.degen(n + 1, i, self.degen(n, j, x))
                        b = self.degen(n + 1, j + 1, self.degen(n, i, x))
                        if a != b:
                            raise EvalError("degeneracy identity fails at n=%d" % n)
        for n in range(0, N):
            for x in self.levels[n]:
                for j in range(n + 1):
                    sx = self.degen(n, j, x)
                    for i in range(n + 2):
                        got = self.face(n + 1, i, sx)
                        if i == j or i == j + 1:
                            want = x
                        elif i < j:
                            want = self.degen(n - 1, j - 1, self.face(n, i, x)) \
                                if n >= 1 else None
                        else:
                            want = self.degen(n - 1, j, self.face(n, i - 1, x)) \
                                if n >= 1 else None
                        if want is not None and got != want:
                            raise EvalError("mixed identity fails at n=%d" % n)

    def nondegenerate(self, n: int):
        if n == 0:
            return list(self.levels[0])
        images = set()
        for x in self.levels[n - 1]:
            for i in range(n):
                images.add(self.degen(n - 1, i, x))
        return [x for x in self.levels[n] if x not in images]


class RealizationInvariants:
    def __init__(self, euler_characteristic: int, homology: tuple):
        self.euler_characteristic = euler_characteristic
        self.homology = homology  # per degree: (rank, tuple of torsion divisors > 1)
        alt = sum((-1) ** n * h[0] for n, h in enumerate(homology))
        if alt != euler_characteristic:
            raise WorkbenchError("homology ranks disagree with the cell count")

    @property
    def component_count(self) -> int:
        """H_0 is free of rank the number of components."""
        return self.homology[0][0]

    def key(self):
        return (self.component_count, self.euler_characteristic, self.homology)


def smith_normal_form(rows):
    """Invariant factors (the nonzero diagonal) of an integer matrix."""
    m = [list(r) for r in rows]
    R = len(m)
    C = len(m[0]) if m else 0
    out = []
    t = 0
    while t < min(R, C):
        pi, pj, best = -1, -1, None
        for i in range(t, R):
            for j in range(t, C):
                v = abs(m[i][j])
                if v and (best is None or v < best):
                    pi, pj, best = i, j, v
        if best is None:
            break
        m[t], m[pi] = m[pi], m[t]
        for row in m:
            row[t], row[pj] = row[pj], row[t]
        while True:
            dirty = False
            for i in range(t + 1, R):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    for j in range(t, C):
                        m[i][j] -= q * m[t][j]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
                    dirty = True
            for j in range(t + 1, C):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    for i in range(t, R):
                        m[i][j] -= q * m[i][t]
                    if m[t][j]:
                        for i in range(t, R):
                            m[i][t], m[i][j] = m[i][j], m[i][t]
                    dirty = True
            if not dirty:
                break
        # enforce the divisibility chain by folding offending entries in
        pivot = abs(m[t][t])
        for i in range(t + 1, R):
            for j in range(t + 1, C):
                if m[i][j] % pivot:
                    for jj in range(t, C):
                        m[t][jj] += m[i][jj]
                    dirty = True
                    break
            else:
                continue
            break
        if dirty:
            continue
        out.append(pivot)
        t += 1
    return out


def invariants(A: FiniteSimplicialSet) -> RealizationInvariants:
    nondeg = [A.nondegenerate(n) for n in range(A.N + 1)]
    chi = sum((-1) ** n * len(cells) for n, cells in enumerate(nondeg))

    index = [{x: i for i, x in enumerate(cells)} for cells in nondeg]
    ranks = [0] * (A.N + 2)
    torsions = [()] * (A.N + 1)
    for n in range(1, A.N + 1):
        rows = []
        for x in nondeg[n]:
            col = [0] * len(nondeg[n - 1])
            for i in range(n + 1):
                y = A.face(n, i, x)
                j = index[n - 1].get(y)
                if j is not None:
                    col[j] += (-1) ** i
            rows.append(col)
        if rows and rows[0]:
            factors = smith_normal_form(rows)
        else:
            factors = []
        ranks[n] = len(factors)
        tors = tuple(sorted(abs(d) for d in factors if abs(d) > 1))
        torsions[n - 1] = tors
    # the torsion of H_n is carried by the boundary one degree up
    homology = tuple((len(nondeg[n]) - ranks[n] - ranks[n + 1],
                      torsions[n] if n < A.N else ())
                     for n in range(A.N + 1))
    return RealizationInvariants(chi, homology)


def evaluate_to_sset(s: SimplicialSieve, m: FatPoint,
                     top: int) -> FiniteSimplicialSet:
    """Levels 0..top of s at m, under the cell cap of its scheme's config;
    a face or degeneracy that leaves the sieve raises EvalError, and so does
    a level list, which has no maps, once it has a cell to map."""
    levels = [s.level_points(m, n) for n in range(top + 1)]
    return FiniteSimplicialSet(levels, s.face, s.degeneracy, s.scheme.ideal.cfg)


# the last level each fixture below lists
FIXTURE_TOP = 4


def _simplex(n: int, cfg: Config, boundary: bool) -> FiniteSimplicialSet:
    """Nondecreasing vertex tuples of the n-simplex, faces deleting a vertex
    and degeneracies repeating one; the boundary drops the cells that use
    every vertex."""
    every = set(range(n + 1))
    levels = [tuple(x for x in combinations_with_replacement(range(n + 1), k + 1)
                    if not (boundary and set(x) == every))
              for k in range(FIXTURE_TOP + 1)]

    def face(k, i, x):
        return x[:i] + x[i + 1:]

    def degen(k, i, x):
        return tuple(sorted(x[:i + 1] + (x[i],) + x[i + 1:]))

    return FiniteSimplicialSet(levels, face, degen, cfg)


def standard_simplex(n: int, cfg: Config = DEFAULT) -> FiniteSimplicialSet:
    return _simplex(n, cfg, boundary=False)


def boundary_simplex(n: int) -> FiniteSimplicialSet:
    return _simplex(n, DEFAULT, boundary=True)


def discrete_sset(elements) -> FiniteSimplicialSet:
    elements = tuple(elements)
    levels = [elements for _ in range(FIXTURE_TOP + 1)]

    def face(n, i, x):
        return x

    def degen(n, i, x):
        return x

    return FiniteSimplicialSet(levels, face, degen, DEFAULT)


def preservation_check(a: SimplicialSieve, b: SimplicialSieve, m: FatPoint,
                       top: int = 2) -> dict:
    """Evaluation turns unions, intersections, products into set operations.

    Each composite is checked twice per level: its level points against the
    set operation on the level points of a and b, and its `member` test on
    every point of pa | pb (pa x pb for the product).
    """
    out = {"union": None, "intersection": None, "product": True}
    composites = {}
    if a.ambient_key() == b.ambient_key():
        composites.update(union=UnionSieve(a, b), intersection=InterSieve(a, b))
        out.update(union=True, intersection=True)
    composites["product"] = ProductSieve(a, b)
    for n in range(top + 1):
        pa = set(a.level_points(m, n))
        pb = set(b.level_points(m, n))
        for name, c in composites.items():
            # level_points first, so the product's cap refuses a level
            # before its pairs are listed here
            got = set(c.level_points(m, n))
            if name == "product":
                domain = want = set(iproduct(pa, pb))
            else:
                domain, want = pa | pb, (pa | pb if name == "union" else pa & pb)
            if got != want or {p for p in domain if c.member(m, n, p)} != want:
                out[name] = False
    out["ok"] = all(v for v in out.values() if v is not None)
    return out

