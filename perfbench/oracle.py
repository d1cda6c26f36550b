"""Brute-force point counts, independent of the program under test.

A fat point here is a box ``k[t_1..t_r]/(t_1^d_1, .., t_r^d_r)`` over F_p,
held as its dimension tuple: ``(n,)`` is the jet point ``k[t]/(t^n)`` and
``(i, j)`` the tensor point ``k[s]/(s^i) (x) k[t]/(t^j)``.  An element is a
tuple of plain ints mod p, one per monomial of the box.  Every candidate
point is tried; nothing is pruned or shared with ``motivic``.

Sieve leaves: a point lies in ``V(g..)`` when every coefficient of every
``g`` vanishes, and in ``D(g)`` when the constant term of ``g`` is nonzero.
"""

from __future__ import annotations

from itertools import product

from gen import AMBIENTS


class Box:
    def __init__(self, p, dims):
        self.p = p
        monos = list(product(*(range(d) for d in dims)))
        index = {m: i for i, m in enumerate(monos)}
        self.size = len(monos)
        self.table = []
        for i, a in enumerate(monos):
            for j, b in enumerate(monos):
                c = tuple(x + y for x, y in zip(a, b))
                if c in index:
                    self.table.append((i, j, index[c]))

    def mul(self, u, v):
        out = [0] * self.size
        for i, j, k in self.table:
            out[k] += u[i] * v[j]
        return [c % self.p for c in out]

    def elements(self):
        return product(range(self.p), repeat=self.size)

    def eval(self, poly, point, powers):
        """Value of a polynomial spec at a point, as a coefficient list."""
        out = [0] * self.size
        for c, exps in poly:
            term = [0] * self.size
            term[0] = c % self.p
            for v, e in enumerate(exps):
                if e:
                    term = self.mul(term, power(self, powers, point, v, e))
            out = [a + b for a, b in zip(out, term)]
        return [a % self.p for a in out]


def power(box, cache, point, v, e):
    key = (v, e)
    if key not in cache:
        cache[key] = list(point[v]) if e == 1 else box.mul(
            power(box, cache, point, v, e - 1), point[v])
    return cache[key]


def member(box, tree, point, powers) -> bool:
    tag = tree[0]
    if tag == "full":
        return True
    if tag == "empty":
        return False
    if tag == "V":
        return all(not any(box.eval(g, point, powers)) for g in tree[1])
    if tag == "D":
        return box.eval(tree[1], point, powers)[0] != 0
    if tag == "and":
        return member(box, tree[1], point, powers) and member(box, tree[2], point, powers)
    return member(box, tree[1], point, powers) or member(box, tree[2], point, powers)


def count(p, dims, ambient, tree=None) -> int:
    """Points of the sieve `tree` (None: the whole ambient) at the box."""
    box = Box(p, dims)
    vars, rels = AMBIENTS[ambient]
    full = ("V", rels) if rels else ("full",)
    test = full if tree is None else ("and", full, tree)
    hits = 0
    for point in product(list(box.elements()), repeat=len(vars)):
        if member(box, test, point, {}):
            hits += 1
    return hits


def simplicial_count(p, dims, ambient, tree, shape, level) -> int:
    """Level `level` of the trivial, fiber-power or symmetric-power shape."""
    base = count(p, dims, ambient, tree)
    if shape == "trivial":
        return base
    if shape == "fiber":
        return base ** (level + 1)
    # multisets of size level + 1 drawn from `base` points
    num = den = 1
    for i in range(level + 1):
        num *= base + i
        den *= i + 1
    return num // den
