"""Point counts of plane curves over F3 at k[t]/(t^n) for n = 13..16, past
the reach of enumeration and of the default caps.

    PYTHONPATH=src python3 tests/long_jets.py

The count mode of the point search solves the linear tail of each jet (the
coordinates of t^8 and up at t^16) by elimination mod 3 instead of trying
its 3^16 values. The counts are checked against closed forms: the cross
x*y has ((n+1)(q-1)+1)*q^(n-1) points and the circle x^2 + y^2 - 1 has
4*q^(n-1); the cusp y^2 - x^3 has 760,492,071 points at t^16 (its counts
satisfy N_n = 3N_{n-1} + 3^7 N_{n-6} - 3^8 N_{n-7}). Prints one line per
count with its time, and exits 1 when a count is wrong. Only the standard
library is used.
"""

import sys
import time

from motivic.config import DEFAULT
from motivic.fatpoints import make_fat_point
from motivic.fields import GF
from motivic.poly import Ideal, Poly
from motivic.schemes import AffineScheme, count_points

LONG = DEFAULT.with_overrides(max_candidates=10 ** 60, max_degree=64)
Q = 3


def main():
    field = GF(Q)
    vs = ("x", "y")
    x, y = (Poly.variable(v, vs, field) for v in vs)
    one = Poly.constant(1, vs, field)
    t = Poly.variable("t", ("t",), field)
    curves = {"cross": x * y, "circle": x * x + y * y - one, "cusp": y * y - x ** 3}
    wanted = []
    for n in range(13, 17):
        wanted.append(("cross", n, ((n + 1) * (Q - 1) + 1) * Q ** (n - 1)))
        wanted.append(("circle", n, 4 * Q ** (n - 1)))
    wanted.append(("cusp", 16, 760492071))
    wrong = 0
    for name, n, want in wanted:
        scheme = AffineScheme(name, Ideal(vs, field, [curves[name]], LONG))
        m = make_fat_point(("t",), field, [t ** n], "t%d" % n, cfg=LONG)
        start = time.perf_counter()
        got = count_points(scheme, m)
        ok = got == want
        wrong += not ok
        print("%-6s t^%d %d %s (%.2f s)" % (name, n, got, "ok" if ok else
                                            "WRONG, want %d" % want,
                                            time.perf_counter() - start))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
