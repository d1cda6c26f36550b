"""Measures of arc families: finite, limit, lax, and indexed.

A measure query walks a family of sieves living in the arcs of a base along
a system of fat points. Each member contributes its class times a levelwise
Lefschetz correction L^(-ceil(Q * dim)) on its levels 0..truncation, where
the dimension is that of the ambient arc space at the member's level; the
member's shape gives both (`truncation`, `dimension(n)`), so no level is
presented to learn them. The verdict is "stabilized" when the corrected
classes agree in normal form across the final window of the horizon (an
eventually-constant sequence has a filter-independent limit); finite
explicit systems are evaluated at their last member, the principal case.
Anything else is reported indeterminate rather than guessed. Indexed mode
is the same run, with each level's stabilization read off its sequence.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil

from .errors import EvalError, WorkbenchError
from .fatpoints import FatPoint, stabilize
from .kring import (KClass, SClass, class_of_sieve, class_of_simplicial,
                    counting_simplicial, level_class, twist_levels)
from .schemes import AffineScheme
from .sieves import LimitSieve, Sieve, arc_plain_sieve, full_sieve


class MeasureQuery:
    def __init__(self, subject: LimitSieve, Q: Fraction = Fraction(0),
                 lax_rule=None, horizon: int = 8, window: int = 3):
        self.subject = subject
        self.Q = Fraction(Q)
        self.lax_rule = lax_rule  # FatPoint -> nonnegative int
        self.horizon = horizon
        self.window = window
        if self.Q < 0:
            raise EvalError("Q must be nonnegative")
        if window < 2:
            raise EvalError("stability window must be at least 2")
        if horizon < window:
            raise EvalError("horizon must cover the stability window")


class MeasureReport:
    def __init__(self, mode: str, sequence: list, stabilized: bool,
                 value: SClass | None, since: int | None):
        self.mode = mode
        self.sequence = sequence  # (label, SClass)
        self.stabilized = stabilized
        self.value = value
        self.since = since
        self.per_level = []
        self.diagnostics = []


def _member_value(subject: LimitSieve, m: FatPoint, Q: Fraction, lax) -> SClass:
    member = subject.member_at(m)
    z = class_of_simplicial(member)
    extra = lax(m) if lax is not None else 0
    if extra < 0:
        raise EvalError("lax rule must be nonnegative")
    if Q == 0 and extra == 0:
        return z
    return twist_levels(z, [-(ceil(Q * member.dimension(n)) + extra)
                            for n in range(member.truncation + 1)])


def finite_measure(s, m: FatPoint) -> KClass:
    """The plain class of the arc member at a single fat point."""
    if isinstance(s, AffineScheme):
        s = full_sieve(s)
    if not isinstance(s, Sieve):
        raise EvalError("finite measure takes a plain sieve or scheme")
    return class_of_sieve(arc_plain_sieve(s, m))


def limit_measure(q: MeasureQuery) -> MeasureReport:
    subject = q.subject
    system = subject.system
    mode = "lax" if q.lax_rule is not None else "limit"
    seq = [(repr(m), _member_value(subject, m, q.Q, q.lax_rule))
           for m in system.materialize(q.horizon)]
    values = [v for _, v in seq]
    stabilized, value, since = stabilize(values, q.window, system.finite)
    return MeasureReport(mode=mode, sequence=seq, stabilized=stabilized,
                         value=value, since=since)


def lax_measure(q: MeasureQuery) -> MeasureReport:
    if q.lax_rule is None:
        q = MeasureQuery(q.subject, q.Q, lambda m: 0, q.horizon, q.window)
    return limit_measure(q)


def indexed_mode(q: MeasureQuery) -> MeasureReport:
    """The limit measure with its per-level breakdown: for each level up to
    the base's truncation, whether the plain classes of that level stabilize
    along the sequence, and from where. The breakdown reads the sequence of
    the run it reports; a level no value can give stops it, with a
    diagnostic."""
    report = limit_measure(q)
    report.mode = "indexed"
    values = [v for _, v in report.sequence]
    for n in range(q.subject.base.truncation + 1):
        try:
            lv = [level_class(v, n) for v in values]
        except WorkbenchError as exc:
            report.diagnostics.append("per-level breakdown stops at level %d: %s"
                                      % (n, exc))
            break
        st, _, since = stabilize(lv, q.window, q.subject.system.finite)
        report.per_level.append({"level": n, "stabilized": st, "since": since})
    return report


def counting_consistency(report: MeasureReport, probes, window: int) -> bool:
    """A stabilized value must count like every member in the final window."""
    if not report.stabilized:
        raise EvalError("no stabilized value to compare")
    tail = [v for _, v in report.sequence][-window:]
    for m, n in probes:
        want = counting_simplicial(report.value, m, n)
        for v in tail:
            if counting_simplicial(v, m, n) != want:
                return False
    return True
