"""Measures of arc families: finite, limit, lax, relative, and indexed.

A measure query walks a family of sieves living in the arcs of a base along
a system of fat points. Each member contributes its class times a levelwise
Lefschetz correction L^(-ceil(Q * dim)), where the dimension is that of the
ambient arc space at the member's level. The verdict is "stabilized" when
the corrected classes agree in normal form across the final window of the
horizon (an eventually-constant sequence has a filter-independent limit);
finite explicit systems are evaluated at their last member, the principal
case. Anything else is reported indeterminate rather than guessed.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import ceil

from .config import DEFAULT, Config
from .errors import EvalError, WorkbenchError
from .fatpoints import FatPoint, base_point, stabilize
from .kring import (KClass, SClass, class_of_sieve, class_of_simplicial,
                    counting_simplicial, level_class, twist_by_rule)
from .schemes import AffineScheme, weil_restrict
from .sieves import (IndexedAmbient, LevelSieve, LimitSieve, Sieve,
                     arc_plain_sieve, full_sieve, level_presentation)


@dataclass
class MeasureQuery:
    subject: LimitSieve
    Q: Fraction = Fraction(0)
    lax_rule: object = None  # FatPoint -> nonnegative int
    base_ring: str = "absolute"
    relative_base: LimitSieve | None = None
    horizon: int = 8
    window: int = 3

    def __post_init__(self):
        self.Q = Fraction(self.Q)
        if self.Q < 0:
            raise EvalError("Q must be nonnegative")
        if self.window < 2:
            raise EvalError("stability window must be at least 2")
        if self.horizon < self.window:
            raise EvalError("horizon must cover the stability window")


@dataclass
class MeasureReport:
    mode: str
    sequence: list  # (label, SClass)
    stabilized: bool
    value: SClass | None
    since: int | None
    horizon: int
    lax_values: list = dc_field(default_factory=list)
    per_level: list = dc_field(default_factory=list)
    diagnostics: list = dc_field(default_factory=list)


def _ambient_level_dims(member, top: int, cfg: Config):
    """Krull dimension of the ambient arc scheme at each level."""
    dims = []
    for n in range(top + 1):
        scheme = member.ambient.level_scheme(n)
        if scheme is None:
            raise EvalError("no ambient level presentation for the correction")
        dims.append(scheme.ideal.krull_dimension())
    return dims


def _member_value(subject: LimitSieve, m: FatPoint, Q: Fraction, lax,
                  cfg: Config, relative: LimitSieve | None = None) -> SClass:
    member = subject.member_at(m, cfg)
    z = class_of_simplicial(member, cfg)
    top = cfg.skeletal_level
    dims = _ambient_level_dims(member, top, cfg)
    if relative is not None:
        base_member = relative.member_at(m, cfg)
        base_dims = _ambient_level_dims(base_member, top, cfg)
        dims = [a - b for a, b in zip(dims, base_dims)]
    extra = lax(m) if lax is not None else 0
    if extra < 0:
        raise EvalError("lax rule must be nonnegative")

    def rule(n):
        d = dims[min(n, top)]
        return -(ceil(Q * d) + extra)

    if Q == 0 and extra == 0:
        return z
    return twist_by_rule(z, rule, cfg)


def finite_measure(s, m: FatPoint, cfg: Config = DEFAULT) -> KClass:
    """The plain class of the arc member at a single fat point."""
    if isinstance(s, AffineScheme):
        s = full_sieve(s)
    if not isinstance(s, Sieve):
        raise EvalError("finite measure takes a plain sieve or scheme")
    return class_of_sieve(arc_plain_sieve(s, m, cfg), cfg)


def integral_form(s, x: AffineScheme, m: FatPoint, cfg: Config = DEFAULT) -> KClass:
    """Product of the uncorrected class of s and the Q=1 corrected arc of x."""
    if isinstance(s, AffineScheme):
        s = full_sieve(s)
    field = x.field
    f1 = finite_measure(s, base_point(field), cfg)
    arc = weil_restrict(x, m, cfg)
    dim = arc.ideal.krull_dimension()
    f2 = class_of_sieve(full_sieve(arc), cfg).twist(-dim)
    return f1 * f2


def limit_measure(q: MeasureQuery, cfg: Config = DEFAULT) -> MeasureReport:
    subject = q.subject
    system = subject.system
    members = system.materialize(q.horizon)
    finite_system = system.finite
    relative = q.relative_base if q.base_ring != "absolute" else None
    mode = "relative" if relative is not None else (
        "lax" if q.lax_rule is not None else "limit")
    seq = []
    lax_vals = []
    for m in members:
        val = _member_value(subject, m, q.Q, q.lax_rule, cfg, relative)
        seq.append((repr(m), val))
        if q.lax_rule is not None:
            lax_vals.append(q.lax_rule(m))
    values = [v for _, v in seq]
    stabilized, value, since = stabilize(values, q.window, finite_system)
    return MeasureReport(mode=mode, sequence=seq, stabilized=stabilized,
                         value=value, since=since, horizon=q.horizon,
                         lax_values=lax_vals)


def lax_measure(q: MeasureQuery, cfg: Config = DEFAULT) -> MeasureReport:
    if q.lax_rule is None:
        q = MeasureQuery(q.subject, q.Q, lambda m: 0, q.base_ring,
                         q.relative_base, q.horizon, q.window)
    return limit_measure(q, cfg)


def stable_set_measure(family: LimitSieve, horizon: int = 8, window: int = 3,
                       cfg: Config = DEFAULT) -> MeasureReport:
    """Measure a truncation-compatible family at Q = 1, validating first."""
    check = family.battery_validate(min(horizon, 4), cfg)
    if not check["ok"]:
        raise EvalError("incompatible family: %s" % "; ".join(check["issues"]))
    q = MeasureQuery(family, Q=Fraction(1), horizon=horizon, window=window)
    report = limit_measure(q, cfg)
    report.diagnostics.append("family validated to horizon %d" % min(horizon, 4))
    return report


def forget_structure(s, cfg: Config = DEFAULT):
    """Re-present a simplicial sieve as an indexed family of levels."""
    if isinstance(s, LevelSieve) and isinstance(s.ambient, IndexedAmbient):
        return s
    top = cfg.skeletal_level
    if isinstance(s, LevelSieve):
        top = min(top, s.truncation)
    levels = []
    nodes = []
    for n in range(top + 1):
        pres = level_presentation(s, n, cfg)
        if pres is None:
            raise EvalError("no affine presentation at level %d" % n)
        scheme, node = pres
        levels.append(scheme)
        nodes.append(node)
    return LevelSieve(IndexedAmbient(levels), nodes)


def indexed_mode(q: MeasureQuery, cfg: Config = DEFAULT) -> MeasureReport:
    """The same pipeline run on the structure-forgotten members.

    No measure step consults face or degeneracy maps, so the verdict must
    match the structured run; the per-level breakdown is reported too.
    """
    subject = q.subject

    def rule(m):
        return forget_structure(subject.member_at(m, cfg), cfg)

    forgotten = LimitSieve(subject.base, subject.system, rule=rule,
                           label=subject.label)
    q2 = MeasureQuery(forgotten, q.Q, q.lax_rule, q.base_ring,
                      q.relative_base, q.horizon, q.window)
    report = limit_measure(q2, cfg)
    report.mode = "indexed"
    values = [v for _, v in report.sequence]
    top = cfg.skeletal_level
    per_level = []
    for n in range(top + 1):
        try:
            lv = [level_class(v, n, cfg) for v in values]
        except WorkbenchError:
            break
        st, val, since = stabilize(lv, q.window, subject.system.finite)
        per_level.append({"level": n, "stabilized": st, "since": since})
    report.per_level = per_level
    return report


def counting_consistency(report: MeasureReport, probes, window: int,
                         cfg: Config = DEFAULT) -> bool:
    """A stabilized value must count like every member in the final window."""
    if not report.stabilized:
        raise EvalError("no stabilized value to compare")
    tail = [v for _, v in report.sequence][-window:]
    for m, n in probes:
        want = counting_simplicial(report.value, m, n, cfg)
        for v in tail:
            if counting_simplicial(v, m, n, cfg) != want:
                return False
    return True
