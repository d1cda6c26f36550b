"""Command line driver: evaluate workbench scripts and emit reports.

A report is a sequence of records, one per statement, each a block of
key=value lines; blocks are separated by a single blank line.  Output is
deterministic: same script, same flags, same bytes.

Exit codes: 0 all statements evaluated and all checks passed, 1 at least one
check failed, 2 at least one statement raised an evaluation error, 3 the
script did not parse. An exception that is not a WorkbenchError is an
internal error: its statement reports ``error=internal: <type name>``, its
traceback goes to standard error, and the other statements are reported as
usual.
"""

from __future__ import annotations

import os
import sys

from . import dsl
from .config import Config, DEFAULT, from_environment
from .errors import WorkbenchError, EvalError
from .fields import Field, GF, QQ
from .fatpoints import FatPoint, PointSystem, base_point, jet_rule, make_fat_point
from .kring import (KClass, SClass, class_of_scheme, class_of_sieve,
                    class_of_simplicial, class_str, counting_hom,
                    counting_simplicial, discrete_hom_check, galois_check,
                    kclass_int, lefschetz, lift_const)
from .measures import MeasureQuery, limit_measure
from .poly import Ideal, Poly
from .schemes import AffineScheme, CoordMap, adjunction_check
from .sieves import (LimitSieve, Sieve, arc_plain_sieve, closed_sieve,
                     continuity_probe, empty_sieve, full_sieve, image_sieve,
                     lift_sieve, node_str, open_sieve, sieve_inter,
                     sieve_union)
from .topology import preservation_check


# -- building values from ASTs ----------------------------------------------

def poly_from_ast(ast, vars, field: Field) -> Poly:
    """The polynomial of a parsed sum, made as one `Poly`: the terms are
    summed into one dict, a coefficient that cancels leaving it."""
    vars = tuple(vars)
    zero = field.zero
    terms = {}
    for sign, coef, factors in ast:
        exps = [0] * len(vars)
        for v, e in factors:
            if v not in vars:
                raise EvalError("unknown variable %r (ambient has %s)"
                                % (v, ", ".join(vars) or "no variables"))
            exps[vars.index(v)] += e
        c = field.one if coef is None else field.of(coef)
        if sign < 0:
            c = field.neg(c)
        e = tuple(exps)
        c = field.add(terms.get(e, zero), c)
        if c:
            terms[e] = c
        else:
            terms.pop(e, None)
    return Poly(vars, field, terms)


def _algebra_parts(alg: dsl.Algebra, field: Field):
    gens = [poly_from_ast(g, alg.vars, field) for g in alg.gens]
    return tuple(alg.vars), gens


class Session:
    """Evaluation environment for one script."""

    def __init__(self, cfg: Config = DEFAULT, field: Field | None = None):
        self.cfg = cfg
        self.field = field
        self.field_declared = False
        self.env = {}     # name -> (kind, value)

    # -- helpers ---------------------------------------------------------

    def need_field(self) -> Field:
        if self.field is None:
            raise EvalError("no base field declared (use: field Q | field F p)")
        return self.field

    def bind(self, name, kind, value):
        if name in self.env:
            raise EvalError("name %r is already bound" % name)
        self.env[name] = (kind, value)

    def lookup(self, name, kinds=None):
        if name not in self.env:
            raise EvalError("unknown name %r" % name)
        kind, value = self.env[name]
        if kinds is not None and kind not in kinds:
            raise EvalError("%r is a %s, expected %s"
                            % (name, kind, " or ".join(kinds)))
        return kind, value

    def fat_point(self, name) -> FatPoint:
        return self.lookup(name, ("fatpoint",))[1]

    def as_sieve(self, name) -> Sieve:
        kind, value = self.lookup(name, ("scheme", "sieve"))
        return full_sieve(value) if kind == "scheme" else value

    def _fat_point(self, alg: dsl.Algebra, name: str) -> FatPoint:
        field = self.need_field()
        vars, gens = _algebra_parts(alg, field)
        if not vars:
            return base_point(field)
        return make_fat_point(vars, field, gens, name=name, cfg=self.cfg)

    # -- declaration evaluation -------------------------------------------

    def eval_field(self, st):
        if self.field_declared:
            raise EvalError("the base field is already declared")
        if self.env:
            raise EvalError("declare the field before any other object")
        tag, p = st.payload
        self.field = QQ if tag == "Q" else GF(p)
        self.field_declared = True
        return {"value": repr(self.field)}

    def eval_fatpoint(self, st):
        m = self._fat_point(st.payload[0], st.name)
        self.bind(st.name, "fatpoint", m)
        return {"length": str(m.length)}

    def eval_chain(self, st):
        mode, body = st.payload
        if mode == "rule":
            system = PointSystem(rule=jet_rule(self.need_field(), body, self.cfg))
        else:
            system = PointSystem(members=[
                self._fat_point(alg, "%s.%d" % (st.name, i))
                for i, alg in enumerate(body)])
        self.bind(st.name, "chain", system)
        return {"mode": mode}

    def eval_scheme(self, st):
        field = self.need_field()
        vars, gens = _algebra_parts(st.payload[0], field)
        x = AffineScheme(st.name, Ideal(vars, field, gens, self.cfg))
        self.bind(st.name, "scheme", x)
        return {"vars": str(len(vars)), "relations": str(len(gens))}

    def eval_map(self, st):
        src_name, tgt_name, assigns = st.payload
        src = self.lookup(src_name, ("scheme",))[1]
        tgt = self.lookup(tgt_name, ("scheme",))[1]
        images = {}
        for v, past in assigns:
            if v not in tgt.vars:
                raise EvalError("%r is not a coordinate of %s" % (v, tgt_name))
            if v in images:
                raise EvalError("coordinate %r assigned twice" % v)
            images[v] = poly_from_ast(past, src.vars, src.field)
        missing = [v for v in tgt.vars if v not in images]
        if missing:
            raise EvalError("map leaves %s unassigned" % ", ".join(missing))
        f = CoordMap(src, tgt, images)
        if not f.respects_relations():
            raise EvalError("map does not respect the target relations")
        self.bind(st.name, "map", f)
        return {"source": src_name, "target": tgt_name}

    def _sieve_from_expr(self, expr, ambient: AffineScheme) -> Sieve:
        tag = expr[0]
        if tag == "V":
            gens = [poly_from_ast(g, ambient.vars, ambient.field) for g in expr[1]]
            return closed_sieve(ambient, gens)
        if tag == "D":
            return open_sieve(ambient,
                              poly_from_ast(expr[1], ambient.vars, ambient.field))
        if tag == "im":
            f = self.lookup(expr[1], ("map",))[1]
            if f.target != ambient:
                raise EvalError("image of %r lives in a different ambient" % expr[1])
            s = image_sieve(f)
            return Sieve(ambient, s.node)
        if tag == "full":
            return full_sieve(ambient)
        if tag == "empty":
            return empty_sieve(ambient)
        if tag == "ref":
            s = self.lookup(expr[1], ("sieve",))[1]
            if s.ambient != ambient:
                raise EvalError("sieve %r lives in a different ambient" % expr[1])
            return s
        left = self._sieve_from_expr(expr[1], ambient)
        right = self._sieve_from_expr(expr[2], ambient)
        return sieve_union(left, right) if tag == "or" else sieve_inter(left, right)

    def eval_sieve(self, st):
        expr, ambient_name = st.payload
        ambient = self.lookup(ambient_name, ("scheme",))[1]
        s = self._sieve_from_expr(expr, ambient)
        self.bind(st.name, "sieve", s)
        return {"ambient": ambient_name, "node": node_str(s.node)}

    def eval_simplicial(self, st):
        tag, arg, level = st.payload
        if level < 0:
            raise EvalError("truncation level must be nonnegative")
        s = self.as_sieve(arg)
        lifted = lift_sieve(s, tag)
        self.bind(st.name, "simplicial", (lifted, level))
        return {"shape": tag, "truncation": str(level)}

    def _class_from_expr(self, expr):
        field = self.need_field()
        tag = expr[0]
        if tag == "int":
            return kclass_int(field, expr[1])
        if tag == "lef":
            return lefschetz(field, expr[1])
        if tag == "bracket":
            kind, value = self.lookup(
                expr[1], ("scheme", "sieve", "simplicial", "class"))
            if kind == "scheme":
                return class_of_scheme(value)
            if kind == "sieve":
                return class_of_sieve(value)
            if kind == "simplicial":
                return class_of_simplicial(value[0])
            return value
        left = self._class_from_expr(expr[1])
        right = self._class_from_expr(expr[2])
        if tag == "add":
            return left + right
        if tag == "sub":
            return left - right
        if isinstance(left, KClass) and isinstance(right, SClass):
            left = lift_const(left)    # the product takes the session config
        if isinstance(left, SClass):
            return left.mul(right, self.cfg)
        return left * right

    def eval_class(self, st):
        z = self._class_from_expr(st.payload[0])
        self.bind(st.name, "class", z)
        return {"value": class_str(z),
                "simplicial": str(isinstance(z, SClass)).lower()}

    # -- queries -----------------------------------------------------------

    def eval_count(self, st):
        subject, point, level = st.payload
        m = self.fat_point(point)
        kind, value = self.lookup(
            subject, ("scheme", "sieve", "simplicial", "class"))
        out = {"subject": subject, "point": point}
        if kind in ("scheme", "sieve"):
            if level is not None:
                raise EvalError("plain %ss take no level" % kind)
            n = self.as_sieve(subject).count(m)
        elif kind == "simplicial":
            lifted, bound = value
            lvl = 0 if level is None else level
            if lvl > bound:
                raise EvalError("level %d exceeds the declared truncation %d"
                                % (lvl, bound))
            out["level"] = str(lvl)
            n = lifted.count(m, lvl)
        else:
            if isinstance(value, SClass):
                lvl = 0 if level is None else level
                out["level"] = str(lvl)
                n = counting_simplicial(value, m, lvl)
            else:
                if level is not None:
                    raise EvalError("plain classes take no level")
                n = counting_hom(value, m)
        out["value"] = str(n)
        return out

    def eval_arc(self, st):
        subject, point = st.payload
        m = self.fat_point(point)
        kind = self.lookup(subject, ("scheme", "sieve"))[0]
        arc = arc_plain_sieve(self.as_sieve(subject), m)
        out = {"subject": subject, "point": point,
               "vars": str(len(arc.ambient.vars)),
               "relations": str(len(arc.ambient.ideal.gens))}
        if kind == "scheme":
            out["dim"] = str(arc.ambient.ideal.krull_dimension())
        else:
            out["node"] = node_str(arc.node)
        return out

    def eval_measure(self, st):
        subject, chain, qval, lax, horizon, window = st.payload
        system = self.lookup(chain, ("chain",))[1]
        family = LimitSieve(self.as_sieve(subject), system)
        rule = None
        if lax is not None:
            a, b = lax
            rule = lambda m: a * m.length + b
        query = MeasureQuery(
            subject=family, Q=qval, lax_rule=rule,
            horizon=self.cfg.horizon if horizon is None else horizon,
            window=self.cfg.window if window is None else window)
        rep = limit_measure(query)
        out = {"subject": subject, "chain": chain, "q": str(qval)}
        if lax is not None:
            out["lax"] = dsl.lax_str(lax)
        out["horizon"] = str(query.horizon)
        out["window"] = str(query.window)
        out["mode"] = rep.mode
        out["stabilized"] = str(rep.stabilized).lower()
        if rep.stabilized:
            out["since"] = str(rep.since)
            out["value"] = class_str(rep.value)
        else:
            out["value"] = "indeterminate"
        return out

    # -- checks -----------------------------------------------------------

    def eval_check(self, st):
        what, names, point, level = st.payload
        out = {"what": what}
        if what == "adjunction":
            x = self.lookup(names[0], ("scheme",))[1]
            m = self.fat_point(names[1])
            a = self.fat_point(names[2])
            rep = adjunction_check(x, m, a)
            out.update(subject=names[0], point=names[1], probe=names[2],
                       tensor_count=str(rep["tensor_count"]),
                       arc_count=str(rep["arc_count"]))
            ok = rep["bijection"]
        elif what == "scissor":
            a = self.as_sieve(names[0])
            b = self.as_sieve(names[1])
            za = class_of_sieve(a)
            zb = class_of_sieve(b)
            zu = class_of_sieve(sieve_union(a, b))
            zi = class_of_sieve(sieve_inter(a, b))
            ok = (zu + zi) == (za + zb)
            out.update(left=names[0], right=names[1],
                       value=class_str(zu + zi))
            if point is not None:
                m = self.fat_point(point)
                out["point"] = point
                lhs = a.count(m) + b.count(m)
                rhs = sieve_union(a, b).count(m) + sieve_inter(a, b).count(m)
                hom = counting_hom(zu + zi, m)
                out["count"] = str(rhs)
                ok = ok and lhs == rhs and hom == rhs
        elif what == "continuity":
            f = self.lookup(names[0], ("map",))[1]
            host = self.as_sieve(names[1])
            adm = self.as_sieve(names[2])
            m = self.fat_point(point) if point is not None else None
            rep = continuity_probe(f, m, host, adm)
            out.update(map=names[0], host=names[1], open=names[2])
            if point is not None:
                out["point"] = point
            out["admissible_before"] = str(rep["admissible_before"]).lower()
            out["admissible_after"] = str(rep["admissible_after"]).lower()
            if rep["semantic"] is not None:
                out["semantic"] = str(rep["semantic"]).lower()
            ok = rep["ok"]
        elif what == "tau":
            y = self.lookup(names[0], ("scheme",))[1]
            lifted, bound = self.lookup(names[1], ("simplicial",))[1]
            m = self.fat_point(point)
            top = min(bound, 1) if level is None else level
            rep = discrete_hom_check(y, lifted, m, top)
            out.update(source=names[0], target=names[1], point=point,
                       level=str(top), morphisms=str(rep["morphisms"]),
                       expected=str(rep["expected"]))
            ok = rep["ok"]
        elif what == "pushpull":
            f = self.lookup(names[0], ("map",))[1]
            a = self.as_sieve(names[1])
            b = self.as_sieve(names[2])
            m = self.fat_point(point)
            rep = galois_check(f, a, b, m)
            out.update(map=names[0], left=names[1], right=names[2], point=point,
                       forward=str(rep["left"]).lower(),
                       backward=str(rep["right"]).lower())
            ok = rep["ok"]
        else:  # topo
            la, ba = self.lookup(names[0], ("simplicial",))[1]
            lb, bb = self.lookup(names[1], ("simplicial",))[1]
            m = self.fat_point(point)
            top = min(ba, bb, 2) if level is None else level
            rep = preservation_check(la, lb, m, top)
            out.update(left=names[0], right=names[1], point=point, level=str(top))
            for key in ("union", "intersection", "product"):
                if rep[key] is not None:
                    out[key] = str(rep[key]).lower()
            ok = rep["ok"]
        out["ok"] = str(ok).lower()
        return out, ok

    # -- dispatch -----------------------------------------------------------

    def evaluate(self, st):
        """(record fields, check_ok or None).  Raises on evaluation errors."""
        if st.kind == "check":
            return self.eval_check(st)
        handler = getattr(self, "eval_" + st.kind)
        return handler(st), None


# -- report emission ----------------------------------------------------------

def run_script(text, cfg: Config = DEFAULT, field: Field | None = None):
    """(report text, exit code) for one script."""
    try:
        stmts = dsl.parse_script(text)
    except dsl.ScriptError as err:
        block = "stmt=0\nkind=parse\nline=%d\nstatus=error\nerror=%s\n" % (
            err.line, str(err).replace("\n", " "))
        return block, 3

    session = Session(cfg, field)
    blocks = []
    any_error = False
    any_failed = False
    for i, st in enumerate(stmts, start=1):
        lines = ["stmt=%d" % i, "kind=%s" % st.kind]
        if st.name is not None:
            lines.append("name=%s" % st.name)
        lines.append("text=%s" % dsl.print_statement(st))
        try:
            fields, ok = session.evaluate(st)
        except WorkbenchError as err:
            any_error = True
            lines.append("status=error")
            lines.append("error=%s" % str(err).replace("\n", " "))
        except Exception as err:
            # a fault of the workbench, not of the script: the report names
            # its type only and goes on; the traceback goes to stderr
            import traceback
            traceback.print_exc(file=sys.stderr)
            any_error = True
            lines.append("status=error")
            lines.append("error=internal: %s" % type(err).__name__)
        else:
            for key, val in fields.items():
                lines.append("%s=%s" % (key, val))
            if ok is False:
                any_failed = True
            lines.append("status=ok")
        blocks.append("\n".join(lines) + "\n")
    code = 2 if any_error else (1 if any_failed else 0)
    return "\n".join(blocks), code


# -- entry point ---------------------------------------------------------------

def _field_from_label(label: str) -> Field:
    label = label.strip()
    if label in ("Q", "q"):
        return QQ
    if label and label[0] in ("F", "f") and label[1:].isdigit():
        return GF(int(label[1:]))
    raise WorkbenchError("bad field label %r (use Q or F<p>)" % label)


def build_parser():
    # imported here, not at module level: the library and run_script never
    # parse arguments, and argparse is a sizeable share of a cold import
    import argparse

    ap = argparse.ArgumentParser(
        prog="motivic",
        description="evaluate a workbench script and print a key=value report")
    ap.add_argument("script", nargs="?", default=None,
                    help="script path (default: read stdin)")
    ap.add_argument("--field", default=None,
                    help="default base field (Q or F<p>) for scripts"
                         " without a field declaration")
    ap.add_argument("--format", action="store_true",
                    help="parse and reprint the script canonically, do not run")
    ap.add_argument("--horizon", type=int, default=None)
    ap.add_argument("--window", type=int, default=None)
    ap.add_argument("--max-candidates", type=int, default=None, dest="max_candidates")
    ap.add_argument("--skeletal-level", type=int, default=None, dest="skeletal_level")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = from_environment()
    except WorkbenchError as err:
        sys.stderr.write("motivic: %s\n" % err)
        return 2
    cfg = cfg.with_overrides(horizon=args.horizon, window=args.window,
                             max_candidates=args.max_candidates,
                             skeletal_level=args.skeletal_level)

    field = None
    label = args.field if args.field is not None else os.environ.get("MOTIVIC_FIELD")
    if label:
        try:
            field = _field_from_label(label)
        except WorkbenchError as err:
            sys.stderr.write("motivic: %s\n" % err)
            return 2

    if args.script is None or args.script == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.script, "r") as fh:
                text = fh.read()
        except OSError as err:
            sys.stderr.write("motivic: %s\n" % err)
            return 2

    if args.format:
        try:
            sys.stdout.write(dsl.print_script(dsl.parse_script(text)))
        except dsl.ScriptError as err:
            sys.stderr.write("motivic: line %d: %s\n" % (err.line, err))
            return 3
        return 0

    report, code = run_script(text, cfg, field)
    sys.stdout.write(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
