"""Script language for the workbench: tokenizer, parser, pretty-printer.

One statement per line.  '#' starts a comment.  A line is tokenized by one
regex scan (`_TOKEN.findall` over the text before any '#'): each match is an
integer, a name, '->', a one-character operator, or a catch-all non-blank
character, which is the `bad character` error.  The parser produces small
tuple and record ASTs that the printer turns back into canonical text; the
printer output reparses to the identical AST, so print . parse is idempotent
on every accepted script.

Grammar (canonical forms as printed):

    field Q | field F 2
    fatpoint NAME = k[t]/(t^2)              (also k, k[x,y])
    chain NAME = rule t^n
    chain NAME = [k[t]/(t^2), k[t]/(t^3)]
    scheme NAME = Spec k[x,y]/(y - x^2)
    map NAME = SRC -> TGT : u -> x^2, v -> x*y
    sieve NAME = V(x) & D(y) | im(f) in X
    simplicial NAME = fiber(NAME) @ 3
    class NAME = [s] + L^-2 * [t] - 3
    count NAME at NAME [level INT]
    arc NAME at NAME
    measure NAME on NAME Q=1/2 [lax 2n+1] [horizon INT] [window INT]
    check adjunction X M A
    check scissor A B [at M]
    check continuity F HOST ADM [at M]
    check tau Y S at M [level INT]
    check pushpull F A B at M
    check topo A B at M [level INT]

'&' binds tighter than '|'; '*' binds tighter than '+'/'-'; both associate
left.  Polynomials use the same shape the printer in poly.py emits: terms
joined by ' + ' / ' - ', factors joined by '*', exponents with '^'.  A
coefficient and a measure's rate have one reader, `_fraction`: an integer
or a/b, where b = 0 is a parse error on its line (whether b is invertible
in the base field is for evaluation to say).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import WorkbenchError
from .records import Record


class ScriptError(WorkbenchError):
    """Parse failure: the bare message, and its line number (1-based)."""

    def __init__(self, msg, line):
        super().__init__(msg)
        self.line = line


# -- tokens --------------------------------------------------------------

# one alternative per token kind; the catch-all last group is any other
# non-blank character, and whitespace between tokens matches nothing
_TOKEN = re.compile(r"(\d+)|([A-Za-z_][A-Za-z0-9_']*)|(->|[][()=^+*/,&|@:<>-])|(\S)")

_EOF = ("eof", None)


def tokenize_line(text, line_no):
    """List of (kind, value) pairs; kind in {'int', 'name', 'op'}."""
    toks = []
    for num, name, op, bad in _TOKEN.findall(text.split("#", 1)[0]):
        if num:
            try:
                toks.append(("int", int(num)))
            except ValueError:    # past the interpreter's int-from-text limit
                raise ScriptError("integer of %d digits is too long" % len(num),
                                  line_no) from None
        elif name:
            toks.append(("name", name))
        elif op:
            toks.append(("op", op))
        else:
            raise ScriptError("bad character %r" % bad, line_no)
    return toks


class _Cursor:
    """The tokens of one line, read left to right. The list ends in an
    ("eof", None) sentinel, so a read needs no bounds check. No read goes
    past it: every caller that consumes the sentinel fails on it."""

    def __init__(self, toks, line_no):
        self.toks = [*toks, _EOF]
        self.i = 0
        self.line = line_no

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def done(self):
        return self.toks[self.i] is _EOF

    def fail(self, msg):
        raise ScriptError(msg, self.line)

    def expect_op(self, op):
        k, v = self.next()
        if k != "op" or v != op:
            self.fail("expected %r, found %r" % (op, v if k != "eof" else "end of line"))

    def expect_name(self, what="a name"):
        k, v = self.next()
        if k != "name":
            self.fail("expected %s, found %r" % (what, v if k != "eof" else "end of line"))
        return v

    def expect_int(self, what="an integer"):
        k, v = self.next()
        if k != "int":
            self.fail("expected %s, found %r" % (what, v if k != "eof" else "end of line"))
        return v

    def accept_op(self, op):
        if self.toks[self.i] == ("op", op):
            self.i += 1
            return True
        return False

    def accept_name(self, word):
        if self.toks[self.i] == ("name", word):
            self.i += 1
            return True
        return False


# -- statement AST --------------------------------------------------------

class Algebra(Record):
    __slots__ = ("vars", "gens")

    def __init__(self, vars: tuple, gens: tuple):
        object.__setattr__(self, "vars", vars)    # variable names
        object.__setattr__(self, "gens", gens)    # PolyAst generators


class Statement(Record):
    __slots__ = ("kind", "name", "payload", "line")

    def __init__(self, kind: str, name: str | None, payload: tuple, line: int = 0):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "line", line)

    def __repr__(self):
        return "Statement(%s)" % print_statement(self)


# PolyAst: tuple of terms, term = (sign, Fraction|None coef, ((var, exp), ...)).
# coef None means an implicit 1 in front of a monomial.


def _fraction(c):
    """The one reader of a number: int or int/int, as a Fraction. A zero
    denominator fails here, on its line, like any other parse error."""
    num = c.expect_int("a numerator")
    if not c.accept_op("/"):
        return Fraction(num)
    den = c.expect_int("a denominator")
    if den == 0:
        c.fail("zero denominator in %d/0" % num)
    return Fraction(num, den)


def _parse_mono_factor(c):
    v = c.expect_name("a variable")
    e = 1
    if c.accept_op("^"):
        e = c.expect_int("an exponent")
    return (v, e)


def _parse_poly_term(c):
    """One signed term after the sign has been consumed."""
    coef = None
    if c.peek()[0] == "int":
        coef = _fraction(c)
        if not c.accept_op("*"):
            return (coef, ())
    factors = [_parse_mono_factor(c)]
    while c.accept_op("*"):
        factors.append(_parse_mono_factor(c))
    return (coef, tuple(factors))


def parse_poly(c):
    terms = []
    sign = -1 if c.accept_op("-") else 1
    coef, factors = _parse_poly_term(c)
    terms.append((sign, coef, factors))
    while True:
        if c.accept_op("+"):
            sign = 1
        elif c.accept_op("-"):
            sign = -1
        else:
            break
        coef, factors = _parse_poly_term(c)
        terms.append((sign, coef, factors))
    return tuple(terms)


def poly_ast_str(ast):
    bits = []
    for sign, coef, factors in ast:
        mono = "*".join(v if e == 1 else "%s^%d" % (v, e) for v, e in factors)
        if coef is None:
            piece = mono
        elif mono:
            piece = "%s*%s" % (coef, mono)
        else:
            piece = str(coef)
        bits.append((sign, piece))
    out = ("-" if bits[0][0] < 0 else "") + bits[0][1]
    for sign, piece in bits[1:]:
        out += (" + " if sign > 0 else " - ") + piece
    return out


def _parse_poly_list(c):
    """Polynomials separated by commas, up to a closing parenthesis."""
    polys = [parse_poly(c)]
    while c.accept_op(","):
        polys.append(parse_poly(c))
    c.expect_op(")")
    return tuple(polys)


def parse_algebra(c):
    """k, k[vars], or k[vars]/(gens)."""
    k, v = c.next()
    if k != "name" or v != "k":
        c.fail("an algebra starts with 'k'")
    if not c.accept_op("["):
        return Algebra((), ())
    names = [c.expect_name("a variable")]
    while c.accept_op(","):
        names.append(c.expect_name("a variable"))
    c.expect_op("]")
    gens = ()
    if c.accept_op("/"):
        c.expect_op("(")
        gens = _parse_poly_list(c)
    return Algebra(tuple(names), gens)


def algebra_str(a):
    if not a.vars:
        return "k"
    head = "k[%s]" % ", ".join(a.vars)
    if not a.gens:
        return head
    return "%s/(%s)" % (head, ", ".join(poly_ast_str(g) for g in a.gens))


# -- sieve expressions ----------------------------------------------------

def _parse_sieve_atom(c):
    if c.accept_op("("):
        e = parse_sieve_expr(c)
        c.expect_op(")")
        return e
    name = c.expect_name("a sieve term")
    k, v = c.peek()
    if k == "op" and v == "(":
        c.next()
        if name == "V":
            return ("V", _parse_poly_list(c))
        if name == "D":
            g = parse_poly(c)
            c.expect_op(")")
            return ("D", g)
        if name == "im":
            inner = c.expect_name("a map name")
            c.expect_op(")")
            return ("im", inner)
        c.fail("unknown sieve constructor %r" % name)
    if name == "full":
        return ("full",)
    if name == "empty":
        return ("empty",)
    return ("ref", name)


def _parse_sieve_term(c):
    e = _parse_sieve_atom(c)
    while c.accept_op("&"):
        e = ("and", e, _parse_sieve_atom(c))
    return e


def parse_sieve_expr(c):
    e = _parse_sieve_term(c)
    while c.accept_op("|"):
        e = ("or", e, _parse_sieve_term(c))
    return e


def sieve_expr_str(e, prec=0):
    """prec 0 = union context, 1 = intersection context."""
    tag = e[0]
    if tag == "V":
        return "V(%s)" % ", ".join(poly_ast_str(g) for g in e[1])
    if tag == "D":
        return "D(%s)" % poly_ast_str(e[1])
    if tag == "im":
        return "im(%s)" % e[1]
    if tag in ("full", "empty"):
        return tag
    if tag == "ref":
        return e[1]
    if tag == "and":
        return "%s & %s" % (sieve_expr_str(e[1], 1), sieve_expr_str(e[2], 1))
    # union: parenthesize when sitting inside an intersection
    body = "%s | %s" % (sieve_expr_str(e[1], 0), sieve_expr_str(e[2], 0))
    return "(%s)" % body if prec > 0 else body


# -- class expressions ----------------------------------------------------

def _parse_class_factor(c):
    if c.accept_op("("):
        e = parse_class_expr(c)
        c.expect_op(")")
        return e
    if c.accept_op("["):
        name = c.expect_name("an object name")
        c.expect_op("]")
        return ("bracket", name)
    k, v = c.peek()
    if k == "int":
        c.next()
        return ("int", v)
    if k == "name" and v == "L":
        c.next()
        e = 1
        if c.accept_op("^"):
            neg = c.accept_op("-")
            e = c.expect_int("an exponent")
            if neg:
                e = -e
        return ("lef", e)
    c.fail("expected a class factor, found %r" % (v,))


def _parse_class_term(c):
    e = _parse_class_factor(c)
    while c.accept_op("*"):
        e = ("mul", e, _parse_class_factor(c))
    return e


def parse_class_expr(c):
    neg = c.accept_op("-")
    e = _parse_class_term(c)
    if neg:
        e = ("sub", ("int", 0), e)
    while True:
        if c.accept_op("+"):
            e = ("add", e, _parse_class_term(c))
        elif c.accept_op("-"):
            e = ("sub", e, _parse_class_term(c))
        else:
            break
    return e


def class_expr_str(e, prec=0):
    tag = e[0]
    if tag == "bracket":
        return "[%s]" % e[1]
    if tag == "int":
        return str(e[1])
    if tag == "lef":
        return "L" if e[1] == 1 else "L^%d" % e[1]
    if tag == "mul":
        return "%s * %s" % (class_expr_str(e[1], 1), class_expr_str(e[2], 1))
    op = " + " if tag == "add" else " - "
    body = class_expr_str(e[1], 0) + op + class_expr_str(e[2], 0)
    return "(%s)" % body if prec > 0 else body


# -- lax rules and rationals ----------------------------------------------

def parse_lax(c):
    """a*n + b as (a, b); accepts 0, 3, n, 2n, n+1, 2n+3."""
    k, v = c.peek()
    a, b = 0, 0
    if k == "int":
        c.next()
        if c.accept_name("n"):
            a = v
        else:
            return (0, v)
    elif c.accept_name("n"):
        a = 1
    else:
        c.fail("expected a lax rule like 0, n, or 2n+1")
    if c.accept_op("+"):
        b = c.expect_int("a constant offset")
    return (a, b)


def lax_str(rule):
    a, b = rule
    if a == 0:
        return str(b)
    head = "n" if a == 1 else "%dn" % a
    return head if b == 0 else "%s+%d" % (head, b)


def parse_rational(c):
    neg = c.accept_op("-")
    q = _fraction(c)
    return -q if neg else q


# -- statements ------------------------------------------------------------

_CHECK_SHAPES = {
    # kind: (names before 'at', at required?, level allowed?)
    "adjunction": (3, False, False),
    "scissor": (2, None, False),      # at optional
    "continuity": (3, None, False),
    "tau": (2, True, True),
    "pushpull": (3, True, False),
    "topo": (2, True, True),
}


_DECLARATIONS = ("fatpoint", "chain", "scheme", "map", "sieve", "simplicial",
                 "class")


def parse_statement(toks, line_no):
    c = _Cursor(toks, line_no)
    head = c.expect_name("a statement keyword")
    name = None
    if head in _DECLARATIONS:
        name = c.expect_name()
        c.expect_op("=")

    if head == "field":
        k, v = c.next()
        if k == "name" and v == "Q":
            payload = ("Q", 0)
        elif k == "name" and v == "F":
            payload = ("F", c.expect_int("a prime"))
        else:
            c.fail("expected Q or F <prime>")

    elif head == "fatpoint":
        payload = (parse_algebra(c),)

    elif head == "chain":
        if c.accept_name("rule"):
            var = c.expect_name("a variable")
            c.expect_op("^")
            if not c.accept_name("n"):
                c.fail("a chain rule has the shape t^n")
            payload = ("rule", var)
        else:
            c.expect_op("[")
            algs = [parse_algebra(c)]
            while c.accept_op(","):
                algs.append(parse_algebra(c))
            c.expect_op("]")
            payload = ("list", tuple(algs))

    elif head == "scheme":
        if not c.accept_name("Spec"):
            c.fail("a scheme declaration has the shape Spec k[...]")
        payload = (parse_algebra(c),)

    elif head == "map":
        src = c.expect_name("a source scheme")
        c.expect_op("->")
        tgt = c.expect_name("a target scheme")
        c.expect_op(":")
        assigns = []
        while True:
            v = c.expect_name("a target variable")
            c.expect_op("->")
            assigns.append((v, parse_poly(c)))
            if not c.accept_op(","):
                break
        payload = (src, tgt, tuple(assigns))

    elif head == "sieve":
        expr = parse_sieve_expr(c)
        if not c.accept_name("in"):
            c.fail("a sieve declaration names its ambient: ... in X")
        payload = (expr, c.expect_name("an ambient scheme"))

    elif head == "simplicial":
        tag = c.expect_name("trivial, fiber, or sym")
        if tag not in ("trivial", "fiber", "sym"):
            c.fail("expected trivial, fiber, or sym, found %r" % tag)
        c.expect_op("(")
        arg = c.expect_name("a sieve or scheme name")
        c.expect_op(")")
        c.expect_op("@")
        payload = (tag, arg, c.expect_int("a truncation level"))

    elif head == "class":
        payload = (parse_class_expr(c),)

    elif head == "count":
        subject = c.expect_name("an object name")
        if not c.accept_name("at"):
            c.fail("count needs a fat point: count X at m")
        point = c.expect_name("a fat point name")
        level = c.expect_int("a level") if c.accept_name("level") else None
        payload = (subject, point, level)

    elif head == "arc":
        subject = c.expect_name("an object name")
        if not c.accept_name("at"):
            c.fail("arc needs a fat point: arc X at m")
        payload = (subject, c.expect_name("a fat point name"))

    elif head == "measure":
        subject = c.expect_name("an object name")
        if not c.accept_name("on"):
            c.fail("measure needs a chain: measure X on J ...")
        chain = c.expect_name("a chain name")
        if not (c.accept_name("Q") or c.accept_name("q")):
            c.fail("measure needs a rate: Q=<rational>")
        c.expect_op("=")
        q = parse_rational(c)
        lax = None
        horizon = None
        window = None
        while not c.done():
            if c.accept_name("lax"):
                lax = parse_lax(c)
            elif c.accept_name("horizon"):
                horizon = c.expect_int("a horizon")
            elif c.accept_name("window"):
                window = c.expect_int("a window")
            else:
                c.fail("unexpected token %r after measure" % (c.peek()[1],))
        payload = (subject, chain, q, lax, horizon, window)

    elif head == "check":
        what = c.expect_name("a check kind")
        if what not in _CHECK_SHAPES:
            c.fail("unknown check %r" % what)
        n_names, at_req, lvl_ok = _CHECK_SHAPES[what]
        names = tuple(c.expect_name("an object name") for _ in range(n_names))
        point = None
        if at_req is True:
            if not c.accept_name("at"):
                c.fail("check %s needs a fat point: ... at m" % what)
            point = c.expect_name("a fat point name")
        elif at_req is None and c.accept_name("at"):
            point = c.expect_name("a fat point name")
        level = None
        if lvl_ok and c.accept_name("level"):
            level = c.expect_int("a level")
        payload = (what, names, point, level)

    else:
        c.fail("unknown statement %r" % head)

    if not c.done():
        c.fail("trailing input %r" % (c.peek()[1],))
    return Statement(head, name, payload, line_no)


def parse_script(text):
    stmts = []
    for i, raw in enumerate(text.splitlines(), start=1):
        toks = tokenize_line(raw, i)
        if not toks:
            continue
        stmts.append(parse_statement(toks, i))
    return stmts


# -- printing ---------------------------------------------------------------

def print_statement(st):
    k = st.kind
    head = "%s %s =" % (k, st.name)    # what a declaration starts with
    if k == "field":
        tag, p = st.payload
        return "field Q" if tag == "Q" else "field F %d" % p
    if k == "fatpoint":
        return "%s %s" % (head, algebra_str(st.payload[0]))
    if k == "chain":
        mode, body = st.payload
        if mode == "rule":
            return "%s rule %s^n" % (head, body)
        return "%s [%s]" % (head, ", ".join(algebra_str(a) for a in body))
    if k == "scheme":
        return "%s Spec %s" % (head, algebra_str(st.payload[0]))
    if k == "map":
        src, tgt, assigns = st.payload
        rhs = ", ".join("%s -> %s" % (v, poly_ast_str(p)) for v, p in assigns)
        return "%s %s -> %s : %s" % (head, src, tgt, rhs)
    if k == "sieve":
        expr, ambient = st.payload
        return "%s %s in %s" % (head, sieve_expr_str(expr), ambient)
    if k == "simplicial":
        return "%s %s(%s) @ %d" % ((head,) + st.payload)
    if k == "class":
        return "%s %s" % (head, class_expr_str(st.payload[0]))
    if k == "count":
        subject, point, level = st.payload
        tail = "" if level is None else " level %d" % level
        return "count %s at %s%s" % (subject, point, tail)
    if k == "arc":
        return "arc %s at %s" % st.payload
    if k == "measure":
        subject, chain, q, lax, horizon, window = st.payload
        out = "measure %s on %s Q=%s" % (subject, chain, q)
        if lax is not None:
            out += " lax %s" % lax_str(lax)
        if horizon is not None:
            out += " horizon %d" % horizon
        if window is not None:
            out += " window %d" % window
        return out
    if k == "check":
        what, names, point, level = st.payload
        out = "check %s %s" % (what, " ".join(names))
        if point is not None:
            out += " at %s" % point
        if level is not None:
            out += " level %d" % level
        return out
    raise WorkbenchError("unprintable statement kind %r" % k)


def print_script(stmts):
    return "".join(print_statement(s) + "\n" for s in stmts)
