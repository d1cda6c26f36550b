"""Script language and driver: parsing, printing, reports, exit codes."""

import os
import re
import subprocess
import sys

import pytest

import motivic
from motivic import cli, dsl, fatpoints, schemes
from motivic.cli import main, run_script
from motivic.config import DEFAULT
from motivic.errors import EvalError, WorkbenchError
from motivic.fields import GF, QQ
from motivic.poly import Poly

DEMO = """\
field F 2
fatpoint m = k[t]/(t^2)
chain J = rule t^n
scheme X = Spec k[x, y]
scheme A = Spec k[u]
map f = A -> X : x -> u, y -> u^2
sieve s = V(x) | D(y) in X
sieve h = full in X
simplicial F = fiber(s) @ 3
class c = [s] + L^-2 * [X] - 3
count X at m
count s at m
count F at m level 1
arc X at m
measure X on J Q=1 horizon 6 window 3
check adjunction X m m
check scissor s h at m
"""


def child_env():
    """Environment for a child interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(motivic.__file__)))
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))


def record_blocks(report):
    out = []
    for block in report.split("\n\n"):
        fields = {}
        for line in block.strip().splitlines():
            key, _, value = line.partition("=")
            fields[key] = value
        out.append(fields)
    return out


class TestParsing:
    def test_round_trip_is_a_fixed_point(self):
        once = dsl.print_script(dsl.parse_script(DEMO))
        twice = dsl.print_script(dsl.parse_script(once))
        assert once == twice

    def test_spacing_is_normalized(self):
        text = "field  F   2\nscheme X=Spec k[ x,y ]/( y-x^2 )\n"
        printed = dsl.print_script(dsl.parse_script(text))
        assert printed == "field F 2\nscheme X = Spec k[x, y]/(y - x^2)\n"

    def test_comments_and_blank_lines_are_skipped(self):
        text = "# header\n\nfield Q\n  # indented comment\nscheme X = Spec k[x]\n"
        assert len(dsl.parse_script(text)) == 2

    def test_polynomial_forms(self):
        text = ("field Q\nscheme X = Spec k[x, y]/"
                "(2*x^2*y - 1/2*x + y - 3, -x + y)\n")
        printed = dsl.print_script(dsl.parse_script(text))
        assert "2*x^2*y - 1/2*x + y - 3" in printed
        assert "-x + y" in printed

    def test_class_expression_precedence(self):
        text = "field Q\nscheme X = Spec k[x]\nclass c = [X] + L^-2 * ([X] - 1)\n"
        printed = dsl.print_script(dsl.parse_script(text))
        assert "class c = [X] + L^-2 * ([X] - 1)" in printed

    def test_sieve_expression_precedence(self):
        text = "field Q\nscheme X = Spec k[x, y]\nsieve s = (V(x) | D(y)) & D(x) in X\n"
        printed = dsl.print_script(dsl.parse_script(text))
        assert "sieve s = (V(x) | D(y)) & D(x) in X" in printed

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(dsl.ScriptError) as err:
            dsl.parse_script("field Q\nscheme = Spec k[x]\n")
        assert err.value.line == 2

    def test_unknown_statement_is_rejected(self):
        with pytest.raises(dsl.ScriptError):
            dsl.parse_script("frobnicate X\n")

    @pytest.mark.parametrize("script,message,line", [
        ("field Q\nscheme X = Spec k[x] $ 1\n", "bad character '$'", 2),
        ("field Q\nscheme X = Spec k[x]  é\n", "bad character 'é'", 2),
        ("field Q\n\nscheme X = Spec k[x] y\n", "trailing input 'y'", 3),
        ("field Q\ncount X at\n", "expected a fat point name, found 'end of line'", 2),
        ("field Q\nscheme X = Spec\n", "an algebra starts with 'k'", 2),
        ("field F\n", "expected a prime, found 'end of line'", 1),
        ("field Q\nscheme X = Spec k[x]/(1/0*x)\n", "zero denominator in 1/0", 2),
        ("field Q\n# note\nfrobnicate X\n", "unknown statement 'frobnicate'", 3),
        ("field Q\ncheck frob A B\n", "unknown check 'frob'", 2),
        ("field Q\ncount X m\n", "count needs a fat point: count X at m", 2),
        ("field Q\narc X m\n", "arc needs a fat point: arc X at m", 2),
        ("field Q\ncheck tau Y S m\n", "check tau needs a fat point: ... at m", 2),
        ("field Q\nclass c = %s\n" % ("9" * 5000), "integer of 5000 digits is too long", 2),
    ], ids=["bad-character", "bad-unicode", "trailing-input", "end-of-line-name",
            "end-of-line-algebra", "end-of-line-int", "zero-denominator",
            "unknown-statement", "unknown-check", "missing-at-count",
            "missing-at-arc", "missing-at-check", "long-integer"])
    def test_each_parse_error_names_its_message_and_line(self, script, message,
                                                          line):
        with pytest.raises(dsl.ScriptError) as err:
            dsl.parse_script(script)
        assert (str(err.value), err.value.line) == (message, line)


def parsed_poly(text):
    return dsl.parse_poly(dsl._Cursor(dsl.tokenize_line(text, 1), 1))


def poly_by_arithmetic(ast, vars, field):
    """The sum of a parsed polynomial, one `Poly` per term."""
    out = Poly.zero(vars, field)
    for sign, coef, factors in ast:
        exps = [0] * len(vars)
        for v, e in factors:
            exps[vars.index(v)] += e
        c = field.one if coef is None else field.of(coef)
        out = out + Poly.monomial(tuple(exps), c if sign > 0 else field.neg(c),
                                  vars, field)
    return out


class TestPolyFromAst:
    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=repr)
    @pytest.mark.parametrize("text", [
        "x + x - 2*x", "x + x", "1/2*x + 1/2*x", "x - x + y + x", "-x^2*y + 3",
        "x*y*x - x^2*y", "2*x^3 - y + 5 - 5 + 1*x^3", "0*x + 0", "y^2 - x^3",
        "1/3*x*y + 2/3*y*x - x*y", "4 - 1 - 3"])
    def test_equals_the_sum_by_poly_arithmetic(self, field, text):
        vars = ("x", "y")
        ast = parsed_poly(text)
        try:
            want = poly_by_arithmetic(ast, vars, field)
        except WorkbenchError as err:
            with pytest.raises(type(err), match=str(err)):
                cli.poly_from_ast(ast, vars, field)
            return
        got = cli.poly_from_ast(ast, vars, field)
        assert got == want
        assert list(got.terms.items()) == list(want.terms.items())

    def test_cancelling_terms_leave_the_zero_polynomial(self):
        assert cli.poly_from_ast(parsed_poly("x + x - 2*x"), ("x",), QQ).is_zero()
        assert cli.poly_from_ast(parsed_poly("x + x"), ("x",), GF(2)).is_zero()
        assert cli.poly_from_ast(parsed_poly("1/2*x + 1/2*x"), ("x",), QQ) \
            == Poly.variable("x", ("x",), QQ)

    def test_an_unknown_variable_is_an_eval_error(self):
        with pytest.raises(EvalError, match="unknown variable 'z'"):
            cli.poly_from_ast(parsed_poly("x + z"), ("x", "y"), QQ)

    def test_a_long_sum_makes_one_poly(self, monkeypatch):
        ast = parsed_poly(" + ".join("%d*x^%d" % (i + 1, i) for i in range(2000)))
        made = []
        init = Poly.__init__

        def counted(self, *args):
            made.append(1)
            init(self, *args)

        monkeypatch.setattr(Poly, "__init__", counted)
        p = cli.poly_from_ast(ast, ("x",), GF(3))
        assert len(p.terms) == 1334      # the coefficients divisible by 3 drop
        assert len(made) <= 2


class TestReports:
    def test_reports_are_deterministic(self):
        rep1, code1 = run_script(DEMO)
        rep2, code2 = run_script(DEMO)
        assert rep1 == rep2
        assert code1 == code2 == 0

    def test_frozen_count_values(self):
        rep, _ = run_script(DEMO)
        blocks = record_blocks(rep)
        by_text = {b["text"]: b for b in blocks}
        assert by_text["count X at m"]["value"] == "16"
        assert by_text["count s at m"]["value"] == "10"
        assert by_text["count F at m level 1"]["value"] == "100"
        assert by_text["arc X at m"]["vars"] == "4"
        assert by_text["arc X at m"]["dim"] == "4"
        assert by_text["measure X on J Q=1 horizon 6 window 3"]["value"] == "1"
        assert by_text["check adjunction X m m"]["ok"] == "true"
        assert by_text["check scissor s h at m"]["ok"] == "true"

    def test_class_values_print_in_their_own_script(self):
        # a class symbol carries its own presentation, so a second script
        # with the same image condition prints its own source name
        text = ("field Q\nscheme Src = Spec k[u]\nscheme X = Spec k[v]\n"
                "map f = Src -> X : v -> u^2\nsieve s = im(f) in X\n"
                "class c = [s]\n")
        first = record_blocks(run_script(text)[0])[-1]
        second = record_blocks(run_script(text.replace("Src", "S1"))[0])[-1]
        assert first["value"] == "[im(Src)]"
        assert second["value"] == "[im(S1)]"

    def test_equal_images_keep_their_source_names(self):
        # the two maps are equal as coordinate maps, and their sources differ
        # only by name; each class must still print its own source
        text = ("field Q\nscheme A = Spec k[u]\nscheme B = Spec k[u]\n"
                "scheme L2 = Spec k[x]\nmap f = A -> L2 : x -> u^2\n"
                "map g = B -> L2 : x -> u^2\nsieve s = im(f) in L2\n"
                "sieve t = im(g) in L2\nclass a = [s]\nclass b = [t]\n")
        blocks = record_blocks(run_script(text)[0])
        assert blocks[-2]["value"] == "[im(A)]"
        assert blocks[-1]["value"] == "[im(B)]"

    def test_integer_terms_of_simplicial_classes(self):
        text = ("field Q\nscheme X = Spec k[x]\nsimplicial S = fiber(X) @ 2\n"
                "class c = [S] + 3\n")
        block = record_blocks(run_script(text)[0])[-1]
        assert block["simplicial"] == "true"
        assert block["value"] == "3 + fib(L)"

    def test_class_products_respect_the_skeletal_level(self):
        text = ("field F 2\nscheme X = Spec k[x]\nsieve s = V(x) in X\n"
                "simplicial a = fiber(s) @ 2\nsimplicial b = trivial(s) @ 2\n"
                "class c = [a] * [b]\n")
        rep, code = run_script(text, DEFAULT.with_overrides(skeletal_level=2))
        assert code == 0
        assert record_blocks(rep)[-1]["value"] == "levels(1; 1; 1)"

    def test_point_names_may_look_like_arc_coordinates(self):
        # counting never names arc coordinates, so a point variable x_0
        # beside a scheme variable x is no collision
        text = ("field F 2\nscheme X = Spec k[x]/(x^2)\n"
                "fatpoint m = k[x_0]/(x_0^2)\nsieve s = D(x + 1) in X\n"
                "count X at m\ncount s at m\n")
        rep, code = run_script(text)
        assert code == 0
        assert [b["value"] for b in record_blocks(rep)[-2:]] == ["2", "2"]

    def test_enumeration_cap_is_checked_before_the_search(self):
        text = ("field F 3\nscheme C = Spec k[x, y]/(y^2 - x^3)\n"
                "fatpoint m = k[t]/(t^7)\ncount C at m\n")
        rep, code = run_script(text)
        assert code == 2
        block = record_blocks(rep)[-1]
        assert block["status"] == "error"
        assert block["error"] == ("enumeration of 4782969 candidates exceeds "
                                  "cap 1048576")

    def test_check_failure_sets_exit_one(self):
        text = ("field F 2\nfatpoint m = k[t]/(t^2)\nscheme X = Spec k[x, y]\n"
                "scheme A = Spec k[u]\n"
                "map g = A -> X : x -> 0, y -> u\n"
                "sieve h = full in X\n"
                "sieve o = h & (D(x) | D(y)) in X\n"
                "check continuity g h o at m\n")
        rep, code = run_script(text)
        assert code == 1
        block = record_blocks(rep)[-1]
        assert block["admissible_before"] == "true"
        assert block["admissible_after"] == "false"
        assert block["ok"] == "false"

    def test_eval_errors_are_isolated_per_statement(self):
        text = ("field Q\nscheme X = Spec k[x]\n"
                "sieve s = V(zz) in X\n"        # unknown variable
                "count X at nope\n"            # unknown name
                "class c = [X]\n")             # still evaluates
        rep, code = run_script(text)
        assert code == 2
        blocks = record_blocks(rep)
        assert blocks[2]["status"] == "error"
        assert "zz" in blocks[2]["error"]
        assert blocks[3]["status"] == "error"
        assert blocks[4]["status"] == "ok"
        assert blocks[4]["value"] == "L"

    def test_internal_errors_keep_the_rest_of_the_report(self, monkeypatch,
                                                         capsys):
        text = ("field Q\nscheme X = Spec k[x]\n"
                "class c = [X]\n"
                "count X at nope\n"
                "class d = [X] + 1\n")
        real = cli.Session.eval_class

        def eval_class(self, st):
            if st.name == "c":
                raise TypeError("forced")
            return real(self, st)

        monkeypatch.setattr(cli.Session, "eval_class", eval_class)
        rep, code = run_script(text)
        assert code == 2
        blocks = record_blocks(rep)
        assert len(blocks) == 5
        assert blocks[2]["status"] == "error"
        assert blocks[2]["error"] == "internal: TypeError"
        assert blocks[3]["status"] == "error"
        assert blocks[3]["error"] != "internal: TypeError"
        assert blocks[4]["status"] == "ok"
        assert blocks[4]["value"] == "1 + L"
        assert "TypeError: forced" in capsys.readouterr().err

    def test_counting_over_q_reports_one_error(self):
        # an affine space, a scheme with relations, a sieve, both simplicial
        # shapes and both kinds of class all stop where the search would
        text = ("field Q\nfatpoint m = k[t]/(t^2)\nscheme A = Spec k[x]\n"
                "scheme X = Spec k[x, y]/(y - x^2)\nsieve s = D(x) in A\n"
                "simplicial S = fiber(s) @ 2\nsimplicial T = trivial(s) @ 2\n"
                "class c = [A]\nclass d = [S]\n"
                "count A at m\ncount X at m\ncount s at m\n"
                "count S at m level 1\ncount T at m\ncount c at m\n"
                "count d at m level 1\n")
        rep, code = run_script(text)
        assert code == 2
        counts = [b for b in record_blocks(rep) if b["kind"] == "count"]
        assert len(counts) == 7
        assert {b["error"] for b in counts} == {"point enumeration needs a finite field"}

    def test_a_space_and_its_full_sieve_meet_one_cap(self):
        text = ("field F 3\nfatpoint m = k[t]/(t^7)\nscheme A = Spec k[x, y]\n"
                "sieve S = full in A\ncount A at m\ncount S at m\n")
        rep, code = run_script(text)
        assert code == 2
        counts = [b for b in record_blocks(rep) if b["kind"] == "count"]
        assert [b["error"] for b in counts] == [
            "enumeration of 4782969 candidates exceeds cap 1048576"] * 2

    def test_a_product_of_fiber_powers_is_the_power_of_the_product(self):
        text = ("field F 2\nfatpoint m = k[t]/(t^2)\nscheme X = Spec k[x]\n"
                "sieve u = D(x) in X\nsimplicial F = fiber(u) @ 2\n"
                "simplicial G = fiber(X) @ 2\nclass c = [F] * [G]\n"
                "count F at m level 2\ncount G at m level 2\n"
                "count c at m level 2\n")
        rep, code = run_script(text)
        assert code == 0
        blocks = record_blocks(rep)
        assert blocks[6]["value"] == "fib([D(z0)]*L)"
        assert [b["value"] for b in blocks[7:]] == ["8", "64", "512"]

    def test_parse_failure_sets_exit_three(self):
        rep, code = run_script("field Q\nsieve = broken\n")
        assert code == 3
        assert "kind=parse" in rep
        assert "line=2" in rep

    def test_a_parse_error_reports_its_line_once(self):
        block = record_blocks(run_script("field Q\nsieve = broken\n")[0])[0]
        assert block["line"] == "2"
        assert block["error"] == "expected a name, found '='"

    @pytest.mark.parametrize("text,line", [
        ("field F 2\nscheme X = Spec k[x]/(1/0*x)\n", 2),
        ("field F 2\nscheme X = Spec k[x]\nchain J = rule t^n\n"
         "measure X on J Q=1/0\n", 4),
    ], ids=["coefficient", "rate"])
    def test_a_zero_denominator_is_a_parse_error(self, text, line):
        rep, code = run_script(text)
        assert code == 3
        assert record_blocks(rep) == [{
            "stmt": "0", "kind": "parse", "line": str(line),
            "status": "error", "error": "zero denominator in 1/0"}]

    def test_a_denominator_not_invertible_mod_p_is_an_eval_error(self, capsys):
        rep, code = run_script("field F 2\nscheme X = Spec k[x]/(1/2*x)\n")
        assert code == 2
        block = record_blocks(rep)[1]
        assert block["status"] == "error"
        assert block["error"] == "denominator not invertible mod 2"
        assert capsys.readouterr().err == ""

    def test_a_level_past_the_declared_truncation_is_refused(self):
        text = ("field F 2\nfatpoint m = k[t]/(t^2)\nscheme X = Spec k[x]\n"
                "sieve s = D(x) in X\nsimplicial S = fiber(s) @ 3\n"
                "count S at m level 4\ncount S at m level 3\n")
        rep, code = run_script(text)
        assert code == 2
        over, last = record_blocks(rep)[-2:]
        assert over["status"] == "error"
        assert over["error"] == "level 4 exceeds the declared truncation 3"
        assert last["status"] == "ok" and last["value"] == "16"

    def test_single_assignment_is_enforced(self):
        text = "field Q\nscheme X = Spec k[x]\nscheme X = Spec k[y]\n"
        rep, code = run_script(text)
        assert code == 2
        assert "already bound" in rep

    def test_field_must_come_first(self):
        rep, code = run_script("scheme X = Spec k[x]\n")
        assert code == 2
        assert "no base field" in rep

    def test_flag_field_is_a_default_not_an_override(self):
        rep, code = run_script("scheme X = Spec k[x]\n", field=GF(5))
        assert code == 0
        rep2, code2 = run_script("field F 2\nscheme X = Spec k[x]\n", field=GF(5))
        assert code2 == 0
        assert "value=F2" in rep2

    def test_characteristic_zero_is_not_a_prime_field(self, capsys):
        rep, code = run_script("field F 0\nscheme X = Spec k[x]\n")
        assert code == 2
        field, scheme = record_blocks(rep)
        assert field["error"] == "characteristic must be prime, got 0"
        assert scheme["error"] == "no base field declared (use: field Q | field F p)"
        assert main(["--field", "F0", "-"]) == 2
        assert capsys.readouterr().err == "motivic: characteristic must be prime, got 0\n"


POINT = "field F 2\nfatpoint m = k[t]/(t^2)\n"


class TestCountsTooLargeToPrint:
    """A count is printed, so one past the digits an int prints is refused
    with CapExceeded, on its statement, and a power that alone is past them
    is not formed. Over F2 at k[t]/(t^2), L counts to 4 and 4^7142 has 4300
    digits."""

    @pytest.mark.parametrize("cls,error", [
        ("L^7143", "count needs a power of more than 4300 digits"),
        ("L^99999999", "count needs a power of more than 4300 digits"),
        ("L^-99999999", "count needs a power of more than 4300 digits"),
        ("L^-7143", "count needs a power of more than 4300 digits"),
        ("3 * L^7142", "count has more than 4300 digits"),
    ])
    def test_a_count_past_the_limit_is_a_cap(self, capsys, cls, error):
        rep, code = run_script(POINT + "class c = %s\ncount c at m\n" % cls)
        assert code == 2
        assert record_blocks(rep)[-1]["error"] == error
        assert capsys.readouterr().err == ""

    def test_a_count_at_the_limit_prints(self):
        rep, code = run_script(POINT + "class c = L^7142\nclass d = L^-7142\n"
                               "count c at m\ncount d at m\n")
        assert code == 0
        assert [b["value"] for b in record_blocks(rep)[-2:]] \
            == [str(4 ** 7142), "1/%d" % 4 ** 7142]

    def test_a_level_count_past_the_limit_is_a_cap(self):
        rep, code = run_script(POINT + "scheme X = Spec k[x]\n"
                               "simplicial F = fiber(X) @ 9000\nclass c = [F]\n"
                               "count c at m level 7141\ncount c at m level 7142\n")
        assert code == 2
        under, over = record_blocks(rep)[-2:]
        assert under["value"] == str(4 ** 7142)
        assert over["error"] == "count needs a power of more than 4300 digits"

    def test_a_morphism_count_past_the_limit_is_a_cap(self):
        rep, code = run_script("field F 3\nfatpoint m = k[t]/(t^4)\n"
                               "scheme Y = Spec k[x, y]\nscheme X = Spec k[x]\n"
                               "simplicial S = fiber(X) @ 2\n"
                               "check tau Y S at m level 1\n")
        assert code == 2
        assert record_blocks(rep)[-1]["error"] \
            == "count needs a power of more than 4300 digits"


HIGH_EXPONENT_SCRIPTS = {
    "leaf": ("field F 2\nfatpoint m = k[t]/(t^2)\nscheme X = Spec k[x]\n"
             "sieve s = V(x^%d) in X\ncount s at m\n", 9999999, 3, "2"),
    "image": ("field F 3\nfatpoint m = k[t]/(t^2)\nscheme L1 = Spec k[u]\n"
              "scheme L2 = Spec k[v]\nmap sq = L1 -> L2 : v -> u^%d\n"
              "sieve s = im(sq) in L2\ncount s at m\n", 9999998, 2, "4"),
}


class TestHighExponents:
    """A power costs products by the bits of its exponent, not by the
    exponent itself: each script runs under a budget of vector products
    and basis products that a power taken one factor at a time overruns."""

    BUDGET = 5000

    def counted(self, monkeypatch, text):
        calls = [0]

        def budgeted(real):
            def method(self, *args):
                calls[0] += 1
                if calls[0] > TestHighExponents.BUDGET:
                    raise RuntimeError("over the budget of products")
                return real(self, *args)
            return method

        for name in ("mul", "_pair"):
            real = getattr(fatpoints.QuotientAlgebra, name)
            monkeypatch.setattr(fatpoints.QuotientAlgebra, name, budgeted(real))
        rep, code = run_script(text)
        assert code == 0, rep
        return record_blocks(rep)[-1]["value"]

    @pytest.mark.parametrize("kind", sorted(HIGH_EXPONENT_SCRIPTS))
    def test_a_high_exponent_counts_like_a_low_one(self, monkeypatch, kind):
        text, high, low, value = HIGH_EXPONENT_SCRIPTS[kind]
        assert self.counted(monkeypatch, text % high) == value
        assert self.counted(monkeypatch, text % low) == value


class TestHighExponentRows:
    """Over F_p a row reads v^e as v^(1 + (e - 1) mod (p - 1)), so its cost
    does not grow with e: each script runs under a budget on the exponents
    that the search's row reads multiply out, which one read of x_0^9999999
    overruns. Over F2 a coordinate is 0 or 1, whose powers cost nothing, so
    F5 and F7 are the cases."""

    BUDGET = 5000
    TEXT = ("field F %d\nfatpoint m = k[t]/(t^2)\nscheme X = Spec k[x]\n"
            "sieve s = V(x^%d) in X\ncount s at m\n")

    @pytest.mark.parametrize("p", [5, 7])
    def test_a_high_exponent_row_counts_like_a_low_one(self, monkeypatch, p):
        spent = [0]
        real = schemes.row_value

        def budgeted(row, vals):
            spent[0] += sum(e for _, mono in row for _, e in mono)
            if spent[0] > self.BUDGET:
                raise RuntimeError("over the budget of row exponents")
            return real(row, vals)

        monkeypatch.setattr(schemes, "row_value", budgeted)
        for e in (9999999, 3):
            rep, code = run_script(self.TEXT % (p, e))
            assert code == 0, rep
            assert record_blocks(rep)[-1]["value"] == str(p)


class TestSessionObjects:
    def test_image_sieve_requires_matching_ambient(self):
        text = ("field F 3\nscheme X = Spec k[x]\nscheme Y = Spec k[y]\n"
                "map f = X -> Y : y -> x^2\n"
                "sieve s = im(f) in X\n")
        rep, code = run_script(text)
        assert code == 2
        assert "different ambient" in rep

    def test_map_must_respect_relations(self):
        text = ("field Q\nscheme X = Spec k[u]\n"
                "scheme P = Spec k[x, y]/(y - x^2)\n"
                "map f = X -> P : x -> u, y -> u\n")
        rep, code = run_script(text)
        assert code == 2
        assert "respect" in rep

    def test_explicit_chain_evaluates_at_last_member(self):
        text = ("field Q\nchain C = [k[t]/(t^2), k[t]/(t^3)]\n"
                "scheme X = Spec k[x]\n"
                "measure X on C Q=0 window 2 horizon 2\n")
        rep, code = run_script(text)
        assert code == 0
        block = record_blocks(rep)[-1]
        assert block["stabilized"] == "true"
        assert block["value"] == "L^3"


def console_script_target() -> str:
    """The "module:attr" of the `motivic` line of `[project.scripts]`, read
    as text (tomllib is not in every supported Python)."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "pyproject.toml")
    with open(path) as fh:
        found = re.search(r'^motivic\s*=\s*"([^"]+)"', fh.read(), re.M)
    assert found, "pyproject.toml names no motivic console script"
    return found.group(1)


class TestEntryPoint:
    def test_console_script_runs(self):
        # call the entry object the way an installed console script does:
        # with the command's arguments in sys.argv, its return the exit code
        module, _, attr = console_script_target().partition(":")
        child = ("import functools, importlib, sys\n"
                 "sys.argv = ['motivic', '-']\n"
                 "entry = functools.reduce(getattr, %r.split('.'),"
                 " importlib.import_module(%r))\n"
                 "sys.exit(entry())\n" % (attr, module))
        proc = subprocess.run(
            [sys.executable, "-c", child],
            input="field F 3\nscheme X = Spec k[x]\nfatpoint p = k\ncount X at p\n",
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert "value=3" in proc.stdout

    def test_package_runs_as_a_module(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "corpus", "10_adjunction.mot")
        proc = subprocess.run([sys.executable, "-m", "motivic", path],
                              capture_output=True, text=True, env=child_env())
        with open(path) as fh:
            report, code = run_script(fh.read())
        assert proc.returncode == code
        assert proc.stdout == report

    def test_format_mode(self):
        proc = subprocess.run(
            [sys.executable, "-m", "motivic.cli", "--format", "-"],
            input="field  F 3\nscheme   X = Spec k[ x ]\n",
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert proc.stdout == "field F 3\nscheme X = Spec k[x]\n"

    def test_a_cold_import_leaves_out_the_code_generators(self):
        # one script runs per process, so what `import motivic.cli` loads
        # is paid on every run; argparse loads when main parses arguments,
        # traceback when a statement fails inside the workbench
        child = ("import sys\n"
                 "before = set(sys.modules)\n"
                 "import motivic.cli\n"
                 "print(sorted({'dataclasses', 'inspect', 'argparse', 'traceback'}"
                 " & (set(sys.modules) - before)))\n"
                 "sys.exit(motivic.cli.main(['--format', '-']))\n")
        proc = subprocess.run([sys.executable, "-c", child],
                              input="field  F 3\nscheme X = Spec k[ x ]\n",
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\nfield F 3\nscheme X = Spec k[x]\n"

    def test_format_mode_names_a_parse_error_once(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", __import__("io").StringIO(
            "field Q\nsieve = broken\n"))
        assert main(["--format"]) == 3
        assert capsys.readouterr().err \
            == "motivic: line 2: expected a name, found '='\n"

    def test_a_zero_denominator_stops_the_entry_point_cleanly(self, tmp_path,
                                                              capsys):
        path = tmp_path / "zero.mot"
        path.write_text("field F 2\nscheme X = Spec k[x]/(1/0*x)\n")
        assert main([str(path)]) == 3
        out, err = capsys.readouterr()
        assert "kind=parse" in out and err == ""
        assert main(["--format", str(path)]) == 3
        assert capsys.readouterr().err \
            == "motivic: line 2: zero denominator in 1/0\n"

    def test_malformed_environment_integer_is_a_clean_error(self, monkeypatch, capsys):
        monkeypatch.setenv("MOTIVIC_HORIZON", "abc")
        monkeypatch.setattr("sys.stdin", __import__("io").StringIO(
            "field F 3\nscheme X = Spec k[x]\n"))
        assert main([]) == 2
        err = capsys.readouterr().err
        assert err.startswith("motivic: ")
        assert "MOTIVIC_HORIZON" in err and "Traceback" not in err

    def test_environment_field_with_flag_override(self, monkeypatch):
        monkeypatch.setenv("MOTIVIC_FIELD", "F5")
        monkeypatch.setattr("sys.stdin", __import__("io").StringIO(
            "scheme X = Spec k[x]\nfatpoint p = k\ncount X at p\n"))
        import io
        from contextlib import redirect_stdout
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main([])
        assert code == 0
        assert "value=5" in buf.getvalue()
