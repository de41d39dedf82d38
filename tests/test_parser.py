import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanocalc.errors import ParseError
from fanocalc.parser import (
    Add,
    Call,
    FamilyId,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    Sym,
    parse_class_expr,
    parse_family_id,
    parse_recipe,
    pretty_print,
)
from fanocalc import parser as pmod
from fanocalc import ring


class TestClassExpr:
    def test_simple_sum(self):
        assert parse_class_expr("H1+H2") == Add(Sym("H1"), Sym("H2"))

    def test_precedence_pow_over_mul(self):
        expr = parse_class_expr("H^2*E")
        assert expr == Mul(Pow(Sym("H"), 2), Sym("E"))

    def test_precedence_mul_over_add(self):
        expr = parse_class_expr("H+2*E")
        assert expr == Add(Sym("H"), Mul(Num(Fraction(2)), Sym("E")))

    def test_coefficient_juxtaposition(self):
        assert parse_class_expr("2L") == Mul(Num(Fraction(2)), Sym("L"))
        assert parse_class_expr("9L^3") == Mul(Num(Fraction(9)), Pow(Sym("L"), 3))

    def test_unary_minus(self):
        assert parse_class_expr("-H") == Neg(Sym("H"))
        assert parse_class_expr("H--E") == Sub(Sym("H"), Neg(Sym("E")))

    def test_unicode_minus(self):
        assert parse_class_expr("H−E") == parse_class_expr("H-E")

    def test_parenthesized_power(self):
        expr = parse_class_expr("(2L-E)^3")
        assert expr == Pow(Sub(Mul(Num(Fraction(2)), Sym("L")), Sym("E")), 3)

    def test_left_associativity(self):
        assert parse_class_expr("A-B-C") == Sub(Sub(Sym("A"), Sym("B")), Sym("C"))


class TestErrors:
    def test_error_carries_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_class_expr("2*^H")
        assert exc.value.offset == 2

    def test_trailing_garbage_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_class_expr("H+E)")
        assert exc.value.offset == 3

    def test_missing_operand(self):
        with pytest.raises(ParseError):
            parse_class_expr("H+")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_class_expr("")

    def test_bad_character(self):
        with pytest.raises(ParseError) as exc:
            parse_class_expr("H @ E")
        assert exc.value.offset == 2

    def test_exponent_must_be_integer(self):
        with pytest.raises(ParseError):
            parse_class_expr("H^E")


class TestFamilyId:
    def test_parse(self):
        assert parse_family_id("3.2") == FamilyId(3, 2)
        assert parse_family_id("10.1") == FamilyId(10, 1)

    def test_str_roundtrip(self):
        assert str(parse_family_id("4.13")) == "4.13"

    @pytest.mark.parametrize("bad", ["0.1", "11.1", "2.0", "2", "a.b", "2.-1", "2.1.3"])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ParseError):
            parse_family_id(bad)

    def test_ordering(self):
        assert parse_family_id("2.10") > parse_family_id("2.9")
        assert parse_family_id("3.1") > parse_family_id("2.36")


class TestRecipe:
    def test_projective_space(self):
        assert parse_recipe("P(3)") == Call("P", (3,))

    def test_nested_product(self):
        r = parse_recipe("prod(P(1), P(2))")
        assert r == Call("prod", (Call("P", (1,)), Call("P", (2,))))

    def test_bundle_with_class_summands(self):
        r = parse_recipe("bundle(prod(P(1),P(1)), summands=[0, H1+H2])")
        assert r == Call("bundle", (
            Call("prod", (Call("P", (1,)), Call("P", (1,)))),
            (Num(Fraction(0)), Add(Sym("H1"), Sym("H2"))),
        ))

    def test_blowup_curve_degree_map(self):
        r = parse_recipe("blowup_curve(P(3), degrees={H:1, E:-2}, genus=0)")
        assert r == Call("blowup_curve", (Call("P", (3,)), 0, (("H", 1), ("E", -2))))

    def test_unknown_constructor(self):
        with pytest.raises(ParseError):
            parse_recipe("mystery(3)")

    def test_bad_argument(self):
        with pytest.raises(ParseError):
            parse_recipe("P(x)")
        with pytest.raises(ParseError) as exc:
            parse_recipe("blowup_point(P(3), count=1, count=2)")
        assert exc.value.offset == 0


# a literal over the interpreter's str -> int digit limit (4300 by default)
@pytest.mark.parametrize("parse,text,offset", [
    (parse_class_expr, "H^" + "9" * 5000, 2),
    (parse_class_expr, "1/" + "9" * 5000 + "*H^3", 2),
    (parse_recipe, "P(" + "9" * 5000 + ")", 2),
    (parse_family_id, "9" * 5000 + ".1", 0),
    (parse_family_id, " 1." + "9" * 5000, 3),
], ids=["exponent", "denominator", "recipe", "rank", "number"])
def test_overlong_integer_literal_is_parse_error(parse, text, offset):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.offset == offset


# offsets count UTF-8 bytes: the Unicode minus takes 3, the no-break space 2
@pytest.mark.parametrize("parse,text,offset", [
    (parse_class_expr, "\u2212H+$", 5),
    (parse_recipe, "divisor_in(P(4), \u2212H+$)", 22),
    (parse_family_id, "\xa03.0", 4),
], ids=["expression", "recipe", "family"])
def test_offset_counts_utf8_bytes(parse, text, offset):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.offset == offset


def test_readme_grammar_matches_signatures():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Model recipe grammar", 1)[1].split("```")[1]
    documented = {}
    for line in block.strip().splitlines():
        call = re.split(r"\s{2,}", line)[0]  # the description follows two spaces
        documented[re.match(r"\w+", call).group()] = set(re.findall(r"(\w+)=", call))
    assert documented == {
        name: {key for key, _ in params if key} for name, params in pmod._SIGNATURES.items()
    }
    assert ring._BUILDERS.keys() == pmod._SIGNATURES.keys()


# random ASTs for the round-trip property

_names = st.sampled_from(["H", "L", "E", "H1", "H2", "E1", "zeta"])
_leaves = st.one_of(
    _names.map(Sym),
    st.integers(min_value=0, max_value=99).map(lambda v: Num(Fraction(v))),
)


def _extend(children):
    pow_base = st.one_of(_names.map(Sym), children)
    return st.one_of(
        st.tuples(children, children).map(lambda p: Add(*p)),
        st.tuples(children, children).map(lambda p: Sub(*p)),
        st.tuples(children, children).map(lambda p: Mul(*p)),
        children.map(Neg),
        st.tuples(pow_base, st.integers(min_value=1, max_value=6)).map(
            lambda p: Pow(*p)
        ),
    )


_exprs = st.recursive(_leaves, _extend, max_leaves=25)


@settings(max_examples=60, deadline=None)
@given(_exprs)
def test_pretty_print_round_trip(expr):
    assert parse_class_expr(pretty_print(expr)) == expr
