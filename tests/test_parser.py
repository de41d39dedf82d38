import re
import sys
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
from fanocalc import catalog, ring
from fanocalc.cli import main
from fanocalc import parser as pmod

H, E = Sym("H"), Sym("E")


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

    def test_equality_includes_the_node_type(self):
        assert Add(Sym("A"), Sym("B")) != Sub(Sym("A"), Sym("B"))
        assert Mul(Sym("A"), Sym("B")) != Add(Sym("A"), Sym("B"))
        assert Neg(Sym("A")) != Sym("A")

    def test_equal_trees_hash_equal(self):
        a, b = parse_class_expr("(2L-E)^3+H*E"), parse_class_expr("(2L-E)^3+H*E")
        assert a == b and a is not b
        assert hash(a) == hash(b) and len({a, b}) == 1

    @pytest.mark.parametrize("text, value, printed", [
        ("2", 2, "2"),
        ("4/2", 2, "2"),
        ("1/2", Fraction(1, 2), "1/2"),
    ])
    def test_integral_literal_is_an_int(self, text, value, printed):
        num = parse_class_expr(text)
        assert type(num.value) is type(value) and num.value == value
        assert pretty_print(num) == printed

    # a bare name or integer factor is read in the term loop, every other one by its own rule
    @pytest.mark.parametrize("text, tree", [
        ("2H", Mul(Num(2), H)),
        ("2 H", Mul(Num(2), H)),
        ("2/3H", Mul(Num(Fraction(2, 3)), H)),
        ("2^3", Pow(Num(2), 3)),
        ("2(H)", Mul(Num(2), H)),
        ("2*H^2", Mul(Num(2), Pow(H, 2))),
        ("H^2*2", Mul(Pow(H, 2), Num(2))),
        ("H*-E", Mul(H, Neg(E))),
        ("-2*H", Mul(Neg(Num(2)), H)),
        ("2*H-E*3", Sub(Mul(Num(2), H), Mul(E, Num(3)))),
    ])
    def test_factor_trees(self, text, tree):
        assert parse_class_expr(text) == tree

    # one case per parenthesisation rule; the round trip alone would accept extra groups
    @pytest.mark.parametrize("expr, printed", [
        (Neg(Add(H, E)), "-(H+E)"),
        (Neg(Mul(Num(2), H)), "-(2*H)"),
        (Neg(Neg(H)), "--H"),
        (Neg(Pow(H, 2)), "-H^2"),
        (Pow(Neg(H), 2), "(-H)^2"),
        (Pow(Pow(H, 2), 3), "(H^2)^3"),
        (Pow(Num(Fraction(1, 2)), 3), "1/2^3"),
        (Mul(Add(H, E), Mul(H, E)), "(H+E)*(H*E)"),
        (Mul(Mul(H, E), Neg(E)), "H*E*-E"),
        (Sub(Add(H, E), Sub(H, E)), "H+E-(H-E)"),
        (Add(Sub(H, E), Mul(H, E)), "H-E+H*E"),
        (Mul(Num(Fraction(1, 2)), H), "1/2*H"),
        (Sub(H, Neg(E)), "H--E"),
    ])
    def test_printed_text(self, expr, printed):
        assert pretty_print(expr) == printed
        assert parse_class_expr(printed) == expr


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

    _LONG = "9" * 4301  # one digit over the interpreter's default int-to-text limit

    @pytest.mark.parametrize("text, message, offset", [
        ("2 3", "expected end of expression", 2),
        ("2*", "expected atom", 2),
        ("H H", "expected end of expression", 2),
        ("2/0*H", "zero denominator", 2),
        pytest.param(f"H+{_LONG}", "integer literal is too long", 2, id="long-bare-factor"),
        pytest.param(f"H*{_LONG}^2", "integer literal is too long", 2, id="long-power-base"),
        pytest.param(f"{_LONG}*H", "integer literal is too long", 0, id="long-coefficient"),
        pytest.param(f"H-{_LONG}H", "integer literal is too long", 2, id="long-juxtaposed"),
        pytest.param(f"2/{_LONG}*H", "integer literal is too long", 2, id="long-denominator"),
    ])
    def test_factor_errors(self, text, message, offset):
        with pytest.raises(ParseError) as exc:
            parse_class_expr(text)
        assert (exc.value.message, exc.value.offset) == (message, offset)

    def test_exponent_must_be_integer(self):
        with pytest.raises(ParseError):
            parse_class_expr("H^E")


class TestTokenLimits:
    def test_exactly_max_tokens_parses(self):
        text = "-" + "+".join(["H"] * (pmod.MAX_TOKENS // 2))
        assert len(pmod._scan(text)) - 1 == pmod.MAX_TOKENS  # without the end marker
        parse_class_expr(text)

    def test_one_token_over_reports_that_token(self):
        text = "+".join(["H"] * 201)
        with pytest.raises(ParseError, match="input is longer than 400 tokens") as exc:
            parse_class_expr(text)
        assert exc.value.offset == 400

    def test_deepest_trees_answer_under_the_default_recursion_limit(self, capsys):
        minus_chain = "-" * 399 + "H"  # 400 tokens, 399 nested Neg
        nested_groups = "(" * 198 + "H" + ")" * 198 + "^3"  # 399 tokens
        assert len(pmod._scan(nested_groups)) - 1 == pmod.MAX_TOKENS - 1  # without the end marker
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            codes = [main(["deg", "P(1)", minus_chain]), main(["deg", "P(3)", nested_groups])]
        finally:
            sys.setrecursionlimit(limit)
        assert (codes, capsys.readouterr().out) == ([0, 0], "-1\n1\n")

    def test_trailing_whitespace_is_skipped(self):
        assert parse_class_expr("H^3 \t\n") == Pow(Sym("H"), 3)

    # one token per code point; and one per two, where the limit is reported before the
    # grammar error that the second token already is
    @pytest.mark.parametrize("text, offset", [("H+" * 500000 + "H", 400), ("H " * 10**6, 800)])
    def test_a_million_tokens_make_one_past_the_limit(self, monkeypatch, text, offset):
        made = []  # tokens made by each regex call

        class CountingPattern:
            def findall(self, text):
                toks = real.findall(text)
                made.append(len(toks))
                return toks

            def finditer(self, text):
                made.append(0)
                for m in real.finditer(text):
                    made[-1] += 1
                    yield m

        real = pmod._TOKEN_RE
        monkeypatch.setattr(pmod, "_TOKEN_RE", CountingPattern())
        with pytest.raises(ParseError, match="input is longer than 400 tokens") as exc:
            parse_class_expr(text)
        assert exc.value.offset == offset
        assert made and max(made) == pmod.MAX_TOKENS + 1  # the scan, then the error's offset

    def test_offsets_are_found_only_for_errors(self, monkeypatch):
        calls = []  # the texts of the position passes, the only finditer calls on short texts

        class CountingPattern:
            def findall(self, text):
                return real.findall(text)

            def finditer(self, text):
                calls.append(text)
                return real.finditer(text)

        real = pmod._TOKEN_RE
        monkeypatch.setattr(pmod, "_TOKEN_RE", CountingPattern())
        parse_class_expr("(4*H-2*E1-2*E2-2*E3)^3")
        parse_recipe("bundle(blowup_point(P(2), count=4), summands=[0, H-E1, 2*H-E2-E3])")
        catalog.recipes.__wrapped__()  # every curated recipe text, bypassing the cache
        assert calls == []
        for parse, text in [(parse_class_expr, "H+@"), (parse_class_expr, "2*^H"),
                            (parse_recipe, "blowup_point(P(3), count=1, count=2)"),
                            (parse_recipe, "+".join(["H"] * 201))]:
            calls.clear()
            with pytest.raises(ParseError):
                parse(text)
            assert calls == [text]

    @pytest.mark.parametrize("text, message, offset", [
        ("  @H", "unexpected character '@'", 2),
        ("   ", "expected atom", 3),
        ("", "expected atom", 0),
    ])
    def test_offsets_after_whitespace(self, text, message, offset):
        with pytest.raises(ParseError, match=re.escape(message)) as exc:
            parse_class_expr(text)
        assert exc.value.offset == offset


# tokens of both grammars, the Unicode minus and spaces, joined at random
_token_heavy = st.lists(st.sampled_from(
    ["0", "1", "2", "9", "H", "E1", "zeta", " ", "\u2212", *"+-*/^()[]{}=,:"]
), max_size=40).map("".join)


@settings(max_examples=300, deadline=None)
@given(_token_heavy)
def test_tokens_start_at_their_offsets(text):
    *toks, end = pmod._scan(text)
    assert "".join(toks) == text.replace(" ", "").replace("\u2212", "-")
    assert end == ""
    # every error offset is the UTF-8 byte start of a token, or the end of the text
    offsets = {len(text[:m.start()].encode()) for m in pmod._TOKEN_RE.finditer(text)}
    offsets.add(len(text.encode()))
    for parse in (parse_class_expr, parse_recipe):
        try:
            parse(text)
        except ParseError as exc:
            assert exc.offset in offsets, (parse.__name__, exc)


def test_non_ascii_decimal_digits_are_digits():
    # \d and int() take every Unicode decimal digit, not only ASCII ones; the
    # catalog's epsilon field, by contrast, takes ASCII digits only
    assert parse_recipe("P(\u0663)") == Call("P", (3,))  # ARABIC-INDIC DIGIT THREE
    assert ring.model_from_recipe("P(\u0663)").dimension == 3
    assert parse_class_expr("H^\uff13") == Pow(Sym("H"), 3)  # FULLWIDTH DIGIT THREE
    assert ring.model_from_recipe("P(3)").evaluate("(\uff12*H)^\uff13") == 8
    assert parse_family_id("\u0663.\u0661") == FamilyId(3, 1)
    with pytest.raises(ParseError, match="unexpected character '\xb2'"):  # not a decimal
        parse_class_expr("H^\xb2")
    with pytest.raises(ValueError):
        catalog._parse_epsilon("\u0663/2")


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

    # an integer argument is any argument that parses to an integral number or its
    # negation, and a keyword argument may come before a positional one
    @pytest.mark.parametrize("text,tree", [
        ("P(6/2)", Call("P", (3,))),
        ("P((3))", Call("P", (3,))),
        ("P(-(3))", Call("P", (-3,))),
        ("blowup_point(P(3), count=4/2)", Call("blowup_point", (Call("P", (3,)), 2))),
        ("blowup_curve(P(3), genus=4/2, degrees={H:1})",
         Call("blowup_curve", (Call("P", (3,)), 2, (("H", 1),)))),
        ("blowup_point(count=2, P(3))", Call("blowup_point", (Call("P", (3,)), 2))),
    ], ids=["quotient", "group", "negated-group", "count", "genus", "keyword-first"])
    def test_argument_trees(self, text, tree):
        assert parse_recipe(text) == tree

    def test_unknown_constructor(self):
        with pytest.raises(ParseError):
            parse_recipe("mystery(3)")

    def test_bad_argument(self):
        with pytest.raises(ParseError):
            parse_recipe("P(x)")
        with pytest.raises(ParseError) as exc:
            parse_recipe("blowup_point(P(3), count=1, count=2)")
        assert exc.value.offset == 0

    # a class expression is not a tuple or a list, so it binds to neither kind; a value of
    # another kind, a missing argument and an unknown keyword are errors at the constructor
    @pytest.mark.parametrize("text,message", [
        ("blowup_curve(P(3), genus=0, degrees=H)",
         "blowup_curve: degrees must be a {name: int, ...} mapping"),
        ("bundle(P(1), summands=H)", "bundle: summands must be a [class, ...] list"),
        ("blowup_point(P(3), count=H)", "blowup_point: count must be an integer"),
        ("bundle(P(1))", "bundle: missing argument 'summands'"),
        ("prod(P(1), x=P(1))", "prod: unexpected argument 'x'"),
        ("double_cover(P(3), 2*H)", "double_cover: missing argument 'half_branch'"),
        ("dp3(P(1))", "dp3: argument must be an integer"),
        ("P(x=3)", "P: unexpected argument 'x'"),
        ("bundle(P(1), sumands=[0, H])", "bundle: unexpected argument 'sumands'"),
        ("blowup_point(P(3), cnt=1)", "blowup_point: unexpected argument 'cnt'"),
    ], ids=["degrees", "summands", "count", "missing-keyword", "unexpected-keyword",
            "keyword-given-positionally", "recipe-for-integer", "keyword-for-positional",
            "mistyped-summands", "mistyped-count"])
    def test_argument_of_another_kind(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_recipe(text)
        assert (exc.value.message, exc.value.offset) == (message, 0)


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
        name: {key for key, _, _ in params if key} for name, params in pmod._SIGNATURES.items()
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
