import collections
import gc
import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from fanocalc import catalog, classify, parser, ring
from fanocalc.catalog import realize_recipe, recipes
from fanocalc.errors import (
    DegreeError,
    ForeignClassError,
    GeometryError,
    UnknownSymbolError,
    UnsupportedDimensionError,
)
from fanocalc.parser import parse_class_expr
from fanocalc.ring import (
    DivisorClass,
    blowup_points,
    intersection_number,
    make_blowup,
    make_del_pezzo_threefold,
    make_divisor_in,
    make_double_cover,
    make_product,
    make_projective_bundle,
    make_projective_space,
    model_from_recipe,
)


def P(n):
    return make_projective_space(n)


class TestProjectiveSpace:
    def test_top_power(self):
        assert P(3).evaluate("H^3") == 1

    def test_alias(self):
        assert P(3).evaluate("L^3") == 1

    def test_basis_name_beats_alias(self):
        m = ring.VarietyModel("X", 1, ["H", "E"], {(0,): 1}, [2, 0], [1, 0],
                              aliases={"E": "H", "L": "H", "M": "missing"})
        assert (m.basis_index("E"), m.basis_index("L")) == (1, 0)
        with pytest.raises(UnknownSymbolError, match="unknown symbol 'M' on model X"):
            m.basis_index("M")

    # -K is checked first, with a class's message, and both are kept with ints where integral
    @pytest.mark.parametrize("antican, ref, length", [
        ([2], [1, 0], 1), ([2, 0, 0], [1, 0], 3), ([2, 0], [1], 1), ([2, 0], [1, 0, 0], 3),
        ([2, 0, 0], [1], 3),
    ], ids=["short-K", "long-K", "short-ref", "long-ref", "both"])
    def test_marked_vectors_must_match_basis(self, antican, ref, length):
        with pytest.raises(GeometryError,
                           match=f"^coefficient vector of length {length} does not match basis of size 2$"):
            ring.VarietyModel("X", 1, ["H", "E"], {(0,): 1}, antican, ref)

    def test_marked_vectors_are_ints_where_integral(self):
        m = ring.VarietyModel("X", 1, ["H", "E"], {(0,): 1},
                              [Fraction(4, 2), Fraction(1, 2)], [Fraction(1), True])
        assert m.anticanonical.coeffs == (2, Fraction(1, 2)) and m.ample_ref.coeffs == (1, 1)
        assert [type(c) for c in m.anticanonical.coeffs + m.ample_ref.coeffs] == [
            int, Fraction, int, int]

    def test_anticanonical(self):
        m = P(3)
        assert m.anticanonical == m.divisor("4*H")
        assert intersection_number(m, [m.anticanonical] * 3) == 64

    def test_wrong_degree_rejected(self):
        with pytest.raises(DegreeError):
            P(3).evaluate("H^2")

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbolError):
            P(3).evaluate("H^2*X")

    def test_dimension_range(self):
        with pytest.raises(UnsupportedDimensionError):
            make_projective_space(5)


class TestEarlyDegreeCheck:
    def test_wrong_degree_rejected_before_expansion(self, monkeypatch):
        def no_contraction(*args):
            raise AssertionError("the form was contracted")

        model = make_product([P(1), P(1), P(1)])
        monkeypatch.setattr(ring, "_contract", no_contraction)
        with pytest.raises(DegreeError):
            model.evaluate("(H1+H2+H3)^60")

    def test_cancelling_expression_of_wrong_degree_rejected(self):
        # only linear parts cancel; an exponent above n is rejected even on a constant
        for text in ["H^4-H^4", "H^3+H^2-H^2", "2^4*H^3"]:
            with pytest.raises(DegreeError):
                P(3).evaluate(text)

    def test_literal_zero_has_every_degree(self):
        assert P(3).evaluate("0*H^2") == 0
        assert P(3).evaluate("H^3+(H-H)*H") == 1
        # a sum that cancels in part keeps no zero coefficient in its factor
        m = make_product([P(1), P(1), P(1)])
        walked = ring._walk(m, parse_class_expr("(H1+H2-H1)*H2*H3"))
        assert walked == [(1, ({1: 1}, {1: 1}, {2: 1}))]


class TestLinearTermsOfASum:
    """A sum's symbol and number*symbol terms go into one vector; the walk reads its terms
    left to right, so the first bad term raises, and collects them as any other sum."""

    @pytest.mark.parametrize("call, error, message", [
        (lambda: P(3).divisor("H+1"), DegreeError, "class expression has a term of degree 0, not 1"),
        (lambda: blowup_points(P(3), 1).divisor("E1+H^2+1"), DegreeError,
         "class expression has a term of degree 2, not 1"),
        (lambda: P(3).evaluate("H^3+2*X"), UnknownSymbolError, "unknown symbol 'X' on model P3"),
        (lambda: P(3).evaluate("H^3+H^2-H^2"), DegreeError, "expression is not of degree 3 on P3"),
        (lambda: P(3).evaluate("2*X+H^4"), UnknownSymbolError, "unknown symbol 'X' on model P3"),
        (lambda: P(3).evaluate("H^4+2*X"), DegreeError, "exponent 4 is above the dimension of P3"),
        (lambda: P(3).divisor("H-Y+2*X"), UnknownSymbolError, "unknown symbol 'Y' on model P3"),
        (lambda: P(3).evaluate("X1+X2-H^3"), UnknownSymbolError, "unknown symbol 'X1' on model P3"),
    ], ids=["constant", "square", "unknown-coefficient-term", "cancelled-square",
            "unknown-before-power", "power-before-unknown", "first-unknown", "leftmost-unknown"])
    def test_errors(self, call, error, message):
        with pytest.raises(error) as exc:
            call()
        assert str(exc.value) == message

    def test_collected_list(self):
        # products in order, then the one linear term, then the constant; no zero coefficient
        m = blowup_points(P(3), 2)
        walked = ring._walk(m, parse_class_expr("E1*H*H+2*E1+3+E2+H-E1^3-2*E1+L+1/2*E1-E2+1/2*E1"))
        assert walked == [(1, ({1: 1}, {0: 1}, {0: 1})), (-1, ({1: 1}, {1: 1}, {1: 1})),
                          (1, ({1: 1, 0: 2},)), (3, ())]
        assert {i: type(x) for i, x in walked[2][1][0].items()} == {0: int, 1: Fraction}
        (term,) = ring._walk(m, parse_class_expr("H+2*E1-1/2*L"))
        assert term == (1, ({0: Fraction(1, 2), 1: 2},))
        assert {i: type(x) for i, x in term[1][0].items()} == {0: Fraction, 1: int}


class TestNamedClasses:
    """``ring.evaluate`` with a mapping of names to classes of the model."""

    def test_named_classes_enter_products_and_sums(self):
        m = blowup_points(P(3), 1)
        named = {"A": m.anticanonical, "D1": m.divisor("2*H-E")}
        assert ring.evaluate(m, "A^3", named) == 56
        assert ring.evaluate(m, "D1^2*(A-D1)", named) == m.evaluate("(2*H-E)^2*(2*H-E)")
        # a name first in two sums: the first sum leaves the second's terms as they were
        assert ring.evaluate(m, "(D1+H)*(D1+H)*H", named) == 9

    @pytest.mark.parametrize("model, name", [
        (P(3), "H"),
        (P(3), "L"),
        (blowup_points(P(3), 1), "E"),
    ], ids=["basis", "alias-L", "alias-E"])
    def test_name_of_a_symbol_rejected(self, model, name):
        with pytest.raises(GeometryError, match=f"'{name}'"):
            ring.evaluate(model, "H^3", {name: model.anticanonical})

    def test_foreign_class_rejected(self):
        with pytest.raises(ForeignClassError):
            ring.evaluate(P(3), "D1*H^2", {"D1": P(2).divisor("H")})

    def test_zero_class_is_zero(self):
        m = P(3)
        assert ring.evaluate(m, "Z*H^2", {"Z": m.divisor("0")}) == 0
        assert ring.evaluate(m, "H^3+Z^3", {"Z": m.divisor("0")}) == 1

    def test_unused_name_ignored(self):
        m = P(3)
        assert ring.evaluate(m, "H^3", {"D1": m.divisor("2*H")}) == 1

    def test_divisor_takes_no_names(self):
        with pytest.raises(UnknownSymbolError):
            P(3).divisor("D1")


class TestDelPezzoThreefold:
    def test_degree_and_index(self):
        m = make_del_pezzo_threefold(1)
        assert m.evaluate("H^3") == 1
        assert m.anticanonical == m.divisor("2*H")

    @pytest.mark.parametrize("bad", [0, 6, 7, 8])  # no rank-one V6 or V7 exists
    def test_range(self, bad):
        with pytest.raises(GeometryError, match=f"no del Pezzo threefold of degree {bad}"):
            make_del_pezzo_threefold(bad)


class TestProduct:
    def test_kuenneth_top_class(self):
        m = make_product([P(2), P(2)])
        assert m.evaluate("H1^2*H2^2") == 1
        assert m.evaluate("H1^3*H2") == 0

    def test_binomial_expansion(self):
        assert make_product([P(2), P(2)]).evaluate("(H1+H2)^4") == 6

    def test_colliding_names_renamed(self):
        m = make_product([P(1), P(1), P(1)])
        assert m.basis == ("H1", "H2", "H3")
        assert m.evaluate("H1*H2*H3") == 1

    def test_repeated_basis_name_rejected(self):
        # the inner product's H1, H2 meet the outer renaming H, H -> H2, H3
        with pytest.raises(GeometryError, match="basis names not unique"):
            make_product([make_product([P(1), P(1)]), P(1), P(1)])

    def test_aliases_dropped_on_collision(self):
        m = make_product([P(1), P(2)])
        with pytest.raises(UnknownSymbolError):
            m.evaluate("L^3")

    def test_anticanonical(self):
        m = make_product([P(1), P(2)])
        assert m.anticanonical == m.divisor("2*H1+3*H2")
        assert m.evaluate("(2*H1+3*H2)^3") == 54

    def test_power_of_every_class_stays_one_product(self, time_limit):
        m = model_from_recipe("prod(blowup_point(P(2),count=20), blowup_point(P(2),count=20))")
        assert len(m.basis) == 42
        text = "+".join(m.basis)
        everything = m.divisor(text)
        with time_limit(1.0):
            assert m.evaluate(f"({text})^4") == intersection_number(m, [everything] * 4)

    @pytest.mark.parametrize("count, text, value", [
        # E^2 = -1 on each factor; 40 x 40 products of four classes
        (20, "({})*({})".format("+".join(f"E{i}1*E{i}1" for i in list(range(1, 21)) * 2),
                                "+".join(f"E{i}2*E{i}2" for i in list(range(1, 21)) * 2)), 1600),
        # 99 x 99 products of four classes over a basis of 128 and 4096 stored
        # keys; only the squares of the two sums survive, -49 each
        (63, "(H1*E11+{}+{})^2".format("+".join(f"H1*E{i}2" for i in range(1, 50)),
                                       "+".join(f"H2*E{i}1" for i in range(1, 50))), -98),
    ], ids=["squares", "pairs"])
    def test_sum_of_many_products_is_bounded(self, time_limit, count, text, value):
        m = model_from_recipe(
            f"prod(blowup_point(P(2),count={count}), blowup_point(P(2),count={count}))")
        with time_limit(1.0):
            assert m.evaluate(text) == value


class TestBlowup:
    def test_point_blowup_exceptional_cube(self):
        v7 = blowup_points(P(3), 1)
        assert v7.evaluate("E^3") == 1
        assert v7.evaluate("H^2*E") == 0
        assert v7.evaluate("(2L-E)^3") == 7 == v7.evaluate("(2*H-1/2*E1+1/2*E1-E1)^3")

    def test_v7_anticanonical(self):
        v7 = blowup_points(P(3), 1)
        assert v7.anticanonical == v7.divisor("4*H-2*E")
        assert v7.evaluate("(4*H-2*E)^3") == 56

    def test_two_and_three_points_on_quadric(self):
        p4 = P(4)
        q = make_divisor_in(p4, p4.divisor("2*H"))
        assert blowup_points(q, 2).evaluate("(2*H-E1-E2)^2*(H-E1-E2)") == 6
        assert blowup_points(q, 3).evaluate("(2*H-E1-E2-E3)^2*(H-E1-E2-E3)") == 5

    def test_exceptional_names_numbered(self):
        m = blowup_points(P(3), 2)
        assert m.basis == ("H", "E1", "E2")
        with pytest.raises(UnknownSymbolError):
            m.evaluate("E^3")  # ambiguous once there are two centers

    def test_basis_size_is_bounded(self):
        full = blowup_points(P(3), ring.MAX_BASIS - 1)
        assert len(full.basis) == ring.MAX_BASIS
        with pytest.raises(GeometryError, match="basis classes, over 64"):
            blowup_points(P(3), 10 ** 8)
        # one more point on the full model is over the bound
        with pytest.raises(GeometryError, match="65 basis classes, over 64"):
            blowup_points(full, 1)
        # nested calls cannot get round the bound
        with pytest.raises(GeometryError, match="81 basis classes, over 64"):
            model_from_recipe("blowup_point(blowup_point(P(3), count=40), count=40)")

    def test_exceptional_name_taken_by_the_ambient(self):
        # the product names its factors' E1s E11 and E12, so the 9th new point would be
        # E11 again; the error shows the basis up to that point, as after 9 single blow-ups
        ambient = ("divisor_in(prod(blowup_point(P(2), count=1), blowup_point(P(2), count=1)),"
                   " H1+H2)")
        assert model_from_recipe(f"blowup_point({ambient}, count=8)").basis[-1] == "E10"
        expected = ["H1", "E11", "H2", "E12"] + [f"E{i}" for i in range(3, 12)]
        with pytest.raises(GeometryError) as exc:
            model_from_recipe(f"blowup_point({ambient}, count=12)")
        assert str(exc.value) == f"basis names not unique: {expected}"

    @pytest.mark.parametrize("recipe, basis", [
        ("blowup_point(P(3), count=1)", ("H", "E1")),
        ("blowup_point(blowup_point(P(3), count=2), count=3)", ("H", "E1", "E2", "E3", "E4", "E5")),
        ("blowup_point(blowup_curve(P(3), genus=0, degrees={H:1}), count=1)", ("H", "E1", "E2")),
        ("blowup_point(prod(blowup_point(P(2), count=1), P(1)), count=1)", ("H1", "E1", "H2", "E2")),
        ("blowup_point(bundle(P(2), summands=[0, H]), count=2)", ("H", "zeta", "E1", "E2")),
    ])
    def test_exceptional_names_go_on_from_the_ambients(self, recipe, basis):
        m = model_from_recipe(recipe)
        assert m.basis == basis
        assert ("E" in m.aliases) == (basis == ("H", "E1"))

    def test_point_blowups_build_one_model(self, monkeypatch):
        p3 = P(3)
        built = []
        init = ring.VarietyModel.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ring.VarietyModel, "__init__", counting_init)
        assert len(blowup_points(p3, ring.MAX_BASIS - 1).basis) == ring.MAX_BASIS
        assert len(built) == 1

    def test_long_sum_is_collected_once(self, monkeypatch):
        model = blowup_points(P(3), 20)
        names = model.basis

        def cube_of_sum(terms):
            text = "".join("-+"[i % 2] + names[i % len(names)] for i in range(terms))  # -H+E1-E2…
            return f"({text})^3"

        calls = []
        collect = ring._collect

        def counting_collect(terms, linear):
            calls.append(len(terms))
            return collect(terms, linear)

        monkeypatch.setattr(ring, "_collect", counting_collect)
        counts = []
        for terms, tokens in ((20, 44), (194, 392)):
            text = cube_of_sum(terms)
            assert len(parser._scan(text)) - 1 == tokens  # without the end marker
            calls.clear()
            model.evaluate(text)
            counts.append(len(calls))
        assert counts[1] <= counts[0]

    @pytest.mark.parametrize("text, outside, value", [
        ("(2*(H-E1-E2-E3))^3", "8*(H-E1-E2-E3)^3", -16),
        ("(2*H-E1)^3*1", "(2*H-E1)^3", 7),
        ("3*(2*H-E1)^3", "(2*H-E1)^2*(3*(2*H-E1))", 21),
    ])
    def test_scaled_power_is_one_product(self, monkeypatch, text, outside, value):
        model = blowup_points(P(3), 3)
        assert model.evaluate(outside) == value
        calls = []
        contract = ring._contract

        def counting_contract(entries, factors):
            calls.append(len(factors))
            return contract(entries, factors)

        monkeypatch.setattr(ring, "_contract", counting_contract)
        assert model.evaluate(text) == value
        assert calls == [3]

    def test_one_term_power_makes_no_product(self, monkeypatch):
        model = blowup_points(P(3), 3)
        a = model.divisor("2*H-E1")
        calls = []
        multiply = ring._multiply

        def counting_multiply(model, a, b):
            calls.append((a, b))
            return multiply(model, a, b)

        monkeypatch.setattr(ring, "_multiply", counting_multiply)
        assert model.evaluate("(2*H-E1)^3") == 7 == ring.evaluate(model, "A^3", {"A": a})
        assert calls == []
        # a base of two terms goes through the loop: its two products, then one per factor
        assert model_from_recipe("prod(P(1),P(1),P(1),P(1))").evaluate("(H1*H2+H3*H4)^2") == 2
        assert len(calls) == 4

    def test_curve_blowup_line(self):
        m = make_blowup(P(3), 0, {"H": 1})
        # E^3 = 2 - 2g + deg(-K_Y restricted to C) = 2 + (-4) applied to degree 1
        assert m.evaluate("E^3") == -2
        assert m.evaluate("H*E^2") == -1
        assert m.evaluate("H^2*E") == 0
        # a class named twice, directly or through an alias, is not a degree map
        for degrees in ((("H", 1), ("H", 2)), (("H", 1), ("L", 2))):
            with pytest.raises(GeometryError, match="degree against H given twice"):
                make_blowup(P(3), 0, degrees)
        # a curve needs a genus >= 0
        for genus, degrees in ((-1, {"H": 1}), (None, {"H": 1})):
            with pytest.raises(GeometryError, match="genus"):
                make_blowup(P(3), genus, degrees)

    def test_curve_blowup_twisted_cubic(self):
        m = make_blowup(P(3), 0, {"H": 3})
        assert m.evaluate("E^3") == 2 - 4 * 3
        assert m.evaluate("H*E^2") == -3

    def test_anticanonical_of_curve_blowup(self):
        m = make_blowup(P(3), 0, {"H": 1})
        assert m.anticanonical == m.divisor("4*H-E")


class TestProjectiveBundle:
    def test_trivial_bundle_is_product_like(self):
        base = P(1)
        m = make_projective_bundle(base, [base.divisor("0"), base.divisor("0")])
        # P^1 x P^1 in disguise: zeta^2 = 0
        assert m.evaluate("zeta^2") == 0
        assert m.evaluate("zeta*H") == 1

    def test_grothendieck_relation_v7(self):
        # P(O + O(1)) over P^2 is the point blow-up of P^3
        base = P(2)
        m = make_projective_bundle(base, [base.divisor("0"), base.divisor("H")])
        mk = m.anticanonical
        assert intersection_number(m, [mk, mk, mk]) == 56

    def test_relation_annihilates_complementary_monomials(self):
        base = make_product([P(1), P(1)])
        m = make_projective_bundle(base, [base.divisor("0"), base.divisor("H1+H2")])
        # (zeta - 0)(zeta - (H1+H2)) = 0 against every divisor class
        rel = "zeta^2-zeta*H1-zeta*H2"
        for extra in ("zeta", "H1", "H2", "zeta+3*H1-H2"):
            assert m.evaluate(f"({rel})*({extra})") == 0

    def test_3_31_anticanonical_cube(self):
        base = make_product([P(1), P(1)])
        m = make_projective_bundle(base, [base.divisor("0"), base.divisor("H1+H2")])
        mk = m.anticanonical
        assert intersection_number(m, [mk] * 3) == 52


class TestDoubleCover:
    def test_form_doubles(self):
        p3 = P(3)
        m = make_double_cover(p3, p3.divisor("2*H"))
        assert m.evaluate("H^3") == 2

    def test_anticanonical_shrinks_by_branch(self):
        p3 = P(3)
        m = make_double_cover(p3, p3.divisor("2*H"))
        assert m.anticanonical == m.divisor("2*H")
        assert m.evaluate("(2*H)^3") == 16

    def test_over_product(self):
        base = make_product([P(1), P(2)])
        m = make_double_cover(base, base.divisor("H1+2*H2"))
        assert m.evaluate("H1*H2^2") == 2
        assert m.anticanonical == m.divisor("H1+H2")


class TestDivisorIn:
    def test_quadric_threefold(self):
        p4 = P(4)
        q = make_divisor_in(p4, p4.divisor("2*H"))
        assert q.dimension == 3
        assert q.evaluate("H^3") == 2
        assert q.anticanonical == q.divisor("3*H")

    def test_bidegree_1_1(self):
        amb = make_product([P(2), P(2)])
        w = make_divisor_in(amb, amb.divisor("H1+H2"))
        assert w.evaluate("(H1+H2)^3") == 6
        assert w.anticanonical == w.divisor("2*H1+2*H2")

    @pytest.mark.parametrize("ambient,text", [
        (P(4), "-H"), (make_product([P(2), P(2)]), "H1-H2"),
    ], ids=["negative", "trivial_against_reference"])
    def test_non_positive_class_rejected(self, ambient, text):
        with pytest.raises(GeometryError, match="non-positive top self-intersection"):
            make_divisor_in(ambient, ambient.divisor(text))

    def test_requires_fourfold(self):
        p3 = P(3)
        with pytest.raises(UnsupportedDimensionError):
            make_divisor_in(p3, p3.divisor("2*H"))


class TestModelFromRecipe:
    # every builder calls its constructor through the module's name, so a wrapper put in
    # its place sees the recipe builds
    def test_builders_call_constructors_by_name(self, monkeypatch):
        ran = set()

        def recording(name, constructor):
            def wrapper(*args, **kwargs):
                ran.add(name)
                return constructor(*args, **kwargs)
            return wrapper

        names = ("make_projective_space", "make_del_pezzo_threefold", "make_product",
                 "make_projective_bundle", "blowup_points", "make_blowup",
                 "make_double_cover", "make_divisor_in")
        for name in names:
            monkeypatch.setattr(ring, name, recording(name, getattr(ring, name)))
        for recipe in ["blowup_curve(blowup_curve(P(3), genus=0, degrees={H:2}), genus=0, "
                       "degrees={H:0, E1:-1})",
                       "blowup_point(P(3), count=1)",
                       "dp3(1)",
                       "bundle(prod(P(1),P(1)), summands=[0, H1])",
                       "double_cover(P(3), half_branch=2*H)",
                       "divisor_in(P(4), 2*H)"]:
            model_from_recipe(recipe)
        assert ran == set(names)


class TestDivisorClassArithmetic:
    def test_vector_ops(self):
        m = blowup_points(P(3), 1)
        d = m.divisor("2*H-E")
        assert d + d == m.divisor("4*H-2*E")
        assert d - d == m.divisor("0")
        assert -d == m.divisor("-2*H+E")
        assert 3 * d == m.divisor("6*H-3*E")

    def test_integrality(self):
        m = P(3)
        assert m.divisor("2*H").is_integral
        assert not (m.divisor("H") * Fraction(1, 2)).is_integral

    def test_foreign_class_rejected(self):
        a = P(3).divisor("H")
        b = P(2).divisor("H")
        with pytest.raises(ForeignClassError):
            a + b

    @pytest.mark.parametrize("coeffs", [(), (1, 0)], ids=["short", "long"])
    def test_coefficient_vector_must_match_basis(self, coeffs):
        with pytest.raises(GeometryError, match=f"length {len(coeffs)} does not match basis of size 1"):
            DivisorClass(P(3), tuple(Fraction(c) for c in coeffs))

    def test_str(self):
        m = blowup_points(P(3), 2)
        assert str(m.divisor("3*H-E1-2*E2")) == "3*H-E1-2*E2"

    @pytest.mark.parametrize("recipe", [
        "P(3)",
        "blowup_point(P(3), count=3)",
        "prod(P(1),P(1),P(1))",
        "bundle(prod(P(1),P(1)), summands=[0, H1+H2])",
        "divisor_in(P(4), 2*H)",
        "prod(blowup_point(P(2), count=1), blowup_point(P(2), count=1))",  # H1, E11, H2, E12
    ])
    def test_str_parses_back(self, recipe):
        m = model_from_recipe(recipe)
        rng = random.Random(recipe)
        coefficients = [0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)]
        for _ in range(60):
            c = DivisorClass(m, [rng.choice(coefficients) for _ in m.basis])
            assert m.divisor(str(c)) == c, str(c)
        assert str(m.divisor("0")) == "0"

    def test_only_linear_expressions_are_classes(self):
        m = P(3)
        assert m.divisor("0") == m.divisor("H-H") == DivisorClass(m, (0,))
        for text in ["H*H-H*H", "1", "H+1"]:
            with pytest.raises(DegreeError):
                m.divisor(text)


class TestExactRepresentation:
    """Integral values are ints inside the kernel; results are Fractions."""

    def test_integral_entries_are_ints(self):
        models = [blowup_points(P(3), 20)]
        for fid in recipes():
            real = realize_recipe(fid)
            models += [real.middle, real.model]
        for m in models:
            assert {type(v) for v in m.form.entries.values()} == {int}, m.name

    def test_class_coefficients_are_ints_where_integral(self):
        m = blowup_points(P(3), 1)
        for cls, expected in (
            (m.divisor("2*H-E"), (2, -1)),
            (m.anticanonical, (4, -2)),
            (m.divisor("0"), (0, 0)),
            (DivisorClass(m, (Fraction(2), Fraction(1, 2))), (2, Fraction(1, 2))),
            (m.divisor("H") * Fraction(1, 2), (Fraction(1, 2), 0)),
            (DivisorClass(blowup_points(P(3), 2), (Fraction(4, 2), True, 0)), (2, 1, 0)),
        ):
            assert cls.coeffs == expected
            assert [type(c) for c in cls.coeffs] == [type(c) for c in expected], cls

    def test_results_are_fractions(self):
        m = blowup_points(P(3), 2)
        h, e = m.divisor("H"), m.divisor("E1")
        for value in (
            intersection_number(m, [h, h, h]),
            intersection_number(m, [h, h, e]),
            m.evaluate("(H-E1)^3"),
            m.evaluate("H^3-H^3"),
        ):
            assert type(value) is Fraction

    def test_rational_entry_stays_fraction(self):
        p4 = P(4)
        m = make_divisor_in(p4, p4.divisor("1/2*H"))
        (value,) = m.form.entries.values()
        assert type(value) is Fraction and value == Fraction(1, 2)
        assert m.evaluate("(1/3*H)^3") == Fraction(1, 54)


def _paper_op():  # the paper reproduction from an empty recipe cache
    realize_recipe.cache_clear()
    for fid in recipes():
        real = realize_recipe(fid)
        classify.classify_splitting(classify.Splitting(real.d1, real.d2, *real.free,
                                                       real.nef_big_second))
    classify.verify_paper()
    for fid in catalog.load_catalog():
        classify.epsilon_of_family(fid)
    realize_recipe.cache_clear()


def _large_op():  # models beyond the curated set, through both query paths
    for recipe in ("blowup_point(P(3), count=20)", "prod(P(1), blowup_point(P(2), count=8))",
                   "bundle(prod(P(1),P(1)), summands=[0, H1+H2])"):
        m = model_from_recipe(recipe)
        m.evaluate(f"({m.basis[0]}-{m.basis[-1]})^{m.dimension}")
        intersection_number(m, [m.anticanonical] * m.dimension)


class TestReferenceCounting:
    """A model does not hold its classes, so nothing the package builds is in a reference
    cycle: reference counting frees a model when its last reference drops, with no pause
    for the cyclic garbage collector."""

    @pytest.mark.parametrize("op", [_paper_op, _large_op], ids=["paper", "large-models"])
    def test_no_package_object_is_cyclic_garbage(self, op):
        flags, enabled, start = gc.get_debug(), gc.isenabled(), len(gc.garbage)
        gc.collect()  # what earlier tests left is not this test's
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)  # every object a collection finds goes to gc.garbage
        try:
            op()
            gc.collect()
            cyclic = collections.Counter(type(o).__qualname__ for o in gc.garbage[start:]
                                         if type(o).__module__.startswith("fanocalc"))
        finally:
            gc.set_debug(flags)
            del gc.garbage[start:]
            if enabled:
                gc.enable()
        assert not cyclic, f"cyclic garbage by type: {dict(cyclic)}"

    def test_marked_classes_are_built_on_access(self):
        m = blowup_points(P(3), 1)
        assert m.anticanonical == m.anticanonical == m.divisor("4*H-2*E")
        assert m.anticanonical.model is m and m.ample_ref.model is m
        assert m.ample_ref == m.divisor("H")
        for name in ("anticanonical", "ample_ref"):
            with pytest.raises(AttributeError):
                setattr(m, name, m.divisor("H"))


_P2, _P3 = P(2), P(3)
_H = _P3.divisor("H")
_OTHER_H = P(3).divisor("H")  # a class of another P(3)


# error branches that no other test runs, each with its type and message
@pytest.mark.parametrize("call, error, message", [
    (lambda: intersection_number(_P3, [_H, _H]), DegreeError, "expected 3 classes, got 2"),
    (lambda: intersection_number(_P3, [_H, _H, "H"]), TypeError, "expected a divisor class, got 'H'"),
    (lambda: intersection_number(_P3, [_H, _H, _OTHER_H]), ForeignClassError,
     "divisor class belongs to a different model"),
    (lambda: _H + 1, TypeError, "expected a divisor class, got 1"),
    (lambda: make_projective_bundle(_P2, [_P2.divisor("0"), _H]), ForeignClassError,
     "summand classes must live on the base model"),
    (lambda: make_double_cover(_P3, _OTHER_H), ForeignClassError,
     "half branch class must live on the base model"),
    (lambda: make_divisor_in(P(4), P(4).divisor("2*H")), ForeignClassError,
     "hypersurface class must live on the ambient model"),
    (lambda: classify.pencil_check(_P2, _P2.divisor("H")), UnsupportedDimensionError,
     "pencil test requires a threefold"),
    (lambda: ring.evaluate(_P3, 5), TypeError, "not a class expression: 5"),
    (lambda: parser.pretty_print(5), TypeError, "not a class expression: 5"),
    (lambda: setattr(_H, "coeffs", (2,)), AttributeError, "DivisorClass is immutable"),
    # one object in several slots is checked once, at its first, with the same errors
    (lambda: intersection_number(_P3, [_H] * 2), DegreeError, "expected 3 classes, got 2"),
    (lambda: intersection_number(_P3, [0] * 3), TypeError, "expected a divisor class, got 0"),
    (lambda: intersection_number(_P3, [None] * 3), TypeError, "expected a divisor class, got None"),
    (lambda: intersection_number(_P3, [_OTHER_H] * 3), ForeignClassError,
     "divisor class belongs to a different model"),
    (lambda: intersection_number(_P3, [_H, _OTHER_H, _OTHER_H]), ForeignClassError,
     "divisor class belongs to a different model"),
], ids=["too-few-classes", "not-a-class", "foreign-class", "class-plus-int", "foreign-summand",
        "foreign-half-branch", "foreign-hypersurface", "pencil-on-surface",
        "evaluate-non-expression", "print-non-expression", "immutable-class",
        "repeated-too-few", "repeated-not-a-class", "repeated-none", "repeated-foreign", "foreign-repeated-later"])
def test_error_branch(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# properties


_P1P1 = make_product([P(1), P(1)])

_MODELS = [
    P(3),
    make_product([P(2), P(2)]),
    blowup_points(P(3), 2),
    make_projective_bundle(_P1P1, [_P1P1.divisor("0"), _P1P1.divisor("H1+H2")]),
]


def _random_class(m, rng):
    return DivisorClass(
        m, tuple(Fraction(rng.randint(-4, 4)) for _ in m.basis)
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(0, len(_MODELS) - 1))
def test_intersection_number_symmetric(seed, which):
    rng = random.Random(seed)
    m = _MODELS[which]
    classes = [_random_class(m, rng) for _ in range(m.dimension)]
    base = intersection_number(m, classes)
    perm = rng.sample(classes, len(classes))
    assert intersection_number(m, perm) == base


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(0, len(_MODELS) - 1))
def test_intersection_number_multilinear(seed, which):
    rng = random.Random(seed)
    m = _MODELS[which]
    classes = [_random_class(m, rng) for _ in range(m.dimension)]
    a, b = _random_class(m, rng), _random_class(m, rng)
    s, t = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
    combined = intersection_number(m, [s * a + t * b] + classes[1:])
    split = s * intersection_number(m, [a] + classes[1:]) + t * intersection_number(
        m, [b] + classes[1:]
    )
    assert combined == split


def sympy_oracle(model, linear_forms):
    """Expand a product of linear divisor forms symbolically and contract
    against the model's intersection form."""
    syms = sympy.symbols(f"x0:{len(model.basis)}")
    product = sympy.expand(
        sympy.prod(
            sum(sympy.Rational(c) * s for c, s in zip(form, syms))
            for form in linear_forms
        )
    )
    total = Fraction(0)
    poly = sympy.Poly(product, *syms) if product != 0 else None
    if poly is None:
        return total
    for powers, coeff in poly.terms():
        indices = tuple(
            itertools.chain.from_iterable([i] * p for i, p in enumerate(powers))
        )
        total += Fraction(coeff.p, coeff.q) * model.form.entries.get(indices, 0)
    return total


@pytest.mark.parametrize("which", range(len(_MODELS)))
def test_evaluate_matches_sympy_expansion(which):
    m = _MODELS[which]
    rng = random.Random(2026 + which)
    for _ in range(25):
        forms = [
            [Fraction(rng.randint(-3, 3)) for _ in m.basis]
            for _ in range(m.dimension)
        ]
        classes = [DivisorClass(m, tuple(f)) for f in forms]
        assert intersection_number(m, classes) == sympy_oracle(m, forms)
