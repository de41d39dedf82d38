"""Acceptance suite.

Each test covers one release criterion and prints a single verdict line so
the run log shows the full checklist at a glance.  All comparisons are
exact; there are no tolerances anywhere.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanocalc import catalog, classify, ring
from fanocalc.classify import (
    Splitting,
    classify_splitting,
    dp_surface_epsilon,
    epsilon_general,
    epsilon_of_family,
)
from fanocalc.errors import ParseError
from fanocalc.parser import parse_class_expr, parse_family_id, pretty_print
from fanocalc.ring import DivisorClass, intersection_number

from test_parser import _exprs


def _verdict(number, label):
    print(f"ACCEPTANCE {number} {label} PASS")


APPENDIX = {
    "3.4": 4, "3.7": 6, "3.11": 7, "3.24": 8,
    "3.26": 9, "4.4": 6, "4.9": 8, "5.1": 5,
}


def _fiber_degree(real):
    """(-K_Y - L)^2 . L on the middle variety Y of a pencil recipe."""
    names = {"A": real.middle.anticanonical, "P": real.pencil}
    return ring.evaluate(real.middle, "(A-P)^2*P", names)


def _dp_ids(d):
    return {str(rec.id) for rec in catalog.list_families(dp_degree=d)}


def test_criterion_1_appendix_reproduction():
    for fid_text, expected in APPENDIX.items():
        real = catalog.realize_recipe(parse_family_id(fid_text))
        assert _fiber_degree(real) == expected
    _verdict(1, "appendix-fibration-degrees")


def test_criterion_2_worked_cases():
    m32 = catalog.realize_recipe(parse_family_id("3.2")).model
    assert m32.evaluate("(zeta+H1+H2)^2*H1") == 3
    m38 = catalog.realize_recipe(parse_family_id("3.8")).model
    assert m38.evaluate("(2*H1-E1)^2*H2") == 6
    m319 = catalog.realize_recipe(parse_family_id("3.19")).model
    assert m319.evaluate("(2*H-2*E1-2*E2)^2*H") == 8
    m331 = catalog.realize_recipe(parse_family_id("3.31")).model
    assert m331.evaluate("(2*zeta+H1+H2)^3") == 52
    assert m331.evaluate("2*zeta*(H1+H2)^2") == 4
    assert m331.evaluate("(2*zeta+H1+H2)^3") - 3 * m331.evaluate("2*zeta*(H1+H2)^2") == 40
    _verdict(2, "worked-splitting-cases")


def test_criterion_3_classification_partition():
    buckets = {
        Fraction(1): {"2.1", "10.1"},
        Fraction(4, 3): {"2.2", "2.3", "9.1"},
        Fraction(3, 2): {"2.4", "2.5", "3.2", "8.1"},
        Fraction(3): {"2.28", "2.30", "2.33"},
    }
    high = [r for r in catalog.load_catalog().values() if r.rho >= 2]
    assert len(high) == 88
    for rec in high:
        expected = next(
            (eps for eps, ids in buckets.items() if str(rec.id) in ids), Fraction(2)
        )
        assert rec.epsilon == expected
    assert _dp_ids(1) == {"2.1", "10.1"}
    assert _dp_ids(2) == {"2.2", "2.3", "9.1"}
    assert _dp_ids(3) == {"2.4", "2.5", "3.2", "8.1"}
    _verdict(3, "classification-partition")


def test_criterion_4_dp_surface_table():
    table = {1: Fraction(1), 2: Fraction(4, 3), 3: Fraction(3, 2),
             4: Fraction(2), 5: Fraction(2), 6: Fraction(2),
             7: Fraction(2), 8: Fraction(2), 9: Fraction(3)}
    for degree, expected in table.items():
        assert dp_surface_epsilon(degree) == expected
    _verdict(4, "del-pezzo-surface-table")


def test_criterion_5_rank_one_and_general_rules():
    assert epsilon_of_family("1.3").epsilon == Fraction(3, 2)
    for n in range(4, 11):
        assert epsilon_of_family(f"1.{n}").epsilon == Fraction(2)
    for text in ("1.1", "1.2"):
        assert epsilon_of_family(text).status == "open"
    for n in range(3, 9):
        for r in range(1, n + 2):
            res = epsilon_general(n, r)
            assert res.value >= Fraction(1, n)
            if r == n + 1:
                assert (res.status, res.value) == ("exact", Fraction(n + 1))
            elif r >= max(2, n - 2):
                assert (res.status, res.value) == ("exact", Fraction(r))
            elif r >= n - 3:
                assert (res.status, res.value) == ("lower_bound", Fraction(r))
            else:
                assert (res.status, res.value) == ("lower_bound", Fraction(1))
    _verdict(5, "rank-one-and-index-rules")


def test_criterion_6_adjunction_oracle():
    checked = 0
    for fid, recipe in sorted(catalog.recipes().items()):
        if recipe.pencil is None:
            continue
        real = catalog.realize_recipe(fid)
        s = Splitting(real.d1, real.d2, free1=real.free[0],
                      free2=real.free[1], nef_big_second=real.nef_big_second)
        out = classify_splitting(s)
        assert out.pencil_side == "first"
        assert out.fiber_degree == _fiber_degree(real)
        checked += 1
    assert checked >= 8
    _verdict(6, "adjunction-oracle")


def _models():
    return [catalog.realize_recipe(fid).model for fid in sorted(catalog.recipes())]


def _random_class(m, rng):
    return DivisorClass(m, tuple(Fraction(rng.randint(-3, 3)) for _ in m.basis))


def _class_text(coeffs, basis):
    parts = []
    for c, b in zip(coeffs, basis):
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(f"{sign}{abs(c)}*{b}")
    return "(" + ("".join(parts) or "0") + ")"


def _expansion_oracle(model, linear_forms):
    # brute force: distribute the product over every choice of one basis
    # symbol per factor, no polynomial bookkeeping shared with the engine
    total = Fraction(0)
    m = len(model.basis)
    for choice in itertools.product(range(m), repeat=len(linear_forms)):
        coeff = Fraction(1)
        for form, i in zip(linear_forms, choice):
            coeff *= form[i]
        if coeff != 0:
            total += coeff * model.form.entries.get(tuple(sorted(choice)), 0)
    return total


def test_criterion_7_engine_properties():
    rng = random.Random(20260824)
    models = _models()
    cases = 0

    for m in models:
        n = m.dimension
        for _ in range(15):
            classes = [_random_class(m, rng) for _ in range(n)]
            base = intersection_number(m, classes)
            assert intersection_number(m, rng.sample(classes, n)) == base
            cases += 1
        for _ in range(15):
            classes = [_random_class(m, rng) for _ in range(n - 1)]
            a, b = _random_class(m, rng), _random_class(m, rng)
            s, t = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
            lhs = intersection_number(m, [s * a + t * b] + classes)
            rhs = s * intersection_number(m, [a] + classes) + t * intersection_number(
                m, [b] + classes
            )
            assert lhs == rhs
            cases += 1
        for _ in range(15):
            forms = [
                [rng.randint(-3, 3) for _ in m.basis] for _ in range(m.dimension)
            ]
            text = "*".join(_class_text(f, m.basis) for f in forms)
            assert m.evaluate(text) == _expansion_oracle(m, forms)
            cases += 1

    # tautological-class relation vanishes against complementary monomials
    base2 = ring.make_product(
        [ring.make_projective_space(1), ring.make_projective_space(1)]
    )
    bundle = ring.make_projective_bundle(
        base2, [base2.divisor("0"), base2.divisor("H1+H2")]
    )
    relation = "(zeta)*(zeta-H1-H2)"
    for name in bundle.basis:
        assert bundle.evaluate(f"{relation}*{name}") == 0
        cases += 1
    rank3 = ring.make_projective_bundle(
        base2, [base2.divisor("0"), base2.divisor("-H1-H2"), base2.divisor("-H1-H2")]
    )
    relation3 = "(zeta)*(zeta+H1+H2)^2"
    for name in rank3.basis:
        assert rank3.evaluate(f"{relation3}*{name}") == 0
        cases += 1

    assert cases >= 1000
    _verdict(7, f"engine-properties-{cases}-cases")


@settings(max_examples=50, deadline=None)
@given(_exprs)
def test_criterion_8_parser_round_trip(expr):
    assert parse_class_expr(pretty_print(expr)) == expr


def test_criterion_8_parser_goldens():
    with pytest.raises(ParseError) as exc:
        parse_class_expr("2*^H")
    assert exc.value.offset == 2
    with pytest.raises(ParseError) as exc:
        parse_class_expr("H+E)")
    assert exc.value.offset == 3
    assert parse_family_id("3.2") == (3, 2)
    for bad in ("0.1", "11.1", "2.0"):
        with pytest.raises(ParseError):
            parse_family_id(bad)
    _verdict(8, "parser-round-trip-and-goldens")


def test_criterion_9_base_point_free_equivalence():
    eps_one = {str(r.id) for r in catalog.list_families(epsilon=Fraction(1))}
    non_bpf = {str(r.id) for r in catalog.load_catalog().values() if r.non_bpf}
    dp_one = _dp_ids(1)
    assert eps_one == non_bpf == dp_one
    report = classify.verify_paper()
    check = next(c for c in report.checks if c.name == "base-points-iff-epsilon-1")
    assert check.passed
    assert report.ok
    _verdict(9, "epsilon-1-iff-base-points")
