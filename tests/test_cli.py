import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fanocalc
from fanocalc import catalog, classify
from fanocalc.cli import main
from fanocalc.parser import parse_class_expr, parse_family_id, pretty_print

from test_parser import _exprs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDeg:
    def test_blowup_evaluation(self, capsys):
        code, out, _ = run(capsys, "deg", "blowup_point(P(3),count=1)", "(2L-E)^3")
        assert code == 0
        assert out.strip() == "7"

    def test_product_evaluation(self, capsys):
        code, out, _ = run(capsys, "deg", "prod(P(2),P(2))", "(H1+H2)^4")
        assert code == 0
        assert out.strip() == "6"

    def test_json_mode_matches_text(self, capsys):
        # an expression may start with "-", and --json may follow it
        for expr, value in [("(2*H)^3", "8"), ("-H^3", "-1")]:
            code, text_out, _ = run(capsys, "deg", "P(3)", expr)
            assert (code, text_out.strip()) == (0, value)
            code, json_out, _ = run(capsys, "deg", "P(3)", expr, "--json")
            assert code == 0
            assert json.loads(json_out) == {"value": value}

    def test_fractional_value_printed_exactly(self, capsys):
        code, out, _ = run(capsys, "deg", "P(3)", "1/2*H^3")
        assert code == 0
        assert out.strip() == "1/2"

    # (10^1500 - 1)^3, or its inverse, has about 4500 digits: over the int-to-text limit
    @pytest.mark.parametrize("expr", [f"({'9' * 1500}*H)^3", f"(1/{'9' * 1500}*H)^3"],
                             ids=["numerator", "denominator"])
    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_answer_over_the_digit_limit_is_an_error_line(self, capsys, expr, flags):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # the default, whatever this process runs with
        try:
            result = run(capsys, "deg", "P(3)", expr, *flags)
        finally:
            sys.set_int_max_str_digits(limit)
        assert result == (1, "", "error: the exact answer is too long to print: its numerator"
                                 " or denominator has more than 4300 digits\n")

    # F_128: zeta + t*H is positive from t = 65, and doubling t from 1 stops at 128
    @pytest.mark.parametrize("twist", ["128", "9" * 4000], ids=["F128", "4000_digits"])
    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_bundle_with_a_large_twist(self, capsys, time_limit, twist, flags):
        recipe = f"bundle(P(1), summands=[0, -{twist}*H])"
        with time_limit(1.0):
            code, out, err = run(capsys, "deg", recipe, "zeta^2", *flags)
        assert (code, err) == (0, "")
        assert (json.loads(out) == {"value": f"-{twist}"}) if flags else out == f"-{twist}\n"

    def test_wrong_degree_is_domain_error(self, capsys):
        code, _, err = run(capsys, "deg", "P(3)", "H^2")
        assert code == 1
        assert "error:" in err

    def test_parse_error_carries_offset(self, capsys):
        code, _, err = run(capsys, "deg", "P(3)", "2*^H")
        assert code == 1
        assert "offset 2" in err

    def test_parse_error_offset_counts_bytes(self, capsys):
        code, _, err = run(capsys, "deg", "P(3)", "\u2212H+$")  # the minus takes 3 bytes
        assert code == 1
        assert "offset 5" in err

    @pytest.mark.parametrize("expr,message", [
        ("H*H*H*H", "more than 3 classes multiplied on P3"),
        ("(H^2)^2", "more than 3 classes multiplied on P3"),
        ("1/0*H^3", "zero denominator (at offset 2)"),
    ])
    def test_domain_error_message(self, capsys, expr, message):
        assert run(capsys, "deg", "P(3)", expr) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("recipe", [
        "mystery(3)", "P(x)", "P(3, 4)", "P(n=3)", "P(0)", "dp3(8)",
        "prod(P(1))", "prod(P(1), 3)",
        "bundle(P(1), summands=[H])", "bundle(P(1), summands=H)",
        "bundle(P(1), summands=[0, 1/2*H])",
        "blowup_point(P(3), count=0)", "blowup_point(P(3), 1)",
        "blowup_point(P(3), count=1, count=2)",
        "blowup_curve(P(3), genus=-1, degrees={H:1})",
        "blowup_curve(P(3), genus=0, degrees=3)",
        "blowup_curve(P(3), genus=0, degrees={H:1, H:2})",
        "blowup_curve(P(3), genus=0, degrees={H:1, L:2})",
        "double_cover(P(3), half_branch=1/2*H)",
        "divisor_in(P(4))", "divisor_in(P(4), 1/2*H)",
        # rejected by the model's own checks: reference class, basis names
        "divisor_in(P(4), -H)", "divisor_in(prod(P(2),P(2)), H1-H2)",
        "prod(prod(P(1),P(1)),P(1),P(1))",
        "bundle(P(3), summands=[0,0,0])",
        "blowup_curve(P(2), genus=0, degrees={H:1})",
        "double_cover(P(4), half_branch=H)",
        "P(3)x", "P(3, count=1)",
        "blowup_curve(P(3), genus=0, degrees={1:2})",
    ])
    def test_bad_recipe(self, capsys, recipe):
        # "0" evaluates on every model, so only the recipe can fail
        code, out, err = run(capsys, "deg", recipe, "0")
        assert (code, out) == (1, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("recipe,expr", [
        ("P(3)", "(" * 2000 + "H" + ")" * 2000 + "^3"),
        ("P(3)", "+".join(["H^3"] * 3000)),  # no nesting, but a left-deep tree
        ("P(3)", "0^100000000"),
        ("P(3)", "(0*H+1)^100000000*H^3"),
        ("prod(P(1),P(1),P(1))", "(H1+H2+H3+1)^60"),
    ], ids=["deep_nesting", "flat_sum", "zero_power", "constant_power", "inhomogeneous_power"])
    def test_oversized_expression_is_domain_error(self, capsys, time_limit, recipe, expr):
        with time_limit(1.0):
            code, _, err = run(capsys, "deg", recipe, expr)
        assert code == 1
        assert "error" in err and "Traceback" not in err

    def test_oversized_recipe_is_domain_error(self, capsys):
        recipe = "P(3)"
        for _ in range(100):
            recipe = f"blowup_point({recipe}, count=1)"
        code, _, err = run(capsys, "deg", recipe, "H^3")
        assert code == 1
        assert "error" in err and "Traceback" not in err


# time_limit holds no state between examples, so sharing it is safe
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_exprs)
def test_any_class_expression_ends_in_answer_or_domain_error(time_limit, expr):
    text = pretty_print(expr)
    for recipe in ["P(3)", "blowup_point(P(3), count=2)", "prod(P(1),P(1),P(1),P(1))"]:
        out, err = io.StringIO(), io.StringIO()
        with time_limit(1.0), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["deg", recipe, "--", text])  # "--": text may start with "-"
        assert code in (0, 1)
        assert (code == 1) == err.getvalue().startswith("error:")


# recipe text of every constructor, with well-formed arguments of any value
# and with argument shapes drawn at random
_bases = st.sampled_from(["P(1)", "P(2)", "P(3)", "P(4)", "dp3(2)"])
_ints = st.integers(min_value=-1, max_value=70).map(str)
_classes = st.sampled_from(["0", "H", "2*H", "H1+H2", "-H1-H2", "1/2*H", "E1", "zeta", "H^2"])
_class_lists = st.lists(_classes, max_size=3).map(lambda cs: "[" + ", ".join(cs) + "]")
_degree_maps = st.lists(
    st.tuples(st.sampled_from(["H", "L", "H1", "E1", "X"]), st.integers(-2, 5)), max_size=3
).map(lambda kv: "{" + ", ".join(f"{k}:{v}" for k, v in kv) + "}")


def _recipe_calls(children):
    shapes = st.one_of(children, _ints, _classes, _class_lists, _degree_maps)
    keywords = st.sampled_from([None, None, "n", "count", "genus", "degrees", "summands",
                                "half_branch"])
    random_args = st.lists(st.tuples(keywords, shapes), max_size=4).map(
        lambda args: ", ".join(v if k is None else f"{k}={v}" for k, v in args))
    names = st.sampled_from(["P", "dp3", "prod", "bundle", "blowup_point", "blowup_curve",
                             "double_cover", "divisor_in", "mystery"])
    return st.one_of(
        st.tuples(names, random_args).map(lambda c: f"{c[0]}({c[1]})"),
        st.lists(children, min_size=2, max_size=3).map(lambda fs: f"prod({', '.join(fs)})"),
        st.tuples(children, _class_lists).map(lambda a: f"bundle({a[0]}, summands={a[1]})"),
        st.tuples(children, _ints).map(lambda a: f"blowup_point({a[0]}, count={a[1]})"),
        st.tuples(children, _ints, _degree_maps).map(
            lambda a: f"blowup_curve({a[0]}, genus={a[1]}, degrees={a[2]})"),
        st.tuples(children, _classes).map(lambda a: f"double_cover({a[0]}, half_branch={a[1]})"),
        st.tuples(children, _classes).map(lambda a: f"divisor_in({a[0]}, {a[1]})"),
    )


_recipes = st.recursive(_bases, _recipe_calls, max_leaves=5)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_recipes)
def test_any_recipe_ends_in_answer_or_domain_error(time_limit, recipe):
    out, err = io.StringIO(), io.StringIO()
    with time_limit(1.0), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["deg", recipe, "0"])
    assert code in (0, 1)
    assert (code == 1) == err.getvalue().startswith("error:")


# argv of any shape: subcommands, flags and family ids mixed with random text
_argv_words = st.one_of(
    st.sampled_from(["deg", "family", "classify", "verify", "list", "--json", "--only", "--epsilon",
                     "--dp", "--rho", "-h", "--", "-", "dp", "section4", "2.1", "3.11", "10.1",
                     "1.17", "9.99", "4/3", "0", "-1", "P(3)", "H^3", "-H^3"]),
    st.text(max_size=12),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_argv_words, max_size=6))
def test_any_argv_ends_in_an_exit_code(time_limit, argv):
    out, err = io.StringIO(), io.StringIO()
    with time_limit(1.0), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)


class TestFamily:
    def test_known_family(self, capsys):
        code, out, _ = run(capsys, "family", "2.1")
        assert code == 0
        assert "epsilon=1" in out
        assert "non_bpf=true" in out
        assert "dp={1}" in out

    def test_three_two(self, capsys):
        code, out, _ = run(capsys, "family", "3.2")
        assert code == 0
        assert "epsilon=3/2" in out
        assert "dp={3}" in out

    def test_open_family(self, capsys):
        code, out, _ = run(capsys, "family", "1.1")
        assert code == 0
        assert "epsilon=open" in out

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "family", "2.37")
        assert code == 1

    def test_malformed_id(self, capsys):
        code, _, err = run(capsys, "family", "11.1")
        assert code == 1

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "family", "3.2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["epsilon"] == "3/2"
        assert payload["dp_degrees"] == [3]
        assert payload["recomputed"] is True


class TestClassify:
    def test_with_recipe(self, capsys):
        code, out, _ = run(capsys, "classify", "3.2")
        assert code == 0
        assert "fiber_degree=3" in out
        assert "epsilon=3/2" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "classify", "3.19", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["pencil_side"] == "none"
        assert payload["epsilon"] == "2"

    @pytest.mark.parametrize("fid", sorted(catalog.recipes()))
    def test_json_epsilon_matches_catalog(self, capsys, fid):
        code, out, _ = run(capsys, "classify", str(fid), "--json")
        assert code == 0
        rec = catalog.get_family(fid)
        assert json.loads(out)["epsilon"] == str(rec.epsilon)

    def test_without_recipe(self, capsys):
        code, _, err = run(capsys, "classify", "1.17")
        assert code == 1


# One cell tamper of the family TSV per check of verify's partition and dp sections, which
# compare the TSV with the paper's sets: check -> (family id, column, new cell, every FAIL
# line that verify then prints).  One cell can fail several coupled checks.
_TSV_TAMPERS = {
    "epsilon-1-families": ("2.6", "epsilon", "1", [
        "CHECK epsilon-1-families expected={2.1,10.1} actual={2.1,2.6,10.1} FAIL",
        "CHECK epsilon-2-family-count expected=76 actual=75 FAIL",
        "CHECK base-points-iff-epsilon-1 expected={2.1,2.6,10.1} actual={2.1,10.1} FAIL"]),
    "epsilon-4/3-families": ("9.1", "epsilon", "2", [  # 76 is the paper's count
        "CHECK epsilon-4/3-families expected={2.2,2.3,9.1} actual={2.2,2.3} FAIL",
        "CHECK epsilon-2-family-count expected=76 actual=77 FAIL"]),
    "epsilon-3/2-families": ("8.1", "epsilon", "2", [
        "CHECK epsilon-3/2-families expected={2.4,2.5,3.2,8.1} actual={2.4,2.5,3.2} FAIL",
        "CHECK epsilon-2-family-count expected=76 actual=77 FAIL"]),
    "epsilon-3-families": ("2.30", "epsilon", "2", [
        "CHECK epsilon-3-families expected={2.28,2.30,2.33} actual={2.28,2.33} FAIL",
        "CHECK epsilon-2-family-count expected=76 actual=77 FAIL"]),
    "epsilon-2-family-count": ("9.1", "epsilon", "2", [
        "CHECK epsilon-4/3-families expected={2.2,2.3,9.1} actual={2.2,2.3} FAIL",
        "CHECK epsilon-2-family-count expected=76 actual=77 FAIL"]),
    "dp-degree-1-families": ("10.1", "dp_degrees", "-", [
        "CHECK dp-degree-1-families expected={2.1,10.1} actual={2.1} FAIL"]),
    "dp-degree-2-families": ("2.3", "dp_degrees", "-", [
        "CHECK dp-degree-2-families expected={2.2,2.3,9.1} actual={2.2,9.1} FAIL"]),
    "dp-degree-3-families": ("8.1", "dp_degrees", "-", [
        "CHECK dp-degree-3-families expected={2.4,2.5,3.2,8.1} actual={2.4,2.5,3.2} FAIL"]),
    "base-points-iff-epsilon-1": ("2.1", "non_bpf", "false", [  # 2.1's own line goes too
        "CHECK base-points-iff-epsilon-1 expected={2.1,10.1} actual={10.1} FAIL"]),
    "base-points-2.1-no-low-fibration": ("2.1", "dp_degrees", "1,2", [
        "CHECK dp-degree-2-families expected={2.2,2.3,9.1} actual={2.1,2.2,2.3,9.1} FAIL",
        "CHECK base-points-2.1-no-low-fibration expected=- actual=2 FAIL"]),
    "base-points-10.1-no-low-fibration": ("10.1", "dp_degrees", "1,3", [
        "CHECK dp-degree-3-families expected={2.4,2.5,3.2,8.1} actual={2.4,2.5,3.2,8.1,10.1} FAIL",
        "CHECK base-points-10.1-no-low-fibration expected=- actual=3 FAIL"]),
}

# One patched recipe row per check that verify recomputes from a recipe: check -> (family
# id, column, new cell as recipes.tsv would spell it, every FAIL line that verify then
# prints).  A family's appendix and adjunction checks read one middle and pencil, so a
# patch of either fails both.
_RECIPE_TAMPERS = {
    **{f"appendix-{fid}-degree": (fid, "pencil", cell, [
        f"CHECK appendix-{fid}-degree expected={expected} actual={actual} FAIL",
        f"CHECK adjunction-{fid}-fiber-degree expected={expected} actual={actual} FAIL"])
       for fid, cell, expected, actual in [
           ("3.4", "H1", 4, 8), ("3.7", "H1", 6, 8), ("3.11", "L", 7, 9),
           ("3.24", "H1+H2", 8, 6), ("3.26", "2*L", 9, 8), ("4.4", "H", 6, 8),
           ("4.9", "2*L", 8, 6), ("5.1", "H-E1-E2", 5, 6)]},
    **{f"adjunction-{fid}-fiber-degree": (fid, "middle", cell, [
        f"CHECK appendix-{fid}-degree expected={expected} actual={actual} FAIL",
        f"CHECK adjunction-{fid}-fiber-degree expected={expected} actual={actual} FAIL"])
       for fid, cell, expected, actual in [
           ("3.4", "double_cover(prod(P(1),P(2)), half_branch=H1)", 4, 8),
           ("3.7", "divisor_in(prod(P(2),P(2)), H1+2*H2)", 6, 2),
           ("3.11", "blowup_point(divisor_in(P(4), 2*H), count=1)", 7, 3),
           ("3.24", "divisor_in(prod(P(2),P(2)), 2*H1+H2)", 8, 5),
           ("3.26", "blowup_point(divisor_in(P(4), 2*H), count=1)", 9, 8),
           ("4.4", "blowup_point(P(3), count=2)", 6, 7),
           ("4.9", "blowup_curve(blowup_curve(P(3), genus=0, degrees={H:2}), genus=0, "
                   "degrees={H:0, E1:-1})", 8, 7),
           ("5.1", "blowup_point(P(3), count=3)", 5, 6)]},
    "case-3.2-fiber-degree": ("3.2", "d1", "H2", [
        "CHECK case-3.2-fiber-degree expected=3 actual=6 FAIL"]),
    "case-3.8-selfint": ("3.8", "d1", "H1", [
        "CHECK case-3.8-selfint expected=6 actual=2 FAIL"]),
    "case-3.19-selfint": ("3.19", "d1", "2*H", [
        "CHECK case-3.19-selfint expected=8 actual=4 FAIL"]),
    "case-3.31-anticanonical-cube": (
        "3.31", "middle", "bundle(prod(P(1),P(1)), summands=[0, H1])", [
            "CHECK case-3.31-anticanonical-cube expected=52 actual=48 FAIL",
            "CHECK case-3.31-residual expected=40 actual=24 FAIL"]),
    "case-3.31-residual": ("3.31", "d1", "2*zeta+H1", [
        "CHECK case-3.31-residual expected=40 actual=52 FAIL"]),
    "triple-3.1-sums-to-anticanonical": (
        "3.1", "middle", "double_cover(prod(P(1),P(1),P(1)), half_branch=H1+H2+2*H3)", [
            "CHECK triple-3.1-sums-to-anticanonical expected=H1+H2 actual=H1+H2+H3 FAIL"]),
    "triple-3.3-sums-to-anticanonical": (
        "3.3", "middle", "divisor_in(prod(P(1),P(1),P(2)), H1+H2+H3)", [
            "CHECK triple-3.3-sums-to-anticanonical expected=H1+H2+2*H3 actual=H1+H2+H3 FAIL"]),
    "triple-3.17-sums-to-anticanonical": (
        "3.17", "middle", "divisor_in(prod(P(1),P(1),P(2)), H1+H2+2*H3)", [
            "CHECK triple-3.17-sums-to-anticanonical expected=H1+H2+H3 actual=H1+H2+2*H3 FAIL"]),
    "triple-4.1-sums-to-anticanonical": (
        "4.1", "middle", "divisor_in(prod(P(1),P(1),P(1),P(1)), H1+H2+H3+2*H4)", [
            "CHECK triple-4.1-sums-to-anticanonical expected=H1+H2+H3 actual=H1+H2+H3+H4 FAIL"]),
}


class TestVerify:
    def test_full_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) >= 20
        assert all(line.endswith("PASS") for line in lines)

    def test_only_appendix(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "appendix")
        assert code == 0
        assert len(out.strip().splitlines()) == 8

    def test_invalid_section_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--only", "nonsense")
        assert code == 2

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True

    def test_tampered_data_fails(self, capsys, tmp_path, monkeypatch):
        with open(catalog.data_path(), encoding="utf-8") as fh:
            lines = fh.read().splitlines(keepends=True)
        header = lines[0].rstrip("\n").split("\t")
        section = {c.name: c.section for c in classify.verify_paper().checks}
        for n, (check, (fid, column, value, fail_lines)) in enumerate(_TSV_TAMPERS.items()):
            row = next(i for i, line in enumerate(lines) if line.split("\t")[0] == fid)
            cells = lines[row].split("\t")
            assert cells[header.index(column)] != value, check
            cells[header.index(column)] = value
            alt = tmp_path / f"families{n}.tsv"
            alt.write_text("".join(lines[:row] + ["\t".join(cells)] + lines[row + 1:]),
                           encoding="utf-8")
            monkeypatch.setenv(catalog.DATA_ENV_VAR, str(alt))
            code, out, _ = run(capsys, "verify")
            assert code == 1, check
            assert [line for line in out.splitlines() if line.endswith("FAIL")] == fail_lines
            assert any(f"CHECK {check} " in line for line in fail_lines), check
            # --only prints the check's own section, with just that section's FAIL lines
            code, out, _ = run(capsys, "verify", "--only", section[check])
            assert code == 1, check
            printed = [line.split()[1] for line in out.splitlines()]
            assert {section[name] for name in printed} == {section[check]}, check
            assert [line for line in out.splitlines() if line.endswith("FAIL")] == [
                line for line in fail_lines if section[line.split()[1]] == section[check]]

    def test_every_tsv_check_has_a_tamper(self):
        report = classify.verify_paper()
        printed = {c.name for c in report.checks if c.section in ("partition", "dp")}
        assert printed == set(_TSV_TAMPERS)

    def test_tampered_recipe_fails(self, capsys, monkeypatch):
        with open(catalog._RECIPE_DATA, encoding="utf-8") as fh:
            header, *rows = [line.split("\t") for line in fh.read().splitlines()]
        shipped = {row[0]: row for row in rows}
        for check, (fid, column, cell, fail_lines) in _RECIPE_TAMPERS.items():
            assert shipped[fid][header.index(column)] != cell, check
            key = parse_family_id(fid)
            row = catalog.recipes()[key]._replace(**{column: catalog._RECIPE_COLUMNS[column](cell)})
            with monkeypatch.context() as patch:
                patch.setitem(catalog.recipes(), key, row)
                catalog.realize_recipe.cache_clear()
                try:
                    code, out, _ = run(capsys, "verify")
                finally:
                    catalog.realize_recipe.cache_clear()
            assert code == 1, check
            assert [line for line in out.splitlines() if line.endswith("FAIL")] == fail_lines, check
            assert any(f"CHECK {check} " in line for line in fail_lines), check

    def test_every_check_has_a_tamper(self):
        printed = [c.name for c in classify.verify_paper().checks]
        assert sorted(printed) == sorted([*_TSV_TAMPERS, *_RECIPE_TAMPERS])

    def test_bad_triple_is_a_fail_line(self, capsys, monkeypatch):
        bad = parse_class_expr("H1+H2+H2")
        monkeypatch.setattr(classify, "_ROWS", [
            row[:4] + (bad, "-K") if row[1] == "triple-3.1-sums-to-anticanonical" else row
            for row in classify._ROWS])
        report = classify.verify_paper()
        (check,) = [c for c in report.checks if c.name == "triple-3.1-sums-to-anticanonical"]
        assert not check.passed and not report.ok
        code, out, _ = run(capsys, "verify")
        assert code == 1
        assert "CHECK triple-3.1-sums-to-anticanonical" in out and out.count("FAIL") == 1

    # a middle that realizes or classifies with a domain error fails its family's checks
    # alone, and every other check still prints
    @pytest.mark.parametrize("fid, cell, fail_lines", [
        ("3.4", "double_cover(prod(P(1),P(2)), half_branch=2*H2)", [
            "CHECK appendix-3.4-degree expected=4"
            " actual=error: complete intersection curve has invalid genus -1 FAIL",
            "CHECK adjunction-3.4-fiber-degree expected=4"
            " actual=error: complete intersection curve has invalid genus -1 FAIL"]),
        ("5.1", "blowup_point(divisor_in(P(4), 3*H), count=3)", [
            "CHECK appendix-5.1-degree expected=5 actual=0 FAIL",
            "CHECK adjunction-5.1-fiber-degree expected=5"
            " actual=error: fiber degree 0 is not a del Pezzo degree 1..9 FAIL"]),
        ("3.1", "P(3)", [
            "CHECK triple-3.1-sums-to-anticanonical expected=-K"
            " actual=error: unknown symbol 'H1' on model P3 FAIL"]),
        ("3.1", "double_cover(prod(P(1),P(2)), half_branch=H1+H2)", [
            "CHECK triple-3.1-sums-to-anticanonical expected=H1+2*H2"
            " actual=error: unknown symbol 'H3' on model 2:1(P1xP2) FAIL"]),
    ], ids=["geometry-error", "inconsistent-model-error", "triple", "triple-sum"])
    def test_recipe_error_fails_its_own_checks(self, capsys, monkeypatch, fid, cell, fail_lines):
        names = [c.name for c in classify.verify_paper().checks]
        key = parse_family_id(fid)
        row = catalog.recipes()[key]._replace(middle=catalog._RECIPE_COLUMNS["middle"](cell))
        monkeypatch.setitem(catalog.recipes(), key, row)
        catalog.realize_recipe.cache_clear()
        try:
            code, out, err = run(capsys, "verify")
        finally:
            catalog.realize_recipe.cache_clear()
        assert (code, err) == (1, "")
        assert [line.split()[1] for line in out.splitlines()] == names
        assert len(names) == 36
        assert [line for line in out.splitlines() if not line.endswith("PASS")] == fail_lines

    def test_bad_row_is_a_fail_line(self, capsys, monkeypatch):
        fid = parse_family_id("3.31")
        bad = catalog.recipes()[fid]._replace(d1=parse_class_expr("zeta"))
        monkeypatch.setitem(catalog.recipes(), fid, bad)
        catalog.realize_recipe.cache_clear()
        try:
            code, out, _ = run(capsys, "verify")
        finally:
            catalog.realize_recipe.cache_clear()
        assert code == 1
        assert [line for line in out.splitlines() if line.endswith("FAIL")] == [
            "CHECK case-3.31-residual expected=40 actual=28 FAIL"
        ]
        assert "CHECK case-3.31-anticanonical-cube expected=52 actual=52 PASS" in out


class TestList:
    def test_epsilon_filter(self, capsys):
        code, out, _ = run(capsys, "list", "--epsilon", "4/3")
        assert code == 0
        ids = [line.split("\t")[0] for line in out.strip().splitlines()[:-1]]
        assert ids == ["2.2", "2.3", "9.1"]
        assert out.strip().splitlines()[-1] == "count 3"

    def test_dp_filter(self, capsys):
        code, out, _ = run(capsys, "list", "--dp", "3")
        assert code == 0
        ids = [line.split("\t")[0] for line in out.strip().splitlines()[:-1]]
        assert ids == ["2.4", "2.5", "3.2", "8.1"]

    def test_empty_result_is_success(self, capsys):
        code, out, _ = run(capsys, "list", "--epsilon", "5/4")
        assert code == 0
        assert out.strip() == "count 0"

    def test_malformed_rational_is_usage_error(self, capsys, time_limit):
        for text in ("x/y", "1e999999999"):
            with time_limit(1.0):
                code, _, err = run(capsys, "list", "--epsilon", text)
            assert code == 2
            assert "not a rational number" in err

    def test_rho_filter_count(self, capsys):
        code, out, _ = run(capsys, "list", "--rho", "4")
        assert code == 0
        assert out.strip().splitlines()[-1] == "count 13"

    def test_json_matches_text(self, capsys):
        _, text_out, _ = run(capsys, "list", "--epsilon", "3")
        code, json_out, _ = run(capsys, "list", "--epsilon", "3", "--json")
        assert code == 0
        payload = json.loads(json_out)
        text_ids = [line.split("\t")[0] for line in text_out.strip().splitlines()[:-1]]
        assert [row["id"] for row in payload["families"]] == text_ids
        assert payload["count"] == len(text_ids)


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert run(capsys, )[0] == 2

    # the usage line shows where --json sits among each subcommand's options
    @pytest.mark.parametrize("argv,err", [
        (["deg", "P(3)"],
         "usage: fanocalc [-h] {deg,family,classify,verify,list} ...\n"
         "fanocalc: error: the following arguments are required: expr\n"),
        (["list", "--rho", "0"],
         "usage: fanocalc list [-h] [--epsilon EPSILON] [--dp DP] [--rho RHO] [--json]\n"
         "fanocalc list: error: argument --rho: must be positive: 0\n"),
        (["list", "--rho", "x"],
         "usage: fanocalc list [-h] [--epsilon EPSILON] [--dp DP] [--rho RHO] [--json]\n"
         "fanocalc list: error: argument --rho: not an integer: 'x'\n"),
    ], ids=["deg_without_expr", "list_rho_zero", "list_rho_not_an_integer"])
    def test_usage_error_text(self, capsys, monkeypatch, argv, err):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
        assert run(capsys, *argv) == (2, "", err)

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2


class TestClosedStdout:
    """A reader that leaves early, as in ``fanocalc list | head -1``, is not a domain error:
    exit 1 with nothing on stderr, also from the flush at interpreter exit."""

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        ["list"], ["deg", "P(3)", "H^3"], ["family", "3.7", "--json"],
    ], ids=["list", "deg", "family-json"])
    def test_exit_one_and_silent(self, argv, buffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(fanocalc.__file__).parents[1])
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails with EPIPE
        try:
            done = subprocess.run([sys.executable, "-m", "fanocalc", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, env=env, text=True, timeout=60)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, "")

    def test_missing_data_file_is_an_error_line(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv(catalog.DATA_ENV_VAR, str(tmp_path / "absent.tsv"))
        code, out, err = run(capsys, "list")
        assert (code, out) == (1, "")
        assert err.startswith("error: [Errno 2] No such file or directory") and "absent.tsv" in err
