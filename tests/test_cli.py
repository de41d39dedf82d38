import contextlib
import dataclasses
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fanocalc import catalog, classify
from fanocalc.cli import main
from fanocalc.parser import parse_family_id, pretty_print

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

    @pytest.mark.parametrize("fid", sorted(catalog.RECIPES))
    def test_json_epsilon_matches_catalog(self, capsys, fid):
        code, out, _ = run(capsys, "classify", str(fid), "--json")
        assert code == 0
        rec = catalog.get_family(fid)
        assert json.loads(out)["epsilon"] == str(rec.epsilon)

    def test_without_recipe(self, capsys):
        code, _, err = run(capsys, "classify", "1.17")
        assert code == 1


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
            text = fh.read()
        tampered = text.replace("9.1\t9\t1\t4/3", "9.1\t9\t1\t2")
        assert tampered != text
        alt = tmp_path / "families.tsv"
        alt.write_text(tampered, encoding="utf-8")
        monkeypatch.setenv(catalog.DATA_ENV_VAR, str(alt))
        code, out, _ = run(capsys, "verify")
        assert code == 1
        assert "FAIL" in out


    def test_bad_triple_is_a_fail_line(self, capsys, monkeypatch):
        fid = parse_family_id("3.1")
        bad = dataclasses.replace(catalog.RECIPES[fid], triple=("H1", "H2", "H2"))
        monkeypatch.setitem(catalog.RECIPES, fid, bad)
        catalog.realize_recipe.cache_clear()
        try:
            report = classify.verify_paper()
            (check,) = [c for c in report.checks
                        if c.name == "triple-3.1-sums-to-anticanonical"]
            assert not check.passed and not report.ok
            code, out, _ = run(capsys, "verify")
        finally:
            catalog.realize_recipe.cache_clear()
        assert code == 1
        assert "CHECK triple-3.1-sums-to-anticanonical" in out and out.count("FAIL") == 1


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

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2
