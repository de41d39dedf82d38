import hashlib
import math
import re
from fractions import Fraction

import pytest

from fanocalc import catalog, classify, parser, ring
from fanocalc.cli import main
from fanocalc.catalog import (
    ci_curve_center,
    get_family,
    list_families,
    load_catalog,
    realize_recipe,
    recipes,
)
from fanocalc.errors import (
    ForeignClassError,
    GeometryError,
    NoRecipeError,
    ParseError,
    UnknownFamilyError,
    UnsupportedDimensionError,
)
from fanocalc.parser import parse_family_id

# freeze the data files: any edit must be deliberate and reviewed
DATA_SHA256 = "2096d81a88f3156383037030754d35d89964c10c8cf41de31c590891337be582"
RECIPES_SHA256 = "02d3f9fd47daf136143f466132fc5e4320f9ff666bd7ad039a72234eb2e1c393"

RHO_COUNTS = {1: 17, 2: 36, 3: 31, 4: 13, 5: 3, 6: 1, 7: 1, 8: 1, 9: 1, 10: 1}

# (-K)^3 of each recipe family from the Mori-Mukai tables, in recipe file order
MORI_MUKAI_CUBES = [4, 6, 8, 10, 12, 12, 14, 18, 18, 20, 24, 24, 28, 36, 38, 42, 46, 52, 24, 32, 40, 28, 6]


def test_data_file_checksum():
    with open(catalog.data_path(), "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert digest == DATA_SHA256


def test_recipe_file_checksum():
    with open(catalog._RECIPE_DATA, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert digest == RECIPES_SHA256


class TestUniverse:
    def test_total_count(self):
        assert len(load_catalog()) == 105

    @pytest.mark.parametrize("rho,count", sorted(RHO_COUNTS.items()))
    def test_rank_counts(self, rho, count):
        assert len(list_families(rho=rho)) == count

    def test_numbers_are_contiguous(self):
        for rho, count in RHO_COUNTS.items():
            ids = [r.id for r in list_families(rho=rho)]
            assert ids == [parse_family_id(f"{rho}.{n}") for n in range(1, count + 1)]

    def test_sorted_output(self):
        ids = [r.id for r in list_families()]
        assert ids == sorted(ids)


class TestRecords:
    def test_get_by_string(self):
        rec = get_family("3.2")
        assert rec.rho == 3
        assert rec.epsilon == Fraction(3, 2)
        assert rec.eps_status == "known"

    def test_unknown_family(self):
        with pytest.raises(UnknownFamilyError):
            get_family("2.37")

    def test_open_cases(self):
        for text in ("1.1", "1.2"):
            rec = get_family(text)
            assert rec.eps_status == "open"
            assert rec.epsilon is None
        assert all(
            r.eps_status == "known"
            for r in list_families()
            if r.id not in {parse_family_id("1.1"), parse_family_id("1.2")}
        )

    def test_rank_one_indices(self):
        indices = [get_family(f"1.{n}").index for n in range(1, 18)]
        assert indices == [1] * 10 + [2] * 5 + [3, 4]

    def test_index_two_high_rank(self):
        high = [r for r in list_families() if r.rho >= 2 and r.index == 2]
        assert {str(r.id) for r in high} == {"2.32", "2.35", "3.27"}

    def test_non_bpf_set(self):
        assert {str(r.id) for r in list_families() if r.non_bpf} == {"2.1", "10.1"}

    def test_min_curve_degree_only_where_pinned(self):
        pinned = {str(r.id): r.ell for r in list_families() if r.ell is not None}
        assert pinned == {
            "1.11": 2, "1.12": 2, "1.13": 2, "1.14": 2, "1.15": 2,
            "1.16": 3, "1.17": 4, "2.28": 3, "2.30": 3, "2.33": 3,
        }

    def test_clubsuit_unknown_never_set_for_high_rank(self):
        for rec in list_families():
            assert rec.rho < 2 or rec.clubsuit is not None

    def test_ci_center_subset_of_clubsuit(self):
        for rec in list_families():
            if rec.ci_center:
                assert rec.clubsuit is True

    def test_filters(self):
        assert len(list_families(epsilon=Fraction(3, 2), rho=3)) == 1
        assert [str(r.id) for r in list_families(dp_degree=2)] == ["2.2", "2.3", "9.1"]
        assert list_families(epsilon=Fraction(5, 4)) == []


class TestIdText:
    """get_family finds a canonical id text without a parse; other texts are parsed."""

    def test_canonical_text_finds_its_record(self):
        for fid in load_catalog():
            assert get_family(str(fid)) is get_family(fid)

    @pytest.mark.parametrize("text", [" 3.4", "3.4 ", "\t3.4\n", "03.4", "3.04"])
    def test_other_spellings_are_parsed(self, text):
        assert get_family(text) is get_family(parse_family_id("3.4"))

    @pytest.mark.parametrize("text, error, message", [
        ("2.37", UnknownFamilyError, "no Fano threefold family 2.37"),
        (" 2.37 ", UnknownFamilyError, "no Fano threefold family 2.37"),
        ("3.x", ParseError, "expected family identifier of the form rho.N (at offset 0)"),
        ("11.1", ParseError, "Picard rank must be between 1 and 10 (at offset 0)"),
        ("", ParseError, "expected family identifier of the form rho.N (at offset 0)"),
    ])
    def test_unknown_and_bad_texts(self, text, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            get_family(text)

    def test_data_file_is_read_on_each_call(self, tmp_path, monkeypatch):
        with open(catalog.data_path(), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        alt = tmp_path / "families.tsv"
        alt.write_text("\n".join(lines[:2]) + "\n", encoding="utf-8")  # 1.1 alone
        shipped = get_family("1.1"), get_family("3.4")
        monkeypatch.setenv(catalog.DATA_ENV_VAR, str(alt))
        first = get_family("1.1")
        assert first == shipped[0] and first is not shipped[0]  # the other file's record
        with pytest.raises(UnknownFamilyError, match="^no Fano threefold family 3.4$"):
            get_family("3.4")
        monkeypatch.delenv(catalog.DATA_ENV_VAR)
        assert (get_family("1.1"), get_family("3.4")) == shipped
        assert get_family("1.1") is shipped[0]


def test_env_override_loads_alternate_file(tmp_path, monkeypatch):
    alt = tmp_path / "families.tsv"
    with open(catalog.data_path(), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    alt.write_text("\n".join(lines[:2]) + "\n", encoding="utf-8")
    monkeypatch.setenv(catalog.DATA_ENV_VAR, str(alt))
    assert len(load_catalog()) == 1


def test_bad_header_rejected(tmp_path, monkeypatch):
    bad = tmp_path / "families.tsv"
    bad.write_text("id\trho\n1.1\t1\n", encoding="utf-8")
    monkeypatch.setenv(catalog.DATA_ENV_VAR, str(bad))
    with pytest.raises(ValueError, match="unexpected header"):
        load_catalog()


# one rule per row: a known epsilon is a number, an open one is '?', the status
# is one of the two, non_bpf is a boolean like every other flag, rho is the
# id's rank, epsilon is p or p/q with p, q >= 1, and no id comes twice
@pytest.mark.parametrize("row, tampered, message", [
    ("1.1\t1\t1\t?\topen\t", "1.1\t1\t1\t?\tknown\t",
     "row 1.1: status 'known' does not fit epsilon '?'"),
    ("1.4\t1\t1\t2\tknown\t", "1.4\t1\t1\t2\topen\t",
     "row 1.4: status 'open' does not fit epsilon '2'"),
    ("1.4\t1\t1\t2\tknown\t", "1.4\t1\t1\t2\tmaybe\t",
     "row 1.4: status 'maybe' does not fit epsilon '2'"),
    ("1.4\t1\t1\t2\tknown\t-\tfalse\t", "1.4\t1\t1\t2\tknown\t-\tyes\t",
     "bad boolean field 'yes'"),
    ("\n3.2\t3\t", "\n3.2\t2\t", "row 3.2: rho '2' does not fit the id"),
    ("1.4\t1\t1\t2\tknown\t", "1.4\t1\t1\t2e0\tknown\t", "bad epsilon field '2e0'"),
    ("3.2\t3\t1\t3/2\t", "3.2\t3\t1\t3/0\t", "bad epsilon field '3/0'"),
    ("1.4\t1\t1\t2\tknown\t", "1.4\t1\t1\t-2\tknown\t", "bad epsilon field '-2'"),
    ("\n1.5\t", "\n1.4\t", "duplicate catalog id 1.4"),
    ("1.1\t1\t1\t?\topen\t-\tfalse\tfalse\t?\t?\t", "1.1\t1\t1\t?\t", "bad catalog row: "),
], ids=["known-without-number", "open-with-number", "unknown-status", "non-boolean-non-bpf",
        "rho-off-the-id", "epsilon-exponent", "epsilon-zero-denominator", "epsilon-negative",
        "duplicate-id", "five-cells"])
def test_inconsistent_row_rejected(capsys, tmp_path, monkeypatch, row, tampered, message):
    with open(catalog.data_path(), encoding="utf-8") as fh:
        text = fh.read()
    assert text.count(row) == 1
    alt = tmp_path / "families.tsv"
    alt.write_text(text.replace(row, tampered), encoding="utf-8")
    monkeypatch.setenv(catalog.DATA_ENV_VAR, str(alt))
    with pytest.raises(ValueError, match=re.escape(message)):
        load_catalog()
    assert main(["family", "1.1"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.fixture
def recipe_file(tmp_path, monkeypatch):
    """Points the recipe loader at a copy of the recipe file with ``row`` made ``tampered``."""
    def tamper(row, tampered):
        with open(catalog._RECIPE_DATA, encoding="utf-8") as fh:
            text = fh.read()
        assert text.count(row) == 1
        alt = tmp_path / "recipes.tsv"
        alt.write_text(text.replace(row, tampered), encoding="utf-8")
        monkeypatch.setattr(catalog, "_RECIPE_DATA", str(alt))
        catalog.recipes.cache_clear()
        catalog.realize_recipe.cache_clear()
    yield tamper
    monkeypatch.undo()
    catalog.recipes.cache_clear()
    catalog.realize_recipe.cache_clear()


@pytest.mark.parametrize("row, tampered, message", [
    ("2.1\tdp3(1)\tH\t-\ttrue\n", "2.1\tdp3(1)\tH\t-\n", "bad recipe row: '2.1\\tdp3(1)\\tH\\t-'"),
    ("\tnef_big_second\n", "\tnef_big\n", "has an unexpected header"),
    ("2.1\tdp3(1)\tH\t-\ttrue", "2.1\tdp3(1)\tH\t-\tyes", "bad boolean field 'yes'"),
    ("2.1\tdp3(1)\t", "2.1\tdp3(1\t", "error: recipe 2.1 middle: expected ')' or ','"),
    ("2.1\tdp3(1)", "2.x\tdp3(1)", "error: recipe 2.x id: expected family identifier"),
    ("2.1\tdp3(1)\tH\t", "2.1\tdp3(1)\tH+\t", "error: recipe 2.1 pencil: expected atom"),
    ("2*H2)\t-\tH1\t", "2*H2)\t-\tH1*(\t", "error: recipe 2.2 d1: expected atom"),
    ("\n2.2\t", "\n2.1\t", "duplicate recipe id 2.1"),
    ("2.1\tdp3(1)\tH\t-\t", "2.1\tdp3(1)\tH\tH\t", "recipe 2.1: give exactly one of pencil and d1"),
    ("2.1\tdp3(1)\tH\t-\t", "2.1\tdp3(1)\t-\t-\t", "recipe 2.1: give exactly one of pencil and d1"),
], ids=["four-cells", "unknown-header", "non-boolean-nef-big", "unparsable-middle",
        "unparsable-id", "unparsable-pencil", "unparsable-d1", "duplicate-id", "pencil-and-d1",
        "neither-pencil-nor-d1"])
def test_bad_recipe_row_is_an_error_line(capsys, recipe_file, row, tampered, message):
    recipe_file(row, tampered)
    assert main(["classify", "2.1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1


def test_recipes_are_parsed_once(monkeypatch):
    catalog.recipes.cache_clear()
    realize_recipe.cache_clear()
    for fid in recipes():
        realize_recipe(fid)
    realize_recipe.cache_clear()
    calls = []
    for name in ("parse_recipe", "parse_class_expr"):
        spied = getattr(parser, name)
        monkeypatch.setattr(parser, name, lambda text, f=spied: calls.append(text) or f(text))
    for fid in recipes():
        realize_recipe(fid)
    assert calls == []
    assert catalog.recipes.cache_info().misses == 1


def test_every_model_checks_its_top_power_once(monkeypatch):
    """Realizing every recipe builds 93 models, and each runs one top-power check
    through intersection_number."""
    init, check = ring.VarietyModel.__init__, ring.intersection_number
    counts = {"models": 0, "checks": 0, "depth": 0}

    def counted_init(self, *args, **kwargs):
        counts["models"] += 1
        counts["depth"] += 1
        try:
            init(self, *args, **kwargs)
        finally:
            counts["depth"] -= 1

    def counted_check(model, classes):
        counts["checks"] += counts["depth"] > 0
        return check(model, classes)

    monkeypatch.setattr(ring.VarietyModel, "__init__", counted_init)
    monkeypatch.setattr(ring, "intersection_number", counted_check)
    realize_recipe.cache_clear()
    try:
        for fid in recipes():
            realize_recipe(fid)
    finally:
        realize_recipe.cache_clear()
    assert (counts["models"], counts["checks"]) == (93, 93)


class TestRecipes:
    def test_recipe_coverage(self):
        ids = {str(f) for f in recipes()}
        assert ids == {
            "2.1", "2.2", "2.3", "2.4", "2.5",
            "3.1", "3.2", "3.3", "3.4", "3.5", "3.7", "3.8", "3.11",
            "3.17", "3.19", "3.24", "3.26", "3.31",
            "4.1", "4.4", "4.9", "5.1", "10.1",
        }
        assert len(MORI_MUKAI_CUBES) == len(recipes())

    def test_no_recipe_raises(self):
        assert parse_family_id("1.17") not in recipes()
        with pytest.raises(NoRecipeError):
            realize_recipe(parse_family_id("1.17"))

    @pytest.mark.parametrize("fid", sorted(recipes()))
    def test_realization_is_consistent(self, fid):
        real = realize_recipe(fid)
        model = real.model
        assert model.dimension == 3
        assert real.d1 + real.d2 == model.anticanonical
        assert real.d1.is_integral and real.d2.is_integral
        mk = model.anticanonical
        assert ring.intersection_number(model, [mk, mk, mk]) > 0

    @pytest.mark.parametrize("fid", sorted(recipes()))
    def test_realization_cached(self, fid):
        assert realize_recipe(fid) is realize_recipe(fid)

    def test_ci_center_derivation(self):
        # center of 3.11: intersection of two members of |2L - E| on the
        # point blow-up of P^3 is an elliptic curve of degree 4
        real = realize_recipe(parse_family_id("3.11"))
        assert ci_curve_center(real.middle, real.pencil) == (1, {"H": 4, "E1": 1})
        # a curve center given in the recipe grammar builds the same model
        # as the explicit center
        real = realize_recipe(parse_family_id("3.5"))
        p1p2 = ring.make_product([ring.make_projective_space(1), ring.make_projective_space(2)])
        explicit = ring.make_blowup(p1p2, 0, {"H1": 5, "H2": 2})
        assert real.model.form.entries == explicit.form.entries
        assert real.middle is real.model and real.pencil is None

    @pytest.mark.parametrize(
        "fid", [f for f, r in sorted(recipes().items()) if r.pencil is not None], ids=str
    )
    def test_ci_center_matches_one_product_per_basis_class(self, fid):
        # the center from full products: B.L.L for each basis class B, and the
        # genus from adjunction, 2g - 2 = (K + 2L).L.L
        real = realize_recipe(fid)
        y, pencil = real.middle, real.pencil
        m = len(y.basis)
        degrees = {
            name: ring.intersection_number(
                y, [ring.DivisorClass(y, [int(j == i) for j in range(m)]), pencil, pencil]
            )
            for i, name in enumerate(y.basis)
        }
        two_g_minus_2 = ring.intersection_number(y, [2 * pencil - y.anticanonical, pencil, pencil])
        assert ci_curve_center(y, pencil) == (Fraction(two_g_minus_2 + 2, 2), degrees)

    def test_ci_center_on_projective_space(self):
        p3 = ring.make_projective_space(3)
        # (3,3) complete intersection curve: degree 9, genus 10
        assert ci_curve_center(p3, p3.divisor("3*H")) == (10, {"H": 9})

    def test_ci_center_needs_a_pencil_on_a_threefold(self):
        p2, p3 = ring.make_projective_space(2), ring.make_projective_space(3)
        with pytest.raises(UnsupportedDimensionError, match="needs a threefold"):
            ci_curve_center(p2, p2.divisor("H"))
        with pytest.raises(ForeignClassError):
            ci_curve_center(p3, ring.blowup_points(p3, 1).divisor("H"))
        with pytest.raises(GeometryError, match="^non-integral curve degree 1/4 against H$"):
            ci_curve_center(p3, p3.divisor("1/2*H"))
        # 2g - 2 = (K + 2H).H.H = -1 with H^3 = 1 and -K = 3H
        odd = ring.VarietyModel("odd", 3, ["H"], {(0, 0, 0): 1}, [3], [1])
        with pytest.raises(GeometryError, match="^complete intersection curve has invalid genus 1/2$"):
            ci_curve_center(odd, odd.divisor("H"))

    def test_recorded_triples(self):
        triples = {fid: expr for _, _, fid, _, expr, expected in classify._ROWS if expected == "-K"}
        assert [str(f) for f in triples] == ["3.1", "3.3", "3.17", "4.1"]
        for fid, total in triples.items():
            model = realize_recipe(fid).model
            assert model.divisor(total) == model.anticanonical

    def test_one_freeness_declaration(self):
        # D1 is free in every recipe, and D2 too unless the recipe declares it only nef and big
        assert {str(f) for f, rec in recipes().items() if rec.nef_big_second} == {"2.1", "10.1"}
        for fid, rec in recipes().items():
            assert realize_recipe(fid).free == (True, not rec.nef_big_second)
            assert (rec.pencil is None) != (rec.d1 is None), fid

    @pytest.mark.parametrize("fid, cube", zip(recipes(), MORI_MUKAI_CUBES))
    def test_recipe_invariants_match_the_catalog(self, fid, cube):
        model, rec = realize_recipe(fid).model, get_family(fid)
        mk = model.anticanonical
        assert len(model.basis) == rec.rho
        assert mk.is_integral and math.gcd(*(int(c) for c in mk.coeffs)) == rec.index
        assert ring.intersection_number(model, [mk] * 3) == cube

    def test_known_anticanonical_degrees(self):
        expected = {"2.1": 4, "2.4": 10, "2.5": 12, "3.31": 52, "2.2": 6}
        for text, cube in expected.items():
            real = realize_recipe(parse_family_id(text))
            mk = real.model.anticanonical
            assert ring.intersection_number(real.model, [mk] * 3) == cube
