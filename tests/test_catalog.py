import hashlib
from fractions import Fraction

import pytest

from fanocalc import catalog, ring
from fanocalc.cli import main
from fanocalc.catalog import (
    RECIPES,
    ci_curve_center,
    get_family,
    has_recipe,
    list_families,
    load_catalog,
    realize_recipe,
)
from fanocalc.errors import NoRecipeError, UnknownFamilyError
from fanocalc.parser import parse_family_id

# freeze the data file: any edit must be deliberate and reviewed
DATA_SHA256 = "2096d81a88f3156383037030754d35d89964c10c8cf41de31c590891337be582"

RHO_COUNTS = {1: 17, 2: 36, 3: 31, 4: 13, 5: 3, 6: 1, 7: 1, 8: 1, 9: 1, 10: 1}


def test_data_file_checksum():
    with open(catalog.data_path(), "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert digest == DATA_SHA256


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
        high = [r for r in list_families(min_rho=2) if r.index == 2]
        assert {str(r.id) for r in high} == {"2.32", "2.35", "3.27"}

    def test_genus_lookup(self):
        rec = load_catalog().index_one_by_genus(4)
        assert str(rec.id) == "1.3"
        with pytest.raises(UnknownFamilyError):
            load_catalog().index_one_by_genus(11)
        # genus 1 must not match "genus 10" or "genus 12"
        with pytest.raises(UnknownFamilyError):
            load_catalog().index_one_by_genus(1)
        assert str(load_catalog().index_one_by_genus(10).id) == "1.9"
        assert str(load_catalog().index_one_by_genus(12).id) == "1.10"

    def test_non_bpf_set(self):
        assert {str(r.id) for r in list_families() if r.non_bpf} == {"2.1", "10.1"}

    def test_min_curve_degree_only_where_pinned(self):
        pinned = {str(r.id): r.ell for r in list_families() if r.ell is not None}
        assert pinned == {
            "1.11": 2, "1.12": 2, "1.13": 2, "1.14": 2, "1.15": 2,
            "1.16": 3, "1.17": 4, "2.28": 3, "2.30": 3, "2.33": 3,
        }

    def test_clubsuit_unknown_never_set_for_high_rank(self):
        for rec in list_families(min_rho=2):
            assert rec.clubsuit is not None

    def test_ci_center_subset_of_clubsuit(self):
        for rec in list_families():
            if rec.ci_center:
                assert rec.clubsuit is True

    def test_filters(self):
        assert len(list_families(epsilon=Fraction(3, 2), rho=3)) == 1
        assert [str(r.id) for r in list_families(dp_degree=2)] == ["2.2", "2.3", "9.1"]
        assert list_families(epsilon=Fraction(5, 4)) == []


def test_env_override_loads_alternate_file(tmp_path, monkeypatch):
    alt = tmp_path / "families.tsv"
    with open(catalog.data_path(), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    alt.write_text("\n".join(lines[:2]) + "\n", encoding="utf-8")
    monkeypatch.setenv(catalog.DATA_ENV_VAR, str(alt))
    assert len(load_catalog()) == 1


def test_bad_header_rejected(tmp_path):
    bad = tmp_path / "families.tsv"
    bad.write_text("id\trho\n1.1\t1\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_catalog(str(bad))


# one rule per row: a known epsilon is a number, an open one is '?', the status
# is one of the two, and non_bpf is a boolean like every other flag
@pytest.mark.parametrize("row, tampered", [
    ("1.1\t1\t1\t?\topen\t", "1.1\t1\t1\t?\tknown\t"),
    ("1.4\t1\t1\t2\tknown\t", "1.4\t1\t1\t2\topen\t"),
    ("1.4\t1\t1\t2\tknown\t", "1.4\t1\t1\t2\tmaybe\t"),
    ("1.4\t1\t1\t2\tknown\t-\tfalse\t", "1.4\t1\t1\t2\tknown\t-\tyes\t"),
], ids=["known-without-number", "open-with-number", "unknown-status", "non-boolean-non-bpf"])
def test_inconsistent_row_rejected(capsys, tmp_path, monkeypatch, row, tampered):
    with open(catalog.data_path(), encoding="utf-8") as fh:
        text = fh.read()
    assert text.count(row) == 1
    alt = tmp_path / "families.tsv"
    alt.write_text(text.replace(row, tampered), encoding="utf-8")
    monkeypatch.setenv(catalog.DATA_ENV_VAR, str(alt))
    with pytest.raises(ValueError):
        load_catalog()
    assert main(["family", "1.1"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


class TestRecipes:
    def test_recipe_coverage(self):
        ids = {str(f) for f in RECIPES}
        assert ids == {
            "2.1", "2.2", "2.3", "2.4", "2.5",
            "3.1", "3.2", "3.3", "3.4", "3.5", "3.7", "3.8", "3.11",
            "3.17", "3.19", "3.24", "3.26", "3.31",
            "4.1", "4.4", "4.9", "5.1", "10.1",
        }

    def test_no_recipe_raises(self):
        assert not has_recipe("1.17")
        with pytest.raises(NoRecipeError):
            realize_recipe(parse_family_id("1.17"))

    @pytest.mark.parametrize("fid", sorted(RECIPES))
    def test_realization_is_consistent(self, fid):
        real = realize_recipe(fid)
        model = real.model
        assert model.dimension == 3
        assert real.d1 + real.d2 == model.anticanonical
        assert real.d1.is_integral and real.d2.is_integral
        mk = model.anticanonical
        assert ring.intersection_number(model, [mk, mk, mk]) > 0

    @pytest.mark.parametrize("fid", sorted(RECIPES))
    def test_realization_cached(self, fid):
        assert realize_recipe(fid) is realize_recipe(fid)

    def test_ci_center_derivation(self):
        # center of 3.11: intersection of two members of |2L - E| on the
        # point blow-up of P^3 is an elliptic curve of degree 4
        real = realize_recipe(parse_family_id("3.11"))
        assert real.center == (1, {"H": 4, "E1": 1})
        # a curve center given in the recipe grammar builds the same model
        # as the explicit center
        real = realize_recipe(parse_family_id("3.5"))
        p1p2 = ring.make_product([ring.make_projective_space(1), ring.make_projective_space(2)])
        explicit = ring.make_blowup(p1p2, 0, {"H1": 5, "H2": 2})
        assert real.model.form.entries == explicit.form.entries
        assert real.middle is real.model and real.center is None

    def test_ci_center_on_projective_space(self):
        p3 = ring.make_projective_space(3)
        # (3,3) complete intersection curve: degree 9, genus 10
        assert ci_curve_center(p3, p3.divisor("3*H")) == (10, {"H": 9})

    def test_recorded_triples(self):
        for text in ("3.1", "3.3", "3.17", "4.1"):
            real = realize_recipe(parse_family_id(text))
            assert real.triple is not None
            total = real.triple[0] + real.triple[1] + real.triple[2]
            assert total == real.model.anticanonical

    def test_known_anticanonical_degrees(self):
        expected = {"2.1": 4, "2.4": 10, "2.5": 12, "3.31": 52, "2.2": 6}
        for text, cube in expected.items():
            real = realize_recipe(parse_family_id(text))
            mk = real.model.anticanonical
            assert ring.intersection_number(real.model, [mk] * 3) == cube
