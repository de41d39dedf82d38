from fractions import Fraction

import pytest

from fanocalc import catalog, classify, ring
from fanocalc.classify import (
    Splitting,
    classify_splitting,
    dp_surface_epsilon,
    epsilon_general,
    epsilon_of_family,
    pencil_check,
    verify_paper,
)
from fanocalc.errors import (
    GeometryError,
    InconsistentModelError,
    UnknownFamilyError,
)
from fanocalc.parser import parse_class_expr, parse_family_id, parse_recipe
from fanocalc.ring import VarietyModel, make_blowup, make_projective_space


def _splitting(fid_text):
    real = catalog.realize_recipe(parse_family_id(fid_text))
    return real, Splitting(
        real.d1, real.d2,
        free1=real.free[0], free2=real.free[1],
        nef_big_second=real.nef_big_second,
    )


class TestDpSurfaceTable:
    @pytest.mark.parametrize("degree,eps", [
        (1, Fraction(1)), (2, Fraction(4, 3)), (3, Fraction(3, 2)),
        (4, Fraction(2)), (5, Fraction(2)), (6, Fraction(2)),
        (7, Fraction(2)), (8, Fraction(2)), (9, Fraction(3)),
    ])
    def test_all_degrees(self, degree, eps):
        assert dp_surface_epsilon(degree) == eps

    @pytest.mark.parametrize("bad", [0, 10, -1, Fraction(9, 2)])
    def test_range(self, bad):
        with pytest.raises(ValueError):
            dp_surface_epsilon(bad)


class TestPencilCheck:
    def test_no_pencil_on_two_point_blowup_of_quadric(self):
        real, _ = _splitting("3.19")
        assert not pencil_check(real.model, real.d2)

    def test_no_pencil_on_bundle_section(self):
        real, _ = _splitting("3.31")
        assert not pencil_check(real.model, real.d1)

    def test_pencil_on_cubic_pair_blowup(self):
        real, _ = _splitting("2.4")
        assert pencil_check(real.model, real.d1)

    # on a blow-up the pull-back reference class contracts E, so (H+E)^2.A = 0
    # although (H+E)^2.E = -4; the form alone tells the two apart
    @pytest.mark.parametrize("cls,expected", [("H+E", False), ("H-E", True)])
    def test_line_blowup_reads_only_the_form(self, cls, expected):
        m = make_blowup(make_projective_space(3), genus=0, degrees={"H": 1})
        assert pencil_check(m, m.divisor(cls)) is expected

    def test_requires_integral_class(self):
        m = make_projective_space(3)
        with pytest.raises(GeometryError, match="requires an integral class"):
            pencil_check(m, m.divisor("H") * Fraction(1, 2))
        # the integrality test reads every coefficient, not only the first
        m = ring.model_from_recipe("prod(P(1),P(1),P(1))")
        with pytest.raises(GeometryError, match="requires an integral class"):
            pencil_check(m, ring.DivisorClass(m, [1, 0, Fraction(1, 2)]))


class TestFibrationDegree:
    APPENDIX = {
        "3.4": 4, "3.7": 6, "3.11": 7, "3.24": 8,
        "3.26": 9, "4.4": 6, "4.9": 8, "5.1": 5,
    }

    @pytest.mark.parametrize("fid,expected", sorted(APPENDIX.items()))
    def test_appendix_rows(self, fid, expected):
        real = catalog.realize_recipe(parse_family_id(fid))
        names = {"A": real.middle.anticanonical, "P": real.pencil}
        assert ring.evaluate(real.middle, "(A-P)^2*P", names) == expected

    @pytest.mark.parametrize("fid,expected", sorted(APPENDIX.items()))
    def test_agrees_with_blowup_computation(self, fid, expected):
        real, s = _splitting(fid)
        out = classify_splitting(s)
        assert (out.pencil_side, out.fiber_degree) == ("first", expected)


class TestClassifySplitting:
    def test_degree_one(self):
        _, s = _splitting("2.1")
        out = classify_splitting(s)
        assert (out.pencil_side, out.fiber_degree, out.epsilon) == ("first", 1, Fraction(1))

    def test_degree_three(self):
        _, s = _splitting("3.2")
        out = classify_splitting(s)
        assert (out.fiber_degree, out.epsilon) == (3, Fraction(3, 2))

    def test_high_degree_gives_two(self):
        _, s = _splitting("3.26")
        out = classify_splitting(s)
        assert (out.fiber_degree, out.epsilon) == (9, Fraction(2))

    def test_no_pencil_gives_two(self):
        _, s = _splitting("3.19")
        out = classify_splitting(s)
        assert (out.pencil_side, out.epsilon) == ("none", Fraction(2))

    def test_no_pencil_with_large_min_curve_degree(self):
        _, s = _splitting("3.19")
        assert classify_splitting(s, ell_hint=3).epsilon == Fraction(3)

    def test_pencil_fiber_bound_meets_the_curve_bound(self, monkeypatch):
        # 2.33, P3 blown up along a line: D1 = H - E1 is the pencil of planes through
        # the line, fiber P2 of degree 9, so eps = min(3, l); lines meeting the line give l = 3
        fid = parse_family_id("2.33")
        recipe = catalog.FamilyRecipe(parse_recipe("P(3)"), pencil=parse_class_expr("H"))
        monkeypatch.setitem(catalog.recipes(), fid, recipe)
        catalog.realize_recipe.cache_clear()
        try:
            real = catalog.realize_recipe(fid)
        finally:
            catalog.realize_recipe.cache_clear()
        s = Splitting(real.d1, real.d2)
        assert (str(real.d1), str(real.d2)) == ("H-E1", "3*H")
        out = classify_splitting(s, ell_hint=3)
        assert (out.pencil_side, out.fiber_degree, out.epsilon) == ("first", 9, Fraction(3))
        assert classify_splitting(s).epsilon == Fraction(2)  # the assumed l = 2

    def test_fiber_degree_beyond_del_pezzo_rejected(self):
        # 2*H1 on P1 x P2 passes the pencil test, but its fibers are two planes: degree 18
        m = ring.model_from_recipe("prod(P(1),P(2))")
        s = Splitting(m.divisor("2*H1"), m.divisor("3*H2"))
        with pytest.raises(InconsistentModelError, match="fiber degree 18 is not a del Pezzo"):
            classify_splitting(s)

    def test_pencil_may_sit_on_second_side(self):
        _, s = _splitting("3.5")
        out = classify_splitting(s)
        assert out.pencil_side == "second"
        assert out.epsilon == Fraction(2)

    @pytest.mark.parametrize("fid", ["3.26", "3.19"], ids=["pencil", "no-pencil"])
    def test_contracts_four_times(self, monkeypatch, fid):
        """Two contractions per pencil test, and the fiber degree from their numbers."""
        _, s = _splitting(fid)
        contract, calls = ring._contract, []

        def spy(entries, factors):
            calls.append(len(factors))
            return contract(entries, factors)

        def no_call(*args):
            raise AssertionError("intersection_number called")

        monkeypatch.setattr(ring, "_contract", spy)
        monkeypatch.setattr(ring, "intersection_number", no_call)
        classify_splitting(s)
        assert calls == [1, 1, 1, 1]

    # eps = min(dp(d), l) with a pencil, l without one; l is the hint, or 2
    @pytest.mark.parametrize("fid,by_hint", [
        ("2.1", {None: Fraction(1), 2: Fraction(1), 3: Fraction(1)}),
        ("2.3", {None: Fraction(4, 3), 2: Fraction(4, 3), 3: Fraction(4, 3)}),
        ("3.26", {None: Fraction(2), 2: Fraction(2), 3: Fraction(3)}),
        ("3.19", {None: Fraction(2), 2: Fraction(2), 3: Fraction(3)}),
    ], ids=["pencil-dp1", "pencil-dp2", "pencil-dp9", "no-pencil"])
    def test_epsilon_is_an_exact_fraction(self, fid, by_hint):
        _, s = _splitting(fid)
        for ell_hint, eps in by_hint.items():
            out = classify_splitting(s, ell_hint=ell_hint)
            assert type(out.epsilon) is Fraction and out.epsilon == eps, ell_hint

    def test_requires_freeness(self):
        real, _ = _splitting("3.2")
        s = Splitting(real.d1, real.d2, free1=False)
        with pytest.raises(GeometryError, match="needs a free splitting"):
            classify_splitting(s)

    def test_both_pencils_rejected(self):
        # a deliberately inconsistent model: -K = H1 + H2 with both parts
        # of numerical dimension one
        model = VarietyModel(
            name="fake",
            dimension=3,
            basis=("H1", "H2", "H3"),
            entries={(0, 1, 2): Fraction(1)},
            anticanonical=(2, 2, 0),
            ample_ref=(1, 1, 1),
        )
        s = Splitting(model.divisor("2*H1"), model.divisor("2*H2"))
        with pytest.raises(InconsistentModelError):
            classify_splitting(s)

    def test_splitting_must_sum_to_anticanonical(self):
        m = make_projective_space(3)
        with pytest.raises(GeometryError, match="does not sum to the anticanonical class"):
            Splitting(m.divisor("H"), m.divisor("H"))

    @pytest.mark.parametrize("other,d1,message", [
        (True, "H", "parts live on different models"),
        (False, "0", "parts must be nonzero"),
    ], ids=["models", "zero"])
    def test_invalid_parts_rejected(self, other, d1, message):
        m = make_projective_space(3)
        n = make_projective_space(3) if other else m
        with pytest.raises(GeometryError, match=message):
            Splitting(m.divisor(d1), n.divisor("4*H") - n.divisor(d1))


class TestEpsilonOfFamily:
    def test_recomputed_when_recipe_exists(self):
        res = epsilon_of_family("3.2")
        assert res.epsilon == Fraction(3, 2)
        assert res.recomputed

    def test_recomputed_exactly_where_a_recipe_exists(self):
        recomputed = {r.id for r in catalog.list_families() if epsilon_of_family(r.id).recomputed}
        assert recomputed == set(catalog.recipes())
        assert len(recomputed) == 23

    def test_catalog_only_families(self):
        res = epsilon_of_family("2.33")
        assert res.epsilon == Fraction(3)
        assert not res.recomputed

    def test_open_case(self):
        res = epsilon_of_family("1.1")
        assert res.status == "open"
        assert res.epsilon is None

    def test_rank_one_rules(self):
        assert epsilon_of_family("1.3").epsilon == Fraction(3, 2)
        for n in range(4, 11):
            assert epsilon_of_family(f"1.{n}").epsilon == Fraction(2)
        assert epsilon_of_family("1.16").epsilon == Fraction(3)
        assert epsilon_of_family("1.17").epsilon == Fraction(4)

    def test_unknown_family(self):
        with pytest.raises(UnknownFamilyError):
            epsilon_of_family("6.2")

    def test_disagreement_is_loud(self, tmp_path, monkeypatch):
        with open(catalog.data_path(), encoding="utf-8") as fh:
            text = fh.read()
        tampered = text.replace("3.2\t3\t1\t3/2", "3.2\t3\t1\t2")
        assert tampered != text
        alt = tmp_path / "families.tsv"
        alt.write_text(tampered, encoding="utf-8")
        monkeypatch.setenv(catalog.DATA_ENV_VAR, str(alt))
        with pytest.raises(InconsistentModelError):
            epsilon_of_family("3.2")


class TestEpsilonGeneral:
    def test_projective_space(self):
        res = epsilon_general(3, 4)
        assert (res.status, res.value) == ("exact", Fraction(4))

    def test_low_coindex_exact(self):
        assert epsilon_general(3, 2).status == "exact"
        assert epsilon_general(6, 4).value == Fraction(4)
        assert epsilon_general(6, 4).status == "exact"

    def test_lower_bound_band(self):
        res = epsilon_general(6, 3)
        assert (res.status, res.value) == ("lower_bound", Fraction(3))

    def test_conjectural_tail(self):
        res = epsilon_general(8, 1)
        assert (res.status, res.value) == ("lower_bound", Fraction(1))

    def test_unconditional_bound(self):
        # every answer is at least the 1/n that holds with no hypothesis on the index
        for n in range(2, 9):
            for r in range(1, n + 2):
                assert epsilon_general(n, r).value >= Fraction(1, n)

    @pytest.mark.parametrize("n,r", [(1, 1), (3, 0), (3, 5)])
    def test_range(self, n, r):
        with pytest.raises(Exception):
            epsilon_general(n, r)

    def test_grid_consistency(self):
        for n in range(3, 9):
            for r in range(1, n + 2):
                res = epsilon_general(n, r)
                assert res.value >= 1 or res.status == "lower_bound"
                if r == n + 1:
                    assert res.value == n + 1
                elif r >= max(2, n - 2):
                    assert (res.status, res.value) == ("exact", Fraction(r))
                elif r >= n - 3:
                    assert (res.status, res.value) == ("lower_bound", Fraction(r))
                else:
                    assert (res.status, res.value) == ("lower_bound", Fraction(1))


class TestDpFibrationSets:
    def test_tabulated_sets(self):
        def ids(d):
            return {str(rec.id) for rec in catalog.list_families(dp_degree=d)}

        assert ids(1) == {"2.1", "10.1"}
        assert ids(2) == {"2.2", "2.3", "9.1"}
        assert ids(3) == {"2.4", "2.5", "3.2", "8.1"}

    def test_catalog_off_the_table_is_loud(self, tmp_path, monkeypatch):
        with open(catalog.data_path(), encoding="utf-8") as fh:
            text = fh.read()
        tampered = text.replace("2.3\t2\t1\t4/3\tknown\t2\t", "2.3\t2\t1\t4/3\tknown\t-\t")
        assert tampered != text
        alt = tmp_path / "families.tsv"
        alt.write_text(tampered, encoding="utf-8")
        monkeypatch.setenv(catalog.DATA_ENV_VAR, str(alt))
        report = verify_paper()
        failed = [c for c in report.checks if not c.passed]
        assert not report.ok
        assert [(c.section, c.name) for c in failed] == [("dp", "dp-degree-2-families")]
        (check,) = failed
        assert check.expected == "{2.2,2.3,9.1}" and check.actual == "{2.2,9.1}"


class TestVerifyPaper:
    def test_all_checks_pass(self):
        report = verify_paper()
        assert report.ok
        assert len(report.checks) >= 20

    def test_render_format(self):
        report = verify_paper()
        for line in report.render().splitlines():
            assert line.startswith("CHECK ")
            assert line.endswith((" PASS", " FAIL"))
            assert "expected=" in line and "actual=" in line

    def test_sections_cover_everything(self):
        report = verify_paper()
        seen = {c.section for c in report.checks}
        assert seen == set(classify.VERIFY_SECTIONS)
        total = sum(len(report.section(s).checks) for s in classify.VERIFY_SECTIONS)
        assert total == len(report.checks)

    def test_appendix_section_has_eight_rows(self):
        assert len(verify_paper().section("appendix").checks) == 8

    def test_epsilon_matches_minimal_fibration_degree(self):
        # structural identity: threefold constant equals the fiber surface
        # constant whenever a fibration of degree <= 3 exists
        for rec in catalog.list_families():
            low = rec.dp_degrees & {1, 2, 3}
            if low:
                assert rec.epsilon == dp_surface_epsilon(min(low))

    def test_base_point_families_avoid_low_degrees(self):
        for rec in catalog.list_families():
            if rec.non_bpf:
                assert not rec.dp_degrees & {2, 3}


class TestMutualExclusion:
    @pytest.mark.parametrize("fid", sorted(catalog.recipes()))
    def test_never_two_pencils(self, fid):
        real = catalog.realize_recipe(fid)
        both = pencil_check(real.model, real.d1) and pencil_check(real.model, real.d2)
        assert not both
