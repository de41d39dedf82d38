"""The benchmark's oracles: the table read with csv, the closed forms, and the
checks on CLI output, cross-checked against the engine on fixed seeds."""

import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracle  # noqa: E402
import worker  # noqa: E402
from fanocalc import cli, ring  # noqa: E402


@pytest.fixture(scope="module")
def families():
    return oracle.read_families()


def test_table_read_with_csv(families):
    assert len(families) == 105
    assert sum(f.eps_status == "known" for f in families.values()) == 103
    assert list(families) == sorted(families, key=oracle.family_key)
    assert families["3.2"].epsilon == Fraction(3, 2)
    assert families["2.1"].dp_degrees == (1,) and families["2.1"].non_bpf
    assert families["1.1"].epsilon is None and families["1.1"].eps_status == "open"
    assert set(oracle.CURATED) <= set(families)


def closed_form_cases(seed):
    rng = random.Random(seed)
    return oracle.warmup_models(rng) + [
        oracle.blowup_p3(rng, 1), oracle.blowup_p3(rng, 6), oracle.blowup_p2(rng, 8),
        oracle.p1_times_blowup_p2(rng, 8), oracle.p1_fourfold(rng), oracle.middle_4_9(),
    ]


@pytest.mark.parametrize("seed", [3, 11])
def test_closed_forms_agree_with_engine(seed):
    for q in closed_form_cases(seed):
        model = ring.model_from_recipe(q.recipe)
        assert model.dimension == q.dimension
        for coeffs, expected in zip(q.classes, q.expected):
            assert model.evaluate(oracle.class_text(coeffs, q.dimension)) == expected, q.kind


def test_closed_forms_of_known_values():
    rng = random.Random(0)
    assert oracle.blowup_p3(rng, 3).expected[0] == 64 - 8 * 3   # (-K)^3 on Bl_3 P^3
    assert oracle.blowup_p2(rng, 8).expected[0] == 1             # degree-1 del Pezzo
    assert oracle.p1_fourfold(rng).expected[0] == 384            # (-K)^4 on (P^1)^4
    assert oracle.middle_4_9().expected == (50,)


def test_class_text_drops_zero_terms():
    assert oracle.class_text((("H", 3), ("E1", 0), ("E2", -2)), 3) == "(3*H-2*E2)^3"


def run_in_process(op, capsys):
    code = cli.main(list(op.argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("seed", [1, 2])
def test_cli_answers_agree_with_engine(seed, families, capsys):
    ops = oracle.cli_round(random.Random(seed), families)
    ops += oracle.cli_round(random.Random(seed + 100), families)
    assert {op.kind for op in ops} == {"deg", "family", "classify", "list", "verify", "invalid"}
    for op in ops:
        assert oracle.check_cli(op, *run_in_process(op, capsys)) is None, op.argv


def test_cli_checks_reject_wrong_outcomes(families, capsys):
    deg = oracle.CliOp("deg", ("deg", "blowup_point(P(3), count=1)", "(2*L-1*E1)^3"), 0, 7)
    code, out, err = run_in_process(deg, capsys)
    assert oracle.check_cli(deg, code, out, err) is None
    assert oracle.check_cli(replace(deg, answer=8), code, out, err) is not None
    assert oracle.check_cli(deg, 1, out, err) is not None
    assert oracle.check_cli(deg, None, "", "") is not None
    assert oracle.check_cli(deg, 0, out, "Traceback (most recent call last):\nboom") is not None
    fam = oracle.CliOp("family", ("family", "3.2"), 0, families["3.2"])
    code, out, err = run_in_process(fam, capsys)
    assert oracle.check_cli(fam, code, out, err) is None
    wrong = replace(fam, answer=replace(families["3.2"], epsilon=Fraction(2)))
    assert oracle.check_cli(wrong, code, out, err) is not None


def test_known_defects_are_checked_by_time_limit():
    assert all(op.expect_code == 1 for op in oracle.KNOWN_DEFECTS)
    assert oracle.PROBE_LIMIT_S < oracle.ERROR_LIMIT_S
    assert oracle.check_cli(oracle.KNOWN_DEFECTS[1], None, "", "") is not None
    nest = oracle.KNOWN_DEFECTS[0]
    trace = "Traceback (most recent call last):\nRecursionError: maximum recursion depth exceeded"
    assert oracle.check_cli(nest, 1, "", trace) is not None
    assert oracle.check_cli(nest, 1, "", "error: expression nested too deeply") is None


def test_paper_reproduction_agrees_with_table(families):
    runner = worker.Runner(families)
    plan = oracle.paper_plans(random.Random(5), families, 1)[0]
    assert runner.paper(plan) is None
    tampered = dict(families)
    tampered["3.2"] = replace(families["3.2"], epsilon=Fraction(2))
    assert worker.Runner(tampered).paper(plan) is not None


def test_large_model_ops_agree_with_engine(families):
    runner = worker.Runner(families)
    for q in closed_form_cases(7):
        assert runner.model(q) is None
    q = oracle.blowup_p2(random.Random(1), 2)
    assert runner.model(replace(q, expected=(q.expected[0] + 1, q.expected[1]))) is not None


def test_inputs_depend_only_on_seed(families):
    a = oracle.cli_round(random.Random(9), families) + oracle.large_round(random.Random(9))
    b = oracle.cli_round(random.Random(9), families) + oracle.large_round(random.Random(9))
    assert a == b
