"""Tracing: self time, wrapping every binding, and traced answers equal to
untraced ones."""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import measure  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

import fanocalc  # noqa: E402
import fanocalc.cli  # noqa: E402
from fanocalc import catalog, classify, ring  # noqa: E402


@pytest.fixture
def tracer():
    t = spans.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def fanocalc_modules():
    return [m for name, m in sys.modules.items() if m is not None and name.split(".")[0] == "fanocalc"]


def test_self_time_of_nested_spans():
    s = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 3.0, 0, 0],
        ["b", 2.0, 5.0, 0, 0],     # overlaps a: together they cover 1..5
        ["c", 8.0, 12.0, 0, 0],    # runs past the parent: only 8..10 counts
        ["a.x", 1.5, 2.0, 1, 0],
        ["other", 20.0, 21.0, -1, 1],
    ]
    assert spans.self_times(s) == pytest.approx([4.0, 1.5, 3.0, 4.0, 0.5, 1.0])


def test_merge_offsets_parents():
    one = {"spans": [["x", 0, 1, -1, 0], ["y", 0, 1, 0, 0]], "counters": {"k": 1}, "model_sizes": [[1, 2, 3]]}
    merged = spans.merge([one, one])
    assert [s[3] for s in merged["spans"]] == [-1, 0, -1, 2]
    assert merged["counters"] == {"k": 2}
    assert merged["model_sizes"] == [[1, 2, 3], [3, 2, 3]]


def test_every_binding_is_wrapped(tracer):
    originals = {}
    for module_name, func in spans.TARGETS:
        for module, attr, value in tracer._installed:
            if attr == func and module.__name__ == f"fanocalc.{module_name}":
                originals[id(value)] = value
    assert len(originals) == len(spans.TARGETS)
    for module in fanocalc_modules():
        for attr, value in vars(module).items():
            assert originals.get(id(value)) is not value, f"{module.__name__}.{attr} escapes"
    bound = {(m.__name__, a) for m, a, _ in tracer._installed}
    for name in ("fanocalc.catalog", "fanocalc.classify", "fanocalc.cli", "fanocalc"):
        assert (name, "parse_family_id") in bound


def test_calls_through_any_binding_are_recorded(tracer):
    catalog.parse_family_id("3.2")
    classify.parse_family_id("2.1")
    fanocalc.parse_family_id("4.9")
    catalog.realize_recipe.cache_clear()
    catalog.realize_recipe(fanocalc.parser.parse_family_id("3.11"))
    assert catalog.realize_recipe.cache_info().misses == 1
    names = [s[0] for s in tracer.spans]
    assert names.count("parser.parse_family_id") == 4
    assert "ring.model_from_recipe" in names and "ring.make_blowup" in names
    blowup = names.index("ring.make_blowup")
    assert tracer.spans[blowup][3] >= 0  # nested under realize_recipe or a constructor


def test_uninstall_restores_originals():
    t = spans.Tracer()
    before = catalog.parse_family_id
    t.install()
    assert catalog.parse_family_id is not before
    t.uninstall()
    assert catalog.parse_family_id is before


def answers():
    catalog.realize_recipe.cache_clear()
    out = [classify.verify_paper().render()]
    out += [classify.epsilon_of_family(f) for f in ("2.1", "3.2", "10.1", "1.1")]
    rng = random.Random(4)
    for q in oracle.warmup_models(rng) + [oracle.blowup_p3(rng, 6), oracle.p1_times_blowup_p2(rng, 5)]:
        model = ring.model_from_recipe(q.recipe)
        out += [ring.evaluate(model, oracle.class_text(c, q.dimension)) for c in q.classes]
        out.append(ring.intersection_number(model, [model.anticanonical] * model.dimension))
    return out


def test_traced_answers_equal_untraced():
    untraced = answers()
    t = spans.Tracer()
    t.install()
    try:
        traced = answers()
    finally:
        t.uninstall()
    assert traced == untraced
    assert t.spans and all(end >= start for _, start, end, _, _ in t.spans)


def test_traced_cli_child_matches_plain_cli(tmp_path):
    env = measure.child_env(tmp_path / "pycache")
    argv = ["deg", "blowup_point(P(3), count=2)", "(2*L-1*E1)^3", "--json"]
    plain = subprocess.run([sys.executable, "-m", "fanocalc", *argv], env=env,
                           capture_output=True, text=True, cwd=BENCH.parent, timeout=60)
    spans_file = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, str(BENCH / "cli_child.py"), str(spans_file), "7", *argv],
                            env=env, capture_output=True, text=True, cwd=BENCH.parent, timeout=60)
    assert (traced.returncode, traced.stdout, traced.stderr) == (plain.returncode, plain.stdout, plain.stderr)
    dump = json.loads(spans_file.read_text())
    names = [s[0] for s in dump["spans"]]
    assert names[0] == "cli.main" and "ring.evaluate" in names
    assert {s[4] for s in dump["spans"]} == {7}


def test_per_layer_emits_every_declared_metric(tracer):
    answers()
    startup = measure.parse_importtime("", spans.IMPORT_MODULES)
    startup["startup.interpreter_ms"] = 50.0
    values = spans.per_layer(spans.merge([tracer.dump()]), 1, (3, 4), startup, 1.1)
    assert set(values) == set(spans.MOVES)
    assert values["catalog.realize_recipe.hit_ratio"] == pytest.approx(3 / 7)
    assert values["ring.kernel.validation_calls"] > 0
    # 2.1, 3.2 and 10.1 are known and curated; 1.1 is open and not counted
    assert values["classify.recomputed_ratio"] == 1.0
