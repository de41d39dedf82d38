"""BENCHMARK.json against what the benchmark emits, and the statistics."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH)]

import measure  # noqa: E402
import spans  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
END_TO_END = {"op_p50_ms", "op_tail_ms", "ops_per_s", "peak_rss_mb", "setup_s"}


def test_declared_names_match_emitted_names():
    per_layer = {m["name"]: m for m in DECLARED["per_layer"]}
    assert set(per_layer) == set(spans.MOVES)
    assert {m["name"] for m in DECLARED["end_to_end"]} == END_TO_END
    values = dict.fromkeys(spans.MOVES, 0.0)
    assert measure.name_problem(values, per_layer) is None
    assert measure.name_problem({**values, "bad name": 1.0}, per_layer) is not None
    assert measure.name_problem({}, per_layer) is not None


def test_declared_metrics_are_well_formed():
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    names += [w["name"] for w in DECLARED["workloads"]]
    assert len(names) == len(set(names))
    assert all(measure.NAME_RE.fullmatch(n) for n in names)
    for m in DECLARED["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in DECLARED["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])


def test_every_predicted_move_names_a_declared_pair():
    workloads = {w["name"] for w in DECLARED["workloads"]}
    for metric, pairs in spans.MOVES.items():
        for workload, e2e in pairs:
            assert workload in workloads and e2e in END_TO_END, metric


def test_tail_has_ten_samples_beyond():
    assert measure.tail_percentile(100) == 90
    assert measure.quantile(list(range(100)), 90) == 89   # ten samples beyond
    assert measure.tail_percentile(95) == 89
    assert measure.quantile(list(range(95)), 89) == 84    # ten samples beyond
    assert measure.tail_percentile(10) == 100


def test_summary_cancels_machine_speed():
    quiet = [[10.0 + i % 7, None, "op", 4.0 + (i % 3) / 10] for i in range(50)]
    busy = [[r[0] * 1.7, None, "op", r[3] * 1.7] for r in quiet]
    assert measure.summary(quiet, [1.0, 1.2]) == pytest.approx(measure.summary(busy, [1.7, 2.04]))
    faster = [[r[0] / 2, None, "op", r[3]] for r in quiet]
    assert measure.summary(faster, [1.0])["op_p50_ms"] == pytest.approx(
        measure.summary(quiet, [1.0])["op_p50_ms"] / 2)


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       400 |        400 |           fanocalc.errors",
        "import time:      1000 |       1000 |         fanocalc.limits",
        "import time:     18000 |      19400 |       fanocalc.parser",
        "import time:       600 |      63000 | fanocalc.cli",
        "import time:       900 |        900 | json",
    ])
    got = measure.parse_importtime(text, spans.IMPORT_MODULES)
    assert got["startup.import_cli_ms"] == 63.0
    assert got["startup.import_self_ms.fanocalc.parser"] == 18.0
    assert got["startup.import_self_ms.other"] == 1.0
    assert got["startup.import_self_ms.fanocalc.ring"] == 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
