"""Closed-loop timing, summary statistics and the pinned child environment.

Times are reported in reference milliseconds.  The machine this benchmark
was written on shares its cores: the same code runs up to 1.8 times slower
for seconds or minutes at a time, so raw wall times of one commit spread by
40% between runs.  A fixed kernel runs after every op: in process, a little
exact-rational arithmetic akin to the engine's own (``calibrate``); for a
CLI op, the start of a bare interpreter, which is what slows most there.
Each op's time is multiplied by the kernel's time on a quiet machine and
divided by the mean of the kernel times just before and just after it.  A
change to fanocalc moves the ops and not the kernel.  Raw times are kept in
the run record.
"""

from __future__ import annotations

import itertools
import math
import os
import re
import statistics
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
NAME_RE = re.compile(r"[A-Za-z0-9_.-]{1,64}")
C_REF_MS = 1.5  # calibrate() on a quiet machine
IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)$")


def child_env(pycache_prefix: Path) -> dict[str, str]:
    """Environment for every process that runs fanocalc.

    The checked-out ``src`` is the only PYTHONPATH entry, so each checkout
    imports its own code.  Bytecode is written to a prefix the benchmark
    owns, never into ``src``, even where the caller's environment sets
    PYTHONDONTWRITEBYTECODE.  Other PYTHON* and FANOCALC_* variables are
    dropped and the hash seed is fixed.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "FANOCALC_"))}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(pycache_prefix)
    env["PYTHONHASHSEED"] = "0"
    return env


def phases(seconds: float, trace: bool) -> list[tuple[bool, float]]:
    """[(traced, seconds)]: one untraced phase, or half untraced and then
    half traced, which gives trace.overhead_ratio."""
    return [(False, seconds / 2), (True, seconds / 2)] if trace else [(False, seconds)]


def calibrate() -> float:
    """Milliseconds taken by a fixed kernel of Fraction arithmetic and dict
    updates on sorted index tuples: the machine's speed right now.  The
    least of three back-to-back runs, so that a stray interruption of a few
    milliseconds does not count as a slow machine."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        table: dict[tuple[int, ...], Fraction] = {}
        for idx in itertools.product(range(6), repeat=3):
            key = tuple(sorted(idx))
            table[key] = table.get(key, Fraction(0)) + Fraction(idx[0] + 1, idx[1] + 2) * Fraction(idx[2] - 3, 7)
        sum(table.values())
        best = min(best, time.perf_counter() - t0)
    return best * 1000


def closed_loop(ops: Sequence, run: Callable[[object, int], Optional[str]],
                seconds: float, first_id: int = 0,
                kernel: Callable[[], float] = calibrate) -> list[list]:
    """Run ops one after another, cycling, until ``seconds`` have passed,
    with the calibration kernel after each.

    ``run(op, op_id)`` returns None for a correct answer and a reason
    otherwise.  Each record is [op ms, reason, kind, kernel ms]; failed ops
    keep the time they took.
    """
    records = []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        op = ops[i % len(ops)]
        t0 = time.perf_counter()
        reason = run(op, first_id + i)
        t1 = time.perf_counter()
        records.append([(t1 - t0) * 1000, reason, op.kind, kernel()])
        i += 1
        if t1 >= deadline:
            return records


def parse_importtime(stderr: str, modules: Sequence[str]) -> dict[str, float]:
    """startup.import_* metrics in ms from one ``-X importtime`` run of
    ``import fanocalc.cli``; fanocalc modules not in ``modules`` go to .other."""
    out = {f"startup.import_self_ms.{m}": 0.0 for m in tuple(modules) + ("other",)}
    out["startup.import_cli_ms"] = 0.0
    for line in stderr.splitlines():
        m = IMPORT_LINE.match(line)
        if not m or m.group(3).split(".")[0] != "fanocalc":
            continue
        own, cumulative, module = int(m.group(1)) / 1000, int(m.group(2)) / 1000, m.group(3)
        key = module if module in modules else "other"
        out[f"startup.import_self_ms.{key}"] += own
        if module == "fanocalc.cli":
            out["startup.import_cli_ms"] = cumulative
    return out


def name_problem(values: dict, declared: dict) -> Optional[str]:
    """Why the emitted metric names are not exactly the declared, well-formed
    ones, or None when they are."""
    bad = sorted(n for n in values if not NAME_RE.fullmatch(n))
    if set(values) == set(declared) and not bad:
        return None
    return (f"emitted metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(declared) - set(values))}, undeclared "
            f"{sorted(set(values) - set(declared))}, malformed {bad}")


def tail_percentile(n: int) -> int:
    """The highest integer percentile with at least ten of n samples beyond
    it (nearest rank), or 100 when there are ten samples or fewer."""
    return 100 if n <= 10 else math.floor(100 * (n - 10) / n)


def quantile(values: Sequence[float], p: int) -> float:
    """Nearest-rank p-th percentile."""
    xs = sorted(values)
    return xs[max(1, math.ceil(p * len(xs) / 100)) - 1]


def summary(records: Sequence[list], setups: Sequence[float],
            reference_ms: float = C_REF_MS) -> dict[str, float]:
    """End-to-end timing metrics of one run, in reference units.

    Each op's time is scaled by ``reference_ms`` (the kernel's time on a
    quiet machine) over the mean of the kernel times that bracket it; the
    first op has only the one after it.  Set-up time is scaled by the
    median kernel time.
    """
    kernel = [r[3] for r in records]
    scaled = [r[0] * reference_ms / ((kernel[i - 1] + kernel[i]) / 2 if i else kernel[0])
              for i, r in enumerate(records)]
    return {
        "op_p50_ms": statistics.median(scaled),
        "op_tail_ms": quantile(scaled, tail_percentile(len(scaled))),
        "ops_per_s": 1000 / statistics.mean(scaled),
        "setup_s": statistics.median(setups) * reference_ms / statistics.median(kernel),
    }
