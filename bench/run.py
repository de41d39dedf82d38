"""Benchmark of fanocalc, from the root of a checkout:

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json says why each is there):

* cli_session  - ``python -m fanocalc`` subprocesses (deg, family, classify,
  list, verify and documented errors); one op is one invocation.
* paper_cold   - in a worker process: verify_paper, epsilon_of_family over
  all 105 families and classify_splitting on the curated recipes, starting
  from an empty recipe cache; one op is the whole reproduction.
* large_models - in a worker process: build one model beyond the curated
  set and answer queries through evaluate and intersection_number.

Each is a closed loop with one client.  Every answer is checked against
oracle.py, which does not use the code under test.  Times are in reference
milliseconds, scaled by a calibration kernel run after each op (see
measure.py); raw times are kept in the run record.  With --trace 0 the
last stdout line holds the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a traced run (see spans.py), which first runs half of
the time untraced to give trace.overhead_ratio.  Spans and a fuller record
of each run are written to .bench_out/.  Exit code 0 means a result was
printed; any other code means the benchmark could not run.
"""

import sys

sys.dont_write_bytecode = True  # keep the checkout free of bench/__pycache__

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import measure  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

ROOT = measure.ROOT
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("cli_session", "paper_cold", "large_models")
SETUP_REPEATS = 3     # setup_s is the median of this many set-ups
STARTUP_REPEATS = 5   # startup.* metrics are medians of this many runs
CLI_ROUNDS = 60       # cli_session rounds generated per set-up
INTERPRETER_REF_MS = 50.0  # python -c pass on a quiet machine


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def run_child(cmd: list, env: dict, limit: float):
    """(seconds, exit code or None on timeout, stdout, stderr); the child is
    killed and reaped when it runs past ``limit``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=limit)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        code = None
    return time.perf_counter() - t0, code, out, err


def cli_session(args, tmp: Path) -> dict:
    setups = []
    for r in range(1 if args.trace else SETUP_REPEATS):
        t0 = time.monotonic()
        families = oracle.read_families()
        rng = random.Random(args.seed)
        ops = [op for _ in range(CLI_ROUNDS) for op in oracle.cli_round(rng, families)]
        env = measure.child_env(tmp / f"pycache{r}")
        # fills the fresh bytecode cache with fanocalc and what it imports
        run_child([sys.executable, "-m", "fanocalc", "verify", "--json"], env, oracle.ANSWER_LIMIT_S)
        setups.append(time.monotonic() - t0)

    dumps, cache = [], [0, 0]
    spans_file = tmp / "op-spans.json"

    def run(op, op_id, traced):
        if traced:
            cmd = [sys.executable, str(BENCH / "cli_child.py"), str(spans_file), str(op_id), *op.argv]
        else:
            cmd = [sys.executable, "-m", "fanocalc", *op.argv]
        _, code, out, err = run_child(cmd, env, oracle.time_limit(op))
        if traced and spans_file.exists():
            with open(spans_file, encoding="utf-8") as fh:
                dump = json.load(fh)
            spans_file.unlink()
            dumps.append(dump)
            cache[0] += dump["cache"][0]
            cache[1] += dump["cache"][1]
        return oracle.check_cli(op, code, out, err)

    def interpreter_start() -> float:
        return run_child([sys.executable, "-c", "pass"], env, 30)[0] * 1000

    phases = []
    for traced, seconds in measure.phases(args.seconds, bool(args.trace)):
        phases.append(measure.closed_loop(
            ops, lambda op, i, traced=traced: run(op, i, traced), seconds,
            first_id=len(phases) * 10**6, kernel=interpreter_start))
    # the largest op child so far; set-up children run the same program
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    probe = []
    if not args.trace:
        for op in oracle.KNOWN_DEFECTS:
            _, code, out, err = run_child([sys.executable, "-m", "fanocalc", *op.argv],
                                          env, oracle.PROBE_LIMIT_S)
            probe.append((op.kind, oracle.check_cli(op, code, out, err)))
    return {"setups": setups, "phases": phases, "peak_rss_kb": peak, "dump": spans.merge(dumps),
            "cache": cache, "env": env, "probe": probe, "reference_ms": INTERPRETER_REF_MS}


def in_process(args, tmp: Path) -> dict:
    """Set up SETUP_REPEATS worker processes; the last one runs the ops."""
    setups = []
    repeats = 1 if args.trace else SETUP_REPEATS
    spans_file = tmp / "spans.json"
    for r in range(repeats):
        env = measure.child_env(tmp / f"pycache{r}")
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        cmd += ["--spans", str(spans_file)] if r == repeats - 1 else ["--setup-only"]
        t0 = time.monotonic()
        _, code, out, err = run_child(cmd, env, args.seconds + 120)
        sys.stderr.write(err)
        if code != 0:
            raise BenchError(f"worker exited with {code}")
        report = json.loads(out.strip().splitlines()[-1])
        setups.append(report["ready"] - t0)
    with open(spans_file, encoding="utf-8") as fh:
        dump = json.load(fh)
    return {"setups": setups, "phases": report["phases"], "peak_rss_kb": report["peak_rss_kb"],
            "dump": dump, "cache": report["cache"], "env": env, "probe": [],
            "reference_ms": measure.C_REF_MS}


def startup(env: dict, traced: bool) -> dict[str, float]:
    """Interpreter start (``python -c pass``) and, when traced, import times,
    each the median of STARTUP_REPEATS runs with a warm bytecode cache."""
    times = [run_child([sys.executable, "-c", "pass"], env, 30)[0] * 1000
             for _ in range(STARTUP_REPEATS)]
    out = {"startup.interpreter_ms": statistics.median(times)}
    if traced:
        cmd = [sys.executable, "-X", "importtime", "-c", "import fanocalc.cli"]
        runs = [measure.parse_importtime(run_child(cmd, env, 30)[3], spans.IMPORT_MODULES)
                for _ in range(STARTUP_REPEATS)]
        for key in runs[0]:
            out[key] = statistics.median([r[key] for r in runs])
    return out


def declared_metrics(trace: int) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            declared = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}")
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        if not (measure.SRC / "fanocalc" / "__init__.py").is_file():
            raise BenchError(f"no fanocalc package under {measure.SRC}")
        if not oracle.TSV_PATH.is_file():
            raise BenchError(f"no family table at {oracle.TSV_PATH}")
        declared = declared_metrics(args.trace)
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:
            runner = cli_session if args.workload == "cli_session" else in_process
            res = runner(args, Path(tmp))
            start = startup(res["env"], bool(args.trace))
        records = [r for phase in res["phases"] for r in phase]
        failures = [r for r in records if r[1] is not None]
        if args.trace:
            untraced, traced = (measure.summary(p, res["setups"], res["reference_ms"])["op_p50_ms"]
                                for p in res["phases"])
            values = spans.per_layer(res["dump"], len(res["phases"][1]), tuple(res["cache"]),
                                     start, traced / untraced)
        else:
            values = measure.summary(records, res["setups"], res["reference_ms"])
            values["peak_rss_mb"] = res["peak_rss_kb"] / 1024  # ru_maxrss is in KiB
        problem = measure.name_problem(values, declared)
        if problem:
            raise BenchError(problem)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    for ms, reason, kind, _ in failures[:5]:
        print(f"bench: failed {kind} op after {ms:.1f} ms: {reason}", file=sys.stderr)
    attempted = len(records)
    latencies = [r[0] for r in records]
    kernel_ms = statistics.median([r[3] for r in records])
    p = measure.tail_percentile(attempted)
    info = {
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "startup.interpreter_ms": start["startup.interpreter_ms"],
        "kernel_median_ms": kernel_ms, "raw_op_p50_ms": statistics.median(latencies),
        "raw_op_tail_ms": measure.quantile(latencies, p), "tail_percentile": p,
        "failed_ops_ratio": len(failures) / attempted, "setups_s": res["setups"],
        "known_defects": dict(res["probe"]),
    }
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": values[k], "unit": declared[k]} for k in sorted(values)}}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "info": info, "ops": [[r[0], r[2], r[3]] for r in records]}, fh)
    if args.trace:
        with open(OUT / f"spans-{tag}.json", "w", encoding="utf-8") as fh:
            json.dump(res["dump"], fh)
    print(f"{args.workload} seed {args.seed}: {attempted} ops, failed_ops_ratio "
          f"{len(failures)}/{attempted} = {info['failed_ops_ratio']:.4f}; op_tail_ms is p{p}, "
          f"10 or more of {attempted} samples beyond; kernel median {kernel_ms:.3f} ms "
          f"(reference {res['reference_ms']} ms), raw op p50 {info['raw_op_p50_ms']:.1f} ms; "
          f"python {info['python']}, nproc {info['nproc']}, "
          f"startup.interpreter_ms {info['startup.interpreter_ms']:.1f}")
    if res["probe"]:
        print("known defects: " + ", ".join(
            f"{kind} {'ok' if reason is None else 'FAILS (' + reason + ')'}"
            for kind, reason in res["probe"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
