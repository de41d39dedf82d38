"""In-process worker for the paper_cold and large_models workloads.

Started by run.py with the pinned environment.  It sets up (imports,
inputs, expected answers, warm-up), runs the timed closed loop and prints
one JSON line: the monotonic time of its first timed op, the per-op records
of each phase (see measure.closed_loop), its peak RSS and realize_recipe's
cache counts.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import signal
import sys
import time
from fractions import Fraction

import measure
import oracle
import spans

PLANS = 200    # paper_cold orderings generated per run
ROUNDS = 30    # large_models rounds generated per run


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"op ran past {oracle.ANSWER_LIMIT_S} s")


class Runner:
    """Runs one op and checks its answer; counts realize_recipe's cache."""

    def __init__(self, families):
        import fanocalc  # noqa: F401  (loads every module the spans wrap)
        from fanocalc import catalog, classify, parser, ring
        self.catalog, self.classify, self.parser, self.ring = catalog, classify, parser, ring
        self.families = families
        self.known = sum(f.eps_status == "known" for f in families.values())
        self.cache = [0, 0]

    def paper(self, plan) -> str | None:
        catalog, classify = self.catalog, self.classify
        catalog.realize_recipe.cache_clear()
        try:
            report = classify.verify_paper()
            if not report.ok:
                return "verify_paper reports a failed check"
            recomputed = 0
            for fid in plan.families:
                fam = self.families[fid]
                got = classify.epsilon_of_family(fid)
                if got.status != fam.eps_status or got.epsilon != fam.epsilon:
                    return f"epsilon_of_family({fid}) = {got.epsilon} ({got.status}), table {fam.epsilon}"
                recomputed += bool(got.recomputed)
            if recomputed < len(oracle.CURATED):
                return f"only {recomputed} of {self.known} known epsilons recomputed"
            for fid in plan.curated:
                fam = self.families[fid]
                real = catalog.realize_recipe(self.parser.parse_family_id(fid))
                split = classify.Splitting(real.d1, real.d2, free1=real.free[0], free2=real.free[1],
                                           nef_big_second=real.nef_big_second)
                outcome = classify.classify_splitting(split, ell_hint=fam.ell)
                if outcome.epsilon != fam.epsilon:
                    return f"classify_splitting({fid}) = {outcome.epsilon}, table {fam.epsilon}"
            return None
        finally:
            info = catalog.realize_recipe.cache_info()
            self.cache[0] += info.hits
            self.cache[1] += info.misses

    def model(self, q: oracle.ModelQuery) -> str | None:
        ring = self.ring
        model = ring.model_from_recipe(q.recipe)
        n = model.dimension
        if n != q.dimension:
            return f"{q.kind}: dimension {n}, expected {q.dimension}"
        for coeffs, expected in zip(q.classes, q.expected):
            via_text = ring.evaluate(model, oracle.class_text(coeffs, n))
            vector = [Fraction(0)] * len(model.basis)
            for name, c in coeffs:
                vector[model.basis_index(name)] += c
            cls = ring.DivisorClass(model, tuple(vector))
            via_classes = ring.intersection_number(model, [cls] * n)
            if via_text != expected or via_classes != expected:
                return f"{q.kind}: {oracle.class_text(coeffs, n)} = {via_text} / {via_classes}, expected {expected}"
        return None

    def run(self, op) -> str | None:
        signal.setitimer(signal.ITIMER_REAL, oracle.ANSWER_LIMIT_S)
        try:
            return self.paper(op) if isinstance(op, oracle.PaperPlan) else self.model(op)
        except Exception as exc:  # a crash is a failed op, not a failed run
            return f"{type(exc).__name__}: {str(exc)[:200]}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("paper_cold", "large_models"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="file the traced phase's spans are written to")
    args = ap.parse_args()

    signal.signal(signal.SIGALRM, _alarm)
    families = oracle.read_families()
    rng = random.Random(args.seed)
    runner = Runner(families)
    if args.workload == "paper_cold":
        ops = oracle.paper_plans(rng, families, PLANS)
        warmup = ops[:1]
    else:
        ops = [q for _ in range(ROUNDS) for q in oracle.large_round(rng)]
        warmup = oracle.warmup_models(random.Random(args.seed))
    for op in warmup:
        if runner.run(op) is not None:
            break  # the timed ops report the failure
    gc.collect()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    results = []
    tracer = spans.Tracer()
    for traced, seconds in measure.phases(args.seconds, bool(args.trace)):
        if traced:
            runner.cache = [0, 0]
            tracer.install()

        def run(op, op_id):
            tracer.op = op_id
            return runner.run(op)

        results.append(measure.closed_loop(ops, run, seconds, first_id=len(results) * 10**6))
    tracer.uninstall()
    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    print(json.dumps({
        "ready": ready,
        "phases": results,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cache": runner.cache,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
