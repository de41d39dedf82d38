"""Spans around calls into fanocalc's public functions, recorded from outside.

``Tracer.install()`` replaces each function in TARGETS by a wrapper in every
loaded ``fanocalc`` module that binds it (``from .parser import
parse_family_id`` makes catalog, classify and cli bind their own reference),
so no call escapes.  Each call becomes a span (name, start, end, parent span,
op id) kept in memory; ``per_layer`` turns the spans, and the counters taken
at the same boundaries, into the per-layer metrics, normalised per op.
"""

from __future__ import annotations

import functools
import sys
import time

PARSERS = ("parse_class_expr", "parse_recipe", "parse_family_id")
CONSTRUCTORS = (
    "make_projective_space", "make_del_pezzo_threefold", "make_product",
    "make_projective_bundle", "make_blowup", "blowup_points",
    "make_double_cover", "make_divisor_in", "model_from_recipe",
)
KERNELS = ("intersection_number", "evaluate")
CLASSIFIERS = ("verify_paper", "epsilon_of_family", "classify_splitting", "pencil_check")

# (defining module, function); the span name is "<module>.<function>".
TARGETS = (
    [("parser", f) for f in PARSERS]
    + [("ring", f) for f in CONSTRUCTORS + KERNELS]
    + [("catalog", "load_catalog"), ("catalog", "realize_recipe")]
    + [("classify", f) for f in CLASSIFIERS]
    + [("cli", "main")]
)

# Modules whose import self time is reported on its own; any other
# fanocalc module is summed into startup.import_self_ms.other.
IMPORT_MODULES = (
    "fanocalc", "fanocalc.errors", "fanocalc.parser", "fanocalc.ring",
    "fanocalc.catalog", "fanocalc.classify", "fanocalc.cli",
)

# Per-layer metric -> the (workload, end-to-end metric) pairs it should move.
# Any pair not listed is predicted not to move.
_CLI_P50 = ("cli_session", "op_p50_ms")
_STARTUP = [_CLI_P50, ("cli_session", "ops_per_s"), ("paper_cold", "setup_s"),
            ("large_models", "setup_s")]
_PARSE = [("large_models", "op_p50_ms")]
_CONSTRUCT = [("large_models", "ops_per_s"), ("large_models", "op_tail_ms"),
              ("paper_cold", "op_p50_ms")]
_KERNEL = [("large_models", "ops_per_s"), ("paper_cold", "op_p50_ms"), _CLI_P50]
_CATALOG = [("paper_cold", "op_p50_ms"), _CLI_P50]
_CLASSIFY = [("paper_cold", "op_p50_ms")]
MOVES: dict[str, list[tuple[str, str]]] = {
    "startup.interpreter_ms": _STARTUP,
    "startup.import_cli_ms": _STARTUP,
    **{f"startup.import_self_ms.{m}": _STARTUP for m in IMPORT_MODULES + ("other",)},
    "parser.calls": _PARSE,
    "parser.self_ms": _PARSE,
    "parser.input_bytes": _PARSE,
    **{f"ring.construct.{c}.{s}": _CONSTRUCT for c in CONSTRUCTORS for s in ("calls", "self_ms")},
    "ring.construct.stored_entries": _CONSTRUCT,
    "ring.construct.basis_max": _CONSTRUCT,
    "ring.construct.bundle_ref_useful_ratio": _CONSTRUCT,
    **{f"ring.kernel.{k}.{s}": _KERNEL for k in KERNELS for s in ("calls", "self_ms")},
    "ring.kernel.validation_calls": _KERNEL,
    "ring.kernel.dense_tuples_computed": _KERNEL,
    "ring.kernel.stored_entries_seen": _KERNEL,
    "catalog.load_catalog.calls": _CATALOG,
    "catalog.load_catalog.self_ms": _CATALOG,
    "catalog.realize_recipe.calls": _CATALOG,
    "catalog.realize_recipe.self_ms": _CATALOG,
    "catalog.realize_recipe.hit_ratio": _CATALOG,
    "classify.verify_paper.self_ms": _CLASSIFY,
    "classify.epsilon_of_family.calls": _CLASSIFY,
    "classify.epsilon_of_family.self_ms": _CLASSIFY,
    "classify.classify_splitting.calls": _CLASSIFY,
    "classify.classify_splitting.self_ms": _CLASSIFY,
    "classify.pencil_check.calls": _CLASSIFY,
    "classify.recomputed_ratio": _CLASSIFY,
    "cli.main.self_ms": [_CLI_P50],
    "trace.overhead_ratio": [],  # traced over untraced op_p50_ms of the same run
}


def _model_size(model) -> tuple[int, int]:
    """(basis size, stored form entries) of a model, or (0, 0)."""
    try:
        return len(model.basis), len(model.form.entries)
    except (AttributeError, TypeError):
        return 0, 0


class Tracer:
    """Spans and counters of one process; set ``op`` before each op."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counters: dict[str, float] = {}
        self.model_sizes: dict[int, tuple[int, int]] = {}  # constructor span -> size
        self.op = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def install(self) -> None:
        """Wrap every target in every loaded fanocalc module that binds it."""
        wrappers = {}
        for module_name, func in TARGETS:
            module = sys.modules.get(f"fanocalc.{module_name}")
            fn = getattr(module, func, None)
            if fn is not None:
                wrappers[id(fn)] = (fn, self._wrap(f"{module_name}.{func}", fn))
        for name, module in list(sys.modules.items()):
            if module is None or name.split(".")[0] != "fanocalc":
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._installed.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._installed):
            setattr(module, attr, value)
        self._installed.clear()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append((name, 0.0, 0.0, parent, tracer.op))
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op)
            tracer._observe(name, index, args, result)
            return result

        for attr in ("cache_clear", "cache_info"):  # lru_cache targets keep their API
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _observe(self, name: str, index: int, args, result) -> None:
        """Counters taken at the span boundary, from arguments and results."""
        func = name.split(".", 1)[1]
        if func in PARSERS and args and isinstance(args[0], str):
            self.count("parser.input_bytes", len(args[0].encode()))
        elif func in KERNELS and args:
            m, entries = _model_size(args[0])
            self.count("ring.kernel.stored_entries_seen", entries)
            if func == "intersection_number":
                # computed from the basis size, not observed inside the kernel
                self.count("ring.kernel.dense_tuples_computed",
                           m ** getattr(args[0], "dimension", 0))
        elif func in CONSTRUCTORS:
            self.model_sizes[index] = _model_size(result)
        elif func == "epsilon_of_family" and getattr(result, "status", None) == "known":
            self.count("classify.known")
            self.count("classify.recomputed", int(bool(getattr(result, "recomputed", False))))

    def dump(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "counters": self.counters,
            "model_sizes": [[i, m, e] for i, (m, e) in self.model_sizes.items()],
        }


def merge(dumps: list[dict]) -> dict:
    """One dump from several (one per process), with span indices offset."""
    spans, counters, sizes = [], {}, []
    for d in dumps:
        base = len(spans)
        spans += [[n, s, e, p + base if p >= 0 else -1, op] for n, s, e, p, op in d["spans"]]
        for key, value in d["counters"].items():
            counters[key] = counters.get(key, 0) + value
        sizes += [[i + base, m, e] for i, m, e in d["model_sizes"]]
    return {"spans": spans, "counters": counters, "model_sizes": sizes}


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


def per_layer(dump: dict, ops: int, cache: tuple[int, int], startup: dict,
              overhead_ratio: float) -> dict[str, float]:
    """Every metric in MOVES, from one merged dump of ``ops`` traced ops.

    ``cache`` is (hits, misses) of realize_recipe's cache over those ops;
    ``startup`` holds the startup.* metrics, measured separately.
    """
    spans = dump["spans"]
    counters = dump["counters"]
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    for (name, *_), own in zip(spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        self_ms[name] = self_ms.get(name, 0.0) + own * 1000

    ctor_names = {f"ring.{c}" for c in CONSTRUCTORS}
    kernel_names = {f"ring.{k}" for k in KERNELS}

    def ancestors(i):
        parent = spans[i][3]
        while parent >= 0:
            yield parent
            parent = spans[parent][3]

    validation = 0
    under_bundle = 0
    for i, span in enumerate(spans):
        if span[0] in kernel_names:
            names = [spans[a][0] for a in ancestors(i)]
            validation += any(n in ctor_names for n in names)
            under_bundle += "ring.make_projective_bundle" in names
    outer_entries = sum(e for i, _, e in dump["model_sizes"]
                        if not any(spans[a][0] in ctor_names for a in ancestors(i)))
    basis_max = max((m for _, m, _ in dump["model_sizes"]), default=0)
    bundles = calls.get("ring.make_projective_bundle", 0)

    per_op = lambda value: value / ops if ops else 0.0
    ratio = lambda num, den: num / den if den else 0.0
    out: dict[str, float] = dict(startup)
    out["parser.calls"] = per_op(sum(calls.get(f"parser.{f}", 0) for f in PARSERS))
    out["parser.self_ms"] = per_op(sum(self_ms.get(f"parser.{f}", 0.0) for f in PARSERS))
    out["parser.input_bytes"] = per_op(counters.get("parser.input_bytes", 0))
    for c in CONSTRUCTORS:
        out[f"ring.construct.{c}.calls"] = per_op(calls.get(f"ring.{c}", 0))
        out[f"ring.construct.{c}.self_ms"] = per_op(self_ms.get(f"ring.{c}", 0.0))
    out["ring.construct.stored_entries"] = per_op(outer_entries)
    out["ring.construct.basis_max"] = basis_max
    out["ring.construct.bundle_ref_useful_ratio"] = ratio(bundles, max(under_bundle, bundles))
    for k in KERNELS:
        out[f"ring.kernel.{k}.calls"] = per_op(calls.get(f"ring.{k}", 0))
        out[f"ring.kernel.{k}.self_ms"] = per_op(self_ms.get(f"ring.{k}", 0.0))
    out["ring.kernel.validation_calls"] = per_op(validation)
    out["ring.kernel.dense_tuples_computed"] = per_op(counters.get("ring.kernel.dense_tuples_computed", 0))
    out["ring.kernel.stored_entries_seen"] = per_op(counters.get("ring.kernel.stored_entries_seen", 0))
    for f in ("load_catalog", "realize_recipe"):
        out[f"catalog.{f}.calls"] = per_op(calls.get(f"catalog.{f}", 0))
        out[f"catalog.{f}.self_ms"] = per_op(self_ms.get(f"catalog.{f}", 0.0))
    out["catalog.realize_recipe.hit_ratio"] = ratio(cache[0], cache[0] + cache[1])
    out["classify.verify_paper.self_ms"] = per_op(self_ms.get("classify.verify_paper", 0.0))
    for f in ("epsilon_of_family", "classify_splitting"):
        out[f"classify.{f}.calls"] = per_op(calls.get(f"classify.{f}", 0))
        out[f"classify.{f}.self_ms"] = per_op(self_ms.get(f"classify.{f}", 0.0))
    out["classify.pencil_check.calls"] = per_op(calls.get("classify.pencil_check", 0))
    out["classify.recomputed_ratio"] = ratio(counters.get("classify.recomputed", 0),
                                             counters.get("classify.known", 0))
    out["cli.main.self_ms"] = per_op(self_ms.get("cli.main", 0.0))
    out["trace.overhead_ratio"] = overhead_ratio
    return out
