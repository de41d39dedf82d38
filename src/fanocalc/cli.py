"""Command-line front end.

Each ``cmd_*`` computes its answer once and returns ``(exit code, payload,
text)``: ``payload`` is the JSON-ready answer and ``text`` the same answer
for a reader.  ``main`` is the one place that writes to stdout: it prints
``json.dumps(payload)`` under ``--json`` and ``text`` otherwise.

Exit codes: 0 success, 1 domain error (unknown family, bad expression,
failed verification), 2 usage error (bad flags or malformed filter values).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Optional

from . import catalog, classify, ring
from .errors import FanoCalcError
from .parser import parse_family_id


def _fmt_epsilon(rec: catalog.FanoFamilyRecord) -> str:
    return "open" if rec.eps_status == "open" else str(rec.epsilon)


def _rational_arg(text: str) -> Fraction:
    try:
        # Fraction expands a decimal exponent in full, however large it is
        if "e" in text.lower():
            raise ValueError(text)
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _positive_int_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive: {text}")
    return value


def cmd_deg(args) -> tuple[int, dict, str]:
    value = ring.model_from_recipe(args.recipe).evaluate(args.expr)
    try:
        text = str(value)
    except ValueError:  # over the interpreter's int-to-text limit (Python 3.10.7 and later)
        raise FanoCalcError("the exact answer is too long to print: its numerator or denominator"
                            f" has more than {sys.get_int_max_str_digits()} digits") from None
    return 0, {"value": text}, text


def cmd_family(args) -> tuple[int, dict, str]:
    rec = catalog.get_family(args.id)
    result = classify.epsilon_of_family(rec.id)
    payload = rec._replace(
        id=str(rec.id), epsilon=_fmt_epsilon(rec), dp_degrees=sorted(rec.dp_degrees)
    )._asdict()
    payload["recomputed"] = result.recomputed
    payload["description"] = payload.pop("description")  # stays the last key
    dp = "{" + ",".join(map(str, payload["dp_degrees"])) + "}"
    opt = lambda v: "?" if v is None else str(v).lower()
    return 0, payload, "\n".join([
        f"family {rec.id}: {rec.description}",
        f"  epsilon={payload['epsilon']} (status={rec.eps_status},"
        f" recomputed={opt(result.recomputed)})",
        f"  rho={rec.rho} index={opt(rec.index)} dp={dp} non_bpf={opt(rec.non_bpf)}",
        f"  clubsuit={opt(rec.clubsuit)} ci_center={opt(rec.ci_center)} ell={opt(rec.ell)}",
    ])


def cmd_classify(args) -> tuple[int, dict, str]:
    rec = catalog.get_family(parse_family_id(args.id))
    real, outcome = classify.classify_family(rec)
    payload = {"id": str(rec.id), **outcome._replace(epsilon=str(outcome.epsilon))._asdict()}
    return 0, payload, "\n".join([
        f"family {rec.id}",
        f"  splitting: D1={real.d1}  D2={real.d2}",
        f"  pencil_side={outcome.pencil_side} fiber_degree={outcome.fiber_degree}",
        f"  epsilon={outcome.epsilon}",
        *(f"  rule: {note}" for note in outcome.notes),
    ])


def cmd_verify(args) -> tuple[int, dict, str]:
    report = classify.verify_paper()
    if args.only:
        report = report.section(args.only)
    checks = [
        {**c._asdict(), "expected": str(c.expected), "actual": str(c.actual), "passed": c.passed}
        for c in report.checks
    ]
    return (0 if report.ok else 1), {"ok": report.ok, "checks": checks}, report.render()


def cmd_list(args) -> tuple[int, dict, str]:
    rows = [
        {"id": str(rec.id), "epsilon": _fmt_epsilon(rec),
         "dp_degrees": sorted(rec.dp_degrees), "description": rec.description}
        for rec in catalog.list_families(epsilon=args.epsilon, rho=args.rho, dp_degree=args.dp)
    ]
    lines = [
        "\t".join((r["id"], r["epsilon"], ",".join(map(str, r["dp_degrees"])) or "-",
                   r["description"]))
        for r in rows
    ]
    return 0, {"count": len(rows), "families": rows}, "\n".join([*lines, f"count {len(rows)}"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanocalc",
        description="Exact intersection numbers and anticanonical Seshadri "
        "constants for Fano threefolds.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("deg", help="evaluate an intersection number on a model")
    p.add_argument("recipe", help='model recipe, e.g. "blowup_point(P(3),count=1)"')
    p.add_argument("expr", nargs="?", help='class expression, e.g. "(2L-E)^3" or "-H^3"')
    p.set_defaults(func=cmd_deg)

    p = sub.add_parser("family", help="show one catalog record")
    p.add_argument("id", help="family identifier rho.N, e.g. 3.2")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("classify", help="run the splitting classifier on a curated recipe")
    p.add_argument("id", help="family identifier rho.N")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="recompute published values and report")
    p.add_argument("--only", choices=classify.VERIFY_SECTIONS,
                   help="restrict to one section of the report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("list", help="list catalog families with optional filters")
    p.add_argument("--epsilon", type=_rational_arg, default=None,
                   help='filter by Seshadri constant, e.g. 4/3')
    p.add_argument("--dp", type=_positive_int_arg, default=None,
                   help="filter by del Pezzo fibration degree")
    p.add_argument("--rho", type=_positive_int_arg, default=None,
                   help="filter by Picard rank")
    p.set_defaults(func=cmd_list)

    for p in sub.choices.values():  # last, so usage and help list it last
        p.add_argument("--json", action="store_true")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        # argparse takes an expression that starts with "-" for an unknown option
        if getattr(args, "expr", "") is None:
            if not extra:
                parser.error("the following arguments are required: expr")
            args.expr = extra.pop(0)
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, payload, text = args.func(args)
        if args.json:
            import json  # only --json needs it; every other call would pay for its import
            text = json.dumps(payload)
        print(text, flush=True)  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:  # the reader left, as in `fanocalc list | head -1`
        # the interpreter flushes stdout again at exit; /dev/null takes what is left silently
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (FanoCalcError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
