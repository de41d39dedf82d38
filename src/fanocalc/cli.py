"""Command-line front end.

Exit codes: 0 success, 1 domain error (unknown family, bad expression,
failed verification), 2 usage error (bad flags or malformed filter values).
"""

from __future__ import annotations

import argparse
import json
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


def cmd_deg(args) -> int:
    model = ring.model_from_recipe(args.recipe)
    value = model.evaluate(args.expr)
    if args.json:
        print(json.dumps({"value": str(value)}))
    else:
        print(value)
    return 0


def _record_payload(rec: catalog.FanoFamilyRecord, result) -> dict:
    payload = rec._replace(
        id=str(rec.id), epsilon=_fmt_epsilon(rec), dp_degrees=sorted(rec.dp_degrees)
    )._asdict()
    payload["recomputed"] = result.recomputed
    payload["description"] = payload.pop("description")  # stays the last key
    return payload


def cmd_family(args) -> int:
    rec = catalog.get_family(args.id)
    result = classify.epsilon_of_family(rec.id)
    payload = _record_payload(rec, result)
    if args.json:
        print(json.dumps(payload))
        return 0
    dp = "{" + ",".join(str(d) for d in sorted(rec.dp_degrees)) + "}"
    opt = lambda v: "?" if v is None else str(v).lower()
    print(f"family {rec.id}: {rec.description}")
    print(f"  epsilon={payload['epsilon']} (status={rec.eps_status}, recomputed={str(result.recomputed).lower()})")
    print(f"  rho={rec.rho} index={opt(rec.index)} dp={dp} non_bpf={str(rec.non_bpf).lower()}")
    print(f"  clubsuit={opt(rec.clubsuit)} ci_center={opt(rec.ci_center)} ell={opt(rec.ell)}")
    return 0


def cmd_classify(args) -> int:
    rec = catalog.get_family(parse_family_id(args.id))
    real, outcome = classify.classify_family(rec)
    if args.json:
        print(json.dumps({
            "id": str(rec.id),
            "pencil_side": outcome.pencil_side,
            "fiber_degree": outcome.fiber_degree,
            "epsilon": str(outcome.epsilon),
            "notes": list(outcome.notes),
        }))
        return 0
    print(f"family {rec.id}")
    print(f"  splitting: D1={real.d1}  D2={real.d2}")
    print(f"  pencil_side={outcome.pencil_side} fiber_degree={outcome.fiber_degree}")
    print(f"  epsilon={outcome.epsilon}")
    for note in outcome.notes:
        print(f"  rule: {note}")
    return 0


def cmd_verify(args) -> int:
    report = classify.verify_paper()
    if args.only:
        report = report.section(args.only)
    if args.json:
        print(json.dumps({
            "ok": report.ok,
            "checks": [
                {
                    "section": c.section,
                    "name": c.name,
                    "expected": str(c.expected),
                    "actual": str(c.actual),
                    "passed": c.passed,
                }
                for c in report.checks
            ],
        }))
    else:
        print(report.render())
    return 0 if report.ok else 1


def cmd_list(args) -> int:
    records = catalog.list_families(
        epsilon=args.epsilon, rho=args.rho, dp_degree=args.dp
    )
    if args.json:
        rows = []
        for rec in records:
            rows.append({"id": str(rec.id), "epsilon": _fmt_epsilon(rec),
                         "dp_degrees": sorted(rec.dp_degrees),
                         "description": rec.description})
        print(json.dumps({"count": len(rows), "families": rows}))
        return 0
    for rec in records:
        dp = ",".join(str(d) for d in sorted(rec.dp_degrees)) or "-"
        print(f"{rec.id}\t{_fmt_epsilon(rec)}\t{dp}\t{rec.description}")
    print(f"count {len(records)}")
    return 0


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
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_deg)

    p = sub.add_parser("family", help="show one catalog record")
    p.add_argument("id", help="family identifier rho.N, e.g. 3.2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("classify", help="run the splitting classifier on a curated recipe")
    p.add_argument("id", help="family identifier rho.N")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="recompute published values and report")
    p.add_argument("--only", choices=classify.VERIFY_SECTIONS,
                   help="restrict to one section of the report")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("list", help="list catalog families with optional filters")
    p.add_argument("--epsilon", type=_rational_arg, default=None,
                   help='filter by Seshadri constant, e.g. 4/3')
    p.add_argument("--dp", type=_positive_int_arg, default=None,
                   help="filter by del Pezzo fibration degree")
    p.add_argument("--rho", type=_positive_int_arg, default=None,
                   help="filter by Picard rank")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_list)

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
        return args.func(args)
    except (FanoCalcError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
