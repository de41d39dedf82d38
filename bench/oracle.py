"""Seeded inputs and their expected answers, independent of the code under test.

Nothing here imports fanocalc.  Expected answers come from two sources:

* the family table, read with ``csv`` straight from the TSV file;
* closed forms for intersection numbers on blow-ups and products:
  (aH - sum b_i E_i)^3 = a^3 - sum b_i^3 on Bl_k P^3,
  (aH - sum b_i E_i)^2 = a^2 - sum b_i^2 on Bl_k P^2,
  (sum a_i H_i)^4 = 24 prod a_i on (P^1)^4,
  (cH1 + aH2 - sum b_i E_i)^3 = 3c(a^2 - sum b_i^2) on P^1 x Bl_k P^2,
  and (-K_X)^3 = (-K_Y)^3 - 2(-K_Y.C) + 2g - 2 for the blow-up X of a
  threefold Y along a smooth curve C of genus g (Mori-Mukai).
"""

from __future__ import annotations

import csv
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]
TSV_PATH = ROOT / "src" / "fanocalc" / "data" / "fano_families.tsv"

# Families with a curated construction recipe when this benchmark was written.
# The classify inputs are drawn from them; the engine may recompute more.
CURATED = (
    "2.1", "2.2", "2.3", "2.4", "2.5", "3.1", "3.2", "3.3", "3.4", "3.5",
    "3.7", "3.8", "3.11", "3.17", "3.19", "3.24", "3.26", "3.31", "4.1",
    "4.4", "4.9", "5.1", "10.1",
)
VERIFY_SECTIONS = ("appendix", "section4", "splittings", "partition", "dp")

# Middle variety of family 4.9: P^3 blown up along a line, then along a curve
# of genus 0 with H.C = 0 and E1.C = -1.
RECIPE_4_9 = ("blowup_curve(blowup_curve(P(3), genus=0, degrees={H:1}),"
              " genus=0, degrees={H:0, E1:-1})")


def family_key(fid: str) -> tuple[int, int]:
    rho, number = fid.split(".")
    return int(rho), int(number)


@dataclass(frozen=True)
class Family:
    id: str
    rho: int
    index: Optional[int]
    epsilon: Optional[Fraction]
    eps_status: str
    dp_degrees: tuple[int, ...]
    non_bpf: bool
    clubsuit: Optional[bool]
    ci_center: Optional[bool]
    ell: Optional[int]
    description: str


def _opt_int(text: str) -> Optional[int]:
    return None if text == "?" else int(text)


def _opt_bool(text: str) -> Optional[bool]:
    return None if text == "?" else text == "true"


def read_families(path: Path = TSV_PATH) -> dict[str, Family]:
    """The family table keyed by id, in catalog order (rho, number)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh, delimiter="\t", quoting=csv.QUOTE_NONE))
    out = {}
    for row in sorted(rows, key=lambda r: family_key(r["id"])):
        out[row["id"]] = Family(
            id=row["id"],
            rho=int(row["rho"]),
            index=_opt_int(row["index"]),
            epsilon=None if row["epsilon"] == "?" else Fraction(row["epsilon"]),
            eps_status=row["eps_status"],
            dp_degrees=() if row["dp_degrees"] == "-" else tuple(
                sorted(int(d) for d in row["dp_degrees"].split(","))),
            non_bpf=row["non_bpf"] == "true",
            clubsuit=_opt_bool(row["clubsuit"]),
            ci_center=_opt_bool(row["ci_center"]),
            ell=_opt_int(row["ell"]),
            description=row["description"],
        )
    return out


def fmt(value: Optional[Fraction]) -> str:
    """Rational in the CLI's p/q form; None is an open value."""
    if value is None:
        return "open"
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


# --------------------------------------------------------------------------
# models with closed-form intersection numbers
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelQuery:
    """A recipe, classes on it as {symbol: coefficient}, and their n-th powers."""

    kind: str
    recipe: str
    dimension: int
    classes: tuple[tuple[tuple[str, int], ...], ...]
    expected: tuple[int, ...]


def class_text(coeffs, n: int) -> str:
    """'(3*H-1*E1+2*E2)^n' for {H: 3, E1: -1, E2: 2}; zero terms dropped."""
    terms = [f"{'-' if c < 0 else '+'}{abs(c)}*{name}" for name, c in coeffs if c]
    return "(" + "".join(terms).lstrip("+") + f")^{n}"


def _exceptional(rng: random.Random, k: int) -> list[tuple[str, int]]:
    return [(f"E{i + 1}", rng.randint(-3, 3)) for i in range(k)]


def blowup_p3(rng: random.Random, k: int) -> ModelQuery:
    hyper = rng.choice(("H", "L"))
    anti = ((hyper, 4),) + tuple((f"E{i + 1}", -2) for i in range(k))
    cls = ((hyper, rng.randint(1, 6)),) + tuple(_exceptional(rng, k))
    return ModelQuery(
        f"Bl{k}P3", f"blowup_point(P(3), count={k})", 3, (anti, cls),
        tuple(c[0][1] ** 3 + sum(b ** 3 for _, b in c[1:]) for c in (anti, cls)),
    )


def blowup_p2(rng: random.Random, k: int) -> ModelQuery:
    anti = (("H", 3),) + tuple((f"E{i + 1}", -1) for i in range(k))
    cls = (("H", rng.randint(1, 6)),) + tuple(_exceptional(rng, k))
    return ModelQuery(
        f"Bl{k}P2", f"blowup_point(P(2), count={k})", 2, (anti, cls),
        tuple(c[0][1] ** 2 - sum(b ** 2 for _, b in c[1:]) for c in (anti, cls)),
    )


def p1_times_blowup_p2(rng: random.Random, k: int) -> ModelQuery:
    anti = (("H1", 2), ("H2", 3)) + tuple((f"E{i + 1}", -1) for i in range(k))
    cls = (("H1", rng.randint(1, 6)), ("H2", rng.randint(1, 6))) + tuple(_exceptional(rng, k))
    return ModelQuery(
        f"P1xBl{k}P2", f"prod(P(1), blowup_point(P(2), count={k}))", 3, (anti, cls),
        tuple(3 * c[0][1] * (c[1][1] ** 2 - sum(b ** 2 for _, b in c[2:])) for c in (anti, cls)),
    )


def p1_fourfold(rng: random.Random) -> ModelQuery:
    anti = tuple((f"H{i + 1}", 2) for i in range(4))
    cls = tuple((f"H{i + 1}", rng.randint(1, 5)) for i in range(4))
    return ModelQuery(
        "P1^4", "prod(P(1), P(1), P(1), P(1))", 4, (anti, cls),
        tuple(24 * prod(a for _, a in c) for c in (anti, cls)),
    )


def curve_blowup_cube(anti_cube: int, anti_dot_curve: int, genus: int) -> int:
    return anti_cube - 2 * anti_dot_curve + 2 * genus - 2


def middle_4_9() -> ModelQuery:
    # -K_P3 = 4H; the line has -K.C = 4; on Y1, -K = 4H - E1 meets C2 in
    # 4*0 - (-1) = 1.
    cube = curve_blowup_cube(curve_blowup_cube(64, 4, 0), 1, 0)
    anti = (("H", 4), ("E1", -1), ("E2", -1))
    return ModelQuery("4.9-middle", RECIPE_4_9, 3, (anti,), (cube,))


def warmup_models(rng: random.Random) -> list[ModelQuery]:
    """One small model of each kind, run before timing starts."""
    return [blowup_p3(rng, 2), blowup_p2(rng, 2), p1_times_blowup_p2(rng, 2),
            p1_fourfold(rng), middle_4_9()]


def large_round(rng: random.Random) -> list[ModelQuery]:
    """One round of large_models ops, in seeded order.

    The sizes are fixed per slot so that every round costs the same: four
    small models (a third of the ops); five Bl_11 P^3, so that the median
    lands inside one group of equal size; and Bl_16 P^3 and two Bl_20 P^3,
    so that the tail percentile lands among the Bl_20 P^3.  The seed picks
    the classes, the surface sizes and the order.
    """
    ops = [
        blowup_p2(rng, rng.randint(1, 8)),
        p1_times_blowup_p2(rng, rng.randint(1, 8)),
        p1_fourfold(rng),
        middle_4_9(),
    ]
    ops += [blowup_p3(rng, k) for k in (11, 11, 11, 11, 11, 16, 20, 20)]
    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------------------
# paper_cold
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PaperPlan:
    """One paper_cold op: the order of the 105 families and of the curated
    recipes.  The answers are the table's epsilons."""

    families: tuple[str, ...]
    curated: tuple[str, ...]
    kind: str = "paper"


def paper_plans(rng: random.Random, families, count: int) -> list[PaperPlan]:
    plans = []
    for _ in range(count):
        ids, curated = list(families), list(CURATED)
        rng.shuffle(ids)
        rng.shuffle(curated)
        plans.append(PaperPlan(tuple(ids), tuple(curated)))
    return plans


# --------------------------------------------------------------------------
# cli_session
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CliOp:
    """One fanocalc invocation and the outcome it must have."""

    kind: str
    argv: tuple[str, ...]
    expect_code: int
    answer: object = None  # kind-specific expected answer


def _deg_op(rng: random.Random, families) -> CliOp:
    maker = rng.choice((
        lambda: blowup_p3(rng, rng.randint(1, 6)),
        lambda: blowup_p2(rng, rng.randint(1, 8)),
        lambda: p1_times_blowup_p2(rng, rng.randint(1, 5)),
        lambda: p1_fourfold(rng),
    ))
    q = maker()
    i = rng.randrange(len(q.classes))
    json_flag = ("--json",) if rng.random() < 0.5 else ()
    return CliOp("deg", ("deg", q.recipe, class_text(q.classes[i], q.dimension)) + json_flag,
                 0, q.expected[i])


def _family_op(rng: random.Random, families) -> CliOp:
    fid = rng.choice(list(families))
    json_flag = ("--json",) if rng.random() < 0.5 else ()
    return CliOp("family", ("family", fid) + json_flag, 0, families[fid])


def _classify_op(rng: random.Random, families) -> CliOp:
    fid = rng.choice(CURATED)
    json_flag = ("--json",) if rng.random() < 0.5 else ()
    return CliOp("classify", ("classify", fid) + json_flag, 0, families[fid].epsilon)


def _list_op(rng: random.Random, families) -> CliOp:
    values = sorted({f.epsilon for f in families.values() if f.epsilon is not None})
    filters: dict[str, object] = {}
    choice = rng.randrange(4)
    if choice in (0, 3):
        filters["epsilon"] = rng.choice(values + [Fraction(5, 7)])
    if choice in (1, 3):
        filters["rho"] = rng.randint(1, 10)
    if choice == 2:
        filters["dp"] = rng.randint(1, 9)
    argv = ["list"]
    for key, value in filters.items():
        argv += [f"--{key}", fmt(value) if key == "epsilon" else str(value)]
    if rng.random() < 0.5:
        argv.append("--json")
    expected = [
        f.id for f in families.values()
        if ("epsilon" not in filters or f.epsilon == filters["epsilon"])
        and ("rho" not in filters or f.rho == filters["rho"])
        and ("dp" not in filters or filters["dp"] in f.dp_degrees)
    ]
    return CliOp("list", tuple(argv), 0, tuple(expected))


def _verify_op(rng: random.Random, families) -> CliOp:
    argv = ["verify"]
    if rng.random() < 0.75:
        argv += ["--only", rng.choice(VERIFY_SECTIONS)]
    if rng.random() < 0.5:
        argv.append("--json")
    return CliOp("verify", tuple(argv), 0)


def _invalid_op(rng: random.Random, families) -> CliOp:
    """A documented error: unknown family, degree mismatch, unclosed
    parenthesis or a malformed --epsilon."""
    kind = rng.randrange(4)
    if kind == 0:
        rho = rng.randint(1, 10)
        last = max((family_key(f)[1] for f in families if family_key(f)[0] == rho), default=0)
        return CliOp("invalid", ("family", f"{rho}.{last + rng.randint(1, 50)}"), 1)
    q = blowup_p3(rng, rng.randint(1, 4))
    text = class_text(q.classes[1], 3)
    if kind == 1:
        return CliOp("invalid", ("deg", q.recipe, text[:-1] + rng.choice("24")), 1)
    if kind == 2:
        return CliOp("invalid", ("deg", q.recipe, text.replace(")", "", 1)), 1)
    bad = rng.choice(("abc", "1/0", "3//4", "two", "4/3x"))
    return CliOp("invalid", ("list", "--epsilon", bad), 2)


# Per round: verify is the slowest kind and makes up a fifth of the ops, so
# the tail percentile (the top tenth) falls among verify runs; the median
# falls among the fast kinds.
_CLI_ROUND = (
    (_deg_op, 3), (_family_op, 2), (_classify_op, 1), (_list_op, 1),
    (_verify_op, 2), (_invalid_op, 1),
)


def cli_round(rng: random.Random, families) -> list[CliOp]:
    ops = [make(rng, families) for make, count in _CLI_ROUND for _ in range(count)]
    rng.shuffle(ops)
    return ops


# Inputs that ROADMAP item 3 reproduces as defects.  Each should end in an
# error (or, for the blow-up, possibly the answer 1) within PROBE_LIMIT_S;
# today the first prints a RecursionError traceback, the second raises
# DegreeError only after about a second and the third does not return.
KNOWN_DEFECTS = (
    CliOp("deep_nesting", ("deg", "P(3)", "(" * 2000 + "H" + ")" * 2000 + "^3"), 1),
    CliOp("huge_power", ("deg", "prod(P(1),P(1),P(1))", "(H1+H2+H3)^60"), 1),
    CliOp("huge_blowup", ("deg", "blowup_point(P(3),count=100000000)", "H^3"), 1, 1),
)

# An op that should end in an error gets ERROR_LIMIT_S, one that should
# answer gets ANSWER_LIMIT_S; a run past its limit is a failure.  The
# known-defect probe runs outside the timed loop with a tighter limit: a
# documented error takes about 0.16 s, the slow defect about a second.
ERROR_LIMIT_S = 1.0
ANSWER_LIMIT_S = 10.0
PROBE_LIMIT_S = 0.5


def time_limit(op: CliOp) -> float:
    return ERROR_LIMIT_S if op.expect_code else ANSWER_LIMIT_S


_TOKEN = re.compile(r"(\w+)=([^\s,()]+)")


def _tokens(text: str) -> dict[str, str]:
    return dict(_TOKEN.findall(text))


def check_cli(op: CliOp, code: Optional[int], out: str, err: str) -> Optional[str]:
    """None if the invocation ended as it must, else the reason it failed."""
    try:
        return _check_cli(op, code, out, err)
    except (KeyError, AttributeError, TypeError, ValueError) as exc:
        return f"malformed output ({type(exc).__name__}: {exc})"


def _check_cli(op: CliOp, code: Optional[int], out: str, err: str) -> Optional[str]:
    if code is None:
        return "no exit within the time limit"
    if "Traceback" in err:
        return "traceback on stderr: " + err.strip().splitlines()[-1][:200]
    if code != op.expect_code:
        if not (op.kind == "huge_blowup" and code == 0 and out.strip() == str(op.answer)):
            return f"exit code {code}, expected {op.expect_code}"
        return None
    if op.expect_code:
        return None if "error" in err else "no error message on stderr"
    as_json = "--json" in op.argv
    data = json.loads(out) if as_json else None
    if op.kind == "deg":
        got = data["value"] if as_json else out.strip()
        return None if got == str(op.answer) else f"value {got}, expected {op.answer}"
    if op.kind == "family":
        return _check_family(op.answer, data, out)
    if op.kind == "classify":
        got = data.get("epsilon") if as_json else _tokens(out).get("epsilon")
        return None if got == fmt(op.answer) else f"epsilon {got}, expected {fmt(op.answer)}"
    if op.kind == "list":
        if as_json:
            ids, count = tuple(r["id"] for r in data["families"]), data["count"]
        else:
            ids = tuple(re.findall(r"^(\d+\.\d+)\t", out, re.M))
            count = int(re.search(r"^count (\d+)$", out, re.M).group(1))
        return None if ids == op.answer and count == len(ids) else f"listed {ids}, expected {op.answer}"
    if op.kind == "verify":
        if as_json:
            passed = [c["passed"] for c in data["checks"]]
            ok = data["ok"] and passed and all(passed)
        else:
            lines = [ln for ln in out.splitlines() if ln.startswith("CHECK ")]
            ok = lines and all(ln.endswith(" PASS") for ln in lines)
        return None if ok else "verification did not pass"
    raise ValueError(f"unknown op kind {op.kind}")


def _check_family(fam: Family, data, out: str) -> Optional[str]:
    opt = lambda v: "?" if v is None else str(v).lower()
    if data is not None:
        expected = {
            "id": fam.id, "rho": fam.rho, "index": fam.index,
            "epsilon": fmt(fam.epsilon), "eps_status": fam.eps_status,
            "dp_degrees": list(fam.dp_degrees), "non_bpf": fam.non_bpf,
            "clubsuit": fam.clubsuit, "ci_center": fam.ci_center, "ell": fam.ell,
            "description": fam.description,
        }
        got = {key: data.get(key) for key in expected}
    else:
        expected = {
            "epsilon": fmt(fam.epsilon), "status": fam.eps_status, "rho": str(fam.rho),
            "index": opt(fam.index), "non_bpf": opt(fam.non_bpf), "clubsuit": opt(fam.clubsuit),
            "ci_center": opt(fam.ci_center), "ell": opt(fam.ell),
            "dp": "{" + ",".join(map(str, fam.dp_degrees)) + "}",
            "description": fam.description,
        }
        got = _tokens(out)
        dp = re.search(r"\bdp=(\{[\d,]*\})", out)
        got["dp"] = dp.group(1) if dp else None
        got["description"] = fam.description if fam.description in out else None
        got = {key: got.get(key) for key in expected}
    wrong = {k: got[k] for k in expected if got[k] != expected[k]}
    return f"family {fam.id}: fields {wrong}" if wrong else None
