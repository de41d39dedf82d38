"""Classification database of nonsingular Fano threefold deformation families.

The family universe (105 deformation families keyed by ``rho.N``) ships as a
plain TSV data file so it can be reviewed and diffed.  On top of the raw
records a second TSV curates construction recipes for the families whose
numeric invariants the package recomputes from scratch: a middle variety Y
and a pencil class L on it, or a splitting of -K on the threefold; no blow-up
center, which realization derives.  It is read and parsed once, on first use.
"""

from __future__ import annotations

import os
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from . import ring
from .errors import (
    GeometryError,
    NoRecipeError,
    ParseError,
    UnknownFamilyError,
    UnsupportedDimensionError,
)
from .parser import Call, ClassExpr, FamilyId, parse_class_expr, parse_family_id, parse_recipe

DATA_ENV_VAR = "FANOCALC_DATA"


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"bad boolean field {text!r}")
    return text == "true"


def _parse_epsilon(text: str) -> Fraction:
    parts = text.split("/")  # p or p/q with p, q >= 1: no sign, no decimal exponent
    if len(parts) > 2 or not all(t.isascii() and t.isdigit() and int(t) >= 1 for t in parts):
        raise ValueError(f"bad epsilon field {text!r}")
    return Fraction(*map(int, parts))


def _opt(parse, absent="?"):
    """``parse`` for a cell that may also be ``absent``, which reads as None."""
    return lambda text: None if text == absent else parse(text)


# the TSV columns in header order, each with its cell parser; the record's fields follow them
_COLUMNS = {
    "id": parse_family_id,
    "rho": int,
    "index": _opt(int),
    "epsilon": _opt(_parse_epsilon),
    "eps_status": str,  # 'known' | 'open'
    "dp_degrees": lambda text: frozenset(() if text == "-" else map(int, text.split(","))),
    "non_bpf": _parse_bool,
    "clubsuit": _opt(_parse_bool),
    "ci_center": _opt(_parse_bool),
    "ell": _opt(int),
    "description": str,
}
FanoFamilyRecord = namedtuple("FanoFamilyRecord", _COLUMNS)


def _read_table(path: str, columns: dict, what: str, make) -> dict:
    """The records of a TSV file headed by ``columns``, by id in file order; ``make`` checks
    a row's cells and their values, parsed by column, and returns its (id, record).
    A grammar error in a cell names the row's id cell and the column."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].split("\t") != list(columns):
        raise ValueError(f"{what} file {path} has an unexpected header")
    by_id: dict = {}
    for line in filter(str.strip, lines[1:]):
        cells = line.split("\t")
        if len(cells) != len(columns):
            raise ValueError(f"bad {what} row: {line!r}")
        values = []
        for (column, parse), text in zip(columns.items(), cells):
            try:
                values.append(parse(text))
            except ParseError as exc:
                raise ParseError(f"{what} {cells[0]} {column}: {exc.message}", exc.offset) from None
        fid, rec = make(values, cells)
        if by_id.setdefault(fid, rec) is not rec:
            raise ValueError(f"duplicate {what} id {fid}")
    return by_id


def _family_row(values: list, cells: list[str]) -> tuple[FamilyId, FanoFamilyRecord]:
    rec = FanoFamilyRecord(*values)
    if rec.rho != rec.id.rho:
        raise ValueError(f"row {rec.id}: rho {cells[1]!r} does not fit the id")
    if (rec.eps_status, rec.epsilon is None) not in (("known", False), ("open", True)):
        raise ValueError(  # known: a number, open: '?'
            f"row {rec.id}: status {rec.eps_status!r} does not fit epsilon {cells[3]!r}"
        )
    return rec.id, rec


_SHIPPED_DATA = os.path.join(os.path.dirname(__file__), "data", "fano_families.tsv")


def data_path() -> str:
    """The catalog file: ``FANOCALC_DATA`` when set and non-empty, read on each call."""
    return os.environ.get(DATA_ENV_VAR) or _SHIPPED_DATA


@lru_cache(maxsize=None)
def _load(path: str) -> tuple[dict[FamilyId, FanoFamilyRecord], dict[str, FanoFamilyRecord]]:
    records = dict(sorted(_read_table(path, _COLUMNS, "catalog", _family_row).items()))
    return records, {str(fid): rec for fid, rec in records.items()}


def load_catalog() -> dict[FamilyId, FanoFamilyRecord]:
    """The family records by id, in id order; cached and shared, so do not modify it."""
    return _load(data_path())[0]


def get_family(family: FamilyId | str) -> FanoFamilyRecord:
    records, by_text = _load(data_path())
    if family in by_text:  # a canonical id text ("3.4") needs no parse
        return by_text[family]
    fid = parse_family_id(family) if isinstance(family, str) else family
    if fid not in records:
        raise UnknownFamilyError(f"no Fano threefold family {fid}")
    return records[fid]


def list_families(
    epsilon: Optional[Fraction] = None,
    rho: Optional[int] = None,
    dp_degree: Optional[int] = None,
) -> list[FanoFamilyRecord]:
    return [
        rec for rec in load_catalog().values()
        if (epsilon is None or rec.epsilon == epsilon)
        and (rho is None or rec.rho == rho)
        and (dp_degree is None or dp_degree in rec.dp_degrees)
    ]


# --------------------------------------------------------------------------
# curated construction recipes
# --------------------------------------------------------------------------


class FamilyRecipe(NamedTuple):
    """How to build a family's threefold and a splitting of -K on it.

    With a ``pencil``, ``middle`` describes Y and ``pencil`` the class L on
    Y: the center is the complete intersection of two members of |L| and
    D1 = f*L - E.  Otherwise ``middle`` describes the threefold itself and
    ``d1`` names D1.  Either way the splitting is (D1, -K - D1).  D1 is free;
    so is D2 unless ``nef_big_second`` declares it only nef and big.
    """

    middle: Call
    pencil: Optional[ClassExpr] = None
    d1: Optional[ClassExpr] = None
    nef_big_second: bool = False


class RealizedFamily(NamedTuple):
    middle: ring.VarietyModel          # Y (equals model without a pencil)
    model: ring.VarietyModel           # X
    pencil: Optional[ring.DivisorClass]  # L on Y
    d1: ring.DivisorClass
    d2: ring.DivisorClass
    free: tuple[bool, bool]
    nef_big_second: bool


# the recipe TSV columns in header order, each with its cell parser; FamilyRecipe's fields follow id
_RECIPE_COLUMNS = {
    "id": parse_family_id,
    "middle": parse_recipe,
    "pencil": _opt(parse_class_expr, absent="-"),
    "d1": _opt(parse_class_expr, absent="-"),
    "nef_big_second": _parse_bool,
}
_RECIPE_DATA = os.path.join(os.path.dirname(__file__), "data", "recipes.tsv")


def _recipe_row(values: list, cells: list[str]) -> tuple[FamilyId, FamilyRecipe]:
    fid, *fields = values
    recipe = FamilyRecipe(*fields)
    if (recipe.pencil is None) == (recipe.d1 is None):
        raise ValueError(f"recipe {fid}: give exactly one of pencil and d1")
    return fid, recipe


@lru_cache(maxsize=None)
def recipes() -> dict[FamilyId, FamilyRecipe]:
    """The curated recipes by family id, in file order, each text parsed once on first use;
    cached and shared, so do not modify it."""
    return _read_table(_RECIPE_DATA, _RECIPE_COLUMNS, "recipe", _recipe_row)


def ci_curve_center(
    middle: ring.VarietyModel, pencil: ring.DivisorClass
) -> tuple[int, dict[str, int]]:
    """Genus and basis degrees of the complete intersection C of two members of |L|."""
    if middle.dimension != 3:
        raise UnsupportedDimensionError("a complete-intersection curve needs a threefold")
    # the form with L in two slots keys each B_i.L.L = B_i.C by (i,); divisor() rejects a foreign L
    v = ring._sparse(middle.divisor(pencil).coeffs)
    rest = ring._contract(middle.form.entries, [v, v])
    deg = [rest.get((i,), 0) for i in range(len(middle.basis))]
    degrees = {}
    for name, d in zip(middle.basis, deg):
        if d.denominator != 1:
            raise GeometryError(f"non-integral curve degree {d} against {name}")
        degrees[name] = int(d)
    # adjunction: 2g - 2 = (K + 2L).C
    two_g_minus_2 = sum(
        (2 * l - a) * d for l, a, d in zip(pencil.coeffs, middle._anticanonical, deg)
    )
    two_g = two_g_minus_2 + 2
    if two_g % 2 or two_g < 0:
        raise GeometryError(f"complete intersection curve has invalid genus {Fraction(two_g, 2)}")
    return two_g // 2, degrees


@lru_cache(maxsize=None)
def realize_recipe(family: FamilyId) -> RealizedFamily:
    try:
        rec = recipes()[family]
    except KeyError:
        raise NoRecipeError(f"no construction recipe curated for family {family}") from None
    middle = ring.model_from_recipe(rec.middle)
    if rec.pencil is None:
        model, pencil = middle, None
        d1 = model.divisor(rec.d1)
    else:
        # complete-intersection blow-up: D1 = f*L - E
        pencil = middle.divisor(rec.pencil)
        model = ring.make_blowup(middle, *ci_curve_center(middle, pencil))
        d1 = ring.DivisorClass(model, pencil.coeffs + (-1,))
    d2 = ring.DivisorClass(model, [a - b for a, b in zip(model._anticanonical, d1.coeffs)])
    return RealizedFamily(
        middle, model, pencil, d1, d2, (True, not rec.nef_big_second), rec.nef_big_second
    )
