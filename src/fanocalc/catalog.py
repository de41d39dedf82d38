"""Classification database of nonsingular Fano threefold deformation families.

The family universe (105 deformation families keyed by ``rho.N``) ships as a
plain TSV data file so it can be reviewed and diffed.  On top of the raw
records this module curates construction recipes for the families whose
numeric invariants the package recomputes from scratch: a middle variety Y,
a pencil class L, the blow-up center, and a splitting of the anticanonical
class on the final threefold.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Optional

from . import ring
from .errors import GeometryError, NoRecipeError, UnknownFamilyError
from .parser import FamilyId, parse_family_id

DATA_ENV_VAR = "FANOCALC_DATA"

_GENUS = re.compile(r"\bgenus (\d+)")

_TSV_COLUMNS = [
    "id", "rho", "index", "epsilon", "eps_status", "dp_degrees",
    "non_bpf", "clubsuit", "ci_center", "ell", "description",
]


@dataclass(frozen=True)
class FanoFamilyRecord:
    id: FamilyId
    rho: int
    index: Optional[int]
    epsilon: Optional[Fraction]
    eps_status: str  # 'known' | 'open'
    dp_degrees: frozenset[int]
    non_bpf: bool
    clubsuit: Optional[bool]
    ci_center: Optional[bool]
    ell: Optional[int]
    description: str


def _parse_opt_int(text: str) -> Optional[int]:
    return None if text == "?" else int(text)


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"bad boolean field {text!r}")
    return text == "true"


def _parse_opt_bool(text: str) -> Optional[bool]:
    return None if text == "?" else _parse_bool(text)


def _parse_record(line: str) -> FanoFamilyRecord:
    fields = line.rstrip("\n").split("\t")
    if len(fields) != len(_TSV_COLUMNS):
        raise ValueError(f"bad catalog row: {line!r}")
    row = dict(zip(_TSV_COLUMNS, fields))
    fid = parse_family_id(row["id"])
    eps = None if row["epsilon"] == "?" else Fraction(row["epsilon"])
    status = row["eps_status"]
    if (status, eps is None) not in (("known", False), ("open", True)):  # known: number, open: '?'
        raise ValueError(f"row {fid}: status {status!r} does not fit epsilon {row['epsilon']!r}")
    dp = frozenset() if row["dp_degrees"] == "-" else frozenset(
        int(d) for d in row["dp_degrees"].split(",")
    )
    return FanoFamilyRecord(
        id=fid,
        rho=int(row["rho"]),
        index=_parse_opt_int(row["index"]),
        epsilon=eps,
        eps_status=status,
        dp_degrees=dp,
        non_bpf=_parse_bool(row["non_bpf"]),
        clubsuit=_parse_opt_bool(row["clubsuit"]),
        ci_center=_parse_opt_bool(row["ci_center"]),
        ell=_parse_opt_int(row["ell"]),
        description=row["description"],
    )


class Catalog:
    def __init__(self, records: Iterable[FanoFamilyRecord]):
        self._by_id: dict[FamilyId, FanoFamilyRecord] = {}
        for rec in records:
            if rec.id in self._by_id:
                raise ValueError(f"duplicate catalog id {rec.id}")
            self._by_id[rec.id] = rec

    def get(self, family: FamilyId | str) -> FanoFamilyRecord:
        fid = parse_family_id(family) if isinstance(family, str) else family
        try:
            return self._by_id[fid]
        except KeyError:
            raise UnknownFamilyError(f"no Fano threefold family {fid}") from None

    def families(
        self,
        epsilon: Optional[Fraction] = None,
        rho: Optional[int] = None,
        min_rho: Optional[int] = None,
        dp_degree: Optional[int] = None,
        predicate: Optional[Callable[[FanoFamilyRecord], bool]] = None,
    ) -> list[FanoFamilyRecord]:
        out = []
        for fid in sorted(self._by_id):
            rec = self._by_id[fid]
            if epsilon is not None and rec.epsilon != epsilon:
                continue
            if rho is not None and rec.rho != rho:
                continue
            if min_rho is not None and rec.rho < min_rho:
                continue
            if dp_degree is not None and dp_degree not in rec.dp_degrees:
                continue
            if predicate is not None and not predicate(rec):
                continue
            out.append(rec)
        return out

    def index_one_by_genus(self, genus: int) -> FanoFamilyRecord:
        """The Picard-rank-one, index-one family of the given genus."""
        for rec in self.families(rho=1):
            match = _GENUS.search(rec.description)
            if rec.index == 1 and match and int(match.group(1)) == genus:
                return rec
        raise UnknownFamilyError(f"no rank-one index-one family of genus {genus}")

    def __len__(self) -> int:
        return len(self._by_id)


def data_path() -> str:
    override = os.environ.get(DATA_ENV_VAR)
    if override:
        return override
    return os.path.join(os.path.dirname(__file__), "data", "fano_families.tsv")


@lru_cache(maxsize=None)
def _load(path: str) -> Catalog:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].split("\t") != _TSV_COLUMNS:
        raise ValueError(f"catalog file {path} has an unexpected header")
    return Catalog(_parse_record(line) for line in lines[1:] if line.strip())


def load_catalog(path: Optional[str] = None) -> Catalog:
    return _load(path or data_path())


def get_family(family: FamilyId | str) -> FanoFamilyRecord:
    return load_catalog().get(family)


def list_families(**kwargs) -> list[FanoFamilyRecord]:
    return load_catalog().families(**kwargs)


# --------------------------------------------------------------------------
# curated construction recipes
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyRecipe:
    """How to build a family's threefold and a splitting of -K on it.

    With a ``pencil``, ``middle`` describes Y and ``pencil`` the class L on
    Y: the center is the complete intersection of two members of |L| and
    the splitting is (f*L - E, -K - f*L + E).  Otherwise ``middle``
    describes the threefold itself and ``splitting`` gives the two parts.
    """

    family: FamilyId
    middle: str
    pencil: Optional[str] = None
    splitting: Optional[tuple[str, str]] = None
    triple: Optional[tuple[str, str, str]] = None
    free: tuple[bool, bool] = (True, True)
    nef_big_second: bool = False


@dataclass(frozen=True)
class RealizedFamily:
    middle: ring.VarietyModel          # Y (equals model without a pencil)
    model: ring.VarietyModel           # X
    pencil: Optional[ring.DivisorClass]  # L on Y
    center: Optional[tuple[int, dict[str, int]]]  # (genus, degrees) of the curve blown up
    d1: ring.DivisorClass
    d2: ring.DivisorClass
    free: tuple[bool, bool]
    nef_big_second: bool
    triple: Optional[tuple[ring.DivisorClass, ...]]


def _fid(text: str) -> FamilyId:
    return parse_family_id(text)


def _ci(family, middle, pencil, **kw) -> FamilyRecipe:
    return FamilyRecipe(_fid(family), middle, pencil=pencil, **kw)


_S1 = "blowup_point(P(2), count=8)"

RECIPES: dict[FamilyId, FamilyRecipe] = {
    r.family: r
    for r in [
        _ci("2.1", "dp3(1)", "H", free=(True, False), nef_big_second=True),
        FamilyRecipe(
            _fid("2.2"),
            "double_cover(prod(P(1),P(2)), half_branch=H1+2*H2)",
            splitting=("H1", "H2"),
        ),
        _ci("2.3", "double_cover(P(3), half_branch=2*H)", "H"),
        _ci("2.4", "P(3)", "3*H"),
        _ci("2.5", "divisor_in(P(4), 3*H)", "H"),
        FamilyRecipe(
            _fid("3.1"),
            "double_cover(prod(P(1),P(1),P(1)), half_branch=H1+H2+H3)",
            splitting=("H1", "H2+H3"),
            triple=("H1", "H2", "H3"),
        ),
        FamilyRecipe(
            _fid("3.2"),
            "divisor_in(bundle(prod(P(1),P(1)), summands=[0, -H1-H2, -H1-H2]),"
            " 2*zeta+2*H1+3*H2)",
            splitting=("H1", "zeta+H1+H2"),
        ),
        FamilyRecipe(
            _fid("3.3"),
            "divisor_in(prod(P(1),P(1),P(2)), H1+H2+2*H3)",
            splitting=("H1", "H2+H3"),
            triple=("H1", "H2", "H3"),
        ),
        _ci("3.4", "double_cover(prod(P(1),P(2)), half_branch=H1+H2)", "H2"),
        FamilyRecipe(
            _fid("3.5"),
            "blowup_curve(prod(P(1),P(2)), genus=0, degrees={H1:5, H2:2})",
            splitting=("H1+3*H2-E", "H1"),
        ),
        _ci("3.7", "divisor_in(prod(P(2),P(2)), H1+H2)", "H1+H2"),
        FamilyRecipe(
            _fid("3.8"),
            "divisor_in(prod(blowup_point(P(2), count=1), P(2)), H1+2*H2)",
            splitting=("2*H1-E1", "H2"),
        ),
        _ci("3.11", "blowup_point(P(3), count=1)", "2*L-E"),
        FamilyRecipe(
            _fid("3.17"),
            "divisor_in(prod(P(1),P(1),P(2)), H1+H2+H3)",
            splitting=("H1", "H2+2*H3"),
            triple=("H1", "H2", "2*H3"),
        ),
        FamilyRecipe(
            _fid("3.19"),
            "blowup_point(divisor_in(P(4), 2*H), count=2)",
            splitting=("H", "2*H-2*E1-2*E2"),
        ),
        _ci("3.24", "divisor_in(prod(P(2),P(2)), H1+H2)", "H2"),
        _ci("3.26", "blowup_point(P(3), count=1)", "L"),
        FamilyRecipe(
            _fid("3.31"),
            "bundle(prod(P(1),P(1)), summands=[0, H1+H2])",
            splitting=("2*zeta", "H1+H2"),
        ),
        FamilyRecipe(
            _fid("4.1"),
            "divisor_in(prod(P(1),P(1),P(1),P(1)), H1+H2+H3+H4)",
            splitting=("H1", "H2+H3+H4"),
            triple=("H1", "H2", "H3+H4"),
        ),
        _ci("4.4", "blowup_point(divisor_in(P(4), 2*H), count=2)", "H-E1-E2"),
        _ci(
            "4.9",
            "blowup_curve(blowup_curve(P(3), genus=0, degrees={H:1}),"
            " genus=0, degrees={H:0, E1:-1})",
            "L",
        ),
        _ci("5.1", "blowup_point(divisor_in(P(4), 2*H), count=3)", "H-E1-E2-E3"),
        FamilyRecipe(
            _fid("10.1"),
            f"prod(P(1), {_S1})",
            splitting=("H1", "H1+3*H2-E1-E2-E3-E4-E5-E6-E7-E8"),
            free=(True, False),
            nef_big_second=True,
        ),
    ]
}


def has_recipe(family: FamilyId | str) -> bool:
    fid = parse_family_id(family) if isinstance(family, str) else family
    return fid in RECIPES


def ci_curve_center(
    middle: ring.VarietyModel, pencil: ring.DivisorClass
) -> tuple[int, dict[str, int]]:
    """Genus and basis degrees of the complete intersection of two members of |L|."""
    degrees = {}
    for name in middle.basis:
        d = ring.intersection_number(middle, [middle.basis_class(name), pencil, pencil])
        if d.denominator != 1:
            raise GeometryError(f"non-integral curve degree {d} against {name}")
        degrees[name] = int(d)
    canonical = -1 * middle.anticanonical
    two_g_minus_2 = ring.intersection_number(
        middle, [canonical + 2 * pencil, pencil, pencil]
    )
    genus = Fraction(two_g_minus_2 + 2, 2)
    if genus.denominator != 1 or genus < 0:
        raise GeometryError(f"complete intersection curve has invalid genus {genus}")
    return int(genus), degrees


@lru_cache(maxsize=None)
def realize_recipe(family: FamilyId) -> RealizedFamily:
    try:
        rec = RECIPES[family]
    except KeyError:
        raise NoRecipeError(f"no construction recipe curated for family {family}") from None
    middle = ring.model_from_recipe(rec.middle)
    if rec.pencil is None:
        model, pencil, center = middle, None, None
        d1 = model.divisor(rec.splitting[0])
        d2 = model.divisor(rec.splitting[1])
    else:
        # complete-intersection blow-up: D1 = f*L - E, D2 = -K - D1
        pencil = middle.divisor(rec.pencil)
        center = ci_curve_center(middle, pencil)
        model = ring.make_blowup(middle, *center)
        e = model.basis_class(model.basis[-1])
        pull = ring.DivisorClass(model, tuple(pencil.coeffs) + (Fraction(0),))
        d1 = pull - e
        d2 = model.anticanonical - d1
    if d1 + d2 != model.anticanonical:
        raise GeometryError(f"splitting of {family} does not sum to the anticanonical class")
    triple = None if rec.triple is None else tuple(model.divisor(t) for t in rec.triple)
    return RealizedFamily(
        middle=middle,
        model=model,
        pencil=pencil,
        center=center,
        d1=d1,
        d2=d2,
        free=rec.free,
        nef_big_second=rec.nef_big_second,
        triple=triple,
    )
