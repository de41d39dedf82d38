"""Decision procedures for anticanonical Seshadri constants.

The classifier works with a splitting -K_X = D1 + D2 on a threefold model.
If one part defines a pencil of surfaces, the degree of the general fiber
(a del Pezzo surface) determines the Seshadri constant of -K_X at a very
general point through the surface table in dp_surface_epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import catalog, ring
from .errors import (
    GeometryError,
    InconsistentModelError,
    UnsupportedDimensionError,
)
from .parser import FamilyId, parse_family_id


@dataclass(frozen=True)
class Splitting:
    """A decomposition -K = D1 + D2 into nonzero effective divisor classes.

    Freeness of the two linear systems is asserted by the caller; the
    classifier only requires free1, and accepts a non-free second part when
    it is declared nef and big.
    """

    d1: ring.DivisorClass
    d2: ring.DivisorClass
    free1: bool = True
    free2: bool = True
    nef_big_second: bool = False

    def __post_init__(self):
        model = self.d1.model
        if self.d2.model is not model:
            raise GeometryError("splitting parts live on different models")
        if self.d1 + self.d2 != model.anticanonical:
            raise GeometryError("splitting does not sum to the anticanonical class")
        if self.d1.is_zero or self.d2.is_zero:
            raise GeometryError("splitting parts must be nonzero")

    @property
    def model(self) -> ring.VarietyModel:
        return self.d1.model


@dataclass(frozen=True)
class ClassificationOutcome:
    pencil_side: str  # 'none' | 'first' | 'second'
    fiber_degree: Optional[int]
    epsilon: Fraction
    notes: tuple[str, ...] = field(default_factory=tuple)


def dp_surface_epsilon(degree: int) -> Fraction:
    """Seshadri constant of -K at a very general point of a degree-d
    del Pezzo surface."""
    if not 1 <= degree <= 9:
        raise ValueError(f"del Pezzo surface degree must be 1..9, got {degree}")
    table = {1: Fraction(1), 2: Fraction(4, 3), 3: Fraction(3, 2), 9: Fraction(3)}
    return table.get(degree, Fraction(2))


def pencil_check(model: ring.VarietyModel, d: ring.DivisorClass) -> bool:
    """True iff D^2 is numerically zero and D is not: D.D.B = 0 for every
    basis class B, and D.B.B' != 0 for some pair of basis classes.

    The test reads only the intersection form.  For nef D it says that D has
    numerical dimension one (Lazarsfeld, Positivity I).
    """
    if model.dimension != 3:
        raise UnsupportedDimensionError("pencil test requires a threefold")
    if not d.is_integral:
        raise GeometryError("pencil test requires an integral class")
    v, e = ring._sparse(d.coeffs), model.form.entries
    return not any(ring._contract(e, [v, v]).values()) and any(ring._contract(e, [v]).values())


def complete_intersection_check(
    ambient_y: ring.VarietyModel,
    pencil: ring.DivisorClass,
    curve_degree_vs_ample: int | Fraction,
) -> bool:
    """Necessary numeric test for the center C to be the intersection of two
    members of |L|: L^2.A must equal A.C."""
    if ambient_y.dimension != 3:
        raise UnsupportedDimensionError("complete intersection test requires a threefold")
    if not pencil.is_integral:
        raise GeometryError("complete intersection test requires an integral class")
    value = ring.intersection_number(ambient_y, [pencil, pencil, ambient_y.ample_ref])
    return value == Fraction(curve_degree_vs_ample)


def fibration_degree(ambient_y: ring.VarietyModel, pencil: ring.DivisorClass) -> Fraction:
    """Anticanonical degree of the general fiber after blowing up the base
    locus of |L|: (-K_Y - L)^2 . L."""
    if ambient_y.dimension != 3:
        raise UnsupportedDimensionError("fibration degree requires a threefold")
    rest = ambient_y.anticanonical - pencil
    return ring.intersection_number(ambient_y, [rest, rest, pencil])


def classify_splitting(s: Splitting, ell_hint: Optional[int] = None) -> ClassificationOutcome:
    """Resolve the Seshadri constant of -K from a splitting.

    Requires a free splitting, or free first part with nef and big second
    part.  With no pencil among the parts the constant is 2, or 3 when the
    minimal rational curve degree is known to be at least 3.
    """
    if not s.free1 or not (s.free2 or s.nef_big_second):
        raise GeometryError("classifier needs a free splitting or a nef-and-big second part")
    p1 = pencil_check(s.model, s.d1)
    p2 = pencil_check(s.model, s.d2)
    if p1 and p2:
        raise InconsistentModelError(
            "both splitting parts define pencils; -K cannot be ample"
        )
    if not p1 and not p2:
        if ell_hint is not None and ell_hint >= 3:
            return ClassificationOutcome(
                "none", None, Fraction(3), ("no pencil", "min curve degree >= 3")
            )
        return ClassificationOutcome("none", None, Fraction(2), ("no pencil",))
    side, pencil, other = ("first", s.d1, s.d2) if p1 else ("second", s.d2, s.d1)
    d = ring.intersection_number(s.model, [other, other, pencil])
    if d.denominator != 1 or d < 1:
        raise InconsistentModelError(f"fiber degree {d} is not a positive integer")
    d = int(d)
    eps = dp_surface_epsilon(d) if d <= 3 else Fraction(2)
    return ClassificationOutcome(side, d, eps, (f"pencil on {side} part", f"fiber degree {d}"))


@dataclass(frozen=True)
class EpsilonResult:
    family: FamilyId
    status: str  # 'known' | 'open'
    epsilon: Optional[Fraction]
    recomputed: bool


def _splitting_of(real: catalog.RealizedFamily) -> Splitting:
    return Splitting(
        real.d1,
        real.d2,
        free1=real.free[0],
        free2=real.free[1],
        nef_big_second=real.nef_big_second,
    )


def classify_family(
    rec: catalog.FanoFamilyRecord,
) -> tuple[catalog.RealizedFamily, ClassificationOutcome]:
    """Realize a family's curated recipe and classify its splitting."""
    real = catalog.realize_recipe(rec.id)
    return real, classify_splitting(_splitting_of(real), ell_hint=rec.ell)


def epsilon_of_family(family: FamilyId | str) -> EpsilonResult:
    """Catalog Seshadri constant, recomputed from a construction recipe
    whenever one is curated."""
    rec = catalog.get_family(family)
    recomputed = False
    if rec.eps_status == "known" and catalog.has_recipe(rec.id):
        _, outcome = classify_family(rec)
        if outcome.epsilon != rec.epsilon:
            raise InconsistentModelError(
                f"family {rec.id}: recipe gives epsilon {outcome.epsilon}, "
                f"catalog records {rec.epsilon}"
            )
        recomputed = True
    return EpsilonResult(rec.id, rec.eps_status, rec.epsilon, recomputed)


@dataclass(frozen=True)
class GeneralBound:
    status: str  # 'exact' | 'lower_bound'
    value: Fraction
    conjectural: bool
    unconditional: Fraction  # 1/n holds with no hypothesis on the index


def epsilon_general(n: int, r: int) -> GeneralBound:
    """Seshadri constant of -K at a very general point of an n-dimensional
    Fano of index r, as far as it is known."""
    if n < 2:
        raise UnsupportedDimensionError(f"dimension must be at least 2, got {n}")
    if not 1 <= r <= n + 1:
        raise ValueError(f"Fano index must satisfy 1 <= r <= {n + 1}, got {r}")
    unconditional = Fraction(1, n)
    if r == n + 1:
        return GeneralBound("exact", Fraction(n + 1), False, unconditional)
    if r >= max(2, n - 2):
        return GeneralBound("exact", Fraction(r), False, unconditional)
    if r >= n - 3:
        return GeneralBound("lower_bound", Fraction(r), False, unconditional)
    return GeneralBound("lower_bound", Fraction(1), True, unconditional)


_DP_SETS = {
    1: ("2.1", "10.1"),
    2: ("2.2", "2.3", "9.1"),
    3: ("2.4", "2.5", "3.2", "8.1"),
}


def families_with_dp_fibration(d: int) -> frozenset[FamilyId]:
    """Families with a del Pezzo fibration of low degree d in {1,2,3}."""
    if d not in _DP_SETS:
        raise ValueError(f"only degrees 1..3 are tabulated, got {d}")
    cat = catalog.load_catalog()
    found = frozenset(rec.id for rec in cat.families(dp_degree=d))
    expected = frozenset(parse_family_id(t) for t in _DP_SETS[d])
    if found != expected:
        raise InconsistentModelError(f"catalog dp-fibration set for degree {d} is off")
    return found


# --------------------------------------------------------------------------
# verification report
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    section: str
    name: str
    expected: object
    actual: object

    @property
    def passed(self) -> bool:
        return self.expected == self.actual

    def render(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"CHECK {self.name} expected={self.expected} actual={self.actual} {verdict}"


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        return "\n".join(c.render() for c in self.checks)

    def section(self, name: str) -> "VerificationReport":
        return VerificationReport(tuple(c for c in self.checks if c.section == name))


_APPENDIX_DEGREES = {
    "3.4": 4, "3.7": 6, "3.11": 7, "3.24": 8,
    "3.26": 9, "4.4": 6, "4.9": 8, "5.1": 5,
}

VERIFY_SECTIONS = ("appendix", "section4", "splittings", "partition", "dp")


def _fmt_ids(ids) -> str:
    return "{" + ",".join(str(i) for i in sorted(ids)) + "}"


def verify_paper() -> VerificationReport:
    """Recompute every published number the engine can reach and report
    expected versus actual, one line per check."""
    checks: list[Check] = []
    cat = catalog.load_catalog()

    # del Pezzo fibration degrees from blow-up recipes, two independent routes
    for fid_text, expected in sorted(_APPENDIX_DEGREES.items(), key=lambda kv: parse_family_id(kv[0])):
        real = catalog.realize_recipe(parse_family_id(fid_text))
        via_y = fibration_degree(real.middle, real.pencil)
        checks.append(Check("appendix", f"appendix-{fid_text}-degree", expected, via_y))
        d = classify_splitting(_splitting_of(real)).fiber_degree
        checks.append(Check("splittings", f"adjunction-{fid_text}-fiber-degree", expected, d))

    # worked splitting computations on non-blow-up models
    real32 = catalog.realize_recipe(parse_family_id("3.2"))
    checks.append(
        Check("section4", "case-3.2-fiber-degree", 3,
              classify_splitting(_splitting_of(real32)).fiber_degree)
    )
    real38 = catalog.realize_recipe(parse_family_id("3.8"))
    checks.append(
        Check("section4", "case-3.8-selfint", 6,
              ring.intersection_number(real38.model, [real38.d1, real38.d1, real38.d2]))
    )
    real319 = catalog.realize_recipe(parse_family_id("3.19"))
    checks.append(
        Check("section4", "case-3.19-selfint", 8,
              ring.intersection_number(real319.model, [real319.d2, real319.d2, real319.d1]))
    )
    real331 = catalog.realize_recipe(parse_family_id("3.31"))
    mk = real331.model.anticanonical
    k3 = ring.intersection_number(real331.model, [mk, mk, mk])
    checks.append(Check("section4", "case-3.31-anticanonical-cube", 52, k3))
    mixed = ring.intersection_number(real331.model, [real331.d1, real331.d2, real331.d2])
    checks.append(Check("section4", "case-3.31-residual", 40, k3 - 3 * mixed))

    # anticanonical triples on the four cover/divisor models
    for fid_text in ("3.1", "3.3", "3.17", "4.1"):
        real = catalog.realize_recipe(parse_family_id(fid_text))
        total = real.triple[0] + real.triple[1] + real.triple[2]
        checks.append(
            Check("splittings", f"triple-{fid_text}-sums-to-anticanonical",
                  str(real.model.anticanonical), str(total))
        )

    # partition of the rank >= 2 families by Seshadri constant (1, 4/3, 3/2 from _DP_SETS)
    buckets = {dp_surface_epsilon(d): ids for d, ids in _DP_SETS.items()}
    buckets[Fraction(3)] = ("2.28", "2.30", "2.33")
    high = cat.families(min_rho=2)
    claimed = set()
    for eps, ids in sorted(buckets.items()):
        expected_ids = frozenset(parse_family_id(t) for t in ids)
        actual_ids = frozenset(r.id for r in high if r.epsilon == eps)
        claimed |= actual_ids
        checks.append(
            Check("partition", f"epsilon-{eps}-families",
                  _fmt_ids(expected_ids), _fmt_ids(actual_ids))
        )
    rest = frozenset(r.id for r in high if r.epsilon == Fraction(2))
    checks.append(
        Check("partition", "epsilon-2-family-count",
              len(high) - len(claimed), len(rest))
    )

    # tabulated low-degree fibration sets and their structural consequences
    for d, ids in _DP_SETS.items():
        expected_ids = frozenset(parse_family_id(t) for t in ids)
        actual_ids = frozenset(r.id for r in cat.families(dp_degree=d))
        checks.append(
            Check("dp", f"dp-degree-{d}-families",
                  _fmt_ids(expected_ids), _fmt_ids(actual_ids))
        )
    non_bpf = frozenset(r.id for r in cat.families(predicate=lambda r: r.non_bpf))
    eps_one = frozenset(r.id for r in cat.families(epsilon=Fraction(1)))
    checks.append(
        Check("dp", "base-points-iff-epsilon-1", _fmt_ids(eps_one), _fmt_ids(non_bpf))
    )
    for rec in cat.families(predicate=lambda r: r.non_bpf):
        checks.append(
            Check("dp", f"base-points-{rec.id}-no-low-fibration",
                  "-", ",".join(str(d) for d in sorted(rec.dp_degrees & {2, 3})) or "-")
        )

    return VerificationReport(tuple(checks))
