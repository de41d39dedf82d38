"""Decision procedures for anticanonical Seshadri constants.

The classifier works with a splitting -K_X = D1 + D2 on a threefold model.
If one part defines a pencil of surfaces, the degree of the general fiber
(a del Pezzo surface) determines the Seshadri constant of -K_X at a very
general point through the surface table in dp_surface_epsilon.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from . import catalog, ring
from .errors import (
    FanoCalcError,
    GeometryError,
    InconsistentModelError,
    UnsupportedDimensionError,
)
from .parser import FamilyId, _Value, parse_class_expr, parse_family_id


class Splitting(_Value):
    """A decomposition -K = D1 + D2 into nonzero effective divisor classes.

    Freeness of the two linear systems is asserted by the caller; the
    classifier only requires free1, and accepts a non-free second part when
    it is declared nef and big.
    """

    __slots__ = ("d1", "d2", "free1", "free2", "nef_big_second")

    def __init__(self, d1: ring.DivisorClass, d2: ring.DivisorClass,
                 free1: bool = True, free2: bool = True, nef_big_second: bool = False):
        if d2.model is not d1.model:
            raise GeometryError("splitting parts live on different models")
        if tuple([a + b for a, b in zip(d1.coeffs, d2.coeffs)]) != d1.model._anticanonical:
            raise GeometryError("splitting does not sum to the anticanonical class")
        if not any(d1.coeffs) or not any(d2.coeffs):
            raise GeometryError("splitting parts must be nonzero")
        self._fill(d1, d2, free1, free2, nef_big_second)

    @property
    def model(self) -> ring.VarietyModel:
        return self.d1.model


class ClassificationOutcome(NamedTuple):
    pencil_side: str  # 'none' | 'first' | 'second'
    fiber_degree: Optional[int]
    epsilon: Fraction
    notes: tuple[str, ...] = ()


_DP_SURFACE_EPSILON = {1: Fraction(1), 2: Fraction(4, 3), 3: Fraction(3, 2),
                       **dict.fromkeys(range(4, 9), Fraction(2)), 9: Fraction(3)}


def dp_surface_epsilon(degree: int) -> Fraction:
    """Seshadri constant of -K at a very general point of a degree-d
    del Pezzo surface."""
    if degree not in _DP_SURFACE_EPSILON:
        raise ValueError(f"del Pezzo surface degree must be 1..9, got {degree}")
    return _DP_SURFACE_EPSILON[degree]


def _vector(d: ring.DivisorClass) -> dict[int, int]:
    """D's sparse vector, or an error unless D is integral: twice as fast as all()."""
    v = {}  # a class stores ints where integral
    for i, c in enumerate(d.coeffs):
        if c:
            if type(c) is not int:
                raise GeometryError("pencil test requires an integral class")
            v[i] = c
    return v


def _pencil_test(model: ring.VarietyModel, d: ring.DivisorClass):
    """(pencil_check's answer, the rest D.B.B' keyed by (B, B'), the form D.D.B keyed by (B,)):
    D in one slot gives the rest, and the rest with D in one more slot gives the form."""
    if model.dimension != 3:
        raise UnsupportedDimensionError("pencil test requires a threefold")
    v = _vector(d)
    rest = ring._contract(model.form.entries, [v])
    square = ring._contract(rest, [v])
    return any(rest.values()) and not any(square.values()), rest, square


def pencil_check(model: ring.VarietyModel, d: ring.DivisorClass) -> bool:
    """True iff D^2 is numerically zero and D is not: D.D.B = 0 for every
    basis class B, and D.B.B' != 0 for some pair of basis classes.

    The test reads only the intersection form, in two contractions.
    For nef D it says that D has numerical dimension one (Lazarsfeld, Positivity I).
    """
    return _pencil_test(model, d)[0]


def classify_splitting(s: Splitting, ell_hint: Optional[int] = None) -> ClassificationOutcome:
    """Resolve the Seshadri constant of -K from a splitting.

    Requires a free splitting, or free first part with nef and big second
    part.  At a very general point x, eps <= dp_surface_epsilon(d) for the
    degree-d del Pezzo fiber through x of a pencil among the parts, and
    eps <= l for a family of rational curves of -K-degree l through x.  The
    constant is the smaller bound, or l without a pencil (the paper's theorem).
    l is ``ell_hint``, or else 2: the assumption that a -K-conic passes through x.

    D1's pencil test leaves D1.B.B', which gives c = D1.D2.D2; only c = 0 tests D2 in full.
    D2^2 = 0 forces c = 0, so c != 0 rules D2 out, and is the fiber degree if D1 is the pencil.
    """
    if not s.free1 or not (s.free2 or s.nef_big_second):
        raise GeometryError("classifier needs a free splitting or a nef-and-big second part")
    p1, rest, square1 = _pencil_test(s.model, s.d1)
    v2 = _vector(s.d2)
    c = ring._contract(rest, [v2, v2]).get((), 0)
    p2 = not c and pencil_check(s.model, s.d2)
    if p1 and p2:
        raise InconsistentModelError(
            "both splitting parts define pencils; -K cannot be ample"
        )
    ell = 2 if ell_hint is None else ell_hint
    if not p1 and not p2:
        notes = ("no pencil", "min curve degree >= 3") if ell >= 3 else ("no pencil",)
        return ClassificationOutcome("none", None, Fraction(ell), notes)
    side, d = "first", c  # the fiber degree D_other^2.D_pencil
    if p2:  # D1^2.B summed against D2's coefficients
        side, d = "second", sum(square1.get((b,), 0) * x for b, x in v2.items())
    if d not in _DP_SURFACE_EPSILON:
        raise InconsistentModelError(f"fiber degree {d} is not a del Pezzo degree 1..9")
    d, dp = int(d), _DP_SURFACE_EPSILON[d]
    eps = Fraction(ell) if ell * dp.denominator < dp.numerator else dp  # min, 6x faster in ints
    return ClassificationOutcome(side, d, eps, (f"pencil on {side} part", f"fiber degree {d}"))


class EpsilonResult(NamedTuple):
    family: FamilyId
    status: str  # 'known' | 'open'
    epsilon: Optional[Fraction]
    recomputed: bool


def _splitting_of(real: catalog.RealizedFamily) -> Splitting:
    return Splitting(real.d1, real.d2, *real.free, real.nef_big_second)


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
    if rec.eps_status == "known" and rec.id in catalog.recipes():
        _, outcome = classify_family(rec)
        if outcome.epsilon != rec.epsilon:
            raise InconsistentModelError(
                f"family {rec.id}: recipe gives epsilon {outcome.epsilon}, "
                f"catalog records {rec.epsilon}"
            )
        recomputed = True
    return EpsilonResult(rec.id, rec.eps_status, rec.epsilon, recomputed)


class GeneralBound(NamedTuple):
    status: str  # 'exact' | 'lower_bound'
    value: Fraction


def epsilon_general(n: int, r: int) -> GeneralBound:
    """Seshadri constant of -K at a very general point of an n-dimensional
    Fano of index r, as far as it is known.  Below index n - 3 the lower
    bound 1 is conjectural; the lower bound 1/n holds for every index."""
    if n < 2:
        raise UnsupportedDimensionError(f"dimension must be at least 2, got {n}")
    if not 1 <= r <= n + 1:
        raise ValueError(f"Fano index must satisfy 1 <= r <= {n + 1}, got {r}")
    if r == n + 1:
        return GeneralBound("exact", Fraction(n + 1))
    if r >= max(2, n - 2):
        return GeneralBound("exact", Fraction(r))
    if r >= n - 3:
        return GeneralBound("lower_bound", Fraction(r))
    return GeneralBound("lower_bound", Fraction(1))


def _ids(*texts: str) -> frozenset[FamilyId]:
    return frozenset(map(parse_family_id, texts))


_DP_SETS = {
    1: _ids("2.1", "10.1"),
    2: _ids("2.2", "2.3", "9.1"),
    3: _ids("2.4", "2.5", "3.2", "8.1"),
}


# --------------------------------------------------------------------------
# verification report
# --------------------------------------------------------------------------


class Check(NamedTuple):
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


class VerificationReport(NamedTuple):
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        return "\n".join(c.render() for c in self.checks)

    def section(self, name: str) -> "VerificationReport":
        return VerificationReport(tuple(c for c in self.checks if c.section == name))


# One row per recipe check: (section, check, family, model, expression, expected).  On "X",
# the threefold, A is -K_X and D1, D2 its splitting; on "Y", a pencil recipe's middle variety,
# A is -K_Y and P the pencil L (an alias on P(n)).  None is the classifier's fiber degree on X.
# Expected "-K" compares the expression's class with -K_X, a sum of the factors' classes on the
# cover and divisor models of products; the line prints -K until the model is built.
_ROWS = [
    (section, name, parse_family_id(fid), on, expr and parse_class_expr(expr), expected)
    for section, name, fid, on, expr, expected in [
        row for fid, degree in {"3.4": 4, "3.7": 6, "3.11": 7, "3.24": 8,
                                "3.26": 9, "4.4": 6, "4.9": 8, "5.1": 5}.items()
        for row in (("appendix", f"appendix-{fid}-degree", fid, "Y", "(A-P)^2*P", degree),
                    ("splittings", f"adjunction-{fid}-fiber-degree", fid, "X", None, degree))
    ] + [
        ("section4", "case-3.2-fiber-degree", "3.2", "X", None, 3),
        ("section4", "case-3.8-selfint", "3.8", "X", "D1^2*D2", 6),
        ("section4", "case-3.19-selfint", "3.19", "X", "D2^2*D1", 8),
        ("section4", "case-3.31-anticanonical-cube", "3.31", "X", "A^3", 52),
        ("section4", "case-3.31-residual", "3.31", "X", "A^3-3*D1*D2^2", 40),
    ] + [
        ("splittings", f"triple-{fid}-sums-to-anticanonical", fid, "X", expr, "-K")
        for fid, expr in {"3.1": "H1+H2+H3", "3.3": "H1+H2+H3", "3.17": "H1+H2+2*H3",
                          "4.1": "H1+H2+H3+H4"}.items()
    ]
]
_EPSILON_3 = _ids("2.28", "2.30", "2.33")  # rank >= 2; 1, 4/3, 3/2 come from _DP_SETS
_RANK_2_UP_FAMILIES = 88  # Iskovskikh-Prokhorov, Fano Varieties, Tables 12.3-12.6

VERIFY_SECTIONS = ("appendix", "section4", "splittings", "partition", "dp")


def _fmt_ids(ids) -> str:
    return "{" + ",".join(str(i) for i in sorted(ids)) + "}"


def verify_paper() -> VerificationReport:
    """Recompute every published number the engine can reach and report
    expected versus actual, one line per check."""
    checks: list[Check] = []

    # a recipe that fails to realize or classify fails its own checks, not the report
    for section, name, fid, on, expr, expected in _ROWS:
        try:
            real = catalog.realize_recipe(fid)
            model = real.middle if on == "Y" else real.model
            if expr is None:
                actual = classify_splitting(_splitting_of(real)).fiber_degree
            elif expected == "-K":
                expected = str(model.anticanonical)
                actual = str(model.divisor(expr))
            else:
                names = {"P": real.pencil} if on == "Y" else {"D1": real.d1, "D2": real.d2}
                actual = ring.evaluate(model, expr, {"A": model.anticanonical, **names})
        except FanoCalcError as exc:
            actual = f"error: {exc}"
        checks.append(Check(section, name, expected, actual))

    # partition of the rank >= 2 families by Seshadri constant
    buckets = {dp_surface_epsilon(d): ids for d, ids in _DP_SETS.items()}
    buckets[Fraction(3)] = _EPSILON_3
    records = catalog.load_catalog().values()
    high: dict[tuple[int, int], list[FamilyId]] = {}  # rank >= 2 ids by epsilon's (p, q)
    dp_ids: dict[int, list[FamilyId]] = {d: [] for d in _DP_SETS}  # ids by low fibration degree
    eps_one: list[FamilyId] = []
    for r in records:  # one pass feeds this section and the next
        if r.rho >= 2 and r.epsilon is not None:  # a pair hashes cheaply, a Fraction does not
            high.setdefault(r.epsilon.as_integer_ratio(), []).append(r.id)
        for d in r.dp_degrees & dp_ids.keys():
            dp_ids[d].append(r.id)
        if r.epsilon == 1:
            eps_one.append(r.id)
    for eps, expected_ids in sorted(buckets.items()):
        checks.append(
            Check("partition", f"epsilon-{eps}-families",
                  _fmt_ids(expected_ids), _fmt_ids(high.get(eps.as_integer_ratio(), [])))
        )
    unclaimed = _RANK_2_UP_FAMILIES - sum(map(len, buckets.values()))  # not read from the TSV
    checks.append(
        Check("partition", "epsilon-2-family-count", unclaimed, len(high.get((2, 1), [])))
    )

    # tabulated low-degree fibration sets and their structural consequences
    for d, expected_ids in _DP_SETS.items():
        checks.append(
            Check("dp", f"dp-degree-{d}-families", _fmt_ids(expected_ids), _fmt_ids(dp_ids[d]))
        )
    non_bpf = [r for r in records if r.non_bpf]
    checks.append(
        Check("dp", "base-points-iff-epsilon-1", _fmt_ids(eps_one), _fmt_ids(r.id for r in non_bpf))
    )
    for rec in non_bpf:
        checks.append(
            Check("dp", f"base-points-{rec.id}-no-low-fibration",
                  "-", ",".join(str(d) for d in sorted(rec.dp_degrees & {2, 3})) or "-")
        )

    return VerificationReport(tuple(checks))
