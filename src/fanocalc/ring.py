"""Exact intersection-theory engine for low-dimensional variety models.

A variety is presented by an ordered divisor basis together with the
top-degree symmetric multilinear form on that basis.  All arithmetic is
exact: values are ints where integral, else ``fractions.Fraction``, and
results are ``Fraction``; no floating point is used anywhere.

Models are built compositionally: projective spaces, products, split
projective bundles, blow-ups at points or along curves, double covers and
anticanonical-type hypersurfaces in a fourfold.  Every constructor derives
the full intersection form once; afterwards models and classes are
immutable and all operations are pure.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from . import parser as pmod
from .errors import (
    DegreeError,
    ForeignClassError,
    GeometryError,
    UnknownSymbolError,
    UnsupportedDimensionError,
)

Rational = Union[int, Fraction]


def _frac(x: Rational) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _exact(x: Rational) -> Rational:
    """An integral value as an int, anything else unchanged."""
    return x.numerator if x.denominator == 1 else x


# --------------------------------------------------------------------------
# core data types
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DivisorClass:
    """Exact-rational coefficient vector over the owning model's basis."""

    model: "VarietyModel"
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != len(self.model.basis):
            raise GeometryError(
                f"coefficient vector of length {len(self.coeffs)} does not match "
                f"basis of size {len(self.model.basis)}"
            )

    def _check_sibling(self, other: "DivisorClass") -> None:
        if not isinstance(other, DivisorClass):
            raise TypeError(f"expected a divisor class, got {other!r}")
        if other.model is not self.model:
            raise ForeignClassError("divisor classes belong to different models")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_sibling(other)
        return DivisorClass(self.model, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_sibling(other)
        return DivisorClass(self.model, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.model, tuple(-a for a in self.coeffs))

    def __mul__(self, scalar: Rational) -> "DivisorClass":
        s = _frac(scalar)
        return DivisorClass(self.model, tuple(s * a for a in self.coeffs))

    __rmul__ = __mul__

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __str__(self) -> str:
        parts = []
        for name, c in zip(self.model.basis, self.coeffs):
            if c == 0:
                continue
            if c == 1:
                term = name
            elif c == -1:
                term = f"-{name}"
            else:
                term = f"{c}*{name}"
            parts.append(term if not parts or term.startswith("-") else f"+{term}")
        return "".join(parts) if parts else "0"


@dataclass(frozen=True)
class IntersectionForm:
    """Sparse symmetric n-linear form on basis indices.

    Entries, ints where integral, are keyed by sorted index tuples; unlisted ones are zero.
    """

    dimension: int
    entries: Mapping[tuple[int, ...], Rational]

    def value(self, indices: Iterable[int]) -> Fraction:
        key = tuple(sorted(indices))
        if len(key) != self.dimension:
            raise DegreeError(f"expected {self.dimension} indices, got {len(key)}")
        return Fraction(self.entries.get(key, 0))


def _freeze_entries(raw: Mapping[tuple[int, ...], Rational]) -> dict[tuple[int, ...], Rational]:
    return {tuple(sorted(k)): _exact(v) for k, v in raw.items() if v != 0}


class VarietyModel:
    """Divisor basis + top-degree intersection form + marked classes.

    Instances are immutable after construction and compared by identity.
    ``aliases`` maps alternative symbol spellings to basis names (e.g. the
    hyperplane class of projective space answers to both ``H`` and ``L``).
    ``ample_ref`` is a reference class with positive top power; on a blow-up
    it is a pull-back, so it is not ample there.  Only the top-power check
    below, the bundle's shift search and
    ``classify.complete_intersection_check`` read it.
    """

    def __init__(
        self,
        name: str,
        dimension: int,
        basis: Sequence[str],
        entries: Mapping[tuple[int, ...], Rational],
        anticanonical: Sequence[Rational],
        ample_ref: Sequence[Rational],
        aliases: Optional[Mapping[str, str]] = None,
    ):
        if len(set(basis)) != len(basis):
            raise GeometryError(f"basis names not unique: {basis}")
        self.name = name
        self.dimension = dimension
        self.basis = tuple(basis)
        self.form = IntersectionForm(dimension, _freeze_entries(entries))
        self.aliases = dict(aliases or {})
        # from lists: tuple(<generator>) resizes, leaving tuples in free lists until a full GC
        self.anticanonical = DivisorClass(self, tuple([_frac(c) for c in anticanonical]))
        self.ample_ref = DivisorClass(self, tuple([_frac(c) for c in ample_ref]))
        top = intersection_number(self, [self.ample_ref] * dimension)
        if top <= 0:
            raise GeometryError(
                f"reference class of {name} has non-positive top self-intersection {top}"
            )

    # -- symbol handling ---------------------------------------------------

    def basis_index(self, symbol: str) -> int:
        if symbol in self.basis:
            return self.basis.index(symbol)
        target = self.aliases.get(symbol)
        if target in self.basis:
            return self.basis.index(target)
        raise UnknownSymbolError(f"unknown symbol {symbol!r} on model {self.name}")

    def basis_class(self, symbol: str) -> DivisorClass:
        i = self.basis_index(symbol)
        return DivisorClass(self, tuple(Fraction(int(j == i)) for j in range(len(self.basis))))

    def zero(self) -> DivisorClass:
        return DivisorClass(self, (Fraction(0),) * len(self.basis))

    def divisor(self, source: Union[str, pmod.ClassExpr, DivisorClass]) -> DivisorClass:
        """Linear class expression (or literal 0) as a divisor class."""
        if isinstance(source, DivisorClass):
            if source.model is not self:
                raise ForeignClassError("divisor class belongs to a different model")
            return source
        expr = pmod.parse_class_expr(source) if isinstance(source, str) else source
        coeffs = [Fraction(0)] * len(self.basis)
        for c, factors in _walk(self, expr):
            if len(factors) != 1:
                raise DegreeError(f"class expression has a term of degree {len(factors)}, not 1")
            for i, x in factors[0].items():
                coeffs[i] += c * x
        return DivisorClass(self, tuple(coeffs))

    # -- evaluation conveniences ------------------------------------------

    def evaluate(self, expr: Union[str, pmod.ClassExpr]) -> Fraction:
        return evaluate(self, expr)

    def __repr__(self) -> str:
        return f"<VarietyModel {self.name} dim={self.dimension} basis={self.basis}>"


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------


def _sparse(coeffs: Sequence[Rational]) -> dict[int, Rational]:
    return {i: _exact(c) for i, c in enumerate(coeffs) if c}


def _contract(
    entries: Mapping[tuple[int, ...], Rational], factors: Sequence[Mapping[int, Rational]]
) -> dict[tuple[int, ...], Rational]:
    """Form with the given entries applied to k <= n sparse class vectors in k slots.

    Returns the rest of the form, the sorted key of the other n - k slots mapped
    to its value; a full contraction is keyed by ().  A full one walks the smaller
    side: the ordered index tuples of the factors' supports, each looked up as a
    sorted key, or the stored keys, each over its distinct ordered choices of k
    indices, up to n! of them.  A partial one walks the stored keys.
    """
    k = len(factors)
    if k == len(next(iter(entries), ())) and (  # every stored key has n indices
        math.prod(map(len, factors)) <= len(entries) * math.factorial(k)
    ):
        total = 0
        for indices in itertools.product(*factors):
            term = entries.get(tuple(sorted(indices)))
            if term:
                for vec, i in zip(factors, indices):
                    term *= vec[i]
                total += term
        return {(): total}
    rest: dict[tuple[int, ...], Rational] = {}
    for key, value in entries.items():
        for perm in set(itertools.permutations(key, k)):
            term = value
            for vec, i in zip(factors, perm):
                term *= vec.get(i, 0)
                if not term:
                    break
            if term:
                left = list(key)
                for i in perm:
                    left.remove(i)
                left = tuple(left)
                rest[left] = rest.get(left, 0) + term
    return rest


def intersection_number(model: VarietyModel, classes: Sequence[DivisorClass]) -> Fraction:
    """Multilinear extension of the model's form; exact rational."""
    n = model.dimension
    if len(classes) != n:
        raise DegreeError(f"expected {n} classes, got {len(classes)}")
    for c in classes:
        if not isinstance(c, DivisorClass):
            raise TypeError(f"expected a divisor class, got {c!r}")
        if c.model is not model:
            raise ForeignClassError("divisor class belongs to a different model")
    return Fraction(_contract(model.form.entries, [_sparse(c.coeffs) for c in classes]).get((), 0))


# A walked class expression is a list of terms (coefficient, nonzero sparse class vectors).
# _collect merges the constants and the linear terms, so a power of a sum stays one product.
_Term = tuple[Rational, tuple[dict[int, Rational], ...]]


def _collect(terms: list[_Term]) -> list[_Term]:
    const = 0
    linear: dict[int, Rational] = {}
    out = []
    for c, factors in terms:
        if not factors:
            const += c
        elif len(factors) == 1:
            for i, x in factors[0].items():
                linear[i] = linear.get(i, 0) + c * x
        else:
            out.append((c, factors))
    linear = {i: x for i, x in linear.items() if x}
    if linear:
        out.append((1, (linear,)))
    if const:
        out.append((const, ()))
    return out


def _multiply(model: VarietyModel, a: list[_Term], b: list[_Term]) -> list[_Term]:
    out = []
    for ca, fa in a:
        for cb, fb in b:
            if len(fa) + len(fb) > model.dimension:
                raise DegreeError(f"more than {model.dimension} classes multiplied on {model.name}")
            out.append((ca * cb, fa + fb))
    return _collect(out)


def _walk(model: VarietyModel, e: pmod.ClassExpr) -> list[_Term]:
    """A class expression as a short sum of products of at most n class vectors."""
    if isinstance(e, pmod.Sym):
        return [(1, ({model.basis_index(e.name): 1},))]
    if isinstance(e, pmod.Num):
        return [(_exact(e.value), ())] if e.value else []
    if isinstance(e, pmod.Neg):
        return [(-c, f) for c, f in _walk(model, e.arg)]
    if isinstance(e, (pmod.Add, pmod.Sub)):
        right = e.right if isinstance(e, pmod.Add) else pmod.Neg(e.right)
        return _collect(_walk(model, e.left) + _walk(model, right))
    if isinstance(e, pmod.Mul):
        return _multiply(model, _walk(model, e.left), _walk(model, e.right))
    if isinstance(e, pmod.Pow):
        if e.exp > model.dimension:
            raise DegreeError(f"exponent {e.exp} is above the dimension of {model.name}")
        base = _walk(model, e.base)
        out: list[_Term] = [(1, ())]
        for _ in range(e.exp):
            out = _multiply(model, out, base)
        return out
    raise TypeError(f"not a class expression: {e!r}")


def evaluate(model: VarietyModel, expr: Union[str, pmod.ClassExpr]) -> Fraction:
    """Value of a degree-n polynomial in basis symbols under the form.

    Only linear parts cancel: every product of classes left must have n factors.
    """
    ast = pmod.parse_class_expr(expr) if isinstance(expr, str) else expr
    total = Fraction(0)
    for c, factors in _walk(model, ast):
        if len(factors) != model.dimension:
            raise DegreeError(f"expression is not of degree {model.dimension} on {model.name}")
        total += c * _contract(model.form.entries, factors).get((), 0)
    return total


# --------------------------------------------------------------------------
# constructors
# --------------------------------------------------------------------------


def _rank_one(name: str, n: int, degree: int, index: int) -> VarietyModel:
    """Picard rank one: basis H (also spelled L), H^n = degree, -K = index*H."""
    return VarietyModel(
        name=name,
        dimension=n,
        basis=["H"],
        entries={(0,) * n: degree},
        anticanonical=[index],
        ample_ref=[1],
        aliases={"L": "H"},
    )


def make_projective_space(n: int) -> VarietyModel:
    if not 1 <= n <= 4:
        raise UnsupportedDimensionError(f"projective space of dimension {n} not supported")
    return _rank_one(f"P{n}", n, 1, n + 1)


def make_del_pezzo_threefold(degree: int) -> VarietyModel:
    """Index-two Fano threefold with fundamental class H, H^3 = degree."""
    if not 1 <= degree <= 7:
        raise GeometryError(f"no del Pezzo threefold of degree {degree}")
    return _rank_one(f"V{degree}", 3, degree, 2)


def make_product(factors: Sequence[VarietyModel]) -> VarietyModel:
    if len(factors) < 2:
        raise GeometryError("a product needs at least two factors")
    n = sum(f.dimension for f in factors)
    if n > 4:
        raise UnsupportedDimensionError(f"product of dimension {n} not supported")

    # disjoint union of bases; names shared between factors get the factor
    # ordinal as a suffix (H, H -> H1, H2)
    counts: dict[str, int] = {}
    for f in factors:
        for b in f.basis:
            counts[b] = counts.get(b, 0) + 1
    basis = [
        f"{b}{pos + 1}" if counts[b] > 1 else b
        for pos, f in enumerate(factors)
        for b in f.basis
    ]
    # Kuenneth: a stored key of the product joins one stored key per factor
    offsets = list(itertools.accumulate((len(f.basis) for f in factors[:-1]), initial=0))
    entries: dict[tuple[int, ...], Rational] = {}
    for combo in itertools.product(*(f.form.entries.items() for f in factors)):
        key = tuple(off + i for off, (k, _) in zip(offsets, combo) for i in k)
        entries[key] = math.prod(v for _, v in combo)

    return VarietyModel(
        name="x".join(f.name for f in factors),
        dimension=n,
        basis=basis,
        entries=entries,
        anticanonical=[c for f in factors for c in f.anticanonical.coeffs],
        ample_ref=[c for f in factors for c in f.ample_ref.coeffs],
        aliases={},
    )


# ---- split projective bundles --------------------------------------------


def make_projective_bundle(base: VarietyModel, summands: Sequence[DivisorClass]) -> VarietyModel:
    r = len(summands)
    if r < 2:
        raise GeometryError("a split bundle needs at least two summand classes")
    for s in summands:
        if s.model is not base:
            raise ForeignClassError("summand classes must live on the base model")
    n = base.dimension + r - 1
    if n > 4:
        raise UnsupportedDimensionError(f"bundle of total dimension {n} not supported")

    # zeta^(r-1+t) * mu pushes forward to mu * h_t(a_1, ..., a_r) (Fulton,
    # Intersection Theory, 3.2): h_t sums over the multisets of t summands,
    # and the base form with t summands applied gives every mu at once
    a = [_sparse(s.coeffs) for s in summands]
    zeta = len(base.basis)
    entries: dict[tuple[int, ...], Rational] = {}
    for t in range(base.dimension + 1):
        for sub in itertools.combinations_with_replacement(a, t):
            for mu, value in _contract(base.form.entries, sub).items():
                k = mu + (zeta,) * (r - 1 + t)
                entries[k] = entries.get(k, 0) + value

    antican = [c - sum(s.coeffs[i] for s in summands)
               for i, c in enumerate(base.anticanonical.coeffs)] + [r]

    # zeta alone need not be positive; shift by the least pulled-back multiple
    # of the base's reference class that makes the top self-intersection positive
    for shift in range(0, 64):
        ample = [(1 + shift) * c for c in base.ample_ref.coeffs] + [1]
        if _contract(entries, [_sparse(ample)] * n).get((), 0) > 0:
            break
    else:
        raise GeometryError("could not find a positive reference class for the bundle")
    return VarietyModel(
        name=f"P(E->{base.name})",
        dimension=n,
        basis=list(base.basis) + ["zeta"],
        entries=entries,
        anticanonical=antican,
        ample_ref=ample,
        aliases=dict(base.aliases),
    )


def make_blowup(
    ambient: VarietyModel,
    genus: Optional[int] = None,
    degrees: Union[Mapping[str, int], Iterable[tuple[str, int]], None] = None,
) -> VarietyModel:
    """Blow-up at a point, or along a smooth curve when ``degrees`` is given.

    ``degrees`` records D·C for ambient basis classes D, as a mapping or as
    (name, degree) pairs; omitted names default to zero.  Degrees may be
    negative (strict-transform bookkeeping for centers inside an earlier
    exceptional divisor).  The reference class is the ambient one pulled
    back, which contracts E, so it is not ample on the blow-up.
    """
    if degrees is None and genus is not None:
        raise GeometryError("point centers carry no genus")
    if degrees is not None and (genus is None or genus < 0):
        raise GeometryError("curve centers need a nonnegative genus")
    n = ambient.dimension
    if n not in (2, 3):
        raise UnsupportedDimensionError(f"blow-ups supported on surfaces and threefolds, not dim {n}")
    if degrees is not None and n != 3:
        raise GeometryError("curve centers are only supported on threefolds")

    m = len(ambient.basis)
    existing = [b for b in ambient.basis if re.fullmatch(r"E\d+", b)]
    e_name = f"E{len(existing) + 1}"

    # Fulton, Intersection Theory, 6.7: ambient products are unchanged, E
    # meets them only in E^n and, for a curve, D.E^2 = -D.C
    entries = dict(ambient.form.entries)
    if degrees is None:
        entries[(m,) * n] = 1 if n == 3 else -1
    else:
        given: dict[int, int] = {}
        for name, value in degrees.items() if isinstance(degrees, Mapping) else degrees:
            i = ambient.basis_index(name)
            if i in given:
                raise GeometryError(f"degree against {ambient.basis[i]} given twice")
            given[i] = value
            entries[(i, m, m)] = -value
        # E^3 = 2 - 2g + K_Y.C, with K_Y.C from the degrees against -K_Y
        k_dot_c = -sum(ambient.anticanonical.coeffs[i] * dg for i, dg in given.items())
        entries[(m,) * n] = 2 - 2 * genus + k_dot_c

    # exceptional coefficient of -K is codim - 1: -2E for a point on a
    # threefold, -E for a curve or a point on a surface
    codim = 2 if (degrees is not None or n == 2) else n
    antican = list(ambient.anticanonical.coeffs) + [1 - codim]
    ample = list(ambient.ample_ref.coeffs) + [0]

    aliases = dict(ambient.aliases)
    aliases.pop("E", None)
    if not existing:
        aliases["E"] = e_name
    return VarietyModel(
        name=f"Bl({ambient.name})",
        dimension=n,
        basis=list(ambient.basis) + [e_name],
        entries=entries,
        anticanonical=antican,
        ample_ref=ample,
        aliases=aliases,
    )


# Largest basis a point blow-up may leave, which bounds the time of any
# recipe however deeply its blowup_point calls nest.
MAX_BASIS = 64


def blowup_points(ambient: VarietyModel, count: int) -> VarietyModel:
    if count < 1:
        raise GeometryError("need a positive number of points")
    size = len(ambient.basis) + count
    if size > MAX_BASIS:
        raise GeometryError(f"{count} points would give {size} basis classes, over {MAX_BASIS}")
    model = ambient
    for _ in range(count):
        model = make_blowup(model)
    return model


def make_double_cover(base: VarietyModel, half_branch: DivisorClass) -> VarietyModel:
    if base.dimension > 3:
        raise UnsupportedDimensionError("double covers supported up to dimension 3")
    if half_branch.model is not base:
        raise ForeignClassError("half branch class must live on the base model")
    entries = {k: 2 * v for k, v in base.form.entries.items()}
    antican = [a - b for a, b in zip(base.anticanonical.coeffs, half_branch.coeffs)]
    return VarietyModel(
        name=f"2:1({base.name})",
        dimension=base.dimension,
        basis=base.basis,
        entries=entries,
        anticanonical=antican,
        ample_ref=base.ample_ref.coeffs,
        aliases=dict(base.aliases),
    )


def make_divisor_in(ambient: VarietyModel, hypersurface_class: DivisorClass) -> VarietyModel:
    if ambient.dimension != 4:
        raise UnsupportedDimensionError("hypersurface models are cut out of fourfolds")
    if hypersurface_class.model is not ambient:
        raise ForeignClassError("hypersurface class must live on the ambient model")
    # D1.D2.D3 on the hypersurface is D1.D2.D3.h on the ambient (projection
    # formula); the model's own check of A^3 = A.A.A.h rejects a class that
    # is not positive
    entries = _contract(ambient.form.entries, [_sparse(hypersurface_class.coeffs)])
    antican = [a - b for a, b in zip(ambient.anticanonical.coeffs, hypersurface_class.coeffs)]
    return VarietyModel(
        name=f"D({ambient.name})",
        dimension=3,
        basis=ambient.basis,
        entries=entries,
        anticanonical=antican,
        ample_ref=ambient.ample_ref.coeffs,
        aliases=dict(ambient.aliases),
    )


# --------------------------------------------------------------------------
# recipe realization
# --------------------------------------------------------------------------


def _recipe_class(base: VarietyModel, expr: pmod.ClassExpr) -> DivisorClass:
    """A recipe's class argument on ``base``; recipes name integral classes only."""
    c = base.divisor(expr)
    if not c.is_integral:
        raise GeometryError(f"class {c} in a recipe is not integral")
    return c


# one builder per constructor of parser._SIGNATURES, called with the Call's
# arguments once its nested recipes are built
_BUILDERS = {
    "P": make_projective_space,
    "dp3": make_del_pezzo_threefold,
    "prod": lambda *factors: make_product(factors),
    "bundle": lambda base, cs: make_projective_bundle(base, [_recipe_class(base, c) for c in cs]),
    "blowup_point": blowup_points,
    "blowup_curve": make_blowup,
    "double_cover": lambda base, c: make_double_cover(base, _recipe_class(base, c)),
    "divisor_in": lambda base, c: make_divisor_in(base, _recipe_class(base, c)),
}


def model_from_recipe(recipe: Union[str, pmod.Call]) -> VarietyModel:
    """Build the variety model described by a recipe."""
    r = pmod.parse_recipe(recipe) if isinstance(recipe, str) else recipe
    args = [model_from_recipe(a) if isinstance(a, pmod.Call) else a for a in r.args]
    return _BUILDERS[r.name](*args)
