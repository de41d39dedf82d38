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
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from typing import Optional, Union

from . import parser as pmod
from .errors import (
    DegreeError,
    ForeignClassError,
    GeometryError,
    UnknownSymbolError,
    UnsupportedDimensionError,
)

Rational = Union[int, Fraction]


def _coeff_tuple(size: int, coeffs: Sequence[Rational]) -> tuple[Rational, ...]:
    if len(coeffs) != size:
        raise GeometryError(
            f"coefficient vector of length {len(coeffs)} does not match basis of size {size}"
        )
    # ints where integral; from a list: tuple(<generator>) resizes, leaving tuples in free
    # lists until a full GC
    return tuple([c if type(c) is int else c.numerator if c.denominator == 1 else c for c in coeffs])


# --------------------------------------------------------------------------
# core data types
# --------------------------------------------------------------------------


class DivisorClass(pmod._Value):
    """Exact coefficient vector over the owning model's basis, ints where integral."""

    __slots__ = ("model", "coeffs")

    def __init__(self, model: "VarietyModel", coeffs: Sequence[Rational]):
        self._fill(model, _coeff_tuple(len(model.basis), coeffs))

    def _check_sibling(self, other: "DivisorClass") -> None:
        if not isinstance(other, DivisorClass):
            raise TypeError(f"expected a divisor class, got {other!r}")
        if other.model is not self.model:
            raise ForeignClassError("divisor classes belong to different models")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_sibling(other)
        return DivisorClass(self.model, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_sibling(other)
        return DivisorClass(self.model, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.model, [-a for a in self.coeffs])

    def __mul__(self, scalar: Rational) -> "DivisorClass":
        return DivisorClass(self.model, [scalar * a for a in self.coeffs])

    __rmul__ = __mul__

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

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


class IntersectionForm(pmod._Value):
    """Sparse symmetric n-linear form on basis indices.

    Entries, ints where integral, are keyed by sorted index tuples; unlisted ones are zero.
    """

    __slots__ = ("dimension", "entries")


def _freeze_entries(raw: Mapping[tuple[int, ...], Rational]) -> dict[tuple[int, ...], Rational]:
    return {tuple(sorted(k)): v if type(v) is int else v.numerator if v.denominator == 1 else v
            for k, v in raw.items() if v}


class VarietyModel:
    """Divisor basis + top-degree intersection form + marked classes.

    Instances are immutable after construction and compared by identity.
    ``aliases`` maps alternative symbol spellings to basis names (e.g. the
    hyperplane class of projective space answers to both ``H`` and ``L``).
    ``ample_ref`` is a reference class with positive top power, which each model
    checks once through ``intersection_number``; on a blow-up it is a pull-back, so it is
    not ample there.  Both are checked and kept as tuples, and a class of either is built on
    access: a class holds its model, and a model holding its classes would be a reference cycle.
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
        index = {b: i for i, b in enumerate(basis)}  # also finds a repeated name
        if len(index) != len(basis):
            raise GeometryError(f"basis names not unique: {basis}")
        self.name = name
        self.dimension = dimension
        self.basis = tuple(basis)
        self.form = IntersectionForm(dimension, _freeze_entries(entries))
        self.aliases = dict(aliases or {})
        # symbol -> basis index; a basis name beats an alias of the same spelling
        self._index = {a: index[t] for a, t in self.aliases.items() if t in index} | index
        self._anticanonical = _coeff_tuple(len(self.basis), anticanonical)
        self._ample_ref = _coeff_tuple(len(self.basis), ample_ref)
        top = intersection_number(self, [self._class(self._ample_ref)] * dimension)
        if top.numerator <= 0:
            raise GeometryError(
                f"reference class of {name} has non-positive top self-intersection {top}"
            )

    @property
    def anticanonical(self) -> DivisorClass:
        return self._class(self._anticanonical)

    @property
    def ample_ref(self) -> DivisorClass:
        return self._class(self._ample_ref)

    def _class(self, coeffs: tuple[Rational, ...]) -> DivisorClass:
        c = object.__new__(DivisorClass)
        c._fill(self, coeffs)  # checked when the model was built
        return c

    # -- symbol handling ---------------------------------------------------

    def basis_index(self, symbol: str) -> int:
        i = self._index.get(symbol)
        if i is None:
            raise UnknownSymbolError(f"unknown symbol {symbol!r} on model {self.name}")
        return i

    def divisor(self, source: Union[str, pmod.ClassExpr, DivisorClass]) -> DivisorClass:
        """Linear class expression (or literal 0) as a divisor class."""
        if isinstance(source, DivisorClass):
            if source.model is not self:
                raise ForeignClassError("divisor class belongs to a different model")
            return source
        expr = pmod.parse_class_expr(source) if isinstance(source, str) else source
        coeffs = [0] * len(self.basis)
        for c, factors in _walk(self, expr):
            if len(factors) != 1:
                raise DegreeError(f"class expression has a term of degree {len(factors)}, not 1")
            for i, x in factors[0].items():
                coeffs[i] += c * x
        return DivisorClass(self, coeffs)

    # -- evaluation conveniences ------------------------------------------

    def evaluate(self, expr: Union[str, pmod.ClassExpr]) -> Fraction:
        return evaluate(self, expr)

    def __repr__(self) -> str:
        return f"<VarietyModel {self.name} dim={self.dimension} basis={self.basis}>"


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------


def _sparse(coeffs: Sequence[Rational]) -> dict[int, Rational]:
    return {i: c for i, c in enumerate(coeffs) if c}


def _contract(
    entries: Mapping[tuple[int, ...], Rational], factors: Sequence[Mapping[int, Rational]]
) -> dict[tuple[int, ...], Rational]:
    """Form with the given entries applied to k <= n sparse class vectors in k slots.

    Returns the rest of the form, the sorted key of the other n - k slots mapped
    to its value; a full contraction is keyed by ().  Tried in this order:
    - no factors: a copy;
    - a full contraction, by the power walk, then the product walk, when it costs less
      than the walk it would replace.  Power: one vector object in every slot walks the
      stored keys once; a key with index multiplicities k_i adds its value times
      n!/prod k_i! * prod v_i^k_i.  Product: each ordered index tuple of the factors'
      supports is looked up as a sorted key;
    - one slot at a time, for everything else: v in one slot leaves the symmetric
      form F(v, ...), so each key and each distinct index i in it give the key less
      one i, weighted by v_i.
    Timed on the models' reference classes, a tuple costs about four stored keys of the
    power walk, plus four to start; a key of the one-slot walk costs k steps.  So a sparse
    query on a large model keeps the product walk: walking the stored keys made H1^2*H2^2
    on the product of two Bl_62 P^2 about 50 times slower, and a sum of many products 23 s.
    """
    if not factors:
        return dict(entries)
    k = len(factors)
    if k == len(next(iter(entries), ())):  # full: every stored key has n indices
        tuples, vec = math.prod(map(len, factors)), factors[0]
        if 4 * tuples + 4 > len(entries) and all(v is vec for v in factors):
            get, fact, total = vec.get, math.factorial(k), 0
            for key, value in entries.items():
                prev, run, repeats = None, 0, 1  # repeats: prod k_i!, built up one index at a time
                for i in key:
                    if i == prev:  # keys are sorted, so repeats are neighbours
                        run += 1
                        repeats *= run
                    else:
                        x = get(i)
                        if not x:
                            break
                        prev, run = i, 1
                    value *= x
                else:
                    total += value * (fact // repeats)
            return {(): total}
        if tuples <= len(entries) * k:
            get, total = entries.get, 0
            for indices in itertools.product(*factors):
                term = get(tuple(sorted(indices)))
                if term:
                    for vec, i in zip(factors, indices):
                        term *= vec[i]
                    total += term
            return {(): total}
    rest = entries
    for vec in factors:
        walked, rest, get = rest, {}, vec.get
        for key, value in walked.items():
            prev = None
            for pos, i in enumerate(key):
                if i != prev:  # keys are sorted, so an index equal to its left neighbour repeats it
                    prev = i
                    x = get(i)
                    if x:
                        left = key[:pos] + key[pos + 1:]
                        rest[left] = rest.get(left, 0) + value * x
    return rest


def intersection_number(model: VarietyModel, classes: Sequence[DivisorClass]) -> Fraction:
    """Multilinear extension of the model's form; exact rational."""
    n = model.dimension
    if len(classes) != n:
        raise DegreeError(f"expected {n} classes, got {len(classes)}")
    # a class repeating the slot before reuses its vector: [c] * n costs one check, one vector
    factors, last = [], object()  # no slot holds this object, so the first is checked
    for c in classes:
        if c is not last:
            if not isinstance(c, DivisorClass):
                raise TypeError(f"expected a divisor class, got {c!r}")
            if c.model is not model:
                raise ForeignClassError("divisor class belongs to a different model")
            vec, last = _sparse(c.coeffs), c
        factors.append(vec)
    return Fraction(_contract(model.form.entries, factors).get((), 0))


# A walked class expression is a list of terms (coefficient, nonzero sparse class vectors).
# _collect merges the constants and the linear terms into ``linear``, a sparse class vector
# that a sum's spine may have started, so a power of a sum stays one product.
_Term = tuple[Rational, tuple[dict[int, Rational], ...]]
_SIGNS = {pmod.Add: 1, pmod.Sub: -1}  # a sum's nodes and the sign of their right operand


def _collect(terms: list[_Term], linear: dict[int, Rational]) -> list[_Term]:
    const = 0
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
    const, other = (a, b) if len(a) == 1 and not a[0][1] else (b, a)
    if len(const) == 1 and not const[0][1]:  # a constant scales a collected list, kept collected
        return [(const[0][0] * c, f) for c, f in other]
    out = []
    for ca, fa in a:
        for cb, fb in b:
            if len(fa) + len(fb) > model.dimension:
                raise DegreeError(f"more than {model.dimension} classes multiplied on {model.name}")
            out.append((ca * cb, fa + fb))
    return _collect(out, {})


def _walk(model: VarietyModel, e: pmod.ClassExpr, named: Mapping = {}) -> list[_Term]:
    """A class expression as a short sum of products of at most n class vectors.

    A sum's terms are read left to right: a basis symbol, alone or times a number, adds its
    signed coefficient to one sparse vector, which ``_collect`` merges with the other terms.
    """
    if isinstance(e, pmod.Sym):
        if e.name in named:  # a named class's walked form, copied: a sum extends its list
            return list(named[e.name])
        return [(1, ({model.basis_index(e.name): 1},))]
    if isinstance(e, pmod.Num):
        return [(e.value, ())] if e.value else []
    if isinstance(e, pmod.Neg):
        return [(-c, f) for c, f in _walk(model, e.arg, named)]
    if type(e) in _SIGNS:
        spine = []  # (sign, term), right to left
        while sign := _SIGNS.get(type(e)):
            spine.append((sign, e.right))
            e = e.left
        spine.append((1, e))
        terms, linear, index = [], {}, model._index
        for sign, t in reversed(spine):
            c, s = sign, t
            if type(t) is pmod.Mul and type(t.left) is pmod.Num:
                c, s = sign * t.left.value, t.right
            if type(s) is pmod.Sym and (i := index.get(s.name)) is not None:
                linear[i] = linear.get(i, 0) + c
            else:  # a named class is never a symbol; an unknown symbol raises in this walk
                walked = _walk(model, t, named)
                terms += walked if sign == 1 else [(-x, f) for x, f in walked]
        return _collect(terms, linear)
    if isinstance(e, pmod.Mul):
        return _multiply(model, _walk(model, e.left, named), _walk(model, e.right, named))
    if isinstance(e, pmod.Pow):
        if e.exp > model.dimension:
            raise DegreeError(f"exponent {e.exp} is above the dimension of {model.name}")
        base = _walk(model, e.base, named)
        if len(base) == 1:  # one term: its coefficient's power and its factors e times
            (c, f), = base
            if len(f) * e.exp > model.dimension:
                raise DegreeError(f"more than {model.dimension} classes multiplied on {model.name}")
            return [(c ** e.exp, f * e.exp)]
        out: list[_Term] = [(1, ())]
        for _ in range(e.exp):
            out = _multiply(model, out, base)
        return out
    raise TypeError(f"not a class expression: {e!r}")


def evaluate(model: VarietyModel, expr: Union[str, pmod.ClassExpr],
             classes: Optional[Mapping[str, DivisorClass]] = None) -> Fraction:
    """Value of a degree-n polynomial in basis symbols and named classes under the form.

    ``classes`` maps names to classes of ``model``; a name that is a basis symbol or alias
    is a ``GeometryError``.  Only linear parts cancel: every product left has n factors.
    """
    ast = pmod.parse_class_expr(expr) if isinstance(expr, str) else expr
    named = {}
    for name, c in (classes or {}).items():
        if name in model._index:
            raise GeometryError(f"class name {name!r} is a symbol of model {model.name}")
        v = _sparse(model.divisor(c).coeffs)
        named[name] = [(1, (v,))] if v else []  # a walked class: 0 has no term
    total = 0
    for c, factors in _walk(model, ast, named):
        if len(factors) != model.dimension:
            raise DegreeError(f"expression is not of degree {model.dimension} on {model.name}")
        total += c * _contract(model.form.entries, factors).get((), 0)
    return Fraction(total)


# --------------------------------------------------------------------------
# constructors
# --------------------------------------------------------------------------


def _rank_one(name: str, n: int, degree: int, index: int) -> VarietyModel:
    """Picard rank one: basis H (also spelled L), H^n = degree, -K = index*H."""
    return VarietyModel(name, n, ["H"], {(0,) * n: degree}, [index], [1], {"L": "H"})


def make_projective_space(n: int) -> VarietyModel:
    if not 1 <= n <= 4:
        raise UnsupportedDimensionError(f"projective space of dimension {n} not supported")
    return _rank_one(f"P{n}", n, 1, n + 1)


def make_del_pezzo_threefold(degree: int) -> VarietyModel:
    """Index-two Fano threefold of Picard rank one with fundamental class H, H^3 = degree;
    one exists for degrees 1..5 only (Iskovskikh; Fujita)."""
    if not 1 <= degree <= 5:
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
    # Kuenneth: a stored key of the product joins one stored key per factor, shifted
    entries: dict[tuple[int, ...], Rational] = {(): 1}
    off = 0
    for f in factors:
        entries = {key + tuple([off + i for i in k]): value * v
                   for key, value in entries.items() for k, v in f.form.entries.items()}
        off += len(f.basis)

    return VarietyModel(
        name="x".join(f.name for f in factors),
        dimension=n,
        basis=basis,
        entries=entries,
        anticanonical=[c for f in factors for c in f._anticanonical],
        ample_ref=[c for f in factors for c in f._ample_ref],
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
               for i, c in enumerate(base._anticanonical)] + [r]

    # zeta alone need not be positive: take zeta + t*A, A the base's reference class, doubling
    # t from 1 until the top power is positive, which ends, as (zeta + t*A)^n is a polynomial
    # in t led by C(n, b) * A^b > 0
    ample = list(base._ample_ref) + [1]
    while _contract(entries, [_sparse(ample)] * n).get((), 0) <= 0:
        ample = [2 * c for c in ample[:-1]] + [1]
    return VarietyModel(
        name=f"P(E->{base.name})",
        dimension=n,
        basis=list(base.basis) + ["zeta"],
        entries=entries,
        anticanonical=antican,
        ample_ref=ample,
        aliases=base.aliases,
    )


def _blown_up(ambient: VarietyModel, count: int, entries: Mapping, k_coeff: int) -> VarietyModel:
    """``ambient`` plus ``count`` exceptional divisors with these form ``entries`` and -K
    coefficient, numbered on from its ``E<digits>``; ``E`` also names a first and only one."""
    first = 1 + sum([b[:1] == "E" and b[1:].isdecimal() for b in ambient.basis])
    basis = list(ambient.basis)
    for j in range(first, first + count):
        basis.append(f"E{j}")
        if basis[-1] in ambient.basis:
            break  # a chain of single blow-ups stops at this basis, which the model rejects
    aliases = {**ambient.aliases, "E": "E1"}
    if not count == first == 1:
        del aliases["E"]
    return VarietyModel(
        name="Bl(" * count + ambient.name + ")" * count,
        dimension=ambient.dimension,
        basis=basis,
        entries={**ambient.form.entries, **entries},
        anticanonical=list(ambient._anticanonical) + [k_coeff] * count,
        ample_ref=list(ambient._ample_ref) + [0] * count,
        aliases=aliases,
    )


def make_blowup(
    ambient: VarietyModel,
    genus: int,
    degrees: Union[Mapping[str, int], Iterable[tuple[str, int]]],
) -> VarietyModel:
    """Blow-up along a smooth curve C; a point center is ``blowup_points(ambient, 1)``.

    ``degrees`` records D·C for ambient basis classes D, as a mapping or as
    (name, degree) pairs; omitted names default to zero.  Degrees may be
    negative (strict-transform bookkeeping for centers inside an earlier
    exceptional divisor).  The reference class is the ambient one pulled back,
    which contracts E, so it is not ample on the blow-up.
    """
    if genus is None or genus < 0:
        raise GeometryError("curve centers need a nonnegative genus")
    n = ambient.dimension
    if n not in (2, 3):
        raise UnsupportedDimensionError(f"blow-ups supported on surfaces and threefolds, not dim {n}")
    if n != 3:
        raise GeometryError("curve centers are only supported on threefolds")

    # Fulton, Intersection Theory, 6.7: ambient products are unchanged, E
    # meets them only in E^3 and D.E^2 = -D.C
    m = len(ambient.basis)
    entries: dict[tuple[int, ...], Rational] = {}
    given: dict[int, int] = {}
    for name, value in degrees.items() if isinstance(degrees, Mapping) else degrees:
        i = ambient.basis_index(name)
        if i in given:
            raise GeometryError(f"degree against {ambient.basis[i]} given twice")
        given[i] = value
        entries[(i, m, m)] = -value
    # E^3 = 2 - 2g + K_Y.C, with K_Y.C from the degrees against -K_Y
    k_dot_c = -sum(ambient._anticanonical[i] * dg for i, dg in given.items())
    entries[(m, m, m)] = 2 - 2 * genus + k_dot_c
    return _blown_up(ambient, 1, entries, -1)  # -K = -K_Y - E along a curve


# Largest basis a point blow-up may leave, which bounds the time of any
# recipe however deeply its blowup_point calls nest.
MAX_BASIS = 64


def blowup_points(ambient: VarietyModel, count: int) -> VarietyModel:
    """Blow-up at ``count`` distinct points, built as one model.

    Each E_j meets only itself (Fulton, Intersection Theory, 6.7): E_j^3 = 1
    on a threefold, E_j^2 = -1 on a surface, and -K gains (1 - n) E_j.
    """
    if count < 1:
        raise GeometryError("need a positive number of points")
    size = len(ambient.basis) + count
    if size > MAX_BASIS:
        raise GeometryError(f"{count} points would give {size} basis classes, over {MAX_BASIS}")
    n = ambient.dimension
    if n not in (2, 3):
        raise UnsupportedDimensionError(f"blow-ups supported on surfaces and threefolds, not dim {n}")
    e_top = 1 if n == 3 else -1
    return _blown_up(ambient, count, {(j,) * n: e_top for j in range(size - count, size)}, 1 - n)


def _same_basis(base: VarietyModel, kind: str, dimension: int, entries: Mapping,
                divisor: DivisorClass) -> VarietyModel:
    """``kind(base)``: these form ``entries`` on ``base``'s basis, with its reference class
    and aliases, and -K = -K_base - ``divisor``."""
    return VarietyModel(
        name=f"{kind}({base.name})",
        dimension=dimension,
        basis=base.basis,
        entries=entries,
        anticanonical=[a - b for a, b in zip(base._anticanonical, divisor.coeffs)],
        ample_ref=base._ample_ref,
        aliases=base.aliases,
    )


def make_double_cover(base: VarietyModel, half_branch: DivisorClass) -> VarietyModel:
    if base.dimension > 3:
        raise UnsupportedDimensionError("double covers supported up to dimension 3")
    if half_branch.model is not base:
        raise ForeignClassError("half branch class must live on the base model")
    entries = {k: 2 * v for k, v in base.form.entries.items()}
    return _same_basis(base, "2:1", base.dimension, entries, half_branch)


def make_divisor_in(ambient: VarietyModel, hypersurface_class: DivisorClass) -> VarietyModel:
    if ambient.dimension != 4:
        raise UnsupportedDimensionError("hypersurface models are cut out of fourfolds")
    if hypersurface_class.model is not ambient:
        raise ForeignClassError("hypersurface class must live on the ambient model")
    # D1.D2.D3 on the hypersurface is D1.D2.D3.h on the ambient (projection
    # formula); the model's own check of A^3 = A.A.A.h rejects a class that
    # is not positive
    entries = _contract(ambient.form.entries, [_sparse(hypersurface_class.coeffs)])
    return _same_basis(ambient, "D", 3, entries, hypersurface_class)


# --------------------------------------------------------------------------
# recipe realization
# --------------------------------------------------------------------------


def _recipe_class(base: VarietyModel, expr: pmod.ClassExpr) -> DivisorClass:
    """A recipe's class argument on ``base``; recipes name integral classes only."""
    c = base.divisor(expr)
    if not c.is_integral:
        raise GeometryError(f"class {c} in a recipe is not integral")
    return c


# one builder per constructor of parser._SIGNATURES, called with the Call's arguments once
# its nested recipes are built; each looks its constructor up by name, so a wrapper sees it
_BUILDERS = {
    "P": lambda n: make_projective_space(n),
    "dp3": lambda d: make_del_pezzo_threefold(d),
    "prod": lambda *factors: make_product(factors),
    "bundle": lambda base, cs: make_projective_bundle(base, [_recipe_class(base, c) for c in cs]),
    "blowup_point": lambda base, count: blowup_points(base, count),
    "blowup_curve": lambda base, genus, degrees: make_blowup(base, genus, degrees),
    "double_cover": lambda base, c: make_double_cover(base, _recipe_class(base, c)),
    "divisor_in": lambda base, c: make_divisor_in(base, _recipe_class(base, c)),
}


def model_from_recipe(recipe: Union[str, pmod.Call]) -> VarietyModel:
    """Build the variety model described by a recipe."""
    r = pmod.parse_recipe(recipe) if isinstance(recipe, str) else recipe
    args = [model_from_recipe(a) if type(a) is pmod.Call else a for a in r.args]
    return _BUILDERS[r.name](*args)
