"""The sparse kernel and constructors against the dense computations they replaced.

``dense_contract`` visits every index tuple of the basis, m^n of them, and
the ``dense_*_entries`` reference builders derive each form entry from
every sorted index tuple, as the constructors in ``fanocalc.ring`` did
before they were made to touch only stored entries.  Nothing here shares
code with the engine beyond ``IntersectionForm.value``.
"""

import itertools
import random
import re
from fractions import Fraction

import pytest

from fanocalc import ring
from fanocalc.classify import pencil_check
from fanocalc.errors import GeometryError
from fanocalc.ring import (
    DivisorClass,
    blowup_points,
    intersection_number,
    make_blowup,
    make_divisor_in,
    make_product,
    make_projective_bundle,
    make_projective_space,
    model_from_recipe,
)

RECIPE_4_9 = ("blowup_curve(blowup_curve(P(3), genus=0, degrees={H:1}),"
              " genus=0, degrees={H:0, E1:-1})")


def P(n):
    return make_projective_space(n)


# ---------------------------------------------------------------------------
# dense oracle and reference builders


def dense_contract(form, m, vectors):
    total = Fraction(0)
    for indices in itertools.product(range(m), repeat=form.dimension):
        coeff = Fraction(1)
        for vec, i in zip(vectors, indices):
            coeff *= vec[i]
            if coeff == 0:
                break
        if coeff != 0:
            total += coeff * form.value(indices)
    return total


def dense_intersection_number(model, classes):
    return dense_contract(model.form, len(model.basis), [c.coeffs for c in classes])


def _nonzero(entries):
    return {k: Fraction(v) for k, v in entries.items() if v != 0}


def dense_blowup_entries(ambient, genus=None, degrees=None):
    n = ambient.dimension
    m = len(ambient.basis)
    e_idx = m
    curve = degrees is not None
    if curve:
        degrees = [degrees.get(b, 0) for b in ambient.basis]
        k_dot_c = -sum(c * dg for c, dg in zip(ambient.anticanonical.coeffs, degrees))
        e_top = Fraction(2 - 2 * genus) + k_dot_c
    else:
        e_top = Fraction(1) if n == 3 else Fraction(-1)
    entries = {}
    for tup in itertools.combinations_with_replacement(range(m + 1), n):
        c = tup.count(e_idx)
        rest = [i for i in tup if i != e_idx]
        if c == 0:
            entries[tup] = ambient.form.value(rest)
        elif c == n:
            entries[tup] = e_top
        elif n == 3 and c == 2 and curve:
            entries[tup] = Fraction(-degrees[rest[0]])
    return _nonzero(entries)


def dense_product_entries(factors):
    n = sum(f.dimension for f in factors)
    owner = [pos for pos, f in enumerate(factors) for _ in f.basis]
    local = [j for f in factors for j in range(len(f.basis))]
    entries = {}
    for tup in itertools.combinations_with_replacement(range(len(owner)), n):
        groups = {}
        for i in tup:
            groups.setdefault(owner[i], []).append(local[i])
        value = Fraction(1)
        for pos, f in enumerate(factors):
            sub = groups.get(pos, [])
            if len(sub) != f.dimension:
                value = Fraction(0)
                break
            value *= f.form.value(sub)
        entries[tup] = value
    return _nonzero(entries)


def dense_divisor_entries(ambient, h):
    m = len(ambient.basis)
    entries = {}
    for tup in itertools.combinations_with_replacement(range(m), 3):
        entries[tup] = sum(
            (h.coeffs[i] * ambient.form.value(tup + (i,)) for i in range(m)), Fraction(0)
        )
    return _nonzero(entries)


def _exp_mul(a, b, max_deg):
    """Product of polynomials keyed by exponent vectors, truncated by degree."""
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            if sum(k) <= max_deg:
                out[k] = out.get(k, Fraction(0)) + va * vb
    return {k: v for k, v in out.items() if v != 0}


def dense_bundle_entries(base, summands):
    """Form entries of P(E) by reducing zeta^r with the bundle relation."""
    r = len(summands)
    n = base.dimension + r - 1
    m = len(base.basis)
    d = base.dimension
    zero = (0,) * m
    unit = [tuple(int(j == i) for j in range(m)) for i in range(m)]
    elem = [{zero: Fraction(1)}] + [{} for _ in range(r)]
    for s in summands:
        lf = {unit[i]: c for i, c in enumerate(s.coeffs) if c != 0}
        new = [dict(e) for e in elem]
        for k in range(r, 0, -1):
            for key, v in _exp_mul(elem[k - 1], lf, d).items():
                new[k][key] = new[k].get(key, Fraction(0)) + v
        elem = new

    def reduce_value(zeta_power, mono):
        terms = {(zeta_power, mono): Fraction(1)}
        while True:
            hot = [key for key in terms if key[0] >= r]
            if not hot:
                break
            zp, mk = max(hot)
            coeff = terms.pop((zp, mk))
            # zeta^r = sum_{k>=1} (-1)^(k+1) e_k zeta^(r-k)
            for k in range(1, r + 1):
                sign = 1 if k % 2 == 1 else -1
                for ek_key, ek_val in _exp_mul({mk: coeff}, elem[k], d).items():
                    key = (zp - k, ek_key)
                    terms[key] = terms.get(key, Fraction(0)) + sign * ek_val
        total = Fraction(0)
        for (zp, mk), coeff in terms.items():
            if zp == r - 1 and sum(mk) == d:
                indices = [i for i, e in enumerate(mk) for _ in range(e)]
                total += coeff * base.form.value(indices)
        return total

    entries = {}
    for tup in itertools.combinations_with_replacement(range(m + 1), n):
        mono = tuple(tup.count(i) for i in range(m))
        entries[tup] = reduce_value(tup.count(m), mono)
    return _nonzero(entries)


def dense_bundle_shift(base, summands, entries):
    """Least shift s < 64 for which ((1+s)A + zeta)^n > 0 on the dense loop."""
    n = base.dimension + len(summands) - 1
    form = ring.IntersectionForm(n, entries)
    for shift in range(64):
        ample = [(1 + shift) * c for c in base.ample_ref.coeffs] + [Fraction(1)]
        if dense_contract(form, len(ample), [ample] * n) > 0:
            return shift
    return None


# ---------------------------------------------------------------------------
# kernel cross-checks


_CROSS_CHECK = [
    "blowup_point(P(3), count=1)",
    "blowup_point(P(3), count=12)",
    "blowup_point(P(3), count=20)",
    RECIPE_4_9,
    "prod(P(1), blowup_point(P(2), count=3))",
    "prod(P(1),P(1),P(1),P(1))",
    "bundle(prod(P(1),P(1)), summands=[0, H1+H2])",
    "double_cover(prod(P(1),P(2)), half_branch=H1+2*H2)",
    "divisor_in(prod(P(1),P(1),P(2)), H1+H2+2*H3)",
]


def _random_vector(m, rng):
    return [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(m)]


def _class_text(vec, basis):
    terms = [f"{c.numerator}/{c.denominator}*{b}" for c, b in zip(vec, basis) if c != 0]
    return "(" + ("+".join(terms).replace("+-", "-") or "0") + ")"


@pytest.mark.parametrize("recipe", _CROSS_CHECK)
def test_kernel_matches_dense_loop(recipe):
    model = model_from_recipe(recipe)
    n, m = model.dimension, len(model.basis)
    rng = random.Random(recipe)
    for trial in range(12):
        if trial % 3 == 0:  # a power of one class, as in -K^n
            vectors = [_random_vector(m, rng)] * n
        else:
            vectors = [_random_vector(m, rng) for _ in range(n)]
        classes = [DivisorClass(model, tuple(v)) for v in vectors]
        expected = dense_intersection_number(model, classes)
        assert intersection_number(model, classes) == expected
        text = "*".join(_class_text(v, model.basis) for v in vectors)
        assert model.evaluate(text) == expected
    k = model.anticanonical
    assert intersection_number(model, [k] * n) == dense_intersection_number(model, [k] * n)


@pytest.mark.parametrize("recipe", [
    "blowup_point(P(3), count=3)",
    RECIPE_4_9,
    "prod(P(1), blowup_point(P(2), count=3))",
    "bundle(prod(P(1),P(1)), summands=[0, H1+H2])",
    "prod(P(1),P(1),P(1),P(1))",
    "prod(P(1), P(1), blowup_point(P(2), count=2))",
    "bundle(P(2), summands=[0, -H, 3*H])",
])
def test_partial_contractions_match_dense_loop(recipe):
    """Applying k classes leaves the form's value at unit vectors in the other slots."""
    model = model_from_recipe(recipe)
    n, m = model.dimension, len(model.basis)
    units = [[Fraction(int(j == i)) for j in range(m)] for i in range(m)]
    rng = random.Random(recipe)
    for k in range(n + 1):
        vectors = [_random_vector(m, rng) for _ in range(k)]
        rest = ring._contract(model.form.entries, [ring._sparse(v) for v in vectors])
        lefts = list(itertools.combinations_with_replacement(range(m), n - k))
        assert set(rest) <= set(lefts)
        for left in lefts:
            expected = dense_contract(model.form, m, vectors + [units[i] for i in left])
            assert rest.get(left, 0) == expected


class _ItertoolsSpy:
    """Stands in for ring's itertools and records which functions are taken."""

    def __init__(self):
        self.taken = set()

    def __getattr__(self, name):
        self.taken.add(name)
        return getattr(itertools, name)


def half_section():
    """divisor_in(P(4), 1/2*H), which recipes reject as non-integral; H^3 = 1/2."""
    p4 = P(4)
    return make_divisor_in(p4, p4.divisor("1/2*H"))


def half_section_blown_up():
    return blowup_points(half_section(), 12)


def _factor(model, text):
    """A class expression, or -K/d for the anticanonical class over d."""
    if text.startswith("-K"):
        return Fraction(1, int(text[3:] or 1)) * model.anticanonical
    return model.divisor(text)


# itertools.product walks the factors' supports, itertools.permutations the
# stored keys; the text's factors are split at the *s outside parentheses,
# and a single factor stands for its n-th power
@pytest.mark.parametrize("recipe, text, walk", [
    ("blowup_point(P(3), count=3)", "E1*E1*E1", "product"),
    ("blowup_point(P(3), count=3)", "H*H*E2", "product"),
    ("blowup_point(P(3), count=12)", "-K", "permutations"),
    ("prod(P(1),P(1),P(1),P(1))", "-K", "permutations"),
    ("blowup_point(P(3), count=3)", "(1/2*E1+1/3*E2)", "product"),
    ("blowup_point(P(3), count=12)", "-K/4*-K/3*-K", "permutations"),
    (half_section, "(1/3*H)*H*(1/2*H)", "product"),
    (half_section_blown_up, "-K/3*-K*-K", "permutations"),
])
def test_both_walks_match_dense_loop(monkeypatch, recipe, text, walk):
    model = recipe() if callable(recipe) else model_from_recipe(recipe)
    classes = [_factor(model, t) for t in re.split(r"\*(?![^(]*\))", text)]
    if len(classes) == 1:
        classes *= model.dimension
    expected = dense_intersection_number(model, classes)
    spy = _ItertoolsSpy()
    monkeypatch.setattr(ring, "itertools", spy)
    assert intersection_number(model, classes) == expected
    assert model.evaluate("*".join(_class_text(c.coeffs, model.basis) for c in classes)) == expected
    assert spy.taken == {walk}


# ---------------------------------------------------------------------------
# constructors against the reference builders


def test_point_blowups_match_dense_builder():
    for recipe, count in (("P(3)", 20), ("P(2)", 8), ("divisor_in(P(4), 2*H)", 3)):
        model = model_from_recipe(recipe)
        for _ in range(count):
            expected = dense_blowup_entries(model)
            model = make_blowup(model)
            assert model.form.entries == expected


def test_curve_blowups_match_dense_builder():
    steps = [
        (P(3), 0, {"H": 1}),
        (P(3), 5, {"H": 7}),
        (blowup_points(P(3), 2), 1, {"H": 4, "E2": 2}),
    ]
    y1 = make_blowup(P(3), 0, {"H": 1})
    steps.append((y1, 0, {"H": 0, "E1": -1}))
    for ambient, genus, degrees in steps:
        assert (make_blowup(ambient, genus, degrees).form.entries
                == dense_blowup_entries(ambient, genus, degrees))


@pytest.mark.parametrize("recipes", [
    ("P(1)", "P(1)", "P(1)", "P(1)"),
    ("P(1)", "blowup_point(P(2), count=3)"),
    ("P(2)", "P(2)"),
    ("P(1)", "P(1)", "P(2)"),
    ("blowup_point(P(2), count=1)", "blowup_point(P(2), count=2)"),
])
def test_products_match_dense_builder(recipes):
    factors = [model_from_recipe(r) for r in recipes]
    assert make_product(factors).form.entries == dense_product_entries(factors)


@pytest.mark.parametrize("ambient_recipe, cls", [
    ("P(4)", "3*H"),
    ("prod(P(1),P(1),P(2))", "H1+H2+2*H3"),
    ("prod(blowup_point(P(2), count=1), P(2))", "H1+2*H2"),
    ("prod(P(1),P(1),P(1),P(1))", "H1+H2+H3+H4"),
    ("bundle(prod(P(1),P(1)), summands=[0, -H1-H2, -H1-H2])", "2*zeta+3*H1+3*H2"),
    ("prod(P(2),P(2))", "H1-1/2*H2+H2*3"),
])
def test_divisors_in_match_dense_builder(ambient_recipe, cls):
    ambient = model_from_recipe(ambient_recipe)
    h = ambient.divisor(cls)
    assert make_divisor_in(ambient, h).form.entries == dense_divisor_entries(ambient, h)


@pytest.mark.parametrize("base_recipe, summands", [
    ("P(1)", ("0", "0")),
    ("P(1)", ("0", "-2*H")),  # top power 0 at shift 0, so the shift is 1
    ("P(1)", ("0", "-3*H")),
    ("P(2)", ("0", "H")),
    ("P(2)", ("H", "2*H")),
    ("P(2)", ("0", "-H", "3*H")),
    ("prod(P(1),P(1))", ("0", "H1+H2")),
    ("prod(P(1),P(1))", ("0", "-H1-H2", "-H1-H2")),
    ("blowup_point(P(2), count=2)", ("0", "H-E1")),
    ("P(3)", ("H", "-2*H")),
    ("blowup_point(P(3), count=2)", ("H-E1", "2*H-E2")),
    ("prod(P(1), blowup_point(P(2), count=2))", ("0", "H2-E1")),
    ("blowup_point(P(2), count=4)", ("0", "H-E1", "2*H-E2-E3")),
])
def test_bundles_match_dense_builder(base_recipe, summands):
    base = model_from_recipe(base_recipe)
    classes = [base.divisor(s) for s in summands]
    expected = dense_bundle_entries(base, classes)
    model = make_projective_bundle(base, classes)
    assert model.form.entries == expected
    shift = dense_bundle_shift(base, classes, expected)
    assert list(model.ample_ref.coeffs) == [(1 + shift) * c for c in base.ample_ref.coeffs] + [1]


# (recipe, classes known to be pencils there); random multiples of them give
# the True cases, random integral classes mostly the False ones
@pytest.mark.parametrize("recipe, pencils", [
    ("blowup_point(P(3), count=3)", ()),
    (RECIPE_4_9, ("H-E1",)),
    ("prod(P(1), blowup_point(P(2), count=3))", ("H1", "H2-E1", "H2-E3")),
])
def test_pencil_check_matches_dense_loop(recipe, pencils):
    model = model_from_recipe(recipe)
    m = len(model.basis)
    units = [[Fraction(int(j == i)) for j in range(m)] for i in range(m)]
    rng = random.Random(recipe)
    candidates = [[Fraction(rng.randint(-2, 2)) for _ in range(m)] for _ in range(30)]
    candidates += [[rng.randint(1, 3) * c for c in model.divisor(p).coeffs] for p in pencils]
    seen = set()
    for vec in candidates:
        square_is_zero = all(
            dense_contract(model.form, m, [vec, vec, b]) == 0 for b in units
        )
        nonzero = any(
            dense_contract(model.form, m, [vec, b, c]) != 0 for b in units for c in units
        )
        expected = square_is_zero and nonzero
        assert pencil_check(model, DivisorClass(model, tuple(vec))) is expected
        seen.add(expected)
    assert seen == ({True, False} if pencils else {False})


def test_bundle_without_positive_reference_class():
    base = P(1)
    classes = [base.zero(), base.divisor("-200*H")]
    assert dense_bundle_shift(base, classes, dense_bundle_entries(base, classes)) is None
    with pytest.raises(GeometryError, match="positive reference class"):
        make_projective_bundle(base, classes)
