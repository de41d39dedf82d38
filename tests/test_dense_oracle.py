"""The sparse kernel and constructors against the dense computations they replaced.

``dense_contract`` visits every index tuple of the basis, m^n of them, and
the ``dense_*_entries`` reference builders derive each form entry from
every sorted index tuple, as the constructors in ``fanocalc.ring`` did
before they were made to touch only stored entries.  Nothing here shares
code with the engine: ``form_value`` reads ``IntersectionForm.entries`` directly.
"""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from fanocalc import catalog, ring
from fanocalc.classify import Splitting, classify_splitting, pencil_check
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


def form_value(form, indices):
    """The form's entry at ``indices``, in any order; unlisted entries are zero."""
    return Fraction(form.entries.get(tuple(sorted(indices)), 0))


def dense_contract(form, m, vectors):
    total = Fraction(0)
    for indices in itertools.product(range(m), repeat=form.dimension):
        coeff = Fraction(1)
        for vec, i in zip(vectors, indices):
            coeff *= vec[i]
            if coeff == 0:
                break
        if coeff != 0:
            total += coeff * form_value(form, indices)
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
            entries[tup] = form_value(ambient.form, rest)
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
            value *= form_value(f.form, sub)
        entries[tup] = value
    return _nonzero(entries)


def dense_divisor_entries(ambient, h):
    m = len(ambient.basis)
    entries = {}
    for tup in itertools.combinations_with_replacement(range(m), 3):
        entries[tup] = sum(
            (h.coeffs[i] * form_value(ambient.form, tup + (i,)) for i in range(m)), Fraction(0)
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
                total += coeff * form_value(base.form, indices)
        return total

    entries = {}
    for tup in itertools.combinations_with_replacement(range(m + 1), n):
        mono = tuple(tup.count(i) for i in range(m))
        entries[tup] = reduce_value(tup.count(m), mono)
    return _nonzero(entries)


def dense_bundle_shift(base, summands, entries):
    """First t of 1, 2, 4, ... for which (tA + zeta)^n > 0 on the dense loop, A the base's
    reference class; there is one, since the polynomial in t is led by C(n, b) * A^b > 0."""
    n = base.dimension + len(summands) - 1
    form = ring.IntersectionForm(n, entries)
    t = 1
    while True:
        ample = [t * c for c in base.ample_ref.coeffs] + [Fraction(1)]
        if dense_contract(form, len(ample), [ample] * n) > 0:
            return t
        t *= 2


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
    """Coefficients in [-3, 3] over 1 or 2, at least one of them not an integer."""
    vec = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(m)]
    if all(c.denominator == 1 for c in vec):
        vec[rng.randrange(m)] = Fraction(rng.choice((-3, -1, 1, 3)), 2)
    return vec


def test_random_vectors_hold_a_fraction():
    rng = random.Random("fraction")
    for m in range(1, 6):
        for _ in range(200):
            assert any(c.denominator != 1 for c in _random_vector(m, rng))


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
        named = {f"C{i}": c for i, c in enumerate(classes)}
        assert ring.evaluate(model, "*".join(named), named) == expected
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


def test_contracting_no_factors_copies_the_entries():
    entries = model_from_recipe(RECIPE_4_9).form.entries
    rest = ring._contract(entries, [])
    assert rest == entries and rest is not entries


class _ModuleSpy:
    """Stands in for one of ring's modules and records which of its functions are taken."""

    def __init__(self, module, taken):
        self.module, self.taken = module, taken

    def __getattr__(self, name):
        self.taken.add(f"{self.module.__name__}.{name}")
        return getattr(self.module, name)


def _spy_on_walks(monkeypatch):
    """The set of itertools and math functions that ring takes from now on."""
    taken = set()
    for module in (itertools, math):
        monkeypatch.setattr(ring, module.__name__, _ModuleSpy(module, taken))
    return taken


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


# every full contraction prices the product walk with math.prod; then the product
# walk takes itertools.product, the power walk math.factorial and the one-slot walk
# nothing more.  The text's factors are split at the *s outside parentheses, and a
# single factor stands for its n-th power, one class object in every slot
WALK_TAKES = {
    "product": {"math.prod", "itertools.product"},
    "power": {"math.prod", "math.factorial"},
    "one-slot": {"math.prod"},
}


@pytest.mark.parametrize("recipe, text, walk", [
    ("blowup_point(P(3), count=3)", "E1*E1*E1", "product"),
    ("blowup_point(P(3), count=3)", "H*H*E2", "product"),
    ("blowup_point(P(3), count=12)", "-K", "power"),
    ("prod(P(1),P(1),P(1),P(1))", "-K", "power"),
    # one vector object in every slot: the power walk, unless the product walk's tuples
    # cost fewer steps than the stored keys (8 tuples against 4 keys; 1 against 13)
    ("blowup_point(P(3), count=3)", "(1/2*E1+1/3*E2)", "power"),
    ("blowup_point(P(3), count=12)", "E1", "product"),
    ("blowup_point(P(3), count=12)", "-K/4*-K/3*-K", "one-slot"),
    (half_section, "(1/3*H)*H*(1/2*H)", "product"),
    (half_section_blown_up, "-K/3*-K*-K", "one-slot"),
    (half_section_blown_up, "-K/3", "power"),
])
def test_both_walks_match_dense_loop(monkeypatch, recipe, text, walk):
    """Each case takes its labelled walk through both entry points, intersection_number
    and evaluate, and both agree with the dense loop."""
    model = recipe() if callable(recipe) else model_from_recipe(recipe)
    classes = [_factor(model, t) for t in re.split(r"\*(?![^(]*\))", text)]
    texts = [_class_text(c.coeffs, model.basis) for c in classes]
    power = len(classes) == 1
    if power:
        classes *= model.dimension
    expected = dense_intersection_number(model, classes)
    taken = _spy_on_walks(monkeypatch)
    assert intersection_number(model, classes) == expected
    assert taken == WALK_TAKES[walk]
    taken.clear()
    assert model.evaluate(f"{texts[0]}^{model.dimension}" if power else "*".join(texts)) == expected
    assert taken == WALK_TAKES[walk]


@pytest.mark.parametrize("recipe", _CROSS_CHECK + [half_section, half_section_blown_up],
                         ids=lambda r: r if isinstance(r, str) else r.__name__)
def test_powers_match_dense_loop(recipe):
    """n-th powers of classes with zero, negative and fractional coefficients."""
    model = recipe() if callable(recipe) else model_from_recipe(recipe)
    n, m = model.dimension, len(model.basis)
    rng = random.Random(f"power {recipe if isinstance(recipe, str) else recipe.__name__}")
    for trial in range(12):
        vec = _random_vector(m, rng)
        vec[trial % m] = (Fraction(0), Fraction(-2), Fraction(-3, 2), Fraction(5, 2))[trial % 4]
        cls = DivisorClass(model, tuple(vec))
        expected = dense_intersection_number(model, [cls] * n)
        assert intersection_number(model, [cls] * n) == expected
        assert model.evaluate(f"{_class_text(vec, model.basis)}^{n}") == expected
        assert ring.evaluate(model, f"C^{n}", {"C": cls}) == expected


def test_sparse_power_on_a_large_model_takes_the_product_walk(monkeypatch):
    model = model_from_recipe("prod(blowup_point(P(2),count=62), blowup_point(P(2),count=62))")
    h1, h = model.divisor("H1"), model.divisor("H1+H2")
    taken = _spy_on_walks(monkeypatch)
    assert intersection_number(model, [h1] * 4) == 0 == model.evaluate("H1^4")
    assert intersection_number(model, [h] * 4) == 6 == model.evaluate("(H1+H2)^4")
    assert taken == WALK_TAKES["product"]


_SUM_COEFFICIENTS = (1, 1, 2, 3, 0, Fraction(1, 2), Fraction(7, 3))


def _random_sum(model, rng):
    """A signed sum of basis symbols, aliases and c*symbol terms, some repeated with the
    opposite sign, and one 3*(x-y) among them, as text, with its class added up term by term."""
    symbols = list(model.basis) + sorted(model.aliases)
    vec = [Fraction(0)] * len(model.basis)
    pieces = []
    for _ in range(rng.randint(2, 10)):
        c, s = rng.choice(_SUM_COEFFICIENTS) * rng.choice((1, -1)), rng.choice(symbols)
        for c in (c, -c) if rng.random() < 0.2 else (c,):
            vec[model.basis_index(s)] += c
            pieces.append(f"{'-' if c < 0 else '+'}{s if abs(c) == 1 else f'{abs(c)}*{s}'}")
    x, y = rng.choice(symbols), rng.choice(symbols)
    vec[model.basis_index(x)] += 3
    vec[model.basis_index(y)] -= 3
    pieces.insert(rng.randint(0, len(pieces)), f"+3*({x}-{y})")
    return "".join(pieces).lstrip("+"), DivisorClass(model, vec)


@pytest.mark.parametrize("recipe", _CROSS_CHECK + [half_section, half_section_blown_up],
                         ids=lambda r: r if isinstance(r, str) else r.__name__)
def test_linear_sums_match_dense_loop(recipe):
    """Sums whose symbol terms the walk adds straight into one vector: as classes, as n-th
    powers, as products, and beside a non-linear term and linear terms that cancel."""
    model = recipe() if callable(recipe) else model_from_recipe(recipe)
    n = model.dimension
    rng = random.Random(f"sum {recipe if isinstance(recipe, str) else recipe.__name__}")
    a, b = model.basis[0], model.basis[-1]
    mixed = dense_intersection_number(model, [model.divisor(a)] * (n - 1) + [model.divisor(b)])
    for _ in range(4):
        texts, classes = zip(*(_random_sum(model, rng) for _ in range(n)))
        for text, cls in zip(texts, classes):
            assert model.divisor(text) == cls, text
        power = dense_intersection_number(model, [classes[0]] * n)
        assert model.evaluate(f"({texts[0]})^{n}") == power
        product = "*".join(f"({t})" for t in texts)
        assert model.evaluate(product) == dense_intersection_number(model, list(classes))
        assert model.evaluate(f"2*{a}+({texts[0]})^{n}-{a}^{n - 1}*{b}-2*{a}") == power - mixed


def _dense_cube(model, text):
    c = model.divisor(text)
    return dense_intersection_number(model, [c] * 3)


def test_signed_sums_match_dense_loop():
    """A sum walked as one loop keeps the sign of each Sub's right-hand terms."""
    model = blowup_points(P(3), 2)
    h, e1 = model.divisor("H"), model.divisor("E1")
    expected = (dense_intersection_number(model, [h] * 3)
                - dense_intersection_number(model, [e1] * 3)
                - dense_intersection_number(model, [h - e1, e1, e1]))
    assert model.evaluate("H^3-E1^3-(H-E1)*E1*E1") == expected
    assert model.evaluate("-(H-E1-E2)^3+H^3") == -_dense_cube(model, "H-E1-E2") + _dense_cube(model, "H")


def test_alternating_sum_cubed_matches_closed_form():
    """(aH + sum c_i E_i)^3 = a^3 + sum c_i^3 on Bl_20 P^3, where E_i^3 = 1."""
    model = blowup_points(P(3), 20)
    coeffs = [(-1) ** i * (i % 4 + 1) for i in range(1, 20)]  # 19 signed E_i, after H
    text = "3*H" + "".join(f"{'+' if c > 0 else '-'}{abs(c)}*E{i}" for i, c in enumerate(coeffs, 1))
    assert text.count("+") + text.count("-") == 19
    expected = 27 + sum(c ** 3 for c in coeffs)
    assert model.evaluate(f"({text})^3") == expected == _dense_cube(model, text)


# ---------------------------------------------------------------------------
# constructors against the reference builders


def test_point_blowups_match_dense_builder():
    for recipe, count in (("P(3)", 20), ("P(2)", 8), ("divisor_in(P(4), 2*H)", 3)):
        model = model_from_recipe(recipe)
        for _ in range(count):
            expected = dense_blowup_entries(model)
            model = blowup_points(model, 1)
            assert model.form.entries == expected


def _fields(model):
    return (model.name, model.basis, model.aliases, model.anticanonical.coeffs,
            model.ample_ref.coeffs, model.form.entries)


@pytest.mark.parametrize("recipe, count", [
    ("P(3)", 20),
    ("P(2)", 8),
    ("divisor_in(P(4), 2*H)", 3),
    ("blowup_curve(P(3), genus=0, degrees={H:1})", 1),
    ("blowup_curve(P(3), genus=0, degrees={H:1})", 4),
    ("blowup_point(P(3), count=2)", 3),
    ("prod(P(1), blowup_point(P(2), count=3))", 5),
])
def test_one_shot_point_blowups_match_chained_ones(recipe, count):
    """blowup_points(Y, k) builds, field for field, the model of k single blow-ups."""
    ambient = model_from_recipe(recipe)
    chained = ambient
    for k in range(1, count + 1):
        expected = dense_blowup_entries(chained)
        chained = blowup_points(chained, 1)
        assert chained.form.entries == expected
        assert _fields(blowup_points(ambient, k)) == _fields(chained)
    assert chained.name == "Bl(" * count + ambient.name + ")" * count


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
    ("P(1)", ("0", "-2*H")),  # top power 0 at t = 1, so t is 2
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
    ("P(1)", ("0", "-5*H")),  # the least t that works is 3, and doubling gives 4
])
def test_bundles_match_dense_builder(base_recipe, summands):
    base = model_from_recipe(base_recipe)
    classes = [base.divisor(s) for s in summands]
    expected = dense_bundle_entries(base, classes)
    model = make_projective_bundle(base, classes)
    assert model.form.entries == expected
    t = dense_bundle_shift(base, classes, expected)
    assert list(model.ample_ref.coeffs) == [t * c for c in base.ample_ref.coeffs] + [1]


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


def test_pencil_check_walks_the_form_once(monkeypatch):
    """One contraction of the stored form with D, then one of that rest with D."""
    model = model_from_recipe(RECIPE_4_9)
    contract, calls = ring._contract, []

    def spy(entries, factors):
        rest = contract(entries, factors)
        calls.append((entries, len(factors), rest))
        return rest

    monkeypatch.setattr(ring, "_contract", spy)
    assert pencil_check(model, model.divisor("H-E1"))
    assert len(calls) == 2
    (first, k1, rest), (second, k2, _) = calls
    assert first is model.form.entries and k1 == 1
    assert second is rest and k2 == 1


def test_fiber_degree_is_read_from_the_pencil_tests():
    """The classifier's fiber degree equals (-K_Y - L)^2.L on Y and the dense
    D_other^2.D_pencil on X, with the pencil as either part of the splitting."""
    checked = 0
    for fid, recipe in catalog.recipes().items():
        if recipe.pencil is None:
            continue
        real = catalog.realize_recipe(fid)
        names = {"A": real.middle.anticanonical, "P": real.pencil}
        expected = ring.evaluate(real.middle, "(A-P)^2*P", names)
        assert dense_intersection_number(real.model, [real.d2, real.d2, real.d1]) == expected
        for split, side in ((Splitting(real.d1, real.d2), "first"),
                            (Splitting(real.d2, real.d1), "second")):
            assert classify_splitting(split)[:2] == (side, expected)
        checked += 1
    assert checked >= 12


def test_bundle_with_a_large_twist_builds():
    """F_200: zeta + t*H is positive from t = 101, and doubling stops at 128."""
    base = P(1)
    classes = [base.divisor("0"), base.divisor("-200*H")]
    model = make_projective_bundle(base, classes)
    assert dense_bundle_shift(base, classes, dense_bundle_entries(base, classes)) == 128
    assert model.ample_ref.coeffs == (128, 1)
    assert model.evaluate("zeta^2") == -200
