"""Replays recorded parses and compares them byte for byte.

``tests/data/parse_golden.txt`` holds one JSON line per (parser, text): the
parser's name, the text, and either the tree's ``repr`` or the
``ParseError``'s message and UTF-8 byte offset.  Every text goes through
``parse_class_expr``, ``parse_recipe`` and ``parse_family_id``.  The texts are
seeded random class expressions, recipes and family ids, some well formed,
some token soup and some with one character changed, plus hand-written cases:
the Unicode minus, tabs and newlines, a ``_`` that starts a token, non-ASCII
decimal digits, 400 and 401 tokens, unbalanced brackets, zero denominators,
over-long integer literals and each argument error of a recipe constructor.
After a deliberate change of output, write the file again by running this
module as a script::

    PYTHONPATH=src python tests/test_parse_golden.py > tests/data/parse_golden.txt
"""

import json
import random
import sys
from pathlib import Path

from fanocalc.errors import ParseError
from fanocalc.parser import parse_class_expr, parse_family_id, parse_recipe

GOLDEN = Path(__file__).parent / "data" / "parse_golden.txt"

PARSERS = (parse_class_expr, parse_recipe, parse_family_id)

_SEPARATORS = ["", "", "", "", " ", "\t", "\n", "  "]
_NAMES = ["H", "L", "E", "E1", "E11", "H1", "H2", "zeta", "x_1"]
_SOUP = ["0", "1", "2", "10", "H", "E1", "zeta", "P", "prod", "count", " ", "\t", "−",
         "٣", "_", "@", "$", ".", "\xe9", "\xa0", *"+-*/^()[]{}=,:"]
_STRAY = ["@", "_", ".", "\xe9", "٣", "３", "\xb2", "−", " ", *"+-*/^()[]{}=,:09H"]


def _join(rng: random.Random, tokens: list[str]) -> str:
    """``tokens`` with random whitespace between them and some '-' written '−'."""
    out = []
    for tok in tokens:
        out += [rng.choice(_SEPARATORS), "−" if tok == "-" and rng.random() < 0.2 else tok]
    return "".join(out) + rng.choice(_SEPARATORS)


def _number(rng: random.Random) -> list[str]:
    p = str(rng.randint(0, 12))
    return [p, "/", str(rng.randint(0, 5))] if rng.random() < 0.2 else [p]


def _class_tokens(rng: random.Random, depth: int = 0) -> list[str]:
    """A well-formed class expression, as tokens."""
    r = rng.random()
    if depth >= 4 or r < 0.35:
        atom = [rng.choice(_NAMES)] if rng.random() < 0.6 else _number(rng)
        if atom[0][0].isalpha() and rng.random() < 0.3:  # a juxtaposed coefficient
            atom = _number(rng) + atom
        return atom + (["^", str(rng.randint(0, 4))] if rng.random() < 0.25 else [])
    if r < 0.45:
        return ["-", *_class_tokens(rng, depth + 1)]
    if r < 0.6:
        power = ["^", str(rng.randint(1, 4))] if rng.random() < 0.5 else []
        return ["(", *_class_tokens(rng, depth + 1), ")", *power]
    op = rng.choice("+-*")
    return [*_class_tokens(rng, depth + 1), op, *_class_tokens(rng, depth + 1)]


def _recipe_tokens(rng: random.Random, depth: int = 0) -> list[str]:
    """A recipe, well formed in its syntax; its arguments may not bind."""
    if depth >= 2 or rng.random() < 0.3:
        return [rng.choice(["P", "P", "dp3"]), "(", str(rng.randint(0, 5)), ")"]
    inner = _recipe_tokens(rng, depth + 1)
    name = rng.choice(["prod", "bundle", "blowup_point", "blowup_curve", "double_cover",
                       "divisor_in"])
    if name == "prod":
        args = [inner, *(_recipe_tokens(rng, depth + 1) for _ in range(rng.randint(1, 2)))]
    elif name == "bundle":
        summands = []
        for _ in range(rng.randint(1, 3)):
            summands += [*_class_tokens(rng, 2), ","]
        args = [inner, ["summands", "=", "[", *summands[:-1], "]"]]
    elif name == "blowup_point":
        args = [inner, ["count", "=", str(rng.randint(0, 12))]]
    elif name == "blowup_curve":
        degrees = []
        for sym in rng.sample(["H", "E", "H1", "H2"], rng.randint(1, 2)):
            degrees += [sym, ":", *(["-"] if rng.random() < 0.3 else []), str(rng.randint(0, 3)), ","]
        args = [inner, ["genus", "=", str(rng.randint(0, 2))], ["degrees", "=", "{", *degrees[:-1], "}"]]
    elif name == "double_cover":
        args = [inner, ["half_branch", "=", *_class_tokens(rng, 2)]]
    else:
        args = [inner, _class_tokens(rng, 2)]
    if rng.random() < 0.2:
        rng.shuffle(args)
    tokens = [name, "("]
    for arg in args:
        tokens += [*arg, ","]
    return tokens[:-1] + [")"]


def _family_text(rng: random.Random) -> str:
    rho, n = str(rng.randint(0, 12)), str(rng.randint(0, 40))
    if rng.random() < 0.1:
        rho = "0" + rho
    text = rng.choice([f"{rho}.{n}", f"{rho}.{n}", f"{rho}{n}", f"{rho}.{n}.1", f"{rho}.-{n}",
                       f"{rho} . {n}", f"rho{rho}.{n}"])
    return rng.choice(_SEPARATORS) + text + rng.choice(_SEPARATORS)


def _mutated(rng: random.Random, text: str) -> str:
    """``text`` with one character deleted, doubled or inserted."""
    i = rng.randrange(len(text) + 1)
    r = rng.random()
    if r < 0.3 and i < len(text):
        return text[:i] + text[i + 1:]
    if r < 0.5 and i < len(text):
        return text[:i] + text[i] + text[i:]
    return text[:i] + rng.choice(_STRAY) + text[i:]


def _seeded_texts() -> list[str]:
    rng = random.Random(24024)
    classes = [_join(rng, _class_tokens(rng)) for _ in range(120)]
    recipes = [_join(rng, _recipe_tokens(rng)) for _ in range(80)]
    soup = ["".join(rng.choices(_SOUP, k=rng.randint(1, 12))) for _ in range(80)]
    families = [_family_text(rng) for _ in range(40)]
    mutated = [_mutated(rng, rng.choice(classes + recipes)) for _ in range(100)]
    return classes + recipes + soup + families + mutated


def _bound_tokens(n: int) -> list[str]:
    """Texts of about ``n`` tokens: sums, a prefix minus chain, nested groups, a recipe."""
    sums = "+".join(["H"] * ((n + 1) // 2))  # n tokens when n is odd
    return [
        sums,
        "-" + "+".join(["H"] * (n // 2)),  # n tokens when n is even
        "-" * (n - 1) + "H",
        "(" * ((n - 1) // 2) + "H" + ")" * ((n - 1) // 2),
        "bundle(P(2), summands=[" + ",".join(["H"] * ((n - 11) // 2)) + "])",
        sums + " @",
        sums + ")",
        " ".join(["H"] * (n % 2 + 2)) + "+H" * ((n - 2) // 2),
        "@" + sums,
    ]


_CASES = [
    # the Unicode minus, tabs and newlines
    "H−E", "−H", "2*−H", "−−1", "H−", "−H+$",
    "divisor_in(P(4), −H+$)", "bundle(P(1), summands=[0, −3*H])",
    "H\t+\nE", "\tH^3\n", "\n", " \t ", "", "blowup_point(\n\tP(3),\n\tcount=2\n)",
    # a '_' inside a name, and one that starts a token
    "x_1+y_2", "_H", "H+_E", "1_", "E1_2*H", "H _", "P(_3)",
    # non-ASCII decimal digits: \d takes them, as int() does
    "P(٣)", "H^３", "٣*H", "E١", "٣.1", "3.١٠",
    "blowup_point(P(3), count=١١)", "H^\xb2", "Ⅲ*H",
    # other characters no token starts with
    "H @ E", "H+\ud800", "\xa03.0", "2.1\xa0", "H\u3000+E", "H\u200b+E",
    # unbalanced brackets
    "(H+E", "H+E)", "((H)", "(H))", "[H]", "{H}", "H^(2)", "()", "P(3", "P(3))",
    "prod(P(1),P(2)", "prod(P(1),P(2)))", "bundle(P(1), summands=[0, H)",
    "bundle(P(1), summands=[0, H]", "blowup_curve(P(3), genus=0, degrees={H:1)",
    "blowup_curve(P(3), genus=0, degrees={H:1", "divisor_in(P(4), (H)",
    # zero denominators, and fractions that reduce
    "1/0*H", "H^3*2/0", "0/0", "4/2*H", "6/4", "1/00", "3/0^2",
    # over-long integer literals (the interpreter converts 4300 digits)
    "H^" + "9" * 4300, "H^" + "9" * 4301, "9" * 5000 + "*H", "1/" + "9" * 5000 + "*H^3",
    "P(" + "9" * 5000 + ")", "9" * 5000 + ".1", " 1." + "9" * 5000, "9" * 5000 + " @",
    # each argument error of a recipe constructor
    "blowup_point(P(3), count=1, count=2)", "blowup_point(P(3))", "blowup_point(count=1)",
    "P()", "divisor_in(P(4))", "P(x)", "P(1/2)", "P(-2)", "P(--2)", "bundle(P(1), summands=H)",
    "blowup_curve(P(3), genus=0, degrees=H)", "double_cover(P(3), half_branch=[H])",
    "divisor_in(P(4), P(1))", "prod(P(1), 3)", "prod()", "blowup_point(3, count=1)",
    "P(1, 2)", "P(3, count=1)", "bundle(P(1), summands=[0,H], extra=1)",
    "blowup_curve(P(3), genus=0, genus=1, degrees={H:1})", "P(n=3)", "mystery(3)", "P",
    "P(3) P(3)", "prod(P(1), count=(P(2)))", "blowup_curve(P(3), genus=0, degrees={H:-1, 2:1})",
    # the grammar's other branches
    "2L", "9L^3", "3(H+E)", "2^3", "1/2^3", "H^2^3", "H^E", "H^-1", "2*^H", "H--E", "A-B-C",
    "H*", "*H", "H+", "H 2", "2 2", "(2L-E)^3", "3.2", "10.1", "4.13", "0.1", "11.1", "2.0",
    "2", "a.b", "2.-1", "2.1.3", " 2.1 ", "H = E", "H, E", "P:3",
]


def inputs() -> list[str]:
    return _seeded_texts() + _bound_tokens(400) + _bound_tokens(401) + _CASES


def record(parse, text: str) -> str:
    """The golden-file line of one parse."""
    try:
        tree = parse(text)  # under the default recursion limit
    except ParseError as exc:
        outcome = {"error": exc.message, "offset": exc.offset}
    else:
        # repr takes about four levels of the limit per node; a 400-token minus chain is 399 deep
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(4 * limit)
        try:
            outcome = {"tree": repr(tree)}
        finally:
            sys.setrecursionlimit(limit)
    return json.dumps({"parse": parse.__name__, "text": text, **outcome}) + "\n"


def records() -> list[tuple[object, str]]:
    return [(parse, text) for text in inputs() for parse in PARSERS]


def test_parses_match_golden_file():
    lines = GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True)
    expected = records()
    assert [(line["parse"], line["text"]) for line in map(json.loads, lines)] == [
        (parse.__name__, text) for parse, text in expected]
    for (parse, text), line in zip(expected, lines):
        assert record(parse, text) == line


if __name__ == "__main__":
    sys.stdout.buffer.write("".join(record(p, t) for p, t in records()).encode("utf-8"))
