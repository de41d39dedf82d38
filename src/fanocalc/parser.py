"""Parsers for divisor-class expressions, variety recipes and family ids.

Two small grammars live here.  Class expressions are arithmetic over basis
symbols::

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | [number] primary ('^' uint)? | number ('^' uint)?
    primary:= symbol | '(' expr ')'
    number := uint | uint '/' uint

A numeric coefficient directly in front of a symbol or group is accepted as a
scalar multiple (``2L``, ``9L^3``); general juxtaposition is not
multiplication.  The unicode minus sign is accepted as ``-``.

Recipes are nested constructor calls, e.g.
``blowup_point(P(3), count=1)`` or
``bundle(prod(P(1),P(1)), summands=[0, -H1-H2, -H1-H2])``; a row of
``_SIGNATURES`` lists each parameter of a constructor with its keyword, the
description of what it takes and its binder, and ``prod`` binds every
positional argument.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice
from typing import NamedTuple, Union

from .errors import ParseError

# --------------------------------------------------------------------------
# class-expression AST
# --------------------------------------------------------------------------


class _Value:
    """An immutable value whose fields are its ``__slots__``, given in order to
    ``__init__`` unless the subclass defines its own; such an ``__init__`` checks its
    arguments and sets the fields through ``_fill``.  Two values are equal, and hash
    alike, when of one type with equal fields: ``Add(a, b) != Sub(a, b)``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # compiled once per class, as collections.namedtuple compiles its __new__: a loop
        # over the fields is twice as slow, and each slot's descriptor skips a lookup by name
        body = "".join(f"\n _set_{n}(self, {n})" for n in cls.__slots__)
        scope = {f"_set_{n}": vars(cls)[n].__set__ for n in cls.__slots__}
        exec(f"def _fill(self, {', '.join(cls.__slots__)}):{body}", scope)
        cls._fill = scope["_fill"]
        if "__init__" not in vars(cls):
            cls.__init__ = cls._fill

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._values() == other._values()

    def __hash__(self) -> int:
        return hash((type(self), self._values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"


class Sym(_Value):
    __slots__ = ("name",)


class Num(_Value):
    __slots__ = ("value",)  # an int, else a Fraction; >= 0, negatives appear as Neg(Num(...))


class Neg(_Value):
    __slots__ = ("arg",)


class Add(_Value):
    __slots__ = ("left", "right")


class Sub(_Value):
    __slots__ = ("left", "right")


class Mul(_Value):
    __slots__ = ("left", "right")


class Pow(_Value):
    __slots__ = ("base", "exp")  # exp is an int


ClassExpr = Union[Sym, Num, Neg, Add, Sub, Mul, Pow]


# --------------------------------------------------------------------------
# binding and pretty printer (structural round-trip with parse_class_expr)
# --------------------------------------------------------------------------

# How tightly the nodes bind, loosest first, each with the operator it prints: the binary
# operators level by level, then prefix minus, the power and the atoms.  The parser's sum
# loop reads the loosest level's operator -> node map.
_LEVELS = ({Add: "+", Sub: "-"}, {Mul: "*"}, {Neg: "-"}, {Pow: "^"}, {Sym: "", Num: ""})
_BINDING = {node: (level, op) for level, ops in enumerate(_LEVELS) for node, op in ops.items()}
_SUM_OPS = {op: node for node, op in _LEVELS[0].items()}


def pretty_print(expr: ClassExpr) -> str:
    """Text that parses back to ``expr``, with only the parentheses its binding needs."""
    try:
        level, op = _BINDING[type(expr)]
    except KeyError:
        raise TypeError(f"not a class expression: {expr!r}") from None
    if not op:
        return str(expr._values()[0])  # a symbol's name or a number's value
    if type(expr) is Neg:
        return op + _operand(expr.arg, level)
    if type(expr) is Pow:  # the base is an atom or a group: "H^2^3" does not parse
        return f"{_operand(expr.base, level + 1)}{op}{expr.exp}"
    # the binary operators fold to the left, so the right operand binds one level tighter
    return _operand(expr.left, level) + op + _operand(expr.right, level + 1)


def _operand(expr: ClassExpr, needs: int) -> str:
    """``expr`` printed in a slot that needs binding level ``needs``, grouped if looser."""
    text = pretty_print(expr)
    return f"({text})" if _BINDING[type(expr)][0] < needs else text


# --------------------------------------------------------------------------
# tokenizer (shared by both grammars)
# --------------------------------------------------------------------------

# Longest class expression or recipe accepted, in tokens (three general classes on Bl_20 P^3
# take 386).  The rules loop over terms and factors, recursing only into a prefix minus (one
# frame) or a group (three for its two tokens).  Hash, pretty_print and ring.evaluate walk 399
# nested minus signs within the default recursion limit of 1000; repr and ==, which no command
# calls, overflow past 247 and 331 (Python 3.11).
MAX_TOKENS = 400

_OPS = "-+*^/()[]{}=,:−"  # the Unicode minus is read as "-"
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_TAKES_NUMBER = _NAME_START | frozenset("/^(")  # starts of a token that an integer binds to

# every non-space character starts a match: an int, a name, an op or, last, a bad one
_TOKEN_RE = re.compile(rf"\d+|[A-Za-z][A-Za-z0-9_]*|[{re.escape(_OPS)}]|\S")


def _scan(text: str) -> list[str]:
    """The texts of the first MAX_TOKENS + 1 tokens of ``text``, then "" for its end, from
    one regex call and without positions.  The rules read a token's kind from its text as
    _TOKEN_RE's alternatives define it: an int is ``str.isdecimal``, as ``\\d`` is, a name
    starts in _NAME_START, an op is its text, and no rule takes a bad token."""
    text = text.replace("−", "-")
    if len(text) > MAX_TOKENS + 1:  # room for more tokens than that: stop the scan there
        return [*map(re.Match.group, islice(_TOKEN_RE.finditer(text), MAX_TOKENS + 1)), ""]
    toks = _TOKEN_RE.findall(text)
    toks.append("")
    return toks


def _parse(text: str, rule, what: str):
    """``rule``'s tree for all of ``text``.  The rules below take the token texts and
    the index of their first token and return a tree and the index after it; their
    ParseErrors carry a token index, made a byte offset here by one bounded regex pass."""
    toks = _scan(text)
    try:
        if len(toks) > MAX_TOKENS + 1:
            raise ParseError(f"input is longer than {MAX_TOKENS} tokens", MAX_TOKENS)
        tree, i = rule(toks, 0)
        if toks[i]:
            raise ParseError(f"expected end of {what}", i)
    except ParseError as exc:
        # a bad token, read from the scan's texts, is reported before any other error
        bad = [i for i, tok in enumerate(toks[:-1])
               if not (tok.isdecimal() or tok[0] in _NAME_START or tok in _OPS)]
        if bad:
            exc = ParseError(f"unexpected character {toks[bad[0]]!r}", bad[0])
        starts = [*map(re.Match.start, islice(_TOKEN_RE.finditer(text), len(toks) - 1)), len(text)]
        raise _in_bytes(ParseError(exc.message, starts[exc.offset]), text) from None
    return tree


def _expect(toks: list[str], i: int, op: str, what: str) -> int:
    if toks[i] != op:
        raise ParseError(what, i)
    return i + 1


# --------------------------------------------------------------------------
# class-expression parser
# --------------------------------------------------------------------------


def _in_bytes(exc: ParseError, text: str) -> ParseError:
    """``exc`` with its code-point offset into ``text`` counted in UTF-8 bytes."""
    return ParseError(exc.message, len(text[: exc.offset].encode("utf-8", "surrogatepass")))


def parse_class_expr(text: str) -> ClassExpr:
    return _parse(text, _parse_expr, "expression")


def _parse_expr(toks: list[str], i: int) -> tuple[ClassExpr, int]:
    """A sum of terms, each a product of factors, in one loop per level.  A name with no "^"
    after it, or an integer that binds to nothing after it, is a factor read here."""
    node = make = None
    while True:
        term = None
        while True:
            tok = toks[i]  # a name or an integer is never the last token, "" is
            if tok[:1] in _NAME_START and toks[i + 1] != "^":
                factor, i = Sym(tok), i + 1
            elif tok.isdecimal() and toks[i + 1][:1] not in _TAKES_NUMBER:
                factor, i = Num(_int_literal(tok, i)), i + 1
            else:
                factor, i = _parse_factor(toks, i)
            term = factor if term is None else Mul(term, factor)
            if toks[i] != "*":
                break
            i += 1
        node = term if make is None else make(node, term)
        if (make := _SUM_OPS.get(toks[i])) is None:
            return node, i
        i += 1


def _int_literal(text: str, offset: int) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts (4300 by default)
        raise ParseError("integer literal is too long", offset) from None


def _parse_uint(toks: list[str], i: int, what: str) -> tuple[int, int]:
    if not toks[i].isdecimal():
        raise ParseError(what, i)
    return _int_literal(toks[i], i), i + 1


def _parse_number(toks: list[str], i: int) -> tuple[Num, int]:
    p = _int_literal(toks[i], i)  # the caller saw a decimal token
    if toks[i + 1] != "/":
        return Num(p), i + 1
    q, i = _parse_uint(toks, i + 2, "expected denominator")
    if q == 0:
        raise ParseError("zero denominator", i - 1)
    return Num(p // q if p % q == 0 else Fraction(p, q)), i


def _parse_primary_pow(toks: list[str], i: int) -> tuple[ClassExpr, int]:
    if toks[i] == "(":
        node, i = _parse_expr(toks, i + 1)
        i = _expect(toks, i, ")", "expected ')'")
    else:  # a name: both callers check for a name or "(" first
        node, i = Sym(toks[i]), i + 1
    if toks[i] == "^":
        exp, i = _parse_uint(toks, i + 1, "expected integer exponent")
        node = Pow(node, exp)
    return node, i


def _parse_factor(toks: list[str], i: int) -> tuple[ClassExpr, int]:
    tok = toks[i]
    if tok == "-":
        node, i = _parse_factor(toks, i + 1)
        return Neg(node), i
    if tok.isdecimal():
        num, i = _parse_number(toks, i)
        tok = toks[i]
        # coefficient-juxtaposition: "2L", "9L^3", "3(H+E)"  -- scalar times factor
        if tok == "(" or tok[:1] in _NAME_START:
            node, i = _parse_primary_pow(toks, i)
            return Mul(num, node), i
        if tok == "^":
            exp, i = _parse_uint(toks, i + 1, "expected integer exponent")
            return Pow(num, exp), i
        return num, i
    if tok == "(" or tok[:1] in _NAME_START:
        return _parse_primary_pow(toks, i)
    raise ParseError("expected atom", i)


# --------------------------------------------------------------------------
# family identifiers
# --------------------------------------------------------------------------


class FamilyId(NamedTuple):
    rho: int
    number: int

    def __str__(self) -> str:
        return f"{self.rho}.{self.number}"


_FAMILY_RE = re.compile(r"\s*(\d+)\.(\d+)\s*$")


def parse_family_id(text: str) -> FamilyId:
    try:
        m = _FAMILY_RE.fullmatch(text)
        if m is None:
            raise ParseError("expected family identifier of the form rho.N", 0)
        rho, n = _int_literal(m.group(1), m.start(1)), _int_literal(m.group(2), m.start(2))
        if not 1 <= rho <= 10:
            raise ParseError("Picard rank must be between 1 and 10", m.start(1))
        if n < 1:
            raise ParseError("family number must be positive", m.start(2))
    except ParseError as exc:
        raise _in_bytes(exc, text) from None
    return FamilyId(rho, n)


# --------------------------------------------------------------------------
# recipe grammar
# --------------------------------------------------------------------------


class Call(_Value):
    """A recipe constructor ``name`` applied to ``args``, in signature order.

    Each argument is a nested Call, an int, a class expression, a tuple of
    class expressions or a tuple of (basis name, int) degree pairs; the
    arguments of ``prod`` are its factors.
    """

    __slots__ = ("name", "args")


def _as_int(value) -> int | None:
    """An integral number or its negation, read by type: the parser stores an integral
    literal or quotient as an int, any other number as a Fraction."""
    sign = 1
    if type(value) is Neg:
        value, sign = value.arg, -1
    if type(value) is Num and type(value.value) is int:
        return sign * value.value
    return None


# what a parameter takes and its binder, which returns the bound form or None for a value
# of another kind
_RECIPE = ("a recipe", lambda v: v if type(v) is Call else None)
_INT = ("an integer", _as_int)
_CLASS = ("a class expression", lambda v: v if isinstance(v, ClassExpr.__args__) else None)
_CLASSES = ("a [class, ...] list", lambda v: tuple(v) if type(v) is list else None)
_DEGREES = ("a {name: int, ...} mapping", lambda v: v if type(v) is tuple else None)

# constructor -> one row per parameter: its keyword (None if positional), what it takes and
# its binder.  prod, the one variadic constructor, binds its parameter once per positional
# argument.  Ranges (dimensions, counts, genus, factor and summand numbers) are checked by
# the ring constructors, not here.
_SIGNATURES = {
    "P": ((None, *_INT),),
    "dp3": ((None, *_INT),),
    "prod": ((None, *_RECIPE),),
    "bundle": ((None, *_RECIPE), ("summands", *_CLASSES)),
    "blowup_point": ((None, *_RECIPE), ("count", *_INT)),
    "blowup_curve": ((None, *_RECIPE), ("genus", *_INT), ("degrees", *_DEGREES)),
    "double_cover": ((None, *_RECIPE), ("half_branch", *_CLASS)),
    "divisor_in": ((None, *_RECIPE), (None, *_CLASS)),
}


def parse_recipe(text: str) -> Call:
    return _parse(text, _parse_recipe_call, "recipe")


def _parse_items(toks: list[str], i: int, close: str, parse_item) -> tuple[list, int]:
    """Comma-separated items up to the closing bracket ``close``."""
    items = []
    if toks[i] != close:
        item, i = parse_item(toks, i)
        items.append(item)
        while toks[i] == ",":
            item, i = parse_item(toks, i + 1)
            items.append(item)
    return items, _expect(toks, i, close, f"expected {close!r} or ','")


def _parse_recipe_call(toks: list[str], i: int) -> tuple[Call, int]:
    if toks[i] not in _SIGNATURES:
        raise ParseError("expected a recipe constructor", i)
    items, end = _parse_items(toks, _expect(toks, i + 1, "(", "expected '('"), ")", _parse_argument)
    return _bind(toks[i], i, items), end


def _parse_argument(toks: list[str], i: int) -> tuple[tuple[str | None, object], int]:
    key = None
    if toks[i][:1] in _NAME_START and toks[i + 1] == "=":
        key, i = toks[i], i + 2
    tok = toks[i]
    if tok in _SIGNATURES and toks[i + 1] == "(":
        value, i = _parse_recipe_call(toks, i)
    elif tok == "[":
        value, i = _parse_items(toks, i + 1, "]", _parse_expr)
    elif tok == "{":
        degrees, i = _parse_items(toks, i + 1, "}", _parse_degree)
        value = tuple(degrees)
    else:
        value, i = _parse_expr(toks, i)
    return (key, value), i


def _parse_degree(toks: list[str], i: int) -> tuple[tuple[str, int], int]:
    name = toks[i]
    if name[:1] not in _NAME_START:
        raise ParseError("expected basis symbol", i)
    i = _expect(toks, i + 1, ":", "expected ':'")
    sign = 1
    if toks[i] == "-":
        sign, i = -1, i + 1
    degree, i = _parse_uint(toks, i, "expected integer")
    return (name, sign * degree), i


def _bind(name: str, at: int, items: list[tuple[str | None, object]]) -> Call:
    """The Call for a constructor's arguments, checked against its signature; an error is
    raised at token index ``at``, the constructor's name.  No argument value is None."""
    positional, keywords = [], {}
    for key, value in items:
        if key is None:
            positional.append(value)
        elif key in keywords:
            raise ParseError(f"{name}: argument {key!r} given twice", at)
        else:
            keywords[key] = value
    params = _SIGNATURES[name]
    for key in keywords:  # a mistyped keyword is named before the parameter it misses
        if key not in [k for k, _, _ in params]:
            raise ParseError(f"{name}: unexpected argument {key!r}", at)
    if name == "prod":  # its one parameter, once per positional argument
        params *= len(positional)
    args, rest = [], iter(positional)
    for key, what, bind in params:
        value = next(rest, None) if key is None else keywords.pop(key, None)
        if value is None:
            missing = f"argument {key!r}" if key else what
            raise ParseError(f"{name}: missing {missing}", at)
        bound = bind(value)
        if bound is None:
            raise ParseError(f"{name}: {key or 'argument'} must be {what}", at)
        args.append(bound)
    if next(rest, None) is not None:
        raise ParseError(f"{name}: too many positional arguments", at)
    return Call(name, tuple(args))
