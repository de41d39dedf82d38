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
``bundle(prod(P(1),P(1)), summands=[0, -H1-H2, -H1-H2])``; ``_SIGNATURES``
names each constructor's parameters and the kind of value each takes.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple, Union

from .errors import ParseError

# --------------------------------------------------------------------------
# class-expression AST
# --------------------------------------------------------------------------


class _Value:
    """An immutable value whose fields are its ``__slots__``, given in order to
    ``__init__`` unless the subclass defines its own.  Two values are equal,
    and hash alike, when of one type with equal fields: ``Add(a, b) != Sub(a, b)``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # compiled once per class, as collections.namedtuple compiles its __new__:
        # a loop over the fields makes building a node twice as slow
        if "__init__" not in vars(cls):
            body = "".join(f"\n _set(self, {n!r}, {n})" for n in cls.__slots__)
            scope = {"_set": object.__setattr__}
            exec(f"def __init__(self, {', '.join(cls.__slots__)}):{body}", scope)
            cls.__init__ = scope["__init__"]

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
# operators level by level, then prefix minus, the power and the atoms.  The parser's loop
# for each binary level reads that level's operator -> node map.
_LEVELS = ({Add: "+", Sub: "-"}, {Mul: "*"}, {Neg: "-"}, {Pow: "^"}, {Sym: "", Num: ""})
_BINDING = {node: (level, op) for level, ops in enumerate(_LEVELS) for node, op in ops.items()}
_SUM_OPS, _PRODUCT_OPS = ({op: node for node, op in ops.items()} for ops in _LEVELS[:2])


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

# Longest class expression or recipe accepted, in tokens.  The parser recurses
# at most twice per token and a walk over its tree no more (a sum chain is a loop,
# so that bound is loose), which keeps within the default recursion limit of 1000;
# three general classes on Bl_20 P^3 take 386.
MAX_TOKENS = 400

# every non-space character starts a match, a token or a bad one
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*^/()\[\]{}=,:]|−)|(?P<bad>\S))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, pos) per token, kind 'int', 'name', 'op' or 'eof'."""
    toks = []
    for m in _TOKEN_RE.finditer(text):  # trailing whitespace matches nothing
        kind = m.lastgroup
        tok = m[kind]
        pos = m.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {tok!r}", pos)
        if len(toks) == MAX_TOKENS:
            raise ParseError(f"input is longer than {MAX_TOKENS} tokens", pos)
        toks.append((kind, "-" if tok == "−" else tok, pos))
    toks.append(("eof", "", len(text)))
    return toks


class _TokenStream:
    """Tokens read in order; ``kind``, ``text`` and ``pos`` are the current token's.
    Only an op token has an operator's text, so ``ts.text == "("`` tests for that op."""

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0
        self.kind, self.text, self.pos = self.toks[0]

    def advance(self) -> tuple[str, str, int]:
        t = self.toks[self.i]
        if self.kind != "eof":
            self.i += 1
            self.kind, self.text, self.pos = self.toks[self.i]
        return t

    def expect_op(self, op: str, what: str | None = None) -> None:
        if self.text != op:
            raise ParseError(what or f"expected {op!r}", self.pos)
        self.advance()

    def fail(self, what: str):
        raise ParseError(what, self.pos)


# --------------------------------------------------------------------------
# class-expression parser
# --------------------------------------------------------------------------


def _in_bytes(exc: ParseError, text: str) -> ParseError:
    """``exc`` with its code-point offset into ``text`` counted in UTF-8 bytes."""
    return ParseError(exc.message, len(text[: exc.offset].encode("utf-8", "surrogatepass")))


def parse_class_expr(text: str) -> ClassExpr:
    try:
        ts = _TokenStream(text)
        expr = _parse_expr(ts)
        if ts.kind != "eof":
            ts.fail("expected end of expression")
    except ParseError as exc:
        raise _in_bytes(exc, text) from None
    return expr


def _parse_expr(ts: _TokenStream) -> ClassExpr:
    node = _parse_term(ts)
    while ts.text in _SUM_OPS:
        make = _SUM_OPS[ts.advance()[1]]
        node = make(node, _parse_term(ts))
    return node


def _parse_term(ts: _TokenStream) -> ClassExpr:
    node = _parse_factor(ts)
    while ts.text in _PRODUCT_OPS:
        make = _PRODUCT_OPS[ts.advance()[1]]
        node = make(node, _parse_factor(ts))
    return node


def _int_literal(text: str, offset: int) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts (4300 by default)
        raise ParseError("integer literal is too long", offset) from None


def _parse_uint(ts: _TokenStream, what: str) -> int:
    if ts.kind != "int":
        ts.fail(what)
    _, text, pos = ts.advance()
    return _int_literal(text, pos)


def _parse_number(ts: _TokenStream) -> Num:
    p = _parse_uint(ts, "expected number")
    if ts.text == "/":
        ts.advance()
        q = _parse_uint(ts, "expected denominator")
        if q == 0:
            raise ParseError("zero denominator", ts.toks[ts.i - 1][2])
        return Num(p // q if p % q == 0 else Fraction(p, q))
    return Num(p)


def _parse_primary_pow(ts: _TokenStream) -> ClassExpr:
    if ts.kind == "name":
        node: ClassExpr = Sym(ts.advance()[1])
    else:  # "(": both callers check for a name or "(" first
        ts.advance()
        node = _parse_expr(ts)
        ts.expect_op(")", "expected ')'")
    if ts.text == "^":
        ts.advance()
        node = Pow(node, _parse_uint(ts, "expected integer exponent"))
    return node


def _parse_factor(ts: _TokenStream) -> ClassExpr:
    if ts.text == "-":
        ts.advance()
        return Neg(_parse_factor(ts))
    if ts.kind == "int":
        num = _parse_number(ts)
        # coefficient-juxtaposition: "2L", "9L^3", "3(H+E)"  -- scalar times factor
        if ts.kind == "name" or ts.text == "(":
            return Mul(num, _parse_primary_pow(ts))
        if ts.text == "^":
            ts.advance()
            return Pow(num, _parse_uint(ts, "expected integer exponent"))
        return num
    if ts.kind == "name" or ts.text == "(":
        return _parse_primary_pow(ts)
    ts.fail("expected atom")


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
        rho, n = (_int_literal(m.group(g), m.start(g)) for g in (1, 2))
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


# constructor -> its parameters as (keyword, or None if positional; kind).
# Ranges (dimensions, counts, genus, factor and summand numbers) are checked
# by the ring constructors, not here.
_SIGNATURES = {
    "P": ((None, "int"),),
    "dp3": ((None, "int"),),
    "prod": ((None, "recipes"),),
    "bundle": ((None, "recipe"), ("summands", "classes")),
    "blowup_point": ((None, "recipe"), ("count", "int")),
    "blowup_curve": ((None, "recipe"), ("genus", "int"), ("degrees", "degrees")),
    "double_cover": ((None, "recipe"), ("half_branch", "class")),
    "divisor_in": ((None, "recipe"), (None, "class")),
}


def _as_int(value) -> int | None:
    sign = 1
    if isinstance(value, Neg):
        value, sign = value.arg, -1
    if isinstance(value, Num) and value.value.denominator == 1:
        return sign * int(value.value)
    return None


def _as_recipe(value) -> Call | None:
    return value if isinstance(value, Call) else None


# kind -> (what a value must be, its bound form or None if of another kind)
_KINDS = {
    "recipe": ("a recipe", _as_recipe),
    "recipes": ("a recipe", _as_recipe),  # every remaining positional argument
    "int": ("an integer", _as_int),
    "class": ("a class expression", lambda v: v if isinstance(v, ClassExpr) else None),
    "classes": ("a [class, ...] list", lambda v: tuple(v) if isinstance(v, list) else None),
    "degrees": ("a {name: int, ...} mapping", lambda v: v if isinstance(v, tuple) else None),
}


def parse_recipe(text: str) -> Call:
    try:
        ts = _TokenStream(text)
        recipe = _parse_recipe_call(ts)
        if ts.kind != "eof":
            ts.fail("expected end of recipe")
    except ParseError as exc:
        raise _in_bytes(exc, text) from None
    return recipe


def _parse_items(ts: _TokenStream, close: str, parse_item) -> list:
    """Comma-separated items up to the closing bracket ``close``."""
    items = []
    if ts.text != close:
        items.append(parse_item(ts))
        while ts.text == ",":
            ts.advance()
            items.append(parse_item(ts))
    ts.expect_op(close, f"expected {close!r} or ','")
    return items


def _parse_recipe_call(ts: _TokenStream) -> Call:
    if ts.kind != "name" or ts.text not in _SIGNATURES:
        ts.fail("expected a recipe constructor")
    _, name, pos = ts.advance()
    ts.expect_op("(", "expected '('")
    return _bind(name, pos, _parse_items(ts, ")", _parse_argument))


def _parse_argument(ts: _TokenStream) -> tuple[str | None, object]:
    key = None
    if ts.kind == "name" and ts.toks[ts.i + 1][1] == "=":
        key = ts.advance()[1]
        ts.advance()  # '='
    if ts.text in _SIGNATURES and ts.toks[ts.i + 1][1] == "(":
        return key, _parse_recipe_call(ts)
    if ts.text == "[":
        ts.advance()
        return key, _parse_items(ts, "]", _parse_expr)
    if ts.text == "{":
        ts.advance()
        return key, tuple(_parse_items(ts, "}", _parse_degree))
    return key, _parse_expr(ts)


def _parse_degree(ts: _TokenStream) -> tuple[str, int]:
    if ts.kind != "name":
        ts.fail("expected basis symbol")
    name = ts.advance()[1]
    ts.expect_op(":", "expected ':'")
    sign = 1
    if ts.text == "-":
        ts.advance()
        sign = -1
    return name, sign * _parse_uint(ts, "expected integer")


def _bind(name: str, pos: int, items: list[tuple[str | None, object]]) -> Call:
    """The Call for a constructor's arguments, checked against its signature."""

    def bad(msg: str):
        raise ParseError(f"{name}: {msg}", pos)

    positional = [v for key, v in items if key is None]
    keywords: dict[str, object] = {}
    for key, value in items:
        if key in keywords:
            bad(f"argument {key!r} given twice")
        if key is not None:
            keywords[key] = value
    args = []
    for key, kind in _SIGNATURES[name]:
        what, bind = _KINDS[kind]
        if kind == "recipes":
            values, positional = positional, []
        elif key is not None:
            if key not in keywords:
                bad(f"missing argument {key!r}")
            values = [keywords.pop(key)]
        elif positional:
            values = [positional.pop(0)]
        else:
            bad(f"missing {what}")
        for value in values:
            bound = bind(value)
            if bound is None:
                bad(f"{key or 'argument'} must be {what}")
            args.append(bound)
    if positional:
        bad("too many positional arguments")
    if keywords:
        bad(f"unexpected argument {next(iter(keywords))!r}")
    return Call(name, tuple(args))
