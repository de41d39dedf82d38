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
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

from .errors import ParseError

# --------------------------------------------------------------------------
# class-expression AST
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Num:
    value: Fraction  # always >= 0; negatives appear as Neg(Num(...))


@dataclass(frozen=True)
class Neg:
    arg: "ClassExpr"


@dataclass(frozen=True)
class Add:
    left: "ClassExpr"
    right: "ClassExpr"


@dataclass(frozen=True)
class Sub:
    left: "ClassExpr"
    right: "ClassExpr"


@dataclass(frozen=True)
class Mul:
    left: "ClassExpr"
    right: "ClassExpr"


@dataclass(frozen=True)
class Pow:
    base: "ClassExpr"
    exp: int


ClassExpr = Union[Sym, Num, Neg, Add, Sub, Mul, Pow]


# --------------------------------------------------------------------------
# pretty printer (structural round-trip with parse_class_expr)
# --------------------------------------------------------------------------


def pretty_print(expr: ClassExpr) -> str:
    return _pp(expr)


def _is_atomic(e: ClassExpr) -> bool:
    return isinstance(e, (Sym, Num))


def _pp(e: ClassExpr) -> str:
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Num):
        return str(e.value)
    if isinstance(e, Neg):
        inner = e.arg
        s = _pp(inner)
        if isinstance(inner, (Add, Sub, Mul)):
            s = f"({s})"
        return f"-{s}"
    if isinstance(e, Pow):
        b = _pp(e.base)
        if not _is_atomic(e.base):
            b = f"({b})"
        return f"{b}^{e.exp}"
    if isinstance(e, Mul):
        l = _pp(e.left)
        if isinstance(e.left, (Add, Sub)):
            l = f"({l})"
        r = _pp(e.right)
        if isinstance(e.right, (Add, Sub, Mul)):
            r = f"({r})"
        return f"{l}*{r}"
    if isinstance(e, (Add, Sub)):
        op = "+" if isinstance(e, Add) else "-"
        l = _pp(e.left)
        r = _pp(e.right)
        if isinstance(e.right, (Add, Sub)):
            r = f"({r})"
        return f"{l}{op}{r}"
    raise TypeError(f"not a class expression: {e!r}")


# --------------------------------------------------------------------------
# tokenizer (shared by both grammars)
# --------------------------------------------------------------------------

# Longest class expression or recipe accepted, in tokens.  The parser and every
# walk over its tree recurse at most twice per token, so this stays within the
# default recursion limit of 1000; three general classes on Bl_20 P^3 take 386.
MAX_TOKENS = 400

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*^/()\[\]{}=,:]|−))"
)


class _Tok(NamedTuple):
    kind: str  # 'int' | 'name' | 'op' | 'eof'
    text: str
    pos: int


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            # skip trailing whitespace, otherwise reject the character
            rest = text[i:]
            if rest.strip() == "":
                break
            bad = i + (len(rest) - len(rest.lstrip()))
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        if m.group("int") is not None:
            toks.append(_Tok("int", m.group("int"), m.start("int")))
        elif m.group("name") is not None:
            toks.append(_Tok("name", m.group("name"), m.start("name")))
        else:
            op = m.group("op")
            if op == "−":
                op = "-"
            toks.append(_Tok("op", op, m.start("op")))
        i = m.end()
        if len(toks) > MAX_TOKENS:
            raise ParseError(f"input is longer than {MAX_TOKENS} tokens", toks[-1].pos)
    toks.append(_Tok("eof", "", len(text)))
    return toks


class _TokenStream:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    @property
    def cur(self) -> _Tok:
        return self.toks[self.i]

    def advance(self) -> _Tok:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def at_op(self, *ops: str) -> bool:
        return self.cur.kind == "op" and self.cur.text in ops

    def expect_op(self, op: str, what: str | None = None) -> None:
        if not self.at_op(op):
            raise ParseError(what or f"expected {op!r}", self.cur.pos)
        self.advance()

    def fail(self, what: str):
        raise ParseError(what, self.cur.pos)


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
        if ts.cur.kind != "eof":
            ts.fail("expected end of expression")
    except ParseError as exc:
        raise _in_bytes(exc, text) from None
    return expr


def _parse_expr(ts: _TokenStream) -> ClassExpr:
    node = _parse_term(ts)
    while ts.at_op("+", "-"):
        op = ts.advance().text
        rhs = _parse_term(ts)
        node = Add(node, rhs) if op == "+" else Sub(node, rhs)
    return node


def _parse_term(ts: _TokenStream) -> ClassExpr:
    node = _parse_factor(ts)
    while ts.at_op("*"):
        ts.advance()
        node = Mul(node, _parse_factor(ts))
    return node


def _int_literal(text: str, offset: int) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts (4300 by default)
        raise ParseError("integer literal is too long", offset) from None


def _parse_uint(ts: _TokenStream, what: str) -> int:
    if ts.cur.kind != "int":
        ts.fail(what)
    tok = ts.advance()
    return _int_literal(tok.text, tok.pos)


def _parse_number(ts: _TokenStream) -> Num:
    p = _parse_uint(ts, "expected number")
    if ts.at_op("/"):
        ts.advance()
        q = _parse_uint(ts, "expected denominator")
        if q == 0:
            raise ParseError("zero denominator", ts.toks[ts.i - 1].pos)
        return Num(Fraction(p, q))
    return Num(Fraction(p))


def _parse_primary_pow(ts: _TokenStream) -> ClassExpr:
    if ts.cur.kind == "name":
        node: ClassExpr = Sym(ts.advance().text)
    elif ts.at_op("("):
        ts.advance()
        node = _parse_expr(ts)
        ts.expect_op(")", "expected ')'")
    else:
        ts.fail("expected atom")
    if ts.at_op("^"):
        ts.advance()
        node = Pow(node, _parse_uint(ts, "expected integer exponent"))
    return node


def _parse_factor(ts: _TokenStream) -> ClassExpr:
    if ts.at_op("-"):
        ts.advance()
        return Neg(_parse_factor(ts))
    if ts.cur.kind == "int":
        num = _parse_number(ts)
        # coefficient-juxtaposition: "2L", "9L^3", "3(H+E)"  -- scalar times factor
        if ts.cur.kind == "name" or ts.at_op("("):
            return Mul(num, _parse_primary_pow(ts))
        if ts.at_op("^"):
            ts.advance()
            return Pow(num, _parse_uint(ts, "expected integer exponent"))
        return num
    if ts.cur.kind == "name" or ts.at_op("("):
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


@dataclass(frozen=True)
class Call:
    """A recipe constructor applied to its arguments, in signature order.

    Each argument is a nested Call, an int, a class expression, a tuple of
    class expressions or a tuple of (basis name, int) degree pairs; the
    arguments of ``prod`` are its factors.
    """

    name: str
    args: tuple


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
        if ts.cur.kind != "eof":
            ts.fail("expected end of recipe")
    except ParseError as exc:
        raise _in_bytes(exc, text) from None
    return recipe


def _parse_items(ts: _TokenStream, close: str, parse_item) -> list:
    """Comma-separated items up to the closing bracket ``close``."""
    items = []
    if not ts.at_op(close):
        items.append(parse_item(ts))
        while ts.at_op(","):
            ts.advance()
            items.append(parse_item(ts))
    ts.expect_op(close, f"expected {close!r} or ','")
    return items


def _parse_recipe_call(ts: _TokenStream) -> Call:
    if ts.cur.kind != "name" or ts.cur.text not in _SIGNATURES:
        ts.fail("expected a recipe constructor")
    name_tok = ts.advance()
    ts.expect_op("(", "expected '('")
    return _bind(name_tok.text, name_tok.pos, _parse_items(ts, ")", _parse_argument))


def _parse_argument(ts: _TokenStream) -> tuple[str | None, object]:
    key = None
    if ts.cur.kind == "name" and ts.toks[ts.i + 1].text == "=":
        key = ts.advance().text
        ts.advance()  # '='
    if ts.cur.text in _SIGNATURES and ts.toks[ts.i + 1].text == "(":
        return key, _parse_recipe_call(ts)
    if ts.at_op("["):
        ts.advance()
        return key, _parse_items(ts, "]", _parse_expr)
    if ts.at_op("{"):
        ts.advance()
        return key, tuple(_parse_items(ts, "}", _parse_degree))
    return key, _parse_expr(ts)


def _parse_degree(ts: _TokenStream) -> tuple[str, int]:
    if ts.cur.kind != "name":
        ts.fail("expected basis symbol")
    name = ts.advance().text
    ts.expect_op(":", "expected ':'")
    sign = 1
    if ts.at_op("-"):
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
