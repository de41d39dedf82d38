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
``bundle(prod(P(1),P(1)), summands=[0, -H1-H2, -H1-H2])``.
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
        v = e.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
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


def parse_class_expr(text: str) -> ClassExpr:
    ts = _TokenStream(text)
    expr = _parse_expr(ts)
    if ts.cur.kind != "eof":
        ts.fail("expected end of expression")
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


def _parse_uint(ts: _TokenStream, what: str) -> int:
    if ts.cur.kind != "int":
        ts.fail(what)
    return int(ts.advance().text)


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
    m = _FAMILY_RE.fullmatch(text)
    if m is None:
        raise ParseError("expected family identifier of the form rho.N", 0)
    rho, n = int(m.group(1)), int(m.group(2))
    if not 1 <= rho <= 10:
        raise ParseError("Picard rank must be between 1 and 10", m.start(1))
    if n < 1:
        raise ParseError("family number must be positive", m.start(2))
    return FamilyId(rho, n)


# --------------------------------------------------------------------------
# recipe AST and parser
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PSpace:
    n: int


@dataclass(frozen=True)
class DelPezzo3:
    degree: int


@dataclass(frozen=True)
class Prod:
    factors: tuple["RecipeExpr", ...]


@dataclass(frozen=True)
class Bundle:
    base: "RecipeExpr"
    summands: tuple[ClassExpr, ...]


@dataclass(frozen=True)
class BlowupPoint:
    base: "RecipeExpr"
    count: int


@dataclass(frozen=True)
class BlowupCurve:
    base: "RecipeExpr"
    genus: int
    degrees: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class DoubleCover:
    base: "RecipeExpr"
    half_branch: ClassExpr


@dataclass(frozen=True)
class DivisorIn:
    base: "RecipeExpr"
    hypersurface: ClassExpr


RecipeExpr = Union[PSpace, DelPezzo3, Prod, Bundle, BlowupPoint, BlowupCurve, DoubleCover, DivisorIn]

_CONSTRUCTORS = {
    "P", "dp3", "prod", "bundle", "blowup_point", "blowup_curve",
    "double_cover", "divisor_in",
}


def parse_recipe(text: str) -> RecipeExpr:
    ts = _TokenStream(text)
    recipe = _parse_recipe_call(ts)
    if ts.cur.kind != "eof":
        ts.fail("expected end of recipe")
    return recipe


def _parse_recipe_call(ts: _TokenStream) -> RecipeExpr:
    if ts.cur.kind != "name" or ts.cur.text not in _CONSTRUCTORS:
        ts.fail("expected a recipe constructor")
    name_tok = ts.advance()
    name = name_tok.text
    ts.expect_op("(", "expected '('")
    pos_args: list = []
    kw_args: dict = {}
    if not ts.at_op(")"):
        while True:
            if (
                ts.cur.kind == "name"
                and ts.toks[ts.i + 1].kind == "op"
                and ts.toks[ts.i + 1].text == "="
            ):
                key = ts.advance().text
                ts.advance()  # '='
                kw_args[key] = _parse_recipe_value(ts)
            else:
                pos_args.append(_parse_recipe_value(ts))
            if ts.at_op(","):
                ts.advance()
                continue
            break
    ts.expect_op(")", "expected ')' or ','")
    return _build_recipe(name, name_tok.pos, pos_args, kw_args)


def _parse_recipe_value(ts: _TokenStream):
    if ts.cur.kind == "name" and ts.cur.text in _CONSTRUCTORS:
        nxt = ts.toks[ts.i + 1]
        if nxt.kind == "op" and nxt.text == "(":
            return _parse_recipe_call(ts)
    if ts.at_op("["):
        ts.advance()
        items = []
        if not ts.at_op("]"):
            while True:
                items.append(_parse_recipe_value(ts))
                if ts.at_op(","):
                    ts.advance()
                    continue
                break
        ts.expect_op("]", "expected ']' or ','")
        return items
    if ts.at_op("{"):
        ts.advance()
        entries = []
        if not ts.at_op("}"):
            while True:
                if ts.cur.kind != "name":
                    ts.fail("expected basis symbol")
                key = ts.advance().text
                ts.expect_op(":", "expected ':'")
                sign = 1
                if ts.at_op("-"):
                    ts.advance()
                    sign = -1
                value = sign * _parse_uint(ts, "expected integer")
                entries.append((key, value))
                if ts.at_op(","):
                    ts.advance()
                    continue
                break
        ts.expect_op("}", "expected '}' or ','")
        return tuple(entries)
    # fall back to a class expression (covers bare integers too)
    return _parse_expr(ts)


def _expr_is_int(value) -> bool:
    return isinstance(value, Num) and value.value.denominator == 1


def _build_recipe(name: str, pos: int, args: list, kw: dict) -> RecipeExpr:
    def bad(msg: str):
        raise ParseError(f"{name}: {msg}", pos)

    def take_kw(key: str, required=True):
        if key in kw:
            return kw.pop(key)
        if required:
            bad(f"missing argument {key!r}")
        return None

    def check_done():
        if kw:
            bad(f"unexpected argument {next(iter(kw))!r}")

    if name == "P":
        if len(args) != 1 or not _expr_is_int(args[0]) or kw:
            bad("expects a single integer dimension")
        return PSpace(int(args[0].value))
    if name == "dp3":
        if len(args) != 1 or not _expr_is_int(args[0]) or kw:
            bad("expects a single integer degree")
        return DelPezzo3(int(args[0].value))
    if name == "prod":
        if kw or len(args) < 2:
            bad("expects at least two factor recipes")
        for a in args:
            if not _is_recipe(a):
                bad("factors must be recipes")
        return Prod(tuple(args))
    if name == "bundle":
        if len(args) != 1 or not _is_recipe(args[0]):
            bad("expects a base recipe")
        summands = take_kw("summands")
        check_done()
        if not isinstance(summands, list) or len(summands) < 2:
            bad("summands must be a list of at least two classes")
        for s in summands:
            if _is_recipe(s) or isinstance(s, (list, tuple)):
                bad("summands must be class expressions")
        return Bundle(args[0], tuple(summands))
    if name == "blowup_point":
        if len(args) != 1 or not _is_recipe(args[0]):
            bad("expects a base recipe")
        count = take_kw("count")
        check_done()
        if not _expr_is_int(count) or int(count.value) < 1:
            bad("count must be a positive integer")
        return BlowupPoint(args[0], int(count.value))
    if name == "blowup_curve":
        if len(args) != 1 or not _is_recipe(args[0]):
            bad("expects a base recipe")
        genus = take_kw("genus")
        degrees = take_kw("degrees")
        check_done()
        if not _expr_is_int(genus) or int(genus.value) < 0:
            bad("genus must be a nonnegative integer")
        if not isinstance(degrees, tuple):
            bad("degrees must be a {name: int, ...} mapping")
        return BlowupCurve(args[0], int(genus.value), degrees)
    if name == "double_cover":
        if len(args) != 1 or not _is_recipe(args[0]):
            bad("expects a base recipe")
        hb = take_kw("half_branch")
        check_done()
        if _is_recipe(hb) or isinstance(hb, (list, tuple)):
            bad("half_branch must be a class expression")
        return DoubleCover(args[0], hb)
    if name == "divisor_in":
        if len(args) != 2 or not _is_recipe(args[0]):
            bad("expects a base recipe and a hypersurface class")
        h = args[1]
        if _is_recipe(h) or isinstance(h, (list, tuple)):
            bad("hypersurface must be a class expression")
        return DivisorIn(args[0], h)
    bad("unknown constructor")


def _is_recipe(value) -> bool:
    return isinstance(
        value,
        (PSpace, DelPezzo3, Prod, Bundle, BlowupPoint, BlowupCurve, DoubleCover, DivisorIn),
    )
