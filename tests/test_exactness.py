"""Lints over the package.

No floats in the engine: every value fanocalc computes is exact.  Each
module of the package is parsed and checked for a float literal, any use of
the name ``float``, and true division ``/``, which turns two ints into a
float.  Exact division is written ``Fraction(a, b)``.

No ``dataclasses`` either: importing it imports ``inspect``, and with the
classes it builds it cost about a quarter of every ``fanocalc`` call's
start.  The same walk rejects both forms of its import.  ``json`` is loaded
only by ``cli.main`` under ``--json``.

One output path: ``cli.main`` is the only code that names ``print`` or
``stdout``, so each subcommand returns its answer and ``main`` writes it.

One verification path: ``classify.verify_paper`` names no
``intersection_number``, so each of its numeric checks is a row of its
expression table.

One walk per fiber degree: ``classify.classify_splitting`` names no
``intersection_number``, so the fiber degree comes from its pencil tests' numbers.

Recipes hold construction only: ``catalog.realize_recipe`` reads every
field of ``FamilyRecipe``, so no field there is read by ``verify`` alone.

No orderings: ``ring._contract`` does not name ``permutations``, so the stored
keys are walked one slot at a time, or once with multinomial weights for a
power, and not over their orderings.

One statement of the binding: ``parser._BINDING`` ranks every class-expression
node, and ``parser.pretty_print`` parenthesises by rank, naming no ``isinstance``.

Recipes load on first use: ``fanocalc list`` and ``fanocalc deg`` leave
``catalog.recipes`` unread.

Patterns compiled once: no function in the package passes a literal pattern to
``re.match``, ``fullmatch``, ``search``, ``sub``, ``split``, ``findall`` or
``finditer``; patterns are compiled at module level.

No code that only the tests call: every top-level function and class of the
package, and every method that is not a dunder, is reached from the package's
module-level code, through the definitions it names and those they name in turn,
with three roots that have a consumer elsewhere.  Two functions that only call each
other are not reached.  The match is by name only, so a method that shares its name
with an attribute or a variable (as ``IntersectionForm.value`` did with
``Num.value``) gets past it.

No ``typing`` alias in ``isinstance``: such an alias runs its ``__instancecheck__`` in
Python, and ``isinstance(x, typing.Mapping)`` took about three times as long as against
``collections.abc.Mapping`` (1.03 against 0.37 µs on Python 3.11).  A test of a union of classes takes the tuple of its classes.

The package binds only its modules and ``parse_family_id``.
"""

import ast
import builtins
import collections
import importlib
import subprocess
import sys
import types
import typing
from pathlib import Path

import pytest

import fanocalc

MODULES = sorted(Path(fanocalc.__file__).parent.glob("*.py"))


def flagged(source):
    """(line, what) for each construct in ``source`` that can make a float,
    and each import of ``dataclasses``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "name float"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"
        elif isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names):
            yield node.lineno, "import dataclasses"
        elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            yield node.lineno, "from dataclasses import"


def test_lint_sees_each_construct():
    source = (
        "g = (t + 2) / 2\ng /= 2\nx = 0.5\ny = float(g)\nz = Fraction(t + 2, 2) // 1\n"
        "import os, dataclasses\nfrom dataclasses import dataclass\nfrom typing import NamedTuple\n"
    )
    assert sorted(line for line, _ in flagged(source)) == [1, 2, 3, 4, 6, 7]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_float(path):
    assert list(flagged(path.read_text())) == []


def outputs_outside_main(source, main_may_print):
    """Lines that name ``print`` or ``stdout`` outside a top-level ``main``,
    or anywhere if ``main_may_print`` is false."""
    tree = ast.parse(source)
    allowed = {
        id(node)
        for f in tree.body if main_may_print and isinstance(f, ast.FunctionDef) and f.name == "main"
        for node in ast.walk(f)
    }
    return sorted(
        node.lineno for node in ast.walk(tree)
        if id(node) not in allowed and (
            isinstance(node, ast.Name) and node.id == "print"
            or isinstance(node, ast.Attribute) and node.attr == "stdout"
        )
    )


def test_output_lint_sees_each_construct():
    source = (
        "def cmd(x):\n    print(x)\n    return sys.stdout\n"
        "def main():\n    print(1)\n    sys.stdout.write('')\n"
        "def helper():\n    echo = print\n"
    )
    assert outputs_outside_main(source, True) == [2, 3, 8]
    assert outputs_outside_main(source, False) == [2, 3, 5, 6, 8]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_cli_main_writes_stdout(path):
    assert outputs_outside_main(path.read_text(), path.name == "cli.py") == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S: no site module, so nothing but fanocalc.cli can have imported them; json is
    # imported by main under --json only
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import fanocalc.cli; "
            "print(sorted({'dataclasses', 'inspect', 'json'} & sys.modules.keys()))")
    src = str(Path(fanocalc.__file__).parents[1])
    done = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_list_and_deg_leave_the_recipe_file_unread():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import fanocalc.cli as cli; "
            "codes = [cli.main(['list']), cli.main(['deg', 'P(3)', 'H^3'])]; "
            "print(codes, cli.catalog.recipes.cache_info().currsize)")
    src = str(Path(fanocalc.__file__).parents[1])
    done = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-3:] == ["count 105", "1", "[0, 0] 0"]


def names_in(module, function):
    """Every name and attribute that ``function`` of ``module`` reads: a module-level
    function, or a method given as ``Class.method``."""
    body = ast.parse((Path(fanocalc.__file__).parent / f"{module}.py").read_text()).body
    *owner, function = function.split(".")
    if owner:
        (body,) = [c.body for c in body if isinstance(c, ast.ClassDef) and c.name == owner[0]]
    (f,) = [f for f in body if isinstance(f, ast.FunctionDef) and f.name == function]
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(f) if isinstance(node, (ast.Name, ast.Attribute))}


_RE_PATTERN_CALLS = {"match", "fullmatch", "search", "sub", "split", "findall", "finditer"}


def literal_patterns(source):
    """Lines, inside a function, of ``re.<name>`` calls whose pattern is a literal."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    return sorted({
        node.lineno
        for f in ast.walk(ast.parse(source)) if isinstance(f, functions)
        for node in ast.walk(f)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"
        and node.func.attr in _RE_PATTERN_CALLS
        and any(isinstance(p, ast.Constant) for p in node.args[:1]
                + [k.value for k in node.keywords if k.arg == "pattern"])
    })


def test_pattern_lint_sees_each_construct():
    source = (
        "import re\nWORD = re.compile(r'\\w+')\nTOP = re.match('a', 'a')\n"
        "def f(s):\n    return re.fullmatch(r'E\\d+', s)\n"
        "def g(s):\n    def h():\n        return re.sub(pattern='x', repl='', string=s)\n"
        "    return WORD.fullmatch(s) or re.search(WORD, s) or re.split(',', s)\n"
        "k = lambda s: re.findall('a', s)\n"
    )
    assert literal_patterns(source) == [5, 8, 9, 10]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_patterns_are_compiled_at_module_level(path):
    assert literal_patterns(path.read_text()) == []


def test_verify_paper_computes_through_its_rows():
    assert "intersection_number" not in names_in("classify", "verify_paper")


def unreferenced(sources, roots=()):
    """Names of the top-level functions and classes, and non-dunder methods, that no code
    in ``sources`` reaches.  Module-level code reaches each name it reads, as a name, an
    attribute or an import; so does a definition that is reached, and so do ``roots``.
    A definition that only names itself, or only definitions that name it back, is not reached."""

    def names(nodes):
        return {
            n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
            for node in nodes for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
        }

    uses = collections.defaultdict(set)  # definition name -> the names its own code reads
    reached = set(roots)
    for top in (top for source in sources for top in ast.parse(source).body):
        if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            reached |= names([top])
            continue
        methods = [
            d for d in (top.body if isinstance(top, ast.ClassDef) else [])
            if isinstance(d, (ast.FunctionDef, ast.ClassDef))
            and not (d.name.startswith("__") and d.name.endswith("__"))
        ]
        for d in methods:
            uses[d.name] |= names([d])
        uses[top.name] |= names(n for n in ast.iter_child_nodes(top) if n not in methods)
    todo = list(reached)
    while todo:  # what is reached reaches what its definitions read
        todo += uses.pop(todo.pop(), set()) - reached
        reached.update(todo)
    return sorted(uses)


def test_unreferenced_lint_sees_each_construct():
    source = (
        "import os\nfrom .m import imported\nVALUE = used()\n"
        "def used():\n    return 1\ndef unused():\n    return used()\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def ping():\n    return pong()\ndef pong():\n    return ping()\n"
        "class Kept:\n    def method(self):\n        return self.dead_attr\n"
        "    def dead_attr(self):\n        return 0\n    def attr(self):\n        return 0\n"
        "    def __init__(self):\n        pass\n"
        "class Dead:\n    def helper(self):\n        return Dead()\n    def __mangled(self):\n        pass\n"
        "def imported():\n    return Kept().attr\n"
    )
    assert unreferenced([source]) == [
        "Dead", "__mangled", "dead_attr", "helper", "method", "ping", "pong", "recursive", "unused",
    ]
    assert unreferenced([source], roots={"ping", "method"}) == [
        "Dead", "__mangled", "helper", "recursive", "unused",
    ]


# each has a consumer outside the package, so it and what it reaches are kept
_UNREFERENCED_ON_PURPOSE = {
    "epsilon_general",  # ROADMAP item 3 puts it on the path of epsilon_of_family
    "pretty_print",  # ROADMAP item 6 names it as the printer of class texts in derivation records
}


def test_no_code_only_the_tests_call():
    sources = [path.read_text() for path in MODULES]
    assert unreferenced(sources, roots=_UNREFERENCED_ON_PURPOSE) == []
    assert _UNREFERENCED_ON_PURPOSE <= set(unreferenced(sources))  # each exception is needed


def test_classify_splitting_reads_the_fiber_degree_from_its_pencil_tests():
    assert "intersection_number" not in names_in("classify", "classify_splitting")


def test_realize_recipe_reads_every_recipe_field():
    fields = fanocalc.catalog.FamilyRecipe._fields
    assert fields == ("middle", "pencil", "d1", "nef_big_second")
    assert set(fields) <= names_in("catalog", "realize_recipe")


def test_every_model_checks_its_top_power():
    assert "intersection_number" in names_in("ring", "VarietyModel.__init__")


@pytest.mark.parametrize("module, function", [
    ("classify", "Splitting.__init__"), ("catalog", "realize_recipe"), ("catalog", "ci_curve_center"),
])
def test_minus_k_is_read_as_the_stored_tuple(module, function):
    """-K's coefficients are the model's tuple; the property would build a class per read."""
    assert "anticanonical" not in names_in(module, function)


# bench/spans.py times a parse by wrapping parser.parse_*: a call straight to parser._parse
# would read 0 parser.calls, as classify.pencil_check.calls misses the classifier's test of
# D1, which calls classify._pencil_test for its rest
@pytest.mark.parametrize("module, function, parse", [
    ("ring", "evaluate", "parse_class_expr"),
    ("ring", "VarietyModel.divisor", "parse_class_expr"),
    ("ring", "model_from_recipe", "parse_recipe"),
])
def test_every_parse_goes_through_its_wrapped_name(module, function, parse):
    assert parse in names_in(module, function)


def test_class_expressions_have_no_term_rule():
    assert not hasattr(fanocalc.parser, "_parse_term")  # the sum's loop reads a term's factors


def test_contract_walks_one_slot_at_a_time():
    assert "permutations" not in names_in("ring", "_contract")


def test_printer_reads_the_binding_table():
    assert set(fanocalc.parser._BINDING) == set(typing.get_args(fanocalc.parser.ClassExpr))
    assert "isinstance" not in names_in("parser", "pretty_print")


def typing_isinstance(source, scope):
    """Lines of the ``isinstance`` calls in ``source`` whose class argument, read in ``scope``
    as a name, an attribute or a tuple of them, is a ``typing`` alias or holds one."""

    def read(node):
        if isinstance(node, ast.Name):
            return scope[node.id]
        if isinstance(node, ast.Attribute):
            return getattr(read(node.value), node.attr)
        if isinstance(node, ast.Tuple):
            return tuple(read(n) for n in node.elts)
        raise ValueError(f"line {node.lineno}: cannot read {ast.unparse(node)}")

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            classes = read(node.args[1])
            if any(type(c).__module__ == "typing"
                   for c in (classes if isinstance(classes, tuple) else (classes,))):
                lines.append(node.lineno)
    return sorted(lines)


def test_typing_isinstance_lint_sees_each_construct():
    source = (
        "import typing\nimport collections.abc as abc\nU = typing.Union[int, str]\n"
        "def f(x):\n"
        "    return (isinstance(x, typing.Mapping)\n"
        "            or isinstance(x, abc.Mapping)\n"
        "            or isinstance(x, (int, U))\n"
        "            or isinstance(x, U.__args__)\n"
        "            or isinstance(x, U))\n"
    )
    scope = {}
    exec(source, scope)
    assert typing_isinstance(source, {**vars(builtins), **scope}) == [5, 7, 9]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_isinstance_takes_no_typing_alias(path):
    source, scope = path.read_text(), {}
    if "isinstance" in source:  # so __main__, which runs the command line, is not imported
        module = importlib.import_module(f"fanocalc.{path.stem}".removesuffix(".__init__"))
        scope = {**vars(builtins), **vars(module)}
    assert typing_isinstance(source, scope) == []


def test_package_binds_only_its_modules():
    for name, value in vars(fanocalc).items():
        if name.startswith("_") or name == "parse_family_id":
            continue
        assert isinstance(value, types.ModuleType), name
        assert value.__name__ == f"fanocalc.{name}", name
