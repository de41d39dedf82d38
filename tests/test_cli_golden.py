"""Replays recorded ``fanocalc`` invocations and compares them byte for byte.

``tests/data/cli_golden.txt`` holds one record per invocation: a line with
its argv as JSON, a line with its exit code, then its stdout and its stderr,
each headed by its number of lines.  The set covers ``verify`` with and
without ``--json`` and each ``--only``, ``classify`` on every curated
family, ``family`` on all 105 catalog families, five ``list`` filters,
``deg`` on every curated middle variety and on further bundles and
hypersurfaces, and three domain errors, all with ASCII input.  After a
deliberate change of output, write the file again by running this module
as a script::

    PYTHONPATH=src python tests/test_cli_golden.py > tests/data/cli_golden.txt
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from fanocalc import catalog, classify, cli, ring

GOLDEN = Path(__file__).parent / "data" / "cli_golden.txt"

# recipes beyond the curated middle varieties: split bundles and hypersurfaces
_EXTRA_RECIPES = [
    "bundle(P(1), summands=[0, -3*H])",
    "bundle(P(2), summands=[0, -H, 3*H])",
    "bundle(blowup_point(P(2), count=4), summands=[0, H-E1, 2*H-E2-E3])",
    "bundle(blowup_point(P(3), count=2), summands=[H-E1, 2*H-E2])",
    "divisor_in(P(4), 2*H)",
    "divisor_in(prod(P(2),P(2)), H1+3*H2)",
    "divisor_in(bundle(prod(P(1),P(1)), summands=[0, -H1-H2, -H1-H2]), 2*zeta+3*H1+3*H2)",
]

_ERRORS = [
    ["family", "1.99"],
    ["deg", "P(3)", "H^2"],
    ["deg", "P(3)", "2*^H"],
]


def invocations() -> list[list[str]]:
    out = [["verify"], ["verify", "--json"]]
    for section in classify.VERIFY_SECTIONS:
        out += [["verify", "--only", section], ["verify", "--only", section, "--json"]]
    for fid in sorted(catalog.RECIPES):
        out += [["classify", str(fid)], ["classify", str(fid), "--json"]]
    for rec in catalog.list_families():
        out += [["family", str(rec.id)], ["family", str(rec.id), "--json"]]
    for filters in ([], ["--epsilon", "4/3"], ["--rho", "3"], ["--dp", "2"],
                    ["--epsilon", "2", "--rho", "2"]):
        out += [["list", *filters], ["list", *filters, "--json"]]
    middles = dict.fromkeys(r.middle for r in catalog.RECIPES.values())
    for recipe in [*middles, *_EXTRA_RECIPES]:
        model = ring.model_from_recipe(recipe)
        n = model.dimension
        exprs = [f"{b}^{n}" for b in model.basis]
        exprs += [f"({'+'.join(model.basis)})^{n}", f"({model.anticanonical})^{n}"]
        out += [["deg", recipe, e] for e in exprs]
        out.append(["deg", recipe, exprs[-1], "--json"])
    return out + _ERRORS


def record(argv: list[str]) -> str:
    """The golden-file record of one in-process ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    text = f"argv {json.dumps(argv)}\nexit {code}\n"
    for name, stream in (("stdout", out.getvalue()), ("stderr", err.getvalue())):
        assert stream == "" or stream.endswith("\n"), f"{name} of {argv} ends mid-line"
        text += f"{name} {stream.count(chr(10))}\n{stream}"
    return text


def read_golden() -> list[tuple[list[str], str]]:
    """(argv, record text) for each record of the golden file."""
    lines = GOLDEN.read_text(encoding="utf-8").split("\n")
    records = []
    i = 0
    while i < len(lines) - 1:
        start = i
        argv = json.loads(lines[i].removeprefix("argv "))
        i += 2
        for _ in ("stdout", "stderr"):
            i += 1 + int(lines[i].split()[1])
        records.append((argv, "\n".join(lines[start:i]) + "\n"))
    return records


def test_cli_output_matches_golden_file(monkeypatch):
    monkeypatch.delenv(catalog.DATA_ENV_VAR, raising=False)
    recorded = read_golden()
    assert [argv for argv, _ in recorded] == invocations()
    for argv, expected in recorded:
        assert record(argv) == expected


if __name__ == "__main__":
    os.environ.pop(catalog.DATA_ENV_VAR, None)
    sys.stdout.buffer.write("".join(map(record, invocations())).encode("utf-8"))
