"""Exactness guard: no library module introduces a float.

Every number arcdual prints is an integer or a Fraction.  This parses
each module under src/arcdual and rejects the four ways a float gets
in: a float literal, a float(...) call, true division `/`, which turns
two ints into a float, and a json.load or json.loads call without
`parse_float`, which reads a JSON decimal such as 0.1 as a float.
Floor division `//` stays allowed.

Exact linear algebra runs on integer rows: `linalg` builds a `Fraction`
only in `exact`, the one normaliser of coefficients above the kernel.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "arcdual"
MODULES = sorted(PACKAGE.glob("*.py"))


def float_sites(source: str) -> list[tuple[int, str]]:
    """(line, kind) of every float literal, float() call, true division
    and json load without parse_float."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            sites.append((node.lineno, "float literal"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            sites.append((node.lineno, "float() call"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.Div
        ):
            sites.append((node.lineno, "true division"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json"
            and node.func.attr in ("load", "loads")
            and all(k.arg != "parse_float" for k in node.keywords)
        ):
            sites.append((node.lineno, "json float parse"))
    return sorted(sites)


def test_float_sites_finds_each_kind():
    source = "a = 0.5\nb = float(3)\nc = a / b\nc /= 2\nd = 7 // 2\ne = 1e3\n"
    assert float_sites(source) == [
        (1, "float literal"),
        (2, "float() call"),
        (3, "true division"),
        (4, "true division"),
        (6, "float literal"),
    ]


def test_float_sites_finds_json_loads_without_parse_float():
    source = (
        "a = json.load(h)\n"
        "b = json.loads(s)\n"
        "c = json.loads(s, parse_float=Fraction)\n"
        "d = json.dumps(a)\n"
    )
    assert float_sites(source) == [(1, "json float parse"), (2, "json float parse")]


def test_every_module_is_scanned():
    assert {p.name for p in MODULES} >= {"koszul.py", "hochschild.py", "linalg.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_introduces_no_float(path):
    assert float_sites(path.read_text(encoding="utf-8")) == [], path.name


def fraction_calls_outside(source: str, allowed: str) -> list[int]:
    """Lines of every Fraction(...) call outside the top-level function
    named `allowed`."""
    lines = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef) and top.name == allowed:
            continue
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "Fraction"
            ):
                lines.append(node.lineno)
    return sorted(lines)


def test_fraction_calls_outside_finds_each_site():
    source = (
        "F1 = Fraction(1)\n"
        "def exact(c):\n"
        "    return Fraction(c)\n"
        "def tails(rows):\n"
        "    return [Fraction(x, 2) for x in rows]\n"
    )
    assert fraction_calls_outside(source, "exact") == [1, 5]


def test_linalg_builds_fractions_only_in_exact():
    source = (PACKAGE / "linalg.py").read_text(encoding="utf-8")
    assert fraction_calls_outside(source, "exact") == []
