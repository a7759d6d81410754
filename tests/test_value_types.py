"""Value types are immutable NamedTuples, and the CLI imports no
`dataclasses`.

Every arcdual number comes from a fresh process, so the import cost of
the package is paid on every call.  Decorating frozen dataclasses cost
most of it, and importing `dataclasses` pulls in `inspect`.  The value
types are NamedTuples instead: equality and hashing run on C tuples.
This file pins their contract (immutable fields, equality and hash on
the fields, unchanged reprs and defaults) and guards the import: the
CLI loads no library layer until a verb runs, and `dim` loads only the
arc diagram layers.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "arcdual"
MODULES = sorted(PACKAGE.glob("*.py"))

VALUE_TYPES = {
    "arc_algebra": ("ArcDiagram",),
    "combinatorics": ("CupDiagram",),
    "presentation": ("Arrow", "Graph", "RelationBlock", "RelationSet", "RhoReport"),
    "rewrite": ("Path", "Rule", "Overlap", "DiamondReport"),
    "koszul": (
        "TaggedLhs",
        "KLPolynomial",
        "DualSystemReport",
        "GradedDimensionReport",
        "LongRelationReport",
    ),
    "hochschild": (
        "Cochain2",
        "Cochain1",
        "ConstraintSystem",
        "HH2Certificate",
        "DeformationReport",
    ),
}
CLASSES = [
    getattr(importlib.import_module(f"arcdual.{module}"), name)
    for module, names in VALUE_TYPES.items()
    for name in names
]
# the two types that cache a value per instance, and so keep a __dict__
CACHING = {"Arrow", "RelationSet"}
# repr overridden to the notation the CLI prints
OWN_REPR = {"ArcDiagram", "Arrow", "Path"}


def sample(cls, tag=""):
    """An instance with hashable placeholder values, one per field."""
    return cls(*(f"{field}{tag}" for field in cls._fields))


def test_every_named_tuple_in_the_package_is_listed():
    found = set()
    for path in MODULES:
        mod = importlib.import_module(f"arcdual.{path.stem}".removesuffix(".__init__"))
        for obj in vars(mod).values():
            if isinstance(obj, type) and issubclass(obj, tuple) and obj.__module__ == mod.__name__:
                found.add(obj)
    assert found == set(CLASSES)
    assert len(CLASSES) == 21


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_are_read_only(cls):
    x = sample(cls)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(x, field, "other")
    assert x == sample(cls)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_and_hash_are_on_the_fields(cls):
    x, y = sample(cls), sample(cls)
    assert x is not y and x == y and hash(x) == hash(y)
    assert {x: 1}[y] == 1
    assert x != sample(cls, "'")
    # the same hash a frozen dataclass had: set orders are unchanged
    assert hash(x) == hash(tuple(getattr(x, f) for f in cls._fields))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_instances_carry_no_dict_unless_they_cache(cls):
    assert hasattr(sample(cls), "__dict__") == (cls.__name__ in CACHING)


@pytest.mark.parametrize(
    "cls", [c for c in CLASSES if c.__name__ not in OWN_REPR], ids=lambda c: c.__name__
)
def test_report_repr_names_every_field(cls):
    x = sample(cls)
    fields = ", ".join(f"{f}={getattr(x, f)!r}" for f in cls._fields)
    assert repr(x) == f"{cls.__name__}({fields})"


def test_notation_reprs():
    from arcdual.arc_algebra import ArcDiagram
    from arcdual.koszul import KLPolynomial
    from arcdual.presentation import Arrow
    from arcdual.rewrite import Path as P

    assert repr(P("v^", ("a", "b"), "^v")) == "<a b>"
    assert repr(P("v^", (), "v^")) == "<v^>"
    assert repr(ArcDiagram("v^", "^v", "v^")) == "(v^|^v|v^)"
    assert repr(Arrow("x", "v^", "^v")) == "x:v^->^v"
    assert str(KLPolynomial((1, 0, -2))) == "1 - 2q^2"


def test_path_length_counts_arrows():
    from arcdual.rewrite import Path as P

    p = P("s", ("a", "b", "c"), "t")
    assert len(p) == 3 and p
    e = P("s", (), "s")
    assert len(e) == 0 and not e
    # a plain tuple with the same fields is equal: keys must not be mixed
    assert p == ("s", ("a", "b", "c"), "t")
    # _make and _replace check the field count with len(): unusable on Path
    with pytest.raises(TypeError):
        P("s", ("a",), "t")._replace(end="u")


def test_defaults_are_unchanged():
    from arcdual.hochschild import ConstraintSystem
    from arcdual.rewrite import Path as P
    from arcdual.rewrite import Rule

    assert {c.__name__: c._field_defaults for c in CLASSES if c._field_defaults} == {
        "Rule": {"rhs_t": (), "tag": ""},
        "ConstraintSystem": {"by_column": False},
    }
    rule = Rule(P("s", ("a",), "t"), ())
    assert rule.rhs_t == () and rule.tag == ""
    assert ConstraintSystem((), (), ()).by_column is False


def dataclass_imports(source: str) -> list[int]:
    """Lines that import `dataclasses` or anything from it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and any(
            a.name.split(".")[0] == "dataclasses" for a in node.names
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses":
            lines.append(node.lineno)
    return sorted(lines)


def test_dataclass_imports_finds_each_form():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "import os, dataclasses as dc\n"
        "from typing import NamedTuple\n"
    )
    assert dataclass_imports(source) == [1, 2, 3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_no_dataclasses(path):
    assert dataclass_imports(path.read_text(encoding="utf-8")) == [], path.name


LAYERS = {f"arcdual.{m}" for m in ("hochschild", "koszul", "rewrite", "presentation")}
IMPORT_PROBES = {
    "import-cli": ("import arcdual.cli", {"dataclasses", "inspect"}),
    # each verb imports the library layers it reads, and only when run
    "import-cli-layers": ("import arcdual.cli", LAYERS | {"arcdual.linalg"}),
    # `dim` counts from the arc diagrams alone
    "dim-6-5": (
        "import io\n"
        "import arcdual.cli\n"
        "sys.stdout = io.StringIO()\n"
        "arcdual.cli.main(['dim', '6', '5'])\n",
        LAYERS,
    ),
    # `weights` sorts by `combinatorics.vertex_order` and reads nothing else
    "weights-3-2": (
        "import io\n"
        "import arcdual.cli\n"
        "sys.stdout = io.StringIO()\n"
        "arcdual.cli.main(['weights', '3', '2'])\n",
        LAYERS | {"arcdual.arc_algebra", "arcdual.linalg"},
    ),
}


@pytest.mark.parametrize("case", IMPORT_PROBES)
def test_cli_import_loads_neither_dataclasses_nor_inspect(case):
    run, watch = IMPORT_PROBES[case]
    # a fresh process with the environment the benchmark gives its ops
    env = {k: v for k, v in os.environ.items() if not k.startswith(("ARCDUAL_", "PYTHON"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    probe = (
        "import sys\n"
        f"watch = {sorted(watch)!r}\n"
        "before = set(watch) & set(sys.modules)\n"
        f"{run}\n"
        "print(sorted((set(watch) & set(sys.modules)) - before), file=sys.__stdout__)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
