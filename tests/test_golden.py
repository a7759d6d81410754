"""Golden stdout: every verb at (2,2), (3,2) and (2,3), byte for byte.

The bar oracle is pinned at (2,2) in Adams degrees -2 (JSON), 0 and 2.
At (2,4), the smallest golden size whose reduction system has left-hand
sides of lengths 2, 3 and 4, the rewriting and HH^2 verbs are pinned as
well.  `hh2-table 3 3` pins every tabulated degree at (3, 3).
`deform 2 2 --alpha2 2/3` pins a deformation with a non-integral
parameter, and `reduction-system 3 3` the smallest size whose rules
carry the coefficient 2.  `dim 6 5` and `dim 7 7` (text and JSON) pin
every graded coefficient at the sizes the benchmark and the README
quote.
`relations 3 3`, `relations 4 3` and `diamond 3 4` (526 overlaps) pin
the K relation rows and the diamond check at the benchmark's sizes.
`verify 3 3` and `verify 3 4` pin the basis dimension and the graded
count certificate above (2, 4).  `reduction-system 4 3`,
`reduction-system 3 4`, `kl 4 3` and `relations 3 4` pin the dual
rules, the KL table and the K relation rows at the sizes that the
benchmark's `verify` ops certify.  `hh2 3 3 --adams 12` and
`hh2 4 3 --adams 18` pin the critical normal vector above (2, 4).

Each command runs in-process through `cli.main`; its stdout must equal
`tests/golden/<slug>.out` and its exit code must be 0.  Stderr carries
timings and is not compared.  The files pin behaviour across
refactors; regenerate them only for an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import re
import sys
from pathlib import Path

import pytest

from arcdual import cli

GOLDEN = Path(__file__).parent / "golden"

VERBS = (
    ("weights",),
    ("dim",),
    ("quiver", "--dot"),
    ("quiver", "--dual", "--json"),
    ("relations",),
    ("reduction-system",),
    ("diamond",),
    ("kl",),
    ("hh2", "--adams", "0", "--json"),
    ("hh2-table",),
    ("deform", "--emit-relations"),
    ("verify",),
)

COMMANDS = [
    (verb[0], m, n, *verb[1:])
    for m, n in (("2", "2"), ("3", "2"), ("2", "3"))
    for verb in VERBS
] + [
    ("hh2", "2", "2", "--adams", "0", "--oracle", "bar"),
    ("hh2", "2", "2", "--adams", "-2", "--oracle", "bar", "--json"),
    ("hh2", "2", "2", "--adams", "2", "--oracle", "bar"),
    ("reduction-system", "2", "4"),
    ("diamond", "2", "4"),
    ("deform", "2", "4", "--emit-relations"),
    ("verify", "2", "4"),
    ("hh2-table", "2", "4"),
    ("hh2-table", "3", "3"),
    ("hh2", "2", "4", "--adams", "10", "--json"),
    ("deform", "2", "2", "--alpha2", "2/3", "--emit-relations"),
    ("reduction-system", "3", "3"),
    ("dim", "6", "5"),
    ("dim", "7", "7"),
    ("dim", "7", "7", "--json"),
    ("relations", "3", "3"),
    ("relations", "4", "3"),
    ("diamond", "3", "4"),
    ("verify", "3", "3"),
    ("verify", "3", "4"),
    ("reduction-system", "4", "3"),
    ("reduction-system", "3", "4"),
    ("kl", "4", "3"),
    ("relations", "3", "4"),
    ("hh2", "3", "3", "--adams", "12", "--json"),
    ("hh2", "4", "3", "--adams", "18", "--json"),
]


def slug(argv) -> str:
    # a negative number keeps its sign, so `--adams -2` and `--adams 2` differ
    words = ("minus" + a[1:] if re.fullmatch(r"-\d+", a) else a for a in argv)
    return re.sub(r"[^A-Za-z0-9]+", "-", " ".join(words)).strip("-")


def run(argv):
    return cli.main(list(argv))


@pytest.mark.parametrize("argv", COMMANDS, ids=slug)
def test_golden_stdout(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{slug(argv)}.out").read_bytes()


def _regenerate() -> None:
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for argv in COMMANDS:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = run(argv)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        (GOLDEN / f"{slug(argv)}.out").write_bytes(buffer.getvalue().encode("utf-8"))


if __name__ == "__main__":
    _regenerate()
    sys.exit(0)
