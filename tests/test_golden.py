"""Golden stdout: every verb at (2,2), (3,2) and (2,3), byte for byte.

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
] + [("hh2", "2", "2", "--adams", "0", "--oracle", "bar")]


def slug(argv) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "-", " ".join(argv)).strip("-")


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
