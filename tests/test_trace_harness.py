"""The traced benchmark harness still runs against the library.

`perfbench/trace_op.py` rebuilds an op's stdout from the public return
values and reads the dense `ConstraintSystem.matrix` view for its shape
counts and rank probe.  Each op runs in a fresh process, as the
benchmark runs it; the rebuilt stdout must equal the committed expected
output, and the shape counts (rows, columns and nonzeros of the
constraint and coboundary matrices per Adams degree) are pinned.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

SHAPES = (
    "constraint_rows",
    "constraint_nnz",
    "coboundary_rows",
    "coboundary_cols",
    "coboundary_nnz",
)

# per tag: the counts in SHAPES order
EXPECTED_SHAPES = {
    "hh2-table-3-2": {
        "3x2.q0": (30, 154, 43, 28, 140),
        "3x2.q2": (20, 150, 55, 46, 240),
        "3x2.q4": (6, 38, 32, 44, 166),
        "3x2.q6": (0, 0, 11, 24, 52),
        "3x2.q8": (0, 0, 1, 8, 6),
        "3x2.q10": (0, 0, 0, 2, 0),
    },
    "hh2-3-3-q8": {"3x3.q8": (34, 300, 126, 148, 762)},
}

# the rank probe: total rank and rows ranked
EXPECTED_RANK = {"hh2-table-3-2": (131, 198), "hh2-3-3-q8": (123, 160)}


def trace(op_id: str) -> dict:
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path), "PYTHONHASHSEED": "0"}
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "trace_op.py"), op_id],
        capture_output=True,
        text=True,
        encoding="utf-8",
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("op_id", sorted(EXPECTED_SHAPES))
def test_trace_op_rebuilds_expected_stdout_and_shapes(op_id):
    record = trace(op_id)
    expected = (PERFBENCH / "expected" / f"{op_id}.out").read_text(encoding="utf-8")
    assert record["stdout"] == expected
    counts = record["counts"]
    prefix = "hochschild.constraint_rows."
    tags = {key.removeprefix(prefix) for key in counts if key.startswith(prefix)}
    assert tags == set(EXPECTED_SHAPES[op_id])
    for tag, values in EXPECTED_SHAPES[op_id].items():
        got = tuple(counts[f"hochschild.{name}.{tag}"] for name in SHAPES)
        assert got == values, tag
    assert (counts["linalg.rank"], counts["linalg.rows"]) == EXPECTED_RANK[op_id]
