"""Smoke tests: the scripts in scripts/ run end to end at (2, 2).

The critical-degree report's full stdout is pinned in
`tests/golden/script-critical-degree-report-2-2.out`.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def run_script(name, *args, code=0):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        encoding="utf-8",
        env=env,
        timeout=120,
    )
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    return done.stdout


def test_critical_degree_report_22():
    out = run_script("critical_degree_report.py", "2", "2")
    lines = out.splitlines()
    assert "coboundary rank: 10" in lines
    assert "cohomology dimension: 1" in lines
    assert out == (GOLDEN / "script-critical-degree-report-2-2.out").read_text(encoding="utf-8")


def test_deformation_demo_22():
    lines = run_script("deformation_demo.py", "2", "2").splitlines()
    assert sum(1 for line in lines if line.startswith(" * ")) == 1
    assert (
        "higher product on the dual side: m_4(y21 ⊗ y22 ⊗ y32 ⊗ x2) = x11 y11"
        in lines
    )


def test_deformation_demo_needs_adams_below_22():
    # (1, 2) has no critical degree: a usage error, not a traceback
    assert run_script("deformation_demo.py", "1", "2", code=2) == ""
    out = run_script("deformation_demo.py", "1", "2", "--adams", "0")
    assert out.splitlines()[-1] == "nothing to deform in this degree"
