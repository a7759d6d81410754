"""Smoke tests: the scripts in scripts/ run end to end at (2, 2)."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
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
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_critical_degree_report_22():
    lines = run_script("critical_degree_report.py", "2", "2")
    assert "coboundary rank: 10" in lines
    assert "cohomology dimension: 1" in lines


def test_deformation_demo_22():
    lines = run_script("deformation_demo.py", "2", "2")
    assert sum(1 for line in lines if line.startswith(" * ")) == 1
    assert (
        "higher product on the dual side: m_4(y21 ⊗ y22 ⊗ y32 ⊗ x2) = x11 y11"
        in lines
    )
