"""Workload definitions shared by the runner and the traced op process.

Each op is one `arcdual` CLI call.  `argv` is what the CLI receives,
`env` the extra environment it runs with, and `expected/<id>.out` its
committed stdout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"


@dataclass(frozen=True)
class Op:
    id: str
    argv: tuple[str, ...]
    env: dict = field(default_factory=dict)

    def expected(self) -> str:
        return (EXPECTED / f"{self.id}.out").read_text(encoding="utf-8")


OPS = {
    op.id: op
    for op in (
        Op("verify-4-3", ("verify", "4", "3")),
        Op("verify-3-4", ("verify", "3", "4")),
        Op("deform-4-3", ("deform", "4", "3", "--emit-relations")),
        Op("hh2-3-3-q8", ("hh2", "3", "3", "--adams", "8")),
        Op("hh2-table-3-2", ("hh2-table", "3", "2")),
        Op("hh2-table-2-3", ("hh2-table", "2", "3")),
        Op("verify-2-2", ("verify", "2", "2")),
        Op(
            "hh2-bar-3-2-q6",
            ("hh2", "3", "2", "--adams", "6", "--oracle", "bar"),
            {"ARCDUAL_BAR_CAPACITY": "421"},
        ),
        Op("dim-6-5", ("dim", "6", "5")),
        Op("dim-5-5", ("dim", "5", "5")),
    )
}

WORKLOADS = {
    "certify": ("verify-4-3", "verify-3-4", "deform-4-3"),
    "hh2-sweep": ("hh2-3-3-q8", "hh2-table-3-2", "hh2-table-2-3"),
    "bar-oracle": ("verify-2-2", "hh2-bar-3-2-q6"),
    "dim": ("dim-6-5", "dim-5-5"),
}
