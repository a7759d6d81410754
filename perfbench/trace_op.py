"""Traced run of one workload op, in a fresh process.

Usage: PYTHONPATH=src python3 perfbench/trace_op.py <op-id>

Instead of going through the CLI, this calls the public functions of
each `arcdual` layer in the order the CLI verb reaches them, lower
layers first, so that every cold `lru_cache` fill is charged to the
layer that does it.  Each call is a span.  Spans on the blocking path
are the work the CLI verb does; probe spans re-run a step to measure it
on its own and are off the blocking path.  The op's stdout is rebuilt
from the public return values so the caller can check it against the
committed expected output.

Prints one JSON object: {"op", "stdout", "spans", "counts"}, where a
span is [name, start, end, "block" | "probe"] in `perf_counter` seconds.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from time import perf_counter

from workloads import OPS

from arcdual import arc_algebra, hochschild as hh, koszul, linalg, presentation
from arcdual import rewrite as rw
from arcdual.errors import CapacityError


class Trace:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self.lines: list[str] = []

    def call(self, name: str, fn, *args, probe: bool = False):
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append([name, start, perf_counter(), "probe" if probe else "block"])

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def out(self, line: str = "") -> None:
        self.lines.append(line)


def _nnz(matrix) -> int:
    return sum(1 for row in matrix for x in row if x)


def hh2_cert(t: Trace, m: int, n: int, q: int, probe_rank: bool = False):
    """The chain behind `hh2_certificate`, lower layers first."""
    t.call("hochschild.cochain2_basis", hh.cochain2_basis, m, n, q)
    cons = t.call("hochschild.cocycle_constraints", hh.cocycle_constraints, m, n, q)
    cob = t.call("hochschild.coboundary_matrix", hh.coboundary_matrix, m, n, q)
    cert = t.call("hochschild.hh2_certificate", hh.hh2_certificate, m, n, q)
    tag = f"{m}x{n}.q{q}"
    t.counts[f"hochschild.constraint_rows.{tag}"] = len(cons.matrix)
    t.counts[f"hochschild.constraint_nnz.{tag}"] = _nnz(cons.matrix)
    t.counts[f"hochschild.coboundary_rows.{tag}"] = len(cob.rows)
    t.counts[f"hochschild.coboundary_cols.{tag}"] = len(cob.cols)
    t.counts[f"hochschild.coboundary_nnz.{tag}"] = _nnz(cob.matrix)
    if probe_rank:
        # Probe: exact rank re-run on the extracted matrices.
        ranks = 0
        if cons.matrix:
            ranks += t.call("linalg.rank", linalg.rank, list(cons.matrix), probe=True)
        if cob.rows and cob.cols:
            ranks += t.call("linalg.rank", linalg.rank, [list(r) for r in cob.matrix], probe=True)
        if ranks != cert.constraint_rank + cert.image_rank:
            raise SystemExit(f"linalg.rank probe disagrees with the certificate at {tag}")
        t.count("linalg.rank", ranks)
        t.count("linalg.rows", len(cons.matrix) + len(cob.rows))
    return cert


def bar_oracle(t: Trace, m: int, n: int, q: int) -> int:
    t.count("hochschild.bar_attempts")
    try:
        return t.call("hochschild.hh2_bar_oracle", hh.hh2_bar_oracle, m, n, q)
    except CapacityError:
        t.count("hochschild.bar_refusals")
        raise


def bar_basis(t: Trace, m: int, n: int) -> None:
    """Probe: the bar basis size, counted with the public path enumeration."""
    system = koszul.reduction_system(m, n)
    positive = 0
    for source in system.quiver.vertices:
        paths = t.call(
            "rewrite.irreducible_paths_from",
            rw.irreducible_paths_from, system, source, 2 * m * n, probe=True,
        )
        positive += sum(1 for p in paths if p.arrows)
    t.count("hochschild.bar_positive_paths", positive)


def op_verify(t: Trace, m: int, n: int) -> None:
    t.call("arc_algebra.enumerate_basis", arc_algebra.enumerate_basis, m, n)
    t.call("presentation.relations_K", presentation.relations_K, m, n)
    rho = t.call("presentation.verify_rho", presentation.verify_rho, m, n)
    if not rho.ok:
        t.out("failed rho")
        return
    t.count("presentation.rho_blocks", rho.blocks_checked)
    t.out(f"ok rho ({rho.blocks_checked} blocks)")

    system = t.call("koszul.reduction_system", koszul.reduction_system, m, n)
    t.count("koszul.rules", len(system.rules))
    dual = t.call("koszul.certify_dual_system", koszul.certify_dual_system, m, n)
    if not dual.ok:
        t.out("failed dual-system")
        return
    t.count("koszul.dual_dimension", dual.dimension)
    t.count("rewrite.overlaps", dual.diamond.overlaps_checked)
    # Probes: the diamond check that certify_dual_system runs, on its own.
    overlaps = t.call("rewrite.enumerate_overlaps", rw.enumerate_overlaps, system, probe=True)
    diamond = t.call("rewrite.check_diamond", rw.check_diamond, system, probe=True)
    if len(overlaps) != diamond.overlaps_checked or diamond.overlaps_checked != dual.diamond.overlaps_checked:
        raise SystemExit("rewrite probes disagree with certify_dual_system")
    t.out(
        f"ok dual-system ({dual.diamond.overlaps_checked} overlaps, "
        f"dimension {dual.dimension})"
    )

    graded = t.call(
        "koszul.certify_graded_dimensions", koszul.certify_graded_dimensions, m, n
    )
    if not graded.ok:
        t.out("failed graded-dimensions")
        return
    t.count("koszul.graded_buckets", graded.buckets_checked)
    t.out(f"ok graded-dimensions ({graded.buckets_checked} buckets)")

    if m >= n >= 2:
        long_rel = t.call("koszul.verify_long_relations", koszul.verify_long_relations, m, n)
        if not long_rel.ok:
            t.out("failed long-relations")
            return
        t.out(f"ok long-relations ({long_rel.identities_checked} identities)")
    else:
        t.out("skipped long-relations (needs m >= n >= 2)")

    if m >= 2 and n >= 2:
        cert = hh2_cert(t, m, n, 2 * m * n - 6)
        t.out(f"ok hh2-critical (dimension {cert.dimension}, image rank {cert.image_rank})")
    else:
        t.out("skipped hh2-critical (needs m >= 2 and n >= 2)")

    try:
        for q in range(0, 2 * m * n - 1, 2):
            bar = bar_oracle(t, m, n, q)
            if bar != hh2_cert(t, m, n, q).dimension:
                t.out("failed bar-oracle")
                return
        t.out("ok bar-oracle (all even degrees)")
        bar_basis(t, m, n)
    except CapacityError:
        t.out("skipped bar-oracle (over capacity)")


def op_deform(t: Trace, m: int, n: int) -> None:
    q = 2 * m * n - 6
    t.call("koszul.reduction_system", koszul.reduction_system, m, n)
    hh2_cert(t, m, n, q)
    cocycle = t.call("hochschild.extract_cocycle", hh.extract_cocycle, m, n, q)
    report = t.call("hochschild.deformed_algebra", hh.deformed_algebra, m, n, cocycle)
    payload = {
        "m": m,
        "n": n,
        "alpha2": str(Fraction(1)),
        "adams": q,
        "order_one_ok": report.order_one.ok,
        "at_one_ok": report.at_one.ok,
        "a_infinity": report.a_infinity,
        "rules": [
            {
                "lhs": list(r.lhs.arrows),
                "tag": r.tag,
                "rhs": [{"coeff": str(c), "path": list(p.arrows)} for p, c in r.rhs],
                "rhs_t": [{"coeff": str(c), "path": list(p.arrows)} for p, c in r.rhs_t],
            }
            for r in report.system.rules
        ],
    }
    t.out(json.dumps(payload, indent=2, ensure_ascii=False))
    t.out()
    for line in report.relations:
        t.out(line)


def op_hh2_table(t: Trace, m: int, n: int) -> None:
    for q in range(0, 2 * m * n - 1, 2):
        hh2_cert(t, m, n, q, probe_rank=True)
    # The table itself; only its (q, dim) columns are read.
    for row in t.call("hochschild.hh2_table", hh.hh2_table, m, n):
        t.out(f"{row[0]} {row[1]}")


def op_hh2(t: Trace, m: int, n: int, q: int) -> None:
    cert = hh2_cert(t, m, n, q, probe_rank=True)
    payload = {
        "kernel_dim": cert.kernel_dim,
        "image_rank": cert.image_rank,
        "constraint_rank": cert.constraint_rank,
        "constraint_normal_vector": (
            list(cert.constraint_normal_vector)
            if cert.constraint_normal_vector is not None
            else None
        ),
    }
    t.out(str(cert.dimension))
    t.out(json.dumps(payload))


def op_hh2_bar(t: Trace, m: int, n: int, q: int) -> None:
    t.out(str(bar_oracle(t, m, n, q)))
    bar_basis(t, m, n)


def op_dim(t: Trace, m: int, n: int) -> None:
    basis = t.call("arc_algebra.enumerate_basis", arc_algebra.enumerate_basis, m, n)
    t.count("arc_algebra.basis_size", len(basis))
    graded = t.call("arc_algebra.graded_dimension", arc_algebra.graded_dimension, m, n)
    for k in sorted(graded):
        t.out(f"q={k} dim={graded[k]}")
    t.out(f"total {sum(graded.values())}")


def run(op_id: str) -> Trace:
    argv = OPS[op_id].argv
    verb, m, n = argv[0], int(argv[1]), int(argv[2])
    t = Trace()
    if verb == "verify":
        op_verify(t, m, n)
    elif verb == "deform":
        op_deform(t, m, n)
    elif verb == "hh2-table":
        op_hh2_table(t, m, n)
    elif verb == "hh2" and "--oracle" in argv:
        op_hh2_bar(t, m, n, int(argv[argv.index("--adams") + 1]))
    elif verb == "hh2":
        op_hh2(t, m, n, int(argv[argv.index("--adams") + 1]))
    elif verb == "dim":
        op_dim(t, m, n)
    else:
        raise SystemExit(f"no traced form for {verb!r}")
    t.counts["cache.arc_algebra.multiply_diagrams"] = arc_algebra.multiply_diagrams.cache_info().currsize
    t.counts["cache.koszul.kl_poly"] = koszul.kl_poly.cache_info().currsize
    t.counts["cache.hochschild.cochain2_basis"] = hh.cochain2_basis.cache_info().currsize
    return t


if __name__ == "__main__":
    op_id = sys.argv[1]
    trace = run(op_id)
    print(
        json.dumps(
            {
                "op": op_id,
                "stdout": "\n".join(trace.lines) + "\n",
                "spans": trace.spans,
                "counts": trace.counts,
            }
        )
    )
