"""Benchmark of the `arcdual` CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

A workload is a fixed list of `arcdual` CLI calls (see workloads.py).
One client runs them one after another, each in a fresh Python process,
so every run pays the cold `lru_cache` fills a user pays.  The seed only
permutes the order of the calls within a pass; every call's stdout is
checked against `perfbench/expected/`, so results cannot depend on it.

--trace 0 measures the end-to-end metrics: wall time and CPU time of a
pass, the peak RSS of its processes and the import time every call pays.
--trace 1 runs every op of every workload through trace_op.py and
reports per-layer spans and counts; it also runs the chosen workload
untraced once to report the tracing overhead.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  `--workload all` runs the four
workloads in turn and prefixes each metric with its workload's name.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import OPS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
PEAK_FILE = WORK / "op-peak-kb"
# One CLI op: `python3 -c CLI <peak file> <args>`.  At exit the op
# writes its own peak RSS (VmHWM) to the peak file.  ru_maxrss from
# wait4 cannot serve: a child inherits the runner's peak RSS at exec.
CLI = """\
import atexit, sys
peak_file = sys.argv.pop(1)


def record_peak():
    with open("/proc/self/status") as status, open(peak_file, "w") as out:
        out.write(next(line.split()[1] for line in status if line.startswith("VmHWM:")))


atexit.register(record_peak)
from arcdual.cli import main
sys.exit(main())
"""
SETUP_SAMPLES = 9
# A run stops starting ops at this point, so that it exits within 180 s.
DEADLINE_S = 165.0


# Per-layer metrics of the traced run.  A timing sums the spans of one
# name over the ops of one workload ("*" means every workload); a count
# sums the counter of that name the same way.
LAYER_TIMES = {
    "presentation.relations_K_s": ("presentation.relations_K", "certify"),
    "presentation.verify_rho_s": ("presentation.verify_rho", "certify"),
    "koszul.reduction_system_s": ("koszul.reduction_system", "certify"),
    "koszul.certify_dual_system_s": ("koszul.certify_dual_system", "certify"),
    "koszul.certify_graded_dimensions_s": ("koszul.certify_graded_dimensions", "certify"),
    "koszul.verify_long_relations_s": ("koszul.verify_long_relations", "certify"),
    "rewrite.check_diamond_s": ("rewrite.check_diamond", "certify"),
    "rewrite.enumerate_overlaps_s": ("rewrite.enumerate_overlaps", "certify"),
    "hochschild.critical_cochain2_basis_s": ("hochschild.cochain2_basis", "certify"),
    "hochschild.critical_cocycle_constraints_s": ("hochschild.cocycle_constraints", "certify"),
    "hochschild.critical_hh2_certificate_s": ("hochschild.hh2_certificate", "certify"),
    "hochschild.extract_cocycle_s": ("hochschild.extract_cocycle", "certify"),
    "hochschild.deformed_algebra_s": ("hochschild.deformed_algebra", "certify"),
    "hochschild.cochain2_basis_s": ("hochschild.cochain2_basis", "hh2-sweep"),
    "hochschild.cocycle_constraints_s": ("hochschild.cocycle_constraints", "hh2-sweep"),
    "hochschild.coboundary_matrix_s": ("hochschild.coboundary_matrix", "hh2-sweep"),
    "hochschild.hh2_certificate_s": ("hochschild.hh2_certificate", "hh2-sweep"),
    "linalg.rank_s": ("linalg.rank", "hh2-sweep"),
    "hochschild.hh2_bar_oracle_s": ("hochschild.hh2_bar_oracle", "bar-oracle"),
    "arc_algebra.enumerate_basis_s": ("arc_algebra.enumerate_basis", "dim"),
    "arc_algebra.graded_dimension_s": ("arc_algebra.graded_dimension", "dim"),
}

LAYER_COUNTS = {
    "presentation.rho_blocks": "certify",
    "koszul.rules": "certify",
    "koszul.dual_dimension": "certify",
    "koszul.graded_buckets": "certify",
    "rewrite.overlaps": "certify",
    "linalg.rank": "hh2-sweep",
    "linalg.rows": "hh2-sweep",
    "hochschild.bar_positive_paths": "bar-oracle",
    "hochschild.bar_attempts": "*",
    "hochschild.bar_refusals": "*",
    "arc_algebra.basis_size": "dim",
    "cache.arc_algebra.multiply_diagrams": "*",
    "cache.koszul.kl_poly": "*",
    "cache.hochschild.cochain2_basis": "*",
}

# Matrix shapes per Adams degree on hh2-sweep: the sizes the exact
# linear algebra works on.  Degrees above 6 of the small tables give
# matrices of at most one row and are left out.
SHAPE_KEYS = ("constraint_rows", "constraint_nnz", "coboundary_rows", "coboundary_cols", "coboundary_nnz")
SHAPE_DEGREES = ((3, 3, 8),) + tuple((m, n, q) for m, n in ((3, 2), (2, 3)) for q in range(0, 7, 2))
LAYER_COUNTS.update(
    {f"hochschild.{key}.{m}x{n}.q{q}": "hh2-sweep" for m, n, q in SHAPE_DEGREES for key in SHAPE_KEYS}
)


@dataclass(frozen=True)
class Child:
    """Outcome of one child process."""

    wall: float
    cpu: float
    code: int
    stdout: str
    stderr: str


def child_env(extra: dict) -> dict:
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith(("ARCDUAL_", "PYTHON"))
    }
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.update(extra)
    return env


def spawn(args: list[str], extra_env: dict, deadline: float) -> Child:
    """Run `python3 <args>` to completion and measure it with wait4."""
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=out, stderr=err, env=child_env(extra_env), cwd=ROOT
        )
        timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            wall,
            usage.ru_utime + usage.ru_stime,
            proc.returncode,
            out.read().decode("utf-8", "replace"),
            err.read().decode("utf-8", "replace"),
        )


def op_failure(op_id: str, child: Child, stdout: str) -> str | None:
    """Why an op failed, or None.  An op fails if it exits non-zero,
    prints a `failed` line, or prints other stdout than expected."""
    if child.code != 0:
        return f"exit code {child.code}: {child.stderr.strip()[-400:]}"
    if any(line.startswith("failed") for line in stdout.splitlines()):
        return "printed a failed line"
    if stdout != OPS[op_id].expected():
        return "stdout differs from expected/" + op_id + ".out"
    return None


def preflight(deadline: float) -> None:
    """Compile the bytecode in one untimed call and check that the
    package comes from this checkout."""
    if not (SRC / "arcdual" / "cli.py").is_file():
        raise SystemExit(f"error: no arcdual sources under {SRC}")
    WORK.mkdir(parents=True, exist_ok=True)
    probe = spawn(["-c", "import arcdual.cli; print(arcdual.cli.__file__)"], {}, deadline)
    found = Path(probe.stdout.strip() or ".").resolve()
    if probe.code != 0 or found != (SRC / "arcdual" / "cli.py").resolve():
        raise SystemExit(f"error: cannot import arcdual.cli from {SRC}: {probe.stderr.strip()}")


def setup_seconds(deadline: float) -> float:
    """Median fresh-process `import arcdual.cli` time."""
    return statistics.median(
        spawn(["-c", "import arcdual.cli"], {}, deadline).wall for _ in range(SETUP_SAMPLES)
    )


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.rglob("*.py"), *HERE.glob("expected/*")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, op_id: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{op_id}: {reason}")
            print(f"FAILED {op_id}: {reason}")


def run_pass(ops, tally: Tally, deadline: float):
    """One closed-loop pass: each op after the previous one exits.
    Returns (wall, cpu, peak_rss_mb), or None if the deadline cut it."""
    cpu = rss = 0.0
    start = time.perf_counter()
    for op_id in ops:
        if time.perf_counter() >= deadline:
            return None
        op = OPS[op_id]
        PEAK_FILE.unlink(missing_ok=True)
        child = spawn(["-c", CLI, str(PEAK_FILE), *op.argv], op.env, deadline)
        tally.record(op_id, op_failure(op_id, child, child.stdout))
        cpu += child.cpu
        if PEAK_FILE.exists():
            rss = max(rss, int(PEAK_FILE.read_text()) / 1024.0)
    return time.perf_counter() - start, cpu, rss


def measure(workload: str, seed: int, seconds: float, deadline: float, tally: Tally) -> dict:
    """End-to-end metrics: passes until another would overrun `seconds`."""
    setup = setup_seconds(deadline)
    rng = random.Random(seed)
    passes = []
    start = time.perf_counter()
    while True:
        order = list(WORKLOADS[workload])
        rng.shuffle(order)
        result = run_pass(order, tally, deadline)
        if result is None:
            break
        passes.append(result)
        typical = statistics.median(p[0] for p in passes)
        if time.perf_counter() - start + typical > seconds:
            break
    if not passes:
        raise SystemExit("error: deadline reached before a whole pass")
    print(
        f"{workload}: medians over {len(passes)} passes of {len(WORKLOADS[workload])} ops "
        f"(no percentile above the median has 10 samples beyond it)"
    )
    return {
        "wall_s": (statistics.median(p[0] for p in passes), "s"),
        "cpu_s": (statistics.median(p[1] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p[2] for p in passes), "MB"),
        "setup_s": (setup, "s"),
    }


def trace(workload: str, seed: int, deadline: float, tally: Tally) -> dict:
    """Per-layer metrics from one traced pass over every workload."""
    # Counts must repeat exactly between two traced runs of the same
    # code, so each traced run keeps them for the next one.
    digest = source_digest()
    state = WORK / f"trace-{digest[:16]}.json"
    previous = json.loads(state.read_text())["counts"] if state.exists() else None
    rng = random.Random(seed)
    per_op: dict = {}
    for name, ops in WORKLOADS.items():
        order = list(ops)
        rng.shuffle(order)
        for op_id in order:
            op = OPS[op_id]
            child = spawn([str(HERE / "trace_op.py"), op_id], op.env, deadline)
            if child.code != 0:
                tally.record(op_id, op_failure(op_id, child, ""))
                continue
            record = json.loads(child.stdout.splitlines()[-1])
            reason = op_failure(op_id, child, record["stdout"])
            if reason is None and previous is not None and record["counts"] != previous.get(op_id):
                reason = f"counts differ from the previous traced run ({state.name})"
            tally.record(op_id, reason)
            record["wall"] = child.wall
            per_op[op_id] = record
    if previous is None:
        print(f"first traced run of this code; its counts are kept in {state.name}")
    else:
        print(f"counts checked against the previous traced run ({state.name})")
    if len(per_op) != len(OPS):
        raise SystemExit("error: a traced op failed; see above")

    def span_sum(op_ids, span=None, path=None):
        return sum(
            end - start
            for op_id in op_ids
            for name, start, end, kind in per_op[op_id]["spans"]
            if (span is None or name == span) and (path is None or kind == path)
        )

    def ops_of(source):
        return list(OPS) if source == "*" else list(WORKLOADS[source])

    metrics = {}
    for metric, (span, source) in LAYER_TIMES.items():
        metrics[metric] = (span_sum(ops_of(source), span), "s")
    for metric, source in LAYER_COUNTS.items():
        total = sum(per_op[o]["counts"].get(metric, 0) for o in ops_of(source))
        metrics[metric] = (total, "count")
    metrics["linalg.rank_per_row"] = (
        metrics["linalg.rank"][0] / metrics["linalg.rows"][0],
        "ratio",
    )
    metrics["hochschild.bar_refused"] = (
        metrics["hochschild.bar_refusals"][0] / metrics["hochschild.bar_attempts"][0],
        "ratio",
    )
    # Process start, import and output formatting: op wall time minus
    # the spans inside the op, summed over every op.
    metrics["cli.self_s"] = (
        sum(per_op[o]["wall"] for o in OPS) - span_sum(OPS),
        "s",
    )
    # Tracing overhead on the chosen workload: the traced blocking path
    # plus cli.self_s against one untraced pass of the same ops.
    ops = WORKLOADS[workload]
    traced = sum(per_op[o]["wall"] for o in ops) - span_sum(ops, path="probe")
    untraced = run_pass(list(ops), tally, deadline)
    if untraced is None:
        raise SystemExit("error: deadline reached before the untraced pass")
    metrics["trace.traced_s"] = (traced, "s")
    metrics["trace.untraced_s"] = (untraced[0], "s")
    metrics["trace.overhead"] = (traced / untraced[0] - 1.0, "ratio")

    state.write_text(
        json.dumps(
            {
                "digest": digest,
                "counts": {o: per_op[o]["counts"] for o in sorted(per_op)},
                "spans": {o: per_op[o]["spans"] for o in sorted(per_op)},
                "metrics": {k: v[0] for k, v in metrics.items()},
            },
            indent=1,
        )
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all" and args.trace:
        parser.error("--trace 1 takes a single workload; it traces all of them anyway")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    started = time.perf_counter()
    deadline = started + DEADLINE_S * len(names)
    preflight(deadline)
    load_start = os.getloadavg()
    tally = Tally()
    metrics: dict = {}
    for name in names:
        if args.trace:
            found = trace(name, args.seed, deadline, tally)
        else:
            found = measure(name, args.seed, args.seconds, deadline, tally)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in found.items()})
    context = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "elapsed_s": round(time.perf_counter() - started, 3),
    }
    print("context " + json.dumps(context))
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.6f} {unit}")
    failed = len(tally.failures)
    print(f"  fail_ratio {failed}/{tally.attempted} = {failed / max(tally.attempted, 1):.3f}")
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
