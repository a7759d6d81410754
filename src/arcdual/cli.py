"""Command line front door.

Every verb maps onto one library operation and prints deterministic
output: rerunning a command gives byte-identical stdout.  Timings and
diagnostics go to stderr.  Exit codes: 0 success, 1 certification
failure (with the witness printed), 2 usage error, 3 capacity, fuel or
memory exhaustion.  Rational numbers appear in JSON as strings "p/q".
"""

import argparse
import json
import sys
import time
from fractions import Fraction

from . import arc_algebra
from . import combinatorics as comb
from . import hochschild as hh
from . import koszul
from . import linalg
from . import presentation
from . import rewrite as rw
from .errors import CapacityError, CertificationError, FuelError


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2, ensure_ascii=False))


def _weight_order(w: str):
    return (comb.height(w), w)


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# verbs


def cmd_weights(args) -> int:
    weights = sorted(comb.enumerate_weights(args.m, args.n), key=_weight_order)
    if args.json:
        _emit_json({"m": args.m, "n": args.n, "weights": list(weights)})
    else:
        for w in weights:
            print(w)
    return 0


def cmd_dim(args) -> int:
    graded = arc_algebra.graded_dimension(args.m, args.n)
    total = sum(graded.values())
    if args.json:
        _emit_json(
            {
                "m": args.m,
                "n": args.n,
                "graded": {str(k): graded[k] for k in sorted(graded)},
                "total": total,
            }
        )
    else:
        for k in sorted(graded):
            print(f"q={k} dim={graded[k]}")
        print(f"total {total}")
    return 0


def cmd_quiver(args) -> int:
    if not args.dot and not args.json:
        return _usage("quiver needs one of --dot or --json")
    quiver = presentation.build_quiver(args.m, args.n, dual=args.dual)
    if args.dot:
        sys.stdout.write(presentation.quiver_dot(quiver))
        return 0
    _emit_json(
        {
            "m": args.m,
            "n": args.n,
            "dual": quiver.dual,
            "vertices": sorted(quiver.vertices, key=_weight_order),
            "arrows": [
                {
                    "name": a.name,
                    "kind": a.kind,
                    "source": a.source,
                    "target": a.target,
                }
                for a in sorted(quiver.arrows, key=lambda a: a.name)
            ],
        }
    )
    return 0


def _linear_string(paths, row) -> str:
    terms = []
    for p, c in zip(paths, row):
        if not c:
            continue
        word = " ".join(a.name for a in p)
        if c == 1:
            terms.append(f"+ {word}")
        elif c == -1:
            terms.append(f"- {word}")
        elif c > 0:
            terms.append(f"+ {c} {word}")
        else:
            terms.append(f"- {-c} {word}")
    joined = " ".join(terms)
    return joined[2:] if joined.startswith("+ ") else joined


def cmd_relations(args) -> int:
    relations = presentation.relations_K(args.m, args.n)
    if args.json:
        _emit_json(presentation.relations_json(relations))
        return 0
    for block in relations.blocks:
        if not block.rows:
            continue
        print(f"{block.source} -> {block.target}")
        for row in block.rows:
            normalized = linalg.primitive_integer_vector(row)
            print(f"  {_linear_string(block.paths, normalized)} = 0")
    return 0


def _rhs_string(rule) -> str:
    terms = []
    for p, c in rule.rhs:
        word = " ".join(p.arrows)
        if c == 1:
            terms.append(f"+ {word}")
        elif c == -1:
            terms.append(f"- {word}")
        else:
            terms.append(f"+ {c} {word}")
    if not terms:
        return "0"
    joined = " ".join(terms)
    return joined[2:] if joined.startswith("+ ") else joined


def cmd_reduction_system(args) -> int:
    system = koszul.reduction_system(args.m, args.n)
    if args.json:
        _emit_json(koszul.reduction_system_json(system))
        return 0
    for rule in system.rules:
        print(f"[{rule.tag}] {' '.join(rule.lhs.arrows)} -> {_rhs_string(rule)}")
    return 0


def _load_deformation(path_name: str, quiver):
    with open(path_name, encoding="utf-8") as handle:
        data = json.load(handle)
    assignment = {}
    for entry in data:
        lc: dict = {}
        for term in entry.get("rhs_t", ()):
            p = rw.make_path(quiver, list(term["path"]))
            rw.add_term(lc, p, Fraction(term["coeff"]))
        assignment[tuple(entry["lhs"])] = lc
    return assignment


def cmd_diamond(args) -> int:
    system = koszul.reduction_system(args.m, args.n)
    if args.deformed:
        try:
            assignment = _load_deformation(args.deformed, system.quiver)
            system = system.with_deformation(assignment)
        except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
            return _usage(f"cannot load deformation {args.deformed!r}: {exc}")
    report = rw.check_diamond(system, args.fuel)
    print(f"overlaps {report.overlaps_checked}")
    if report.ok:
        print("ok")
        return 0
    print("failed")
    print(f"witness: {report.failures[0]}", file=sys.stderr)
    return 1


def cmd_kl(args) -> int:
    weights = sorted(comb.enumerate_weights(args.m, args.n), key=_weight_order)
    entries = []
    for lam in weights:
        for mu in weights:
            poly = koszul.kl_poly(lam, mu)
            if poly.coefficients:
                entries.append((lam, mu, poly))
    if args.json:
        _emit_json(
            [
                {
                    "lam": lam,
                    "mu": mu,
                    "value": poly.at_one() if args.at_one else None,
                    "coefficients": list(poly.coefficients),
                }
                for lam, mu, poly in entries
            ]
        )
        return 0
    for lam, mu, poly in entries:
        shown = poly.at_one() if args.at_one else str(poly)
        print(f"{lam} {mu} {shown}")
    return 0


def cmd_hh2(args) -> int:
    if args.adams is None:
        return _usage("hh2 needs --adams q")
    if args.oracle == "bar":
        dim = hh.hh2_bar_oracle(args.m, args.n, args.adams)
        if args.json:
            _emit_json(
                {
                    "m": args.m,
                    "n": args.n,
                    "adams": args.adams,
                    "oracle": "bar",
                    "dimension": dim,
                }
            )
        else:
            print(dim)
        return 0
    cert = hh.hh2_certificate(args.m, args.n, args.adams)
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
    if args.json:
        _emit_json(
            {
                "m": args.m,
                "n": args.n,
                "adams": args.adams,
                "dimension": cert.dimension,
                "certificate": payload,
            }
        )
    else:
        print(cert.dimension)
        print(json.dumps(payload))
    return 0


def cmd_hh2_table(args) -> int:
    for q in range(0, 2 * args.m * args.n - 1, 2):
        started = time.perf_counter()
        dim = hh.hh2_dim(args.m, args.n, q)
        print(f"{q} {dim}")
        print(f"{q} {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return 0


def cmd_deform(args) -> int:
    try:
        scale = Fraction(args.alpha2)
    except (ValueError, ZeroDivisionError):
        return _usage(f"--alpha2 expects a rational number, got {args.alpha2!r}")
    q = 2 * args.m * args.n - 6
    cocycle: dict = {}
    if scale:
        for lhs, terms in hh.extract_cocycle(args.m, args.n, q).items():
            cocycle[lhs] = {p: c * scale for p, c in terms.items()}
    report = hh.deformed_algebra(args.m, args.n, cocycle, args.fuel)
    _emit_json(
        {
            "m": args.m,
            "n": args.n,
            "alpha2": str(scale),
            "adams": q,
            "order_one_ok": report.order_one.ok,
            "at_one_ok": report.at_one.ok,
            "a_infinity": report.a_infinity,
            "rules": [
                {
                    "lhs": list(r.lhs.arrows),
                    "tag": r.tag,
                    "rhs": [
                        {"coeff": str(c), "path": list(p.arrows)} for p, c in r.rhs
                    ],
                    "rhs_t": [
                        {"coeff": str(c), "path": list(p.arrows)} for p, c in r.rhs_t
                    ],
                }
                for r in report.system.rules
            ],
        }
    )
    if args.emit_relations:
        print()
        for line in report.relations:
            print(line)
    return 0


def cmd_verify(args) -> int:
    m, n = args.m, args.n
    bar_limit = hh.bar_capacity()

    def fail(name: str, witness) -> int:
        print(f"failed {name}")
        print(f"witness: {witness}", file=sys.stderr)
        return 1

    rho = presentation.verify_rho(m, n)
    if not rho.ok:
        return fail("rho", rho.mismatches[0])
    print(f"ok rho ({rho.blocks_checked} blocks)")

    dual = koszul.certify_dual_system(m, n, args.fuel)
    if not dual.ok:
        witness = dual.diamond.failures or dual.mismatches
        return fail("dual-system", witness[0])
    print(
        f"ok dual-system ({dual.diamond.overlaps_checked} overlaps, "
        f"dimension {dual.dimension})"
    )

    graded = koszul.certify_graded_dimensions(m, n)
    if not graded.ok:
        return fail("graded-dimensions", graded.mismatches[0])
    print(f"ok graded-dimensions ({graded.buckets_checked} buckets)")

    if m >= n >= 2:
        long_rel = koszul.verify_long_relations(m, n, args.fuel)
        if not long_rel.ok:
            return fail("long-relations", long_rel.failures[0])
        print(f"ok long-relations ({long_rel.identities_checked} identities)")
    else:
        print("skipped long-relations (needs m >= n >= 2)")

    if m >= 2 and n >= 2:
        cert = hh.hh2_certificate(m, n, 2 * m * n - 6)
        print(
            f"ok hh2-critical (dimension {cert.dimension}, "
            f"image rank {cert.image_rank})"
        )
    else:
        print("skipped hh2-critical (needs m >= 2 and n >= 2)")

    try:
        for q in range(0, 2 * m * n - 1, 2):
            bar = hh.hh2_bar_oracle(m, n, q, bar_limit)
            deform = hh.hh2_dim(m, n, q)
            if bar != deform:
                return fail(
                    "bar-oracle", {"adams": q, "bar": bar, "deformation": deform}
                )
        print("ok bar-oracle (all even degrees)")
    except CapacityError:
        print("skipped bar-oracle (over capacity)")

    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(sub):
    sub.add_argument("m", type=int)
    sub.add_argument("n", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcdual",
        description="Exact computations for diagrammatic arc algebras.",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("weights", help="list the weights of type (m, n)")
    _add_common(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_weights)

    p = subs.add_parser("dim", help="graded dimension of the arc algebra")
    _add_common(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_dim)

    p = subs.add_parser("quiver", help="export the quiver")
    _add_common(p)
    p.add_argument("--dual", action="store_true")
    p.add_argument("--dot", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_quiver)

    p = subs.add_parser("relations", help="quadratic relations of the algebra")
    _add_common(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_relations)

    p = subs.add_parser(
        "reduction-system", help="reduction system of the dual algebra"
    )
    _add_common(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_reduction_system)

    p = subs.add_parser("diamond", help="resolve all overlap ambiguities")
    _add_common(p)
    p.add_argument("--deformed", metavar="FILE")
    p.add_argument("--fuel", type=int, default=rw.DEFAULT_FUEL)
    p.set_defaults(func=cmd_diamond)

    p = subs.add_parser("kl", help="Kazhdan-Lusztig polynomial table")
    _add_common(p)
    p.add_argument("--at-one", action="store_true", dest="at_one")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_kl)

    p = subs.add_parser("hh2", help="degree-two Hochschild cohomology")
    _add_common(p)
    p.add_argument("--adams", type=int, required=True)
    p.add_argument("--oracle", choices=["bar"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_hh2)

    p = subs.add_parser("hh2-table", help="HH^2 in all even Adams degrees")
    _add_common(p)
    p.set_defaults(func=cmd_hh2_table)

    p = subs.add_parser("deform", help="deform along the distinguished cocycle")
    _add_common(p)
    p.add_argument("--alpha2", default="1")
    p.add_argument("--emit-relations", action="store_true", dest="emit_relations")
    p.add_argument("--fuel", type=int, default=rw.DEFAULT_FUEL)
    p.set_defaults(func=cmd_deform)

    p = subs.add_parser("verify", help="run every certification suite")
    _add_common(p)
    p.add_argument("--fuel", type=int, default=rw.DEFAULT_FUEL)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.m < 0 or args.n < 0:
        return _usage(f"type ({args.m}, {args.n}) is not valid")
    started = time.monotonic()
    try:
        code = args.func(args)
    except (CapacityError, FuelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        witness = getattr(exc, "witness", None)
        if witness is not None:
            print(f"witness: {witness}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"error: out of memory in {args.verb} {args.m} {args.n}", file=sys.stderr)
        return 3
    except CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        if exc.witness is not None:
            print(f"witness: {exc.witness}", file=sys.stderr)
        return 1
    except ValueError as exc:
        return _usage(str(exc))
    print(f"elapsed {time.monotonic() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
