#!/usr/bin/env python3
"""End-to-end deformation walkthrough.

Extracts a representative cocycle in the chosen Adams degree, deforms
the reduction system along it, certifies confluence to first order and
at parameter one, and prints the resulting presentation with the
changed relations marked.  In the critical degree the corresponding
higher-product statement for the Koszul-dual side is printed as well.

Usage: python scripts/deformation_demo.py [m] [n] [--adams q]
"""

import argparse
import sys

from arcdual import hochschild as hh


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("m", type=int, nargs="?", default=2)
    parser.add_argument("n", type=int, nargs="?", default=2)
    parser.add_argument("--adams", type=int, default=None)
    args = parser.parse_args()
    m, n = args.m, args.n
    try:
        q = args.adams if args.adams is not None else hh.critical_degree(m, n)
    except ValueError as exc:
        parser.error(f"{exc}; pass --adams")

    dim = hh.hh2_dim(m, n, q)
    print(f"HH^2 of ({m}, {n}) in Adams degree {q}: dimension {dim}")
    if dim == 0:
        print("nothing to deform in this degree")
        return 0

    cocycle = hh.extract_cocycle(m, n, q)
    print("\nrepresentative cocycle:")
    for lhs, terms in cocycle.items():
        for p, coeff in terms.items():
            print(f"  ({' '.join(lhs)}) -> {coeff} * {' '.join(p.arrows)}")

    report = hh.deformed_algebra(m, n, cocycle)
    print(
        f"\nconfluence: first order ok={report.order_one.ok} "
        f"({report.order_one.overlaps_checked} overlaps), "
        f"at one ok={report.at_one.ok}"
    )

    deformed = set(report.deformed_relations)
    print("\nrelations of the deformed algebra:")
    for line in report.relations:
        marker = "*" if line in deformed else " "
        print(f" {marker} {line}")

    if report.a_infinity:
        print(f"\nhigher product on the dual side: {report.a_infinity}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
