#!/usr/bin/env python3
"""Anatomy of the critical Adams degree 2mn - 6.

Prints, for one size (m, n) with m, n >= 2:
  * the eleven 2-cochains spanning the critical degree,
  * the 1-cochain slots grouped by the arrow they deform, which is
    where the dimension differs between the small and the stable
    regimes (24 when min(m, n) = 2 and max(m, n) >= 3, 30 when
    m, n >= 3, 18 for (2, 2)),
  * the coboundary expressed in those bases, one line per 2-cochain,
  * the rank of the coboundary and the primitive normal vector of its
    image hyperplane inside the cocycle space.

Usage: python scripts/critical_degree_report.py m n
"""

import argparse
import sys
from collections import OrderedDict

from arcdual import hochschild as hh


def label(basis):
    names = {}
    counters = {}
    for c in basis:
        counters[c.arrow] = counters.get(c.arrow, 0) + 1
        names[c] = f"psi[{c.arrow}]#{counters[c.arrow]}"
    return names


def report(m: int, n: int) -> None:
    q = hh.critical_degree(m, n)
    alphas = hh.alpha_basis(m, n)
    c1 = hh.cochain1_basis(m, n, q)
    print(f"size ({m}, {n}), critical Adams degree {q}")
    print(f"\n2-cochain basis ({len(alphas)}):")
    for k, a in enumerate(alphas, 1):
        print(f"  a{k:<2d} on {' '.join(a.lhs)}")
        print(f"      -> {' '.join(a.path.arrows)}")

    print(f"\n1-cochain slots by arrow ({len(c1)}):")
    buckets: OrderedDict = OrderedDict()
    for c in c1:
        buckets.setdefault(c.arrow, []).append(c)
    for arrow, slots in buckets.items():
        print(f"  {arrow}: {len(slots)}")
        for c in slots:
            print(f"      {' '.join(c.path.arrows)}")

    cob = hh.coboundary_matrix(m, n, q)
    names = label(c1)
    rows: dict = {}
    for c, col in zip(cob.cols, cob.vectors):
        for i, coeff in col.items():
            rows.setdefault(cob.rows[i], []).append((c, coeff))
    print("\ncoboundary, one line per 2-cochain:")
    for k, a in enumerate(alphas, 1):
        terms = []
        for c, coeff in rows.get(a, ()):
            sign = "+" if coeff > 0 else "-"
            mag = abs(coeff)
            head = f"{sign} " + (f"{mag} " if mag != 1 else "")
            terms.append(head + names[c])
        line = " ".join(terms) if terms else "0"
        if line.startswith("+ "):
            line = line[2:]
        print(f"  a{k:<2d} = {line}")

    cert = hh.hh2_certificate(m, n, q)
    print(f"\ncoboundary rank: {cert.image_rank}")
    print(f"cohomology dimension: {cert.dimension}")
    print(f"image hyperplane normal: {cert.constraint_normal_vector}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("m", type=int)
    parser.add_argument("n", type=int)
    args = parser.parse_args()
    if args.m < 2 or args.n < 2:
        print("needs m >= 2 and n >= 2", file=sys.stderr)
        return 2
    report(args.m, args.n)
    return 0


if __name__ == "__main__":
    sys.exit(main())
