"""Exact linear algebra over the rationals.

One elimination kernel, `echelon`, reduces sparse vectors (dicts from
ordered keys to exact numbers) to reduced row echelon form, taking
pivots in key order.  That form is unique, so the result depends on
the span of the input only.  `rref`, `rank`, `nullspace` and `in_span`
are thin wrappers over dense rows; `first_nonzero_product` checks that
a matrix product vanishes using the nonzero entries only.  Division
stays exact in `Fraction`; at the sizes here (a few hundred sparse
rows, entries of tiny height) fraction growth is a non-issue.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

F0 = Fraction(0)
F1 = Fraction(1)


def _sparse(row) -> dict:
    return {j: Fraction(x) for j, x in enumerate(row) if x}


def _subtract(target: dict, factor, source: dict) -> None:
    """target -= factor * source, dropping entries that cancel."""
    for k, c in source.items():
        value = target.get(k, F0) - factor * c
        if value:
            target[k] = value
        elif k in target:
            del target[k]


def echelon(vectors) -> dict:
    """Reduced row echelon form of the span of sparse vectors.

    Returns {pivot key: tail}: the reduced row with that pivot is 1 at
    the pivot key plus the tail.  Every tail key is larger than its
    pivot key, and no tail holds a pivot key.
    """
    pivots: dict = {}
    for vec in vectors:
        work = {k: v for k, v in vec.items() if v}
        # no tail holds a pivot key, so the clearing order is immaterial
        for key in work.keys() & pivots.keys():
            _subtract(work, work.pop(key), pivots[key])
        if not work:
            continue
        key = min(work)
        factor = Fraction(work.pop(key))
        tail = {k: c / factor for k, c in work.items()}
        for ptail in pivots.values():
            if key in ptail:
                _subtract(ptail, ptail.pop(key), tail)
        pivots[key] = tail
    return pivots


def rref(rows):
    """Reduced row echelon form of dense rows.

    Returns (reduced, pivots): the nonzero rows of the reduced matrix
    as Fraction lists and the pivot column of each, in column order.
    Input rows are not modified.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    assert all(len(row) == ncols for row in rows)
    basis = echelon(map(_sparse, rows))
    pivots = sorted(basis)
    reduced = []
    for p in pivots:
        row = [F0] * ncols
        row[p] = F1
        for k, c in basis[p].items():
            row[k] = c
        reduced.append(row)
    return reduced, pivots


def rank(rows) -> int:
    return len(echelon(map(_sparse, rows)))


def nullspace(rows, ncols: int):
    """Deterministic kernel basis of the linear map given by the rows.

    One basis vector per free column, carrying 1 there; vectors are
    ordered by their free column.
    """
    assert all(len(row) == ncols for row in rows)
    basis = echelon(map(_sparse, rows))
    kernel = {}
    for free in range(ncols):
        if free not in basis:
            kernel[free] = [F0] * ncols
            kernel[free][free] = F1
    for p, tail in basis.items():
        for free, c in tail.items():
            kernel[free][p] = -c
    return list(kernel.values())


def in_span(vec, reduced, pivots) -> bool:
    """Whether vec lies in the span of the rows of an rref result."""
    return rank([*reduced, vec]) == len(pivots)


def first_nonzero_product(rows, cols):
    """First (i, j), columns scanned first, with rows[i] . cols[j]
    nonzero, or None.  Vectors are dense and of one length."""
    sparse_rows = [_sparse(row) for row in rows]
    for j, col in enumerate(map(_sparse, cols)):
        for i, row in enumerate(sparse_rows):
            if sum(row[k] * col[k] for k in row.keys() & col.keys()):
                return i, j
    return None


def primitive_integer_vector(vec):
    """Scale a rational vector to coprime integers with the first nonzero
    entry positive."""
    fracs = [Fraction(x) for x in vec]
    denominator = lcm(*(f.denominator for f in fracs)) if fracs else 1
    ints = [int(f * denominator) for f in fracs]
    g = gcd(*(abs(x) for x in ints)) if any(ints) else 1
    if g > 1:
        ints = [x // g for x in ints]
    first = next((x for x in ints if x), 0)
    if first < 0:
        ints = [-x for x in ints]
    return ints
