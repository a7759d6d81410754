"""Exact linear algebra over the rationals.

One elimination kernel, `_pivot_rows`, reduces sparse vectors (dicts
from ordered keys to exact numbers) to reduced row echelon form, each
pivot the least key of its row.  That form is unique, so the result
depends on the span of the input only, and elimination is free to take
the vectors bottom-up, in descending order of their least key: most new
pivots then lie below every earlier one and need no back-substitution.
Elimination is fraction-free: vectors are scaled to integers once and
every row stays an integer vector.  `integer_echelon` returns the rows
as primitive integer vectors and `residue` reduces one more vector
against them, so a certificate that only needs a span, a rank or a
membership never builds a `Fraction`.  `echelon` divides each row by
its pivot into `Fraction` tails, which only `nullspace` reads: it
returns dense kernel vectors.  `rank` and `sparse_rank` count the pivot
rows, and `first_nonzero_product` checks that a product of sparse
vectors vanishes.

Coefficients above this kernel are exact rationals held as `int`s
wherever they are integral, and as `Fraction`s only where a denominator
occurs; `exact` is the one normaliser.  Mixed arithmetic stays exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

F0 = Fraction(0)
F1 = Fraction(1)


def exact(c) -> int | Fraction:
    """c as an exact rational: an int when it is integral, else a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def add_term(acc: dict, key, coeff) -> None:
    """Add coeff at key of a sparse vector, dropping the key at zero."""
    new = acc.get(key, 0) + coeff
    if new:
        acc[key] = new
    else:
        acc.pop(key, None)


def _sparse(row) -> dict:
    return {j: x for j, x in enumerate(row) if x}


def _integer_row(vec: dict) -> dict:
    """The nonzero entries of vec times the lcm of their denominators."""
    scale = lcm(*(v.denominator for v in vec.values()))
    return {k: v.numerator * (scale // v.denominator) for k, v in vec.items() if v}


def _divide_content(row: dict, sign: int = 1) -> None:
    """Divide row by sign times the gcd of its entries."""
    g = sign * gcd(*row.values())
    for k in row:
        row[k] //= g


def _clear(target: dict, key, row: dict) -> None:
    """Cancel target's entry c at key against row, whose lead there is l:
    target = (l/g)·target - (c/g)·row, g = gcd(l, c)."""
    g = gcd(row[key], target[key])
    scale, factor = row[key] // g, target[key] // g
    if scale != 1:
        for k in target:
            target[k] *= scale
    for k, x in row.items():
        value = target.get(k, 0) - factor * x
        if value:
            target[k] = value
        else:
            del target[k]
    if scale != 1:
        _divide_content(target)


def _pivot_rows(vectors) -> dict:
    """{pivot key: integer row} spanning the sparse vectors, in reduced
    echelon form: each row is positive at its pivot and zero at every
    other pivot key.

    Elimination runs bottom-up: the nonzero vectors are taken in
    descending order of their least key.  A vector whose least key is
    not yet a pivot then becomes a row whose pivot lies below every
    pivot so far, and no stored row can hold that key (each row's keys
    are at least its pivot), so back-substitution is skipped.  The
    reduced form is unique, so the order changes only the cost."""
    pending = [row for row in map(_integer_row, vectors) if row]
    pending.sort(key=min)
    rows: dict = {}
    lowest = None
    while pending:
        work = pending.pop()
        # no row holds another pivot key, so the clearing order is immaterial
        for key in work.keys() & rows.keys():
            _clear(work, key, rows[key])
        if not work:
            continue
        key = min(work)
        _divide_content(work, -1 if work[key] < 0 else 1)
        if rows and key > lowest:
            for row in rows.values():
                if key in row:
                    _clear(row, key, work)
        else:
            lowest = key
        rows[key] = work
    return rows


def integer_echelon(vectors) -> dict:
    """Reduced row echelon form of the span of sparse vectors on integers.

    Returns {pivot key: row} in key order; each row is a primitive
    integer vector, positive at its pivot key, zero at every other
    pivot key and with no key below its pivot.  The reduced form is
    unique, so this is `echelon` with each row scaled by its pivot entry.
    """
    rows = _pivot_rows(vectors)
    for row in rows.values():
        # back-substitution can leave a common factor in a row
        _divide_content(row)
    return {p: rows[p] for p in sorted(rows)}


def residue(vector: dict, rows: dict) -> dict:
    """A sparse vector reduced against the rows of `integer_echelon`,
    scaled to integers: empty exactly when the vector lies in their span.
    No row holds another pivot key, so one pass clears every pivot."""
    work = _integer_row(vector)
    for key in work.keys() & rows.keys():
        _clear(work, key, rows[key])
    return work


def echelon(vectors) -> dict:
    """Reduced row echelon form of the span of sparse vectors.

    Returns {pivot key: tail} in key order: the reduced row with that
    pivot is 1 at the pivot key plus the tail of Fractions.  Every tail
    key is larger than its pivot key, and no tail holds a pivot key.
    """
    rows = _pivot_rows(vectors)
    return {
        p: {k: Fraction(c, rows[p][p]) for k, c in rows[p].items() if k != p}
        for p in sorted(rows)
    }


def sparse_rank(vectors) -> int:
    """Dimension of the span of sparse vectors: len(echelon(vectors))."""
    return len(_pivot_rows(vectors))


def rank(rows) -> int:
    return sparse_rank(map(_sparse, rows))


def nullspace(vectors, ncols: int):
    """Deterministic kernel basis of the linear map whose rows are the
    sparse vectors, keyed by column index in range(ncols).

    One dense Fraction basis vector per free column, carrying 1 there;
    vectors are ordered by their free column.
    """
    basis = echelon(vectors)
    assert all(0 <= k < ncols for p, tail in basis.items() for k in (p, *tail))
    kernel = {}
    for free in range(ncols):
        if free not in basis:
            kernel[free] = [F0] * ncols
            kernel[free][free] = F1
    for p, tail in basis.items():
        for free, c in tail.items():
            kernel[free][p] = -c
    return list(kernel.values())


def first_nonzero_product(rows, cols):
    """First (i, j), columns scanned first and then the least i, with
    rows[i] . cols[j] nonzero, or None.  Rows and columns are sparse
    vectors; the rows are indexed by key once and each column is
    accumulated through that index."""
    by_key: dict = {}
    for i, row in enumerate(rows):
        for k, x in row.items():
            by_key.setdefault(k, []).append((i, x))
    for j, col in enumerate(cols):
        products: dict = {}
        for k, y in col.items():
            for i, x in by_key.get(k, ()):
                add_term(products, i, x * y)
        if products:
            return min(products), j
    return None


def primitive_integer_vector(vec):
    """Scale a rational vector to coprime integers with the first nonzero
    entry positive."""
    row = _integer_row(dict(enumerate(vec)))
    _divide_content(row, -1 if next(iter(row.values()), 0) < 0 else 1)
    return [row.get(j, 0) for j in range(len(vec))]
