"""Koszul dual presentation: orthogonal relations and a certified
reduction system.

The opposite quiver carries the quadratic dual of the diagram algebra.
Its relation space is computed block by block as the exact orthogonal
complement of the plain relations under the pairing that matches a
length-two path with its reversed dual path.  Both relation spaces are
held as reduced echelon rows of primitive integers, so the complement
is read off the plain rows without elimination.

On top of the dual relations sits a reduction system.  Left-hand sides
are the peak words (up-down through a common top), the reducible
two-step ascents and descents, and a family of longer staircase words
whose final exchange closes a cup carried along from the start.  Every
length-two right-hand side is produced by certified linear elimination
inside the corresponding relation block, one integer elimination per
block: the designated reducible paths must be exactly the pivot
columns, so each rewrite rule is the unique expression of its
left-hand side by irreducible paths modulo the ideal.  The longer
rules take the signed alternate staircase as right-hand side and are
certified by exact membership of lhs - rhs in the padded quadratic
ideal.

The irreducible paths of the reduction system are the basis of the
dual algebra.  They are the paths that avoid every left-hand side, so
`irreducible_basis` counts them on the index of the left-hand sides
that rewriting reads (the automaton of `ReductionSystem.kernel`), level
by level for all sources at once, and stores none.  It
certifies that the count is complete: a path one past the top length
2mn raises CertificationError.  `Path` objects are built only for the
buckets that are read.  The KL certificate below and every Hochschild
computation read this one basis.

Kazhdan-Lusztig polynomials, computed by the cup-deletion recursion,
grade the irreducible paths: the coefficient of q^k counts ascending
irreducible paths of length k, and the number of irreducible paths of
length i between two vertices is the coefficient of q^i in the product
of their KL columns.  `certify_graded_dimensions` is the one place that
compares the index with that product, one source vertex at a time
against its KL row.  It packs each polynomial and each block's counts
into one integer, a lane of bits per degree (Kronecker substitution),
so a block's expected counts are a sum of bigint products and one
comparison checks every degree.  `certify_dual_system` is the diamond
check plus the dimension.  The overlaps are resolved once per size
(`dual_resolution`): the diamond report and the HH^2 cocycle
constraints read the same resolution.  The KL side uses no rewrite
rules, so it cross-checks the rewriting machinery.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple

from . import combinatorics as comb
from . import linalg
from .combinatorics import (
    cup_matching,
    exchange_pair,
    height,
    is_left_of,
    is_nested,
    weight_type,
)
from .errors import CertificationError
from .presentation import (
    Arrow,
    Quiver,
    RelationBlock,
    RelationSet,
    build_quiver,
    dual_arrow,
    exchange_cup_between,
    length_two_blocks,
    relations_K,
)
from .rewrite import (
    DiamondReport,
    LinComb,
    Path,
    ReductionSystem,
    add_term,
    diamond_failure,
    enumerate_overlaps,
    irreducible_paths_from,
    make_path,
    make_rule,
    normal_form,
    path_key,
    resolve_overlap,
    scale_into,
)


# ---------------------------------------------------------------------------
# dual quadratic relations


def _complement(rows, ncols: int) -> list[dict]:
    """A basis of the vectors orthogonal to reduced integer rows, read
    off without elimination: one primitive integer vector per free
    column, nonzero there and at the pivots of the rows that hold it."""
    pivots = {next(j for j, c in enumerate(row) if c): row for row in rows}
    out = []
    for free in range(ncols):
        if free in pivots:
            continue
        hits = [(p, row) for p, row in pivots.items() if row[free]]
        scale = lcm(*(row[p] for p, row in hits))
        vec = {free: scale}
        for p, row in hits:
            vec[p] = -row[free] * (scale // row[p])
        g = gcd(*vec.values())
        out.append({k: c // g for k, c in vec.items()})
    return out


def orthogonal_relations(relations: RelationSet) -> RelationSet:
    """Blockwise orthogonal complement on the opposite quiver.

    A length-two path (a, b) pairs with the reversed dual path
    (dual(b), dual(a)); the complement is taken with respect to the
    dot product in these matched coordinates.  The plain rows are in
    reduced echelon form, so the complement is read off them and put in
    the same form once, in dual coordinates.  Certifies exact
    orthogonality and that block dimensions are complementary.  With no
    blocks (m = 0 or n = 0: no arrows) the complement is empty too.
    """
    if relations.dual:
        raise ValueError("expected the plain relation set")
    if not relations.blocks:
        return RelationSet(True, ())
    m, n = weight_type(relations.blocks[0].source)
    qbar = build_quiver(m, n, dual=True)
    dual_blocks = {(s, t): paths for s, t, paths in length_two_blocks(qbar)}
    out_blocks = []
    for b in relations.blocks:
        dual_paths = dual_blocks.get((b.target, b.source), ())
        if len(dual_paths) != len(b.paths):
            raise CertificationError(
                "dual path count mismatch",
                witness={"block": (b.source, b.target)},
            )
        col = {p: i for i, p in enumerate(dual_paths)}
        perm = [col[(dual_arrow(b2), dual_arrow(b1))] for (b1, b2) in b.paths]
        reduced = linalg.integer_echelon(
            {perm[j]: c for j, c in vec.items()} for vec in _complement(b.rows, len(b.paths))
        )
        if len(reduced) + len(b.rows) != len(dual_paths):
            raise CertificationError(
                "complement dimensions do not add up",
                witness={
                    "block": (b.target, b.source),
                    "paths": len(dual_paths),
                    "plain": len(b.rows),
                    "dual": len(reduced),
                },
            )
        permuted = [{j: c for c, j in zip(row, perm) if c} for row in b.rows]
        if linalg.first_nonzero_product(permuted, reduced.values()) is not None:
            raise CertificationError(
                "pairing of relation spaces is not zero",
                witness={"block": (b.target, b.source)},
            )
        rows = tuple(
            tuple(row.get(j, 0) for j in range(len(dual_paths))) for row in reduced.values()
        )
        out_blocks.append(RelationBlock(b.target, b.source, dual_paths, rows))
    out_blocks.sort(key=lambda b: (comb.sort_key(b.source), comb.sort_key(b.target)))
    return RelationSet(True, tuple(out_blocks))


@lru_cache(maxsize=None)
def dual_relations(m: int, n: int) -> RelationSet:
    return orthogonal_relations(relations_K(m, n))


# ---------------------------------------------------------------------------
# left-hand sides of the reduction system

TYPE_PEAK = "I"
TYPE_MONOMIAL = "II"
TYPE_SQUARE = "III"
TYPE_CUBIC = "IV"


class TaggedLhs(NamedTuple):
    path: Path
    tag: str


def _ascending_tag(w1: str, w2: str, w3: str) -> str | None:
    """Classify the two-step ascent w1 -> w2 -> w3.

    None means irreducible.  The second cup must already be present at
    the bottom; it is then reducible when it lies right of the first
    cup or nests inside it, and the nested case without an
    intermediate enclosing cup is the monomial one.
    """
    c1 = exchange_cup_between(w1, w2)
    c2 = exchange_cup_between(w2, w3)
    cups1 = cup_matching(w1).cups
    if c2 not in cups1:
        return None
    if is_left_of(c1, c2):
        return TYPE_SQUARE
    if is_nested(c2, c1):
        between = any(
            p not in (c1, c2) and is_nested(c2, p) and is_nested(p, c1)
            for p in cups1
        )
        return TYPE_SQUARE if between else TYPE_MONOMIAL
    return None


def _cubic_sequences(m: int, n: int) -> tuple[tuple[str, ...], ...]:
    """Ascending vertex sequences of the length >= 3 left-hand sides.

    The first exchange opens a cup enclosing a reserved inner cup; the
    following exchanges use cups that are fresh (absent one level
    down) and lie strictly right of the reserved one; the last
    exchange closes the reserved cup itself.
    """
    out = []
    for lam1 in comb.enumerate_weights(m, n):
        cups1 = cup_matching(lam1).cups
        for c1 in cups1:
            for ck in cups1:
                if not is_nested(ck, c1):
                    continue
                seed = (lam1, exchange_pair(lam1, c1))
                stack = [seed]
                while stack:
                    vs = stack.pop()
                    w = vs[-1]
                    cups_w = cup_matching(w).cups
                    assert ck in cups_w
                    if len(vs) >= 3:
                        out.append(vs + (exchange_pair(w, ck),))
                    prev = set(cup_matching(vs[-2]).cups)
                    for c in cups_w:
                        if c not in prev and is_left_of(ck, c):
                            stack.append(vs + (exchange_pair(w, c),))
    out.sort(key=lambda vs: (len(vs), tuple(map(comb.sort_key, vs))))
    return tuple(out)


def _cubic_alternate(vs: tuple[str, ...]) -> tuple[tuple[str, ...], int]:
    """Alternate vertex sequence and sign for a cubic left-hand side.

    The reserved cup is exchanged first instead of last; when no cup
    strictly between the outer and the reserved one encloses the
    latter, the third vertex detours through the left one of the two
    cups created by the early exchange.
    """
    k = len(vs) - 1
    c1 = exchange_cup_between(vs[0], vs[1])
    ck = exchange_cup_between(vs[-2], vs[-1])
    cups1 = cup_matching(vs[0]).cups
    direct = not any(
        p not in (c1, ck) and is_nested(ck, p) and is_nested(p, c1)
        for p in cups1
    )
    verts = [vs[0]] + [exchange_pair(vs[i], ck) for i in range(k - 1)] + [vs[-1]]
    if direct:
        left_new = (c1[0], ck[0])
        verts[2] = exchange_pair(verts[1], left_new)
    return tuple(verts), (-1) ** (k - 1)


def _ybar_path(qbar: Quiver, verts) -> Path:
    return make_path(qbar, [Arrow("ybar", u, w).name for u, w in zip(verts, verts[1:])])


def _xbar_path(qbar: Quiver, verts) -> Path:
    down = list(reversed(verts))
    return make_path(qbar, [Arrow("xbar", u, w).name for u, w in zip(down, down[1:])])


@lru_cache(maxsize=None)
def build_S(m: int, n: int) -> tuple[TaggedLhs, ...]:
    """The length-two left-hand sides of the dual reduction system, with
    tags.  The staircase left-hand sides (tag IV) are not listed here:
    `reduction_system` builds them from `_cubic_sequences`."""
    qbar = build_quiver(m, n, dual=True)
    out = []
    for v in qbar.vertices:
        ups = [a for a in qbar.into[v] if a.kind == "ybar"]
        downs = [a for a in qbar.out[v] if a.kind == "xbar"]
        for a in ups:
            for b in downs:
                out.append(TaggedLhs(make_path(qbar, [a, b]), TYPE_PEAK))
    for w1 in qbar.vertices:
        for a in qbar.out[w1]:
            if a.kind != "ybar":
                continue
            for b in qbar.out[a.target]:
                if b.kind != "ybar":
                    continue
                tag = _ascending_tag(w1, a.target, b.target)
                if tag:
                    out.append(TaggedLhs(make_path(qbar, [a, b]), tag))
        for a in qbar.out[w1]:
            if a.kind != "xbar":
                continue
            for b in qbar.out[a.target]:
                if b.kind != "xbar":
                    continue
                tag = _ascending_tag(b.target, a.target, w1)
                if tag:
                    out.append(TaggedLhs(make_path(qbar, [a, b]), tag))
    out.sort(key=lambda s: path_key(s.path))
    return tuple(out)


# ---------------------------------------------------------------------------
# right-hand sides by certified elimination


def _eliminate_block(
    block: RelationBlock | None, designated: list[TaggedLhs]
) -> dict[tuple[str, ...], LinComb]:
    """Solve a length-two relation block for its designated paths.

    The relation rows are re-ordered with the designated columns
    first and put in reduced echelon form on integers once; that form
    must have exactly those columns as pivots, which makes the
    elimination unique and every complementary term irreducible in the
    block.  Paths stay arrow-name tuples until a rule or a witness
    needs them.
    """
    key = (designated[0].path.start, designated[0].path.end)
    if block is None or not block.rows:
        raise CertificationError(
            "no relations available to eliminate a designated path",
            witness={"block": key, "designated": [repr(s.path) for s in designated]},
        )
    names = [(a.name, b.name) for a, b in block.paths]

    def path(i):
        return Path(block.source, names[i], block.target)

    des_arrows = {s.path.arrows for s in designated}
    designated_count = sum(p in des_arrows for p in names)
    if designated_count != len(des_arrows):
        raise CertificationError(
            "designated path missing from its block",
            witness={"block": key},
        )
    # the designated columns first, each part in path_key order
    order = sorted(range(len(names)), key=lambda i: (names[i] not in des_arrows, names[i]))
    reduced = linalg.integer_echelon(
        {c: row[j] for c, j in enumerate(order) if row[j]} for row in block.rows
    )
    if list(reduced) != list(range(designated_count)):
        raise CertificationError(
            "designated paths are not the pivots of their relation block",
            witness={
                "block": key,
                "designated": [repr(path(i)) for i in order[:designated_count]],
                "pivots": [repr(path(order[p])) for p in reduced],
            },
        )
    # no row holds another pivot, so every other key is a free column
    return {
        names[order[r]]: {
            path(order[c]): linalg.exact(Fraction(-x, row[r])) for c, x in row.items() if c != r
        }
        for r, row in reduced.items()
    }


def _certify_cubic_membership(qbar, relations, entries):
    """Exact membership of lhs - sign * alternate in the padded quadratic
    ideal.

    entries maps (source, target, length) to a list of
    (lhs path, alternate path, sign) triples sharing that block.  The
    ideal in a block is spanned by prefix * relation * suffix, as sparse
    vectors keyed by arrow-name tuples, and is put in reduced integer
    form once.  The prefixes out of each source and the suffixes into
    each target are enumerated once per length, as name tuples grouped
    by their other end.
    """
    # per source, each block's target and its rows as (name pair, coeff) terms
    by_source: dict = {}
    for b in relations.blocks:
        if b.rows:
            names = [(x.name, y.name) for x, y in b.paths]
            terms = [[(p, c) for p, c in zip(names, row) if c] for row in b.rows]
            by_source.setdefault(b.source, []).append((b.target, terms))
    walks: dict = {}

    def walks_at(vertex: str, length: int, out: bool) -> dict[str, list[tuple[str, ...]]]:
        """The paths of a length out of (or into) a vertex as name
        tuples, grouped by their other end."""
        if (vertex, length, out) not in walks:
            grown: dict = {}
            if length == 0:
                grown[vertex] = [()]
            elif out:
                for end, words in walks_at(vertex, length - 1, out).items():
                    for a in qbar.out[end]:
                        grown.setdefault(a.target, []).extend(w + (a.name,) for w in words)
            else:
                for start, words in walks_at(vertex, length - 1, out).items():
                    for a in qbar.into[start]:
                        grown.setdefault(a.source, []).extend((a.name,) + w for w in words)
            walks[vertex, length, out] = grown
        return walks[vertex, length, out]

    for (source, target, length), triples in sorted(entries.items()):
        rows = []
        for cut in range(length - 1):
            for mid, prefixes in walks_at(source, cut, True).items():
                for block_target, terms in by_source.get(mid, ()):
                    suffixes = walks_at(target, length - cut - 2, False).get(block_target, ())
                    rows += [
                        {prefix + pair + suffix: c for pair, c in row}
                        for prefix in prefixes
                        for suffix in suffixes
                        for row in terms
                    ]
        basis = linalg.integer_echelon(rows)
        for lhs, alt, sign in triples:
            if linalg.residue({lhs.arrows: 1, alt.arrows: -sign}, basis):
                raise CertificationError(
                    "staircase rule is not congruent to its alternate path",
                    witness={"lhs": repr(lhs), "alternate": repr(alt), "sign": sign},
                )


@lru_cache(maxsize=None)
def reduction_system(m: int, n: int) -> ReductionSystem:
    """The certified dual reduction system.

    Length-two rules are eliminated blockwise from the dual relations;
    the longer staircase rules rewrite to their signed alternate path,
    certified by ideal membership.  Monomial rules must come out zero.
    """
    qbar = build_quiver(m, n, dual=True)
    relations = dual_relations(m, n)
    by_block: dict[tuple[str, str], list[TaggedLhs]] = {}
    for s in build_S(m, n):
        by_block.setdefault((s.path.start, s.path.end), []).append(s)
    rules = []
    for (source, target), group in sorted(by_block.items()):
        phis = _eliminate_block(relations.block(source, target), group)
        for s in group:
            phi = phis[s.path.arrows]
            if s.tag == TYPE_MONOMIAL and phi:
                raise CertificationError(
                    "monomial rule has a nonzero right-hand side",
                    witness={"lhs": repr(s.path), "phi": repr(phi)},
                )
            rules.append(make_rule(s.path, phi, tag=s.tag))
    staircase: dict[tuple[str, str, int], list] = {}
    for vs in _cubic_sequences(m, n):
        alt, sign = _cubic_alternate(vs)
        for build in (_ybar_path, _xbar_path):
            lhs, rhs = build(qbar, vs), build(qbar, alt)
            staircase.setdefault((lhs.start, lhs.end, len(lhs)), []).append((lhs, rhs, sign))
            rules.append(make_rule(lhs, {rhs: sign}, tag=TYPE_CUBIC))
    _certify_cubic_membership(qbar, relations, staircase)
    return ReductionSystem(qbar, rules)


def reduction_system_json(system: ReductionSystem) -> list[dict]:
    out = []
    for r in system.rules:
        out.append(
            {
                "lhs": list(r.lhs.arrows),
                "tag": r.tag,
                "rhs": [
                    {"coeff": str(c), "path": list(p.arrows)} for p, c in r.rhs
                ],
            }
        )
    return out


# ---------------------------------------------------------------------------
# Kazhdan-Lusztig polynomials and irreducible path counts


class KLPolynomial(NamedTuple):
    """Polynomial in q with integer coefficients, index = power."""

    coefficients: tuple[int, ...]

    def coefficient(self, k: int) -> int:
        if 0 <= k < len(self.coefficients):
            return self.coefficients[k]
        return 0

    def at_one(self) -> int:
        return sum(self.coefficients)

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self.coefficients):
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else str(c))
                terms.append(f"{head}q" if k == 1 else f"{head}q^{k}")
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@lru_cache(maxsize=None)
def kl_poly(lam: str, mu: str) -> KLPolynomial:
    """Kazhdan-Lusztig polynomial by the cup-deletion recursion.

    The recursion removes the rightmost childless cup of the bottom
    weight; when the top diagram carries the same cup the two marks
    can also be deleted from both weights.
    """
    if weight_type(lam) != weight_type(mu):
        raise ValueError(f"weights {lam!r} and {mu!r} have different types")
    if lam == mu:
        return KLPolynomial((1,))
    if height(lam) >= height(mu):
        return KLPolynomial(())
    cups = cup_matching(lam).cups
    childless = [(i, j) for (i, j) in cups if j == i + 1]
    i, j = max(childless)
    shifted = [0] + list(kl_poly(exchange_pair(lam, (i, j)), mu).coefficients)
    if (i, j) in cup_matching(mu).cups:
        deleted = kl_poly(
            comb.delete_positions(lam, (i, j)), comb.delete_positions(mu, (i, j))
        ).coefficients
        merged = [0] * max(len(shifted), len(deleted))
        for k, c in enumerate(shifted):
            merged[k] += c
        for k, c in enumerate(deleted):
            merged[k] += c
        return KLPolynomial(_trim(merged))
    return KLPolynomial(_trim(shifted))


# ---------------------------------------------------------------------------
# certification


class IrreducibleBasis:
    """The irreducible paths of a reduction system up to a length,
    counted level by level on the live states of its kernel's index of
    the left-hand sides and never stored.

    Source `sources[i]` owns lane i of a packed count, `width` bits
    from bit i * width: `counts[length][j]` packs the numbers of paths
    of that length from every source to `sources[j]`.  The width is the
    bit length of the largest of those numbers summed over all sources,
    so no lane carries into the next.  Bit length * len(sources) + i of
    `reach[s]` is set when some path of that length from source i ends
    in live state s; a bucket is walked back from the states at its end
    through the predecessors (`into`) that its start reaches, so only
    its own paths are visited, and built.  The basis is cached and
    shared, so it is read-only."""

    def __init__(self, system: ReductionSystem, max_len: int):
        kernel = system.kernel
        self.system = system
        self.sources = sources = tuple(sorted(system.quiver.vertices, key=comb.sort_key))
        self.lane = lane = {v: i for i, v in enumerate(sources)}
        ends = [lane[kernel.targets[a]] for a in kernel.arrows]
        self.into, self.at_end = into, at_end = [[] for _ in ends], {}
        for s, successors in enumerate(kernel.follow):
            at_end.setdefault(sources[ends[s]], []).append(s)
            for t in successors:
                into[t].append(s)

        # per length from 1 to max_len, the merge of the values of the paths
        # ending in each state, a path from source i starting at value(i)
        def sweep(value, merge=operator.add):
            level = [0] * len(ends)
            for v in sources:
                for s in kernel.starts[v]:
                    level[s] = value(lane[v])
            for _ in range(max_len):
                yield level
                grown = [0] * len(ends)
                for s, c in enumerate(level):
                    if c:
                        for t in kernel.follow[s]:
                            grown[t] = merge(grown[t], c)
                level = grown

        def by_end(level):
            row = [0] * len(sources)
            for s, c in enumerate(level):
                row[ends[s]] += c
            return tuple(row)

        # the totals over all sources fix the lane width
        totals = [by_end(level) for level in sweep(lambda i: 1)]
        self.size = len(sources) + sum(map(sum, totals))
        self.width = width = max([1, *(c for row in totals for c in row)]).bit_length()
        self.counts = (tuple(1 << i * width for i in range(len(sources))),
                       *map(by_end, sweep(lambda i: 1 << i * width)))
        self.reach = [0] * len(ends)
        for length, level in enumerate(sweep(lambda i: 1 << i, operator.or_), 1):
            for s, mask in enumerate(level):
                self.reach[s] |= mask << length * len(sources)

    def source_counts(self, source: str) -> dict[tuple[str, int], int]:
        """The number of paths out of `source` per (end, length), nonzero
        counts only, read off its lane on each call."""
        shift, mask = self.lane[source] * self.width, (1 << self.width) - 1
        return {(end, length): count for length, row in enumerate(self.counts)
                for end, packed in zip(self.sources, row) if (count := packed >> shift & mask)}

    def dimension(self) -> int:
        return self.size

    def bucket(self, start: str, end: str, length: int) -> tuple[Path, ...]:
        """The paths from start to end of the given length, in path_key
        order, built on each call."""
        path = self.system.kernel.path
        if length <= 0:
            return (path((0, start, ())),) if start == end and length == 0 else ()
        arrows, reach, into = self.system.kernel.arrows, self.reach, self.into
        bit, stride = 1 << self.lane[start], len(self.sources)
        word, found = [0] * length, []
        stack = [(s, length) for s in self.at_end.get(end, ()) if reach[s] >> length * stride & bit]
        while stack:
            s, k = stack.pop()
            word[k - 1] = arrows[s]
            if k == 1:
                found.append(tuple(word))
            else:
                stack += [(p, k - 1) for p in into[s] if reach[p] >> (k - 1) * stride & bit]
        return tuple(path((length, start, ids)) for ids in sorted(found))

    def paths(self) -> list[Path]:
        """Every basis path, built on each call, in path_key order."""
        top = len(self.counts) - 1
        found = (p for v in self.sources for p in irreducible_paths_from(self.system, v, top))
        return sorted(found, key=path_key)


@lru_cache(maxsize=None)
def irreducible_basis(m: int, n: int) -> IrreducibleBasis:
    """The irreducible-path basis of the dual algebra, counted once per
    size on the index of the reduction system's kernel.

    The count runs to one length past the expected top length 2mn;
    since every prefix of an irreducible path is irreducible, no path
    of that length certifies that the basis is complete.
    """
    top = 2 * m * n
    basis = IrreducibleBasis(reduction_system(m, n), top + 1)
    if any(basis.counts[top + 1]):
        vs = basis.sources
        extra = (p for v in vs for end in vs for p in basis.bucket(v, end, top + 1))
        raise CertificationError(
            "irreducible path above the expected top length",
            witness={"m": m, "n": n, "path": repr(next(extra))},
        )
    return basis


class DualSystemReport(NamedTuple):
    ok: bool
    diamond: DiamondReport
    dimension: int


@lru_cache(maxsize=None)
def dual_resolution(m: int, n: int):
    """Every overlap of `reduction_system(m, n)` resolved once by
    `resolve_overlap`: the diamond report, and per overlap the rule
    applications that the HH^2 cocycle constraints read, as one flat
    tuple (start, lhs arrows, factor, head, tail, lhs arrows, ...): the
    word's start vertex, then four entries per application, the reduced
    term being factor * head * lhs * tail with head and tail as arrow
    ids.  The factor is +coeff on the left branch and -coeff on the
    right.  Few contexts are distinct (306 heads and 366 tails over 4,008
    applications at (3, 4)), so each distinct tuple is held once."""
    system = reduction_system(m, n)
    overlaps = enumerate_overlaps(system)
    failures, applications = [], []
    contexts: dict = {}
    for overlap in overlaps:
        left, right = resolve_overlap(overlap, system)
        failures.append(diamond_failure(overlap, system, left, right))
        flat: list = [overlap.word.start]
        for sign, (_, _, events) in ((1, left), (-1, right)):
            for (rule, k, _, _), _, ids, i, coeff in events:
                head, tail = ids[:i], ids[i + k :]
                flat += (
                    rule.lhs.arrows,
                    sign * coeff,
                    contexts.setdefault(head, head),
                    contexts.setdefault(tail, tail),
                )
        applications.append(tuple(flat))
    failures = tuple(f for f in failures if f is not None)
    return DiamondReport(not failures, len(overlaps), failures), tuple(applications)


def certify_dual_system(m: int, n: int) -> DualSystemReport:
    """Diamond check of the reduction system, with the dimension of the
    dual algebra: the number of its irreducible paths.  The counts
    themselves are certified against KL by `certify_graded_dimensions`.
    """
    diamond = dual_resolution(m, n)[0]
    dimension = irreducible_basis(m, n).dimension()
    return DualSystemReport(diamond.ok, diamond, dimension)


class GradedDimensionReport(NamedTuple):
    ok: bool
    pairs_checked: int
    buckets_checked: int
    mismatches: tuple


def _pack(coefficients, width: int) -> int:
    """A polynomial with nonnegative coefficients below 2**width as one
    int, coefficient i in bits i * width onwards (Kronecker
    substitution)."""
    return sum(c << i * width for i, c in enumerate(coefficients))


def certify_graded_dimensions(m: int, n: int) -> GradedDimensionReport:
    """Irreducible-path counts against KL, degree by degree.

    The number of irreducible paths of length i from lam to mu must be
    the coefficient of q^i in sum_kappa P_kappa,lam P_kappa,mu
    (Brundan-Stroppel, Koszulity).  Every degree 0..2mn of every block
    is compared, plus any higher degree the KL product reaches; a
    mismatch is (lam, mu, i, got, want), in weight order and then by i.

    The comparison runs on packed integers, one lane of `width` bits per
    degree: each KL polynomial is packed once, so the expected value of
    a block is a sum of bigint products, and the counts of a block are
    packed from `source_counts`, read one source lam at a time so that
    only one source's counts are held.  The width is the bit length of
    the largest count read so far or of max_lam sum_kappa P_kappa,lam(1)^2,
    whichever is larger; by Cauchy-Schwarz the latter bounds every
    expected coefficient.  All lanes are nonnegative and below 2**width,
    so the packed values are equal exactly when every degree agrees.
    Lanes are unpacked only for a block that differs.
    """
    basis = irreducible_basis(m, n)
    weights = comb.enumerate_weights(m, n)
    top = 2 * m * n
    columns = [[kl_poly(kappa, lam).coefficients for kappa in weights] for lam in weights]
    bound = max(sum(sum(poly) ** 2 for poly in column) for column in columns)
    width, packed = 0, []
    mismatches = []
    buckets = 0
    for k, lam in enumerate(weights):
        counts = basis.source_counts(lam)
        if (need := max([bound, *counts.values()]).bit_length()) > width:
            width = need
            packed = [[_pack(poly, width) for poly in column] for column in columns]
        mask = (1 << width) - 1
        got = dict.fromkeys(weights, 0)
        for (end, i), count in counts.items():
            got[end] |= count << i * width
        for mu, right in zip(weights, packed):
            want = sum(map(operator.mul, packed[k], right))
            high = want >> (top + 1) * width
            buckets += top + 1
            while high:
                buckets += bool(high & mask)
                high >>= width
            if got[mu] != want:
                lanes = max(top + 1, -(-want.bit_length() // width))
                for i in range(lanes):
                    expected, count = want >> i * width & mask, counts.get((mu, i), 0)
                    if count != expected:
                        mismatches.append((lam, mu, i, count, expected))
    return GradedDimensionReport(
        not mismatches, len(weights) ** 2, buckets, tuple(mismatches)
    )


# ---------------------------------------------------------------------------
# the staircase chart

# Vertices are named by where their early down-marks sit.  The main
# track sigma moves one down-mark at a time across the up-marks, block
# i carrying the (i+1)-th mark from position n+i to position i.  The
# second track tau runs one move ahead with the next mark, the third
# track upsilon two moves ahead, and the top-end track omega finishes
# the last mark while the second-to-last rests one short of home.


class StaircaseChart:
    """Distinguished vertices and arrows used by the long relations
    and by the deformation cochains.  All lookups are validated
    against the actual quiver."""

    def __init__(self, m: int, n: int):
        if m < 2 or n < 2:
            raise ValueError("the staircase chart needs m >= 2 and n >= 2")
        self.m = m
        self.n = n
        self.quiver = build_quiver(m, n, dual=True)

    def _weight(self, positions) -> str:
        marks = [comb.UP] * (self.m + self.n)
        for p in positions:
            marks[p] = comb.DOWN
        return "".join(marks)

    def sigma(self, k: int) -> str:
        m, n = self.m, self.n
        if not 0 <= k <= m * n:
            raise ValueError(f"sigma index {k} out of range")
        if k == m * n:
            return self._weight(range(m))
        i, j = divmod(k, n)
        return self._weight(
            list(range(i)) + [n + i - j] + list(range(n + i + 1, n + m))
        )

    def tau(self, k: int) -> str:
        m, n = self.m, self.n
        i, j = divmod(k, n)
        if j == 0:
            i, j = i - 1, n
        if not (0 <= i <= m - 2 and 2 <= j <= n):
            raise ValueError(f"tau index {k} out of range")
        return self._weight(
            list(range(i)) + [n + i - j + 1, n + i] + list(range(n + i + 2, n + m))
        )

    def upsilon(self, k: int) -> str:
        m, n = self.m, self.n
        i, j = divmod(k, n)
        if j <= 1:
            i, j = i - 1, j + n
        if not (0 <= i <= m - 2 and 4 <= j <= n + 1):
            raise ValueError(f"upsilon index {k} out of range")
        return self._weight(
            list(range(i)) + [n + i - j + 2, n + i - 1] + list(range(n + i + 2, n + m))
        )

    def omega(self, k: int) -> str:
        m, n = self.m, self.n
        s = k - (n * (m - 1) - 1)
        if not 0 <= s <= n - 1:
            raise ValueError(f"omega index {k} out of range")
        return self._weight(list(range(m - 2)) + [m - 1, n + m - 1 - s])

    def _arrow(self, kind: str, source: str, target: str) -> Arrow:
        name = Arrow(kind, source, target).name
        arrow = self.quiver.by_name.get(name)
        if arrow is None:
            raise CertificationError(
                "expected staircase arrow is missing from the quiver",
                witness={"name": name},
            )
        return arrow

    # main track
    def xbar(self, k: int) -> Arrow:
        return self._arrow("xbar", self.sigma(k), self.sigma(k + 1))

    def ybar(self, k: int) -> Arrow:
        return self._arrow("ybar", self.sigma(k + 1), self.sigma(k))

    # diagonal moves between the main and the second track
    def xbar1p(self, k: int) -> Arrow:
        return self._arrow("xbar", self.sigma(k), self.tau(k + 1))

    def ybar1p(self, k: int) -> Arrow:
        return self._arrow("ybar", self.tau(k + 1), self.sigma(k))

    # second track, rejoining the main one at the block boundary
    def _tau_or_sigma(self, k: int) -> str:
        try:
            return self.tau(k)
        except ValueError:
            return self.sigma(k)

    def xbar1(self, k: int) -> Arrow:
        return self._arrow("xbar", self.tau(k), self._tau_or_sigma(k + 1))

    def ybar1(self, k: int) -> Arrow:
        return self._arrow("ybar", self._tau_or_sigma(k + 1), self.tau(k))

    # third track, entered by the long move from the main one
    def _upsilon_end(self, k: int) -> str:
        i, j = divmod(k, self.n)
        if j <= 1:
            i, j = i - 1, j + self.n
        if j == 3:
            return self.sigma(self.n * i + 1)
        return self.upsilon(k)

    def xbar2(self, k: int) -> Arrow:
        i, j = divmod(k, self.n)
        if j <= 1:
            i, j = i - 1, j + self.n
        target = self.sigma(k + 1) if j == self.n + 1 else self.upsilon(k + 1)
        return self._arrow("xbar", self._upsilon_end(k), target)

    def ybar2(self, k: int) -> Arrow:
        i, j = divmod(k, self.n)
        if j <= 1:
            i, j = i - 1, j + self.n
        source = self.sigma(k + 1) if j == self.n + 1 else self.upsilon(k + 1)
        return self._arrow("ybar", source, self._upsilon_end(k))

    # top-end track
    def xbar0(self, k: int) -> Arrow:
        return self._arrow("xbar", self.omega(k), self.omega(k + 1))

    def ybar0(self, k: int) -> Arrow:
        return self._arrow("ybar", self.omega(k + 1), self.omega(k))

    def ybar_prime(self) -> Arrow:
        m, n = self.m, self.n
        return self._arrow("ybar", self.sigma(m * n - 1), self.omega(m * n - 2))

    # chains; empty when the index range is empty
    def xchain(self, a: int, b: int) -> list[str]:
        return [self.xbar(k).name for k in range(a, b + 1)]

    def ychain(self, b: int, a: int) -> list[str]:
        return [self.ybar(k).name for k in range(b, a - 1, -1)]

    def x1chain(self, a: int, b: int) -> list[str]:
        return [self.xbar1(k).name for k in range(a, b + 1)]

    def y1chain(self, b: int, a: int) -> list[str]:
        return [self.ybar1(k).name for k in range(b, a - 1, -1)]

    def x2chain(self, a: int, b: int) -> list[str]:
        return [self.xbar2(k).name for k in range(a, b + 1)]

    def y2chain(self, b: int, a: int) -> list[str]:
        return [self.ybar2(k).name for k in range(b, a - 1, -1)]

    def x0chain(self, a: int, b: int) -> list[str]:
        return [self.xbar0(k).name for k in range(a, b + 1)]

    def y0chain(self, b: int, a: int) -> list[str]:
        return [self.ybar0(k).name for k in range(b, a - 1, -1)]


@lru_cache(maxsize=None)
def staircase_chart(m: int, n: int) -> StaircaseChart:
    return StaircaseChart(m, n)


# ---------------------------------------------------------------------------
# long relations as normal-form identities


class LongRelationReport(NamedTuple):
    ok: bool
    identities_checked: int
    failures: tuple


def verify_long_relations(m: int, n: int) -> LongRelationReport:
    """Check the staircase identities as normal-form equalities.

    Covers the two-term vertex relations along the main track, the
    collapse of an up-move against a following down-run, the long
    identities ending in the third-track chain, and the top-end
    detour identities.  Requires m >= n >= 2.
    """
    if not m >= n >= 2:
        raise ValueError("long relations need m >= n >= 2")
    chart = staircase_chart(m, n)
    system = reduction_system(m, n)
    qbar = chart.quiver

    def pth(arrows, start=None):
        return make_path(qbar, arrows, start)

    def combi(terms):
        out: LinComb = {}
        for path, coeff in terms:
            add_term(out, path, coeff)
        return out

    checks = []

    def add_check(name, lhs, rhs):
        checks.append((name, lhs, rhs))

    for i in range(m):
        for j in range(1, n - 1):
            k = n * i + j
            add_check(
                f"vertex({i},{j})",
                {pth([chart.ybar(k).name, chart.xbar(k).name]): 1},
                {pth([chart.xbar(k + 1).name, chart.ybar(k + 1).name]): -1},
            )
        k = n * i + n - 1
        add_check(
            f"vertex_top({i})",
            {pth([chart.ybar(k).name, chart.xbar(k).name]): 1},
            {},
        )
    for i in range(m - 1):
        k = n * i
        add_check(
            f"vertex_branch({i})",
            combi(
                [
                    (pth([chart.ybar(k).name, chart.xbar(k).name]), 1),
                    (pth([chart.xbar(k + 1).name, chart.ybar(k + 1).name]), 1),
                    (pth([chart.xbar1p(k + 1).name, chart.ybar1p(k + 1).name]), 1),
                ]
            ),
            {},
        )
    k = n * (m - 1)
    add_check(
        "vertex_last_branch",
        combi(
            [
                (pth([chart.ybar(k).name, chart.xbar(k).name]), 1),
                (pth([chart.xbar(k + 1).name, chart.ybar(k + 1).name]), 1),
            ]
        ),
        {},
    )

    for i in range(m):
        for j in range(1, n):
            for k in range(j, n):
                lhs = pth([chart.ybar(n * i + j).name] + chart.xchain(n * i + j, n * i + k))
                if k == n - 1:
                    rhs: LinComb = {}
                else:
                    rhs = {
                        pth(
                            chart.xchain(n * i + j + 1, n * i + k + 1)
                            + [chart.ybar(n * i + k + 1).name]
                        ): (-1) ** (k - j + 1)
                    }
                add_check(f"updown({i},{j},{k})", {lhs: 1}, rhs)
    for k in range(1, n + 1):
        lhs = pth(
            [chart.ybar(n * (m - 1)).name]
            + chart.xchain(n * (m - 1), m * n - k)
        )
        if k == 1:
            rhs = {}
        else:
            rhs = {
                pth(
                    chart.xchain(n * (m - 1) + 1, m * n - k + 1)
                    + [chart.ybar(m * n - k + 1).name]
                ): (-1) ** (n - k + 1)
            }
        add_check(f"updown_last({k})", {lhs: 1}, rhs)

    for i in range(m - 1):
        base = [chart.ybar(n * i).name] + chart.xchain(n * i, m * n - 3)
        long_tail = chart.x2chain(n * i + 3, n * (i + 1) + 1) + chart.xchain(
            n * (i + 1) + 2, m * n - 1
        )
        add_check(
            f"long({i})",
            {pth(base): 1},
            combi(
                [
                    (
                        pth(
                            chart.xchain(n * i + 1, m * n - 2)
                            + [chart.ybar(m * n - 2).name]
                        ),
                        -((-1) ** (n + m - i)),
                    ),
                    (
                        pth(
                            long_tail
                            + [chart.ybar(m * n - 1).name, chart.ybar(m * n - 2).name]
                        ),
                        -1,
                    ),
                ]
            ),
        )
        add_check(
            f"long_zero({i})",
            {pth([chart.ybar(n * i).name] + chart.xchain(n * i, m * n - 1)): 1},
            {},
        )
        add_check(
            f"long_corollary({i})",
            {pth([chart.ybar(n * i).name] + chart.xchain(n * i, m * n - 2)): 1},
            {
                pth(
                    chart.xchain(n * i + 1, m * n - 1) + [chart.ybar(m * n - 1).name]
                ): (-1) ** (n + m - i)
            },
        )

    # The detour identities pick up one sign per block the start lies
    # below the second-to-last one.
    top = n * (m - 1) - 1
    for i in range(m - 1):
        head = (
            [chart.ybar(n * i).name]
            + chart.xchain(n * i, top - 1)
            + chart.x0chain(top, m * n - 3)
        )
        add_check(
            f"detour({i})",
            {pth(head): 1},
            {
                pth(
                    chart.xchain(n * i + 1, m * n - 2) + [chart.ybar_prime().name]
                ): (-1) ** (m - 2 - i)
            },
        )
        full = head + chart.y0chain(m * n - 3, top) + chart.ychain(top - 1, n * (m - 2))
        add_check(
            f"detour_loop({i})",
            {pth(full): 1},
            {
                pth(
                    chart.xchain(n * i + 1, m * n - 2)
                    + chart.ychain(m * n - 2, n * (m - 2))
                ): -((-1) ** n) * (-1) ** (m - 2 - i)
            },
        )

    failures = []
    for name, lhs, rhs in checks:
        left = normal_form(lhs, system)
        right = normal_form(rhs, system)
        if left != right:
            diff = dict(left)
            scale_into(diff, right, -1)
            failures.append(
                {
                    "identity": name,
                    "difference": {repr(p): str(c) for p, c in diff.items()},
                }
            )
    return LongRelationReport(not failures, len(checks), tuple(failures))
