"""Koszul dual presentation: orthogonal relations and a certified
reduction system.

The opposite quiver carries the quadratic dual of the diagram algebra.
Its relation space is computed block by block as the exact orthogonal
complement of the plain relations under the pairing that matches a
length-two path with its reversed dual path.

On top of the dual relations sits a reduction system.  Left-hand sides
are the peak words (up-down through a common top), the reducible
two-step ascents and descents, and a family of longer staircase words
whose final exchange closes a cup carried along from the start.  Every
length-two right-hand side is produced by certified linear elimination
inside the corresponding relation block: the designated reducible
paths must be exactly the pivot columns, so each rewrite rule is the
unique expression of its left-hand side by irreducible paths modulo
the ideal.  The longer rules take the signed alternate staircase as
right-hand side and are certified by exact membership of lhs - rhs in
the padded quadratic ideal.

The irreducible paths of the reduction system are the basis of the
dual algebra.  `irreducible_basis` enumerates them once per size,
bucketed by (start, end, length), and certifies that the enumeration
is complete: it runs one level past the top length 2mn, and an
irreducible path found there raises CertificationError.  The KL checks
below and every Hochschild computation read this one index.

Kazhdan-Lusztig polynomials, computed by the cup-deletion recursion,
grade the irreducible paths: the coefficient of q^k counts ascending
irreducible paths of length k, and the number of irreducible paths
between two vertices equals the inner product of KL columns.  Both
counts are exposed independently of the rewriting machinery so they
can cross-check it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

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
    paths_of_length_two,
    relations_K,
)
from .rewrite import (
    DEFAULT_FUEL,
    DiamondReport,
    LinComb,
    Path,
    ReductionSystem,
    add_term,
    check_diamond,
    irreducible_paths_from,
    make_path,
    make_rule,
    normal_form,
    path_key,
    scale_into,
)


# ---------------------------------------------------------------------------
# dual quadratic relations


def orthogonal_relations(relations: RelationSet) -> RelationSet:
    """Blockwise orthogonal complement on the opposite quiver.

    A length-two path (a, b) pairs with the reversed dual path
    (dual(b), dual(a)); the complement is taken with respect to the
    dot product in these matched coordinates.  Certifies exact
    orthogonality and that block dimensions are complementary.
    """
    if relations.dual:
        raise ValueError("expected the plain relation set")
    if not relations.blocks:
        raise ValueError("empty relation set")
    m, n = weight_type(relations.blocks[0].source)
    qbar = build_quiver(m, n, dual=True)
    out_blocks = []
    for b in relations.blocks:
        dual_paths = paths_of_length_two(qbar, b.target, b.source)
        if len(dual_paths) != len(b.paths):
            raise CertificationError(
                "dual path count mismatch",
                witness={"block": (b.source, b.target)},
            )
        col = {p: i for i, p in enumerate(dual_paths)}
        perm = [col[(dual_arrow(b2), dual_arrow(b1))] for (b1, b2) in b.paths]
        permuted = []
        for row in b.rows:
            vec = [Fraction(0)] * len(dual_paths)
            for coeff, j in zip(row, perm):
                vec[j] = coeff
            permuted.append(vec)
        kernel = linalg.nullspace(permuted, len(dual_paths))
        reduced, _ = linalg.rref(kernel)
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
        if linalg.first_nonzero_product(permuted, reduced) is not None:
            raise CertificationError(
                "pairing of relation spaces is not zero",
                witness={"block": (b.target, b.source)},
            )
        out_blocks.append(
            RelationBlock(
                b.target, b.source, dual_paths, tuple(tuple(r) for r in reduced)
            )
        )
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


@dataclass(frozen=True)
class TaggedLhs:
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
    return make_path(qbar, [f"ybar:{u}->{w}" for u, w in zip(verts, verts[1:])])


def _xbar_path(qbar: Quiver, verts) -> Path:
    down = list(reversed(verts))
    return make_path(qbar, [f"xbar:{u}->{w}" for u, w in zip(down, down[1:])])


@lru_cache(maxsize=None)
def build_S(m: int, n: int) -> tuple[TaggedLhs, ...]:
    """All left-hand sides of the dual reduction system, with tags."""
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
    for vs in _cubic_sequences(m, n):
        out.append(TaggedLhs(_ybar_path(qbar, vs), TYPE_CUBIC))
        out.append(TaggedLhs(_xbar_path(qbar, vs), TYPE_CUBIC))
    out.sort(key=lambda s: path_key(s.path))
    return tuple(out)


# ---------------------------------------------------------------------------
# right-hand sides by certified elimination


def _paths_from(qbar: Quiver, source: str, length: int):
    """All paths of the given length out of a vertex, reducible or not."""
    out = [Path(source, (), source)]
    for _ in range(length):
        out = [
            Path(source, p.arrows + (a.name,), a.target)
            for p in out
            for a in qbar.out[p.end]
        ]
    return sorted(out, key=path_key)


def _paths_between(qbar: Quiver, source: str, target: str, length: int):
    return [p for p in _paths_from(qbar, source, length) if p.end == target]


def _eliminate_block(
    qbar: Quiver, block: RelationBlock | None, designated: list[TaggedLhs]
) -> dict[tuple[str, ...], LinComb]:
    """Solve a length-two relation block for its designated paths.

    The relation rows are re-ordered with the designated columns
    first; the reduced form must have exactly those as pivots, which
    makes the elimination unique and every complementary term
    irreducible in the block.
    """
    key = (designated[0].path.start, designated[0].path.end)
    if block is None or not block.rows:
        raise CertificationError(
            "no relations available to eliminate a designated path",
            witness={"block": key, "designated": [repr(s.path) for s in designated]},
        )
    pobjs = [make_path(qbar, [a, b]) for a, b in block.paths]
    des_arrows = {s.path.arrows for s in designated}
    des_idx = sorted(
        (i for i, p in enumerate(pobjs) if p.arrows in des_arrows),
        key=lambda i: path_key(pobjs[i]),
    )
    free_idx = sorted(
        (i for i, p in enumerate(pobjs) if p.arrows not in des_arrows),
        key=lambda i: path_key(pobjs[i]),
    )
    if len(des_idx) != len(des_arrows):
        raise CertificationError(
            "designated path missing from its block",
            witness={"block": key},
        )
    order = des_idx + free_idx
    rows = [[row[j] for j in order] for row in block.rows]
    reduced, pivots = linalg.rref(rows)
    if pivots != list(range(len(des_idx))):
        raise CertificationError(
            "designated paths are not the pivots of their relation block",
            witness={
                "block": key,
                "designated": [repr(pobjs[i]) for i in des_idx],
                "pivots": [repr(pobjs[order[p]]) for p in pivots],
            },
        )
    out = {}
    for r, row in enumerate(reduced):
        phi: LinComb = {}
        for c in range(len(des_idx), len(order)):
            if row[c]:
                add_term(phi, pobjs[order[c]], -row[c])
        out[pobjs[des_idx[r]].arrows] = phi
    return out


def _certify_cubic_membership(qbar, relations, entries):
    """Exact membership of lhs - rhs in the padded quadratic ideal.

    entries maps (source, target, length) to a list of
    (lhs path, alternate path, sign) triples sharing that block.
    """
    by_source = {}
    for b in relations.blocks:
        if b.rows:
            by_source.setdefault(b.source, []).append(b)
    for (source, target, length), triples in sorted(entries.items()):
        paths = _paths_between(qbar, source, target, length)
        index = {p.arrows: i for i, p in enumerate(paths)}
        rows = []
        for cut in range(length - 1):
            for prefix in _paths_from(qbar, source, cut):
                for block in by_source.get(prefix.end, ()):
                    tail = length - cut - 2
                    for suffix in _paths_between(qbar, block.target, target, tail):
                        for row in block.rows:
                            vec = [Fraction(0)] * len(paths)
                            for coeff, (a, b) in zip(row, block.paths):
                                if coeff:
                                    arrows = (
                                        prefix.arrows
                                        + (a.name, b.name)
                                        + suffix.arrows
                                    )
                                    vec[index[arrows]] += coeff
                            if any(vec):
                                rows.append(vec)
        reduced, pivots = linalg.rref(rows)
        for lhs, alt, sign in triples:
            vec = [Fraction(0)] * len(paths)
            vec[index[lhs.arrows]] = Fraction(1)
            vec[index[alt.arrows]] -= Fraction(sign)
            if not linalg.in_span(vec, reduced, pivots):
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
    tagged = build_S(m, n)
    by_block: dict[tuple[str, str], list[TaggedLhs]] = {}
    cubic: list[TaggedLhs] = []
    for s in tagged:
        if s.tag == TYPE_CUBIC:
            cubic.append(s)
        else:
            by_block.setdefault((s.path.start, s.path.end), []).append(s)
    rules = []
    for (source, target), group in sorted(by_block.items()):
        phis = _eliminate_block(qbar, relations.block(source, target), group)
        for s in group:
            phi = phis[s.path.arrows]
            if s.tag == TYPE_MONOMIAL and phi:
                raise CertificationError(
                    "monomial rule has a nonzero right-hand side",
                    witness={"lhs": repr(s.path), "phi": repr(phi)},
                )
            rules.append(make_rule(s.path, phi, tag=s.tag))
    cubic_entries: dict[tuple[str, str, int], list] = {}
    for s in cubic:
        verts = _vertex_sequence(qbar, s.path)
        if s.path.arrows[0].startswith("xbar"):
            verts = tuple(reversed(verts))
        alt_verts, sign = _cubic_alternate(verts)
        if s.path.arrows[0].startswith("xbar"):
            alt = _xbar_path(qbar, alt_verts)
        else:
            alt = _ybar_path(qbar, alt_verts)
        key = (s.path.start, s.path.end, len(s.path))
        cubic_entries.setdefault(key, []).append((s.path, alt, sign))
        rules.append(make_rule(s.path, {alt: Fraction(sign)}, tag=s.tag))
    if cubic_entries:
        _certify_cubic_membership(qbar, relations, cubic_entries)
    return ReductionSystem(qbar, rules)


def _vertex_sequence(qbar: Quiver, path: Path) -> tuple[str, ...]:
    verts = [path.start]
    for name in path.arrows:
        verts.append(qbar.by_name[name].target)
    return tuple(verts)


def phi_of(s: TaggedLhs) -> LinComb:
    """Right-hand side of the rule for a tagged left-hand side."""
    m, n = weight_type(s.path.start)
    system = reduction_system(m, n)
    try:
        rule = system.rule_for(s.path.arrows)
    except KeyError:
        raise ValueError(f"{s.path!r} is not a left-hand side") from None
    return rule.rhs_comb()


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


@dataclass(frozen=True)
class KLPolynomial:
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


def ascending_irr_count(lam: str, mu: str, k: int) -> int:
    """Ascending irreducible paths of length k, counted directly.

    A path is reducible exactly when some exchanged cup survives a
    stretch of earlier levels and fails, somewhere in that stretch, to
    lie left of or enclose the cup exchanged there.  The count uses
    only this criterion, no rewrite rules.
    """
    if weight_type(lam) != weight_type(mu):
        raise ValueError(f"weights {lam!r} and {mu!r} have different types")
    if k == 0:
        return 1 if lam == mu else 0
    count = 0
    stack = [((lam,), ())]
    while stack:
        ws, cs = stack.pop()
        w = ws[-1]
        for c in cup_matching(w).cups:
            ok = True
            for back in range(1, len(ws)):
                if c not in cup_matching(ws[-1 - back]).cups:
                    break
                earlier = cs[-back]
                if not (is_left_of(c, earlier) or is_nested(earlier, c)):
                    ok = False
                    break
            if not ok:
                continue
            nxt = exchange_pair(w, c)
            if len(cs) + 1 == k:
                if nxt == mu:
                    count += 1
            else:
                stack.append((ws + (nxt,), cs + (c,)))
    return count


# ---------------------------------------------------------------------------
# certification


@lru_cache(maxsize=None)
def irreducible_basis(m: int, n: int) -> MappingProxyType:
    """All irreducible paths, bucketed by (start, end, length), each
    bucket in path_key order.  The mapping is cached and shared, so it
    is read-only.

    Enumerates one level past the expected top length 2mn; since every
    prefix of an irreducible path is irreducible, an empty extra level
    certifies that the enumeration is complete.
    """
    system = reduction_system(m, n)
    top = 2 * m * n
    buckets: dict = {}
    for source in sorted(system.quiver.vertices, key=comb.sort_key):
        for p in irreducible_paths_from(system, source, top + 1):
            if len(p.arrows) > top:
                raise CertificationError(
                    "irreducible path above the expected top length",
                    witness={"m": m, "n": n, "path": repr(p)},
                )
            buckets.setdefault((p.start, p.end, len(p.arrows)), []).append(p)
    return MappingProxyType(
        {k: tuple(sorted(v, key=path_key)) for k, v in buckets.items()}
    )


@dataclass(frozen=True)
class DualSystemReport:
    ok: bool
    diamond: DiamondReport
    pairs_checked: int
    dimension: int
    mismatches: tuple


def certify_dual_system(
    m: int, n: int, fuel: int = DEFAULT_FUEL
) -> DualSystemReport:
    """Diamond check plus the KL dimension match, block by block.

    The number of irreducible paths between two vertices must equal
    the inner product of the KL columns at q = 1; disagreements are
    reported with both numbers rather than resolved either way.
    """
    diamond = check_diamond(reduction_system(m, n), fuel)
    weights = comb.enumerate_weights(m, n)
    counts: dict[tuple[str, str], int] = {}
    for (start, end, _), bucket in irreducible_basis(m, n).items():
        counts[(start, end)] = counts.get((start, end), 0) + len(bucket)
    at_one = {
        (kappa, lam): kl_poly(kappa, lam).at_one()
        for kappa in weights
        for lam in weights
    }
    mismatches = []
    dimension = 0
    for lam in weights:
        for mu in weights:
            expected = sum(
                at_one[(kappa, lam)] * at_one[(kappa, mu)] for kappa in weights
            )
            got = counts.get((lam, mu), 0)
            dimension += got
            if got != expected:
                mismatches.append((lam, mu, got, expected))
    ok = diamond.ok and not mismatches
    return DualSystemReport(ok, diamond, len(weights) ** 2, dimension, tuple(mismatches))


@dataclass(frozen=True)
class GradedDimensionReport:
    ok: bool
    pairs_checked: int
    buckets_checked: int
    mismatches: tuple


def certify_graded_dimensions(m: int, n: int) -> GradedDimensionReport:
    """Degree-by-degree refinement of the KL dimension match.

    The number of irreducible paths of each length between two fixed
    vertices must equal the corresponding coefficient of the product
    of KL columns.  This pins the graded dimension of every block of
    the dual algebra, not just its total, so any miscounted homogeneous
    component anywhere in the irreducible-path basis shows up here.
    """
    basis = irreducible_basis(m, n)
    weights = comb.enumerate_weights(m, n)
    polys = {
        (kappa, lam): kl_poly(kappa, lam).coefficients
        for kappa in weights
        for lam in weights
    }
    mismatches = []
    buckets = 0
    for lam in weights:
        for mu in weights:
            expected: dict[int, int] = {}
            for kappa in weights:
                for a, ca in enumerate(polys[(kappa, lam)]):
                    for b, cb in enumerate(polys[(kappa, mu)]):
                        if ca and cb:
                            expected[a + b] = expected.get(a + b, 0) + ca * cb
            degrees = set(range(2 * m * n + 1)) | set(expected)
            for i in sorted(degrees):
                buckets += 1
                got = len(basis.get((lam, mu, i), ()))
                want = expected.get(i, 0)
                if got != want:
                    mismatches.append((lam, mu, i, got, want))
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
        name = f"{kind}:{source}->{target}"
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


@dataclass(frozen=True)
class LongRelationReport:
    ok: bool
    identities_checked: int
    failures: tuple


def verify_long_relations(
    m: int, n: int, fuel: int = DEFAULT_FUEL
) -> LongRelationReport:
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

    def nf(x):
        return normal_form(x, system, fuel)

    def combi(terms):
        out: LinComb = {}
        for path, coeff in terms:
            add_term(out, path, Fraction(coeff))
        return out

    checks = []

    def add_check(name, lhs, rhs):
        checks.append((name, lhs, rhs))

    mn = m * n
    for i in range(m):
        for j in range(1, n - 1):
            k = n * i + j
            add_check(
                f"vertex({i},{j})",
                {pth([chart.ybar(k).name, chart.xbar(k).name]): Fraction(1)},
                {pth([chart.xbar(k + 1).name, chart.ybar(k + 1).name]): Fraction(-1)},
            )
        k = n * i + n - 1
        add_check(
            f"vertex_top({i})",
            {pth([chart.ybar(k).name, chart.xbar(k).name]): Fraction(1)},
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
                        ): Fraction((-1) ** (k - j + 1))
                    }
                add_check(f"updown({i},{j},{k})", {lhs: Fraction(1)}, rhs)
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
                ): Fraction((-1) ** (n - k + 1))
            }
        add_check(f"updown_last({k})", {lhs: Fraction(1)}, rhs)

    for i in range(m - 1):
        base = [chart.ybar(n * i).name] + chart.xchain(n * i, m * n - 3)
        long_tail = chart.x2chain(n * i + 3, n * (i + 1) + 1) + chart.xchain(
            n * (i + 1) + 2, m * n - 1
        )
        add_check(
            f"long({i})",
            {pth(base): Fraction(1)},
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
            {pth([chart.ybar(n * i).name] + chart.xchain(n * i, m * n - 1)): Fraction(1)},
            {},
        )
        add_check(
            f"long_corollary({i})",
            {pth([chart.ybar(n * i).name] + chart.xchain(n * i, m * n - 2)): Fraction(1)},
            {
                pth(
                    chart.xchain(n * i + 1, m * n - 1) + [chart.ybar(m * n - 1).name]
                ): Fraction((-1) ** (n + m - i))
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
            {pth(head): Fraction(1)},
            {
                pth(
                    chart.xchain(n * i + 1, m * n - 2) + [chart.ybar_prime().name]
                ): Fraction((-1) ** (m - 2 - i))
            },
        )
        full = head + chart.y0chain(m * n - 3, top) + chart.ychain(top - 1, n * (m - 2))
        add_check(
            f"detour_loop({i})",
            {pth(full): Fraction(1)},
            {
                pth(
                    chart.xchain(n * i + 1, m * n - 2)
                    + chart.ychain(m * n - 2, n * (m - 2))
                ): Fraction(-((-1) ** n) * (-1) ** (m - 2 - i))
            },
        )

    failures = []
    for name, lhs, rhs in checks:
        left = nf(lhs)
        right = nf(rhs)
        if left != right:
            diff = dict(left)
            scale_into(diff, right, Fraction(-1))
            failures.append(
                {
                    "identity": name,
                    "difference": {repr(p): str(c) for p, c in diff.items()},
                }
            )
    return LongRelationReport(not failures, len(checks), tuple(failures))
