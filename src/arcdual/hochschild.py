"""Bigraded second Hochschild cohomology of the dual algebras.

HH^2 is computed from first-order deformations of the certified
reduction system: a degree-q 2-cochain assigns to each rule lhs a
combination of irreducible parallel paths of length len(lhs) + q,
a cochain is a cocycle when every overlap ambiguity still resolves
to first order in the deformation parameter, and coboundaries come
from deforming the irreducible-path basis itself.  The cocycle
constraints are the linear form of the deformed diamond check: they
read the rule applications of `koszul.dual_resolution`, the resolution
`certify_dual_system` compares, and resolve nothing themselves.
The dimension of HH^2 in Adams degree q is

    dim ker(constraints) - rank(coboundary).

Both matrices are held sparse, and everything is exact over the
rationals.  An independent oracle recomputes the same dimension from
the reduced bar complex of the algebra on its irreducible-path basis;
its elimination fills in steeply with the basis size, so
ARCDUAL_BAR_CAPACITY guards it.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from . import linalg
from . import rewrite as rw
from .combinatorics import env_capacity, sort_key
from .errors import CapacityError, CertificationError
from .koszul import dual_resolution, irreducible_basis, reduction_system, staircase_chart
from .presentation import dual_arrow
from .rewrite import Path

BAR_CAPACITY_ENV = "ARCDUAL_BAR_CAPACITY"
BAR_CAPACITY_DEFAULT = 200


# ---------------------------------------------------------------------------
# cochain bases


class Cochain2(NamedTuple):
    """Basis 2-cochain: the rule with left-hand side `lhs` is sent to
    `path`, every other rule to zero."""

    lhs: tuple[str, ...]
    path: Path


class Cochain1(NamedTuple):
    """Basis 1-cochain: the generator `arrow` is sent to `path`."""

    arrow: str
    path: Path


@lru_cache(maxsize=None)
def cochain2_basis(m: int, n: int, q: int) -> tuple[Cochain2, ...]:
    """Rule-indexed 2-cochains of Adams degree q, in rule order and then
    path order.  Empty in odd degrees because parallel paths have the
    same length parity."""
    system = reduction_system(m, n)
    basis = irreducible_basis(m, n)
    out = []
    for rule in system.rules:
        lhs = rule.lhs
        for p in basis.bucket(lhs.start, lhs.end, len(lhs.arrows) + q):
            out.append(Cochain2(lhs.arrows, p))
    return tuple(out)


@lru_cache(maxsize=None)
def cochain1_basis(m: int, n: int, q: int) -> tuple[Cochain1, ...]:
    system = reduction_system(m, n)
    basis = irreducible_basis(m, n)
    out = []
    for arrow in sorted(system.quiver.arrows, key=lambda a: a.name):
        for p in basis.bucket(arrow.source, arrow.target, 1 + q):
            out.append(Cochain1(arrow.name, p))
    return tuple(out)


# ---------------------------------------------------------------------------
# cocycle constraints from overlap ambiguities


class ConstraintSystem(NamedTuple):
    """A labelled sparse exact matrix, rows labelled `rows` and columns
    `cols`.  `vectors` holds its nonzero entries as read-only mappings,
    one {column index: c} per row, or one {row index: c} per column when
    `by_column`: the cocycle constraints are held by row and the
    coboundary by column, one vector per 1-cochain."""

    rows: tuple
    cols: tuple
    vectors: tuple
    by_column: bool = False

    @property
    def matrix(self) -> tuple:
        """The dense row-major table, rebuilt on every access and never
        cached.  Only `perfbench/trace_op.py` reads it."""
        if self.by_column:
            return tuple(
                tuple(col.get(i, 0) for col in self.vectors) for i in range(len(self.rows))
            )
        return tuple(tuple(row.get(j, 0) for j in range(len(self.cols))) for row in self.vectors)


def _confluent_resolution(m: int, n: int):
    """The rule applications of `dual_resolution(m, n)`, one flat tuple
    (start, lhs, factor, head, tail, ...) per overlap.
    CertificationError if the dual system is not confluent."""
    diamond, applications = dual_resolution(m, n)
    if not diamond.ok:
        raise CertificationError(
            "dual reduction system fails the diamond check", witness=diamond.failures[0]
        )
    return applications


@lru_cache(maxsize=None)
def cocycle_constraints(m: int, n: int, q: int) -> ConstraintSystem:
    """Linear conditions on 2-cochains for all overlaps to resolve at
    first order: per overlap, factor * NF(prefix * value(lhs) * suffix)
    summed over its rule applications vanishes.  Rows are labelled
    (overlap index, irreducible path); identically zero rows are
    dropped.  CertificationError if the dual system is not confluent."""
    applications = _confluent_resolution(m, n)
    system = reduction_system(m, n)
    kernel = system.kernel
    basis = cochain2_basis(m, n, q)
    by_lhs: dict = {}
    for j, c in enumerate(basis):
        by_lhs.setdefault(c.lhs, []).append((j, kernel.ids(c.path)))
    rows = []
    vectors = []
    for o_idx, events in enumerate(applications):
        start = events[0]
        acc: dict = {}
        for lhs, factor, head, tail in _runs(events[1:], 4):
            for j, ids in by_lhs.get(lhs, ()):
                word = head + ids + tail
                for t, c in rw.reduce_keys(system, {(len(word), start, word): 1}).items():
                    linalg.add_term(acc.setdefault(t, {}), j, factor * c)
        # integer keys sort as path_key
        for t in sorted(acc):
            if acc[t]:
                rows.append((o_idx, kernel.path(t)))
                vectors.append(acc[t])
    return ConstraintSystem(tuple(rows), basis, tuple(map(MappingProxyType, vectors)))


# ---------------------------------------------------------------------------
# coboundaries


@lru_cache(maxsize=None)
def _insertion_slots(m: int, n: int):
    """Arrow occurrences in the two-sided relation lhs - rhs of every
    rule, keyed by arrow id, as (lhs, coeff, term, position): the arrow
    at `position` of the word `term`, a tuple of arrow ids read from the
    rewriting kernel and shared by the slots of its arrows, in the
    relation with left-hand side `lhs`.  Coboundaries substitute a
    1-cochain value into each occurrence, slicing the term there."""
    slots: dict = {}
    for lhs_ids, (rule, _, rhs, _) in reduction_system(m, n).kernel.table.items():
        for term, coeff in ((lhs_ids, 1), *((q, -c) for q, c in rhs)):
            for k, a in enumerate(term):
                slots.setdefault(a, []).append((rule.lhs, coeff, term, k))
    return {a: tuple(v) for a, v in slots.items()}


@lru_cache(maxsize=None)
def coboundary_matrix(m: int, n: int, q: int) -> ConstraintSystem:
    """Matrix of the coboundary map from 1-cochains to 2-cochains in
    Adams degree q, on the bases above, held by column: the image of
    each 1-cochain."""
    system = reduction_system(m, n)
    kernel = system.kernel
    basis2 = cochain2_basis(m, n, q)
    basis1 = cochain1_basis(m, n, q)
    index2 = {(c.lhs, kernel.key(c.path)): i for i, c in enumerate(basis2)}
    cols = tuple({} for _ in basis1)
    slots = _insertion_slots(m, n)
    for col, c1 in zip(cols, basis1):
        value = kernel.ids(c1.path)
        for lhs, coeff, term, k in slots.get(kernel.ident[c1.arrow], ()):
            word = term[:k] + value + term[k + 1 :]
            for t, c in rw.reduce_keys(system, {(len(word), lhs.start, word): 1}).items():
                i = index2.get((lhs.arrows, t))
                if i is None:
                    raise CertificationError(
                        "coboundary image leaves the cochain basis",
                        witness={"rule": lhs.arrows, "path": repr(kernel.path(t))},
                    )
                linalg.add_term(col, i, coeff * c)
    return ConstraintSystem(basis2, basis1, tuple(map(MappingProxyType, cols)), by_column=True)


# ---------------------------------------------------------------------------
# the distinguished cocycle basis in the critical degree


@lru_cache(maxsize=None)
def alpha_basis(m: int, n: int) -> tuple[Cochain2, ...]:
    """The eleven 2-cochains spanning the critical Adams degree 2mn - 6,
    built from the staircase chart.  Each is certified to sit on an
    actual rule lhs with an irreducible parallel path of length 2mn - 4.
    Requires m, n >= 2."""
    ch = staircase_chart(m, n)
    system = reduction_system(m, n)
    nm = m * n
    templates = (
        ((ch.ybar(0), ch.xbar(0)), ch.xchain(1, nm - 2) + ch.ychain(nm - 2, 1)),
        (
            (ch.ybar(0), ch.xbar(0)),
            ch.x2chain(3, n + 1) + ch.xchain(n + 2, nm - 1) + ch.ychain(nm - 1, 1),
        ),
        (
            (ch.ybar(0), ch.xbar(0)),
            ch.xchain(1, nm - 1) + ch.ychain(nm - 1, n + 2) + ch.y2chain(n + 1, 3),
        ),
        ((ch.ybar(1), ch.xbar(1)), ch.xchain(2, nm - 1) + ch.ychain(nm - 1, 2)),
        (
            (ch.ybar1p(1), ch.xbar1p(1)),
            ch.x1chain(2, n)
            + ch.xchain(n + 1, nm - 1)
            + ch.ychain(nm - 1, n + 1)
            + ch.y1chain(n, 2),
        ),
        (
            (ch.ybar2(3), ch.ybar(0)),
            ch.x2chain(4, n + 1) + ch.xchain(n + 2, nm - 1) + ch.ychain(nm - 1, 0),
        ),
        (
            (ch.xbar(0), ch.xbar2(3)),
            ch.xchain(0, nm - 1) + ch.ychain(nm - 1, n + 2) + ch.y2chain(n + 1, 4),
        ),
        (
            (ch.ybar1p(1), ch.xbar(1)),
            ch.x1chain(2, n) + ch.xchain(n + 1, nm - 1) + ch.ychain(nm - 1, 2),
        ),
        (
            (ch.ybar(1), ch.xbar1p(1)),
            ch.xchain(2, nm - 1) + ch.ychain(nm - 1, n + 1) + ch.y1chain(n, 2),
        ),
        (
            (ch.ybar1(2), ch.ybar1p(1)),
            ch.x1chain(3, n) + ch.xchain(n + 1, nm - 1) + ch.ychain(nm - 1, 1),
        ),
        (
            (ch.xbar1p(1), ch.xbar1(2)),
            ch.xchain(1, nm - 1) + ch.ychain(nm - 1, n + 1) + ch.y1chain(n, 3),
        ),
    )
    out = []
    for k, (pair, arrows) in enumerate(templates):
        lhs = tuple(a.name for a in pair)
        try:
            rule = system.rule_for(lhs)
        except KeyError:
            raise CertificationError(
                "distinguished cochain lhs is not a rule",
                witness={"m": m, "n": n, "index": k + 1, "lhs": lhs},
            ) from None
        path = rw.make_path(system.quiver, arrows)
        ok = (
            path.start == rule.lhs.start
            and path.end == rule.lhs.end
            and len(path.arrows) == 2 * m * n - 4
            and rw.is_irreducible(path, system)
        )
        if not ok:
            raise CertificationError(
                "distinguished cochain path is not an irreducible parallel",
                witness={"m": m, "n": n, "index": k + 1, "path": repr(path)},
            )
        out.append(Cochain2(lhs, path))
    return tuple(out)


# ---------------------------------------------------------------------------
# dimension and certificate


class HH2Certificate(NamedTuple):
    m: int
    n: int
    q: int
    constraint_rank: int
    kernel_dim: int
    image_rank: int
    dimension: int
    basis: tuple[Cochain2, ...]
    constraint_normal_vector: tuple | None


@lru_cache(maxsize=None)
def hh2_certificate(m: int, n: int, q: int) -> HH2Certificate:
    """Exact ranks behind dim HH^2 in Adams degree q.

    Always certifies that the coboundary image satisfies the cocycle
    constraints.  When the constraints are vacuous and the coboundary
    has corank one, also records the primitive integer normal vector
    of the image hyperplane in the basis recorded on the certificate.
    In the critical degree the basis is `alpha_basis`, in distinguished
    order; CertificationError if that is not the cochain basis.
    """
    cons = cocycle_constraints(m, n, q)
    cob = coboundary_matrix(m, n, q)
    basis2 = cob.rows
    n2 = len(basis2)
    constraint_rank = linalg.sparse_rank(cons.vectors)
    image_rank = linalg.sparse_rank(cob.vectors)
    violation = linalg.first_nonzero_product(cons.vectors, cob.vectors)
    if violation is not None:
        r_idx, j = violation
        raise CertificationError(
            "coboundary image violates a cocycle constraint",
            witness={"cochain": cob.cols[j], "row": cons.rows[r_idx]},
        )
    kernel_dim = n2 - constraint_rank
    dimension = kernel_dim - image_rank
    basis = basis2
    normal = None
    if constraint_rank == 0 and n2 and image_rank == n2 - 1:
        null = linalg.nullspace(cob.vectors, n2)
        if len(null) == 1:
            normal = tuple(linalg.primitive_integer_vector(null[0]))
    if m >= 2 and n >= 2 and q == critical_degree(m, n):
        alphas = alpha_basis(m, n)
        if len(alphas) != n2 or set(alphas) != set(basis2):
            raise CertificationError(
                "distinguished cochains are not the critical cochain basis",
                witness={"m": m, "n": n, "distinguished": len(alphas), "cochains": n2},
            )
        position = {c: i for i, c in enumerate(basis2)}
        if normal is not None:
            normal = tuple(normal[position[c]] for c in alphas)
        basis = alphas
    return HH2Certificate(
        m=m,
        n=n,
        q=q,
        constraint_rank=constraint_rank,
        kernel_dim=kernel_dim,
        image_rank=image_rank,
        dimension=dimension,
        basis=basis,
        constraint_normal_vector=normal,
    )


def hh2_dim(m: int, n: int, q: int) -> int:
    return hh2_certificate(m, n, q).dimension


def adams_degrees(m: int, n: int) -> range:
    """The even Adams degrees 0, 2, ..., 2mn - 2 that `hh2_table` and
    `verify` cover; degree 0 alone when mn = 0."""
    return range(0, max(2 * m * n - 1, 1), 2)


def critical_degree(m: int, n: int) -> int:
    """The Adams degree 2mn - 6 of the distinguished HH^2 class.
    ValueError unless m, n >= 2, where the class is defined."""
    if m < 2 or n < 2:
        raise ValueError(
            f"no distinguished HH^2 class for ({m}, {n}): it needs m, n >= 2, "
            "and for min(m, n) <= 1 HH^2 vanishes in Stroppel's range"
        )
    return 2 * m * n - 6


def hh2_table(m: int, n: int):
    """Rows (q, dim HH^2_q) for the degrees of `adams_degrees`."""
    return tuple((q, hh2_dim(m, n, q)) for q in adams_degrees(m, n))


# ---------------------------------------------------------------------------
# cocycle extraction


def _cochain_dict(basis, vector: dict):
    out: dict = {}
    for j, value in vector.items():
        out.setdefault(basis[j].lhs, {})[basis[j].path] = value
    return out


def extract_cocycle(m: int, n: int, q: int) -> dict:
    """A cocycle representing a nonzero class, as {lhs: {path: coeff}}.

    Prefers the distinguished staircase cochain in the critical degree
    and the short two-arrow detour cochain for (2, 2) in degree zero;
    otherwise takes the first kernel vector outside the coboundary
    image.  Every candidate is certified before it is returned.
    Raises ValueError when HH^2 vanishes in this degree.
    """
    cert = hh2_certificate(m, n, q)
    if cert.dimension == 0:
        raise ValueError(f"HH^2 of ({m}, {n}) vanishes in Adams degree {q}")
    cons = cocycle_constraints(m, n, q)
    cob = coboundary_matrix(m, n, q)
    candidates = []
    if m >= 2 and n >= 2 and q == critical_degree(m, n):
        candidates.append({cob.rows.index(alpha_basis(m, n)[1]): 1})
    if (m, n, q) == (2, 2, 0):
        ch = staircase_chart(2, 2)
        lhs = (ch.ybar(0).name, ch.xbar(0).name)
        detour = rw.make_path(
            reduction_system(2, 2).quiver, [ch.xbar2(3).name, ch.ybar2(3).name]
        )
        candidates.append({cob.rows.index(Cochain2(lhs, detour)): 1})
    for vec in linalg.nullspace(cons.vectors, len(cob.rows)):
        candidates.append({j: x for j, x in enumerate(vec) if x})

    for vec in candidates:
        in_kernel = linalg.first_nonzero_product(cons.vectors, [vec]) is None
        if in_kernel and linalg.sparse_rank([*cob.vectors, vec]) > cert.image_rank:
            return _cochain_dict(cob.rows, vec)
    raise CertificationError(
        "no certified cocycle outside the coboundary image",
        witness={"m": m, "n": n, "q": q},
    )


# ---------------------------------------------------------------------------
# presentation of deformed algebras


@lru_cache(maxsize=None)
def compact_labels(m: int, n: int) -> dict:
    """Short generator labels for display.  Only the (2, 2) algebra has
    the classical two-index naming; other sizes fall back to raw arrow
    names."""
    if (m, n) != (2, 2):
        return {}
    ch = staircase_chart(2, 2)
    xb = "x̄"
    yb = "ȳ"
    pairs = (
        (ch.xbar(0), xb + "11"),
        (ch.xbar(1), xb + "21"),
        (ch.xbar(2), xb + "22"),
        (ch.xbar(3), xb + "32"),
        (ch.xbar1p(1), xb + "12"),
        (ch.xbar1(2), xb + "31"),
        (ch.xbar2(3), xb + "2"),
        (ch.ybar(0), yb + "11"),
        (ch.ybar(1), yb + "21"),
        (ch.ybar(2), yb + "22"),
        (ch.ybar(3), yb + "32"),
        (ch.ybar1p(1), yb + "12"),
        (ch.ybar1(2), yb + "31"),
        (ch.ybar2(3), yb + "2"),
    )
    return {arrow.name: label for arrow, label in pairs}


def _display_key(quiver, path: Path):
    """Order parallel paths by their vertex itinerary in the canonical
    weight order; the raw arrow names would sort '^' before 'v'."""
    seq = [sort_key(path.start)]
    vertex = path.start
    for name in path.arrows:
        vertex = quiver.by_name[name].target
        seq.append(sort_key(vertex))
    return tuple(seq)


def _render_side(quiver, terms, labels) -> str:
    if not terms:
        return "0"
    parts = []
    for i, (path, coeff) in enumerate(terms):
        if path.arrows:
            word = " ".join(labels.get(a, a) for a in path.arrows)
        else:
            word = f"e({path.start})"
        magnitude = "" if abs(coeff) == 1 else f"{abs(coeff)} "
        if i == 0:
            parts.append(("-" if coeff < 0 else "") + magnitude + word)
        else:
            parts.append((" - " if coeff < 0 else " + ") + magnitude + word)
    return "".join(parts)


def render_relation(quiver, rule, labels=None) -> str:
    """The rule as a relation: lhs minus its reduction equals the
    deformation term.  Terms are listed in the canonical geometric
    order, lhs first."""
    labels = labels or {}
    left = [(rule.lhs, 1)]
    left.extend(
        sorted(
            ((p, -c) for p, c in rule.rhs),
            key=lambda tc: _display_key(quiver, tc[0]),
        )
    )
    right = sorted(rule.rhs_t, key=lambda tc: _display_key(quiver, tc[0]))
    return _render_side(quiver, left, labels) + " = " + _render_side(quiver, right, labels)


def _a_infinity_claim(m: int, n: int, assignment: dict):
    """The higher-multiplication identity read off from the unit
    deformation along the second distinguished cochain.  Recorded only
    for exactly that cocycle; never recomputed from scratch."""
    if m < 2 or n < 2:
        return None
    alpha2 = alpha_basis(m, n)[1]
    if assignment != {alpha2.lhs: {alpha2.path: 1}}:
        return None
    quiver = reduction_system(m, n).quiver
    labels = compact_labels(m, n)

    def plain(name: str) -> str:
        label = labels.get(name)
        if label is not None:
            return label.replace("̄", "").replace("ȳ", "y")
        return dual_arrow(quiver.by_name[name]).name

    word = " ⊗ ".join(plain(a) for a in reversed(alpha2.path.arrows))
    vx, vy = (plain(a) for a in reversed(alpha2.lhs))
    return f"m_{len(alpha2.path.arrows)}({word}) = {vx} {vy}"


class DeformationReport(NamedTuple):
    system: rw.ReductionSystem
    order_one: rw.DiamondReport
    at_one: rw.DiamondReport
    relations: tuple[str, ...]
    deformed_relations: tuple[str, ...]
    a_infinity: str | None


def deformed_algebra(m: int, n: int, cocycle) -> DeformationReport:
    """Deform the reduction system along a cocycle and certify it.

    The deformed system is checked to be confluent to first order in
    the deformation parameter and again after setting the parameter to
    one, where the deformation terms merge into the rule right-hand
    sides.  Either failure raises CertificationError with the first
    offending overlap as witness.
    """
    base = reduction_system(m, n)
    deformed = base.with_deformation(cocycle)
    order_one = rw.check_diamond(deformed)
    if not order_one.ok:
        raise CertificationError(
            "deformed system fails the diamond check to first order",
            witness={"failure": repr(order_one.failures[0])},
        )
    at_one = rw.check_diamond(deformed.at_parameter_one())
    if not at_one.ok:
        raise CertificationError(
            "deformed system fails the diamond check at parameter one",
            witness={"failure": repr(at_one.failures[0])},
        )
    labels = compact_labels(m, n)
    relations = tuple(render_relation(base.quiver, r, labels) for r in deformed.rules)
    deformed_relations = tuple(
        render_relation(base.quiver, r, labels) for r in deformed.rules if r.rhs_t
    )
    return DeformationReport(
        system=deformed,
        order_one=order_one,
        at_one=at_one,
        relations=relations,
        deformed_relations=deformed_relations,
        a_infinity=_a_infinity_claim(
            m, n, {r.lhs.arrows: r.rhs_t_comb() for r in deformed.rules if r.rhs_t}
        ),
    )


# ---------------------------------------------------------------------------
# independent oracle: reduced bar complex


def bar_capacity() -> int:
    """Largest number of positive basis paths the bar oracle accepts."""
    return env_capacity(BAR_CAPACITY_ENV, BAR_CAPACITY_DEFAULT)


@lru_cache(maxsize=None)
def _bar_data(m: int, n: int):
    """The bar oracle's basis and multiplication table, on integers.

    A basis path, length zero included, is named by its index in
    `paths`, the basis in `path_key` order.  Returns `paths`; the
    positive indices `pos`, also grouped by start vertex; the buckets
    of `irreducible_basis` as index tuples; and the nonzero products
    of positive paths as three flat int lists per index, each a run of
    triples: `left[w]` holds (u, t, c) for every term c·t of each
    nonzero u·w, `right[w]` holds (v, t, c) for each nonzero w·v, and
    `containing[t]` holds (u, v, c) for each u·v with the term c·t.
    Each list is in index order of its first two entries, the terms of
    one product in index order.  For a length-zero e, a·e = a and
    e·c = c, so `left[e]` holds (a, a, 1) and `right[e]` holds (c, c, 1).

    The table is built one arrow at a time.  Taking v in index order,
    the prefix v' of v = v'·a is done before v, and

        NF(u·v'·a) = NF(NF(u·v')·a) = sum of c·NF(t·a)

    over the terms c·t of u·v'.  The first equality holds because the
    system is confluent (Bergman's diamond lemma, which
    `certify_dual_system` certifies): u·v' - NF(u·v') lies in the
    ideal of the relations, so does its product with a, and the normal
    form vanishes on that ideal.  So only the u in left[v'] can give a
    nonzero u·v, and only the products with an arrow are rewritten
    from scratch, spliced on the rewriting kernel's keys (length,
    start, arrow ids) and reduced by `rewrite.reduce_keys`.  Those are
    the only products the extension reads back, so only they are kept
    while the table is built.
    """
    system = reduction_system(m, n)
    paths = irreducible_basis(m, n).paths()
    keys = [system.kernel.key(p) for p in paths]
    index = {key: i for i, key in enumerate(keys)}
    grouped: dict = {}
    for i, p in enumerate(paths):
        grouped.setdefault((p.start, p.end, len(p.arrows)), []).append(i)
    buckets = {key: tuple(bucket) for key, bucket in grouped.items()}
    pos = [i for i, p in enumerate(paths) if p.arrows]
    by_start: dict = {}
    by_end: dict = {}
    for i in pos:
        by_start.setdefault(paths[i].start, []).append(i)
        by_end.setdefault(paths[i].end, []).append(i)
    left = [[] if p.arrows else [x for a in by_end.get(p.start, ()) for x in (a, a, 1)]
            for p in paths]
    right = [[] if p.arrows else [x for c in by_start.get(p.end, ()) for x in (c, c, 1)]
             for p in paths]
    arrows = {ids[0]: i for i, (size, _, ids) in enumerate(keys) if size == 1}
    by_arrow: dict = {}  # (t, a) -> the terms (s, g) of t·a, for an arrow a
    for v in pos:
        size, start, ids = keys[v]
        a = arrows[ids[-1]]
        accs: dict = {}
        prefix = index[size - 1, start, ids[:-1]]
        for u, t, c in _runs(left[prefix], 3):
            acc = accs.setdefault(u, {})
            if v == a:
                length, source, word = keys[u]
                for s, g in rw.reduce_keys(system, {(length + 1, source, word + ids): 1}).items():
                    acc[index[s]] = g
            else:
                for s, g in by_arrow.get((t, a), ()):
                    rw.add_term(acc, s, c * g)
        for u, acc in accs.items():
            terms = sorted(acc.items())
            if v == a and terms:
                by_arrow[u, a] = terms
            for t, c in terms:
                left[v] += (u, t, c)
                right[u] += (v, t, c)
    containing: list = [[] for _ in paths]
    for u in pos:
        for v, t, c in _runs(right[u], 3):
            containing[t] += (u, v, c)
    return paths, pos, by_start, buckets, left, right, containing


def _runs(flat, width: int):
    """The consecutive runs of `width` entries of a flat sequence."""
    it = iter(flat)
    return zip(*[it] * width)


def _radix_key(digits, base: int) -> int:
    """The digits read as one integer in the given base, most
    significant first.  For tuples of one length over range(base) this
    is a bijection onto integers that keeps the tuple order."""
    key = 0
    for d in digits:
        key = key * base + d
    return key


def hh2_bar_oracle(m: int, n: int, q: int) -> int:
    """dim HH^2 in Adams degree q from the reduced bar complex on the
    irreducible-path basis.

    Independent of the cocycle constraints and of the coboundary
    matrix: it multiplies basis paths by reduction-system normal forms,
    read from the product table of `_bar_data`, and nothing else.  One
    column builder serves 1- and 2-cochains: the cochain sending a
    tensor `word` of k positive basis paths to w has as coboundary
    a * w, then (-1)^(i+1) g w at each (a, b) that replaces the i-th
    path (from 0) when that path has coefficient g in a * b, then
    (-1)^(k+1) w * c, visiting the nonzero products only.  Paths are
    `_bar_data` indices; a coboundary entry is the tensor of k + 1
    paths with a value, keyed by the one integer `_radix_key` reads
    from those k + 1 indices and that value's index in base
    len(paths).  Keys of one cochain degree have one length, so they
    order as the index tuples do.  The number of 2-cochain columns is
    known before any column is built, and the columns reach
    `linalg.sparse_rank` one at a time, so only its integer rows are
    held.  The cost is building the columns and eliminating them, both
    steep in the number of positive basis paths, so the computation
    refuses to start above `bar_capacity()`: the ARCDUAL_BAR_CAPACITY
    variable, else 200.  The product table is sound only for a
    confluent system, so CertificationError if the diamond check fails.
    """
    limit = bar_capacity()
    basis = irreducible_basis(m, n)
    positive = basis.dimension() - len(basis.sources)  # one length zero path per vertex
    if positive > limit:
        raise CapacityError(
            f"bar complex for ({m}, {n}) needs {positive} basis paths, "
            f"capacity is {limit}"
        )
    _confluent_resolution(m, n)
    paths, pos, by_start, buckets, left, right, containing = _bar_data(m, n)
    base = len(paths)

    def column(word, w):
        col: dict = {}
        for a, t, c in _runs(left[w], 3):
            rw.add_term(col, _radix_key((a, *word, t), base), c)
        for i, x in enumerate(word):
            sign = (-1) ** (i + 1)
            for a, b, g in _runs(containing[x], 3):
                digits = (*word[:i], a, b, *word[i + 1 :], w)
                rw.add_term(col, _radix_key(digits, base), sign * g)
        sign = (-1) ** (len(word) + 1)
        for c_, t, c in _runs(right[w], 3):
            rw.add_term(col, _radix_key((*word, c_, t), base), sign * c)
        return col

    size = [len(p.arrows) for p in paths]

    def parallel(u, v, length):
        return buckets.get((paths[u].start, paths[v].end, length + q), ())

    # each word with the basis paths parallel to it, where there are any
    words2 = [
        ((u, v), ws)
        for u in pos
        for v in by_start.get(paths[u].end, ())
        if (ws := parallel(u, v, size[u] + size[v]))
    ]
    words1 = [((u,), ws) for u in pos if (ws := parallel(u, u, size[u]))]
    columns2 = sum(len(ws) for _, ws in words2)
    rank2 = linalg.sparse_rank(column(word, w) for word, ws in words2 for w in ws)
    rank1 = linalg.sparse_rank(column(word, w) for word, ws in words1 for w in ws)
    return columns2 - rank2 - rank1
