"""Bigraded second Hochschild cohomology of the dual algebras.

HH^2 is computed from first-order deformations of the certified
reduction system: a degree-q 2-cochain assigns to each rule lhs a
combination of irreducible parallel paths of length len(lhs) + q,
a cochain is a cocycle when every overlap ambiguity still resolves
to first order in the deformation parameter, and coboundaries come
from deforming the irreducible-path basis itself.  The dimension of
HH^2 in Adams degree q is

    dim ker(constraints) - rank(coboundary).

Everything is exact over the rationals.  An independent oracle
recomputes the same dimension from the reduced bar complex of the
algebra on its irreducible-path basis; its elimination fills in
steeply with the basis size, so it is guarded by a capacity limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from . import rewrite as rw
from .combinatorics import env_capacity, sort_key
from .errors import CapacityError, CertificationError
from .koszul import irreducible_basis, reduction_system, staircase_chart
from .presentation import dual_arrow
from .rewrite import DEFAULT_FUEL, Path, path_key

F0 = Fraction(0)
F1 = Fraction(1)

BAR_CAPACITY_ENV = "ARCDUAL_BAR_CAPACITY"
BAR_CAPACITY_DEFAULT = 200


# ---------------------------------------------------------------------------
# cochain bases


@dataclass(frozen=True)
class Cochain2:
    """Basis 2-cochain: the rule with left-hand side `lhs` is sent to
    `path`, every other rule to zero."""

    lhs: tuple[str, ...]
    path: Path


@dataclass(frozen=True)
class Cochain1:
    """Basis 1-cochain: the generator `arrow` is sent to `path`."""

    arrow: str
    path: Path


def _parallel(m: int, n: int, start: str, end: str, length: int):
    if length < 0:
        return ()
    return irreducible_basis(m, n).get((start, end, length), ())


@lru_cache(maxsize=None)
def _nf_terms(m: int, n: int, path: Path):
    return tuple(rw.sorted_terms(rw.normal_form(path, reduction_system(m, n))))


@lru_cache(maxsize=None)
def cochain2_basis(m: int, n: int, q: int) -> tuple[Cochain2, ...]:
    """Rule-indexed 2-cochains of Adams degree q, in rule order and then
    path order.  Empty in odd degrees because parallel paths have the
    same length parity."""
    system = reduction_system(m, n)
    out = []
    for rule in system.rules:
        lhs = rule.lhs
        for p in _parallel(m, n, lhs.start, lhs.end, len(lhs.arrows) + q):
            out.append(Cochain2(lhs.arrows, p))
    return tuple(out)


@lru_cache(maxsize=None)
def cochain1_basis(m: int, n: int, q: int) -> tuple[Cochain1, ...]:
    system = reduction_system(m, n)
    out = []
    for arrow in sorted(system.quiver.arrows, key=lambda a: a.name):
        for p in _parallel(m, n, arrow.source, arrow.target, 1 + q):
            out.append(Cochain1(arrow.name, p))
    return tuple(out)


# ---------------------------------------------------------------------------
# cocycle constraints from overlap ambiguities


@dataclass(frozen=True)
class ConstraintSystem:
    """A labelled exact matrix: matrix[i][j] is the coefficient of column
    label cols[j] in the row labelled rows[i]."""

    rows: tuple
    cols: tuple
    matrix: tuple


@lru_cache(maxsize=None)
def _overlap_events(m: int, n: int):
    """For each overlap, the signed rule applications of both one-step
    resolutions reduced to normal form.

    An event (lhs, factor, prefix, suffix) means the reduction applied
    the rule with that lhs in the context prefix * lhs * suffix with
    the running coefficient factor; the left branch counts with sign
    +1, the right branch with sign -1.  A 2-cochain is a cocycle iff
    for every overlap the signed sum of NF(prefix * value * suffix)
    over matching events vanishes.
    """
    system = reduction_system(m, n)
    out = []
    for ov in rw.enumerate_overlaps(system):
        word = ov.word
        kl = len(ov.left.lhs.arrows)
        kr = len(ov.right.lhs.arrows)
        tail = Path(ov.left.lhs.end, word.arrows[kl:], word.end)
        head = Path(word.start, word.arrows[: len(word.arrows) - kr], ov.right.lhs.start)
        events = [
            (ov.left.lhs.arrows, F1, Path(word.start, (), word.start), tail),
            (ov.right.lhs.arrows, -F1, head, Path(word.end, (), word.end)),
        ]
        for rule, ctx, sign in ((ov.left, tail, F1), (ov.right, head, -F1)):
            resolved: dict = {}
            for p, c in rule.rhs:
                joined = rw.compose(p, ctx) if sign > 0 else rw.compose(ctx, p)
                rw.add_term(resolved, joined, c)
            _, evs = rw.reduce_with_events(resolved, system)
            for e in evs:
                events.append((e.rule.lhs.arrows, sign * e.coeff, e.prefix, e.suffix))
        out.append((ov, tuple(events)))
    return tuple(out)


@lru_cache(maxsize=None)
def cocycle_constraints(m: int, n: int, q: int) -> ConstraintSystem:
    """Linear conditions on 2-cochains for all overlaps to resolve at
    first order.  Rows are labelled (overlap index, irreducible path);
    identically zero rows are dropped."""
    basis = cochain2_basis(m, n, q)
    by_lhs: dict = {}
    for j, c in enumerate(basis):
        by_lhs.setdefault(c.lhs, []).append((j, c.path))
    rows = []
    matrix = []
    for o_idx, (_, events) in enumerate(_overlap_events(m, n)):
        acc: dict = {}
        for lhs, factor, pre, suf in events:
            for j, p in by_lhs.get(lhs, ()):
                inserted = Path(pre.start, pre.arrows + p.arrows + suf.arrows, suf.end)
                for t, c in _nf_terms(m, n, inserted):
                    row = acc.get(t)
                    if row is None:
                        row = acc[t] = [F0] * len(basis)
                    row[j] += factor * c
        for t in sorted(acc, key=path_key):
            row = acc[t]
            if any(row):
                rows.append((o_idx, t))
                matrix.append(tuple(row))
    return ConstraintSystem(tuple(rows), basis, tuple(matrix))


# ---------------------------------------------------------------------------
# coboundaries


@lru_cache(maxsize=None)
def _insertion_slots(m: int, n: int):
    """Arrow occurrences in the two-sided relation lhs - rhs of every
    rule, keyed by arrow name.  Coboundaries substitute a 1-cochain
    value into each occurrence."""
    system = reduction_system(m, n)
    slots: dict = {}
    for rule in system.rules:
        terms = [(rule.lhs, F1)] + [(p, -c) for p, c in rule.rhs]
        for w, coeff in terms:
            for i, name in enumerate(w.arrows):
                slots.setdefault(name, []).append(
                    (rule.lhs.arrows, coeff, w.arrows[:i], w.arrows[i + 1 :], w.start, w.end)
                )
    return {k: tuple(v) for k, v in slots.items()}


@lru_cache(maxsize=None)
def coboundary_matrix(m: int, n: int, q: int) -> ConstraintSystem:
    """Matrix of the coboundary map from 1-cochains to 2-cochains in
    Adams degree q, on the bases above."""
    basis2 = cochain2_basis(m, n, q)
    basis1 = cochain1_basis(m, n, q)
    index2 = {(c.lhs, c.path): i for i, c in enumerate(basis2)}
    mat = [[F0] * len(basis1) for _ in basis2]
    slots = _insertion_slots(m, n)
    for j, c1 in enumerate(basis1):
        for lhs, coeff, pre, suf, start, end in slots.get(c1.arrow, ()):
            inserted = Path(start, pre + c1.path.arrows + suf, end)
            for t, c in _nf_terms(m, n, inserted):
                i = index2.get((lhs, t))
                if i is None:
                    raise CertificationError(
                        "coboundary image leaves the cochain basis",
                        witness={"rule": lhs, "path": repr(t)},
                    )
                mat[i][j] += coeff * c
    return ConstraintSystem(basis2, basis1, tuple(tuple(r) for r in mat))


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


@dataclass(frozen=True)
class HH2Certificate:
    m: int
    n: int
    q: int
    cochain2_dim: int
    cochain1_dim: int
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
    of the image hyperplane in the basis recorded on the certificate;
    in the critical degree the basis is listed in distinguished order.
    """
    cons = cocycle_constraints(m, n, q)
    cob = coboundary_matrix(m, n, q)
    basis2 = cob.rows
    n2 = len(basis2)
    n1 = len(cob.cols)
    constraint_rank = linalg.rank(cons.matrix)
    image_rank = linalg.rank(cob.matrix)
    columns = list(zip(*cob.matrix))
    violation = linalg.first_nonzero_product(cons.matrix, columns)
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
        null = linalg.nullspace(columns, n2)
        if len(null) == 1:
            normal = tuple(linalg.primitive_integer_vector(null[0]))
    if m >= 2 and n >= 2 and q == 2 * m * n - 6:
        alphas = alpha_basis(m, n)
        if len(alphas) == n2 and set(alphas) == set(basis2):
            position = {c: i for i, c in enumerate(basis2)}
            if normal is not None:
                normal = tuple(normal[position[c]] for c in alphas)
            basis = alphas
    return HH2Certificate(
        m=m,
        n=n,
        q=q,
        cochain2_dim=n2,
        cochain1_dim=n1,
        constraint_rank=constraint_rank,
        kernel_dim=kernel_dim,
        image_rank=image_rank,
        dimension=dimension,
        basis=basis,
        constraint_normal_vector=normal,
    )


def hh2_dim(m: int, n: int, q: int) -> int:
    return hh2_certificate(m, n, q).dimension


def hh2_table(m: int, n: int):
    """Rows (q, dim HH^2_q) for even q up to the top degree."""
    return tuple((q, hh2_dim(m, n, q)) for q in range(0, 2 * m * n - 1, 2))


# ---------------------------------------------------------------------------
# cocycle extraction


def _cochain_dict(basis, vector):
    out: dict = {}
    for coord, value in zip(basis, vector):
        if value:
            out.setdefault(coord.lhs, {})[coord.path] = value
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
    basis = cob.rows
    index = {c: i for i, c in enumerate(basis)}
    reduced, pivots = linalg.rref(list(zip(*cob.matrix)))

    candidates = []
    if m >= 2 and n >= 2 and q == 2 * m * n - 6:
        unit = [F0] * len(basis)
        unit[index[alpha_basis(m, n)[1]]] = F1
        candidates.append(unit)
    if (m, n, q) == (2, 2, 0):
        ch = staircase_chart(2, 2)
        lhs = (ch.ybar(0).name, ch.xbar(0).name)
        detour = rw.make_path(
            reduction_system(2, 2).quiver, [ch.xbar2(3).name, ch.ybar2(3).name]
        )
        unit = [F0] * len(basis)
        unit[index[Cochain2(lhs, detour)]] = F1
        candidates.append(unit)
    if cons.matrix:
        candidates.extend(linalg.nullspace(cons.matrix, len(basis)))
    else:
        for i in range(len(basis)):
            unit = [F0] * len(basis)
            unit[i] = F1
            candidates.append(unit)

    for vec in candidates:
        in_kernel = linalg.first_nonzero_product(cons.matrix, [vec]) is None
        if in_kernel and not linalg.in_span(vec, reduced, pivots):
            return _cochain_dict(basis, vec)
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
    left = [(rule.lhs, F1)]
    left.extend(
        sorted(
            ((p, -c) for p, c in rule.rhs),
            key=lambda tc: _display_key(quiver, tc[0]),
        )
    )
    right = sorted(rule.rhs_t, key=lambda tc: _display_key(quiver, tc[0]))
    return _render_side(quiver, left, labels) + " = " + _render_side(quiver, right, labels)


def _normalized_assignment(cocycle) -> dict:
    out: dict = {}
    for key, value in cocycle.items():
        lhs = key.lhs.arrows if isinstance(key, rw.Rule) else tuple(key)
        comb = {p: Fraction(c) for p, c in rw.as_lincomb(value).items() if c}
        if comb:
            out[lhs] = comb
    return out


def _a_infinity_claim(m: int, n: int, assignment: dict):
    """The higher-multiplication identity read off from the unit
    deformation along the second distinguished cochain.  Recorded only
    for exactly that cocycle; never recomputed from scratch."""
    if m < 2 or n < 2:
        return None
    alpha2 = alpha_basis(m, n)[1]
    if assignment != {alpha2.lhs: {alpha2.path: F1}}:
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


@dataclass(frozen=True)
class DeformationReport:
    system: rw.ReductionSystem
    order_one: rw.DiamondReport
    at_one: rw.DiamondReport
    relations: tuple[str, ...]
    deformed_relations: tuple[str, ...]
    a_infinity: str | None


def deformed_algebra(m: int, n: int, cocycle, fuel: int = DEFAULT_FUEL) -> DeformationReport:
    """Deform the reduction system along a cocycle and certify it.

    The deformed system is checked to be confluent to first order in
    the deformation parameter and again after setting the parameter to
    one, where the deformation terms merge into the rule right-hand
    sides.  Either failure raises CertificationError with the first
    offending overlap as witness.
    """
    base = reduction_system(m, n)
    assignment = _normalized_assignment(cocycle)
    deformed = base.with_deformation(assignment)
    order_one = rw.check_diamond(deformed, fuel)
    if not order_one.ok:
        raise CertificationError(
            "deformed system fails the diamond check to first order",
            witness={"failure": repr(order_one.failures[0])},
        )
    merged_rules = []
    for rule in deformed.rules:
        merged: dict = {}
        for p, c in rule.rhs:
            rw.add_term(merged, p, c)
        for p, c in rule.rhs_t:
            rw.add_term(merged, p, c)
        merged_rules.append(rw.make_rule(rule.lhs, merged, None, rule.tag))
    at_one_system = rw.ReductionSystem(base.quiver, tuple(merged_rules))
    at_one = rw.check_diamond(at_one_system, fuel)
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
        a_infinity=_a_infinity_claim(m, n, assignment),
    )


# ---------------------------------------------------------------------------
# independent oracle: reduced bar complex


def bar_capacity() -> int:
    """Largest number of positive basis paths the bar oracle accepts."""
    return env_capacity(BAR_CAPACITY_ENV, BAR_CAPACITY_DEFAULT)


@lru_cache(maxsize=None)
def _bar_data(m: int, n: int):
    """Positive-length irreducible paths with their pairwise products in
    normal form, plus the reverse index from a basis path to the
    products containing it."""
    pos = sorted(
        (
            p
            for (s, e, length), bucket in irreducible_basis(m, n).items()
            if length > 0
            for p in bucket
        ),
        key=path_key,
    )
    by_start: dict = {}
    by_end: dict = {}
    for p in pos:
        by_start.setdefault(p.start, []).append(p)
        by_end.setdefault(p.end, []).append(p)
    pairs = []
    containing: dict = {}
    for u in pos:
        for v in by_start.get(u.end, ()):
            pairs.append((u, v))
            for w, c in _nf_terms(m, n, rw.compose(u, v)):
                containing.setdefault(w, []).append((u, v, c))
    return pos, by_start, by_end, tuple(pairs), containing


def hh2_bar_oracle(m: int, n: int, q: int, capacity: int | None = None) -> int:
    """dim HH^2 in Adams degree q from the reduced bar complex on the
    irreducible-path basis.

    Independent of the deformation route: only normal-form products
    enter.  The cost is elimination fill-in, steep in the number of
    positive basis paths, so the computation refuses to start above the
    capacity (parameter, else the ARCDUAL_BAR_CAPACITY variable, else 200).
    """
    limit = bar_capacity() if capacity is None else capacity
    positive = sum(
        len(b) for (_, _, length), b in irreducible_basis(m, n).items() if length > 0
    )
    if positive > limit:
        raise CapacityError(
            f"bar complex for ({m}, {n}) needs {positive} basis paths, "
            f"capacity is {limit}"
        )
    pos, by_start, by_end, pairs, containing = _bar_data(m, n)

    cols2 = []
    for u, v in pairs:
        ku, kv = path_key(u), path_key(v)
        for w in _parallel(m, n, u.start, v.end, len(u.arrows) + len(v.arrows) + q):
            kw = path_key(w)
            col: dict = {}
            for a in by_end.get(u.start, ()):
                ka = path_key(a)
                for t, c in _nf_terms(m, n, rw.compose(a, w)):
                    rw.add_term(col, (ka, ku, kv, path_key(t)), c)
            for a, b, g in containing.get(u, ()):
                rw.add_term(col, (path_key(a), path_key(b), kv, kw), -g)
            for b, c_, g in containing.get(v, ()):
                rw.add_term(col, (ku, path_key(b), path_key(c_), kw), g)
            for c_ in by_start.get(v.end, ()):
                kc = path_key(c_)
                for t, c in _nf_terms(m, n, rw.compose(w, c_)):
                    rw.add_term(col, (ku, kv, kc, path_key(t)), -c)
            cols2.append(col)

    cols1 = []
    for u in pos:
        ku = path_key(u)
        for w in _parallel(m, n, u.start, u.end, len(u.arrows) + q):
            kw = path_key(w)
            col = {}
            for a in by_end.get(u.start, ()):
                ka = path_key(a)
                for t, c in _nf_terms(m, n, rw.compose(a, w)):
                    rw.add_term(col, (ka, ku, path_key(t)), c)
            for a, b, g in containing.get(u, ()):
                rw.add_term(col, (path_key(a), path_key(b), kw), -g)
            for b in by_start.get(u.end, ()):
                kb = path_key(b)
                for t, c in _nf_terms(m, n, rw.compose(w, b)):
                    rw.add_term(col, (ku, kb, path_key(t)), c)
            cols1.append(col)

    return len(cols2) - len(linalg.echelon(cols2)) - len(linalg.echelon(cols1))
