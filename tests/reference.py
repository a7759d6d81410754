"""Reference counts, enumerations and engines that the tests compare
the library against.

None of them is read by the library or the CLI: each recomputes, by a
route of its own, a figure that a certificate or the basis gives.
The surgery engine over (level, position) node tuples and frozenset
states, and the rewriting engine over arrow-name tuples, are the
library's earlier kernels kept verbatim as oracles for the integer
kernels that replaced them; `branches` reads an integer overlap
resolution as the `Branch`es of the reference one.  The two-walk
`reference_classify_gluing` is kept the same way.  So are the
`Fraction` routes of the certificates between surgery and rewriting,
on the library's former `Fraction` linear algebra (`echelon` tails of
the integer elimination, the dense `nullspace` built from them,
`primitive_integer_vector` and `rref`): the K relations as the
`nullspace` of the evaluation put in `rref`, the dual relations as the
`nullspace` of the permuted plain rows, the length-two rules by `rref`
elimination, staircase membership on `echelon` tails, and the KL
certificate as a convolution loop over every vertex pair.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from typing import NamedTuple

from arcdual import combinatorics as comb
from arcdual.arc_algebra import ArcDiagram, make_arc_diagram
from arcdual.combinatorics import (
    DOWN,
    UP,
    cup_matching,
    exchange_pair,
    is_left_of,
    is_nested,
    weight_type,
)
from arcdual import linalg
from arcdual import presentation as P
from arcdual.errors import CertificationError, FuelError
from arcdual.linalg import add_term
from arcdual.rewrite import (
    DEFAULT_FUEL,
    Coeff,
    LinComb,
    Overlap,
    Path,
    ReductionSystem,
    Rule,
    as_lincomb,
    enumerate_overlaps,
    is_irreducible,
    make_path,
    make_rule,
    path_key,
    scale_into,
)


def reference_classify_gluing(alpha: str, lam: str, beta: str) -> int:
    """`arc_algebra.classify_gluing` as it was before it read each cup
    diagram once: every arc of both diagrams first, then the rays of
    both."""
    kind = weight_type(lam)
    if weight_type(alpha) != kind or weight_type(beta) != kind:
        raise ValueError(f"weights {alpha!r}, {lam!r}, {beta!r} are not all of one type")

    def arcs_ok(shape):
        return all(lam[i] != lam[j] for i, j in cup_matching(shape).cups)

    def rays_ok(shape):
        marks = [lam[p] for p in cup_matching(shape).rays]
        return not any(a == DOWN and b == UP for a, b in zip(marks, marks[1:]))

    if not (arcs_ok(alpha) and arcs_ok(beta)):
        return 1
    if not (rays_ok(alpha) and rays_ok(beta)):
        return 2
    return 0


def lowest_weight(m: int, n: int) -> str:
    return DOWN * m + UP * n


def highest_weight(m: int, n: int) -> str:
    return UP * n + DOWN * m


def basis_counts(m: int, n: int) -> dict[tuple[str, str, int], int]:
    """The number of irreducible paths of `koszul.reduction_system(m, n)`
    per (start, end, length), nonzero counts only, read off
    `reference_tree` path by path up to one past the top length 2mn."""
    from arcdual.koszul import reduction_system

    system = reduction_system(m, n)
    counts = {}
    for source in sorted(system.quiver.vertices, key=comb.sort_key):
        for length, level in enumerate(reference_tree(system, source, 2 * m * n + 1)):
            for p in level:
                key = (source, p.end, length)
                counts[key] = counts.get(key, 0) + 1
    return counts


def reference_tree(system, source: str, max_len: int) -> list[list[Path]]:
    """The irreducible paths out of `source` up to `max_len`, level by
    level: the levels of their prefix tree, each in path_key order.
    Built by brute force: every irreducible path is extended by every
    arrow out of its end, in name order, and kept when the whole word is
    irreducible."""
    levels = [[Path(source, (), source)]]
    for _ in range(max_len):
        grown = [
            word
            for p in levels[-1]
            for a in sorted(system.quiver.out[p.end], key=lambda a: a.name)
            if is_irreducible(word := Path(source, p.arrows + (a.name,), a.target), system)
        ]
        if not grown:
            break
        levels.append(grown)
    return levels


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
# Surgery over (level, position) nodes, one frozenset of labelled
# circles per state.


class _Component(NamedTuple):
    nodes: frozenset
    ray_nodes: tuple
    is_line: bool


def _trace(adjacency: dict, start) -> _Component:
    """The component through start, walked both ways from it."""
    nodes, rays = {start}, []
    for first in adjacency[start]:
        prev, cur = start, first
        while cur is not None and cur != start:
            nodes.add(cur)
            left, right = adjacency[cur]
            prev, cur = cur, right if left == prev else left
        if cur is not None:
            break  # back at start: a circle, walked once round
        rays.append(prev)
    assert len(rays) in (0, 2)
    return _Component(frozenset(nodes), tuple(sorted(rays)), bool(rays))


def _run_surgery(a: ArcDiagram, b: ArcDiagram, order) -> dict[ArcDiagram, int]:
    """Resolve the middle band of the stacked pair along the given order
    of glue cups.  Each chosen cup must be admissible: not nested inside
    a cup that has not been resolved yet.  The components are traced
    once; after each step only those through its four nodes are traced
    again, and the node-to-component map is updated for them alone."""
    glue = a.cap_weight
    lam, mu = a.mid_weight, b.mid_weight
    mid = cup_matching(glue)
    for p in mid.rays:
        assert lam[p] == mu[p]

    def mark(node) -> str:
        level, pos = node
        return lam[pos] if level == 0 else mu[pos]

    def is_ccw(component: _Component) -> bool:
        # The leftmost crossing of a circle with the lower weight line, or
        # with the upper one if it misses the lower (nodes order by level
        # first), points down exactly when the circle is counterclockwise.
        return mark(min(component.nodes)) == DOWN

    adjacency = defaultdict(list)
    for level, shape in ((0, a.cup_weight), (1, b.cap_weight)):
        outer = cup_matching(shape)
        for i, j in outer.cups + mid.cups:
            adjacency[(level, i)].append((level, j))
            adjacency[(level, j)].append((level, i))
        for p in outer.rays:
            adjacency[(level, p)].append(None)
    for p in mid.rays:
        adjacency[(0, p)].append((1, p))
        adjacency[(1, p)].append((0, p))
    assert all(len(ends) == 2 for ends in adjacency.values())
    component: dict = {}

    def retrace(nodes) -> list[_Component]:
        traced, seen = [], set()
        for node in nodes:
            if node not in seen:
                c = _trace(adjacency, node)
                traced.append(c)
                seen |= c.nodes
                component.update(dict.fromkeys(c.nodes, c))
        return traced

    # A state assigns each circle its label (True = counterclockwise);
    # lines carry no state, their rays keep their marks forever.
    init = frozenset(
        (c.nodes, is_ccw(c)) for c in retrace(list(adjacency)) if not c.is_line
    )
    states: dict[frozenset, int] = {init: 1}

    remaining = set(mid.cups)
    for pair in order:
        pair = tuple(pair)
        assert pair in remaining
        assert not any(
            comb.is_nested(pair, other) for other in remaining if other != pair
        ), f"surgery at {pair} blocked by an enclosing unresolved pair"
        remaining.discard(pair)
        i, j = pair
        c_low = component[(0, i)]
        c_high = component[(1, i)]
        # the glue cup and cap at (i, j) become the verticals at i and j; a
        # node whose other arc joins the same pair lists its partner twice,
        # and either entry may go
        touched = [(0, i), (0, j), (1, i), (1, j)]
        for (level, p), partner in zip(touched, ((0, j), (0, i), (1, j), (1, i))):
            ends = adjacency[(level, p)]
            ends[ends.index(partner)] = (1 - level, p)
        # every component meeting the four surgery nodes is newly formed:
        # merges and splits always change node sets, and reconnected lines
        # mix nodes of both inputs
        fresh = retrace(touched)

        new_states: dict[frozenset, int] = {}

        def emit(state: dict, coeff: int) -> None:
            add_term(new_states, frozenset(state.items()), coeff)

        if c_low is not c_high:
            # merge
            if not c_low.is_line and not c_high.is_line:
                assert len(fresh) == 1 and not fresh[0].is_line
                merged = fresh[0].nodes
                for state, coeff in states.items():
                    st = dict(state)
                    l1 = st.pop(c_low.nodes)
                    l2 = st.pop(c_high.nodes)
                    if not l1 and not l2:
                        continue
                    st[merged] = l1 and l2
                    emit(st, coeff)
            elif c_low.is_line != c_high.is_line:
                assert len(fresh) == 1 and fresh[0].is_line
                circle = c_high if c_low.is_line else c_low
                for state, coeff in states.items():
                    st = dict(state)
                    if not st.pop(circle.nodes):
                        continue
                    emit(st, coeff)
            else:
                # two lines reconnect into two lines
                assert len(fresh) == 2 and all(c.is_line for c in fresh)
                m1 = {mark(nd) for nd in c_low.ray_nodes}
                m2 = {mark(nd) for nd in c_high.ray_nodes}
                if {tuple(sorted(m1)), tuple(sorted(m2))} == {(UP,), (DOWN,)}:
                    new_states = dict(states)
                # otherwise every summand dies
        else:
            # split
            parent = c_low
            assert len(fresh) == 2
            if not parent.is_line:
                assert all(not c.is_line for c in fresh)
                k1, k2 = sorted((c.nodes for c in fresh), key=lambda k: min(k))
                for state, coeff in states.items():
                    st = dict(state)
                    if st.pop(parent.nodes):
                        for ccw_first in (True, False):
                            branch = dict(st)
                            branch[k1] = ccw_first
                            branch[k2] = not ccw_first
                            emit(branch, coeff)
                    else:
                        st[k1] = False
                        st[k2] = False
                        emit(st, coeff)
            else:
                circles = [c for c in fresh if not c.is_line]
                lines = [c for c in fresh if c.is_line]
                assert len(circles) == 1 and len(lines) == 1
                for state, coeff in states.items():
                    st = dict(state)
                    st[circles[0].nodes] = False
                    emit(st, coeff)
        states = new_states
        if not states:
            return {}

    assert not remaining

    # Collapse the middle band: every position now carries a vertical, so
    # each component crosses both lines at the same sorted positions and
    # its crossings alternate direction along them.
    def flip(m: str) -> str:
        return UP if m == DOWN else DOWN

    components = set(component.values())
    result: dict[ArcDiagram, int] = {}
    for state, coeff in states.items():
        st = dict(state)
        nu = [None] * len(lam)
        for c in components:
            low_positions = sorted(p for (level, p) in c.nodes if level == 0)
            high_positions = sorted(p for (level, p) in c.nodes if level == 1)
            assert low_positions == high_positions
            if c.is_line:
                anchor, other = c.ray_nodes
                base = low_positions.index(anchor[1])
                for t, p in enumerate(low_positions):
                    nu[p] = mark(anchor) if (t - base) % 2 == 0 else flip(mark(anchor))
                assert nu[other[1]] == mark(other)
            else:
                first = DOWN if st.pop(c.nodes) else UP
                for t, p in enumerate(low_positions):
                    nu[p] = first if t % 2 == 0 else flip(first)
        assert not st
        product = make_arc_diagram(a.cup_weight, "".join(nu), b.cap_weight)
        add_term(result, product, coeff)
    return result


def reference_product(a: ArcDiagram, b: ArcDiagram) -> dict[ArcDiagram, int]:
    """The product of two basis diagrams by the reference surgery, pairs
    resolved left to right; empty unless they glue."""
    if a.cap_weight != b.cup_weight:
        return {}
    return _run_surgery(a, b, cup_matching(a.cap_weight).cups)


# ---------------------------------------------------------------------------
# Leftmost rewriting over arrow-name tuples, one `Path` per term and one
# `Event` per step.


class Event(NamedTuple):
    """One rule application with its context: the reduced term was
    coeff * prefix * lhs * suffix."""

    rule: Rule
    prefix: Path
    suffix: Path
    coeff: Coeff


class Branch(NamedTuple):
    """One resolution of an overlap word over the dual numbers.

    `events` are its rule applications in order, starting with the
    overlap's own rule at coefficient 1; `nf0` is the order-zero normal
    form, and `nf1` is the sum over events of coeff * prefix * rhs_t *
    suffix, reduced with the plain rules."""

    nf0: LinComb
    nf1: LinComb
    events: tuple[Event, ...]


def branches(system: ReductionSystem, resolution) -> tuple[Branch, Branch]:
    """The two integer branches of `rewrite.resolve_overlap` as
    `Branch`es, their normal forms and events built on `Path`s, so they
    compare with those of `resolve_overlap` below."""
    path = system.kernel.path
    out = []
    for nf0, nf1, events in resolution:
        applied = []
        for (rule, k, _, _), start, ids, i, coeff in events:
            tail = ids[i + k :]
            prefix = path((i, start, ids[:i]))
            applied.append(Event(rule, prefix, path((len(tail), rule.lhs.end, tail)), coeff))
        out.append(
            Branch(
                {path(key): c for key, c in nf0.items()},
                {path(key): c for key, c in nf1.items()},
                tuple(applied),
            )
        )
    return tuple(out)


def leftmost_redex(path: Path, system: ReductionSystem):
    """Position and rule of the first redex, or None. At most one rule
    can match at a fixed position since no lhs occurs inside another."""
    arrows = path.arrows
    n = len(arrows)
    by_lhs = {r.lhs.arrows: r for r in system.rules}
    for i in range(n - 1):
        for k in system.lhs_lengths:
            if i + k > n:
                break
            rule = by_lhs.get(arrows[i : i + k])
            if rule is not None:
                return i, rule
    return None


class _Fuel:
    def __init__(self, amount: int):
        self.left = amount

    def burn(self, witness):
        if self.left <= 0:
            raise FuelError(
                "rewriting fuel exhausted", witness={"path": repr(witness)}
            )
        self.left -= 1


def _insert(acc: LinComb, prefix: Path, parts, suffix: Path, coeff: Coeff) -> None:
    """Add coeff * prefix * part * suffix for every term of parts."""
    for q, c in parts:
        add_term(
            acc,
            Path(prefix.start, prefix.arrows + q.arrows + suffix.arrows, suffix.end),
            coeff * c,
        )


def _reduce(work: LinComb, system: ReductionSystem, fuel: _Fuel, events=None):
    """Normal form of a LinComb, which is consumed."""
    out: LinComb = {}
    while work:
        path = min(work, key=path_key)
        coeff = work.pop(path)
        hit = leftmost_redex(path, system)
        if hit is None:
            add_term(out, path, coeff)
            continue
        fuel.burn(path)
        i, rule = hit
        k = len(rule.lhs.arrows)
        prefix = Path(path.start, path.arrows[:i], rule.lhs.start)
        suffix = Path(rule.lhs.end, path.arrows[i + k :], path.end)
        if events is not None:
            events.append(Event(rule, prefix, suffix, coeff))
        _insert(work, prefix, rule.rhs, suffix, coeff)
    return out


def reference_normal_form(x, system, fuel: int = DEFAULT_FUEL):
    """`rewrite.normal_form` by the reference rewriting."""
    return _reduce(as_lincomb(x), system, _Fuel(fuel))


def _resolve(first: Event, system: ReductionSystem, fuel: int) -> Branch:
    """Apply `first`, then reduce both orders on one fuel budget."""
    shared = _Fuel(fuel)
    events = [first]
    order_zero: LinComb = {}
    _insert(order_zero, first.prefix, first.rule.rhs, first.suffix, first.coeff)
    nf0 = _reduce(order_zero, system, shared, events)
    order_one: LinComb = {}
    for ev in events:
        _insert(order_one, ev.prefix, ev.rule.rhs_t, ev.suffix, ev.coeff)
    return Branch(nf0, _reduce(order_one, system, shared), tuple(events))


def resolve_overlap(
    overlap: Overlap, system: ReductionSystem, fuel: int = DEFAULT_FUEL
) -> tuple[Branch, Branch]:
    """Both one-step resolutions of the overlap word, fully reduced: the
    left rule applied with the tail as context, the right rule with the
    head.  Each branch has its own fuel budget."""
    word = overlap.word
    left, right = overlap.left, overlap.right
    tail = Path(left.lhs.end, word.arrows[len(left.lhs) :], word.end)
    head = Path(word.start, word.arrows[: len(word) - len(right.lhs)], right.lhs.start)
    no_head, no_tail = Path(word.start, (), word.start), Path(word.end, (), word.end)
    return (
        _resolve(Event(left, no_head, tail, 1), system, fuel),
        _resolve(Event(right, head, no_tail, 1), system, fuel),
    )


def diamond_failure(overlap: Overlap, left: Branch, right: Branch) -> dict | None:
    """None if both resolutions agree over the dual numbers, else a witness."""
    if left.nf0 == right.nf0 and left.nf1 == right.nf1:
        return None
    diff0, diff1 = dict(left.nf0), dict(left.nf1)
    scale_into(diff0, right.nf0, -1)
    scale_into(diff1, right.nf1, -1)
    return {
        "word": repr(overlap.word),
        "difference": {repr(p): str(c) for p, c in diff0.items()},
        "difference_t": {repr(p): str(c) for p, c in diff1.items()},
    }


def reference_diamond_failures(system, fuel: int = DEFAULT_FUEL) -> tuple:
    """The failures of `rewrite.check_diamond` by the reference
    resolution."""
    found = (
        diamond_failure(o, *resolve_overlap(o, system, fuel)) for o in enumerate_overlaps(system)
    )
    return tuple(f for f in found if f is not None)


# ---------------------------------------------------------------------------
# The certificates between surgery and rewriting in Fraction arithmetic.

F0 = Fraction(0)
F1 = Fraction(1)


def echelon(vectors) -> dict:
    """Reduced row echelon form of the span of sparse vectors.

    Returns {pivot key: tail} in key order: the reduced row with that
    pivot is 1 at the pivot key plus the tail of Fractions.  Every tail
    key is larger than its pivot key, and no tail holds a pivot key.
    """
    rows = linalg._pivot_rows(vectors)
    return {
        p: {k: Fraction(c, rows[p][p]) for k, c in rows[p].items() if k != p}
        for p in sorted(rows)
    }


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


def primitive_integer_vector(vec):
    """Scale a rational vector to coprime integers with the first nonzero
    entry positive."""
    row = linalg._integer_row(dict(enumerate(vec)))
    linalg._divide_content(row, -1 if next(iter(row.values()), 0) < 0 else 1)
    return [row.get(j, 0) for j in range(len(vec))]


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
    basis = echelon({j: x for j, x in enumerate(row) if x} for row in rows)
    pivots = sorted(basis)
    reduced = []
    for p in pivots:
        row = [Fraction(0)] * ncols
        row[p] = Fraction(1)
        for k, c in basis[p].items():
            row[k] = c
        reduced.append(row)
    return reduced, pivots


def paths_of_length_two(quiver: P.Quiver, source: str, target: str):
    """The length-two paths from source to target, ordered by their arrow
    names: one block of `presentation.length_two_blocks`, found pair by
    pair."""
    out = []
    for a in quiver.out[source]:
        for b in quiver.out[a.target]:
            if b.target == target:
                out.append((a, b))
    out.sort(key=lambda p: (p[0].name, p[1].name))
    return tuple(out)


def reference_relations_K(m: int, n: int) -> P.RelationSet:
    """`presentation.relations_K` with each block's kernel taken by
    `nullspace` and compared in `rref` with the structural rows: rows of
    Fractions, 1 at each pivot."""
    quiver = P.build_quiver(m, n, dual=False)
    blocks = []
    for s, t, paths in P.length_two_blocks(quiver):
        evaluation: dict = {}
        for col, p in enumerate(paths):
            for d, coeff in P.rho_of_path(p).items():
                evaluation.setdefault(d, {})[col] = coeff
        kernel = nullspace(evaluation.values(), len(paths))
        structural = P._structural_rows(quiver, s, t, paths)
        reduced, pivots = rref(kernel)
        if (reduced, pivots) != rref(structural):
            raise CertificationError("structural generators do not span the evaluation kernel")
        blocks.append(P.RelationBlock(s, t, paths, tuple(map(tuple, reduced))))
    return P.RelationSet(False, tuple(blocks))


def reference_orthogonal_relations(relations: P.RelationSet) -> P.RelationSet:
    """`koszul.orthogonal_relations` as the `nullspace` of the plain rows
    permuted into the dual coordinates of `paths_of_length_two`, put in
    `rref`."""
    if not relations.blocks:
        return P.RelationSet(True, ())
    m, n = weight_type(relations.blocks[0].source)
    qbar = P.build_quiver(m, n, dual=True)
    out = []
    for b in relations.blocks:
        dual_paths = paths_of_length_two(qbar, b.target, b.source)
        col = {p: i for i, p in enumerate(dual_paths)}
        perm = [col[(P.dual_arrow(b2), P.dual_arrow(b1))] for b1, b2 in b.paths]
        permuted = [{j: c for c, j in zip(row, perm) if c} for row in b.rows]
        reduced, _ = rref(nullspace(permuted, len(dual_paths)))
        assert len(reduced) + len(b.rows) == len(dual_paths)
        assert linalg.first_nonzero_product(permuted, [dict(enumerate(r)) for r in reduced]) is None
        out.append(P.RelationBlock(b.target, b.source, dual_paths, tuple(map(tuple, reduced))))
    out.sort(key=lambda b: (comb.sort_key(b.source), comb.sort_key(b.target)))
    return P.RelationSet(True, tuple(out))


def reference_length_two_rules(m: int, n: int) -> list[Rule]:
    """The length-two rules of `koszul.reduction_system`, each block of
    the reference dual relations reordered with its designated paths
    first and put in `rref`, in the order the system lists them."""
    from arcdual import koszul

    qbar = P.build_quiver(m, n, dual=True)
    relations = reference_orthogonal_relations(reference_relations_K(m, n))
    groups: dict = {}
    for s in koszul.build_S(m, n):
        groups.setdefault((s.path.start, s.path.end), []).append(s)
    rules = []
    for key, group in sorted(groups.items()):
        block = relations.block(*key)
        pobjs = [make_path(qbar, [a, b]) for a, b in block.paths]
        des = {s.path.arrows for s in group}
        des_idx = sorted(
            (i for i, p in enumerate(pobjs) if p.arrows in des), key=lambda i: path_key(pobjs[i])
        )
        free_idx = sorted(
            (i for i, p in enumerate(pobjs) if p.arrows not in des),
            key=lambda i: path_key(pobjs[i]),
        )
        order = des_idx + free_idx
        reduced, pivots = rref([[row[j] for j in order] for row in block.rows])
        assert pivots == list(range(len(des_idx)))
        phis = {}
        for r, row in enumerate(reduced):
            phi: LinComb = {}
            for c in range(len(des_idx), len(order)):
                if row[c]:
                    add_term(phi, pobjs[order[c]], -row[c])
            phis[pobjs[des_idx[r]].arrows] = phi
        rules += [make_rule(s.path, phis[s.path.arrows], tag=s.tag) for s in group]
    return sorted(rules, key=lambda r: path_key(r.lhs))


def reference_staircase_members(m: int, n: int) -> int:
    """Every staircase rule's lhs - sign * alternate reduced to zero on
    the `echelon` tails of the padded quadratic ideal, its prefixes and
    suffixes built as `Path`s; returns the number of rules checked."""
    from arcdual import koszul

    qbar = P.build_quiver(m, n, dual=True)
    relations = reference_orthogonal_relations(reference_relations_K(m, n))

    def paths_from(source, length):
        out = [Path(source, (), source)]
        for _ in range(length):
            out = [
                Path(source, p.arrows + (a.name,), a.target) for p in out for a in qbar.out[p.end]
            ]
        return out

    checked = 0
    for vs in koszul._cubic_sequences(m, n):
        alt, sign = koszul._cubic_alternate(vs)
        for build in (koszul._ybar_path, koszul._xbar_path):
            lhs, rhs = build(qbar, vs), build(qbar, alt)
            rows = []
            for cut in range(len(lhs) - 1):
                for prefix in paths_from(lhs.start, cut):
                    for block in relations.blocks:
                        if block.source != prefix.end:
                            continue
                        for suffix in paths_from(block.target, len(lhs) - cut - 2):
                            if suffix.end == lhs.end:
                                rows += [
                                    {prefix.arrows + (a.name, b.name) + suffix.arrows: c
                                     for c, (a, b) in zip(row, block.paths) if c}
                                    for row in block.rows
                                ]
            basis = echelon(rows)
            residue = {lhs.arrows: Fraction(1), rhs.arrows: Fraction(-sign)}
            for key in [k for k in residue if k in basis]:
                c = residue.pop(key)
                for k, x in basis[key].items():
                    residue[k] = residue.get(k, 0) - c * x
            assert not any(residue.values()), lhs
            checked += 1
    return checked


def reference_graded_dimensions(m: int, n: int):
    """`koszul.certify_graded_dimensions` as a convolution loop over the
    KL columns of every vertex pair, coefficient by coefficient."""
    from arcdual import koszul

    basis = koszul.irreducible_basis(m, n)
    weights = comb.enumerate_weights(m, n)
    top = 2 * m * n
    columns = {
        lam: {kappa: koszul.kl_poly(kappa, lam).coefficients for kappa in weights}
        for lam in weights
    }
    mismatches, buckets = [], 0
    for lam in weights:
        counts = basis.source_counts(lam)
        for mu in weights:
            expected = [0] * (top + 1)
            for kappa, left in columns[lam].items():
                right = columns[mu][kappa]
                if not (left and right):
                    continue
                reach = len(left) + len(right) - 1
                expected.extend([0] * (reach - len(expected)))
                for a, ca in enumerate(left):
                    for b, cb in enumerate(right, a):
                        expected[b] += ca * cb
            buckets += top + 1 + sum(1 for want in expected[top + 1 :] if want)
            for i, want in enumerate(expected):
                got = counts.get((mu, i), 0)
                if got != want:
                    mismatches.append((lam, mu, i, got, want))
    return koszul.GradedDimensionReport(
        not mismatches, len(weights) ** 2, buckets, tuple(mismatches)
    )
