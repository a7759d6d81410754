"""Arc diagrams and the diagram algebra they span.

A basis diagram glues the cup diagram of a weight alpha, a weight lambda
written on the horizontal line, and the cap diagram (mirrored cup
diagram) of a weight beta.  The gluing is admissible when

  (1) each cup and cap carries opposite marks of lambda at its two
      endpoints (every arc is consistently oriented), and
  (2) reading left to right, the marks of lambda at the downward rays
      avoid the pattern v ... ^, and likewise at the upward rays.

The degree of a diagram counts its clockwise arcs; an arc is clockwise
exactly when its left endpoint carries an up mark.

Multiplication stacks a diagram below another one with matching gluing
weight and resolves the facing cap/cup pairs of the middle band by
surgery, one pair at a time, outermost first.  Components of the picture
carry labels: a circle is counterclockwise (unit) or clockwise (dotted),
a line is oriented by its rays and never reoriented.  Each surgery merges
two components or splits one, transforming the multiset of labelled
states:

  merge:  unit*unit -> unit    unit*dot -> dot     dot*dot -> 0
          unit*line -> line    dot*line -> 0
          line*line -> 0 unless one line points up at both rays and the
          other down at both; then both reconnected lines survive
  split:  unit -> unit*dot + dot*unit    dot -> dot*dot
          line -> dot circle * the line (the pinched circle is clockwise)

The result is read off by re-orienting every component according to its
final label and collapsing the middle band.  The outcome is independent
of the order in which admissible (never nested inside a remaining) pairs
are resolved; a property test exercises random admissible orders.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import combinatorics as comb
from .combinatorics import DOWN, UP, cup_matching
from .linalg import add_term


class InvalidDiagram(ValueError):
    """Rejected gluing; `condition` names the violated requirement."""

    def __init__(self, message: str, condition: int):
        super().__init__(message)
        self.condition = condition


class ArcDiagram(NamedTuple):
    """Cup diagram of cup_weight, glued to the cap diagram of cap_weight
    along mid_weight.  Instances are only built through make_arc_diagram
    or by the surgery engine, both of which validate the gluing."""

    cup_weight: str
    mid_weight: str
    cap_weight: str

    def __repr__(self):
        return f"({self.cup_weight}|{self.mid_weight}|{self.cap_weight})"


def _oriented_arcs_ok(shape: str, lam: str) -> bool:
    return all(lam[i] != lam[j] for i, j in cup_matching(shape).cups)


def _ray_pattern_ok(shape: str, lam: str) -> bool:
    marks = [lam[p] for p in cup_matching(shape).rays]
    return not any(a == DOWN and b == UP for a, b in zip(marks, marks[1:]))


def classify_gluing(alpha: str, lam: str, beta: str) -> int:
    """0 when (alpha, lam, beta) glue to an arc diagram, else the number
    of the first violated condition (1: an arc with equal end marks,
    2: a forbidden v ... ^ ray pattern)."""
    if comb.weight_type(alpha) != comb.weight_type(lam) or comb.weight_type(
        beta
    ) != comb.weight_type(lam):
        raise ValueError(
            f"weights {alpha!r}, {lam!r}, {beta!r} are not all of one type"
        )
    if not (_oriented_arcs_ok(alpha, lam) and _oriented_arcs_ok(beta, lam)):
        return 1
    if not (_ray_pattern_ok(alpha, lam) and _ray_pattern_ok(beta, lam)):
        return 2
    return 0


def make_arc_diagram(alpha: str, lam: str, beta: str) -> ArcDiagram:
    condition = classify_gluing(alpha, lam, beta)
    if condition:
        raise InvalidDiagram(
            f"({alpha}|{lam}|{beta}) is not an arc diagram: "
            f"condition {condition} fails",
            condition,
        )
    return ArcDiagram(alpha, lam, beta)


def degree(d: ArcDiagram) -> int:
    """Number of clockwise cups plus clockwise caps."""
    lam = d.mid_weight
    cups = cup_matching(d.cup_weight).cups
    caps = cup_matching(d.cap_weight).cups
    return sum(1 for i, _ in cups if lam[i] == UP) + sum(
        1 for i, _ in caps if lam[i] == UP
    )


def idempotent(lam: str) -> ArcDiagram:
    """The unique degree-zero diagram with weight lam."""
    return ArcDiagram(lam, lam, lam)


def _orientations(m: int, n: int):
    """Every pair (shape, lam) with lam orienting the cup diagram of
    shape, shape by shape in canonical order, as (mask, shape, cw): bit
    p of mask is set when lam carries an up mark at p, and cw counts the
    clockwise cups.

    Built from the shape side: a cup diagram with k cups is oriented by
    exactly 2**k weights.  Each cup reads v^ (counterclockwise) or ^v
    (clockwise), and the ray marks are forced to ^...^v...v with n - k
    up marks, since the cups use up k marks of each kind.
    """
    for a in comb.enumerate_weights(m, n):
        diagram = cup_matching(a)
        k = len(diagram.cups)
        orientations = [(sum(1 << p for p in diagram.rays[: n - k]), 0)]
        for i, j in diagram.cups:
            # v^ puts the up mark at j, ^v (clockwise) at i
            orientations = [(mask | 1 << j, cw) for mask, cw in orientations] + [
                (mask | 1 << i, cw + 1) for mask, cw in orientations
            ]
        for mask, cw in orientations:
            yield mask, a, cw


@lru_cache(maxsize=None)
def _orientation_table(m: int, n: int) -> dict[str, tuple[tuple[str, int], ...]]:
    """For every weight lam of type (m, n), the shapes whose cup diagram
    lam orients, canonically ordered, each with its clockwise cup count."""
    table: dict[int, list] = {
        sum(1 << p for p, c in enumerate(lam) if c == UP): []
        for lam in comb.enumerate_weights(m, n)
    }
    for mask, a, cw in _orientations(m, n):
        table[mask].append((a, cw))
    return {
        lam: tuple(entries)
        for lam, entries in zip(comb.enumerate_weights(m, n), table.values())
    }


def oriented_shapes(lam: str) -> tuple[str, ...]:
    """Weights whose cup diagram is orientable by lam, canonically ordered.

    By the mirror symmetry of the conditions these also index the
    orientable cap diagrams, so the basis diagrams with middle weight lam
    are exactly the pairs (shape, shape') of oriented shapes.
    """
    return tuple(a for a, _ in _orientation_table(*comb.weight_type(lam))[lam])


def diagram_sort_key(d: ArcDiagram):
    return (
        degree(d),
        comb.sort_key(d.cup_weight),
        comb.sort_key(d.mid_weight),
        comb.sort_key(d.cap_weight),
    )


@lru_cache(maxsize=None)
def enumerate_basis(m: int, n: int) -> tuple[ArcDiagram, ...]:
    """All basis diagrams of type (m, n), sorted by degree then weights."""
    diagrams = []
    for lam in comb.enumerate_weights(m, n):
        shapes = oriented_shapes(lam)
        for a in shapes:
            for b in shapes:
                diagrams.append(ArcDiagram(a, lam, b))
    diagrams.sort(key=diagram_sort_key)
    return tuple(diagrams)


def graded_dimension(m: int, n: int) -> dict[int, int]:
    """Basis diagrams of type (m, n) counted by degree, without building
    them.  Cups and caps of (a|lam|b) range independently over the shapes
    lam orients, so the Poincare polynomial is sum over lam of P_lam(q)**2
    with P_lam(q) = sum of q**cw(a, lam) over those shapes a.  Only the
    coefficients of each P_lam are held, never the shapes."""
    polys: dict[int, Counter] = defaultdict(Counter)
    for mask, _, cw in _orientations(m, n):
        polys[mask][cw] += 1
    hist: Counter = Counter()
    for poly in polys.values():
        for i, ci in poly.items():
            for j, cj in poly.items():
                hist[i + j] += ci * cj
    return dict(sorted(hist.items()))


def block_dimensions(m: int, n: int, max_degree: int) -> dict[tuple[int, str, str], int]:
    """Basis diagrams of degree at most max_degree, counted per
    (degree, cup weight, cap weight), without building them.  The
    diagrams with middle weight lam pair any two shapes lam orients, and
    the degree adds their clockwise counts."""
    counts: dict[tuple[int, str, str], int] = {}
    for entries in _orientation_table(m, n).values():
        low = [(a, cw) for a, cw in entries if cw <= max_degree]
        for a, ca in low:
            for b, cb in low:
                if ca + cb <= max_degree:
                    key = (ca + cb, a, b)
                    counts[key] = counts.get(key, 0) + 1
    return counts


def dimension(m: int, n: int) -> int:
    counts = Counter(mask for mask, _, _ in _orientations(m, n))
    return sum(c * c for c in counts.values())


def unit(m: int, n: int) -> dict[ArcDiagram, int]:
    return {idempotent(lam): 1 for lam in comb.enumerate_weights(m, n)}


def involution_diagram(d: ArcDiagram) -> ArcDiagram:
    return ArcDiagram(d.cap_weight, d.mid_weight, d.cup_weight)


def involution(x: dict[ArcDiagram, Fraction]) -> dict[ArcDiagram, Fraction]:
    """Linear anti-automorphism reflecting diagrams top to bottom."""
    return {involution_diagram(d): c for d, c in x.items()}


# ---------------------------------------------------------------------------
# Surgery engine.
#
# Nodes are (level, position) with level 0 on the lower weight line and
# level 1 on the upper one.  Every node meets exactly two arcs, counting a
# ray once, so components are paths (lines) or cycles (circles).  The
# picture is kept as a node-adjacency map: each node lists its two
# neighbours, None standing for the open end of a ray.  A surgery step
# rewires the four nodes of one glue pair into two verticals and re-traces
# only the components through those nodes; every other component, and its
# entries in the node-to-component map, is left as it is.


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


def diagram_product(
    a: ArcDiagram, b: ArcDiagram
) -> tuple[tuple[ArcDiagram, int], ...]:
    """Product of two basis diagrams as a sorted tuple of (diagram, coeff).

    Zero unless the cap weight of a equals the cup weight of b.  Surgery
    pairs are resolved left to right, which is an admissible order since
    an enclosing cup always starts further left than the cups inside it.
    """
    if a.cap_weight != b.cup_weight:
        return ()
    order = cup_matching(a.cap_weight).cups
    result = _run_surgery(a, b, order)
    return tuple(sorted(result.items(), key=lambda kv: diagram_sort_key(kv[0])))


# The memoised product, for callers that read a pair again (the
# associativity tests).  `multiply` does not: the relations of K(m, n)
# take each product once, so holding them would only cost memory.
multiply_diagrams = lru_cache(maxsize=None)(diagram_product)


def multiply(
    x: dict[ArcDiagram, Fraction], y: dict[ArcDiagram, Fraction]
) -> dict[ArcDiagram, Fraction]:
    """Bilinear extension of the diagram product, not memoised."""
    out: dict[ArcDiagram, Fraction] = {}
    for da, ca in x.items():
        for db, cb in y.items():
            for d, c in diagram_product(da, db):
                add_term(out, d, ca * cb * c)
    return out

