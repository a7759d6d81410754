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


def _gluing_fault(shape: str, lam: str) -> int:
    """The first condition that the cup diagram of `shape` breaks on
    `lam`, read once: 1 (an arc with equal end marks), else 2 (ray marks
    reading v ... ^), else 0."""
    diagram = cup_matching(shape)
    if any(lam[i] == lam[j] for i, j in diagram.cups):
        return 1
    return 2 if DOWN + UP in "".join([lam[p] for p in diagram.rays]) else 0


def classify_gluing(alpha: str, lam: str, beta: str) -> int:
    """0 when (alpha, lam, beta) glue to an arc diagram, else the number
    of the first violated condition (1: an arc with equal end marks,
    2: a forbidden v ... ^ ray pattern)."""
    kind = comb.weight_type(lam)
    if comb.weight_type(alpha) != kind or comb.weight_type(beta) != kind:
        raise ValueError(
            f"weights {alpha!r}, {lam!r}, {beta!r} are not all of one type"
        )
    faults = (_gluing_fault(alpha, lam), _gluing_fault(beta, lam))
    return 1 if 1 in faults else max(faults)


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
# The 2N nodes of the stacked picture are integers: position p is node p
# on the lower weight line and node N + p on the upper one.  Every node
# meets exactly two arcs, counting a ray once, so components are paths
# (lines) or cycles (circles).  The picture is held as two flat lists
# over the nodes: `outer[v]` is the other end of v's cup (lower line) or
# cap (upper line), -1 for the open end of a ray, and `inner[v]` the
# other end of v's arc in the middle band, a glue arc or a vertical, so
# a walk alternates the two.  Both are read off the cached partner
# tables of the three cup diagrams.  A component is keyed by its least
# node, an int, and a state of the circles is one int bitmask over their
# keys, bit k set when the circle keyed k is counterclockwise; merges and
# splits clear and set bits.  A surgery step turns the two glue arcs at
# one pair into two verticals and re-traces only the components through
# its four nodes.


@lru_cache(maxsize=None)
def _outer_links(shape: str, offset: int) -> tuple[int, ...]:
    """For each position of the cup diagram of shape, offset plus the
    other end of its cup, or -1 at a ray."""
    partner = [-1] * len(shape)
    for i, j in cup_matching(shape).cups:
        partner[i], partner[j] = offset + j, offset + i
    return tuple(partner)


@lru_cache(maxsize=None)
def _glue_links(glue: str) -> tuple[int, ...]:
    """The middle band before surgery, for each of the 2N nodes: the
    other end of its glue cap (lower line) or cup (upper line), or at a
    ray of glue the node facing it on the other line."""
    N = len(glue)
    links = [p + N for p in range(N)] + list(range(N))
    for i, j in cup_matching(glue).cups:
        links[i], links[j], links[N + i], links[N + j] = j, i, N + j, N + i
    return tuple(links)


def _trace(outer: list, inner: list, start: int) -> tuple[list, tuple]:
    """The nodes of the component through start, walked both ways from
    it, and its two ray nodes in order (none for a circle)."""
    nodes = [start]
    v = start
    while True:
        u = outer[v]
        if u < 0:
            break
        v = inner[u]
        nodes.append(u)
        if v == start:
            return nodes, ()  # back at start: a circle, walked once round
        nodes.append(v)
    end = v
    v = start
    while True:
        u = inner[v]
        nodes.append(u)
        v = outer[u]
        if v < 0:
            return nodes, (end, u) if end < u else (u, end)
        nodes.append(v)


def _run_surgery(a: ArcDiagram, b: ArcDiagram, order) -> dict[ArcDiagram, int]:
    """Resolve the middle band of the stacked pair along the given order
    of glue cups.  Each chosen cup must be admissible: not nested inside
    a cup that has not been resolved yet.  The components are traced
    once; after each step only those through its four nodes are traced
    again, and the node-to-component map is updated for them alone."""
    glue = a.cap_weight
    lam, mu = a.mid_weight, b.mid_weight
    N = len(lam)
    mid = cup_matching(glue)
    for p in mid.rays:
        assert lam[p] == mu[p]
    marks = lam + mu  # the mark at each node
    outer = _outer_links(a.cup_weight, 0) + _outer_links(b.cap_weight, N)
    inner = list(_glue_links(glue))
    # the key of each node's component, -1 while it awaits tracing, and
    # the ray nodes of each line by its key
    component = [-1] * (2 * N)
    lines: dict[int, tuple] = {}

    # Lines carry no state, their rays keep their marks forever.  The
    # leftmost crossing of a circle with the lower weight line, or with
    # the upper one if it misses the lower, is its least node, the first
    # met in node order; it points down exactly when the circle is
    # counterclockwise.
    def retrace(start: int) -> int:
        nodes, rays = _trace(outer, inner, start)
        key = min(nodes)
        for v in nodes:
            component[v] = key
        if rays:
            lines[key] = rays
        return key

    init = 0
    for node in range(2 * N):
        if component[node] < 0:
            key = retrace(node)
            if key not in lines and marks[key] == DOWN:
                init |= 1 << key
    states: dict[int, int] = {init: 1}

    remaining = set(mid.cups)
    for pair in order:
        pair = tuple(pair)
        assert pair in remaining
        i, j = pair
        assert len(remaining) == 1 or not any(o[0] < i and j < o[1] for o in remaining), (
            f"surgery at {pair} blocked by an enclosing unresolved pair"
        )
        remaining.discard(pair)
        c_low, c_high = component[i], component[N + i]
        low_rays, high_rays = lines.pop(c_low, ()), lines.pop(c_high, ())
        # the glue cup and cap at (i, j) become the verticals at i and j;
        # every component meeting the four surgery nodes is newly formed
        # (merges and splits always change node sets, and reconnected
        # lines mix nodes of both inputs), and each holds i or j
        inner[i], inner[j], inner[N + i], inner[N + j] = N + i, N + j, i, j
        component[j] = -1
        fresh = [retrace(i)]
        if component[j] < 0:
            fresh.append(retrace(j))

        new_states: dict[int, int] = {}
        if c_low != c_high:
            # merge
            if not low_rays and not high_rays:
                assert len(fresh) == 1 and fresh[0] not in lines
                pair_bits, merged = 1 << c_low | 1 << c_high, 1 << fresh[0]
                for state, coeff in states.items():
                    labels = state & pair_bits
                    if labels:
                        rest = state ^ labels
                        add_term(new_states, rest | merged if labels == pair_bits else rest, coeff)
            elif bool(low_rays) != bool(high_rays):
                assert len(fresh) == 1 and fresh[0] in lines
                circle = 1 << (c_high if low_rays else c_low)
                for state, coeff in states.items():
                    if state & circle:
                        new_states[state ^ circle] = coeff
            else:
                # two lines reconnect into two lines
                assert len(fresh) == 2 and fresh[0] in lines and fresh[1] in lines
                ends = {marks[x] + marks[y] for x, y in (low_rays, high_rays)}
                if ends == {UP + UP, DOWN + DOWN}:
                    new_states = states
                # otherwise every summand dies
        else:
            # split
            assert len(fresh) == 2
            if not low_rays:
                assert fresh[0] not in lines and fresh[1] not in lines
                # the parent's key is the least node of both halves, so
                # it keys one half and the other half's bit is clear in
                # every state: no two summands collide
                other = 1 << (fresh[1] if fresh[0] == c_low else fresh[0])
                parent = 1 << c_low
                for state, coeff in states.items():
                    new_states[state] = coeff
                    if state & parent:
                        new_states[state ^ parent | other] = coeff
            else:
                assert (fresh[0] in lines) != (fresh[1] in lines)
                # the pinched circle is clockwise: its bit stays clear
                new_states = states
        states = new_states
        if not states:
            return {}

    assert not remaining

    # Collapse the middle band: every position now carries a vertical, so
    # each component crosses both lines at the same sorted positions and
    # its crossings alternate direction along them.  The lines fill a
    # template once and each circle's positions are read off once; a
    # state only picks the mark each circle starts with.
    assert component[:N] == component[N:]
    positions: dict[int, list] = {}
    for p, key in enumerate(component[:N]):
        positions.setdefault(key, []).append(p)
    template: list = [None] * N
    circles = []
    circle_bits = 0
    for key, low in positions.items():
        if key in lines:
            anchor, other = lines[key]
            alternate = (marks[anchor], UP if marks[anchor] == DOWN else DOWN)
            base = low.index(anchor % N)
            for t, p in enumerate(low):
                template[p] = alternate[(t - base) & 1]
            assert template[other % N] == marks[other]
        else:
            circles.append((1 << key, low))
            circle_bits |= 1 << key
    result: dict[ArcDiagram, int] = {}
    for state, coeff in states.items():
        assert not state & ~circle_bits
        nu = template[:]
        for bit, low in circles:
            alternate = (DOWN, UP) if state & bit else (UP, DOWN)
            for t, p in enumerate(low):
                nu[p] = alternate[t & 1]
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
    terms = tuple(_run_surgery(a, b, order).items())
    if len(terms) < 2:
        return terms
    return tuple(sorted(terms, key=lambda kv: diagram_sort_key(kv[0])))


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

