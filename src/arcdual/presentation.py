"""Quiver presentation of the diagram algebra in homological degree two.

The neighbour graph Gamma has the weights as vertices and an edge for
every exchange move; heights make it bipartite.  Doubling each edge
yields the quiver Q (ascending arrows x, descending arrows y); the
opposite quiver carries the barred arrows of the dual presentation
(xbar descending, ybar ascending).  Paths always compose left to right.

Each arrow maps to a degree-one diagram: an ascending arrow from lam to
mu becomes (lam | mu | mu), a descending one from mu to lam becomes
(mu | mu | lam); the line weight is the higher of the two.  Extending
multiplicatively gives the evaluation of paths; a block's relation
space is the kernel of that evaluation.

The kernel is certified against an independently constructed generating
set: monomial relations (the unique length-two path composed of two
same-direction exchanges sharing an endpoint), commutativity relations
(all parallel length-two paths between distinct vertices are equal), and
vertex relations (each down-up two-cycle equals the signed sum of up-down
two-cycles weighted by the enclosure coefficients).  The generators are
put in reduced echelon form on integers; they span the kernel exactly
when the evaluation kills each of them and their number is the
dimension of the kernel, the number of paths less the rank of the
evaluation.  No kernel basis is built.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import NamedTuple

from . import arc_algebra as alg
from . import combinatorics as comb
from . import linalg
from .arc_algebra import ArcDiagram
from .errors import CertificationError


class Arrow(NamedTuple("Arrow", [("kind", str), ("source", str), ("target", str)])):
    """`kind` is "x", "y", "xbar" or "ybar".  A subclass without
    `__slots__`, so that `name` is cached on the instance."""

    @cached_property
    def name(self) -> str:
        return f"{self.kind}:{self.source}->{self.target}"

    @property
    def ascending(self) -> bool:
        return self.kind in ("x", "ybar")

    def __repr__(self):
        return self.name


class Graph(NamedTuple):
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]  # (lower, upper)


@lru_cache(maxsize=None)
def build_gamma(m: int, n: int) -> Graph:
    """Exchange-move graph on the weights of type (m, n)."""
    vertices = comb.enumerate_weights(m, n)
    edges = []
    for lam in vertices:
        for _, mu in comb.upper_neighbours(lam):
            edges.append((lam, mu))
    edges.sort(key=lambda e: (comb.sort_key(e[0]), comb.sort_key(e[1])))
    return Graph(tuple(vertices), tuple(edges))


class Quiver:
    """Double quiver of the exchange graph, plain or opposite (dual)."""

    def __init__(self, vertices, arrows, dual: bool):
        self.vertices = tuple(vertices)
        self.arrows = tuple(arrows)
        self.dual = bool(dual)
        self.by_name = {a.name: a for a in self.arrows}
        out: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        into: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            out[a.source].append(a)
            into[a.target].append(a)
        self.out = {v: tuple(lst) for v, lst in out.items()}
        self.into = {v: tuple(lst) for v, lst in into.items()}

    def __eq__(self, other):
        return (
            isinstance(other, Quiver)
            and self.vertices == other.vertices
            and self.arrows == other.arrows
            and self.dual == other.dual
        )

    def __hash__(self):
        return hash((self.vertices, self.arrows, self.dual))

    def __repr__(self):
        return (
            f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows, "
            f"dual={self.dual})"
        )


@lru_cache(maxsize=None)
def build_quiver(m: int, n: int, dual: bool = False) -> Quiver:
    gamma = build_gamma(m, n)
    arrows = []
    for lam, mu in gamma.edges:
        if dual:
            arrows.append(Arrow("xbar", mu, lam))
            arrows.append(Arrow("ybar", lam, mu))
        else:
            arrows.append(Arrow("x", lam, mu))
            arrows.append(Arrow("y", mu, lam))
    arrows.sort(key=lambda a: a.name)
    return Quiver(gamma.vertices, arrows, dual)


def dual_arrow(a: Arrow) -> Arrow:
    """Bijection between the arrows of the quiver and its opposite."""
    swap = {"x": "xbar", "xbar": "x", "y": "ybar", "ybar": "y"}
    return Arrow(swap[a.kind], a.target, a.source)


def exchange_cup_between(lam: str, mu: str) -> tuple[int, int]:
    """The cup of e_lam whose exchange produces mu; ValueError if none."""
    for pair, out in comb.upper_neighbours(lam):
        if out == mu:
            return pair
    raise ValueError(f"{mu!r} is not an exchange of {lam!r}")


def c_coefficient(kappa: str, lam: str, mu: str) -> int:
    """Enclosure coefficient of the vertex relation at lam.

    Requires lam to be an exchange of kappa (along a circle D of the
    degree-zero diagram of kappa) and mu an exchange of lam (along a
    circle C of the one of lam).  The value is 1 when C is no circle of
    e_kappa, 0 when it is one but does not enclose D, and (-1)**(j-1) * 2
    when it is the j-th circle enclosing D, counted inner to outer.
    """
    D = exchange_cup_between(kappa, lam)
    C = exchange_cup_between(lam, mu)
    kappa_cups = comb.cup_matching(kappa).cups
    if C not in kappa_cups:
        return 1
    if not comb.is_nested(D, C):
        return 0
    enclosing = sorted(
        (p for p in kappa_cups if comb.is_nested(D, p)),
        key=lambda p: p[1] - p[0],
    )
    j = enclosing.index(C) + 1
    return 2 * (-1) ** (j - 1)


def rho_of_arrow(a: Arrow) -> ArcDiagram:
    if a.kind == "x":
        return ArcDiagram(a.source, a.target, a.target)
    if a.kind == "y":
        return ArcDiagram(a.source, a.source, a.target)
    raise ValueError(f"evaluation is defined on plain arrows, got {a.kind}")


def rho_of_path(arrows) -> dict[ArcDiagram, int]:
    """Evaluate a composable arrow sequence, multiplying left to right."""
    result = None
    for a in arrows:
        step = {rho_of_arrow(a): 1}
        result = step if result is None else alg.multiply(result, step)
    assert result is not None
    return result


class RelationBlock(NamedTuple):
    """The relations of one block, over its length-two paths.

    `rows` is the reduced echelon basis of the relation space as
    primitive integer vectors over `paths`, in pivot order: each row is
    positive at its pivot (its first nonzero entry) and zero at every
    other pivot."""

    source: str
    target: str
    paths: tuple[tuple[Arrow, Arrow], ...]
    rows: tuple[tuple[int, ...], ...]


class RelationSet(
    NamedTuple("RelationSet", [("dual", bool), ("blocks", tuple[RelationBlock, ...])])
):
    """A subclass without `__slots__`, so that `_by_pair` is cached on
    the instance."""

    @cached_property
    def _by_pair(self) -> dict[tuple[str, str], RelationBlock]:
        return {(b.source, b.target): b for b in self.blocks}

    def block(self, source: str, target: str) -> RelationBlock | None:
        return self._by_pair.get((source, target))

    def total_dimension(self) -> int:
        return sum(len(b.rows) for b in self.blocks)


def _monomial_shape(path) -> bool:
    """Single-path monomial test: two same-direction exchanges whose cups
    share an endpoint."""
    a, b = path
    if a.ascending and b.ascending:
        lo, mid, hi = a.source, a.target, b.target
    elif not a.ascending and not b.ascending:
        lo, mid, hi = b.target, a.target, a.source
    else:
        return False
    first = exchange_cup_between(lo, mid)
    second = exchange_cup_between(mid, hi)
    return len(set(first) & set(second)) == 1


def _evaluation_rows(paths) -> list[dict]:
    """The evaluation of a block as sparse rows, one per diagram, over
    the given path coordinates."""
    rows: dict = {}
    for col, p in enumerate(paths):
        for d, coeff in rho_of_path(p).items():
            rows.setdefault(d, {})[col] = coeff
    return list(rows.values())


def _structural_rows(quiver: Quiver, source: str, target: str, paths):
    rows = []
    npaths = len(paths)

    def unit_vector(idx):
        v = [0] * npaths
        v[idx] = 1
        return v

    if source != target:
        if npaths >= 2:
            for i in range(1, npaths):
                row = unit_vector(0)
                row[i] = -1
                rows.append(row)
        elif npaths == 1 and _monomial_shape(paths[0]):
            rows.append(unit_vector(0))
        return rows

    # vertex relations: one per descending arrow out of the vertex
    index = {(a.name, b.name): i for i, (a, b) in enumerate(paths)}
    lam = source
    ups = [a for a in quiver.out[lam] if a.ascending]
    downs = [a for a in quiver.out[lam] if not a.ascending]
    for down in downs:
        kappa = down.target
        back = next(a for a in quiver.out[kappa] if a.target == lam)
        row = [0] * npaths
        row[index[(down.name, back.name)]] = 1
        for up in ups:
            ret = next(a for a in quiver.out[up.target] if a.target == lam)
            coeff = c_coefficient(kappa, lam, up.target)
            if coeff:
                row[index[(up.name, ret.name)]] -= coeff
        rows.append(row)
    return rows


def length_two_blocks(quiver: Quiver):
    """Every nonempty (source, target, paths) of length-two paths, read
    off in one sweep over the arrows: sources and targets in vertex
    order, each block's paths as arrow pairs ordered by their names."""
    order = {v: i for i, v in enumerate(quiver.vertices)}
    for s in quiver.vertices:
        by_target: dict[str, list] = {}
        for a in quiver.out[s]:
            for b in quiver.out[a.target]:
                by_target.setdefault(b.target, []).append((a, b))
        for t in sorted(by_target, key=order.__getitem__):
            paths = by_target[t]
            paths.sort(key=lambda p: (p[0].name, p[1].name))
            yield s, t, tuple(paths)


@lru_cache(maxsize=None)
def relations_K(m: int, n: int) -> RelationSet:
    """Quadratic relation spaces of the plain presentation, block by
    block: the structural generators in reduced integer form, certified
    to span the kernel of the evaluation."""
    quiver = build_quiver(m, n, dual=False)
    blocks = []
    for s, t, paths in length_two_blocks(quiver):
        evaluation = _evaluation_rows(paths)
        structural = linalg.integer_echelon(
            {j: c for j, c in enumerate(row) if c}
            for row in _structural_rows(quiver, s, t, paths)
        )
        kernel_dim = len(paths) - linalg.sparse_rank(evaluation)
        if (
            len(structural) != kernel_dim
            or linalg.first_nonzero_product(evaluation, structural.values()) is not None
        ):
            raise CertificationError(
                f"relation block ({s}, {t}): structural generators do not "
                f"span the evaluation kernel",
                witness={
                    "block": (s, t),
                    "kernel_dim": kernel_dim,
                    "structural_dim": len(structural),
                },
            )
        rows = tuple(
            tuple(row.get(j, 0) for j in range(len(paths))) for row in structural.values()
        )
        blocks.append(RelationBlock(s, t, paths, rows))
    return RelationSet(False, tuple(blocks))


class RhoReport(NamedTuple):
    ok: bool
    blocks_checked: int
    mismatches: tuple


def verify_rho(m: int, n: int) -> RhoReport:
    """Compare graded block dimensions of the presented algebra (paths
    modulo relations, degrees <= 2) with the diagram algebra, whose
    blocks are counted without building its diagrams."""
    quiver = build_quiver(m, n, dual=False)
    relations = relations_K(m, n)
    by_degree_block = alg.block_dimensions(m, n, 2)
    mismatches = []
    checked = 0
    for s in quiver.vertices:
        for t in quiver.vertices:
            checked += 1
            block = relations.block(s, t)
            presented = (
                1 if s == t else 0,
                sum(1 for a in quiver.out[s] if a.target == t),
                # relations_K has a block exactly where length-two paths exist
                len(block.paths) - len(block.rows) if block else 0,
            )
            for deg, want in enumerate(presented):
                got = by_degree_block.get((deg, s, t), 0)
                if got != want:
                    mismatches.append((deg, s, t, want, got))
    return RhoReport(not mismatches, checked, tuple(mismatches))


def quiver_dot(quiver: Quiver) -> str:
    lines = ["digraph quiver {"]
    for v in sorted(quiver.vertices, key=comb.vertex_order):
        lines.append(f'  "{v}";')
    for a in sorted(quiver.arrows, key=lambda a: a.name):
        lines.append(f'  "{a.source}" -> "{a.target}" [label="{a.name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def relations_json(relations: RelationSet) -> list[dict]:
    out = []
    for b in relations.blocks:
        if not b.rows:
            continue
        out.append(
            {
                "source": b.source,
                "target": b.target,
                "paths": [[a.name for a in p] for p in b.paths],
                "rows": [list(r) for r in b.rows],
            }
        )
    return out
