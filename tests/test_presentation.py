"""Quiver presentation layer: graph shape, coefficients, certified relations."""

import pytest

from arcdual import arc_algebra as alg
from arcdual import combinatorics as comb
from arcdual import presentation as P
from reference import paths_of_length_two

SMALL_TYPES = [(1, 1), (1, 2), (2, 1), (1, 3), (1, 4), (2, 2), (3, 2), (2, 3)]


def test_gamma_of_one_row_is_a_path():
    g = P.build_gamma(1, 3)
    assert g.vertices == ("v^^^", "^v^^", "^^v^", "^^^v")
    assert g.edges == (
        ("v^^^", "^v^^"),
        ("^v^^", "^^v^"),
        ("^^v^", "^^^v"),
    )


def test_gamma_two_two_edge_set():
    g = P.build_gamma(2, 2)
    assert len(g.vertices) == 6
    assert set(g.edges) == {
        ("vv^^", "v^v^"),
        ("vv^^", "^v^v"),
        ("v^v^", "v^^v"),
        ("v^v^", "^vv^"),
        ("v^^v", "^v^v"),
        ("^vv^", "^v^v"),
        ("^v^v", "^^vv"),
    }


@pytest.mark.parametrize("m,n", SMALL_TYPES)
def test_gamma_edges_ascend_by_odd_steps(m, n):
    for lo, hi in P.build_gamma(m, n).edges:
        delta = comb.height(hi) - comb.height(lo)
        assert delta >= 1 and delta % 2 == 1


def test_quiver_two_two_arrows():
    q = P.build_quiver(2, 2)
    assert len(q.arrows) == 14
    names = set(q.by_name)
    assert "x:vv^^->^v^v" in names  # the long edge, doubled
    assert "y:^v^v->vv^^" in names
    assert "x:v^^v->^v^v" in names
    assert "y:^^vv->^v^v" in names


@pytest.mark.parametrize("m,n", SMALL_TYPES)
def test_ascending_out_degree_is_defect(m, n):
    q = P.build_quiver(m, n)
    for lam in q.vertices:
        ups = [a for a in q.out[lam] if a.ascending]
        assert len(ups) == comb.defect(lam)
        downs = [a for a in q.into[lam] if a.ascending]
        assert len(downs) == len([a for a in q.out[lam] if not a.ascending])


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (3, 2)])
def test_dual_quiver_bijection(m, n):
    q = P.build_quiver(m, n)
    qbar = P.build_quiver(m, n, dual=True)
    assert len(q.arrows) == len(qbar.arrows)
    for a in q.arrows:
        b = P.dual_arrow(a)
        assert b.name in qbar.by_name
        assert P.dual_arrow(b) == a
        assert b.ascending != a.ascending or a.source == a.target


def test_dual_arrow_kinds():
    a = P.Arrow("x", "vv^^", "v^v^")
    b = P.dual_arrow(a)
    assert b == P.Arrow("xbar", "v^v^", "vv^^")
    assert not b.ascending
    y = P.Arrow("y", "v^v^", "vv^^")
    assert P.dual_arrow(y) == P.Arrow("ybar", "vv^^", "v^v^")
    assert P.dual_arrow(y).ascending


def test_arrow_name_is_cached_and_identity_stays_on_fields():
    a = P.Arrow("x", "vv^^", "v^v^")
    assert a.name == "x:vv^^->v^v^" == repr(a)
    assert a.name is a.name
    fresh = P.Arrow("x", "vv^^", "v^v^")
    assert a == fresh and hash(a) == hash(fresh)
    assert {a: 1}[fresh] == 1
    with pytest.raises(AttributeError):
        a.kind = "y"


def test_arrow_evaluation_fixtures():
    x = P.Arrow("x", "vv^^", "v^v^")
    dx = P.rho_of_arrow(x)
    assert (dx.cup_weight, dx.mid_weight, dx.cap_weight) == ("vv^^", "v^v^", "v^v^")
    assert alg.degree(dx) == 1
    y = P.Arrow("y", "v^v^", "vv^^")
    dy = P.rho_of_arrow(y)
    assert (dy.cup_weight, dy.mid_weight, dy.cap_weight) == ("v^v^", "v^v^", "vv^^")
    assert alg.degree(dy) == 1
    with pytest.raises(ValueError):
        P.rho_of_arrow(P.Arrow("xbar", "v^v^", "vv^^"))


@pytest.mark.parametrize("m,n", [(1, 3), (2, 2), (3, 2)])
def test_arrow_evaluations_are_valid_degree_one_diagrams(m, n):
    q = P.build_quiver(m, n)
    seen = set()
    for a in q.arrows:
        d = P.rho_of_arrow(a)
        made = alg.make_arc_diagram(d.cup_weight, d.mid_weight, d.cap_weight)
        assert made == d
        assert alg.degree(d) == 1
        seen.add(d)
    assert len(seen) == len(q.arrows)
    expected = {d for d in alg.enumerate_basis(m, n) if alg.degree(d) == 1}
    assert seen == expected


def test_exchange_cup_between():
    assert P.exchange_cup_between("vv^^", "v^v^") == (1, 2)
    assert P.exchange_cup_between("vv^^", "^v^v") == (0, 3)
    with pytest.raises(ValueError):
        P.exchange_cup_between("vv^^", "^^vv")


def test_enclosure_coefficient_small():
    # fresh circle: C is no circle of e_kappa
    assert P.c_coefficient("vv^^", "^v^v", "^^vv") == 0  # C=(1,2) persists, no enclosure
    assert P.c_coefficient("v^^v", "^v^v", "^^vv") == 1
    assert P.c_coefficient("^vv^", "^v^v", "^^vv") == 1
    assert P.c_coefficient("vv^^", "v^v^", "^vv^") == 1
    assert P.c_coefficient("vv^^", "v^v^", "v^^v") == 1


def test_enclosure_coefficient_nested():
    # j-th enclosing circle, counted inner to outer, gives 2 * (-1)**(j-1)
    assert P.c_coefficient("vvv^^^", "vv^v^^", "^v^v^v") == -2
    assert P.c_coefficient("vvv^^^", "v^v^v^", "v^^vv^") == 0
    assert P.c_coefficient("vvvv^^^^", "vvv^v^^^", "v^v^v^v^") == -2
    assert P.c_coefficient("vvvv^^^^", "vvv^v^^^", "^vv^v^^v") == 2


@pytest.mark.parametrize("m,n", SMALL_TYPES)
def test_relations_certified_against_kernel(m, n):
    # raises CertificationError when the structural generators miss the kernel
    rel = P.relations_K(m, n)
    assert rel.total_dimension() >= 0


@pytest.mark.parametrize(
    "m,n,kappa,lam,mu",
    [
        (2, 2, "vv^^", "v^v^", "^vv^"),
        (3, 2, "vvv^^", "vv^v^", "v^vv^"),
        (2, 3, "vv^^^", "v^v^^", "^vv^^"),
    ],
)
def test_perturbed_vertex_relation_is_rejected(monkeypatch, m, n, kappa, lam, mu):
    # one enclosure coefficient off by one moves the vertex relation at
    # lam out of the evaluation kernel; every earlier block still passes
    from arcdual.errors import CertificationError

    original = P.c_coefficient
    assert original(kappa, lam, mu) == 1

    def perturbed(k, l, u):
        return original(k, l, u) + ((k, l, u) == (kappa, lam, mu))

    monkeypatch.setattr(P, "c_coefficient", perturbed)
    with pytest.raises(CertificationError, match="structural generators do not span") as exc:
        P.relations_K.__wrapped__(m, n)
    assert str(exc.value).startswith(f"relation block ({lam}, {lam}):")
    assert exc.value.witness == {"block": (lam, lam), "kernel_dim": 1, "structural_dim": 1}


@pytest.mark.parametrize("m,n", SMALL_TYPES)
def test_presented_algebra_matches_diagrams(m, n):
    report = P.verify_rho(m, n)
    assert report.ok, report.mismatches
    assert report.blocks_checked == len(comb.enumerate_weights(m, n)) ** 2


def test_relation_dimensions_two_two():
    rel = P.relations_K(2, 2)
    assert rel.total_dimension() == 21
    # one vertex relation per descending arrow out of the vertex
    assert len(rel.block("^v^v", "^v^v").rows) == 3
    assert len(rel.block("v^v^", "v^v^").rows) == 1
    assert rel.block("vv^^", "vv^^").rows == ()
    # single monomial path straight to the top
    blk = rel.block("v^^v", "^^vv")
    assert [list(map(int, r)) for r in blk.rows] == [[1]]


def test_block_lookup_agrees_with_a_scan():
    rel = P.relations_K(3, 3)
    quiver = P.build_quiver(3, 3)
    missing = 0
    for s in quiver.vertices:
        for t in quiver.vertices:
            scan = [b for b in rel.blocks if (b.source, b.target) == (s, t)]
            assert len(scan) <= 1
            assert rel.block(s, t) is (scan[0] if scan else None)
            assert (rel.block(s, t) is None) == (not paths_of_length_two(quiver, s, t))
            missing += not scan
    assert 0 < missing < len(quiver.vertices) ** 2


@pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (4, 3)])
def test_blocks_match_the_pairwise_path_sweep(m, n):
    # relations_K groups the length-two paths in one sweep; its blocks
    # keep the order and paths of the reference found pair by pair
    quiver = P.build_quiver(m, n)
    want = [
        (s, t, paths_of_length_two(quiver, s, t))
        for s in quiver.vertices
        for t in quiver.vertices
        if paths_of_length_two(quiver, s, t)
    ]
    got = [(b.source, b.target, b.paths) for b in P.relations_K(m, n).blocks]
    assert got == want


def test_zero_paths_two_two():
    q = P.build_quiver(2, 2)
    zero_blocks = []
    for s in q.vertices:
        for t in q.vertices:
            for p in paths_of_length_two(q, s, t):
                if not P.rho_of_path(p):
                    zero_blocks.append((s, t))
    assert sorted(zero_blocks) == sorted(
        [
            ("v^^v", "v^^v"),
            ("v^^v", "^^vv"),
            ("^vv^", "^vv^"),
            ("^vv^", "^^vv"),
            ("^v^v", "^v^v"),
            ("^^vv", "v^^v"),
            ("^^vv", "^vv^"),
            ("^^vv", "^^vv"),
        ]
    )


def _pentagon_pairs(m, n):
    """Pairs (exchange of inner, exchange of outer) over all directly
    nested cup pairs: the only two-step spans with three parallel paths."""
    pairs = set()
    for kappa in comb.enumerate_weights(m, n):
        cups = comb.cup_matching(kappa).cups
        for inner in cups:
            for outer in cups:
                if not comb.is_nested(inner, outer):
                    continue
                if any(
                    comb.is_nested(inner, mid) and comb.is_nested(mid, outer)
                    for mid in cups
                ):
                    continue
                lo = comb.exchange_pair(kappa, inner)
                hi = comb.exchange_pair(kappa, outer)
                pairs.add((lo, hi))
                pairs.add((hi, lo))
    return pairs


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_parallel_path_counts(m, n):
    q = P.build_quiver(m, n)
    three = set()
    for s in q.vertices:
        for t in q.vertices:
            if s == t:
                continue
            k = len(paths_of_length_two(q, s, t))
            assert k <= 3
            if k == 3:
                three.add((s, t))
    assert three == _pentagon_pairs(m, n)


def test_parallel_paths_agree_in_the_algebra():
    q = P.build_quiver(2, 2)
    for s in q.vertices:
        for t in q.vertices:
            if s == t:
                continue
            paths = paths_of_length_two(q, s, t)
            if len(paths) >= 2:
                images = [P.rho_of_path(p) for p in paths]
                assert all(img == images[0] for img in images[1:])
                assert images[0]


def test_quiver_dot_output():
    dot = P.quiver_dot(P.build_quiver(1, 2))
    assert dot.startswith("digraph quiver {")
    assert '"v^^" -> "^v^" [label="x:v^^->^v^"];' in dot
    assert '"^v^" -> "v^^" [label="y:^v^->v^^"];' in dot


def test_relations_json_integer_rows():
    data = P.relations_json(P.relations_K(2, 2))
    assert all(block["rows"] for block in data)
    flat = [x for block in data for row in block["rows"] for x in row]
    assert all(isinstance(x, int) for x in flat)
    by_block = {(b["source"], b["target"]): b for b in data}
    assert by_block[("v^^v", "^^vv")]["rows"] == [[1]]
    assert by_block[("vv^^", "v^^v")]["rows"] == [[1, -1]]


def test_relations_hold_no_diagram_product():
    # each product of the relations is taken once, so none is memoised
    alg.multiply_diagrams.cache_clear()
    relations = P.relations_K.__wrapped__(3, 2)
    assert alg.multiply_diagrams.cache_info().currsize == 0
    assert relations == P.relations_K(3, 2)
