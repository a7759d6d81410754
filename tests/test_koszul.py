"""Dual presentation: orthogonal relations, reduction system, KL grading."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arcdual import cli
from arcdual import combinatorics as comb
from arcdual import koszul as K
from arcdual import rewrite as rw
from arcdual.errors import CertificationError
from arcdual.presentation import build_quiver, paths_of_length_two, relations_K
from arcdual.rewrite import (
    ReductionSystem,
    irreducible_paths_from,
    make_path,
    make_rule,
    normal_form,
    path_key,
)
from test_rewrite import A, RULES_22, path


# ---------------------------------------------------------------------------
# orthogonal relations


def _block_vector(block, terms):
    vec = [Fraction(0)] * len(block.paths)
    index = {(a.name, b.name): i for i, (a, b) in enumerate(block.paths)}
    for pair, coeff in terms.items():
        vec[index[(A[pair[0]], A[pair[1]])]] = Fraction(coeff)
    return vec


def _in_rows(block, terms):
    from arcdual import linalg

    reduced, pivots = linalg.rref([list(r) for r in block.rows])
    return linalg.in_span(_block_vector(block, terms), reduced, pivots)


@pytest.fixture(scope="module")
def dual22():
    return K.dual_relations(2, 2)


def test_dual_blocks_have_complementary_dimensions(dual22):
    plain = relations_K(2, 2)
    for b in plain.blocks:
        dual_block = dual22.block(b.target, b.source)
        assert dual_block is not None
        assert len(dual_block.rows) + len(b.rows) == len(b.paths)


def test_dual_monomial_zero(dual22):
    block = dual22.block("vv^^", "^^vv")
    assert len(block.paths) == 1
    assert block.rows == ((Fraction(1),),)


def test_dual_vertex_relation_is_dualised(dual22):
    block = dual22.block("^v^v", "^v^v")
    assert _in_rows(block, {("y11", "x11"): 1, ("x21", "y21"): 1, ("x12", "y12"): 1})


def test_dual_square_anticommutativity(dual22):
    block = dual22.block("v^v^", "^v^v")
    assert _in_rows(block, {("y31", "y12"): 1, ("y22", "y21"): 1, ("x32", "y2"): 1})
    assert not _in_rows(block, {("y31", "y12"): 1, ("y22", "y21"): -1, ("x32", "y2"): -1})


def test_orthogonal_relations_rejects_dual_input(dual22):
    with pytest.raises(ValueError):
        K.orthogonal_relations(dual22)


@pytest.mark.parametrize("m,n", [(1, 1), (1, 3), (2, 2), (3, 2)])
def test_dual_relations_are_orthogonal_blockwise(m, n):
    plain = relations_K(m, n)
    dual = K.dual_relations(m, n)
    qbar = build_quiver(m, n, dual=True)
    for b in plain.blocks:
        d = dual.block(b.target, b.source)
        dual_paths = paths_of_length_two(qbar, b.target, b.source)
        col = {p: i for i, p in enumerate(dual_paths)}
        for row in b.rows:
            for drow in d.rows:
                acc = Fraction(0)
                for coeff, (a1, a2) in zip(row, b.paths):
                    from arcdual.presentation import dual_arrow

                    j = col[(dual_arrow(a2), dual_arrow(a1))]
                    acc += coeff * drow[j]
                assert acc == 0


# ---------------------------------------------------------------------------
# the reduction system for (2,2), rule by rule


@pytest.fixture(scope="module")
def sys22():
    return K.reduction_system(2, 2)


def test_rules_22_verbatim(sys22):
    got = {
        r.lhs.arrows: {p.arrows: c for p, c in r.rhs} for r in sys22.rules
    }
    expected = {}
    for lhs, rhs in RULES_22.items():
        expected[tuple(A[s] for s in lhs)] = {
            tuple(A[s] for s in term): Fraction(c) for term, c in rhs.items()
        }
    assert got == expected


def test_rules_22_tags(sys22):
    tags = {}
    for r in sys22.rules:
        tags[r.tag] = tags.get(r.tag, 0) + 1
    assert tags == {"I": 13, "II": 2, "III": 2}
    by_lhs = {r.lhs.arrows: r.tag for r in sys22.rules}
    assert by_lhs[(A["y2"], A["y11"])] == "II"
    assert by_lhs[(A["x11"], A["x2"])] == "II"
    assert by_lhs[(A["y31"], A["y12"])] == "III"
    assert by_lhs[(A["x12"], A["x31"])] == "III"


def test_peak_rule_count_is_sum_of_squared_lower_degrees(sys22):
    quiver = build_quiver(2, 2, dual=True)
    expected = 0
    for v in quiver.vertices:
        lower = sum(1 for a in quiver.out[v] if a.kind == "xbar")
        expected += lower * lower
    assert sum(1 for r in sys22.rules if r.tag == "I") == expected


def test_phi_of_routes_to_the_rule(sys22):
    lhs = K.TaggedLhs(path("y21", "x2"), "I")
    phi = K.phi_of(lhs)
    assert phi == {path("x22", "x32"): Fraction(-1)}
    with pytest.raises(ValueError):
        K.phi_of(K.TaggedLhs(path("x22", "x32"), "I"))


# ---------------------------------------------------------------------------
# one-row types collapse to the zig-zag system


@pytest.mark.parametrize("m,n", [(1, 1), (4, 1), (1, 4)])
def test_one_row_system_is_the_zigzag_one(m, n):
    # The quiver is a height-ordered chain; every rule is an up-down
    # peak pushed one step down, except at the bottom where it is zero.
    system = K.reduction_system(m, n)
    chain = sorted(comb.enumerate_weights(m, n), key=comb.height)
    expected = {}
    for j in range(len(chain) - 1):
        lhs = (f"ybar:{chain[j]}->{chain[j + 1]}", f"xbar:{chain[j + 1]}->{chain[j]}")
        if j == 0:
            expected[lhs] = {}
        else:
            alt = (
                f"xbar:{chain[j]}->{chain[j - 1]}",
                f"ybar:{chain[j - 1]}->{chain[j]}",
            )
            expected[lhs] = {alt: Fraction(-1)}
    got = {
        r.lhs.arrows: {p.arrows: c for p, c in r.rhs} for r in system.rules
    }
    assert got == expected
    assert all(r.tag == "I" for r in system.rules)


# ---------------------------------------------------------------------------
# left-hand side families


@pytest.mark.parametrize(
    "m,n,quartic",
    [(2, 2, 0), (3, 2, 0), (4, 2, 0), (1, 4, 0), (2, 3, 2), (3, 3, 4), (2, 4, 6)],
)
def test_quartic_family_presence(m, n, quartic):
    S = K.build_S(m, n)
    assert sum(1 for s in S if s.tag == "IV") == quartic


def test_cubic_rule_for_two_rows_of_three(sample_types=None):
    system = K.reduction_system(2, 3)
    cubic = [r for r in system.rules if r.tag == "IV"]
    assert len(cubic) == 2
    qbar = system.quiver
    asc = make_path(
        qbar,
        [
            "ybar:vv^^^->^v^v^",
            "ybar:^v^v^->^v^^v",
            "ybar:^v^^v->^^v^v",
        ],
    )
    alt = make_path(
        qbar,
        [
            "ybar:vv^^^->v^v^^",
            "ybar:v^v^^->^vv^^",
            "ybar:^vv^^->^^v^v",
        ],
    )
    by_lhs = {r.lhs: r for r in cubic}
    assert by_lhs[asc].rhs_comb() == {alt: Fraction(1)}
    desc = make_path(
        qbar,
        [
            "xbar:^^v^v->^v^^v",
            "xbar:^v^^v->^v^v^",
            "xbar:^v^v^->vv^^^",
        ],
    )
    alt_desc = make_path(
        qbar,
        [
            "xbar:^^v^v->^vv^^",
            "xbar:^vv^^->v^v^^",
            "xbar:v^v^^->vv^^^",
        ],
    )
    assert by_lhs[desc].rhs_comb() == {alt_desc: Fraction(1)}


def test_cubic_rule_without_detour():
    # A reserved cup with another circle around it keeps the straight
    # alternate; the exchanged pair never splits the enclosing cup.
    system = K.reduction_system(3, 4)
    qbar = system.quiver
    lhs = make_path(
        qbar,
        [
            "ybar:vvv^^^^->^vv^^v^",
            "ybar:^vv^^v^->^vv^^^v",
            "ybar:^vv^^^v->^v^v^^v",
        ],
    )
    alt = make_path(
        qbar,
        [
            "ybar:vvv^^^^->vv^v^^^",
            "ybar:vv^v^^^->^v^v^v^",
            "ybar:^v^v^v^->^v^v^^v",
        ],
    )
    rule = system.rule_for(lhs.arrows)
    assert rule.tag == "IV"
    assert rule.rhs_comb() == {alt: Fraction(1)}


def test_cubic_lhs_never_contains_shorter_lhs():
    for m, n in [(2, 3), (3, 3), (2, 4)]:
        system = K.reduction_system(m, n)
        short = {r.lhs.arrows for r in system.rules if r.tag != "IV"}
        for r in system.rules:
            if r.tag != "IV":
                continue
            arrows = r.lhs.arrows
            for i in range(len(arrows) - 1):
                assert arrows[i : i + 2] not in short


# ---------------------------------------------------------------------------
# Kazhdan-Lusztig polynomials


def test_kl_fixtures_two_two():
    assert K.kl_poly("vv^^", "^v^v").coefficients == (0, 1, 0, 1)
    assert K.kl_poly("vv^^", "^^vv").coefficients == (0, 0, 0, 0, 1)
    assert K.kl_poly("v^v^", "^v^v").coefficients == (0, 0, 1)
    assert K.kl_poly("v^v^", "^^vv").coefficients == (0, 0, 0, 1)
    assert K.kl_poly("v^", "^v").coefficients == (0, 1)
    assert str(K.kl_poly("vv^^", "^v^v")) == "q + q^3"


def test_kl_column_sums_two_two():
    ws = comb.enumerate_weights(2, 2)
    sums = [sum(K.kl_poly(kappa, lam).at_one() for lam in ws) for kappa in ws]
    assert sums == [7, 5, 3, 3, 2, 1]


def test_kl_triangular_and_normalised():
    for lam in comb.enumerate_weights(2, 2):
        assert K.kl_poly(lam, lam).coefficients == (1,)
        for mu in comb.enumerate_weights(2, 2):
            if lam != mu and comb.height(lam) >= comb.height(mu):
                assert K.kl_poly(lam, mu).coefficients == ()


def test_kl_rejects_mixed_types():
    with pytest.raises(ValueError):
        K.kl_poly("v^", "^^vv")


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (3, 2), (2, 3)])
def test_kl_counts_ascending_irreducible_paths(m, n):
    ws = comb.enumerate_weights(m, n)
    for lam in ws:
        for mu in ws:
            poly = K.kl_poly(lam, mu)
            for k in range(m * n + 2):
                assert poly.coefficient(k) == K.ascending_irr_count(lam, mu, k)


@given(st.data())
def test_kl_degree_and_constant_bounds(data):
    m, n = data.draw(st.sampled_from([(1, 3), (2, 2), (2, 3), (3, 2)]))
    ws = comb.enumerate_weights(m, n)
    lam = data.draw(st.sampled_from(ws))
    mu = data.draw(st.sampled_from(ws))
    poly = K.kl_poly(lam, mu)
    assert len(poly.coefficients) <= m * n + 1
    assert poly.coefficient(0) in (0, 1)
    assert all(c >= 0 for c in poly.coefficients)
    assert poly.coefficient(0) == (1 if lam == mu else 0)


# ---------------------------------------------------------------------------
# certification of the full system


@pytest.mark.parametrize(
    "m,n,dim",
    [(1, 1, 5), (1, 4, 55), (2, 2, 97), (3, 2, 431), (2, 3, 431), (3, 3, 3775)],
)
def test_certify_dual_system(m, n, dim):
    report = K.certify_dual_system(m, n)
    assert report.ok
    assert report.diamond.ok
    assert report.dimension == dim
    assert report.mismatches == ()


@pytest.mark.parametrize(
    "m,n,buckets",
    [(2, 2, 324), (3, 2, 1300), (2, 3, 1300), (3, 3, 7600)],
)
def test_certify_graded_dimensions(m, n, buckets):
    # degree-by-degree block dimensions against products of KL columns;
    # this pins every homogeneous component, not only the totals
    report = K.certify_graded_dimensions(m, n)
    assert report.ok
    assert report.pairs_checked == len(comb.enumerate_weights(m, n)) ** 2
    assert report.buckets_checked == buckets
    assert report.mismatches == ()


def test_irreducible_basis_buckets_the_enumeration(sys22):
    basis = K.irreducible_basis(2, 2)
    for (start, end, length), bucket in basis.items():
        assert bucket == tuple(sorted(bucket, key=path_key))
        assert all((p.start, p.end, len(p)) == (start, end, length) for p in bucket)
    flat = sorted((p for bucket in basis.values() for p in bucket), key=path_key)
    direct = sorted(
        (
            p
            for v in sys22.quiver.vertices
            for p in irreducible_paths_from(sys22, v, 8)
        ),
        key=path_key,
    )
    assert flat == direct
    assert len(flat) == 97


def test_irreducible_basis_certifies_completeness(monkeypatch, sys22):
    # without this peak rule the enumeration runs past the top length 2mn
    dropped = ("ybar:^v^v->^^vv", "xbar:^^vv->^v^v")
    rules = [r for r in sys22.rules if r.lhs.arrows != dropped]
    assert len(rules) == len(sys22.rules) - 1
    broken = ReductionSystem(sys22.quiver, rules)
    monkeypatch.setattr(K, "reduction_system", lambda m, n: broken)
    with pytest.raises(
        CertificationError, match="irreducible path above the expected top length"
    ) as info:
        K.irreducible_basis.__wrapped__(2, 2)
    assert info.value.witness["m"] == info.value.witness["n"] == 2


def test_certificates_report_a_missing_basis_path(monkeypatch):
    full = K.irreducible_basis(2, 2)
    key = max(full, key=lambda k: (len(full[k]), k))
    start, end, length = key
    want = len(full[key])
    assert want > 1
    block = sum(len(b) for (s, e, _), b in full.items() if (s, e) == (start, end))
    short = dict(full)
    short[key] = full[key][1:]
    monkeypatch.setattr(K, "irreducible_basis", lambda m, n: short)

    dual = K.certify_dual_system(2, 2)
    assert not dual.ok
    assert dual.diamond.ok
    assert dual.dimension == 96
    assert dual.mismatches == ((start, end, block - 1, block),)

    graded = K.certify_graded_dimensions(2, 2)
    assert not graded.ok
    assert graded.mismatches == ((start, end, length, want - 1, want),)


def test_verify_enumerates_the_basis_once_per_vertex(monkeypatch, capsys):
    calls = []
    original = rw.irreducible_paths_from

    def counting(system, source, max_len):
        calls.append(source)
        return original(system, source, max_len)

    monkeypatch.setattr(rw, "irreducible_paths_from", counting)
    monkeypatch.setattr(K, "irreducible_paths_from", counting)
    K.irreducible_basis.cache_clear()
    assert cli.main(["verify", "4", "3"]) == 0
    capsys.readouterr()
    assert len(calls) == len(set(calls)) == len(comb.enumerate_weights(4, 3)) == 35


def test_certify_catches_a_corrupted_sign(sys22):
    rules = []
    for r in sys22.rules:
        if r.lhs.arrows == (A["y2"], A["x21"]):
            flipped = {p: -c for p, c in r.rhs}
            rules.append(make_rule(r.lhs, flipped, tag=r.tag))
        else:
            rules.append(r)
    broken = ReductionSystem(sys22.quiver, rules)
    from arcdual.rewrite import check_diamond

    assert not check_diamond(broken).ok


def test_top_block_is_one_dimensional():
    top = comb.highest_weight(2, 2)
    paths = K.irreducible_basis(2, 2)[(top, top, 8)]
    assert len(paths) == 1
    arrows = paths[0].arrows
    assert all(a.startswith("xbar:") for a in arrows[:4])
    assert all(a.startswith("ybar:") for a in arrows[4:])


def test_paths_beyond_twice_the_grading_vanish(sys22):
    qbar = sys22.quiver
    top = comb.highest_weight(2, 2)
    long_path = K.irreducible_basis(2, 2)[(top, top, 8)][0]
    for arrow in qbar.out[long_path.end]:
        extended = make_path(qbar, list(long_path.arrows) + [arrow.name])
        assert normal_form(extended, sys22) == {}


# ---------------------------------------------------------------------------
# staircase chart and the long relations


def test_staircase_chart_two_two():
    chart = K.staircase_chart(2, 2)
    assert [chart.sigma(k) for k in range(5)] == [
        "^^vv",
        "^v^v",
        "v^^v",
        "v^v^",
        "vv^^",
    ]
    assert chart.xbar(0).name == A["x11"]
    assert chart.xbar(1).name == A["x21"]
    assert chart.xbar(2).name == A["x22"]
    assert chart.xbar(3).name == A["x32"]
    assert chart.xbar1p(1).name == A["x12"]
    assert chart.xbar1(2).name == A["x31"]
    assert chart.xbar2(3).name == A["x2"]
    assert chart.xbar0(1).name == A["x12"]
    assert chart.ybar_prime().name == A["y31"]


def test_staircase_chart_rejects_one_row():
    with pytest.raises(ValueError):
        K.StaircaseChart(1, 3)


@pytest.mark.parametrize("m,n,count", [(2, 2, 13), (3, 2, 21), (3, 3, 31), (4, 2, 29)])
def test_long_relations(m, n, count):
    report = K.verify_long_relations(m, n)
    assert report.ok, report.failures
    assert report.identities_checked == count


def test_long_relations_need_wide_types():
    with pytest.raises(ValueError):
        K.verify_long_relations(2, 3)


# ---------------------------------------------------------------------------
# JSON view


def test_reduction_system_json_shape(sys22):
    data = K.reduction_system_json(sys22)
    assert len(data) == 17
    zero = [d for d in data if d["lhs"] == [A["y2"], A["y11"]]]
    assert zero == [{"lhs": [A["y2"], A["y11"]], "tag": "II", "rhs": []}]
    for d in data:
        for term in d["rhs"]:
            assert isinstance(term["coeff"], str)
