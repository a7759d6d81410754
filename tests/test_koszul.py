"""Dual presentation: orthogonal relations, reduction system, KL grading."""

import gc
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arcdual import cli
from arcdual import combinatorics as comb
from arcdual import koszul as K
from arcdual import rewrite as rw
from arcdual.errors import CertificationError
from arcdual.presentation import build_quiver, relations_K
from arcdual.rewrite import (
    ReductionSystem,
    irreducible_paths_from,
    make_path,
    make_rule,
    normal_form,
    path_key,
)
from reference import ascending_irr_count, basis_counts, highest_weight, paths_of_length_two
from test_rewrite import A, RULES_22


# ---------------------------------------------------------------------------
# orthogonal relations


def _block_vector(block, terms):
    index = {(a.name, b.name): i for i, (a, b) in enumerate(block.paths)}
    return {index[(A[a], A[b])]: Fraction(coeff) for (a, b), coeff in terms.items()}


def _in_rows(block, terms):
    from arcdual import linalg

    rows = [dict(enumerate(r)) for r in block.rows]
    return linalg.sparse_rank([*rows, _block_vector(block, terms)]) == linalg.sparse_rank(rows)


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


@pytest.mark.parametrize("m,n", [(2, 2), (3, 3)])
def test_rule_and_normal_form_coefficients_are_ints(m, n):
    system = K.reduction_system(m, n)
    coeffs = [c for r in system.rules for _, c in r.rhs]
    assert coeffs and all(type(c) is int for c in coeffs)
    for overlap in rw.enumerate_overlaps(system):
        nf = normal_form({overlap.word: 2}, system)
        assert all(type(c) is int for c in nf.values()), overlap.word


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
    system = K.reduction_system(m, n)
    assert sum(1 for r in system.rules if r.tag == "IV") == quartic


@pytest.mark.parametrize("m,n", [(2, 3), (3, 3)])
def test_staircase_rule_with_wrong_sign_is_rejected(monkeypatch, m, n):
    # flipping the alternate's sign takes lhs - rhs out of the ideal
    original = K._cubic_alternate

    def flipped(vs):
        alt, sign = original(vs)
        return alt, -sign

    monkeypatch.setattr(K, "_cubic_alternate", flipped)
    with pytest.raises(CertificationError, match="not congruent to its alternate"):
        K.reduction_system.__wrapped__(m, n)


def test_designated_path_off_the_pivots_is_rejected(monkeypatch):
    # the one dual relation of the (v^^v, v^^v) block is the peak path
    # alone; designating the down-up path instead puts a zero column
    # first, so the pivot falls on the path left free
    peak = make_path(build_quiver(2, 2, dual=True), ["ybar:v^^v->^v^v", "xbar:^v^v->v^^v"])
    valley = make_path(build_quiver(2, 2, dual=True), ["xbar:v^^v->v^v^", "ybar:v^v^->v^^v"])
    original = K.build_S(2, 2)
    assert K.dual_relations(2, 2).block("v^^v", "v^^v").rows == ((0, 1),)
    swapped = tuple(s._replace(path=valley) if s.path == peak else s for s in original)
    assert swapped != original
    monkeypatch.setattr(K, "build_S", lambda m, n: swapped)
    with pytest.raises(CertificationError, match="designated paths are not the pivots") as exc:
        K.reduction_system.__wrapped__(2, 2)
    assert exc.value.witness == {
        "block": ("v^^v", "v^^v"),
        "designated": [repr(valley)],
        "pivots": [repr(peak)],
    }


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
                assert poly.coefficient(k) == ascending_irr_count(lam, mu, k)


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
    for (start, end, length), count in basis_counts(2, 2).items():
        bucket = basis.bucket(start, end, length)
        assert len(bucket) == count
        assert bucket == tuple(sorted(bucket, key=path_key))
        assert all((p.start, p.end, len(p)) == (start, end, length) for p in bucket)
    flat = sorted((p for key in basis_counts(2, 2) for p in basis.bucket(*key)), key=path_key)
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


@pytest.mark.parametrize("m,n", [(3, 3), (2, 4)])
def test_irreducible_paths_come_in_path_key_order(m, n):
    system = K.reduction_system(m, n)
    for v in system.quiver.vertices:
        paths = list(irreducible_paths_from(system, v, 2 * m * n + 1))
        assert paths == sorted(paths, key=path_key)
    basis = K.irreducible_basis(m, n)
    for key in basis_counts(m, n):
        bucket = basis.bucket(*key)
        assert list(bucket) == sorted(bucket, key=path_key)


def test_deformed_system_paths_come_in_path_key_order():
    from arcdual import hochschild as hh

    base = K.reduction_system(3, 3)
    deformed = base.with_deformation(hh.extract_cocycle(3, 3, 12))
    assert any(r.rhs_t for r in deformed.rules)
    for v in deformed.quiver.vertices:
        paths = irreducible_paths_from(deformed, v, 19)
        assert list(paths) == sorted(paths, key=path_key)
        assert paths == irreducible_paths_from(base, v, 19)


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


def _reference_basis(system, top):
    """Irreducible paths with no follow table and no parent chain: every
    irreducible word is extended by every arrow, and the whole word is
    kept when it is irreducible."""
    found = []
    for source in system.quiver.vertices:
        level = [rw.Path(source, (), source)]
        for _ in range(top + 2):
            found += level
            words = (
                rw.Path(source, p.arrows + (a.name,), a.target)
                for p in level
                for a in system.quiver.out[p.end]
            )
            level = [w for w in words if rw.is_irreducible(w, system)]
    return found


@pytest.mark.parametrize(
    "m,n", [(m, t - m) for t in range(2, 8) for m in range(1, t)], ids=str
)
def test_basis_index_matches_a_reference_enumeration(m, n):
    top = 2 * m * n
    reference = _reference_basis(K.reduction_system(m, n), top)
    assert max(len(p) for p in reference) <= top
    buckets = {}
    for p in reference:
        buckets.setdefault((p.start, p.end, len(p)), []).append(p)
    basis = K.irreducible_basis(m, n)
    assert _merged_counts(basis) == {key: len(b) for key, b in buckets.items()}
    assert basis.dimension() == len(reference)
    for key, bucket in buckets.items():
        assert basis.bucket(*key) == tuple(sorted(bucket, key=path_key)), key


@pytest.mark.parametrize("m,n", [(4, 3), (3, 4)])
def test_source_counts_and_rule_buckets_match_a_reference_enumeration(m, n):
    # every bucket of every rule's block, at every length up to one past
    # the top, including the empty ones
    system = K.reduction_system(m, n)
    top = 2 * m * n
    buckets = {}
    for p in _reference_basis(system, top):
        buckets.setdefault((p.start, p.end, len(p)), []).append(p)
    basis = K.irreducible_basis(m, n)
    for source in basis.sources:
        want = {(end, length): len(b) for (start, end, length), b in buckets.items()
                if start == source}
        assert basis.source_counts(source) == want, source
    for start, end in {(r.lhs.start, r.lhs.end) for r in system.rules}:
        for length in range(top + 2):
            want = tuple(sorted(buckets.get((start, end, length), ()), key=path_key))
            assert basis.bucket(start, end, length) == want, (start, end, length)


def _merged_counts(basis):
    """Every source's counts as one dict keyed (start, end, length)."""
    return {
        (source, end, length): count
        for source in basis.sources
        for (end, length), count in basis.source_counts(source).items()
    }


def test_source_counts_add_up_to_the_global_counts():
    basis = K.irreducible_basis(3, 3)
    merged = _merged_counts(basis)
    assert merged == basis_counts(3, 3)
    assert sum(merged.values()) == basis.dimension()


def test_basis_index_is_compact_and_builds_only_the_bucket_read(monkeypatch):
    # (4, 3) has 22,679 irreducible paths; held as Path objects they took
    # about 5 MB, as lists of ints 0.69 MB, and as arrays 0.23 MB; counted
    # on the automaton, which holds no path, about 0.11 MB.  The automaton
    # is the index of the kernel, built with the system, so it is not
    # part of what is measured here
    K.reduction_system(4, 3)
    tracemalloc.start()
    try:
        basis = K.irreducible_basis.__wrapped__(4, 3)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert basis.dimension() == 22679
    assert held < 400_000

    made = []
    original = rw.Path

    def counting(*fields):
        made.append(fields)
        return original(*fields)

    monkeypatch.setattr(rw, "Path", counting)
    counts = basis_counts(4, 3)
    key = max(counts, key=lambda k: (counts[k], k))
    bucket = basis.bucket(*key)
    assert len(made) == len(bucket) == counts[key] > 1
    assert all((p.start, p.end, len(p)) == key for p in bucket)
    # the index keeps no copy: a second read builds the bucket again
    assert basis.bucket(*key) == bucket
    assert len(made) == 2 * len(bucket)


def test_certificates_report_a_missing_basis_path(monkeypatch):
    full = K.irreducible_basis(2, 2)
    counts = basis_counts(2, 2)
    key = max(counts, key=lambda k: (counts[k], k))
    start, end, length = key
    want = counts[key]
    assert want > 1

    class Short(K.IrreducibleBasis):
        def source_counts(self, source):
            found = super().source_counts(source)
            if source == start:
                found[end, length] -= 1
            return found

        def dimension(self):
            return sum(sum(self.source_counts(v).values()) for v in self.sources)

    short = Short(full.system, 2 * 2 * 2 + 1)
    monkeypatch.setattr(K, "irreducible_basis", lambda m, n: short)

    # the dual-system report is the diamond check plus the dimension;
    # only the graded certificate compares counts with KL
    dual = K.certify_dual_system(2, 2)
    assert dual.ok
    assert dual.diamond.ok
    assert dual.dimension == 96

    graded = K.certify_graded_dimensions(2, 2)
    assert not graded.ok
    assert graded.mismatches == ((start, end, length, want - 1, want),)


def _kl_lane_width(m, n):
    """The bit length of max_lam sum_kappa P_kappa,lam(1)^2, which bounds
    every expected count."""
    weights = comb.enumerate_weights(m, n)
    return max(
        sum(K.kl_poly(kappa, lam).at_one() ** 2 for kappa in weights) for lam in weights
    ).bit_length()


@pytest.mark.parametrize("m,n", [(2, 2), (3, 3)])
@pytest.mark.parametrize("shift,borrow", [(64, False), (64, True), ("kl", True)])
def test_graded_certificate_reports_a_count_wider_than_a_lane(monkeypatch, m, n, shift, borrow):
    # a count raised by 2**shift is wider than the lanes the KL side
    # needs; it must come back whole, with no carry into the next degree
    # of the same block.  With `borrow` the raised count is one degree
    # below (paths of one block all have one parity, so its true count
    # is 0) and one path is taken from the degree above: a lane of
    # exactly `shift` bits, 64 or the width the KL bound alone gives,
    # could not tell the two from the truth
    shift = _kl_lane_width(m, n) if shift == "kl" else shift
    full = K.irreducible_basis(m, n)
    counts = basis_counts(m, n)
    key = max(counts, key=lambda k: (counts[k], k))
    start, end, length = key
    want = counts[key]
    assert length >= 1 and (start, end, length - 1) not in counts
    raised = length - 1 if borrow else length

    class Wide(K.IrreducibleBasis):
        def source_counts(self, source):
            found = super().source_counts(source)
            if source == start:
                found[end, raised] = found.get((end, raised), 0) + (1 << shift)
                found[end, length] -= borrow
            return found

    wide = Wide(full.system, 2 * m * n + 1)
    monkeypatch.setattr(K, "irreducible_basis", lambda m, n: wide)
    graded = K.certify_graded_dimensions(m, n)
    assert not graded.ok
    if borrow:
        expected = ((start, end, raised, 1 << shift, 0), (start, end, length, want - 1, want))
    else:
        expected = ((start, end, length, want + (1 << shift), want),)
    assert graded.mismatches == expected
    assert graded.buckets_checked == len(comb.enumerate_weights(m, n)) ** 2 * (2 * m * n + 1)


def test_graded_certificate_reports_a_perturbed_kl_coefficient(monkeypatch):
    # P_top,top enters only the (top, top) block, and doubling its
    # constant term moves the degree-zero coefficient there from 1 to 4
    # warm the kl_poly cache first, so that the recursion behind the
    # other entries never calls the patched function
    assert K.certify_graded_dimensions(2, 2).ok
    top = highest_weight(2, 2)
    original = K.kl_poly

    def perturbed(lam, mu):
        if lam == mu == top:
            return K.KLPolynomial((2,))
        return original(lam, mu)

    monkeypatch.setattr(K, "kl_poly", perturbed)
    graded = K.certify_graded_dimensions(2, 2)
    assert not graded.ok
    assert graded.buckets_checked == 324
    assert graded.mismatches == ((top, top, 0, 1, 4),)
    assert K.certify_dual_system(2, 2).ok


def test_verify_builds_the_automaton_and_the_levels_once(monkeypatch, capsys):
    # the automaton of the left-hand sides is the index of the kernel
    kernels, bases = [], []
    build_kernel, build_basis = rw._Kernel, K.IrreducibleBasis

    def kernel(system):
        kernels.append(system)
        return build_kernel(system)

    class Counted(build_basis):
        def __init__(self, system, max_len):
            bases.append(max_len)
            super().__init__(system, max_len)

    system = K.reduction_system(4, 3)
    system.__dict__.pop("kernel", None)
    monkeypatch.setattr(rw, "_Kernel", kernel)
    monkeypatch.setattr(K, "IrreducibleBasis", Counted)
    K.irreducible_basis.cache_clear()
    assert cli.main(["verify", "4", "3"]) == 0
    capsys.readouterr()
    assert kernels == [system]
    assert bases == [2 * 4 * 3 + 1]


def test_verify_resolves_each_overlap_once(monkeypatch, capsys):
    # the diamond report and the HH^2 cocycle constraints read one
    # cached resolution: 414 overlaps at (4, 3), each resolved once
    calls = []
    original = rw.resolve_overlap

    def counting(overlap, system):
        calls.append(overlap)
        return original(overlap, system)

    monkeypatch.setattr(rw, "resolve_overlap", counting)
    monkeypatch.setattr(K, "resolve_overlap", counting)
    K.dual_resolution.cache_clear()
    assert cli.main(["verify", "4", "3"]) == 0
    capsys.readouterr()
    assert len(calls) == 414


def test_dual_resolution_holds_each_context_once():
    # (3, 4) resolves 526 overlaps by 4,008 rule applications, whose
    # contexts are only 306 distinct heads and 366 distinct tails: one
    # Path pair per application held 1.14 MB, each Path context once
    # 0.21 MB, and each arrow-id tuple once 0.18 MB
    K.reduction_system(3, 4)
    gc.collect()
    tracemalloc.start()
    try:
        diamond, applications = K.dual_resolution.__wrapped__(3, 4)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert diamond.ok
    assert diamond.overlaps_checked == len(applications) == 526
    assert held < 400_000
    contexts: dict = {}
    for events in applications:
        assert isinstance(events[0], str)
        assert len(events) % 4 == 1
        for context in events[3::4] + events[4::4]:
            assert type(context) is tuple
            assert all(type(a) is int for a in context)
            assert contexts.setdefault(context, context) is context
    assert not any(isinstance(x, rw.Path) for events in applications for x in events)
    assert sum(len(events) - 1 for events in applications) == 4 * 4008


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
    top = highest_weight(2, 2)
    paths = K.irreducible_basis(2, 2).bucket(top, top, 8)
    assert len(paths) == 1
    arrows = paths[0].arrows
    assert all(a.startswith("xbar:") for a in arrows[:4])
    assert all(a.startswith("ybar:") for a in arrows[4:])


def test_paths_beyond_twice_the_grading_vanish(sys22):
    qbar = sys22.quiver
    top = highest_weight(2, 2)
    long_path = K.irreducible_basis(2, 2).bucket(top, top, 8)[0]
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
