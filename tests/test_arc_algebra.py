from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcdual import arc_algebra as alg
from arcdual import combinatorics as comb
from arcdual.arc_algebra import ArcDiagram, InvalidDiagram
from reference import reference_classify_gluing


def basis_diagrams(m, n):
    return st.sampled_from(alg.enumerate_basis(m, n))


@st.composite
def stacked_diagrams(draw, m, n, count=2):
    """count basis diagrams, each stacking on top of the one before, so
    that every consecutive product glues along a common weight."""
    chain = [draw(basis_diagrams(m, n))]
    while len(chain) < count:
        below = chain[-1].cap_weight
        above = [b for b in alg.enumerate_basis(m, n) if b.cup_weight == below]
        chain.append(draw(st.sampled_from(above)))
    return tuple(chain)


def as_element(d):
    return {d: Fraction(1)}


def test_graded_dimension_type_1_2():
    assert alg.graded_dimension(1, 2) == {0: 3, 1: 4, 2: 2}
    assert alg.dimension(1, 2) == 9


def test_dimension_formulas_small():
    for l in range(1, 13):
        assert alg.dimension(1, l) == alg.dimension(l, 1) == 4 * l + 1
        assert alg.dimension(2, l) == alg.dimension(l, 2) == 8 * l * l + 14 * l - 13
    assert alg.dimension(2, 2) == 47


def _splits(max_points):
    return [(m, t - m) for t in range(max_points + 1) for m in range(t + 1)]


def test_graded_dimension_counts_the_enumerated_basis():
    for m, n in _splits(8):
        histogram = Counter(alg.degree(d) for d in alg.enumerate_basis(m, n))
        assert alg.graded_dimension(m, n) == dict(sorted(histogram.items())), (m, n)
        assert alg.dimension(m, n) == len(alg.enumerate_basis(m, n)), (m, n)


@pytest.mark.parametrize("m, n", [(7, 6), (7, 7)])
def test_graded_dimension_counts_the_orientation_table(m, n):
    # beyond enumeration: graded_dimension and dimension count straight
    # from _orientations, while the table is the other reader of that rule
    histogram = Counter()
    for entries in alg._orientation_table(m, n).values():
        poly = Counter(cw for _, cw in entries)
        for ca, na in poly.items():
            for cb, nb in poly.items():
                histogram[ca + cb] += na * nb
    assert alg.graded_dimension(m, n) == dict(sorted(histogram.items()))
    assert alg.dimension(m, n) == alg.dimension(n, m) == sum(histogram.values())


def test_block_dimensions_count_the_enumerated_basis():
    # the low-degree blocks verify_rho compares, without building diagrams
    for m, n in _splits(7):
        for top in (0, 1, 2):
            enumerated = Counter(
                (alg.degree(d), d.cup_weight, d.cap_weight)
                for d in alg.enumerate_basis(m, n)
                if alg.degree(d) <= top
            )
            assert alg.block_dimensions(m, n, top) == dict(enumerated), (m, n, top)


def test_oriented_shapes_match_the_gluing_conditions():
    for m, n in _splits(8):
        shapes = comb.enumerate_weights(m, n)
        for lam in shapes:
            brute = tuple(a for a in shapes if not alg._gluing_fault(a, lam))
            assert alg.oriented_shapes(lam) == brute, lam


def test_dimension_symmetry():
    for m, n in [(1, 2), (2, 3), (1, 3)]:
        assert alg.dimension(m, n) == alg.dimension(n, m)


def test_degree_zero_diagrams_are_idempotents():
    for m, n in [(1, 1), (1, 2), (2, 2)]:
        zero_degree = [d for d in alg.enumerate_basis(m, n) if alg.degree(d) == 0]
        expected = [alg.idempotent(w) for w in comb.enumerate_weights(m, n)]
        assert sorted(zero_degree, key=alg.diagram_sort_key) == sorted(
            expected, key=alg.diagram_sort_key
        )


def test_rejected_gluings_carry_condition():
    assert alg.classify_gluing("^^v", "^^v", "v^^") == 1
    assert alg.classify_gluing("^^v", "v^^", "v^^") == 2
    assert alg.classify_gluing("^^v", "^v^", "^^v") == 2
    with pytest.raises(InvalidDiagram) as info:
        alg.make_arc_diagram("^^v", "^^v", "v^^")
    assert info.value.condition == 1
    with pytest.raises(InvalidDiagram) as info:
        alg.make_arc_diagram("^^v", "^v^", "^^v")
    assert info.value.condition == 2


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 3)])
def test_classify_gluing_matches_the_two_walk_reference(m, n):
    weights = comb.enumerate_weights(m, n)
    found = Counter()
    for alpha in weights:
        for lam in weights:
            for beta in weights:
                condition = alg.classify_gluing(alpha, lam, beta)
                assert condition == reference_classify_gluing(alpha, lam, beta)
                found[condition] += 1
    assert set(found) == {0, 1, 2}
    with pytest.raises(ValueError, match="not all of one type"):
        alg.classify_gluing(weights[0], weights[0], "v" + weights[0])


def test_large_gluing_fixture():
    # 15 points, one ray below, three rays above, six clockwise arcs
    alpha = "v^vv^^vvv^^vv^^"
    lam = "v^v^v^v^v^v^^vv"
    beta = "vvvv^^v^v^^^^vv"
    d = alg.make_arc_diagram(alpha, lam, beta)
    assert alg.degree(d) == 6
    assert comb.cup_matching(alpha).rays == (6,)
    assert comb.cup_matching(beta).rays == (12, 13, 14)


def test_idempotents_multiply_orthogonally():
    weights = comb.enumerate_weights(1, 2)
    for v in weights:
        for w in weights:
            product = alg.multiply(
                as_element(alg.idempotent(v)), as_element(alg.idempotent(w))
            )
            if v == w:
                assert product == {alg.idempotent(v): Fraction(1)}
            else:
                assert product == {}


def test_unit_element():
    for m, n in [(1, 2), (2, 2)]:
        one = alg.unit(m, n)
        for d in alg.enumerate_basis(m, n):
            x = as_element(d)
            assert alg.multiply(one, x) == x
            assert alg.multiply(x, one) == x


def test_golden_product_merge():
    a = ArcDiagram("v^^v^v", "^v^v^v", "^v^v^v")
    b = ArcDiagram("^v^v^v", "^v^^vv", "^vvv^^")
    assert alg.degree(a) == 1 and alg.degree(b) == 3
    product = alg.multiply(as_element(a), as_element(b))
    assert product == {ArcDiagram("v^^v^v", "^v^^vv", "^vvv^^"): Fraction(1)}


def test_golden_product_split():
    c = ArcDiagram("v^v^v^", "v^v^v^", "^v^v^v")
    d = ArcDiagram("^v^v^v", "v^v^v^", "v^v^v^")
    assert alg.degree(c) == 2 and alg.degree(d) == 2
    product = alg.multiply(as_element(c), as_element(d))
    assert product == {
        ArcDiagram("v^v^v^", "v^^v^v", "v^v^v^"): Fraction(1),
        ArcDiagram("v^v^v^", "^vv^^v", "v^v^v^"): Fraction(1),
        ArcDiagram("v^v^v^", "^v^vv^", "v^v^v^"): Fraction(1),
    }


def test_degree_additivity_exhaustive_1_2():
    basis = alg.enumerate_basis(1, 2)
    for a in basis:
        for b in basis:
            for d, coeff in alg.multiply_diagrams(a, b):
                assert coeff != 0
                assert alg.degree(d) == alg.degree(a) + alg.degree(b)


def test_product_coefficients_are_ints_2_2():
    basis = alg.enumerate_basis(2, 2)
    for a in basis:
        for b in basis:
            assert all(type(c) is int for _, c in alg.multiply_diagrams(a, b))


def test_associativity_exhaustive_1_1():
    basis = alg.enumerate_basis(1, 1)
    for a in basis:
        for b in basis:
            ab = dict(alg.multiply_diagrams(a, b))
            for c in basis:
                bc = dict(alg.multiply_diagrams(b, c))
                left = alg.multiply(ab, as_element(c))
                right = alg.multiply(as_element(a), bc)
                assert left == right


# Independent draws rarely compose, and a product that vanishes on both
# sides checks nothing; the zero product is covered exhaustively at (1, 1).
@given(stacked_diagrams(2, 2, count=3))
def test_associativity_random_2_2(abc):
    a, b, c = abc
    left = alg.multiply(dict(alg.multiply_diagrams(a, b)), as_element(c))
    right = alg.multiply(as_element(a), dict(alg.multiply_diagrams(b, c)))
    assert left == right


@given(stacked_diagrams(2, 2))
def test_involution_is_antihomomorphism(ab_pair):
    a, b = ab_pair
    ab = dict(alg.multiply_diagrams(a, b))
    left = alg.involution(ab)
    right = alg.multiply(
        as_element(alg.involution_diagram(b)), as_element(alg.involution_diagram(a))
    )
    assert left == right


def _random_admissible_order(cups, rng):
    remaining = list(cups)
    order = []
    while remaining:
        admissible = [
            p
            for p in remaining
            if not any(comb.is_nested(p, q) for q in remaining if q != p)
        ]
        pick = rng.choice(admissible)
        remaining.remove(pick)
        order.append(pick)
    return order


# (3, 3) glues along up to three cups, nested or side by side; (2, 4)
# keeps two rays through every glue weight, so lines meet and reconnect.
@pytest.mark.parametrize("m,n", [(1, 3), (2, 2), (3, 3), (2, 4)])
@settings(max_examples=80)
@given(data=st.data(), rng=st.randoms(use_true_random=False))
def test_order_independence(m, n, data, rng):
    a, b = data.draw(stacked_diagrams(m, n))
    cups = comb.cup_matching(a.cap_weight).cups
    order = _random_admissible_order(cups, rng)
    assert alg._run_surgery(a, b, order) == dict(alg.multiply_diagrams(a, b))


@given(stacked_diagrams(2, 2))
def test_product_lands_in_correct_block(ab_pair):
    a, b = ab_pair
    for d, _ in alg.multiply_diagrams(a, b):
        assert d.cup_weight == a.cup_weight
        assert d.cap_weight == b.cap_weight
