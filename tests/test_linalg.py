"""Exact linear algebra: fixtures plus randomized algebraic properties."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arcdual import linalg
from reference import rref

F = Fraction


def mat(rows):
    return [[F(x) for x in row] for row in rows]


def sparse(rows):
    """Dense rows as sparse vectors keyed by column index."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


entries = st.builds(
    F, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=3)
)


@st.composite
def matrices(draw, max_rows=5, max_cols=5):
    ncols = draw(st.integers(min_value=1, max_value=max_cols))
    nrows = draw(st.integers(min_value=0, max_value=max_rows))
    return [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]


def test_exact_is_an_int_exactly_when_integral():
    for value, expected in ((F(4, 2), 2), (-3, -3), (F(0), 0), ("6/3", 2)):
        assert type(linalg.exact(value)) is int and linalg.exact(value) == expected
    for value in (F(1, 2), F(-4, 6), "2/3"):
        assert type(linalg.exact(value)) is F and linalg.exact(value) == F(value)


def test_rref_fixture_dependent_rows():
    reduced, pivots = rref(mat([[1, 2], [2, 4]]))
    assert reduced == mat([[1, 2]])
    assert pivots == [0]


def test_rref_fixture_invertible():
    reduced, pivots = rref(mat([[0, 1], [1, 1]]))
    assert reduced == mat([[1, 0], [0, 1]])
    assert pivots == [0, 1]


def test_rref_empty():
    assert rref([]) == ([], [])


def test_nullspace_fixture():
    basis = linalg.nullspace(sparse(mat([[1, 1, 0], [0, 0, 1]])), 3)
    assert basis == [mat([[-1, 1, 0]])[0]]


def test_nullspace_of_no_rows_is_full():
    basis = linalg.nullspace([], 3)
    assert basis == [
        mat([[1, 0, 0]])[0],
        mat([[0, 1, 0]])[0],
        mat([[0, 0, 1]])[0],
    ]


def test_nullspace_rejects_keys_outside_the_columns():
    with pytest.raises(AssertionError):
        linalg.nullspace([{3: 1}], 3)


@given(matrices())
def test_nullspace_vectors_are_killed(rows):
    ncols = len(rows[0]) if rows else 3
    for vec in linalg.nullspace(sparse(rows), ncols):
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


@given(matrices())
def test_rank_nullity(rows):
    ncols = len(rows[0]) if rows else 3
    assert linalg.rank(rows) + len(linalg.nullspace(sparse(rows), ncols)) == ncols


@given(matrices())
def test_rref_idempotent(rows):
    reduced, pivots = rref(rows)
    assert rref(reduced) == (reduced, pivots)


@given(matrices())
def test_rref_preserves_row_space(rows):
    reduced, pivots = rref(rows)
    assert rref(rows + reduced) == (reduced, pivots)


@given(matrices())
def test_rref_characterisation(rows):
    reduced, pivots = rref(rows)
    assert pivots == sorted(set(pivots))
    for row, p in zip(reduced, pivots):
        assert row[p] == 1
        assert not any(row[:p])
        for other in reduced:
            if other is not row:
                assert other[p] == 0
    assert all(isinstance(x, F) for row in reduced for x in row)


@given(matrices().flatmap(lambda rows: st.tuples(st.just(rows), st.permutations(rows))))
def test_echelon_ignores_vector_order(pair):
    rows, shuffled = pair
    assert linalg.echelon(sparse(shuffled)) == linalg.echelon(sparse(rows))


def test_echelon_fixture_labelled_keys():
    vectors = [{("a", 1): F(2), ("b", 0): F(4)}, {("a", 1): F(1), ("c", 2): F(1)}]
    assert linalg.echelon(vectors) == {
        ("a", 1): {("c", 2): F(1)},
        ("b", 0): {("c", 2): F(-1, 2)},
    }
    assert linalg.echelon([{}, {"x": F(0)}]) == {}


def _fraction_echelon(vectors) -> dict:
    """Reference for `linalg.echelon`: the same loop in Fraction arithmetic."""

    def subtract(target, factor, source):
        for k, c in source.items():
            value = target.get(k, F(0)) - factor * c
            if value:
                target[k] = value
            elif k in target:
                del target[k]

    pivots: dict = {}
    for vec in vectors:
        work = {k: v for k, v in vec.items() if v}
        for key in work.keys() & pivots.keys():
            subtract(work, work.pop(key), pivots[key])
        if not work:
            continue
        key = min(work)
        factor = F(work.pop(key))
        tail = {k: c / factor for k, c in work.items()}
        for ptail in pivots.values():
            if key in ptail:
                subtract(ptail, ptail.pop(key), tail)
        pivots[key] = tail
    return pivots


big_numbers = st.integers(min_value=-(10**6), max_value=10**6)
sparse_vectors = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=3), st.sampled_from("abc")),
    st.one_of(
        big_numbers, st.builds(F, big_numbers, st.integers(min_value=1, max_value=7))
    ),
    max_size=6,
)


@st.composite
def vector_lists(draw):
    vectors = draw(st.lists(sparse_vectors, max_size=8))
    if vectors:
        picked = draw(st.lists(st.sampled_from(vectors), max_size=3))
        for vec in picked:
            scale = draw(st.sampled_from([1, -2, F(3, 7)]))
            vectors.append({k: scale * v for k, v in vec.items()})
    vectors += draw(st.lists(st.sampled_from([{}, {(0, "a"): 0}, {(1, "b"): F(0)}])))
    return draw(st.permutations(vectors))


def assert_echelon_matches_reference(vectors):
    before = [dict(vec) for vec in vectors]
    result = linalg.echelon(vectors)
    assert result == _fraction_echelon(vectors)
    assert list(result) == sorted(result)
    assert all(type(v) is F for tail in result.values() for v in tail.values())
    assert linalg.sparse_rank(vectors) == len(result)
    assert vectors == before


@given(vector_lists())
def test_echelon_matches_fraction_reference(vectors):
    assert_echelon_matches_reference(vectors)


def test_echelon_fixture_non_unit_pivot():
    # the second vector reduces to lead -2; clearing against it scales the
    # first row, and back-substituting the third vector's pivot leaves the
    # first two rows with content 2
    vectors = [{0: 1, 1: 1, 2: 1}, {0: 1, 1: -1, 3: 1}, {1: 1, 3: 1}]
    assert linalg.echelon(vectors) == {0: {3: F(2)}, 1: {3: F(1)}, 2: {3: F(-3)}}
    assert_echelon_matches_reference(vectors)


def test_echelon_fixture_empty_zero_and_nonzero_vectors():
    # empty and all-zero vectors are dropped before elimination, wherever
    # they stand among the nonzero ones
    vectors = [
        {},
        {"y": 2, "z": F(1, 2)},
        {"x": F(0)},
        {"x": 0, "y": F(0)},
        {"x": F(1, 3), "z": 1},
        {},
        {"x": 1, "y": 6, "z": F(9, 2)},
    ]
    assert linalg.echelon(vectors) == {"x": {"z": F(3)}, "y": {"z": F(1, 4)}}
    assert linalg.sparse_rank(vectors) == 2
    assert_echelon_matches_reference(vectors)
    assert linalg.echelon([{}, {"x": F(0)}, {}]) == {}
    assert linalg.sparse_rank([{"x": 0}, {}]) == 0


@given(st.lists(sparse_vectors, max_size=8))
def test_sparse_rank_equals_rank_of_transpose(vectors):
    # row rank equals column rank; this does not lean on the uniqueness
    # of the reduced form, so it checks the elimination order on its own
    transpose: dict = {}
    for i, vec in enumerate(vectors):
        for key, value in vec.items():
            transpose.setdefault(key, {})[(i, "row")] = value
    assert linalg.sparse_rank(vectors) == linalg.sparse_rank(transpose.values())


@given(matrices())
def test_rows_lie_in_own_span(rows):
    # membership: adding a vector in the span does not raise the rank
    reduced, pivots = rref(rows)
    for row in sparse(rows):
        assert linalg.sparse_rank([*sparse(reduced), row]) == len(pivots)


def test_first_nonzero_product_fixture():
    rows = sparse(mat([[1, 0, 1], [0, 1, 0]]))
    cols = sparse(mat([[1, 0, -1], [0, 0, 1], [0, 3, 0]]))
    assert linalg.first_nonzero_product(rows, cols) == (0, 1)
    assert linalg.first_nonzero_product(rows, cols[:1]) is None
    assert linalg.first_nonzero_product(rows, cols[2:]) == (1, 0)
    assert linalg.first_nonzero_product([], cols) is None


@given(matrices(), st.data())
def test_first_nonzero_product_matches_dense(rows, data):
    ncols = len(rows[0]) if rows else 3
    cols = data.draw(
        st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=4)
    )
    dense = next(
        (
            (i, j)
            for j, col in enumerate(cols)
            for i, row in enumerate(rows)
            if sum(a * b for a, b in zip(row, col))
        ),
        None,
    )
    assert linalg.first_nonzero_product(sparse(rows), sparse(cols)) == dense


def test_span_membership_negative():
    reduced, pivots = rref(mat([[1, 1, 0]]))
    assert linalg.sparse_rank([*sparse(reduced), {2: F(1)}]) > len(pivots)


def test_primitive_integer_vector_fixtures():
    assert linalg.primitive_integer_vector([F(1, 2), F(-1, 3)]) == [3, -2]
    assert linalg.primitive_integer_vector([F(-2, 3), F(4, 3)]) == [1, -2]
    assert linalg.primitive_integer_vector([F(0), F(0)]) == [0, 0]


@given(st.lists(entries, min_size=1, max_size=6), entries.filter(bool))
def test_primitive_integer_vector_scale_invariant(vec, scale):
    assert linalg.primitive_integer_vector(
        [scale * x for x in vec]
    ) == linalg.primitive_integer_vector(vec)


@given(st.lists(entries, min_size=1, max_size=6))
def test_primitive_integer_vector_is_primitive(vec):
    from math import gcd

    ints = linalg.primitive_integer_vector(vec)
    if any(ints):
        assert gcd(*(abs(x) for x in ints)) == 1
        assert next(x for x in ints if x) > 0
