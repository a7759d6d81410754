import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arcdual import combinatorics as comb
from arcdual.errors import CapacityError
from reference import highest_weight, lowest_weight


def weights(max_m=5, max_n=5):
    """Strategy producing a random weight of bounded type."""

    @st.composite
    def build(draw):
        m = draw(st.integers(0, max_m))
        n = draw(st.integers(0, max_n))
        if m + n == 0:
            n = 1
        marks = [comb.DOWN] * m + [comb.UP] * n
        return "".join(draw(st.permutations(marks)))

    return build()


def test_enumerate_small_fixture():
    assert comb.enumerate_weights(1, 2) == ("v^^", "^v^", "^^v")
    assert comb.enumerate_weights(0, 0) == ("",)


def test_height_fixtures():
    assert comb.height("^^^vv") == 6
    assert comb.height("^v^v^") == 3
    assert comb.height("v^^") == 0
    assert comb.height("^^v") == 2


def test_extremal_weights():
    for m, n in [(1, 1), (2, 2), (3, 2), (3, 3)]:
        ws = comb.enumerate_weights(m, n)
        assert ws[0] == lowest_weight(m, n)
        assert ws[-1] == highest_weight(m, n)
        assert comb.height(ws[0]) == 0
        assert comb.height(ws[-1]) == m * n


def test_nested_cup_fixture():
    d = comb.cup_matching("vv^^")
    assert d.cups == ((0, 3), (1, 2)) or d.cups == ((1, 2), (0, 3))
    assert d.cups == tuple(sorted(d.cups))
    assert d.rays == ()
    assert comb.defect("vv^^") == 2


def test_exchange_height_deltas():
    assert comb.exchange_pair("vv^^", (1, 2)) == "v^v^"
    assert comb.height("v^v^") == 1
    assert comb.exchange_pair("vv^^", (0, 3)) == "^v^v"
    assert comb.height("^v^v") == 3
    with pytest.raises(ValueError):
        comb.exchange_pair("vv^^", (0, 1))


def test_capacity_guard(monkeypatch):
    monkeypatch.delenv(comb.CAPACITY_ENV, raising=False)
    with pytest.raises(CapacityError):
        comb.enumerate_weights(8, 7)
    monkeypatch.setenv(comb.CAPACITY_ENV, "15")
    assert len(comb.enumerate_weights(8, 7)) == math.comb(15, 7)
    monkeypatch.setenv(comb.CAPACITY_ENV, "zero")
    with pytest.raises(CapacityError):
        comb.enumerate_weights(1, 1)


def test_enumeration_counts_and_order():
    for m in range(0, 5):
        for n in range(0, 5):
            ws = comb.enumerate_weights(m, n)
            assert len(ws) == math.comb(m + n, m)
            assert len(set(ws)) == len(ws)
            keys = [comb.sort_key(w) for w in ws]
            assert keys == sorted(keys)


@given(weights())
def test_matching_partitions_positions(w):
    d = comb.cup_matching(w)
    m, n = comb.weight_type(w)
    covered = sorted([p for cup in d.cups for p in cup] + list(d.rays))
    assert covered == list(range(m + n))
    for i, j in d.cups:
        assert w[i] == comb.DOWN and w[j] == comb.UP
    ray_marks = "".join(w[p] for p in d.rays)
    assert ray_marks == comb.UP * ray_marks.count(comb.UP) + comb.DOWN * ray_marks.count(
        comb.DOWN
    )


@given(weights())
def test_cups_never_cross(w):
    cups = comb.cup_matching(w).cups
    for p in cups:
        for q in cups:
            if p == q:
                continue
            assert (
                comb.is_nested(p, q)
                or comb.is_nested(q, p)
                or comb.is_left_of(p, q)
                or comb.is_left_of(q, p)
            )


@given(weights())
def test_exchange_raises_height_by_odd_amount(w):
    cups = comb.cup_matching(w).cups
    for cup in cups:
        out = comb.exchange_pair(w, cup)
        assert comb.weight_type(out) == comb.weight_type(w)
        delta = comb.height(out) - comb.height(w)
        assert delta == 2 * sum(1 for other in cups if comb.is_nested(other, cup)) + 1
        assert delta % 2 == 1


@given(weights())
def test_exchanges_are_injective(w):
    results = [out for _, out in comb.upper_neighbours(w)]
    assert len(results) == comb.defect(w)
    assert len(set(results)) == len(results)
