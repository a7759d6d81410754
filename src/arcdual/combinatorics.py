"""Weights, cup diagrams and exchange moves.

A weight of type (m, n) is a string over {'v', '^'} recording m down
marks 'v' and n up marks '^' on m + n points of a horizontal line.  The
height of a weight counts, over all down marks, the up marks strictly to
their left; it ranges from 0 (all downs before all ups) to m * n.

Matching 'v^' pairs recursively yields the cup diagram of a weight: each
matched pair becomes a cup, unmatched marks become downward rays.  Cups
never cross, so they carry a nesting forest.  Reversing the two marks
joined by a cup is the exchange move; exchanges generate the neighbour
graph on weights that underlies the quiver presentation downstream.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .errors import CapacityError

DOWN = "v"
UP = "^"
_MARKS = {DOWN, UP}

DEFAULT_CAPACITY = 14
CAPACITY_ENV = "ARCDUAL_CAPACITY"


def env_capacity(name: str, default: int) -> int:
    """A positive integer bound read from the environment variable
    `name`, or `default` when the variable is unset."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise CapacityError(f"{name} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise CapacityError(f"{name} must be positive, got {value}")
    return value


def capacity() -> int:
    """Enumeration capacity: the largest m + n enumerate_weights accepts."""
    return env_capacity(CAPACITY_ENV, DEFAULT_CAPACITY)


def check_capacity(total: int) -> None:
    cap = capacity()
    if total > cap:
        raise CapacityError(
            f"{total} points exceed the enumeration capacity {cap}; "
            f"set {CAPACITY_ENV} to raise the bound"
        )


def weight_type(w: str) -> tuple[int, int]:
    """Return (m, n): the number of down and up marks of the weight."""
    if not isinstance(w, str) or not set(w) <= _MARKS:
        raise ValueError(f"not a weight: {w!r}")
    m = w.count(DOWN)
    return m, len(w) - m


def height(w: str) -> int:
    total = 0
    ups = 0
    for c in w:
        if c == UP:
            ups += 1
        else:
            total += ups
    return total


def sort_key(w: str):
    """Canonical order on weights: height first, then left-to-right with
    'v' before '^'.  Comparing raw strings would order '^' before 'v'."""
    return height(w), tuple(0 if c == DOWN else 1 for c in w)


def vertex_order(w: str):
    """Sort key for weights and vertices: by height, then by name."""
    return (height(w), w)


def enumerate_weights(m: int, n: int) -> tuple[str, ...]:
    """All weights of type (m, n) in canonical order."""
    if m < 0 or n < 0:
        raise ValueError(f"weight type must be non-negative, got ({m}, {n})")
    check_capacity(m + n)
    return _enumerate_weights(m, n)


@lru_cache(maxsize=None)
def _enumerate_weights(m: int, n: int) -> tuple[str, ...]:
    out = []
    for ups in combinations(range(m + n), n):
        marks = [DOWN] * (m + n)
        for i in ups:
            marks[i] = UP
        out.append("".join(marks))
    out.sort(key=sort_key)
    return tuple(out)


class CupDiagram(NamedTuple):
    """Cups (left, right) sorted by left endpoint, plus downward rays."""

    cups: tuple[tuple[int, int], ...]
    rays: tuple[int, ...]


@lru_cache(maxsize=None)
def cup_matching(w: str) -> CupDiagram:
    """Match 'v^' pairs recursively; unmatched marks become rays.

    The matched pair (i, j) always has w[i] == 'v' and w[j] == '^'; the
    leftover rays read '^' * a + 'v' * b left to right.
    """
    weight_type(w)
    stack: list[int] = []
    cups: list[tuple[int, int]] = []
    up_rays: list[int] = []
    for i, c in enumerate(w):
        if c == DOWN:
            stack.append(i)
        elif stack:
            cups.append((stack.pop(), i))
        else:
            up_rays.append(i)
    cups.sort()
    return CupDiagram(tuple(cups), tuple(sorted(up_rays + stack)))


def defect(w: str) -> int:
    """Number of cups of the cup diagram of w (equivalently, of circles
    in the degree-zero diagram on w)."""
    return len(cup_matching(w).cups)


def exchange_pair(w: str, pair: tuple[int, int]) -> str:
    """Reverse the two marks joined by the given cup of w's cup diagram.

    Raises ValueError when the pair is not such a cup.  The height of the
    result is height(w) + 2k + 1 where k cups nest strictly inside.
    """
    pair = tuple(pair)
    if pair not in cup_matching(w).cups:
        raise ValueError(f"{pair} is not a cup of the cup diagram of {w!r}")
    i, j = pair
    marks = list(w)
    marks[i], marks[j] = UP, DOWN
    return "".join(marks)


def upper_neighbours(w: str) -> tuple[tuple[tuple[int, int], str], ...]:
    """All exchange moves out of w, as (cup, resulting weight) pairs."""
    return tuple((c, exchange_pair(w, c)) for c in cup_matching(w).cups)


def is_nested(inner: tuple[int, int], outer: tuple[int, int]) -> bool:
    """Strict containment of index intervals."""
    return outer[0] < inner[0] and inner[1] < outer[1]


def is_left_of(p: tuple[int, int], q: tuple[int, int]) -> bool:
    """Disjoint intervals with p entirely before q."""
    return p[1] < q[0]


def delete_positions(w: str, positions) -> str:
    drop = set(positions)
    return "".join(c for i, c in enumerate(w) if i not in drop)

