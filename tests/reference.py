"""Reference counts and enumerations that the tests compare the
library against.

None of them is read by the library or the CLI: each recomputes, by a
route of its own, a figure that a certificate or an index gives.
"""

from __future__ import annotations

from arcdual.combinatorics import (
    DOWN,
    UP,
    cup_matching,
    exchange_pair,
    is_left_of,
    is_nested,
    weight_type,
)
from arcdual.rewrite import Path, is_irreducible


def lowest_weight(m: int, n: int) -> str:
    return DOWN * m + UP * n


def highest_weight(m: int, n: int) -> str:
    return UP * n + DOWN * m


def basis_counts(basis) -> dict[tuple[str, str, int], int]:
    """The number of paths of an `IrreducibleBasis` per (start, end,
    length), nonzero counts only, read off every tree node by node."""
    counts = {}
    for source, tree in basis.trees.items():
        counts[source, source, 0] = 1
        levels, targets = tree.levels, tree.targets
        for length in range(1, len(levels) - 1):
            for arrow in tree.arrows[levels[length] : levels[length + 1]]:
                key = (source, targets[arrow], length)
                counts[key] = counts.get(key, 0) + 1
    return counts


def reference_tree(system, source: str, max_len: int):
    """The levels, parents and arrows of `rewrite.irreducible_tree` as
    lists, built without its extension tables: every irreducible path
    is extended by every arrow out of its end, in name order, and kept
    when the whole word is irreducible."""
    ident = {name: i for i, name in enumerate(sorted(system.quiver.by_name))}
    levels, parents, arrows = [0, 1], [0], [0]
    level = [(0, Path(source, (), source))]
    for _ in range(max_len):
        grown = []
        for node, p in level:
            for a in sorted(system.quiver.out[p.end], key=lambda a: a.name):
                word = Path(source, p.arrows + (a.name,), a.target)
                if is_irreducible(word, system):
                    grown.append((len(parents), word))
                    parents.append(node)
                    arrows.append(ident[a.name])
        if not grown:
            break
        levels.append(len(parents))
        level = grown
    return levels, parents, arrows


def ascending_irr_count(lam: str, mu: str, k: int) -> int:
    """Ascending irreducible paths of length k, counted directly.

    A path is reducible exactly when some exchanged cup survives a
    stretch of earlier levels and fails, somewhere in that stretch, to
    lie left of or enclose the cup exchanged there.  The count uses
    only this criterion, no rewrite rules.
    """
    if weight_type(lam) != weight_type(mu):
        raise ValueError(f"weights {lam!r} and {mu!r} have different types")
    if k == 0:
        return 1 if lam == mu else 0
    count = 0
    stack = [((lam,), ())]
    while stack:
        ws, cs = stack.pop()
        w = ws[-1]
        for c in cup_matching(w).cups:
            ok = True
            for back in range(1, len(ws)):
                if c not in cup_matching(ws[-1 - back]).cups:
                    break
                earlier = cs[-back]
                if not (is_left_of(c, earlier) or is_nested(earlier, c)):
                    ok = False
                    break
            if not ok:
                continue
            nxt = exchange_pair(w, c)
            if len(cs) + 1 == k:
                if nxt == mu:
                    count += 1
            else:
                stack.append((ws + (nxt,), cs + (c,)))
    return count
