"""Path rewriting in a quiver algebra, with first-order deformations.

A reduction system is a finite set of rules lhs -> rhs where each lhs is
a path of length at least two, each rhs a rational combination of
parallel irreducible paths, and no lhs occurs inside another.  Rewriting
replaces the leftmost redex of a path, so the uniqueness of the matching
rule at a fixed position makes every normal-form computation
deterministic; confluence is exactly the resolvability of all overlap
ambiguities, checked by comparing the two one-step resolutions of every
overlap word.

Rules may carry a first-order part rhs_t.  Over the dual numbers
(t squared = 0) the rule lhs -> rhs + t * rhs_t acts on an overlap word
as follows.  `resolve_overlap` is the one place that resolves an
overlap: each branch applies its own rule once and reduces the result,
recording every rule application with its context (prefix, suffix) as
an `Event`.  The order-zero normal form is the plain reduction; the
order-one part is the sum of prefix * rhs_t * suffix over the events,
reduced with the plain rules only.  `diamond_failure` compares the two
branches' normal forms; since the events do not depend on rhs_t,
anything linear in the deformation (the Hochschild cocycle constraints)
is read off the events of one undeformed run (`koszul.dual_resolution`).
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import FuelError
from .linalg import add_term, exact
from .presentation import Quiver

DEFAULT_FUEL = 10**6


class Path(NamedTuple):
    """Composable arrow sequence; length zero paths sit at a vertex.

    `len` counts arrows, so the inherited `_make` and `_replace`, which
    check the field count with `len`, must not be used."""

    start: str
    arrows: tuple[str, ...]
    end: str

    def __len__(self) -> int:
        return len(self.arrows)

    def __repr__(self):
        if not self.arrows:
            return f"<{self.start}>"
        return "<" + " ".join(self.arrows) + ">"


def path_key(p: Path):
    return (len(p.arrows), p.start, p.arrows)


def make_path(quiver: Quiver, arrows, start: str | None = None) -> Path:
    """Build a path from arrows or arrow names, checking composability."""
    named = [a if isinstance(a, str) else a.name for a in arrows]
    if not named:
        if start is None:
            raise ValueError("a length zero path needs its vertex")
        if start not in quiver.out:
            raise ValueError(f"unknown vertex {start!r}")
        return Path(start, (), start)
    resolved = []
    for name in named:
        arrow = quiver.by_name.get(name)
        if arrow is None:
            raise ValueError(f"unknown arrow {name!r}")
        resolved.append(arrow)
    for a, b in zip(resolved, resolved[1:]):
        if a.target != b.source:
            raise ValueError(f"{a.name} and {b.name} do not compose")
    if start is not None and start != resolved[0].source:
        raise ValueError(f"path starts at {resolved[0].source!r}, not {start!r}")
    return Path(resolved[0].source, tuple(named), resolved[-1].target)


def compose(p: Path, q: Path) -> Path:
    assert p.end == q.start, (p, q)
    return Path(p.start, p.arrows + q.arrows, q.end)


# Linear combinations are plain dicts Path -> exact rational without zero
# values: an int when the coefficient is integral, else a Fraction.
LinComb = dict
Coeff = int | Fraction


def scale_into(acc: LinComb, x: LinComb, factor: Coeff = 1) -> None:
    for path, coeff in x.items():
        add_term(acc, path, coeff * factor)


def as_lincomb(x) -> LinComb:
    """A path or {path: number} as a LinComb, coefficients normalised by
    `linalg.exact`."""
    if isinstance(x, Path):
        return {x: 1}
    return {p: exact(c) for p, c in x.items() if c}


def sorted_terms(x: LinComb):
    return tuple(sorted(x.items(), key=lambda it: path_key(it[0])))


class Rule(NamedTuple):
    lhs: Path
    rhs: tuple[tuple[Path, Coeff], ...]
    rhs_t: tuple[tuple[Path, Coeff], ...] = ()
    tag: str = ""

    def rhs_comb(self) -> LinComb:
        return {p: c for p, c in self.rhs}

    def rhs_t_comb(self) -> LinComb:
        return {p: c for p, c in self.rhs_t}


def make_rule(lhs: Path, rhs, rhs_t=None, tag: str = "") -> Rule:
    return Rule(
        lhs,
        sorted_terms(as_lincomb(rhs)),
        sorted_terms(as_lincomb(rhs_t)) if rhs_t is not None else (),
        tag,
    )


class ReductionSystem:
    """Validated rule set over a quiver; `by_lhs` maps each lhs arrow
    tuple to its rule, and `lhs_lengths` lists the lengths it holds."""

    def __init__(self, quiver: Quiver, rules):
        self.quiver = quiver
        self.rules = tuple(sorted(rules, key=lambda r: path_key(r.lhs)))
        self.by_lhs: dict[tuple[str, ...], Rule] = {}
        self.lhs_lengths = tuple(sorted({len(r.lhs) for r in self.rules}))
        self._validate()

    def _validate(self):
        for r in self.rules:
            if len(r.lhs) < 2:
                raise ValueError(f"lhs too short: {r.lhs!r}")
            if r.lhs.arrows in self.by_lhs:
                raise ValueError(f"duplicate lhs {r.lhs!r}")
            self.by_lhs[r.lhs.arrows] = r
            for part in (r.rhs, r.rhs_t):
                for p, _ in part:
                    if (p.start, p.end) != (r.lhs.start, r.lhs.end):
                        raise ValueError(f"{p!r} not parallel to lhs {r.lhs!r}")
        for r in self.rules:
            a = r.lhs.arrows
            segments = {a[i : i + k] for k in self.lhs_lengths
                        for i in range(len(a) - k + 1)}
            inner = [self.by_lhs[x] for x in segments - {a} if x in self.by_lhs]
            if inner:
                s = min(inner, key=lambda t: path_key(t.lhs))
                raise ValueError(f"lhs {s.lhs!r} occurs inside lhs {r.lhs!r}")
        for r in self.rules:
            for part in (r.rhs, r.rhs_t):
                for p, _ in part:
                    if leftmost_redex(p, self) is not None:
                        raise ValueError(f"reducible right hand side {p!r}")

    @cached_property
    def extension_tables(self) -> tuple:
        """What `irreducible_tree` extends paths with, built once: arrow
        names in name order and their targets; per vertex the indices of
        its arrows; per arrow the indices of the arrows that may follow it
        without completing a length-two left-hand side; and the longer
        left-hand sides by the index of their last arrow, each as the
        indices of the other arrows read backwards."""
        by_name = self.quiver.by_name
        names = tuple(sorted(by_name))
        ident = {name: i for i, name in enumerate(names)}
        targets = tuple(by_name[name].target for name in names)
        successors = {
            v: sorted(ident[a.name] for a in out) for v, out in self.quiver.out.items()
        }
        follow = [
            [b for b in successors[targets[a]] if (names[a], names[b]) not in self.by_lhs]
            for a in range(len(names))
        ]
        longer: dict[int, set] = {}
        for lhs in self.by_lhs:
            if len(lhs) > 2:
                back = tuple(ident[name] for name in reversed(lhs[:-1]))
                longer.setdefault(ident[lhs[-1]], set()).add(back)
        return names, targets, successors, follow, longer

    def rule_for(self, lhs_arrows: tuple[str, ...]) -> Rule:
        return self.by_lhs[lhs_arrows]

    def with_deformation(self, assignment) -> "ReductionSystem":
        """Copy with rhs_t set per rule; keys are rules or lhs arrow tuples.

        Raises ValueError naming any key that is no rule's left-hand side.
        """
        table = {}
        for key, value in assignment.items():
            arrows = key.lhs.arrows if isinstance(key, Rule) else tuple(key)
            table[arrows] = value
        unknown = sorted(table.keys() - {r.lhs.arrows for r in self.rules}, key=repr)
        if unknown:
            raise ValueError(f"not the left-hand side of any rule: {unknown!r}")
        rules = []
        for r in self.rules:
            if r.lhs.arrows in table:
                rules.append(make_rule(r.lhs, r.rhs_comb(), table[r.lhs.arrows], r.tag))
            else:
                rules.append(Rule(r.lhs, r.rhs, (), r.tag))
        return ReductionSystem(self.quiver, rules)

    def __repr__(self):
        return f"ReductionSystem({len(self.rules)} rules)"


def leftmost_redex(path: Path, system: ReductionSystem):
    """Position and rule of the first redex, or None. At most one rule
    can match at a fixed position since no lhs occurs inside another."""
    arrows = path.arrows
    n = len(arrows)
    by_lhs = system.by_lhs
    for i in range(n - 1):
        for k in system.lhs_lengths:
            if i + k > n:
                break
            rule = by_lhs.get(arrows[i : i + k])
            if rule is not None:
                return i, rule
    return None


def is_irreducible(path: Path, system: ReductionSystem) -> bool:
    return leftmost_redex(path, system) is None


class Event(NamedTuple):
    """One rule application with its context: the reduced term was
    coeff * prefix * lhs * suffix."""

    rule: Rule
    prefix: Path
    suffix: Path
    coeff: Coeff


class _Fuel:
    def __init__(self, amount: int):
        self.left = amount

    def burn(self, witness):
        if self.left <= 0:
            raise FuelError(
                "rewriting fuel exhausted", witness={"path": repr(witness)}
            )
        self.left -= 1


def _insert(acc: LinComb, prefix: Path, parts, suffix: Path, coeff: Coeff) -> None:
    """Add coeff * prefix * part * suffix for every term of parts."""
    for q, c in parts:
        add_term(
            acc,
            Path(prefix.start, prefix.arrows + q.arrows + suffix.arrows, suffix.end),
            coeff * c,
        )


def _reduce(work: LinComb, system: ReductionSystem, fuel: _Fuel, events=None):
    """Normal form of a LinComb, which is consumed."""
    out: LinComb = {}
    while work:
        path = min(work, key=path_key)
        coeff = work.pop(path)
        hit = leftmost_redex(path, system)
        if hit is None:
            add_term(out, path, coeff)
            continue
        fuel.burn(path)
        i, rule = hit
        k = len(rule.lhs.arrows)
        prefix = Path(path.start, path.arrows[:i], rule.lhs.start)
        suffix = Path(rule.lhs.end, path.arrows[i + k :], path.end)
        if events is not None:
            events.append(Event(rule, prefix, suffix, coeff))
        _insert(work, prefix, rule.rhs, suffix, coeff)
    return out


def normal_form(x, system: ReductionSystem, fuel: int = DEFAULT_FUEL) -> LinComb:
    """Reduce a path or combination to its normal form."""
    return _reduce(as_lincomb(x), system, _Fuel(fuel))


class Overlap(NamedTuple):
    """Word u*w*v where left.lhs = u*w and right.lhs = w*v, w nonempty."""

    left: Rule
    right: Rule
    shared: int
    word: Path


def enumerate_overlaps(system: ReductionSystem) -> tuple[Overlap, ...]:
    """Every overlap, stably sorted by word.  Rules are sorted by length
    first, so for one left rule and one word a longer shared part means a
    later right rule: the (left, shared, right) loop below yields equal
    words in (left, right, shared) rule order."""
    starts: dict[tuple[str, ...], list[Rule]] = {}
    for right in system.rules:
        ra = right.lhs.arrows
        for shared in range(1, len(ra)):
            starts.setdefault(ra[:shared], []).append(right)
    out = []
    for left in system.rules:
        la = left.lhs.arrows
        for shared in range(1, len(la)):
            for right in starts.get(la[len(la) - shared :], ()):
                ra = right.lhs.arrows
                word = Path(left.lhs.start, la + ra[shared:], right.lhs.end)
                out.append(Overlap(left, right, shared, word))
    out.sort(key=lambda o: path_key(o.word))
    return tuple(out)


class DiamondReport(NamedTuple):
    ok: bool
    overlaps_checked: int
    failures: tuple


class Branch(NamedTuple):
    """One resolution of an overlap word over the dual numbers.

    `events` are its rule applications in order, starting with the
    overlap's own rule at coefficient 1; `nf0` is the order-zero normal
    form, and `nf1` is the sum over events of coeff * prefix * rhs_t *
    suffix, reduced with the plain rules."""

    nf0: LinComb
    nf1: LinComb
    events: tuple[Event, ...]


def _resolve(first: Event, system: ReductionSystem, fuel: int) -> Branch:
    """Apply `first`, then reduce both orders on one fuel budget."""
    shared = _Fuel(fuel)
    events = [first]
    order_zero: LinComb = {}
    _insert(order_zero, first.prefix, first.rule.rhs, first.suffix, first.coeff)
    nf0 = _reduce(order_zero, system, shared, events)
    order_one: LinComb = {}
    for ev in events:
        _insert(order_one, ev.prefix, ev.rule.rhs_t, ev.suffix, ev.coeff)
    return Branch(nf0, _reduce(order_one, system, shared), tuple(events))


def resolve_overlap(
    overlap: Overlap, system: ReductionSystem, fuel: int = DEFAULT_FUEL
) -> tuple[Branch, Branch]:
    """Both one-step resolutions of the overlap word, fully reduced: the
    left rule applied with the tail as context, the right rule with the
    head.  Each branch has its own fuel budget."""
    word = overlap.word
    left, right = overlap.left, overlap.right
    tail = Path(left.lhs.end, word.arrows[len(left.lhs) :], word.end)
    head = Path(word.start, word.arrows[: len(word) - len(right.lhs)], right.lhs.start)
    no_head, no_tail = Path(word.start, (), word.start), Path(word.end, (), word.end)
    return (
        _resolve(Event(left, no_head, tail, 1), system, fuel),
        _resolve(Event(right, head, no_tail, 1), system, fuel),
    )


def diamond_failure(overlap: Overlap, left: Branch, right: Branch) -> dict | None:
    """None if both resolutions agree over the dual numbers, else a witness."""
    if left.nf0 == right.nf0 and left.nf1 == right.nf1:
        return None
    diff0, diff1 = dict(left.nf0), dict(left.nf1)
    scale_into(diff0, right.nf0, -1)
    scale_into(diff1, right.nf1, -1)
    return {
        "word": repr(overlap.word),
        "difference": {repr(p): str(c) for p, c in diff0.items()},
        "difference_t": {repr(p): str(c) for p, c in diff1.items()},
    }


def check_diamond(system: ReductionSystem, fuel: int = DEFAULT_FUEL) -> DiamondReport:
    """Resolve every overlap ambiguity two ways and compare normal forms.

    Rules with a deformation part are compared over the dual numbers, so
    the report also certifies a first-order deformation when present.
    """
    overlaps = enumerate_overlaps(system)
    found = (diamond_failure(o, *resolve_overlap(o, system, fuel)) for o in overlaps)
    failures = tuple(f for f in found if f is not None)
    return DiamondReport(not failures, len(overlaps), failures)


class PathTree:
    """The irreducible paths out of `source` as a prefix tree of integers.

    Node i is one path: `parents[i]` is the node of the path without its
    last arrow and `arrows[i]` that arrow, an index into `names` (every
    arrow name, in name order, with its target in `targets`).  Both are
    flat `array('I')`s, 4 bytes an entry, so a node costs 8 bytes.  Node
    0 is the length zero path; its entries are unused.  Nodes are
    numbered level by level, each level in path_key order: the paths of
    length L are the nodes from `levels[L]` up to `levels[L + 1]`.  Only
    the nonempty levels are held.  Paths are built only when read.
    """

    __slots__ = ("source", "names", "targets", "levels", "parents", "arrows")

    def __init__(self, source, names, targets, levels, parents, arrows):
        self.source = source
        self.names = names
        self.targets = targets
        self.levels = levels
        self.parents = parents
        self.arrows = arrows

    def end(self, node: int) -> str:
        return self.targets[self.arrows[node]] if node else self.source

    def path(self, node: int) -> Path:
        end = self.end(node)
        names, parents, arrows = self.names, self.parents, self.arrows
        back = []
        while node:
            back.append(names[arrows[node]])
            node = parents[node]
        return Path(self.source, tuple(reversed(back)), end)

    def bucket(self, end: str, length: int) -> tuple[Path, ...]:
        """The paths of the given length ending at `end`, in path_key order."""
        if not 0 <= length < len(self.levels) - 1:
            return ()
        nodes = range(self.levels[length], self.levels[length + 1])
        return tuple(self.path(i) for i in nodes if self.end(i) == end)

    def paths(self) -> tuple[Path, ...]:
        """Every path of the tree, node by node, so in path_key order."""
        return tuple(self.path(i) for i in range(len(self.parents)))


def _reads_back(words: set, parents: array, arrows: array, node: int, depth: int) -> bool:
    """Whether some word of `words` is the arrows read back from `node`
    along the parent chain, at most `depth` of them."""
    back = ()
    while node and len(back) < depth:
        back += (arrows[node],)
        node = parents[node]
        if back in words:
            return True
    return False


def irreducible_tree(system: ReductionSystem, source: str, max_len: int) -> PathTree:
    """The irreducible paths out of a vertex up to the given length.

    Built one length at a time: every prefix of an irreducible path is
    irreducible, so a path of the next length is an irreducible path
    extended by an arrow, and it is irreducible when no redex ends at
    that arrow.  Arrows that would complete a length-two redex are
    struck from the successor lists up front; a longer left-hand side is
    looked up on the arrows read back along the parent chain, only
    when the new arrow ends one.  Extending a level that is in path_key
    order node by node, each by its arrows in name order, keeps the next
    level in path_key order, so nothing is sorted.
    """
    names, targets, successors, follow, longer = system.extension_tables
    depth = max(system.lhs_lengths, default=2) - 1
    parents, arrows, levels = array("I", [0]), array("I", [0]), [0, 1]
    for _ in range(max_len):
        for node in range(levels[-2], levels[-1]):
            for b in follow[arrows[node]] if node else successors[source]:
                words = longer.get(b)
                if words and _reads_back(words, parents, arrows, node, depth):
                    continue
                parents.append(node)
                arrows.append(b)
        if len(parents) == levels[-1]:
            break
        levels.append(len(parents))
    return PathTree(source, names, targets, tuple(levels), parents, arrows)


def irreducible_paths_from(
    system: ReductionSystem, source: str, max_len: int
) -> tuple[Path, ...]:
    """All irreducible paths out of a vertex up to the given length,
    including the length zero path, in path_key order: the paths of
    `irreducible_tree`."""
    return irreducible_tree(system, source, max_len).paths()
