"""Path rewriting in a quiver algebra, with first-order deformations.

A reduction system is a finite set of rules lhs -> rhs where each lhs is
a path of length at least two, each rhs a rational combination of
parallel irreducible paths, and no lhs occurs inside another.  Rewriting
replaces the leftmost redex of a path, so the uniqueness of the matching
rule at a fixed position makes every normal-form computation
deterministic; confluence is exactly the resolvability of all overlap
ambiguities, checked by comparing the two one-step resolutions of every
overlap word.

Rewriting runs on integers.  Each system numbers its arrows in name
order (`ReductionSystem.kernel`), so a word is a tuple of arrow ids that
compares as the tuple of names, and a term is keyed by (length, start,
ids), which compares exactly as `path_key`: the work list is reduced
smallest key first without a key function.  The kernel holds one index
of the left-hand sides, an Aho-Corasick automaton on arrow ids, and
every search for a left-hand side reads it: the leftmost redex, the
check that no lhs occurs inside another, `rule_for` and the irreducible
paths.  The redex scan resumes: a term made by rewriting at position i
has no redex starting before i - (longest lhs - 1), since a redex
wholly inside the untouched prefix would have been found first.
`reduce_keys` is the one normal-form entry on integer keys;
`normal_form` is its wrapper on `Path`s.

Rules may carry a first-order part rhs_t.  Over the dual numbers
(t squared = 0) the rule lhs -> rhs + t * rhs_t acts on an overlap word
as follows.  `resolve_overlap` is the one place that resolves an
overlap: each branch applies its own rule once and reduces the result,
recording every rule application as (table entry, start, arrow ids of
the reduced term, position, coeff).  The order-zero normal form is the
plain reduction; the order-one part is the sum of prefix * rhs_t *
suffix over the applications, reduced with the plain rules only.
`diamond_failure` compares the branches' integer normal forms and
builds paths only for a failure's witness; `check_diamond` reads the
two.  Since the applications do not depend on rhs_t, anything linear
in the deformation (the Hochschild cocycle constraints) is read off the
applications of one undeformed run (`koszul.dual_resolution`).
"""

from __future__ import annotations

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
    """Validated rule set over a quiver; `lhs_lengths` lists the lengths
    of its left-hand sides, and `kernel` holds the rules on integers
    with the one index of their left-hand sides."""

    def __init__(self, quiver: Quiver, rules):
        self.quiver = quiver
        self.rules = tuple(sorted(rules, key=lambda r: path_key(r.lhs)))
        self.lhs_lengths = tuple(sorted({len(r.lhs) for r in self.rules}))
        self._validate()

    def _validate(self):
        seen = set()
        for r in self.rules:
            if len(r.lhs) < 2:
                raise ValueError(f"lhs too short: {r.lhs!r}")
            if r.lhs.arrows in seen:
                raise ValueError(f"duplicate lhs {r.lhs!r}")
            seen.add(r.lhs.arrows)
            for part in (r.rhs, r.rhs_t):
                for p, _ in part:
                    if (p.start, p.end) != (r.lhs.start, r.lhs.end):
                        raise ValueError(f"{p!r} not parallel to lhs {r.lhs!r}")
        kernel = self.kernel  # its index rejects a left-hand side inside another
        for r in self.rules:
            for part in (r.rhs, r.rhs_t):
                for p, _ in part:
                    if kernel.find(kernel.ids(p), 0) is not None:
                        raise ValueError(f"reducible right hand side {p!r}")

    @cached_property
    def kernel(self) -> "_Kernel":
        """The integer form of the rules and the index of their left-hand
        sides, built once; every search for a left-hand side reads it."""
        return _Kernel(self)

    def rule_for(self, lhs_arrows: tuple[str, ...]) -> Rule:
        """The rule with these left-hand side arrow names; KeyError if
        there is none."""
        kernel = self.kernel
        return kernel.table[tuple([kernel.ident[name] for name in lhs_arrows])][0]

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

    def at_parameter_one(self) -> "ReductionSystem":
        """Copy with each rule's deformation part merged into its
        right-hand side: the deformation at parameter t = 1."""
        rules = []
        for r in self.rules:
            merged: LinComb = {}
            for p, c in r.rhs + r.rhs_t:
                add_term(merged, p, c)
            rules.append(make_rule(r.lhs, merged, None, r.tag))
        return ReductionSystem(self.quiver, rules)

    def __repr__(self):
        return f"ReductionSystem({len(self.rules)} rules)"


class _Kernel:
    """A reduction system on integers, with the one index of its
    left-hand sides.

    Arrows are numbered in name order, so tuples of arrow ids compare
    as the tuples of their names, and a path is keyed by (length,
    start, arrow ids), which compares exactly as `path_key`.  `table`
    maps each left-hand side, as arrow ids, to (rule, its length, rhs,
    rhs_t) with the right-hand sides as (arrow ids, coeff) terms.
    `reach` is one less than the longest left-hand side.

    The index is the Aho-Corasick automaton of the left-hand sides.
    Its states are the words of one trie that holds every single arrow
    and every prefix of a left-hand side; reading an arrow moves to the
    longest suffix of the word read so far that is a state, and the
    suffix link of a state is its longest proper suffix that is one.
    Building it rejects a left-hand side inside another, so reading a
    word stops first at the end of its leftmost redex, in the state
    that is that redex: the states that are no left-hand side are live,
    and a path is irreducible exactly when reading it stays in them.
    The live states are numbered from 0 by (length, word), so state a
    is the single arrow a: `arrows[s]` is the last arrow of state s,
    `step[s]` maps each arrow that can follow it to the next live state
    or to the table entry of the redex that arrow ends, `follow[s]`
    holds its live successors in arrow order, and `starts[v]` the
    states of the arrows out of vertex v, in arrow order."""

    __slots__ = ("names", "targets", "ident", "table", "reach",
                 "arrows", "step", "follow", "starts")

    def __init__(self, system: "ReductionSystem"):
        by_name = system.quiver.by_name
        self.names = names = tuple(sorted(by_name))
        self.targets = tuple(by_name[name].target for name in names)
        self.ident = {name: i for i, name in enumerate(names)}
        self.table = table = {}
        for rule in system.rules:
            table[self.ids(rule.lhs)] = (rule, len(rule.lhs), self.terms(rule.rhs),
                                         self.terms(rule.rhs_t))
        self.reach = max(system.lhs_lengths, default=2) - 1
        trie = {()} | {(a,) for a in range(len(names))}
        trie |= {lhs[:k] for lhs in table for k in range(2, len(lhs) + 1)}

        def read(word):
            while word not in trie:
                word = word[1:]
            return word

        # the left-hand sides on the suffix-link chain of each state: those
        # of a left-hand side's prefixes, itself excluded, lie inside it
        chain = {(): ()}
        for word in sorted(trie, key=len)[1:]:
            chain[word] = ((word,) if word in table else ()) + chain[read(word[1:])]
        for lhs, (rule, *_) in table.items():
            inner = [table[w][0] for k in range(2, len(lhs) + 1) for w in chain[lhs[:k]]
                     if w != lhs]
            if inner:
                s = min(inner, key=lambda r: path_key(r.lhs))
                raise ValueError(f"lhs {s.lhs!r} occurs inside lhs {rule.lhs!r}")
        live = sorted(trie - table.keys() - {()}, key=lambda w: (len(w), w))
        number = {word: i for i, word in enumerate(live)}
        self.starts = {v: tuple(sorted(self.ident[a.name] for a in arrows))
                       for v, arrows in system.quiver.out.items()}
        self.arrows = tuple(word[-1] for word in live)
        self.step = tuple(
            {b: number[t] if (t := read(word + (b,))) in number else table[t]
             for b in self.starts[self.targets[word[-1]]]}
            for word in live
        )
        self.follow = tuple(tuple(t for t in step.values() if t.__class__ is int)
                            for step in self.step)

    def terms(self, part) -> tuple:
        return tuple((self.ids(p), c) for p, c in part)

    def ids(self, path: Path) -> tuple[int, ...]:
        ident = self.ident
        return tuple([ident[name] for name in path.arrows])

    def key(self, path: Path) -> tuple:
        return (len(path.arrows), path.start, self.ids(path))

    def path(self, key: tuple) -> Path:
        _, start, ids = key
        names = self.names
        return Path(
            start, tuple([names[i] for i in ids]), self.targets[ids[-1]] if ids else start
        )

    def find(self, ids: tuple, start: int):
        """The leftmost redex of a word of arrow ids that starts at or
        after position `start`, as (position, table entry), or None: the
        word is read from `start` until a step ends a left-hand side.
        Since no lhs occurs inside another, the redex that ends first
        also starts first, and it is the only one ending there."""
        if start < len(ids):
            step, s = self.step, ids[start]
            for j in range(start + 1, len(ids)):
                s = step[s][ids[j]]
                if s.__class__ is tuple:
                    return j + 1 - s[1], s
        return None


def leftmost_redex(path: Path, system: ReductionSystem):
    """Position and rule of the first redex, or None."""
    kernel = system.kernel
    hit = kernel.find(kernel.ids(path), 0)
    return None if hit is None else (hit[0], hit[1][0])


def is_irreducible(path: Path, system: ReductionSystem) -> bool:
    return leftmost_redex(path, system) is None


class _Fuel:
    """A budget of rewriting steps, shared by the reductions it is
    passed to; `_reduce` burns one unit per step."""

    def __init__(self, amount: int):
        self.left = amount


def _insert(work: dict, start: str, head: tuple, parts, tail: tuple, coeff, resume: int):
    """Add coeff * head * part * tail to the work of `_reduce` for every
    (arrow ids, c) term of parts, none with a redex before `resume`."""
    for q, c in parts:
        ids = head + q + tail
        key = (len(ids), start, ids)
        entry = work.get(key)
        if entry is None:
            work[key] = [coeff * c, resume]
            continue
        entry[0] += coeff * c
        if not entry[0]:
            del work[key]
        elif resume < entry[1]:
            entry[1] = resume


def _reduce(work: dict, kernel: _Kernel, fuel: _Fuel, events=None) -> dict:
    """Normal form of the work, which is consumed: {key: [coeff, resume]}
    with keys as `_Kernel.key` gives them, and no redex of a term before
    its resume position.  Returns {key: coeff}.  With `events`, appends
    (table entry, start, arrow ids, position, coeff) per rule
    application.

    A term made by rewriting at position i has no redex starting before
    i - reach: the rest of the word before i is untouched, and a redex
    lying wholly inside it would have been found first.  A term reached
    twice keeps the smaller resume position.  The terms are taken
    smallest key first, as `path_key` orders paths."""
    out: dict = {}
    find, reach = kernel.find, kernel.reach
    while work:
        key = min(work)
        coeff, resume = work.pop(key)
        _, start, ids = key
        hit = find(ids, resume)
        if hit is None:
            add_term(out, key, coeff)
            continue
        if fuel.left <= 0:
            raise FuelError(
                "rewriting fuel exhausted", witness={"path": repr(kernel.path(key))}
            )
        fuel.left -= 1
        i, entry = hit
        if events is not None:
            events.append((entry, start, ids, i, coeff))
        _insert(work, start, ids[:i], entry[2], ids[i + entry[1] :], coeff,
                i - reach if i > reach else 0)
    return out


def reduce_keys(system: ReductionSystem, terms: dict, fuel: int = DEFAULT_FUEL) -> dict:
    """The normal form of {key: coeff}, keys as `_Kernel.key` gives
    them, as {key: coeff}."""
    return _reduce({key: [c, 0] for key, c in terms.items()}, system.kernel, _Fuel(fuel))


def normal_form(x, system: ReductionSystem, fuel: int = DEFAULT_FUEL) -> LinComb:
    """Reduce a path or combination to its normal form: `reduce_keys`
    on the keys of its paths."""
    kernel = system.kernel
    out = reduce_keys(system, {kernel.key(p): c for p, c in as_lincomb(x).items()}, fuel)
    return {kernel.path(key): c for key, c in out.items()}


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


def _resolve(kernel: _Kernel, start: str, ids: tuple, i: int, rule: Rule, fuel: int):
    """Apply `rule` at position i of the word, then reduce both orders on
    one fuel budget.  Returns (nf0, nf1, events): the order-zero and
    order-one normal forms as {key: coeff}, and the rule applications in
    order as `_reduce` records them, the first being `rule` at i with
    coefficient 1.  The order-one part is formed from the events'
    integer contexts.  Only the rewriting after the first application
    is leftmost, so only its terms resume their redex scan."""
    shared = _Fuel(fuel)
    entry = kernel.table[kernel.ids(rule.lhs)]
    events = [(entry, start, ids, i, 1)]
    order_zero: dict = {}
    _insert(order_zero, start, ids[:i], entry[2], ids[i + entry[1] :], 1, 0)
    nf0 = _reduce(order_zero, kernel, shared, events)
    order_one: dict = {}
    reach = kernel.reach
    for n, (entry, start, ids, i, coeff) in enumerate(events):
        if entry[3]:
            resume = i - reach if n and i > reach else 0
            _insert(order_one, start, ids[:i], entry[3], ids[i + entry[1] :], coeff, resume)
    return nf0, _reduce(order_one, kernel, shared) if order_one else {}, events


def resolve_overlap(overlap: Overlap, system: ReductionSystem, fuel: int = DEFAULT_FUEL):
    """Both one-step resolutions of the overlap word, fully reduced: the
    left rule applied at its start, the right rule at its end.  Each
    branch is what `_resolve` returns, on its own fuel budget."""
    kernel = system.kernel
    word = overlap.word
    ids = kernel.ids(word)
    return (
        _resolve(kernel, word.start, ids, 0, overlap.left, fuel),
        _resolve(kernel, word.start, ids, len(ids) - len(overlap.right.lhs), overlap.right, fuel),
    )


def diamond_failure(overlap: Overlap, system: ReductionSystem, left, right) -> dict | None:
    """None if the two branches of `resolve_overlap` agree over the dual
    numbers, else a witness: the word and the differences of the normal
    forms, the only paths built."""
    if left[:2] == right[:2]:
        return None
    path = system.kernel.path
    diffs = []
    for mine, theirs in zip(left[:2], right[:2]):
        diff = dict(mine)
        scale_into(diff, theirs, -1)
        diffs.append({repr(path(key)): str(c) for key, c in diff.items()})
    return {"word": repr(overlap.word), "difference": diffs[0], "difference_t": diffs[1]}


def check_diamond(system: ReductionSystem, fuel: int = DEFAULT_FUEL) -> DiamondReport:
    """Resolve every overlap ambiguity two ways and compare normal forms.

    Rules with a deformation part are compared over the dual numbers, so
    the report also certifies a first-order deformation when present.
    """
    overlaps = enumerate_overlaps(system)
    found = (diamond_failure(o, system, *resolve_overlap(o, system, fuel)) for o in overlaps)
    failures = tuple(f for f in found if f is not None)
    return DiamondReport(not failures, len(overlaps), failures)


def irreducible_paths_from(
    system: ReductionSystem, source: str, max_len: int
) -> tuple[Path, ...]:
    """All irreducible paths out of a vertex up to the given length,
    including the length zero path, in path_key order.

    Walked level by level on the index of `ReductionSystem.kernel`: a
    level holds each path's arrow ids with the live state it ends in,
    and each is extended along that state's live successors.  Extending
    a level in path_key order path by path, each in arrow order, keeps
    the next level in path_key order, so nothing is sorted.
    """
    kernel = system.kernel
    arrows, follow, path = kernel.arrows, kernel.follow, kernel.path
    out, level = [Path(source, (), source)], [(s, (arrows[s],)) for s in kernel.starts[source]]
    for length in range(1, max_len + 1):
        out += [path((length, source, ids)) for _, ids in level]
        level = [(t, ids + (arrows[t],)) for s, ids in level for t in follow[s]]
    return tuple(out)
