"""Path rewriting in a quiver algebra, with first-order deformations.

A reduction system is a finite set of rules lhs -> rhs where each lhs is
a path of length at least two, each rhs a rational combination of
parallel irreducible paths, and no lhs occurs inside another.  Rewriting
replaces the leftmost redex of a path, so the uniqueness of the matching
rule at a fixed position makes every normal-form computation
deterministic; confluence is exactly the resolvability of all overlap
ambiguities, checked by comparing the two one-step resolutions of every
overlap word.

Rules may carry a second-order part rhs_t.  Over the dual numbers
(t squared = 0) the rule lhs -> rhs + t * rhs_t rewrites a combination
x0 + t*x1 by reducing x0 as usual while collecting, for every
application with context (prefix, suffix), the term
prefix * rhs_t * suffix into the t-component; the t-component itself
reduces with the plain rules only.  The collected application events are
exposed directly, so anything linear in the deformation can be assembled
from one undeformed run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import FuelError
from .presentation import Quiver

DEFAULT_FUEL = 10**6


@dataclass(frozen=True)
class Path:
    """Composable arrow sequence; length zero paths sit at a vertex."""

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


# Linear combinations are plain dicts Path -> Fraction without zero values.
LinComb = dict


def add_term(acc: LinComb, path: Path, coeff: Fraction) -> None:
    new = acc.get(path, 0) + coeff
    if new:
        acc[path] = new
    else:
        acc.pop(path, None)


def scale_into(acc: LinComb, x: LinComb, factor: Fraction = Fraction(1)) -> None:
    for path, coeff in x.items():
        add_term(acc, path, coeff * factor)


def as_lincomb(x) -> LinComb:
    if isinstance(x, Path):
        return {x: Fraction(1)}
    return {p: Fraction(c) for p, c in x.items() if c}


def sorted_terms(x: LinComb):
    return tuple(sorted(x.items(), key=lambda it: path_key(it[0])))


@dataclass(frozen=True)
class Rule:
    lhs: Path
    rhs: tuple[tuple[Path, Fraction], ...]
    rhs_t: tuple[tuple[Path, Fraction], ...] = ()
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


def _contains(haystack: tuple[str, ...], needle: tuple[str, ...]) -> bool:
    k = len(needle)
    return any(haystack[i : i + k] == needle for i in range(len(haystack) - k + 1))


class ReductionSystem:
    """Validated rule set over a quiver, indexed by the first lhs arrow."""

    def __init__(self, quiver: Quiver, rules):
        self.quiver = quiver
        self.rules = tuple(sorted(rules, key=lambda r: path_key(r.lhs)))
        index: dict[str, list[Rule]] = {}
        for r in self.rules:
            index.setdefault(r.lhs.arrows[0], []).append(r)
        self.index = {a: tuple(rs) for a, rs in index.items()}
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
        for r in self.rules:
            for s in self.rules:
                if r is not s and _contains(r.lhs.arrows, s.lhs.arrows):
                    raise ValueError(
                        f"lhs {s.lhs!r} occurs inside lhs {r.lhs!r}"
                    )
        for r in self.rules:
            for part in (r.rhs, r.rhs_t):
                for p, _ in part:
                    if leftmost_redex(p, self) is not None:
                        raise ValueError(f"reducible right hand side {p!r}")

    def rule_for(self, lhs_arrows: tuple[str, ...]) -> Rule:
        for r in self.index.get(lhs_arrows[0], ()):
            if r.lhs.arrows == lhs_arrows:
                return r
        raise KeyError(lhs_arrows)

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
    for i in range(len(arrows)):
        for rule in system.index.get(arrows[i], ()):
            k = len(rule.lhs.arrows)
            if arrows[i : i + k] == rule.lhs.arrows:
                return i, rule
    return None


def is_irreducible(path: Path, system: ReductionSystem) -> bool:
    return leftmost_redex(path, system) is None


@dataclass(frozen=True)
class Event:
    """One rule application with its context: the reduced term was
    coeff * prefix * lhs * suffix."""

    rule: Rule
    prefix: Path
    suffix: Path
    coeff: Fraction


class _Fuel:
    def __init__(self, amount: int):
        self.left = amount

    def burn(self, witness):
        if self.left <= 0:
            raise FuelError(
                "rewriting fuel exhausted", witness={"path": repr(witness)}
            )
        self.left -= 1


def _reduce(x: LinComb, system: ReductionSystem, fuel: _Fuel, events=None):
    work = dict(as_lincomb(x))
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
        for q, c in rule.rhs:
            add_term(
                work,
                Path(path.start, prefix.arrows + q.arrows + suffix.arrows, path.end),
                coeff * c,
            )
    return out


def normal_form(x, system: ReductionSystem, fuel: int = DEFAULT_FUEL) -> LinComb:
    """Reduce a path or combination to its normal form."""
    return _reduce(as_lincomb(x), system, _Fuel(fuel))


def reduce_with_events(x, system: ReductionSystem, fuel: int = DEFAULT_FUEL):
    """Normal form together with the list of rule applications used."""
    events: list[Event] = []
    nf = _reduce(as_lincomb(x), system, _Fuel(fuel), events)
    return nf, tuple(events)


def deformed_normal_form(
    x0, system: ReductionSystem, x1=None, fuel: int = DEFAULT_FUEL
):
    """Normal form of x0 + t*x1 over the dual numbers; returns (nf0, nf1).

    The order-one component receives prefix * rhs_t * suffix for every
    application of a deformed rule to the order-zero component and is
    then reduced with the plain rules.
    """
    shared = _Fuel(fuel)
    events: list[Event] = []
    nf0 = _reduce(as_lincomb(x0), system, shared, events)
    order_one: LinComb = dict(as_lincomb(x1)) if x1 else {}
    for ev in events:
        for q, c in ev.rule.rhs_t:
            add_term(
                order_one,
                Path(
                    ev.prefix.start,
                    ev.prefix.arrows + q.arrows + ev.suffix.arrows,
                    ev.suffix.end,
                ),
                ev.coeff * c,
            )
    nf1 = _reduce(order_one, system, shared)
    return nf0, nf1


@dataclass(frozen=True)
class Overlap:
    """Word u*w*v where left.lhs = u*w and right.lhs = w*v, w nonempty."""

    left: Rule
    right: Rule
    shared: int
    word: Path


def enumerate_overlaps(system: ReductionSystem) -> tuple[Overlap, ...]:
    out = []
    for left in system.rules:
        for right in system.rules:
            la, ra = left.lhs.arrows, right.lhs.arrows
            for shared in range(1, min(len(la), len(ra))):
                if la[len(la) - shared :] == ra[:shared]:
                    word = Path(
                        left.lhs.start,
                        la + ra[shared:],
                        right.lhs.end,
                    )
                    out.append(Overlap(left, right, shared, word))
    out.sort(key=lambda o: path_key(o.word))
    return tuple(out)


@dataclass(frozen=True)
class DiamondReport:
    ok: bool
    overlaps_checked: int
    failures: tuple


def resolve_overlap(overlap: Overlap, system: ReductionSystem, fuel: int = DEFAULT_FUEL):
    """Both one-step resolutions of the overlap word, fully reduced.

    Returns ((left0, left1), (right0, right1)) over the dual numbers.
    """
    word = overlap.word
    la = overlap.left.lhs.arrows
    tail = Path(overlap.left.lhs.end, word.arrows[len(la) :], word.end)
    head = Path(word.start, word.arrows[: len(word.arrows) - len(overlap.right.lhs)],
                overlap.right.lhs.start)

    def expand(parts, wrap):
        out: LinComb = {}
        for q, c in parts:
            add_term(out, wrap(q), c)
        return out

    left0 = expand(overlap.left.rhs, lambda q: compose(q, tail))
    left1 = expand(overlap.left.rhs_t, lambda q: compose(q, tail))
    right0 = expand(overlap.right.rhs, lambda q: compose(head, q))
    right1 = expand(overlap.right.rhs_t, lambda q: compose(head, q))
    return (
        deformed_normal_form(left0, system, left1, fuel),
        deformed_normal_form(right0, system, right1, fuel),
    )


def check_diamond(system: ReductionSystem, fuel: int = DEFAULT_FUEL) -> DiamondReport:
    """Resolve every overlap ambiguity two ways and compare normal forms.

    Rules with a deformation part are compared over the dual numbers, so
    the report also certifies a first-order deformation when present.
    """
    failures = []
    overlaps = enumerate_overlaps(system)
    for overlap in overlaps:
        (l0, l1), (r0, r1) = resolve_overlap(overlap, system, fuel)
        if l0 != r0 or l1 != r1:
            diff0, diff1 = dict(l0), dict(l1)
            scale_into(diff0, r0, Fraction(-1))
            scale_into(diff1, r1, Fraction(-1))
            failures.append(
                {
                    "word": repr(overlap.word),
                    "difference": {repr(p): str(c) for p, c in diff0.items()},
                    "difference_t": {repr(p): str(c) for p, c in diff1.items()},
                }
            )
    return DiamondReport(not failures, len(overlaps), tuple(failures))


def _extension_reducible(arrows: tuple[str, ...], system: ReductionSystem) -> bool:
    """Whether a redex ends exactly at the last arrow; assumes the prefix
    without that arrow is irreducible."""
    n = len(arrows)
    for k in system.lhs_lengths:
        if k > n:
            continue
        seg = arrows[n - k :]
        for rule in system.index.get(seg[0], ()):
            if rule.lhs.arrows == seg:
                return True
    return False


def irreducible_paths_from(
    system: ReductionSystem, source: str, max_len: int
) -> tuple[Path, ...]:
    """All irreducible paths out of a vertex up to the given length,
    depth first, including the length zero path."""
    quiver = system.quiver
    found = []
    stack = [Path(source, (), source)]
    while stack:
        path = stack.pop()
        found.append(path)
        if len(path.arrows) >= max_len:
            continue
        for arrow in reversed(quiver.out[path.end]):
            arrows = path.arrows + (arrow.name,)
            if not _extension_reducible(arrows, system):
                stack.append(Path(source, arrows, arrow.target))
    found.sort(key=path_key)
    return tuple(found)

