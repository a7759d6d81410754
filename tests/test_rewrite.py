"""Rewriting engine tested against a hand-coded confluent system.

The fixture is the full dual reduction system of type (2, 2), written
out rule by rule; its normal forms, overlap words, and deformation
behaviour are all known in closed form.
"""

import types
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference as ref
from arcdual import koszul
from arcdual import rewrite as rw
from arcdual.errors import FuelError
from arcdual.presentation import build_quiver

QBAR = build_quiver(2, 2, dual=True)

# shorthand names for the fourteen dual arrows
A = {
    "x11": "xbar:^^vv->^v^v",
    "y11": "ybar:^v^v->^^vv",
    "x21": "xbar:^v^v->v^^v",
    "y21": "ybar:v^^v->^v^v",
    "x12": "xbar:^v^v->^vv^",
    "y12": "ybar:^vv^->^v^v",
    "x22": "xbar:v^^v->v^v^",
    "y22": "ybar:v^v^->v^^v",
    "x31": "xbar:^vv^->v^v^",
    "y31": "ybar:v^v^->^vv^",
    "x32": "xbar:v^v^->vv^^",
    "y32": "ybar:vv^^->v^v^",
    "x2": "xbar:^v^v->vv^^",
    "y2": "ybar:vv^^->^v^v",
}


def path(*shorts):
    return rw.make_path(QBAR, [A[s] for s in shorts])


def comb(terms):
    out = {}
    for shorts, coeff in terms.items():
        rw.add_term(out, path(*shorts), Fraction(coeff))
    return out


RULES_22 = {
    ("y2", "x2"): {},
    ("y11", "x11"): {("x21", "y21"): -1, ("x12", "y12"): -1},
    ("y2", "x21"): {("y32", "y22"): -1},
    ("y22", "x22"): {("x32", "y32"): -1},
    ("y2", "y11"): {},
    ("y31", "y12"): {("y22", "y21"): -1, ("x32", "y2"): -1},
    ("y21", "x12"): {("x22", "y31"): -1},
    ("y12", "x2"): {("x31", "x32"): -1},
    ("x11", "x2"): {},
    ("x12", "x31"): {("x21", "x22"): -1, ("x2", "y32"): -1},
    ("y12", "x21"): {("x31", "y22"): -1},
    ("y2", "x12"): {("y32", "y31"): -1},
    ("y21", "x21"): {},
    ("y12", "x12"): {},
    ("y32", "x32"): {},
    ("y31", "x31"): {("x32", "y32"): -1},
    ("y21", "x2"): {("x22", "x32"): -1},
}


def build_system(rules=RULES_22):
    return rw.ReductionSystem(
        QBAR,
        [
            rw.make_rule(path(*lhs), comb(rhs))
            for lhs, rhs in rules.items()
        ],
    )


@pytest.fixture(scope="module")
def system():
    return build_system()


def test_make_path_validation():
    p = path("y2", "x21")
    assert (p.start, p.end, len(p)) == ("vv^^", "v^^v", 2)
    with pytest.raises(ValueError):
        rw.make_path(QBAR, [A["y2"], A["y2"]])
    with pytest.raises(ValueError):
        rw.make_path(QBAR, ["no such arrow"])
    with pytest.raises(ValueError):
        rw.make_path(QBAR, [])
    trivial = rw.make_path(QBAR, [], start="^v^v")
    assert len(trivial) == 0 and trivial.start == trivial.end == "^v^v"


def test_compose():
    p = rw.compose(path("y2"), path("x21"))
    assert p == path("y2", "x21")


def test_system_shape(system):
    assert len(system.rules) == 17
    assert system.lhs_lengths == (2,)
    assert rw.is_irreducible(path("x21", "x22"), system)
    assert not rw.is_irreducible(path("y11", "x11"), system)
    assert rw.is_irreducible(path("x21", "y21"), system)


def test_validation_rejects_short_lhs():
    with pytest.raises(ValueError, match="too short"):
        rw.ReductionSystem(QBAR, [rw.make_rule(path("y2"), {})])


def test_validation_rejects_duplicate_lhs():
    rules = [rw.make_rule(path("y2", "x2"), {}) for _ in range(2)]
    with pytest.raises(ValueError, match="duplicate"):
        rw.ReductionSystem(QBAR, rules)


def test_validation_rejects_nonparallel_rhs():
    with pytest.raises(ValueError, match="parallel"):
        rw.make_rule(path("y2", "x21"), comb({("y32", "y31"): 1}))
        rw.ReductionSystem(
            QBAR, [rw.make_rule(path("y2", "x21"), comb({("y32", "y31"): 1}))]
        )


def test_validation_rejects_nested_lhs():
    rules = [
        rw.make_rule(path(*lhs), comb(rhs)) for lhs, rhs in RULES_22.items()
    ]
    rules.append(rw.make_rule(path("y2", "x12", "x31"), {}))
    with pytest.raises(ValueError, match="occurs inside"):
        rw.ReductionSystem(QBAR, rules)


def _pairwise_nested_message(rules):
    """The rule-by-rule containment scan that validation replaced."""
    rules = sorted(rules, key=lambda r: rw.path_key(r.lhs))
    for r in rules:
        for s in rules:
            a, k = r.lhs.arrows, len(s.lhs)
            if r is not s and any(
                a[i : i + k] == s.lhs.arrows for i in range(len(a) - k + 1)
            ):
                return f"lhs {s.lhs!r} occurs inside lhs {r.lhs!r}"
    return None


@pytest.mark.parametrize(
    "extra,inner",
    [
        # a length-two lhs at the start of a length-three lhs
        ((("y21", "x21", "x22"),), ("y21", "x21")),
        # a length-two lhs in the middle of a length-four lhs
        ((("y21", "y11", "x11", "x21"),), ("y11", "x11")),
        # a length-two lhs at the end of a length-three lhs
        ((("x21", "y21", "x2"),), ("y21", "x2")),
        # prefix, middle and end: the message names the first in rule order
        ((("y2", "y11", "x11", "x2"),), ("x11", "x2")),
        # a length-three lhs at the end of a length-four lhs
        ((("x21", "x22", "x32"), ("x11", "x21", "x22", "x32")), ("x21", "x22", "x32")),
    ],
)
def test_validation_names_the_nested_lhs_as_the_pairwise_scan(extra, inner):
    rules = [
        rw.make_rule(path(*lhs), comb(rhs)) for lhs, rhs in RULES_22.items()
    ]
    rules += [rw.make_rule(path(*lhs), {}) for lhs in extra]
    with pytest.raises(ValueError, match="occurs inside") as err:
        rw.ReductionSystem(QBAR, rules)
    assert str(err.value) == _pairwise_nested_message(rules)
    assert str(err.value).startswith(f"lhs {path(*inner)!r} occurs inside")


def test_validation_agrees_with_the_pairwise_scan_on_every_extra_lhs():
    # every word of length 2 to 4 (38, 92 and 248 words) added to RULES_22
    # as an lhs with rhs 0: validation names a nesting as the rule-by-rule
    # scan does, and otherwise rejects exactly the rhs paths the new lhs
    # reduces, as the reference redex search finds them
    base = [rw.make_rule(path(*lhs), comb(rhs)) for lhs, rhs in RULES_22.items()]
    rhs_paths = [p for r in sorted(base, key=lambda r: rw.path_key(r.lhs)) for p, _ in r.rhs]
    outcomes: dict = {}
    for word in _all_words(4):
        if len(word) < 2:
            continue
        extra = rw.make_rule(word, {})
        rules = base + [extra]
        alone = rw.ReductionSystem(QBAR, [extra])
        reducible = [p for p in rhs_paths if ref.leftmost_redex(p, alone) is not None]
        if word.arrows in {r.lhs.arrows for r in base}:
            kind, expected = "duplicate", f"duplicate lhs {word!r}"
        elif nested := _pairwise_nested_message(rules):
            kind, expected = "nested", nested
        elif reducible:
            kind, expected = "reducible", f"reducible right hand side {reducible[0]!r}"
        else:
            kind, expected = "built", None
        if expected is None:
            assert extra in rw.ReductionSystem(QBAR, rules).rules
        else:
            with pytest.raises(ValueError) as err:
                rw.ReductionSystem(QBAR, rules)
            assert str(err.value) == expected, word
        outcomes[len(word), kind] = outcomes.get((len(word), kind), 0) + 1
    assert outcomes == {
        (2, "duplicate"): 17, (2, "reducible"): 13, (2, "built"): 8,
        (3, "nested"): 72, (3, "built"): 20,
        (4, "nested"): 231, (4, "built"): 17,
    }


def test_validation_rejects_reducible_rhs():
    bad = dict(RULES_22)
    bad[("y2", "x2")] = {("y32", "x32"): 1}
    with pytest.raises(ValueError, match="reducible"):
        build_system(bad)


def test_normal_form_fixtures(system):
    assert rw.normal_form(path("y11", "x11"), system) == comb(
        {("x21", "y21"): -1, ("x12", "y12"): -1}
    )
    assert rw.normal_form(path("y2", "y11", "x11"), system) == {}
    assert rw.normal_form(path("x12", "x31", "x32"), system) == comb(
        {("x21", "x22", "x32"): -1}
    )
    kept = path("x21", "x22")
    assert rw.normal_form(kept, system) == {kept: Fraction(1)}
    assert rw.normal_form({}, system) == {}


def test_normal_form_is_linear(system):
    x = comb({("y11", "x11"): 3, ("x21", "x22"): 1})
    nf = rw.normal_form(x, system)
    assert nf == comb(
        {("x21", "y21"): -3, ("x12", "y12"): -3, ("x21", "x22"): 1}
    )


def test_fuel_exhaustion(system, monkeypatch):
    monkeypatch.setattr(rw, "DEFAULT_FUEL", 0)
    with pytest.raises(FuelError) as err:
        rw.normal_form(path("y11", "x11"), system)
    assert err.value.witness == {"path": repr(path("y11", "x11"))}
    monkeypatch.setattr(rw, "DEFAULT_FUEL", 1)
    with pytest.raises(FuelError):
        rw.normal_form(path("x12", "x31", "x32"), system)


@pytest.mark.parametrize(
    "word, steps, last",
    [
        (("y11", "x11"), 1, ("y11", "x11")),
        (("x12", "x31", "x32"), 2, ("x2", "y32", "x32")),
        (("y2", "x12", "x31"), 3, ("y32", "x32", "y32")),
        (("y11", "x11", "x2"), 5, ("x2", "y32", "x32")),
    ],
)
def test_fuel_is_burned_once_per_step(system, monkeypatch, word, steps, last):
    # a word needing `steps` rewriting steps passes on exactly that much
    # fuel; one less raises with the path the last step would rewrite
    monkeypatch.setattr(rw, "DEFAULT_FUEL", steps)
    rw.normal_form(path(*word), system)
    monkeypatch.setattr(rw, "DEFAULT_FUEL", steps - 1)
    with pytest.raises(FuelError) as err:
        rw.normal_form(path(*word), system)
    assert err.value.witness == {"path": repr(path(*last))}


def test_overlap_words(system):
    words = {o.word.arrows for o in rw.enumerate_overlaps(system)}
    expected = {
        ("y2", "x12", "x31"),
        ("y12", "x12", "x31"),
        ("y21", "x12", "x31"),
        ("y11", "x11", "x2"),
        ("y31", "y12", "x2"),
        ("y31", "y12", "x12"),
        ("y31", "y12", "x21"),
        ("y2", "y11", "x11"),
    }
    assert words == {tuple(A[s] for s in w) for w in expected}


def _pairwise_overlaps(system):
    """The rule-by-rule overlap scan that enumerate_overlaps replaced."""
    out = []
    for left in system.rules:
        for right in system.rules:
            la, ra = left.lhs.arrows, right.lhs.arrows
            for shared in range(1, min(len(la), len(ra))):
                if la[len(la) - shared :] == ra[:shared]:
                    word = rw.Path(left.lhs.start, la + ra[shared:], right.lhs.end)
                    out.append(rw.Overlap(left, right, shared, word))
    out.sort(key=lambda o: rw.path_key(o.word))
    return tuple(out)


def test_overlaps_on_one_word_keep_rule_order():
    # Nested left-hand sides, so no ReductionSystem accepts these rules;
    # the word y2 y11 x11 x21 is reached through two (right, shared) pairs.
    lhss = (("y2", "y11", "x11"), ("x11", "x21"), ("y11", "x11", "x21"))
    rules = sorted(
        (rw.make_rule(path(*lhs), {}) for lhs in lhss),
        key=lambda r: rw.path_key(r.lhs),
    )
    stand_in = types.SimpleNamespace(rules=tuple(rules))
    got = rw.enumerate_overlaps(stand_in)
    assert got == _pairwise_overlaps(stand_in)
    on_word = [
        (o.left.lhs, o.right.lhs, o.shared)
        for o in got
        if o.word == path("y2", "y11", "x11", "x21")
    ]
    assert on_word == [
        (path("y2", "y11", "x11"), path("x11", "x21"), 1),
        (path("y2", "y11", "x11"), path("y11", "x11", "x21"), 2),
    ]


def test_diamond_holds(system):
    report = rw.check_diamond(system)
    assert report.ok
    assert report.overlaps_checked == 8
    assert report.failures == ()


def test_diamond_detects_corrupted_sign():
    bad = dict(RULES_22)
    bad[("y2", "x21")] = {("y32", "y22"): 1}
    report = rw.check_diamond(build_system(bad))
    assert not report.ok
    assert report.failures


def _brute_force_nf(x, system, pick):
    work = dict(rw.as_lincomb(x))
    out = {}
    while work:
        p = pick(work)
        coeff = work.pop(p)
        hits = []
        for i in range(len(p.arrows)):
            for rule in system.rules:
                k = len(rule.lhs.arrows)
                if p.arrows[i : i + k] == rule.lhs.arrows:
                    hits.append((i, rule))
        if not hits:
            rw.add_term(out, p, coeff)
            continue
        i, rule = hits[-1]  # rightmost redex
        k = len(rule.lhs.arrows)
        for q, c in rule.rhs:
            rw.add_term(
                work,
                rw.Path(p.start, p.arrows[:i] + q.arrows + p.arrows[i + k :], p.end),
                coeff * c,
            )
    return out


def _all_words(max_len):
    stack = [rw.Path(v, (), v) for v in QBAR.vertices]
    while stack:
        p = stack.pop()
        if len(p.arrows) >= 1:
            yield p
        if len(p.arrows) < max_len:
            for a in QBAR.out[p.end]:
                stack.append(rw.Path(p.start, p.arrows + (a.name,), a.target))


def test_normal_form_independent_of_strategy(system):
    checked = 0
    for word in _all_words(5):
        left = rw.normal_form(word, system)
        right = _brute_force_nf(word, system, lambda w: max(w, key=rw.path_key))
        assert left == right, word
        checked += 1
    assert checked > 500


WORDS = sorted(_all_words(4), key=rw.path_key)


def test_normal_form_of_integer_input_has_int_coefficients(system):
    for word in WORDS:
        nf = rw.normal_form({word: 3}, system)
        assert all(type(c) is int for c in nf.values()), word


@given(
    st.dictionaries(st.sampled_from(WORDS), st.integers(-3, 3), max_size=4),
    st.fractions(-3, 3, max_denominator=7).filter(lambda f: f.denominator != 1),
)
def test_normal_form_commutes_with_a_rational_scale(system, x, scale):
    # integer rules acting on Fraction coefficients stay exact
    nf = rw.normal_form({p: scale * c for p, c in x.items()}, system)
    assert nf == {p: scale * c for p, c in rw.normal_form(x, system).items()}
    assert all(type(c) in (int, Fraction) for c in nf.values())


def _overlap(system, *shorts):
    word = path(*shorts)
    (found,) = [o for o in rw.enumerate_overlaps(system) if o.word == word]
    return found


def _branches(system, *shorts):
    """The two branches of `resolve_overlap` on the overlap word, read
    as `Path`s through the reference adapter."""
    return ref.branches(system, rw.resolve_overlap(_overlap(system, *shorts), system))


def test_resolve_overlap_events(system):
    left, _ = _branches(system, "y2", "y11", "x11")
    assert left.nf0 == {}
    assert len(left.events) == 1
    assert left.events[0].rule.lhs == path("y2", "y11")
    assert left.events[0].prefix.arrows == ()
    assert left.events[0].suffix.arrows == (A["x11"],)
    assert left.events[0].coeff == 1


def test_resolve_overlap_first_order():
    base = build_system()
    deformed = base.with_deformation(
        {path("y11", "x11").arrows: comb({("x21", "x22", "x32", "y2"): 1})}
    )
    left, right = _branches(deformed, "y2", "y11", "x11")
    # the right branch starts with y11 x11 -> rhs + t * rhs_t behind y2
    first = right.events[0]
    assert first.rule.lhs == path("y11", "x11")
    assert (first.prefix.arrows, first.suffix.arrows, first.coeff) == ((A["y2"],), (), 1)
    assert first.rule.rhs_comb() == comb({("x21", "y21"): -1, ("x12", "y12"): -1})
    assert first.rule.rhs_t_comb() == comb({("x21", "x22", "x32", "y2"): 1})
    # the left branch kills the word at order zero and never meets y11 x11
    assert left.nf0 == right.nf0 == {}
    assert left.nf1 == {}
    # the order-one part reduces with the plain rules
    assert right.nf1 == rw.normal_form(path("y2", "x21", "x22", "x32", "y2"), base) == {}
    # a non-cocycle leaves an order-one difference on the same word
    bad = base.with_deformation({path("y11", "x11").arrows: comb({("x21", "y21"): 1})})
    left, right = _branches(bad, "y2", "y11", "x11")
    assert left.nf1 == {}
    assert right.nf1 == rw.normal_form(path("y2", "x21", "y21"), base) != {}


def test_deformed_diamond_accepts_cocycle():
    deformed = build_system().with_deformation(
        {path("y11", "x11").arrows: comb({("x21", "x22", "x32", "y2"): 1})}
    )
    report = rw.check_diamond(deformed)
    assert report.ok and report.overlaps_checked == 8


def test_deformed_diamond_rejects_non_cocycle():
    deformed = build_system().with_deformation(
        {path("y11", "x11").arrows: comb({("x21", "y21"): 1})}
    )
    report = rw.check_diamond(deformed)
    assert not report.ok
    failing = {f["word"] for f in report.failures}
    assert repr(path("y2", "y11", "x11")) in failing


def test_with_deformation_rejects_unknown_lhs():
    with pytest.raises(ValueError, match="not the left-hand side"):
        build_system().with_deformation({path("x11", "y11").arrows: {}})
    with pytest.raises(ValueError, match="not the left-hand side"):
        build_system().with_deformation({path("y11").arrows: {}})


def test_irreducible_path_enumeration(system):
    total = 0
    by_block = {}
    for source in QBAR.vertices:
        for p in rw.irreducible_paths_from(system, source, max_len=10):
            total += 1
            key = (source, p.end)
            by_block.setdefault(key, []).append(p)
            assert len(p.arrows) <= 8
    assert total == 97
    from arcdual import combinatorics

    for (s, t), paths in by_block.items():
        top = combinatorics.height(s) + combinatorics.height(t)
        lengths = sorted(len(p.arrows) for p in paths)
        assert lengths.count(top) == 1
        assert lengths[-1] <= top


def test_irreducible_paths_between(system):
    found = [
        p
        for p in rw.irreducible_paths_from(system, "vv^^", max_len=10)
        if p.end == "^^vv"
    ]
    assert [len(p) for p in found] == [4]
    exact = [
        p
        for p in rw.irreducible_paths_from(system, "^v^v", max_len=10)
        if p.end == "^v^v" and len(p) == 6
    ]
    assert len(exact) == 1


# ---------------------------------------------------------------------------
# the lhs table against rule-by-rule scans, at sizes with longer lhs


@pytest.fixture(scope="module", params=[(2, 4), (3, 3), (3, 4)], ids=str)
def dual_system(request):
    return koszul.reduction_system(*request.param)


def _paths_from(quiver, source, max_len):
    stack = [rw.Path(source, (), source)]
    while stack:
        p = stack.pop()
        yield p
        if len(p) < max_len:
            for a in quiver.out[p.end]:
                stack.append(rw.Path(source, p.arrows + (a.name,), a.target))


def _scan_redex(p, rules):
    for i in range(len(p.arrows)):
        for rule in rules:
            if p.arrows[i : i + len(rule.lhs)] == rule.lhs.arrows:
                return i, rule
    return None


def test_dual_system_has_longer_lhs(dual_system):
    assert dual_system.lhs_lengths[:2] == (2, 3)


def test_enumerate_overlaps_matches_pairwise_scan(dual_system):
    got = rw.enumerate_overlaps(dual_system)
    want = _pairwise_overlaps(dual_system)
    assert got == want
    assert all(g.left is w.left and g.right is w.right for g, w in zip(got, want))


def test_leftmost_redex_matches_scan(dual_system):
    quiver = dual_system.quiver
    samples = [o.word for o in rw.enumerate_overlaps(dual_system)]
    for rule in dual_system.rules:
        lhs = rule.lhs
        for a in quiver.out[lhs.end]:
            samples.append(rw.Path(lhs.start, lhs.arrows + (a.name,), a.target))
        for v in quiver.vertices:
            for a in quiver.out[v]:
                if a.target == lhs.start:
                    samples.append(rw.Path(v, (a.name,) + lhs.arrows, lhs.end))
    for v in quiver.vertices:
        samples.extend(_paths_from(quiver, v, 3))
    hits = 0
    for p in samples:
        want = _scan_redex(p, dual_system.rules)
        assert rw.leftmost_redex(p, dual_system) == want, p
        hits += want is not None
    assert hits > len(dual_system.rules)


def test_irreducible_paths_match_brute_force(dual_system):
    max_len = max(dual_system.lhs_lengths)
    for v in dual_system.quiver.vertices:
        want = sorted(
            (
                p
                for p in _paths_from(dual_system.quiver, v, max_len)
                if rw.is_irreducible(p, dual_system)
            ),
            key=rw.path_key,
        )
        assert list(rw.irreducible_paths_from(dual_system, v, max_len)) == want


def test_rule_for_is_the_lhs_table(dual_system):
    for rule in dual_system.rules:
        assert dual_system.rule_for(rule.lhs.arrows) is rule
    with pytest.raises(KeyError):
        dual_system.rule_for(dual_system.rules[0].lhs.arrows[:1])
