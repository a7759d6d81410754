"""Rewriting engine tested against a hand-coded confluent system.

The fixture is the full dual reduction system of type (2, 2), written
out rule by rule; its normal forms, overlap words, and deformation
behaviour are all known in closed form.
"""

from fractions import Fraction

import pytest

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


def test_fuel_exhaustion(system):
    with pytest.raises(FuelError):
        rw.normal_form(path("y11", "x11"), system, fuel=0)
    with pytest.raises(FuelError):
        rw.normal_form(path("x12", "x31", "x32"), system, fuel=1)
    err = None
    try:
        rw.normal_form(path("y11", "x11"), system, fuel=0)
    except FuelError as e:
        err = e
    assert "path" in err.witness


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
            for rule in system.index.get(p.arrows[i], ()):
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


def test_reduce_with_events(system):
    nf, events = rw.reduce_with_events(path("y2", "y11", "x11"), system)
    assert nf == {}
    assert len(events) == 1
    assert events[0].rule.lhs == path("y2", "y11")
    assert events[0].prefix.arrows == ()
    assert events[0].suffix.arrows == (A["x11"],)
    assert events[0].coeff == 1


def test_deformed_normal_form_first_order():
    base = build_system()
    deformed = base.with_deformation(
        {path("y11", "x11").arrows: comb({("x21", "x22", "x32", "y2"): 1})}
    )
    nf0, nf1 = rw.deformed_normal_form(path("y11", "x11"), deformed)
    assert nf0 == comb({("x21", "y21"): -1, ("x12", "y12"): -1})
    assert nf1 == comb({("x21", "x22", "x32", "y2"): 1})
    # the order-one part reduces with the plain rules
    nf0, nf1 = rw.deformed_normal_form(
        path("y2", "y11", "x11"), deformed
    )
    assert nf0 == {}
    assert nf1 == rw.normal_form(path("y2", "x21", "x22", "x32", "y2"), base) == {}


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
