"""The integer kernels against the engines they replaced.

`arc_algebra._run_surgery` and the rewriting of `rewrite` (leftmost
redex search, normal forms, overlap resolution) work on integers.  The
reference engines in `reference.py` are the earlier implementations
over node tuples, frozenset states and arrow-name tuples, kept
verbatim; every result here must agree with them exactly, including
the order of rule applications that `koszul.dual_resolution` records.
The integer resolution is compared through `reference.branches`, which
builds its `Path`s.  The certificates between surgery and rewriting
(the K relations, the dual relations, the length-two rules, staircase
membership and the KL counts) run on integers; the `Fraction` routes
they replaced are the oracles here.
"""

import pytest

import reference as ref
from arcdual import arc_algebra as alg
from arcdual import hochschild as hh
from arcdual import koszul
from arcdual import presentation as P
from arcdual import rewrite as rw
from arcdual.combinatorics import cup_matching


def _composable_pairs(m, n):
    basis = alg.enumerate_basis(m, n)
    above: dict = {}
    for b in basis:
        above.setdefault(b.cup_weight, []).append(b)
    return [(a, b) for a in basis for b in above.get(a.cap_weight, ())]


@pytest.mark.parametrize("m, n", [(1, 3), (2, 2), (3, 2), (2, 3), (2, 4)])
def test_surgery_matches_reference_on_every_composable_pair(m, n):
    pairs = _composable_pairs(m, n)
    assert pairs
    for a, b in pairs:
        order = cup_matching(a.cap_weight).cups
        assert alg._run_surgery(a, b, order) == ref._run_surgery(a, b, order), (a, b)


def test_surgery_matches_reference_on_the_length_two_products_at_3_3():
    products = 0
    for block in P.relations_K(3, 3).blocks:
        for x, y in block.paths:
            a, b = P.rho_of_arrow(x), P.rho_of_arrow(y)
            assert dict(alg.diagram_product(a, b)) == ref.reference_product(a, b), (x, y)
            products += 1
    assert products > 300


def test_leftmost_redex_matches_reference_at_3_3():
    system = koszul.reduction_system(3, 3)
    words = [o.word for o in rw.enumerate_overlaps(system)]
    words += [p for p, _ in (t for r in system.rules for t in r.rhs)]
    for word in words:
        assert rw.leftmost_redex(word, system) == ref.leftmost_redex(word, system), word


def _insertions(m, n, q):
    """Every path a cocycle constraint in Adams degree q normalises:
    head * cochain value * tail per rule application."""
    kernel = koszul.reduction_system(m, n).kernel
    by_lhs: dict = {}
    for c in hh.cochain2_basis(m, n, q):
        by_lhs.setdefault(c.lhs, []).append(kernel.ids(c.path))
    for events in koszul.dual_resolution(m, n)[1]:
        start = events[0]
        for k in range(1, len(events), 4):
            lhs, _, head, tail = events[k : k + 4]
            for ids in by_lhs.get(lhs, ()):
                word = head + ids + tail
                yield kernel.path((len(word), start, word))


def _check_find_from_every_start(system, words):
    """`_Kernel.find(ids, start)` is the reference leftmost redex of the
    suffix from `start`, shifted by `start`: the contract `_reduce`
    resumes its scan on."""
    kernel = system.kernel
    hits = 0
    for word in words:
        ids = kernel.ids(word)
        for start in range(len(ids) + 1):
            vertex = kernel.targets[ids[start - 1]] if start else word.start
            want = ref.leftmost_redex(kernel.path((len(ids) - start, vertex, ids[start:])), system)
            got = kernel.find(ids, start)
            if want is None:
                assert got is None, (word, start)
            else:
                assert (got[0], got[1][0]) == (want[0] + start, want[1]), (word, start)
                hits += 1
    return hits


def test_find_resumes_as_the_reference_from_every_start_at_3_3():
    system = koszul.reduction_system(3, 3)
    words = [o.word for o in rw.enumerate_overlaps(system)]
    words += [p for p, _ in (t for r in system.rules for t in r.rhs)]
    words += list(_insertions(3, 3, 8))
    assert _check_find_from_every_start(system, words) > len(words)


def test_find_resumes_as_the_reference_from_every_start_at_4_3():
    system = koszul.reduction_system(4, 3)
    words = [o.word for o in rw.enumerate_overlaps(system)]
    assert len(words) == 414
    assert _check_find_from_every_start(system, words) > len(words)


def test_normal_forms_match_reference_on_the_cochain_insertions_at_3_3_q8():
    system = koszul.reduction_system(3, 3)
    # the cochain values have length 10 or 11, the inserted paths 11 or 12
    lengths = set()
    for path in _insertions(3, 3, 8):
        lengths.add(len(path))
        assert rw.normal_form(path, system) == ref.reference_normal_form(path, system), path
    assert lengths == {11, 12}


def _check_dual_resolution(m, n):
    """Every branch of every overlap (normal forms and rule applications)
    and the flat applications of `koszul.dual_resolution` equal those of
    the reference resolution."""
    system = koszul.reduction_system(m, n)
    ids = system.kernel.ids
    applications = []
    for overlap in rw.enumerate_overlaps(system):
        expected = ref.resolve_overlap(overlap, system)
        assert ref.branches(system, rw.resolve_overlap(overlap, system)) == expected
        events = [overlap.word.start]
        for sign, branch in zip((1, -1), expected):
            for e in branch.events:
                events += (e.rule.lhs.arrows, sign * e.coeff, ids(e.prefix), ids(e.suffix))
        applications.append(tuple(events))
    assert koszul.dual_resolution(m, n)[1] == tuple(applications)
    return len(applications)


def test_dual_resolution_matches_reference_at_3_3():
    assert _check_dual_resolution(3, 3) > 0


def test_dual_resolution_matches_reference_at_3_4():
    # the size `verify 3 4` certifies: 526 overlaps
    assert _check_dual_resolution(3, 4) == 526


def test_deformed_resolution_matches_reference():
    # a deformation by arbitrary cochains is no cocycle: the order-one
    # parts and the failure witnesses are compared as well
    base = koszul.reduction_system(3, 2)
    assignment: dict = {}
    for c in hh.cochain2_basis(3, 2, 2)[::3]:
        assignment.setdefault(c.lhs, {})[c.path] = 1
    deformed = base.with_deformation(assignment)
    report = rw.check_diamond(deformed)
    assert not report.ok
    assert report.failures == ref.reference_diamond_failures(deformed)
    for overlap in rw.enumerate_overlaps(deformed):
        resolution = rw.resolve_overlap(overlap, deformed)
        assert ref.branches(deformed, resolution) == ref.resolve_overlap(overlap, deformed)


def test_fuel_witness_matches_reference(monkeypatch):
    system = koszul.reduction_system(3, 3)
    word = max((o.word for o in rw.enumerate_overlaps(system)), key=rw.path_key)
    monkeypatch.setattr(rw, "DEFAULT_FUEL", 1)
    with pytest.raises(rw.FuelError) as new:
        rw.normal_form(word, system)
    with pytest.raises(rw.FuelError) as old:
        ref.reference_normal_form(word, system, fuel=1)
    assert new.value.witness == old.value.witness


CERTIFIED_SIZES = [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4), (4, 3), (3, 4)]


def _same_rows(got, want):
    """Relation sets with the same blocks, paths and reduced rows: each
    integer row is the primitive form of the reference Fraction row, so
    the two row spans are equal block by block."""
    assert [(b.source, b.target, b.paths) for b in got.blocks] == [
        (b.source, b.target, b.paths) for b in want.blocks
    ]
    for b, r in zip(got.blocks, want.blocks):
        assert all(type(c) is int for row in b.rows for c in row), (b.source, b.target)
        assert [list(row) for row in b.rows] == [
            ref.primitive_integer_vector(row) for row in r.rows
        ], (b.source, b.target)


@pytest.mark.parametrize("m, n", CERTIFIED_SIZES)
def test_relations_match_the_fraction_route(m, n):
    plain = ref.reference_relations_K(m, n)
    _same_rows(P.relations_K(m, n), plain)
    _same_rows(koszul.dual_relations(m, n), ref.reference_orthogonal_relations(plain))


@pytest.mark.parametrize("m, n", CERTIFIED_SIZES)
def test_rules_match_the_fraction_route(m, n):
    system = koszul.reduction_system(m, n)
    short = [r for r in system.rules if len(r.lhs) == 2]
    assert short == ref.reference_length_two_rules(m, n)
    assert ref.reference_staircase_members(m, n) == len(system.rules) - len(short)


@pytest.mark.parametrize("m, n", CERTIFIED_SIZES)
def test_graded_report_matches_the_convolution_loop(m, n):
    report = koszul.certify_graded_dimensions(m, n)
    assert report.ok
    assert report == ref.reference_graded_dimensions(m, n)
