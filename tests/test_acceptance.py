"""Acceptance checks: one test per shipped guarantee, time budgets included.

Each test is self-contained and asserts both the mathematical statement
and the wall-clock budget it must fit in.  Criterion 8 checks the
cochain-space dimensions at the critical degree q = 2mn - 6, both the
declared table and the computed bases, against counts taken from the
Kazhdan-Lusztig convolution sum_kappa P_kappa,lam P_kappa,mu alone.
Criterion 11 counts graded dimensions at sizes where enumerating the
basis is out of reach, against the idempotents and the quiver arrows.
"""

import math
import random
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

from arcdual import arc_algebra as alg
from arcdual import cli
from arcdual import combinatorics as comb
from arcdual import hochschild as hh
from arcdual import koszul
from arcdual import presentation
from arcdual import rewrite as rw
from reference import ascending_irr_count


@contextmanager
def budget(seconds):
    started = time.monotonic()
    yield
    elapsed = time.monotonic() - started
    assert elapsed < seconds, f"took {elapsed:.1f}s, budget {seconds}s"


def _one(d):
    return {d: Fraction(1)}


def test_01_dimension_formulas():
    with budget(10):
        for l in range(1, 7):
            assert alg.dimension(1, l) == 4 * l + 1
            assert alg.dimension(l, 1) == 4 * l + 1
        for l in range(2, 6):
            assert alg.dimension(2, l) == 8 * l * l + 14 * l - 13
            assert alg.dimension(l, 2) == 8 * l * l + 14 * l - 13


def test_02_associativity_and_grading():
    with budget(60):
        for m, n in ((1, 1), (1, 2), (2, 2)):
            basis = alg.enumerate_basis(m, n)
            products = {}
            for a in basis:
                for b in basis:
                    ab = dict(alg.multiply_diagrams(a, b))
                    products[(a, b)] = ab
                    for term, coeff in ab.items():
                        assert coeff != 0
                        assert alg.degree(term) == alg.degree(a) + alg.degree(b)
            for a in basis:
                for b in basis:
                    ab = products[(a, b)]
                    for c in basis:
                        left = alg.multiply(ab, _one(c))
                        right = alg.multiply(_one(a), products[(b, c)])
                        assert left == right
        rng = random.Random(8175553)
        for m, n in ((3, 2), (3, 3)):
            basis = alg.enumerate_basis(m, n)
            for _ in range(500):
                a, b, c = rng.choice(basis), rng.choice(basis), rng.choice(basis)
                ab = dict(alg.multiply_diagrams(a, b))
                for term, coeff in ab.items():
                    assert alg.degree(term) == alg.degree(a) + alg.degree(b)
                left = alg.multiply(ab, _one(c))
                right = alg.multiply(_one(a), dict(alg.multiply_diagrams(b, c)))
                assert left == right


def test_03_presentation_isomorphism():
    with budget(60):
        for m, n in ((1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (3, 2), (2, 3), (3, 3)):
            report = presentation.verify_rho(m, n)
            assert report.ok, (m, n, report.mismatches[:3])


def test_04_diamond_certification():
    with budget(300):
        for m, n in ((1, 4), (2, 2), (3, 2), (2, 3), (3, 3)):
            report = rw.check_diamond(koszul.reduction_system(m, n))
            assert report.ok, (m, n, report.failures[:1])
            if (m, n) == (2, 2):
                assert report.overlaps_checked == 8


def test_05_kl_cross_validation():
    with budget(300):
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                weights = comb.enumerate_weights(m, n)
                for lam in weights:
                    for mu in weights:
                        poly = koszul.kl_poly(lam, mu)
                        for k in range(m * n + 2):
                            assert poly.coefficient(k) == ascending_irr_count(lam, mu, k)
                assert koszul.certify_dual_system(m, n).ok, (m, n)
                assert koszul.certify_graded_dimensions(m, n).ok, (m, n)


def test_06_hochschild_headline_numbers():
    with budget(600):
        cert = hh.hh2_certificate(2, 2, 2)
        assert cert.dimension == 1
        assert cert.image_rank == 10
        for m, n in ((3, 2), (2, 3), (3, 3)):
            assert hh.hh2_dim(m, n, 2 * m * n - 6) == 1, (m, n)
        for m, n in ((2, 2), (3, 2), (3, 3)):
            assert hh.hh2_dim(m, n, 2 * m * n - 4) == 0, (m, n)
        for m, n in ((2, 2), (3, 2)):
            for q in range(1, 2 * m * n + 3, 2):
                assert hh.hh2_dim(m, n, q) == 0, (m, n, q)
            for q in range(2 * m * n - 1, 2 * m * n + 3):
                assert hh.hh2_dim(m, n, q) == 0, (m, n, q)
        for m in range(2, 6):
            for i in range(1, m):
                assert hh.hh2_dim(m, 1, 2 * i - 2) == 0, (m, i)


def _proportional(got, expected):
    scale = None
    for g, e in zip(got, expected):
        if (g == 0) != (e == 0):
            return False
        if e != 0 and scale is None:
            scale = Fraction(g, e)
    if scale is None or scale == 0:
        return False
    return all(Fraction(g) == scale * e for g, e in zip(got, expected))


def test_07_constraint_hyperplane():
    with budget(120):
        for m, n in ((3, 2), (2, 3), (3, 3)):
            cert = hh.hh2_certificate(m, n, 2 * m * n - 6)
            assert cert.constraint_rank == 0
            assert cert.image_rank == 10
            s = (-1) ** n
            expected = (0, -s, s, 0, 0, -s, s, -1, 1, 1, -1)
            got = cert.constraint_normal_vector
            assert got is not None and _proportional(got, expected), (m, n, got)


def _kl_block_coefficient(weights, lam, mu, k):
    """[q^k] of sum over kappa of P_kappa,lam(q) P_kappa,mu(q): the number
    of degree-k basis elements from lam to mu in the dual algebra."""
    total = 0
    for kappa in weights:
        left = koszul.kl_poly(kappa, lam)
        right = koszul.kl_poly(kappa, mu)
        for i, c in enumerate(left.coefficients):
            total += c * right.coefficient(k - i)
    return total


def _kl_cochain_dims(m, n, q):
    """2- and 1-cochain counts in Adams degree q from the KL convolution
    alone: one slot per rule lhs and per degree-(len(lhs) + q) basis
    element parallel to it, and one per arrow and per parallel basis
    element of degree 1 + q."""
    weights = comb.enumerate_weights(m, n)
    quiver = presentation.build_quiver(m, n, dual=True)
    arrows = Counter((a.source, a.target) for a in quiver.arrows)
    for lam in weights:
        for mu in weights:
            got = arrows[(lam, mu)]
            want = _kl_block_coefficient(weights, lam, mu, 1)
            assert got == want, (m, n, lam, mu, "arrows", got, "KL q^1", want)
    dim2 = sum(
        _kl_block_coefficient(weights, r.lhs.start, r.lhs.end, len(r.lhs) + q)
        for r in koszul.reduction_system(m, n).rules
    )
    dim1 = sum(
        _kl_block_coefficient(weights, a.source, a.target, 1 + q)
        for a in quiver.arrows
    )
    return dim2, dim1


def test_08_cochain_space_dimensions():
    declared = {
        (2, 2, 2): (11, 18),
        (3, 2, 6): (11, 24),
        (2, 3, 6): (11, 24),
        (3, 3, 12): (11, 30),
    }
    with budget(10):
        failures = []
        for (m, n, q), (want2, want1) in sorted(declared.items()):
            kl2, kl1 = _kl_cochain_dims(m, n, q)
            got2 = len(hh.cochain2_basis(m, n, q))
            got1 = len(hh.cochain1_basis(m, n, q))
            for kind, want, kl, got in (
                ("2-cochains", want2, kl2, got2),
                ("1-cochains", want1, kl1, got1),
            ):
                if want != kl:
                    failures.append(
                        f"({m},{n}) q={q} {kind}: declared {want}, KL {kl}"
                    )
                if got != kl:
                    failures.append(
                        f"({m},{n}) q={q} {kind} basis: KL {kl}, computed {got}"
                    )
        assert not failures, (
            "cochain dimensions disagree with the KL convolution: "
            + "; ".join(failures)
        )


def test_09_deformation_certificate():
    with budget(60):
        report = hh.deformed_algebra(2, 2, hh.extract_cocycle(2, 2, 2))
        assert report.order_one.ok and report.at_one.ok
        assert report.deformed_relations == (
            "ȳ11 x̄11 + x̄21 ȳ21 + x̄12 ȳ12 = x̄2 ȳ32 ȳ22 ȳ21",
        )
        report32 = hh.deformed_algebra(3, 2, hh.extract_cocycle(3, 2, 6))
        assert report32.order_one.ok and report32.at_one.ok


def test_10_oracle_agreement():
    with budget(600):
        for q in (0, 2, 4, 6):
            assert hh.hh2_bar_oracle(2, 2, q) == hh.hh2_dim(2, 2, q), q


def test_11_dimension_by_counting_beyond_enumeration(monkeypatch, capsys):
    monkeypatch.delenv(comb.CAPACITY_ENV, raising=False)
    alg.enumerate_basis.cache_clear()
    with budget(60):
        for m, n in ((6, 6), (7, 6), (6, 7), (7, 7)):
            graded = alg.graded_dimension(m, n)
            # degree 0: the idempotents; degree 1: the arrows x and y
            assert graded[0] == math.comb(m + n, m), (m, n)
            assert graded[1] == len(presentation.build_quiver(m, n).arrows), (m, n)
        assert alg.dimension(7, 6) == alg.dimension(6, 7)
        assert cli.main(["dim", "7", "7"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == f"total {alg.dimension(7, 7)}"
    assert alg.enumerate_basis.cache_info().currsize == 0
