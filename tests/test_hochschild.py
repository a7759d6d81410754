"""Degree-two Hochschild cohomology via reduction-system deformations.

The (2, 2) fixtures are written out in full: the eighteen 1-cochains,
the eleven coboundary expressions, and the deformed relation strings.
Larger sizes are pinned by the graded KL dimension identity and by the
independent bar-complex oracle.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arcdual import hochschild as hh
from arcdual import linalg
from arcdual import rewrite as rw
from arcdual.errors import CapacityError, CertificationError
from arcdual.koszul import reduction_system
from test_rewrite import A, path

F = Fraction


def _short(name: str) -> str:
    for s, long in A.items():
        if long == name:
            return s
    raise KeyError(name)


# ---------------------------------------------------------------------------
# cochain bases

# true graded dimensions; the number of parallel 1-cochain slots in each
# block is a sum of graded block dimensions, and test_acceptance.py's
# test_08 checks these same values against the KL convolution
COCHAIN_DIMS = {
    (2, 2, 2): (11, 18),
    (3, 2, 6): (11, 24),
    (2, 3, 6): (11, 24),
    (3, 3, 12): (11, 30),
}


@pytest.mark.parametrize("m,n,q", sorted(COCHAIN_DIMS))
def test_cochain_dimensions_critical(m, n, q):
    d2, d1 = COCHAIN_DIMS[(m, n, q)]
    assert len(hh.cochain2_basis(m, n, q)) == d2
    assert len(hh.cochain1_basis(m, n, q)) == d1


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2)])
def test_cochain_bases_empty_in_odd_degree(m, n):
    for q in (1, 3, 5):
        assert hh.cochain2_basis(m, n, q) == ()
        assert hh.cochain1_basis(m, n, q) == ()


# the eighteen 1-cochains of (2, 2) in Adams degree 2, as (arrow, path)
PSI_22 = {
    "mu1": ("x11", ("x11", "x21", "y21")),
    "mu2": ("x11", ("x11", "x12", "y12")),
    "mu3": ("x21", ("x21", "x22", "y22")),
    "mu4": ("x21", ("x2", "y32", "y22")),
    "mu5": ("x12", ("x21", "x22", "y31")),
    "mu6": ("x12", ("x2", "y32", "y31")),
    "mu7": ("x22", ("x22", "x32", "y32")),
    "mu8": ("x31", ("x31", "x32", "y32")),
    "mu9": ("x2", ("x21", "x22", "x32")),
    "nu1": ("y11", ("x21", "y21", "y11")),
    "nu2": ("y11", ("x12", "y12", "y11")),
    "nu3": ("y21", ("x22", "y22", "y21")),
    "nu4": ("y21", ("x22", "x32", "y2")),
    "nu5": ("y12", ("x31", "y22", "y21")),
    "nu6": ("y12", ("x31", "x32", "y2")),
    "nu7": ("y22", ("x32", "y32", "y22")),
    "nu8": ("y31", ("x32", "y32", "y31")),
    "nu9": ("y2", ("y32", "y22", "y21")),
}


def test_cochain1_basis_22_is_the_psi_family():
    got = {
        (_short(c.arrow), tuple(_short(a) for a in c.path.arrows))
        for c in hh.cochain1_basis(2, 2, 2)
    }
    assert got == set(PSI_22.values())


# the eleven 2-cochains spanning the critical degree of (2, 2)
ALPHA_22 = [
    (("y11", "x11"), ("x21", "x22", "y22", "y21")),
    (("y11", "x11"), ("x2", "y32", "y22", "y21")),
    (("y11", "x11"), ("x21", "x22", "x32", "y2")),
    (("y21", "x21"), ("x22", "x32", "y32", "y22")),
    (("y12", "x12"), ("x31", "x32", "y32", "y31")),
    (("y2", "y11"), ("y32", "y22", "y21", "y11")),
    (("x11", "x2"), ("x11", "x21", "x22", "x32")),
    (("y12", "x21"), ("x31", "x32", "y32", "y22")),
    (("y21", "x12"), ("x22", "x32", "y32", "y31")),
    (("y31", "y12"), ("x32", "y32", "y22", "y21")),
    (("x12", "x31"), ("x21", "x22", "x32", "y32")),
]


def test_alpha_basis_22_instantiation():
    got = [
        (
            tuple(_short(a) for a in c.lhs),
            tuple(_short(a) for a in c.path.arrows),
        )
        for c in hh.alpha_basis(2, 2)
    ]
    assert got == ALPHA_22


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_alpha_basis_spans_the_critical_cochains(m, n):
    q = 2 * m * n - 6
    assert set(hh.alpha_basis(m, n)) == set(hh.cochain2_basis(m, n, q))


@given(q=st.integers(min_value=0, max_value=8))
def test_cochain2_basis_shape(q):
    system = reduction_system(2, 2)
    for c in hh.cochain2_basis(2, 2, q):
        lhs_path = rw.make_path(system.quiver, list(c.lhs))
        assert system.rule_for(c.lhs).lhs == lhs_path
        assert c.path.start == lhs_path.start
        assert c.path.end == lhs_path.end
        assert len(c.path.arrows) == len(c.lhs) + q
        nf = rw.normal_form(rw.as_lincomb(c.path), system)
        assert nf == {c.path: F(1)}


# ---------------------------------------------------------------------------
# the coboundary matrix at (2, 2, 2): eleven expressions, rank ten

COBOUNDARY_22 = {
    1: {"mu1": -1, "nu1": -1, "mu2": -1, "nu2": -1, "mu3": 1, "nu3": 1,
        "mu5": -1, "nu5": -1},
    2: {"mu1": -1, "nu2": -1, "mu4": 1, "nu5": -1, "mu6": -1},
    3: {"nu1": -1, "mu2": -1, "nu4": 1, "mu5": -1, "nu6": -1},
    4: {"nu4": -1, "mu4": -1},
    5: {"nu5": 1, "mu5": 1, "nu6": -1, "mu6": -1},
    6: {"nu1": -1, "nu2": 1, "nu9": 1},
    7: {"mu1": -1, "mu2": 1, "mu9": 1},
    8: {"mu3": 1, "mu4": -1, "nu6": -1, "nu7": 1, "mu8": 1},
    9: {"nu3": 1, "nu4": -1, "mu6": -1, "mu7": 1, "nu8": 1},
    10: {"nu3": -1, "nu5": -1, "nu7": 1, "nu8": -1, "nu9": 1},
    11: {"mu3": -1, "mu5": -1, "mu7": 1, "mu8": -1, "mu9": 1},
}


def _psi_columns(mat):
    cols = {}
    for j, c in enumerate(mat.cols):
        key = (_short(c.arrow), tuple(_short(a) for a in c.path.arrows))
        for name, val in PSI_22.items():
            if val == key:
                cols[name] = j
    return cols


def test_coboundary_22_expressions():
    mat = hh.coboundary_matrix(2, 2, 2)
    cols = _psi_columns(mat)
    assert len(cols) == 18
    rows = {}
    for i, c in enumerate(mat.rows):
        key = (
            tuple(_short(a) for a in c.lhs),
            tuple(_short(a) for a in c.path.arrows),
        )
        rows[ALPHA_22.index(key) + 1] = i
    for k in range(1, 12):
        expected = COBOUNDARY_22[k]
        for name, j in cols.items():
            assert mat.matrix[rows[k]][j] == F(expected.get(name, 0)), (k, name)


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_coboundary_rank_ten_in_critical_degree(m, n):
    mat = hh.coboundary_matrix(m, n, 2 * m * n - 6)
    assert linalg.rank([list(r) for r in mat.matrix]) == 10


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_constraints_vacuous_in_critical_degree(m, n):
    cons = hh.cocycle_constraints(m, n, 2 * m * n - 6)
    assert cons.matrix == ()


# ---------------------------------------------------------------------------
# coboundaries are cocycles: the two computations agree on im(delta)


@given(
    vec=st.lists(
        st.integers(min_value=-4, max_value=4), min_size=14, max_size=14
    )
)
def test_coboundary_satisfies_constraints_22_degree_zero(vec):
    mat = hh.coboundary_matrix(2, 2, 0)
    cons = hh.cocycle_constraints(2, 2, 0)
    assert len(cons.matrix) > 0
    image = [
        sum(row[j] * v for j, v in enumerate(vec)) for row in mat.matrix
    ]
    for crow in cons.matrix:
        assert sum(c * x for c, x in zip(crow, image)) == 0


@pytest.mark.parametrize("m,n,q", [(3, 2, 2), (3, 2, 4)])
def test_coboundary_satisfies_constraints_larger(m, n, q):
    mat = hh.coboundary_matrix(m, n, q)
    cons = hh.cocycle_constraints(m, n, q)
    assert len(cons.matrix) > 0
    for j in range(len(mat.cols)):
        image = [row[j] for row in mat.matrix]
        for crow in cons.matrix:
            assert sum(c * x for c, x in zip(crow, image)) == 0


def test_certificate_rejects_coboundary_outside_the_kernel(monkeypatch):
    # bump one coboundary entry on a coordinate the first constraint row
    # reads, so the first coboundary column leaves the kernel
    cons = hh.cocycle_constraints(2, 2, 0)
    cob = hh.coboundary_matrix(2, 2, 0)
    k = next(i for i, x in enumerate(cons.matrix[0]) if x)
    rows = [list(r) for r in cob.matrix]
    rows[k][0] += 1
    corrupted = hh.ConstraintSystem(cob.rows, cob.cols, tuple(map(tuple, rows)))
    monkeypatch.setattr(hh, "coboundary_matrix", lambda m, n, q: corrupted)
    with pytest.raises(CertificationError, match="violates a cocycle constraint") as exc:
        hh.hh2_certificate.__wrapped__(2, 2, 0)
    assert exc.value.witness == {"cochain": cob.cols[0], "row": cons.rows[0]}


# ---------------------------------------------------------------------------
# dimensions and certificates

NORMAL_N2 = (0, -1, 1, 0, 0, -1, 1, -1, 1, 1, -1)
NORMAL_N3 = (0, -1, 1, 0, 0, -1, 1, 1, -1, -1, 1)


@pytest.mark.parametrize(
    "m,n,normal",
    [
        (2, 2, NORMAL_N2),
        (3, 2, NORMAL_N2),
        (2, 3, NORMAL_N3),
        (3, 3, NORMAL_N3),
    ],
)
def test_certificate_critical_degree(m, n, normal):
    cert = hh.hh2_certificate(m, n, 2 * m * n - 6)
    assert cert.dimension == 1
    assert cert.kernel_dim == 11
    assert cert.image_rank == 10
    assert cert.constraint_rank == 0
    assert cert.basis == hh.alpha_basis(m, n)
    assert cert.constraint_normal_vector == normal


def test_constraint_normals_are_involution_antiinvariant():
    # the x/y involution permutes the alpha basis in pairs; both sign
    # patterns are negated by it, so the hyperplane itself is stable
    swap = {1: 2, 2: 1, 5: 6, 6: 5, 7: 8, 8: 7, 9: 10, 10: 9}
    for normal in (NORMAL_N2, NORMAL_N3):
        swapped = tuple(
            normal[swap.get(i, i)] for i in range(len(normal))
        )
        assert swapped == tuple(-v for v in normal)


# dims by Adams degree, cross-checked against the bar oracle below
TABLE_22 = {0: 3, 2: 1, 4: 0, 6: 0}
TABLE_32 = {0: 4, 2: 5, 4: 1, 6: 1, 8: 0, 10: 0}


def test_dim_tables():
    for q, d in TABLE_22.items():
        assert hh.hh2_dim(2, 2, q) == d
    for q, d in TABLE_32.items():
        assert hh.hh2_dim(3, 2, q) == d


def test_dim_vanishing():
    for m, n in ((2, 2), (3, 2), (3, 3)):
        assert hh.hh2_dim(m, n, 2 * m * n - 4) == 0
    for m, n in ((2, 2), (3, 2)):
        for q in (1, 3, 5, 7):
            assert hh.hh2_dim(m, n, q) == 0
        for q in (2 * m * n - 1, 2 * m * n, 2 * m * n + 2):
            assert hh.hh2_dim(m, n, q) == 0


def test_dim_one_column_quivers():
    for m in range(2, 6):
        for i in range(1, m):
            assert hh.hh2_dim(m, 1, 2 * i - 2) == 0


def test_dim_transpose_symmetry():
    for q in (0, 2, 4, 6):
        assert hh.hh2_dim(2, 3, q) == hh.hh2_dim(3, 2, q)


def test_hh2_table_22():
    assert hh.hh2_table(2, 2) == tuple(sorted(TABLE_22.items()))


# ---------------------------------------------------------------------------
# independent oracle: the normalized bar complex


def test_bar_oracle_agrees_22():
    for q in (0, 1, 2, 3, 4, 5, 6):
        assert hh.hh2_bar_oracle(2, 2, q) == hh.hh2_dim(2, 2, q)


def test_bar_oracle_agrees_12():
    for q in range(0, 5):
        assert hh.hh2_bar_oracle(1, 2, q) == hh.hh2_dim(1, 2, q) == 0


def test_bar_oracle_agrees_at_critical_degree_with_raised_capacity():
    # the Adams restriction keeps the complex small in high degrees,
    # so the larger sizes are checkable once the capacity is raised
    for m, n in ((3, 2), (2, 3)):
        assert hh.hh2_bar_oracle(m, n, 2 * m * n - 6, capacity=500) == 1


def test_bar_oracle_agrees_below_critical_degree_with_raised_capacity():
    for m, n in ((3, 2), (2, 3)):
        assert hh.hh2_bar_oracle(m, n, 4, capacity=421) == hh.hh2_dim(m, n, 4) == 1


def test_bar_oracle_capacity():
    with pytest.raises(CapacityError):
        hh.hh2_bar_oracle(3, 2, 6)
    # explicit capacity overrides the default
    assert hh.hh2_bar_oracle(1, 1, 0, capacity=10) == 0


def test_bar_capacity_env(monkeypatch):
    monkeypatch.setenv(hh.BAR_CAPACITY_ENV, "1")
    with pytest.raises(CapacityError):
        hh.hh2_bar_oracle(1, 1, 0)
    monkeypatch.setenv(hh.BAR_CAPACITY_ENV, "10")
    assert hh.hh2_bar_oracle(1, 1, 0) == 0


# ---------------------------------------------------------------------------
# representative cocycles and the deformed algebra


def test_extract_cocycle_22_critical():
    c = hh.extract_cocycle(2, 2, 2)
    assert c == {
        (A["y11"], A["x11"]): {path("x2", "y32", "y22", "y21"): F(1)}
    }


def test_extract_cocycle_22_degree_zero():
    c = hh.extract_cocycle(2, 2, 0)
    assert c == {(A["y11"], A["x11"]): {path("x2", "y2"): F(1)}}


def test_extract_cocycle_vanishing_degree():
    with pytest.raises(ValueError):
        hh.extract_cocycle(2, 2, 4)


DEFORMED_22 = "ȳ11 x̄11 + x̄21 ȳ21 + x̄12 ȳ12 = x̄2 ȳ32 ȳ22 ȳ21"
A_INFINITY_22 = "m_4(y21 ⊗ y22 ⊗ y32 ⊗ x2) = x11 y11"


def test_deformed_algebra_22():
    rep = hh.deformed_algebra(2, 2, hh.extract_cocycle(2, 2, 2))
    assert rep.order_one.ok and rep.order_one.overlaps_checked == 8
    assert rep.at_one.ok and rep.at_one.overlaps_checked == 8
    assert len(rep.relations) == 17
    assert rep.deformed_relations == (DEFORMED_22,)
    assert rep.a_infinity == A_INFINITY_22


def test_deformed_algebra_22_degree_zero():
    rep = hh.deformed_algebra(2, 2, hh.extract_cocycle(2, 2, 0))
    assert rep.order_one.ok and rep.at_one.ok
    assert len(rep.deformed_relations) == 1
    assert rep.a_infinity is None


def test_deformed_algebra_32():
    rep = hh.deformed_algebra(3, 2, hh.extract_cocycle(3, 2, 6))
    assert rep.order_one.ok and rep.at_one.ok
    assert len(rep.deformed_relations) == 1


def test_deformed_algebra_zero_cocycle():
    rep = hh.deformed_algebra(2, 2, {})
    assert rep.order_one.ok and rep.at_one.ok
    assert rep.deformed_relations == ()
    assert rep.system.rules == reduction_system(2, 2).rules


def test_deformation_of_a_non_cocycle_fails_the_diamond():
    # a single psi that violates the overlap conditions at (2, 2, 0)
    cons = hh.cocycle_constraints(2, 2, 0)
    for j, c in enumerate(cons.cols):
        if any(row[j] for row in cons.matrix):
            bad = {c.lhs: {c.path: F(1)}}
            with pytest.raises(CertificationError):
                hh.deformed_algebra(2, 2, bad)
            return
    raise AssertionError("no constrained cochain found")


def test_render_relation_orders_terms_geometrically():
    system = reduction_system(2, 2)
    labels = hh.compact_labels(2, 2)
    rule = system.rule_for((A["y11"], A["x11"]))
    assert (
        hh.render_relation(system.quiver, rule, labels)
        == "ȳ11 x̄11 + x̄21 ȳ21 + x̄12 ȳ12 = 0"
    )
