"""Degree-two Hochschild cohomology via reduction-system deformations.

The (2, 2) fixtures are written out in full: the eighteen 1-cochains,
the eleven coboundary expressions, and the deformed relation strings.
Larger sizes are pinned by the graded KL dimension identity and by the
independent bar-complex oracle.
"""

import gc
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arcdual import hochschild as hh
from arcdual import linalg
from arcdual import rewrite as rw
from arcdual.errors import CapacityError, CertificationError
from arcdual.koszul import dual_resolution, irreducible_basis, reduction_system
from reference import basis_counts
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
            assert mat.vectors[j].get(rows[k], 0) == F(expected.get(name, 0)), (k, name)


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_coboundary_rank_ten_in_critical_degree(m, n):
    mat = hh.coboundary_matrix(m, n, 2 * m * n - 6)
    assert linalg.sparse_rank(mat.vectors) == 10


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_constraints_vacuous_in_critical_degree(m, n):
    cons = hh.cocycle_constraints(m, n, 2 * m * n - 6)
    assert cons.vectors == ()


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
    assert len(cons.vectors) > 0
    image: dict = {}
    for col, v in zip(mat.vectors, vec):
        for i, c in col.items():
            linalg.add_term(image, i, c * v)
    for crow in cons.vectors:
        assert sum(c * image.get(k, 0) for k, c in crow.items()) == 0


@pytest.mark.parametrize("m,n,q", [(3, 2, 2), (3, 2, 4)])
def test_coboundary_satisfies_constraints_larger(m, n, q):
    mat = hh.coboundary_matrix(m, n, q)
    cons = hh.cocycle_constraints(m, n, q)
    assert len(cons.vectors) > 0
    for image in mat.vectors:
        for crow in cons.vectors:
            assert sum(c * image.get(k, 0) for k, c in crow.items()) == 0


def test_certificate_rejects_coboundary_outside_the_kernel(monkeypatch):
    # bump one coboundary entry on a coordinate the first constraint row
    # reads, so the first coboundary column leaves the kernel
    cons = hh.cocycle_constraints(2, 2, 0)
    cob = hh.coboundary_matrix(2, 2, 0)
    k = min(cons.vectors[0])
    column = dict(cob.vectors[0])
    linalg.add_term(column, k, 1)
    corrupted = hh.ConstraintSystem(
        cob.rows, cob.cols, (column, *cob.vectors[1:]), by_column=True
    )
    monkeypatch.setattr(hh, "coboundary_matrix", lambda m, n, q: corrupted)
    with pytest.raises(CertificationError, match="violates a cocycle constraint") as exc:
        hh.hh2_certificate.__wrapped__(2, 2, 0)
    assert exc.value.witness == {"cochain": cob.cols[0], "row": cons.rows[0]}


def test_certificate_witness_is_least_column_then_least_row(monkeypatch):
    # column 1 is bumped on a key of the first constraint row, column 0 on
    # a key that constraint row 0 does not read but several later rows do:
    # the witness is column 0 and the least row it violates, not row 0
    cons = hh.cocycle_constraints(2, 2, 0)
    cob = hh.coboundary_matrix(2, 2, 0)
    readers: dict = {}
    for i, row in enumerate(cons.vectors):
        for k in row:
            readers.setdefault(k, []).append(i)
    k0 = min(cons.vectors[0])
    k1 = min(k for k, rows in readers.items() if 0 not in rows and len(rows) >= 2)
    columns = [dict(col) for col in cob.vectors]
    linalg.add_term(columns[0], k1, 1)
    linalg.add_term(columns[1], k0, 1)
    violated = [
        (j, i)
        for j, col in enumerate(columns)
        for i, row in enumerate(cons.vectors)
        if sum(c * col.get(k, 0) for k, c in row.items())
    ]
    assert {j for j, _ in violated} == {0, 1}
    assert min(i for _, i in violated) == 0 < min(violated)[1]
    corrupted = hh.ConstraintSystem(cob.rows, cob.cols, tuple(columns), by_column=True)
    monkeypatch.setattr(hh, "coboundary_matrix", lambda m, n, q: corrupted)
    with pytest.raises(CertificationError, match="violates a cocycle constraint") as exc:
        hh.hh2_certificate.__wrapped__(2, 2, 0)
    j, i = min(violated)
    assert (j, i) == (0, readers[k1][0])
    assert exc.value.witness == {"cochain": cob.cols[j], "row": cons.rows[i]}


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


@pytest.mark.parametrize("wrong", ["dropped", "duplicated"])
def test_certificate_rejects_a_wrong_distinguished_basis(monkeypatch, wrong):
    # the critical degree lists the distinguished cochains; when they are
    # not exactly the cochain basis the certificate fails, not falls back
    alphas = hh.alpha_basis(2, 2)
    bad = alphas[:-1] if wrong == "dropped" else alphas[:-1] + alphas[:1]
    monkeypatch.setattr(hh, "alpha_basis", lambda m, n: bad)
    with pytest.raises(CertificationError, match="not the critical cochain basis"):
        hh.hh2_certificate.__wrapped__(2, 2, 2)


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


def test_critical_degree():
    assert [hh.critical_degree(m, n) for m, n in ((2, 2), (3, 2), (2, 3), (4, 3))] == [2, 6, 6, 18]
    # no distinguished class below m, n >= 2, so no degree either
    for m, n in ((1, 1), (1, 2), (2, 1), (0, 3)):
        with pytest.raises(ValueError, match="needs m, n >= 2"):
            hh.critical_degree(m, n)


# ---------------------------------------------------------------------------
# independent oracle: the normalized bar complex


def test_bar_oracle_agrees_22():
    # negative degrees included: the contraction terms differ most there
    for q in range(-4, 7):
        assert hh.hh2_bar_oracle(2, 2, q) == hh.hh2_dim(2, 2, q)


def test_bar_oracle_agrees_12():
    for q in range(0, 5):
        assert hh.hh2_bar_oracle(1, 2, q) == hh.hh2_dim(1, 2, q) == 0


def test_bar_oracle_agrees_at_critical_degree_with_raised_capacity(monkeypatch):
    # the Adams restriction keeps the complex small in high degrees,
    # so the larger sizes are checkable once the capacity is raised
    monkeypatch.setenv(hh.BAR_CAPACITY_ENV, "500")
    for m, n in ((3, 2), (2, 3)):
        assert hh.hh2_bar_oracle(m, n, 2 * m * n - 6) == 1


def test_bar_oracle_agrees_below_critical_degree_with_raised_capacity(monkeypatch):
    monkeypatch.setenv(hh.BAR_CAPACITY_ENV, "421")
    # (3, 2) q=2 is the README table's entry 5, read here by a route
    # with no cocycle constraint, and (2, 3) q=2 is its transpose
    for m, n, q, dim in ((3, 2, 4, 1), (2, 3, 4, 1), (3, 2, 2, 5), (2, 3, 2, 5)):
        assert hh.hh2_bar_oracle(m, n, q) == hh.hh2_dim(m, n, q) == dim


@pytest.mark.parametrize("m, n", [(2, 2), (3, 2)])
def test_bar_product_table_is_the_normal_form(m, n):
    # the table is built one arrow at a time, which is sound only in a
    # confluent system, and keeps the nonzero products only: a pair of
    # positive paths has an entry exactly when its normal form from
    # scratch is nonzero, and then the entry is that normal form
    system = reduction_system(m, n)
    paths, pos, _, _, left, right, containing = hh._bar_data(m, n)
    basis = irreducible_basis(m, n)
    flat = (p for key in basis_counts(m, n) for p in basis.bucket(*key))
    assert paths == sorted(flat, key=rw.path_key)
    assert pos == [i for i, p in enumerate(paths) if p.arrows]

    def triples(run):
        assert len(run) % 3 == 0
        return [tuple(run[j : j + 3]) for j in range(0, len(run), 3)]

    product: dict = {}
    for u in pos:
        for v, t, c in triples(right[u]):
            product.setdefault((u, v), []).append((t, c))
    product = {key: tuple(terms) for key, terms in product.items()}
    index = {p: i for i, p in enumerate(paths)}
    composable = [(u, v) for u in pos for v in pos if paths[u].end == paths[v].start]
    assert set(product) <= set(composable)
    for u, v in composable:
        nf = rw.sorted_terms(rw.normal_form(rw.compose(paths[u], paths[v]), system))
        terms = tuple((index[t], c) for t, c in nf)
        assert ((u, v) in product) == bool(terms), (paths[u], paths[v])
        if terms:
            assert product[u, v] == terms
    # the flat lists are the same table read by column, by row and by term
    for w in pos:
        assert triples(left[w]) == [(u, t, c) for u in pos for t, c in product.get((u, w), ())]
        assert triples(right[w]) == [(v, t, c) for v in pos for t, c in product.get((w, v), ())]
    for t in range(len(paths)):
        assert triples(containing[t]) == [
            (u, v, c) for (u, v), terms in sorted(product.items()) for s, c in terms if s == t
        ]
    # a length-zero e is a unit on both sides
    for e, p in enumerate(paths):
        if not p.arrows:
            assert triples(left[e]) == [(a, a, 1) for a in pos if paths[a].end == p.start]
            assert triples(right[e]) == [(c, c, 1) for c in pos if paths[c].start == p.end]


@given(st.data())
def test_radix_key_keeps_the_tuple_order(data):
    base = data.draw(st.integers(1, 5000))
    length = data.draw(st.integers(0, 5))
    digits = st.tuples(*[st.integers(0, base - 1)] * length)
    x, y = data.draw(digits), data.draw(digits)
    assert (x < y) == (hh._radix_key(x, base) < hh._radix_key(y, base))
    assert (x == y) == (hh._radix_key(x, base) == hh._radix_key(y, base))


def test_certificate_keeps_no_normal_form():
    # with the resolution warm, hh2_certificate(3, 3, 8) left 1.01 MB held
    # while every normal form it read was memoised, and 0.20 MB without
    dual_resolution(3, 3)
    irreducible_basis(3, 3)
    for cache in (
        hh.cochain2_basis,
        hh.cochain1_basis,
        hh.cocycle_constraints,
        hh._insertion_slots,
        hh.coboundary_matrix,
        hh.alpha_basis,
        hh.hh2_certificate,
    ):
        cache.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        cert = hh.hh2_certificate(3, 3, 8)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.dimension == 3
    assert held < 400_000


def test_bar_table_is_compact():
    # (3, 2) held 3.27 MB with every product as a tuple of (t, c) tuples,
    # and 1.26 MB as flat triples, with the arrow products dropped
    irreducible_basis(3, 2)
    tracemalloc.start()
    try:
        hh._bar_data.__wrapped__(3, 2)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 2_000_000


def test_bar_oracle_peak_memory(monkeypatch):
    # q = 0 at (2, 2) peaked at 2.80 MB with tuple-keyed columns in one
    # list, and at 1.67 MB with integer keys and the columns fed to the
    # elimination one at a time
    monkeypatch.delenv(hh.BAR_CAPACITY_ENV, raising=False)
    hh._confluent_resolution(2, 2)
    hh._bar_data(2, 2)
    tracemalloc.start()
    try:
        assert hh.hh2_bar_oracle(2, 2, 0) == 3
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_600_000


def test_bar_product_table_rewrites_arrow_products_only(monkeypatch):
    computed = []
    original = rw.reduce_keys

    def counting(system, terms, fuel=rw.DEFAULT_FUEL):
        computed.append(terms)
        return original(system, terms, fuel)

    monkeypatch.setattr(rw, "reduce_keys", counting)
    paths, pos = hh._bar_data.__wrapped__(3, 2)[:2]
    quiver = reduction_system(3, 2).quiver
    arrow_products = sum(len(quiver.out[paths[i].end]) for i in pos)
    assert 0 < len(computed) <= arrow_products


def test_bar_oracle_capacity(monkeypatch):
    monkeypatch.delenv(hh.BAR_CAPACITY_ENV, raising=False)
    with pytest.raises(CapacityError):
        hh.hh2_bar_oracle(3, 2, 6)
    # the variable overrides the default
    monkeypatch.setenv(hh.BAR_CAPACITY_ENV, "10")
    assert hh.hh2_bar_oracle(1, 1, 0) == 0


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


# the generic branch of extract_cocycle: the first kernel vector outside
# the coboundary image, as (lhs, path, coefficient) in cochain order
GENERIC_COCYCLES = {
    (3, 2, 0): [
        (
            "xbar:^v^vv->^vv^v xbar:^vv^v->v^v^v",
            "xbar:^v^vv->v^^vv xbar:v^^vv->v^v^v",
            -1,
        ),
        (
            "ybar:^vv^v->^v^vv xbar:^v^vv->v^^vv",
            "xbar:^vv^v->v^v^v ybar:v^v^v->v^^vv",
            1,
        ),
        (
            "ybar:v^^vv->^v^vv xbar:^v^vv->v^^vv",
            "xbar:v^^vv->v^v^v ybar:v^v^v->v^^vv",
            -1,
        ),
        (
            "ybar:v^^vv->^v^vv xbar:^v^vv->vv^^v",
            "xbar:v^^vv->v^v^v xbar:v^v^v->vv^^v",
            -1,
        ),
        (
            "ybar:v^v^v->^vv^v xbar:^vv^v->v^v^v",
            "xbar:v^v^v->v^vv^ ybar:v^vv^->v^v^v",
            1,
        ),
    ],
    (2, 3, 2): [
        (
            "xbar:^^^vv->^^v^v xbar:^^v^v->^vv^^",
            "xbar:^^^vv->^^v^v xbar:^^v^v->^v^^v xbar:^v^^v->^v^v^ xbar:^v^v^->^vv^^",
            1,
        ),
        (
            "ybar:^^v^v->^^^vv xbar:^^^vv->^^v^v",
            "xbar:^^v^v->^v^^v xbar:^v^^v->^v^v^ xbar:^v^v^->^vv^^ ybar:^vv^^->^^v^v",
            -1,
        ),
        (
            "ybar:^^v^v->^^^vv xbar:^^^vv->^^v^v",
            "xbar:^^v^v->^vv^^ xbar:^vv^^->v^v^^ ybar:v^v^^->^vv^^ ybar:^vv^^->^^v^v",
            1,
        ),
    ],
    (3, 2, 4): [
        (
            "xbar:^^vvv->^v^vv xbar:^v^vv->vv^^v",
            "xbar:^^vvv->^v^vv xbar:^v^vv->v^^vv xbar:v^^vv->v^v^v xbar:v^v^v->vv^^v xbar:vv^^v->vv^v^ ybar:vv^v^->vv^^v",
            1,
        ),
        (
            "xbar:^v^vv->^vv^v xbar:^vv^v->v^v^v",
            "xbar:^v^vv->v^^vv xbar:v^^vv->v^v^v xbar:v^v^v->vv^^v xbar:vv^^v->vv^v^ xbar:vv^v^->vvv^^ ybar:vvv^^->v^v^v",
            1,
        ),
    ],
}


@pytest.mark.parametrize("m,n,q", sorted(GENERIC_COCYCLES))
def test_extract_cocycle_generic_branch(m, n, q):
    c = hh.extract_cocycle(m, n, q)
    terms = [
        (" ".join(lhs), " ".join(p.arrows), coeff)
        for lhs, values in c.items()
        for p, coeff in values.items()
    ]
    assert terms == GENERIC_COCYCLES[(m, n, q)]


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
        if any(j in row for row in cons.vectors):
            bad = {c.lhs: {c.path: F(1)}}
            with pytest.raises(CertificationError):
                hh.deformed_algebra(2, 2, bad)
            return
    raise AssertionError("no constrained cochain found")


@pytest.mark.parametrize("m,n,q", [(2, 2, 0), (2, 3, 2), (2, 4, 4)])
def test_diamond_fails_exactly_on_constrained_cochains(m, n, q):
    # the constraints are the linear form of the deformed diamond check
    base = reduction_system(m, n)
    cons = hh.cocycle_constraints(m, n, q)
    for j, c in enumerate(cons.cols):
        constrained = any(j in row for row in cons.vectors)
        report = rw.check_diamond(base.with_deformation({c.lhs: {c.path: F(1)}}))
        assert report.ok == (not constrained), c
    kernel = linalg.nullspace(cons.vectors, len(cons.cols))
    vector = next(v for v in kernel if sum(1 for x in v if x) >= 2)
    assignment: dict = {}
    for c, x in zip(cons.cols, vector):
        if x:
            assignment.setdefault(c.lhs, {})[c.path] = x
    assert rw.check_diamond(base.with_deformation(assignment)).ok


def test_render_relation_orders_terms_geometrically():
    system = reduction_system(2, 2)
    labels = hh.compact_labels(2, 2)
    rule = system.rule_for((A["y11"], A["x11"]))
    assert (
        hh.render_relation(system.quiver, rule, labels)
        == "ȳ11 x̄11 + x̄21 ȳ21 + x̄12 ȳ12 = 0"
    )
