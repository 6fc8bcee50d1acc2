"""The fixed-point equivariance test and the sparse slot transform against
their loop and dense references in tests/oracles.py, on generated tensors
and invertible matrices that are not permutations, or monomial ones (the
move-table path of the slot transform), over QQ and GF(p), with matrix
entries that are plain ints (some of them multiples of p)."""

from hypothesis import given, settings, strategies as st
from oracles import equivariance_witness_loop, transform_dense

from ltsdeform.groups import equivariance_witness
from ltsdeform.linalg import Matrix, PrimeField, QQ
from ltsdeform.lts import StructureTensor
from ltsdeform.tensorops import transform_sparse

FIELDS = [QQ, PrimeField(7), PrimeField(10007)]


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


@st.composite
def unimodular_pairs(draw, n):
    """(M, M^{-1}) as int row lists, M a product of elementary matrices
    and a signed diagonal."""
    m, inv = _identity(n), _identity(n)
    for _ in range(draw(st.integers(0, 4)) if n > 1 else 0):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(st.integers(-2, 2))
        if i == j or not c:
            continue
        e, einv = _identity(n), _identity(n)
        e[i][j], einv[i][j] = c, -c
        m, inv = _mul(m, e), _mul(einv, inv)
    signs = [draw(st.sampled_from([1, -1])) for _ in range(n)]
    diag = [[signs[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return _mul(m, diag), _mul(diag, inv)


def _field_matrix(draw, rows, fld):
    """The matrix over fld; over GF(p) each entry is left a plain int and
    may be shifted by a multiple of p (0 becomes p, a nonzero int that is
    zero in the field)."""
    if fld is QQ:
        return Matrix(rows, fld)
    p = fld.p
    return Matrix([[v % p + p * draw(st.integers(0, 2)) for v in r] for r in rows], fld)


@st.composite
def witness_cases(draw):
    fld = draw(st.sampled_from(FIELDS))
    d, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    shape = (d, d, m)
    size = d * d * m * m
    flat = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    if draw(st.booleans()):
        # a fixed point of the involution (g, g, h) with values acted on by h:
        # T + h T(g ., g ., h .) with g = P J P^{-1}, h = Q K Q^{-1}
        p, pinv = draw(unimodular_pairs(d))
        q, qinv = draw(unimodular_pairs(m))
        j = [[draw(st.sampled_from([1, -1])) if a == b else 0 for b in range(d)]
             for a in range(d)]
        k = [[draw(st.sampled_from([1, -1])) if a == b else 0 for b in range(m)]
             for a in range(m)]
        g, h = _mul(_mul(p, j), pinv), _mul(_mul(q, k), qinv)
        moved = transform_dense(flat, [g, g, h], h)
        flat = [a + b for a, b in zip(flat, moved)]
        if draw(st.booleans()):
            pos = draw(st.integers(0, size - 1))
            flat[pos] += draw(st.integers(1, 3))
        in_rows, out_rows, out_inv_rows = [g, g, h], h, h
    else:
        a1, _ = draw(unimodular_pairs(d))
        a2, _ = draw(unimodular_pairs(d))
        a3, _ = draw(unimodular_pairs(m))
        b, binv = draw(unimodular_pairs(m))
        in_rows, out_rows, out_inv_rows = [a1, a2, a3], b, binv
    tensor = StructureTensor.from_map(
        lambda i, j, w: flat[((i * d + j) * m + w) * m:((i * d + j) * m + w + 1) * m],
        shape, m, fld)
    in_mats = [_field_matrix(draw, r, fld) for r in in_rows]
    return (tensor, in_mats, _field_matrix(draw, out_rows, fld),
            _field_matrix(draw, out_inv_rows, fld))


@settings(max_examples=150, deadline=None)
@given(witness_cases())
def test_witness_matches_the_evaluate_loop(case):
    tensor, in_mats, out_mat, out_inv = case
    assert (equivariance_witness(tensor, in_mats, out_inv)
            == equivariance_witness_loop(tensor, in_mats, out_mat))


def _monomial_rows(draw, n, fld):
    """A monomial matrix (one nonzero per row and per column): a permutation
    with signed or scaled entries, or one scale for the whole matrix (2 P).
    Sometimes two rows share their column instead, which is not monomial.
    Over GF(p) its entries are sometimes left plain ints, with zeros shifted
    to multiples of p, which no longer reads as monomial either."""
    if draw(st.integers(0, 3)):
        perm = draw(st.permutations(range(n)))
    else:
        perm = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    scales = st.sampled_from([1, -1, 2, -2, 3])
    if draw(st.booleans()):
        row_scales = [draw(scales)] * n
    else:
        row_scales = [draw(scales) for _ in range(n)]
    rows = [[row_scales[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    if fld is not QQ and draw(st.booleans()):
        return _field_matrix(draw, rows, fld).rows
    return [[fld(v) for v in r] for r in rows]


@st.composite
def transform_cases(draw):
    """Several tensors (sometimes none) and slot matrices that are all
    monomial, all general, or mixed."""
    fld = draw(st.sampled_from(FIELDS))
    dims = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    size = 1
    for n in dims:
        size *= n
    datas = [[fld(v) for v in draw(st.lists(st.integers(-2, 2), min_size=size,
                                            max_size=size))]
             for _ in range(draw(st.integers(0, 3)))]
    kind = draw(st.sampled_from(["monomial", "monomial", "general", "mixed"]))
    mats = []
    for n in dims:
        if kind == "monomial" or (kind == "mixed" and draw(st.booleans())):
            mats.append(_monomial_rows(draw, n, fld))
            continue
        rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                             min_size=n, max_size=n))
        mats.append(_field_matrix(draw, rows, fld).rows)
    return fld, datas, mats


@settings(max_examples=150, deadline=None)
@given(transform_cases())
def test_transform_sparse_matches_dense_reference_per_slot(case):
    fld, datas, mats = case
    in_mats, out_mat = mats[:-1], mats[-1]
    moved = transform_sparse([{k: v for k, v in enumerate(data) if v} for data in datas],
                             in_mats + [[list(c) for c in zip(*out_mat)]])
    assert len(moved) == len(datas)
    for data, sparse in zip(datas, moved):
        dense = transform_dense(data, in_mats, out_mat)
        assert [sparse.get(k, 0) for k in range(len(data))] == dense
