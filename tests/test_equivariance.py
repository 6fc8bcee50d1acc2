"""The fixed-point equivariance test and the sparse slot transform against
their loop and dense references in tests/oracles.py, on generated tensors
and invertible matrices that are not permutations, or monomial ones (the
move-table path of the slot transform), over QQ and GF(p), with matrix
entries that are plain ints (some of them multiples of p); and the one
equivariance test of every caller (equivariance_failure), one tensor and a
whole family per call, against the loop over the generators, gauge terms
against matrix commutation: one slot transform per generator, and the
order in which the validations report their first failure."""

import pytest
from hypothesis import given, settings, strategies as st
from oracles import equivariance_witness_loop, transform_dense
from test_cohomology import UNIMODULAR, changed_basis
from test_generators import meson_action

from ltsdeform import groups as groups_module
from ltsdeform.deformation import DeformationError, make_deformation, make_formal_isomorphism
from ltsdeform.groups import (equivariance_failure, equivariance_witness, generators,
                              make_group_action, make_module_action, sign_action,
                              trivial_action)
from ltsdeform.linalg import Matrix, PrimeField, QQ
from ltsdeform.lts import StructureTensor, meson, self_module
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
    assert (equivariance_witness([tensor], in_mats, out_inv)
            == [equivariance_witness_loop(tensor, in_mats, out_mat)])


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


def _actions(fld):
    """B3 on meson(3), whose matrices are monomial (the move-table path of
    the slot transform), and D4 conjugated into a unimodular change of
    basis, whose matrices are not (the general path)."""
    system, d4 = meson_action("D4", fld)
    p, pinv = (Matrix(rows, fld) for rows in UNIMODULAR)
    conj = make_group_action(changed_basis(system, p, pinv),
                             [(lab, pinv * m * p) for lab, m in zip(d4.labels, d4.matrices)])
    return [meson_action("B3", fld)[1], conj]


def _failure_loop(action, tensor, values):
    for g in generators(action):
        gm = action.matrices[g]
        t = equivariance_witness_loop(tensor, (gm, gm, values[g]), values[g])
        if t is not None:
            return g, t
    return None


def _commutation_failure(action, psi):
    for g in generators(action):
        gm = action.matrices[g]
        lhs, rhs = psi * gm, gm * psi
        if lhs != rhs:
            return g, (next(j for j in range(psi.ncols) if lhs.column(j) != rhs.column(j)),)
    return None


def _det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m.rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _perturbed(tensor, keys):
    entries = dict(tensor.entries)
    for k in keys:
        entries[k] = entries.get(k, 0) + 1
    return StructureTensor.from_entries(entries, tensor.dims, tensor.dim_out, tensor.field)


def _fixed_by(action, g, tensor, values):
    """The sum of h.T over the powers h of g, which g fixes."""
    total, h = {}, action.identity_index
    while True:
        hinv = action.inverses[h]
        mats = ([action.matrices[hinv].rows] * (len(tensor.dims) - 1)
                + [values[hinv].rows, [list(c) for c in zip(*values[h].rows)]])
        moved, = transform_sparse([tensor.entries], mats)
        for k, v in moved.items():
            total[k] = total.get(k, 0) + v
        h = action.mult_table[h][g]
        if h == action.identity_index:
            return StructureTensor.from_entries(total, tensor.dims, tensor.dim_out,
                                                tensor.field)


@pytest.mark.parametrize("fld", [QQ, PrimeField(3)], ids=repr)
def test_equivariance_failure_matches_the_loop_over_the_generators(fld):
    for action in _actions(fld):
        system, labels = action.system, action.labels
        module = self_module(system)
        # the element matrices, and the twist g -> det(g) g, another
        # representation under which the self-module actions are equivariant
        twisted = [m.scale(_det3(m)) for m in action.matrices]
        make_module_action(action, module, twisted)
        terms = [system.mu] + [_perturbed(system.mu, [k]) for k in (0, 5, 40, 80)]
        terms.append(_perturbed(system.mu, range(0, 81, 7)))
        gens, failed = generators(action), []
        for values in (None, action.matrices, twisted):
            tensors = terms if values is None else [
                t for tensor in (module.left, module.right, module.middle)
                for t in (tensor, _perturbed(tensor, [3]), _perturbed(tensor, [26, 70]))]
            # moved by the second generator only
            tensors += [_fixed_by(action, gens[0], t, values or action.matrices)
                        for t in tensors]
            wants = []
            for tensor in tensors:
                want = _failure_loop(action, tensor, values or action.matrices)
                assert equivariance_failure(action, [tensor], values) == [want]
                failed.append(want and want[0])
                wants.append(want)
            # the whole family in one call reads like the loop over each tensor
            assert equivariance_failure(action, tensors, values) == wants
        assert gens[0] in failed and gens[1] in failed
        assert equivariance_failure(action, [system.mu]) == [None]
        assert equivariance_failure(action, [module.left, module.right, module.middle],
                                    twisted) == [None] * 3

        assert len(gens) == 2
        # the first generator commutes with itself but not with the second,
        # since the group is not abelian
        first = action.matrices[gens[0]]
        ident = Matrix.identity(3, fld)
        psis = (ident, ident.scale(2), first, first + ident,
                Matrix([[1, 2, 0], [0, 1, 0], [1, 0, 1]], fld), Matrix.zero(3, 3, fld))
        gauge = [StructureTensor.from_map(psi.column, (3,), 3, fld) for psi in psis]
        assert (equivariance_failure(action, gauge)
                == [_commutation_failure(action, psi) for psi in psis])
        for psi, tensor in zip(psis, gauge):
            want = _commutation_failure(action, psi)
            assert equivariance_failure(action, [tensor]) == [want]
            if want is None:
                make_formal_isomorphism(action, [ident, psi])
                continue
            with pytest.raises(DeformationError) as err:
                make_formal_isomorphism(action, [ident, psi])
            assert str(err.value) == "psi_1 does not commute with element %r" % labels[want[0]]
        assert _commutation_failure(action, first)[0] == gens[1]


def _moved_by(action, g, tensors, values):
    """The tensors whose first moving generator, by the loop, is g."""
    return [t for t in tensors if (_failure_loop(action, t, values) or (None,))[0] == g]


@pytest.mark.parametrize("fld", [QQ, PrimeField(3)], ids=repr)
def test_a_family_is_read_one_generator_at_a_time(fld):
    for action in _actions(fld):
        system, gens = action.system, generators(action)
        terms = [_perturbed(system.mu, [k]) for k in (0, 5, 40, 80)]
        terms += [_fixed_by(action, gens[0], t, action.matrices) for t in terms]
        # tensor 0 fails only on the second generator, tensor 1 on the first
        second = _moved_by(action, gens[1], terms, action.matrices)[0]
        first = _moved_by(action, gens[0], terms, action.matrices)[0]
        got = equivariance_failure(action, [second, first, system.mu])
        assert [f and f[0] for f in got] == [gens[1], gens[0], None]
        assert got == [_failure_loop(action, t, action.matrices)
                       for t in (second, first, system.mu)]
        assert equivariance_failure(action, []) == []
        ident = Matrix.identity(3, fld)
        assert equivariance_witness([], (ident,) * 3, ident) == []
        trivial = trivial_action(system)
        assert generators(trivial) == ()
        assert equivariance_failure(trivial, terms) == [None] * len(terms)


def test_one_slot_transform_per_generator_moves_a_whole_family(monkeypatch):
    calls = []

    def counted(tensors, mats):
        calls.append(len(tensors))
        return transform_sparse(tensors, mats)

    monkeypatch.setattr(groups_module, "transform_sparse", counted)
    t3 = meson(3)
    action = sign_action(t3)
    terms = [t3.mu] + [t3.mu.scale(i) for i in range(1, 9)]
    del calls[:]
    assert make_deformation(t3, action, terms).order == 8
    assert calls == [9]

    system, b3 = meson_action("B3", QQ)
    gens = generators(b3)
    del calls[:]
    make_module_action(b3, self_module(system), list(b3.matrices))
    assert calls == [3, 3]
    # a generator moves only the tensors that no earlier one moved
    moved = _moved_by(b3, gens[0], [_perturbed(system.mu, [0])], b3.matrices)
    assert moved
    del calls[:]
    assert equivariance_failure(b3, moved + [system.mu])[0][0] == gens[0]
    assert calls == [2, 1]


def test_the_lowest_failing_term_wins_cochain_conditions_first():
    t2 = meson(2)
    swap = make_group_action(t2, [("0", Matrix.identity(2)), ("1", Matrix([[0, 1], [1, 0]]))])

    # alternating and cyclic, but not swap-equivariant
    def coeffs(i, j, p):
        sign = 1 if (i, j) == (0, 1) else (-1 if (i, j) == (1, 0) else 0)
        return [sign, 0] if p == 0 else [0, 0]

    not_equivariant = StructureTensor.from_map(coeffs, (2, 2, 2), 2)
    # equivariant, but f(x, x, y) != 0
    not_cochain = StructureTensor.from_map(lambda i, j, k: [1, 1], (2, 2, 2), 2)
    # neither
    neither = StructureTensor.from_map(lambda i, j, k: [1, 0], (2, 2, 2), 2)
    assert equivariance_failure(swap, [not_equivariant, not_cochain, neither]) == [
        (1, (0, 1, 0)), None, (1, (0, 0, 0))]
    equivariance = "term 1 is not equivariant under element '1'"
    cochain = "term 1 violates the degree-3 cochain conditions"
    for terms, message in (([not_equivariant, not_cochain], equivariance),
                           ([not_cochain, not_equivariant], cochain),
                           ([neither], cochain),
                           ([t2.mu, neither], "term 2 violates")):
        with pytest.raises(DeformationError, match=message):
            make_deformation(t2, swap, [t2.mu] + terms)
    # every shape is checked before any other condition
    with pytest.raises(DeformationError, match="term 2 has shape"):
        make_deformation(t2, swap, [t2.mu, not_equivariant,
                                    StructureTensor.zero((2, 2, 2), 3)])
    ident, flip = Matrix.identity(2), Matrix([[1, 0], [0, -1]])
    with pytest.raises(DeformationError, match="psi_2 has shape 3x3"):
        make_formal_isomorphism(swap, [ident, flip, Matrix.identity(3)])
    with pytest.raises(DeformationError, match="psi_2 does not commute with element '1'"):
        make_formal_isomorphism(swap, [ident, Matrix([[1, 2], [2, 1]]), flip, flip])
