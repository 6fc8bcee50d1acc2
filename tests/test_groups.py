import functools
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (act_dense, action_on_cochain_ambient, invariant_subspace,
                     mult_table_row_major, reynolds_project)
from test_cohomology import UNIMODULAR, changed_basis
from test_generators import closure, signed_perm

from ltsdeform.groups import (GroupAction, GroupActionError, generators, make_group_action,
                              self_module_action, sign_action, transpose_action_on_rect,
                              trivial_action)
from ltsdeform.linalg import Matrix, PrimeField, QQ, rank
from ltsdeform.lts import meson, self_module, skew_lts


@pytest.fixture(scope="module")
def t2():
    return meson(2)


@pytest.fixture(scope="module")
def swap_action(t2):
    return make_group_action(t2, [("0", Matrix.identity(2)),
                                  ("1", Matrix([[0, 1], [1, 0]]))])


def test_sign_action_on_skew3():
    action = sign_action(skew_lts(3))
    assert action.size == 2
    assert action.identity_index == 0
    assert action.mult_table == ((0, 1), (1, 0))


def test_swap_action_on_meson2(swap_action):
    assert swap_action.size == 2
    assert swap_action.inverses == (0, 1)


def test_not_closed_is_rejected(t2):
    two = Matrix.identity(2).scale(2)
    with pytest.raises(GroupActionError, match="not closed"):
        make_group_action(t2, [("e", Matrix.identity(2)), ("g", two)])


def test_identity_free_list_is_rejected(t2):
    # a closed duplicate-free set of invertible matrices always contains the
    # identity, so {-I} alone can only fail the closure check
    minus = Matrix.identity(2).scale(-1)
    with pytest.raises(GroupActionError, match="not closed"):
        make_group_action(t2, [("g", minus)])


def test_singular_element_is_rejected(t2):
    with pytest.raises(GroupActionError, match="not invertible"):
        make_group_action(t2, [("e", Matrix.identity(2)),
                               ("g", Matrix([[1, 1], [1, 1]]))])


def test_closed_list_with_an_idempotent_is_rejected(t2):
    # {I, P} with P^2 = P != I is closed and holds the identity, but the row
    # of P in its table does not hold I
    idem = Matrix([[1, 0], [0, 0]])
    assert idem * idem == idem
    with pytest.raises(GroupActionError) as err:
        make_group_action(t2, [("e", Matrix.identity(2)), ("p", idem)])
    assert str(err.value) == "element 'p' is not invertible"


def test_duplicate_elements_are_rejected(t2):
    with pytest.raises(GroupActionError, match="duplicate"):
        make_group_action(t2, [("e", Matrix.identity(2)),
                               ("f", Matrix.identity(2))])


def test_non_equivariant_matrix_is_rejected(t2):
    # an order-2 matrix (so the group axioms hold) that skews the bracket
    from fractions import Fraction

    warp = Matrix([[0, 2], [QQ(Fraction(1, 2)), 0]])
    assert warp * warp == Matrix.identity(2)
    with pytest.raises(GroupActionError, match="equivariant"):
        make_group_action(t2, [("e", Matrix.identity(2)), ("w", warp)])


def test_diagonal_sign_matrices_are_automorphisms(t2):
    # by trilinearity every diagonal sign matrix preserves the meson bracket
    refl = Matrix([[1, 0], [0, -1]])
    action = make_group_action(t2, [("e", Matrix.identity(2)), ("r", refl)])
    assert action.size == 2


def test_transpose_action_on_rect22():
    system, action = transpose_action_on_rect(2)
    assert system.dim == 4
    assert action.size == 2
    swap = action.matrices[1]
    assert swap * swap == Matrix.identity(4)


def test_transpose_action_agrees_with_matrix_arithmetic():
    # independent oracle: realize basis vectors as 2x2 matrices and compare
    # the bracket of transposes with the transposed bracket entrywise
    system, action = transpose_action_on_rect(2)
    units = [Matrix([[1, 0], [0, 0]]), Matrix([[0, 1], [0, 0]]),
             Matrix([[0, 0], [1, 0]]), Matrix([[0, 0], [0, 1]])]

    def as_matrix(coords):
        acc = Matrix.zero(2, 2)
        for c, u in zip(coords, units):
            acc = acc + u.scale(c)
        return acc

    def triple(a, b, c):
        bt, at = b.transpose(), a.transpose()
        return (a * bt - b * at) * c + c * (bt * a - at * b)

    swap = action.matrices[1]
    for i, j, k in product(range(4), repeat=3):
        transposed_args = triple(units[i].transpose(), units[j].transpose(),
                                 units[k].transpose())
        gi = [0] * 4
        gi[i] = 1
        gj = [0] * 4
        gj[j] = 1
        gk = [0] * 4
        gk[k] = 1
        lhs = as_matrix(system.bracket(swap.apply(gi), swap.apply(gj),
                                       swap.apply(gk)))
        assert lhs == transposed_args
        assert lhs == as_matrix(system.bracket_basis(i, j, k)).transpose()


def test_transpose_action_p1_degenerates():
    with pytest.raises(GroupActionError, match="duplicate"):
        transpose_action_on_rect(1)


@functools.lru_cache(maxsize=None)
def _meson_basis(d, fld, conjugate):
    """meson(d) with the change of basis P and its inverse: P = UNIMODULAR
    (+) I when conjugate is set (d >= 3), the identity otherwise."""
    if not conjugate:
        one = Matrix.identity(d, fld)
        return meson(d, fld), one, one
    p, pinv = (Matrix([[fld(v) for v in row] + [fld.zero] * (d - 3) for row in rows]
                      + Matrix.identity(d, fld).rows[3:], fld) for rows in UNIMODULAR)
    return changed_basis(meson(d, fld), p, pinv), p, pinv


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@settings(max_examples=20, deadline=None)
@given(st.sampled_from([QQ, PrimeField(10007)]), st.booleans(),
       st.sampled_from(["none", "drop", "swap", "singular"]), st.integers(0, 2 ** 32))
def test_group_table_matches_the_row_major_oracle(d, fld, conjugate, change, seed):
    # the closure of 1-3 random signed permutations (at most 48 elements),
    # shuffled and for d >= 3 possibly conjugated to non-monomial matrices;
    # then one element dropped, swapped for 2I, which is never a member, or
    # swapped for a singular matrix, which is named first whether or not the
    # list is closed
    rnd = random.Random(seed)
    gens = [signed_perm(rnd.sample(range(d), d), [rnd.choice((1, -1)) for _ in range(d)])
            for _ in range(rnd.randint(1, 3))]
    while len(gens) > 1 and len(closure(gens)) > 48:
        gens.pop()
    system, p, pinv = _meson_basis(d, fld, conjugate and d >= 3)
    group = closure(gens)
    rnd.shuffle(group)
    elements = [("g%d" % k, pinv * Matrix([[fld(v) for v in row] for row in m], fld) * p)
                for k, m in enumerate(group)]
    k = rnd.randrange(len(elements))
    if change == "drop" and elements[k][1] != Matrix.identity(d, fld):
        del elements[k]
    elif change == "swap":
        elements[k] = (elements[k][0], Matrix.identity(d, fld).scale(fld(2)))
    elif change == "singular":
        # the zero matrix at d = 1, diag(1, 0, ..., 0) otherwise
        singular = Matrix.zero(d, d, fld) if d == 1 else Matrix(
            [[fld(int(i == j == 0)) for j in range(d)] for i in range(d)], fld)
        elements[k] = (elements[k][0], singular)
        with pytest.raises(GroupActionError) as err:
            make_group_action(system, elements)
        assert str(err.value) == "element %r is not invertible" % (elements[k][0],)
        return
    labels = [lab for lab, _ in elements]
    table, miss = mult_table_row_major([m for _, m in elements], fld)
    if miss is not None:
        with pytest.raises(GroupActionError) as err:
            make_group_action(system, elements)
        assert str(err.value) == ("not closed under product: %r * %r is not an element"
                                  % (labels[miss[0]], labels[miss[1]]))
        return
    action = make_group_action(system, elements)
    ident = next(e for e, row in enumerate(table) if row == tuple(range(len(row))))
    inverses = tuple(row.index(ident) for row in table)
    assert action.mult_table == table
    assert action.identity_index == ident
    assert action.inverses == inverses
    oracle = GroupAction(system, tuple(labels), action.matrices, ident, table, inverses)
    assert generators(action) == generators(oracle)


# ---------------------------------------------------------------------------
# ambient actions, invariants, Reynolds


def test_ambient_action_is_a_representation(swap_action):
    module = self_module(swap_action.system)
    ma = self_module_action(swap_action, module)
    mats = action_on_cochain_ambient(swap_action, ma, 3)
    table = swap_action.mult_table
    for g in range(2):
        for h in range(2):
            assert mats[g] * mats[h] == mats[table[g][h]]
    assert mats[swap_action.identity_index] == Matrix.identity(16)


def test_invariant_subspace_of_trivial_group(t2):
    action = trivial_action(t2)
    module = self_module(t2)
    ma = self_module_action(action, module)
    mats = action_on_cochain_ambient(action, ma, 1)
    inv = invariant_subspace(mats, QQ)
    assert inv.ncols == 4


def test_invariant_subspace_of_central_sign_action():
    system = skew_lts(3)
    action = sign_action(system)
    module = self_module(system)
    ma = self_module_action(action, module)
    mats = action_on_cochain_ambient(action, ma, 1)
    # conjugation by -I is the identity on Hom(T, T)
    inv = invariant_subspace(mats, QQ)
    assert inv.ncols == 9


def test_invariant_degree1_subspace_is_the_swap_commutant(t2, swap_action):
    module = self_module(t2)
    ma = self_module_action(swap_action, module)
    mats = action_on_cochain_ambient(swap_action, ma, 1)
    inv = invariant_subspace(mats, QQ)
    assert inv.ncols == 2
    swap = swap_action.matrices[1]
    for j in range(inv.ncols):
        col = inv.column(j)
        # columns encode matrices A with A swap = swap A
        a = Matrix([[col[0], col[2]], [col[1], col[3]]])
        assert a * swap == swap * a


def test_reynolds_projector_is_idempotent_with_invariant_image(t2, swap_action):
    module = self_module(t2)
    ma = self_module_action(swap_action, module)
    data = [QQ(x) for x in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)]
    proj = reynolds_project(swap_action, ma, 3, data)
    again = reynolds_project(swap_action, ma, 3, proj)
    assert proj == again
    moved = act_dense(swap_action, ma, 1, 3, proj)
    assert moved == proj


def test_reynolds_rejects_bad_characteristic():
    from ltsdeform.linalg import PrimeField

    gf = PrimeField(2)
    system = meson(2, gf)
    swap = Matrix([[gf(0), gf(1)], [gf(1), gf(0)]], gf)
    action = make_group_action(system, [("0", Matrix.identity(2, gf)), ("1", swap)])
    module = self_module(system)
    ma = self_module_action(action, module)
    with pytest.raises(GroupActionError, match="characteristic"):
        reynolds_project(action, ma, 1, [gf(1)] * 4)


def test_reynolds_matches_stacked_nullspace_span(t2, swap_action):
    module = self_module(t2)
    ma = self_module_action(swap_action, module)
    mats = action_on_cochain_ambient(swap_action, ma, 3)
    inv = invariant_subspace(mats, QQ)
    # projecting each ambient basis vector lands in the invariant span,
    # and the projections span the whole invariant space
    cols = []
    for pos in range(16):
        data = [0] * 16
        data[pos] = 1
        cols.append(reynolds_project(swap_action, ma, 3, data))
    stacked = Matrix.from_columns(inv.columns() + cols, 16)
    assert rank(stacked) == inv.ncols
