from itertools import product

import pytest
from oracles import (act_dense, action_on_cochain_ambient, invariant_subspace,
                     reynolds_project)

from ltsdeform.groups import (GroupActionError, make_group_action, self_module_action,
                              sign_action, transpose_action_on_rect, trivial_action)
from ltsdeform.linalg import Matrix, QQ, rank
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
