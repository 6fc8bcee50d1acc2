import random
import sys
from fractions import Fraction
from functools import cache
from itertools import product
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (act_dense, coboundary_images_per_term, coboundary_pointwise, cochain,
                     constraint_rows, dense, evaluate_dense)

from ltsdeform import bundled_path
from ltsdeform.caps import CapExceeded, Caps
from ltsdeform.cohomology import (CochainComplex, SpanError, _coboundary_images,
                                  _plain_free_index, _three_slot_kernel, apply_coboundary,
                                  coboundary_matrix, cochain_space_basis,
                                  cochain_violations, cohomology, is_coboundary,
                                  is_cocycle)
from ltsdeform.documents import load_document, system_from_document
from ltsdeform.groups import (make_group_action, self_module_action, sign_action,
                              transpose_action_on_rect)
from ltsdeform.linalg import (LinAlgError, Matrix, PrimeField, QQ, nullspace_from_rref,
                              rref_rows)
from ltsdeform.lts import (LtsModule, StructureTensor, from_lie_algebra, make_system, meson,
                           self_module, skew_lts, sl2_brackets, verify_lts)


@pytest.fixture(scope="module")
def t2():
    return meson(2)


@pytest.fixture(scope="module")
def m2(t2):
    return self_module(t2)


@pytest.fixture(scope="module")
def swap_action(t2):
    return make_group_action(t2, [("0", Matrix.identity(2)),
                                  ("1", Matrix([[0, 1], [1, 0]]))])


def random_member(basis, rng):
    coords = [rng.randint(-4, 4) for _ in range(len(basis))]
    return basis.combine(coords), coords


# ---------------------------------------------------------------------------
# space dimensions and constraint soundness


def test_meson2_space_dimensions(m2, swap_action):
    assert len(cochain_space_basis(m2, 1)) == 4
    assert len(cochain_space_basis(m2, 3)) == 4
    assert len(cochain_space_basis(m2, 1, swap_action)) == 2
    assert len(cochain_space_basis(m2, 3, swap_action)) == 2


def test_degree1_space_is_full_hom(m2):
    basis = cochain_space_basis(m2, 1)
    assert basis.columns == [{pos: 1} for pos in range(4)]


def test_hand_parameterized_degree3_oracle(t2, m2):
    # a degree-3 cochain on a 2-dimensional system is determined by the two
    # values f(g1, g2, g_l); build the four unit choices by hand and check
    # each satisfies the constraints, giving dimension >= 4; the computed
    # basis gives <= 4.
    basis = cochain_space_basis(m2, 3)
    hand = []
    for l in range(2):
        for out in range(2):
            data = [0] * 16
            data[(0 * 2 + 1) * 2 * 2 + l * 2 + out] = 1   # f(g1,g2,g_l) = e_out
            data[(1 * 2 + 0) * 2 * 2 + l * 2 + out] = -1  # f(g2,g1,g_l) = -e_out
            c = cochain(data, 3, 2, 2)
            assert cochain_violations(c).passed
            hand.append(c)
            basis.express(c)  # must lie in the computed span
    assert len(basis) == len(hand)


def test_hand_parameterized_invariant_degree3_oracle(m2, swap_action):
    # invariance forces f(g2,g1,g_sigma(l)) = sigma f(g1,g2,g_l), i.e. the
    # value at (g1,g2,g2) is -sigma times the value at (g1,g2,g1): two free
    # rational parameters
    basis = cochain_space_basis(m2, 3, swap_action)
    assert len(basis) == 2
    for a0, a1 in ((1, 0), (0, 1)):
        data = [0] * 16
        val = [a0, a1]
        sval = [-a1, -a0]  # -sigma val
        for out in range(2):
            data[(0 * 2 + 1) * 2 * 2 + 0 * 2 + out] = val[out]
            data[(1 * 2 + 0) * 2 * 2 + 0 * 2 + out] = -val[out]
            data[(0 * 2 + 1) * 2 * 2 + 1 * 2 + out] = sval[out]
            data[(1 * 2 + 0) * 2 * 2 + 1 * 2 + out] = -sval[out]
        c = cochain(data, 3, 2, 2)
        assert cochain_violations(c).passed
        ma = self_module_action(swap_action, m2)
        moved = act_dense(swap_action, ma, 1, 3, dense(c))
        assert moved == dense(c)
        basis.express(c)


def test_invariant_degree1_matches_commutant(m2, swap_action):
    basis = cochain_space_basis(m2, 1, swap_action)
    swap = swap_action.matrices[1]
    for j in range(len(basis)):
        c = dense(basis.combine({j: 1}))
        a = Matrix([[c[0], c[2]], [c[1], c[3]]])
        assert a * swap == swap * a


def test_every_basis_column_passes_the_constraints(m2, swap_action):
    for degree in (3, 5):
        for action in (None, swap_action):
            basis = cochain_space_basis(m2, degree, action)
            for j in range(len(basis)):
                assert cochain_violations(basis.combine({j: 1})).passed


def test_basis_equals_bruteforce_constraint_nullspace():
    system = skew_lts(3)
    module = self_module(system)
    basis = cochain_space_basis(module, 3)
    pivots = rref_rows(constraint_rows(3, 3, 3, QQ), QQ)
    cols, free = nullspace_from_rref(pivots, 81, QQ)
    assert cols == basis.columns
    assert free == basis.free_positions
    assert len(basis) == 24


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=str)
def test_three_slot_kernel_is_the_kernel_of_the_written_out_conditions(field):
    # in characteristic 2 the polarized square rows vanish on the diagonal,
    # in characteristic 3 the cyclic rows at (i, i, i)
    for d, m in product(range(1, 4), repeat=2):
        pivots = rref_rows(constraint_rows(d, m, 3, field), field)
        assert _three_slot_kernel(d, m, field) == nullspace_from_rref(
            pivots, d ** 3 * m, field)


def test_express_rejects_outside_vectors(m2):
    basis = cochain_space_basis(m2, 3)
    # violates f(g1,g1,g1) = 0, as a cochain and as sparse entries
    with pytest.raises(SpanError):
        basis.express(cochain([1] + [0] * 15, 3, 2, 2))
    with pytest.raises(SpanError):
        basis.express({0: 1})


def test_combine_rejects_keys_that_are_no_column_index(m2):
    basis = cochain_space_basis(m2, 3)
    for key in (-1, len(basis)):
        with pytest.raises(LinAlgError, match="column indices"):
            basis.combine({key: 1})


def test_caps_are_enforced(m2):
    tight = Caps(max_degree=3, max_ambient=100, max_group=64)
    with pytest.raises(CapExceeded):
        cochain_space_basis(m2, 5, caps=tight)
    wide_degree = Caps(max_degree=9, max_ambient=10, max_group=64)
    with pytest.raises(CapExceeded):
        cochain_space_basis(m2, 3, caps=wide_degree)


def test_the_caps_of_the_target_fire_before_its_block_kernel(m2, swap_action, monkeypatch):
    # the rows out of degree 1 are read at the plain free positions of
    # C^3, from the kernel of its three-slot block: C^3 (16 entries) is past
    # the cap, C^1 (4 entries) is not, so nothing of C^3 may be built, and
    # neither are the coefficient tables of the coboundary
    module = sys.modules["ltsdeform.cohomology"]
    calls = []
    for name in ("_three_slot_kernel", "_coefficient_tables"):
        def counting(*args, original=getattr(module, name)):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, name, counting)
    for action in (None, swap_action):
        with pytest.raises(CapExceeded, match="16 entries"):
            cohomology(m2, 1, action, caps=Caps(max_degree=9, max_ambient=10, max_group=64))
        with pytest.raises(CapExceeded, match="degree 3"):
            cohomology(m2, 1, action, caps=Caps(max_degree=1, max_ambient=10, max_group=64))
    assert calls == []


# ---------------------------------------------------------------------------
# the coboundary


def delta3_eight_terms(system, t):
    """Independent oracle: the eight-term degree-3 coboundary on a
    self-module, written directly from the bracket."""
    d = system.dim
    data = []
    for a, b, c, dd, e in product(range(d), repeat=5):
        val = [0] * d
        terms = [
            (1, evaluate_dense(system.mu, list(t.basis_value(a, b, c)), dd, e)),
            (1, evaluate_dense(system.mu, c, list(t.basis_value(a, b, dd)), e)),
            (1, evaluate_dense(system.mu, c, dd, list(t.basis_value(a, b, e)))),
            (-1, evaluate_dense(system.mu, a, b, list(t.basis_value(c, dd, e)))),
            (1, evaluate_dense(t, system.bracket_basis(a, b, c), dd, e)),
            (1, evaluate_dense(t, c, system.bracket_basis(a, b, dd), e)),
            (1, evaluate_dense(t, c, dd, system.bracket_basis(a, b, e))),
            (-1, evaluate_dense(t, a, b, system.bracket_basis(c, dd, e))),
        ]
        for sign, w in terms:
            for l in range(d):
                val[l] = val[l] + sign * w[l]
        data.extend(val)
    return cochain(data, 5, d, d)


def test_degree3_coboundary_matches_eight_term_expansion(t2, m2):
    rng = random.Random(7)
    basis = cochain_space_basis(m2, 3)
    for _ in range(25):
        f, _ = random_member(basis, rng)
        assert apply_coboundary(m2, f) == delta3_eight_terms(t2, f)


def test_degree1_coboundary_of_identity_is_twice_mu(t2, m2):
    ident = cochain([1, 0, 0, 1], 1, 2, 2)
    assert apply_coboundary(m2, ident) == t2.mu.scale(2)


def test_coboundary_of_zero_is_zero(m2):
    for degree in (1, 3, 5):
        z = StructureTensor.zero((2,) * degree, 2)
        assert apply_coboundary(m2, z).is_zero()


def test_mu_is_a_3_cocycle_everywhere():
    for system in (meson(2), skew_lts(3)):
        module = self_module(system)
        assert apply_coboundary(module, system.mu).is_zero()


def changed_basis(system, p, pinv):
    """The same system written in the basis given by the columns of p."""
    cols = [p.column(j) for j in range(system.dim)]
    mu = StructureTensor.from_map(
        lambda i, j, k: pinv.apply(evaluate_dense(system.mu, cols[i], cols[j], cols[k])),
        (system.dim,) * 3, system.dim, system.field)
    return make_system(system.basis_names, mu, system.field)


# a unimodular change of basis and its inverse: the changed brackets stay
# integral but turn dense
UNIMODULAR = ([[1, 1, 0], [0, 1, 1], [1, 1, 1]], [[0, -1, 1], [1, 1, -1], [-1, 0, 1]])


def dimensions(report):
    return (report.dim_space, report.dim_cocycles, report.dim_coboundaries, report.dim_h)


# Lie algebras for generated direct sums: name -> structure constants
LIE_SUMMANDS = {
    "sl2": sl2_brackets,
    "aff2": lambda fld: [[[fld.zero] * 2, [fld.zero, fld.one]],      # [x, y] = y
                         [[fld.zero, fld(-1)], [fld.zero] * 2]],
    "ab1": lambda fld: [[[fld.zero]]],
}
LIE_DIMS = {"sl2": 3, "aff2": 2, "ab1": 1}


def summand_lists(room=4):
    """Every ordered list of LIE_SUMMANDS names of total dimension <= room."""
    out = []
    for name, n in LIE_DIMS.items():
        if n <= room:
            out.append([name])
            out.extend([name] + rest for rest in summand_lists(room - n))
    return out


def direct_sum_brackets(names, fld):
    """Block-diagonal structure constants of the direct sum of the summands."""
    d = sum(LIE_DIMS[name] for name in names)
    out = [[[fld.zero] * d for _ in range(d)] for _ in range(d)]
    off = 0
    for name in names:
        b = LIE_SUMMANDS[name](fld)
        for i, j, l in product(range(len(b)), repeat=3):
            out[off + i][off + j][off + l] = b[i][j][l]
        off += len(b)
    return out


def embedded(d, coords, block):
    """The d x d identity with the square block written at the coordinates."""
    out = [[int(r == c) for c in range(d)] for r in range(d)]
    for (r, cr), (c, cc) in product(enumerate(coords), repeat=2):
        out[cr][cc] = block[r][c]
    return out


@st.composite
def generated_systems(draw):
    """(system, action, changed system, changed action): a direct sum of at
    most four dimensions built through from_lie_algebra, under the sign
    action and, when two summands are equal, the swap of the first two, and
    the same pair written in the basis of the columns of a unimodular P
    (UNIMODULAR on three coordinates when d >= 3, then transvections)."""
    fld = draw(st.sampled_from([QQ, PrimeField(7)]))
    names = draw(st.sampled_from(summand_lists()))
    system = from_lie_algebra(direct_sum_brackets(names, fld), fld=fld)
    d = system.dim
    one = Matrix.identity(d, fld)
    mats = [one, one.scale(fld(-1))]
    equal = [(a, b) for a in range(len(names)) for b in range(a + 1, len(names))
             if names[a] == names[b]]
    if equal:
        a, b = equal[0]
        sa, sb = (sum(LIE_DIMS[name] for name in names[:i]) for i in (a, b))
        perm = list(range(d))
        for t in range(LIE_DIMS[names[a]]):
            perm[sa + t], perm[sb + t] = sb + t, sa + t
        swap = Matrix([[int(c == perm[r]) for c in range(d)] for r in range(d)], fld)
        mats += [swap, swap.scale(fld(-1))]
    p = pinv = one
    if d >= 3:
        coords = draw(st.permutations(range(d)))[:3]
        p, pinv = (Matrix(embedded(d, coords, u), fld) for u in UNIMODULAR)
    transvections = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1), st.integers(-2, 2))
    for i, j, c in draw(st.lists(transvections.filter(lambda t: t[0] != t[1]),
                                 max_size=3 if d > 1 else 0)):
        p = p * Matrix(embedded(d, (i, j), [[1, c], [0, 1]]), fld)
        pinv = Matrix(embedded(d, (i, j), [[1, -c], [0, 1]]), fld) * pinv
    assert p * pinv == one
    elements = list(zip(map(str, range(len(mats))), mats))
    changed = changed_basis(system, p, pinv)
    return (system, make_group_action(system, elements), changed,
            make_group_action(changed, [(lab, pinv * g * p) for lab, g in elements]))


@settings(max_examples=8, deadline=None)
@given(generated_systems())
def test_generated_direct_sums_d_squared_zero_and_basis_free_cohomology(case):
    system, action, changed, changed_action = case
    d, fld = system.dim, system.field
    pairs = [(CochainComplex(self_module(system), act),
              CochainComplex(self_module(changed), changed_act))
             for act, changed_act in ((None, None), (action, changed_action))]
    for cx, changed_cx in pairs:
        for degree in (1, 3):
            assert dimensions(cx.cohomology(degree, want_representatives=False)) == \
                dimensions(changed_cx.cohomology(degree, want_representatives=False))
    # d o d on every vector of the plain and invariant bases of the changed
    # system, whose brackets are dense; a vector in both is checked once,
    # and as its integral multiple, so that the sums run on ints
    module = pairs[0][1].module
    for degree in (1, 3) if d <= 3 else (1,):
        columns = {frozenset(col.items()) for _, cx in pairs for col in cx.basis(degree).columns}
        for col in columns:
            q = lcm(*(v.denominator for _, v in col))
            c = StructureTensor.from_entries({k: v * q for k, v in col}, (d,) * degree, d, fld)
            assert apply_coboundary(module, apply_coboundary(module, c)).is_zero()


def oracle_cases(fld):
    """(label, module, action, degrees) for the pointwise coboundary oracle."""
    one, zero = fld.one, fld.zero
    t2 = meson(2, fld)
    swap = make_group_action(t2, [("0", Matrix.identity(2, fld)),
                                  ("1", Matrix([[zero, one], [one, zero]], fld))])
    skew3 = skew_lts(3, fld)
    rect, transpose = transpose_action_on_rect(2, fld)
    p, pinv = (Matrix(rows, fld) for rows in UNIMODULAR)
    assert p * pinv == Matrix.identity(3, fld)
    sl2 = from_lie_algebra(sl2_brackets(fld), fld=fld)
    return [("meson2", self_module(t2), None, (1, 3, 5)),
            ("meson2/swap", self_module(t2), swap, (1, 3, 5)),
            ("meson3", self_module(meson(3, fld)), None, (1, 3)),
            ("skew3/sign", self_module(skew3), sign_action(skew3), (1, 3)),
            # degree 3 of rect22 is the slowest case; it runs over QQ only
            ("rect22/transpose", self_module(rect), transpose,
             (1, 3) if fld == QQ else (1,)),
            ("sl2", self_module(sl2), None, (1, 3)),
            ("meson3 changed basis",
             self_module(changed_basis(meson(3, fld), p, pinv)), None, (1, 3))]


def test_coboundary_matrix_matches_pointwise_application():
    # every column of the assembled matrix reproduces the dense pointwise
    # coboundary of its basis column, so the matrix agrees on all members;
    # apply_coboundary pushes the same column forward sparsely
    for fld in (QQ, PrimeField(10007)):
        for label, module, action, degrees in oracle_cases(fld):
            for degree in degrees:
                basis = cochain_space_basis(module, degree, action)
                target = cochain_space_basis(module, degree + 2, action)
                mat = coboundary_matrix(module, basis, target)
                for j in range(len(basis)):
                    column = basis.combine({j: fld.one})
                    expected = coboundary_pointwise(module, column)
                    assert target.combine(mat.column(j)) == expected, \
                        (fld, label, degree, j)
                    assert apply_coboundary(module, column) == expected, \
                        (fld, label, degree, j)


BUNDLED_SYSTEMS = ["matrix2", "meson1", "meson2", "meson2x3", "meson3", "meson4", "rect22",
                   "skew3", "sl2", "sym2"]


@cache
def bundled_system(name, fld):
    return system_from_document(load_document(bundled_path(name + ".json").read_text()),
                                field_override=fld)


def sparse_values(fld, size):
    """Sparse {position: scalar} dicts below size with up to five nonzero
    field scalars: over QQ with Fractions, over GF(p) as residues."""
    num = st.integers(-4, 4).filter(bool)
    coef = st.builds(lambda a, b: fld(Fraction(a, b)), num, st.integers(1, 3))
    return st.dictionaries(st.integers(0, size - 1), coef, min_size=1, max_size=5)


@st.composite
def push_forward_cases(draw):
    """(module, degree, vectors): a bundled or generated system, the latter
    a direct sum in a basis changed by transvections and a diagonal scaling
    (Fraction brackets over QQ); its self-module or a module of another
    dimension with a random theta; a degree among 1, 3, 5, and 7 for d = 2;
    random sparse vectors of that degree, not cochains in general."""
    fld = draw(st.sampled_from([QQ, PrimeField(7)]))
    if draw(st.booleans()):
        system = bundled_system(draw(st.sampled_from(BUNDLED_SYSTEMS)), fld)
    else:
        names = draw(st.sampled_from(summand_lists()))
        system = from_lie_algebra(direct_sum_brackets(names, fld), fld=fld)
        d = system.dim
        scale = draw(st.sampled_from([1, 2, 3]))
        p = Matrix(embedded(d, (0,), [[scale]]), fld)
        pinv = Matrix(embedded(d, (0,), [[fld.div(1, scale)]]), fld)
        for i, j, c in draw(st.lists(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1),
                                               st.integers(-2, 2)).filter(lambda t: t[0] != t[1]),
                                     max_size=2 if d > 1 else 0)):
            p = p * Matrix(embedded(d, (i, j), [[1, c], [0, 1]]), fld)
            pinv = Matrix(embedded(d, (i, j), [[1, -c], [0, 1]]), fld) * pinv
        system = changed_basis(system, p, pinv)
    d = system.dim
    module = self_module(system)
    m = draw(st.sampled_from([d, 1, 2]))
    if m != d:
        right = StructureTensor.from_entries(draw(sparse_values(fld, d * d * m * m)),
                                             (d, d, m), m, fld)
        module = LtsModule(system, m, right, right, right)
    degree = draw(st.sampled_from((1, 3, 5, 7) if d == 2 else (1, 3, 5)))
    vectors = draw(st.lists(sparse_values(fld, d ** degree * m), min_size=1, max_size=3))
    return module, degree, vectors


@settings(max_examples=100, deadline=None)
@given(push_forward_cases())
def test_push_forward_matches_the_per_term_oracle(case):
    # every position: the images themselves; the plain free index: the
    # images read at the plain free positions of C^(degree + 2)
    module, degree, vectors = case
    caps = Caps(max_degree=9)
    expected = list(coboundary_images_per_term(module, degree, vectors))
    assert list(_coboundary_images(module, degree, vectors, caps)) == expected
    assert list(_coboundary_images(module, degree, vectors, caps, _plain_free_index)) == \
        list(CochainComplex(module)._at_plain_free(expected))


def test_coboundary_rejects_a_target_basis_of_another_module_shape(m2):
    # the coordinates are read at the target's free positions unchecked, so
    # a target over another system or module must be caught by its shape
    source = cochain_space_basis(m2, 1)
    zero = StructureTensor.zero((2, 2, 1), 1)
    for other in (self_module(meson(3)), LtsModule(m2.system, 1, zero, zero, zero)):
        with pytest.raises(LinAlgError, match="does not match the module shape"):
            coboundary_matrix(m2, source, cochain_space_basis(other, 3))


def test_complex_property_d_squared_zero(m2, swap_action):
    for action in (None, swap_action):
        b1 = cochain_space_basis(m2, 1, action)
        b3 = cochain_space_basis(m2, 3, action)
        b5 = cochain_space_basis(m2, 5, action)
        b7 = cochain_space_basis(m2, 7, action)
        m31 = coboundary_matrix(m2, b1, b3)
        m53 = coboundary_matrix(m2, b3, b5)
        m75 = coboundary_matrix(m2, b5, b7)
        assert (m53 * m31).is_zero()
        assert (m75 * m53).is_zero()


def test_equivariant_closure_of_the_coboundary(m2, swap_action):
    # invariant cochains have invariant coboundaries
    ma = self_module_action(swap_action, m2)
    for degree in (1, 3):
        basis = cochain_space_basis(m2, degree, swap_action)
        for j in range(len(basis)):
            img = dense(apply_coboundary(m2, basis.combine({j: 1})))
            for g in range(swap_action.size):
                moved = act_dense(swap_action, ma, g, degree + 2, img)
                assert moved == img


# ---------------------------------------------------------------------------
# cohomology reports


def test_abelian_degree1_cohomology_is_everything():
    system = make_system(["x", "y"], StructureTensor.zero((2, 2, 2), 2))
    module = self_module(system)
    rep = cohomology(module, 1)
    assert rep.dim_cocycles == 4 and rep.dim_coboundaries == 0 and rep.dim_h == 4


def test_meson2_degree3_reports(m2, swap_action):
    rep = cohomology(m2, 3)
    assert rep.dim_space == 4
    assert rep.dim_h == rep.dim_cocycles - rep.dim_coboundaries
    grep = cohomology(m2, 3, swap_action)
    assert grep.dim_space == 2
    assert grep.dim_h == grep.dim_cocycles - grep.dim_coboundaries
    assert len(rep.representatives) == rep.dim_h


def test_representatives_are_cocycles_outside_coboundaries():
    # an abelian system has zero differentials, so H^3 = C^3 and the
    # representatives must span it
    system = make_system(["x", "y"], StructureTensor.zero((2, 2, 2), 2))
    module = self_module(system)
    rep = cohomology(module, 3)
    assert rep.dim_coboundaries == 0
    assert rep.dim_h == rep.dim_space == len(rep.representatives)


def test_is_cocycle_and_is_coboundary(m2, t2, swap_action):
    rng = random.Random(3)
    basis1 = cochain_space_basis(m2, 1, swap_action)
    psi, _ = random_member(basis1, rng)
    c = apply_coboundary(m2, psi)
    assert is_cocycle(m2, c)
    pre = is_coboundary(m2, c, swap_action)
    assert pre is not None
    assert apply_coboundary(m2, pre) == c
    assert is_cocycle(m2, t2.mu)
    z = StructureTensor.zero((2, 2, 2), 2)
    pre0 = is_coboundary(m2, z)
    assert pre0 is not None and pre0.is_zero()


def test_cohomology_over_prime_field():
    from ltsdeform.linalg import PrimeField

    gf = PrimeField(5)
    system = meson(2, gf)
    module = self_module(system)
    rep = cohomology(module, 3)
    assert rep.dim_space == 4
    assert rep.dim_h == rep.dim_cocycles - rep.dim_coboundaries


@settings(max_examples=40)
@given(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
       st.sampled_from([1, 3]))
def test_combine_express_roundtrip(coords, degree):
    m2_local = self_module(meson(2))
    basis = cochain_space_basis(m2_local, degree)
    coords = coords[:len(basis)] + [0] * (len(basis) - len(coords))
    assert basis.express(basis.combine(coords)) == coords


@settings(max_examples=25)
@given(st.lists(st.integers(-5, 5), min_size=2, max_size=2))
def test_invariant_members_are_fixed_points(coords):
    t2_local = meson(2)
    m2_local = self_module(t2_local)
    action = make_group_action(t2_local, [("0", Matrix.identity(2)),
                                          ("1", Matrix([[0, 1], [1, 0]]))])
    basis = cochain_space_basis(m2_local, 3, action)
    c = dense(basis.combine(coords))
    ma = self_module_action(action, m2_local)
    for g in range(action.size):
        assert act_dense(action, ma, g, 3, c) == c


GOLDEN_DOCS = Path(__file__).parent / "golden" / "docs"


@pytest.mark.parametrize("degree", [1, 3])
@pytest.mark.parametrize("name", ["bad_dense2", "meson3_diagpert", "meson3_skewpert",
                                  "meson3_cyclicfirst"])
def test_cohomology_of_a_bracket_that_is_no_lts_raises(name, degree):
    # the library does not call verify_lts; these brackets fail it, and the
    # square and cyclic conditions too, so the cochain_violations check of
    # the bracket that CochainComplex makes once, on construction, rejects them
    system = system_from_document(load_document((GOLDEN_DOCS / (name + ".json")).read_text()))
    assert not verify_lts(system.mu).passed
    with pytest.raises(LinAlgError, match="fails the Lie triple system .module. axioms"):
        cohomology(self_module(system), degree)
