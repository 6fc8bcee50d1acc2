"""Generating sets of group actions, and every check that rests on them:
invariant bases against the all-elements oracle, bracket equivariance and
module actions that must be representations."""

import functools
import math
import random
import sys
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import oracles
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (act_dense, generators_every_candidate, invariant_basis_all_elements,
                     projected_rank)
from test_cohomology import UNIMODULAR, changed_basis

from ltsdeform.cohomology import cochain_space_basis, cohomology
from ltsdeform.documents import action_elements_from_document, load_document, system_from_document
from ltsdeform.groups import (GroupActionError, _subgroup, apply_group_sparse, generators,
                              make_group_action, make_module_action, self_module_action,
                              sign_action, transpose_action_on_rect)
from ltsdeform.linalg import Matrix, PrimeField, QQ
from ltsdeform.lts import (LtsModule, StructureTensor, function_lts, make_system, meson,
                           self_module, skew_lts)

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import expected, gen  # noqa: E402

GF = PrimeField(10007)
FIELDS = [QQ, GF]


def signed_perm(perm, signs):
    n = len(perm)
    return tuple(tuple(signs[j] if perm[j] == i else 0 for j in range(n))
                 for i in range(n))


def closure(gens):
    """All products of the generators, sorted."""
    n = len(gens[0])
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    elems, frontier = {ident}, [ident]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                c = tuple(tuple(sum(a[i][k] * g[k][j] for k in range(n))
                                for j in range(n)) for i in range(n))
                if c not in elems:
                    elems.add(c)
                    new.append(c)
        frontier = new
    return sorted(elems)


# signed-permutation groups as generator lists (perm, signs)
GROUPS = {
    "B2": (2, [([1, 0], [1, 1]), ([0, 1], [-1, 1])]),
    "C4": (2, [([1, 0], [1, -1])]),
    "V4": (2, [([0, 1], [-1, 1]), ([0, 1], [1, -1])]),
    "D4": (3, [([1, 0, 2], [1, 1, 1]), ([0, 1, 2], [-1, 1, 1])]),
    "S3xC2": (3, [([1, 0, 2], [1, 1, 1]), ([1, 2, 0], [1, 1, 1]),
                  ([0, 1, 2], [-1, -1, -1])]),
    "B3": (3, [([1, 0, 2], [1, 1, 1]), ([1, 2, 0], [1, 1, 1]),
               ([0, 1, 2], [-1, 1, 1])]),
    # coordinate permutations, which stay distinct over GF(2)
    "S2": (2, [([1, 0], [1, 1])]),
    "S3": (3, [([1, 0, 2], [1, 1, 1]), ([1, 2, 0], [1, 1, 1])]),
}
ORDERS = {"B2": 8, "C4": 4, "V4": 4, "D4": 8, "S3xC2": 12, "B3": 48, "S2": 2, "S3": 6}


@functools.lru_cache(maxsize=None)
def meson_action(name, fld):
    n, gens = GROUPS[name]
    elements = closure([signed_perm(p, s) for p, s in gens])
    system = meson(n, fld)
    mats = [("g%d" % k, Matrix([[fld(v) for v in row] for row in m], fld))
            for k, m in enumerate(elements)]
    return system, make_group_action(system, mats)


def assert_same_basis(got, want):
    assert got.invariant and want.invariant
    assert got.free_positions == want.free_positions
    assert got.columns == want.columns


# the coordinate permutations also over GF(2) and GF(3), where the
# characteristic divides the group order (all but S2 over GF(3)), so that
# averaging over the group would not give the invariants; the signed
# permutations collapse to duplicate elements over GF(2)
CASES = ([(g, d, f) for g in ("B2", "C4", "V4") for d in (1, 3, 5) for f in FIELDS]
         + [(g, d, f) for g in ("D4", "S3xC2", "B3") for d in (1, 3) for f in FIELDS]
         + [(g, d, PrimeField(p)) for g, degrees in (("S2", (1, 3, 5)), ("S3", (1, 3)))
            for d in degrees for p in (2, 3)])


@pytest.mark.parametrize("group,degree,fld", CASES,
                         ids=lambda v: repr(v) if hasattr(v, "char") else None)
def test_invariant_basis_equals_all_elements_oracle(group, degree, fld):
    system, action = meson_action(group, fld)
    module = self_module(system)
    assert_same_basis(cochain_space_basis(module, degree, action),
                      invariant_basis_all_elements(module, degree, action))


@pytest.mark.parametrize("fld", FIELDS, ids=repr)
def test_sign_and_transpose_bases_equal_all_elements_oracle(fld):
    system = skew_lts(3, fld)
    cases = [(system, sign_action(system)), transpose_action_on_rect(2, fld)]
    for system, action in cases:
        module = self_module(system)
        assert_same_basis(cochain_space_basis(module, 3, action),
                          invariant_basis_all_elements(module, 3, action))


@pytest.mark.parametrize("fld", FIELDS, ids=repr)
def test_conjugated_action_takes_the_general_transform_to_the_same_cohomology(fld):
    # S3 x C2 conjugated into the changed basis of meson(3): the element
    # matrices are no longer monomial, so every invariant basis goes through
    # the slot-by-slot contraction, not the move tables
    system, action = meson_action("S3xC2", fld)
    p, pinv = (Matrix(rows, fld) for rows in UNIMODULAR)
    changed = changed_basis(system, p, pinv)
    conj = make_group_action(changed, [(lab, pinv * m * p)
                                       for lab, m in zip(action.labels, action.matrices)])
    assert all(any(sum(1 for v in row if v) > 1 for row in conj.matrices[g].rows)
               for g in generators(conj))
    module = self_module(changed)
    assert_same_basis(cochain_space_basis(module, 3, conj),
                      invariant_basis_all_elements(module, 3, conj))
    want = cohomology(self_module(system), 3, action, want_representatives=False)
    got = cohomology(module, 3, conj, want_representatives=False)
    assert want == got
    assert (got.dim_space, got.dim_cocycles, got.dim_h) == (4, 2, 0)


def test_conjugated_d4_invariant_degree5_basis_is_fixed_by_every_element():
    # D4 conjugated into the changed basis of meson(3): every moved plain
    # column is dense, so the stacked (g.c - c) rows are too, and their
    # echelon form took seconds over QQ in coboundary-row order
    system, action = meson_action("D4", QQ)
    p, pinv = (Matrix(rows, QQ) for rows in UNIMODULAR)
    changed = changed_basis(system, p, pinv)
    conj = make_group_action(changed, [(lab, pinv * m * p)
                                       for lab, m in zip(action.labels, action.matrices)])
    module = self_module(changed)
    basis = cochain_space_basis(module, 5, conj)
    assert len(basis) == len(cochain_space_basis(self_module(system), 5, action)) == 27
    module_action = self_module_action(conj, module)
    ambient = 3 ** 5 * 3
    for col in basis.columns:
        # through QQ, so that the dense transform runs on ints where it can
        data = [QQ(col.get(pos, 0)) for pos in range(ambient)]
        for g in range(conj.size):
            if g != conj.identity_index:
                assert act_dense(conj, module_action, g, 5, data) == data


PERFBENCH_TEMPLATES = sorted(key for key in expected.TEMPLATE_ORDERS
                             if key[0] in ("meson2", "meson3"))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(PERFBENCH_TEMPLATES), st.sampled_from([QQ, PrimeField(7)]),
       st.one_of(st.none(), st.integers(0, 2 ** 16)), st.booleans())
def test_invariant_columns_are_fixed_by_every_element(template, fld, seed, degree5):
    # the basis is the kernel of (g.c - c) for the generators alone: every
    # element, in the template's canonical basis or conjugated into a
    # seeded unimodular one, must fix each column; degree 5 at d = 2 only
    label, name = template
    d = int(label[-1])
    degree = 5 if degree5 and d == 2 else 3
    system = meson(d, fld)
    mats = [Matrix(m, fld) for m in expected.template_elements(label, name)]
    if seed is not None:
        p, pinv = (Matrix(m, fld) for m in gen.unimodular(d, random.Random(seed)))
        system = changed_basis(system, p, pinv)
        mats = [pinv * m * p for m in mats]
    action = make_group_action(system, [("g%d" % k, m) for k, m in enumerate(mats)])
    module = self_module(system)
    module_action = self_module_action(action, module)
    ambient = d ** degree * d
    for col in cochain_space_basis(module, degree, action).columns:
        data = [fld(col.get(pos, 0)) for pos in range(ambient)]
        for g in range(action.size):
            moved = act_dense(action, module_action, g, degree, data)
            assert [fld(v) for v in moved] == data


@functools.lru_cache(maxsize=None)
def copies_action(label, s, fld):
    """function_lts of s copies of a small system under S_s x {+-1}: each
    element permutes the copies and scales by a sign, as a block
    permutation matrix times the sign.  Each element comes with its map of
    basis indices, e_j -> sign * e_index[j], in the order of the action."""
    system = function_lts({"meson2": lambda: meson(2, fld), "meson3": lambda: meson(3, fld),
                           "skew3": lambda: skew_lts(3, fld)}[label](), s)
    d = system.dim // s
    mats, moves = [], []
    for perm, sign in product(permutations(range(s)), (1, -1)):
        index = [perm[c] * d + i for c, i in product(range(s), range(d))]
        rows = [[0] * system.dim for _ in range(system.dim)]
        for j, k in enumerate(index):
            rows[k][j] = sign
        mats.append(("g%d" % len(mats), Matrix(rows, fld)))
        moves.append((index, sign))
    return system, make_group_action(system, mats), moves


@st.composite
def function_lts_actions(draw):
    """s copies of meson(2), meson(3) or skew(3), over QQ or GF(7), under
    the copy permutations and signs, and a degree: at most six basis
    vectors in all, and at most four in degree 3, where the dense oracles
    act on d^4 entries.  GF(7) divides no group order 2 * s!."""
    label = draw(st.sampled_from(["meson2", "meson3", "skew3"]))
    s = draw(st.integers(1, 3 if label == "meson2" else 2))
    system, action, moves = copies_action(label, s,
                                          draw(st.sampled_from([QQ, PrimeField(7)])))
    return system, action, moves, draw(st.sampled_from([1, 3] if system.dim <= 4 else [1]))


@settings(max_examples=20, deadline=None)
@given(function_lts_actions())
def test_invariant_basis_of_a_function_lts_is_fixed_and_has_the_averaged_dimension(case):
    system, action, moves, degree = case
    fld = system.field
    module = self_module(system)
    # degree 3 on every draw, sparse: an element with index map pi and
    # sign moves the entry of c at (a, b, c, v) to (pi a, pi b, pi c, pi v),
    # times sign^4 = 1
    dim = system.dim
    for col in cochain_space_basis(module, 3, action).columns:
        for index, sign in moves:
            moved = {}
            for pos, v in col.items():
                to = 0
                for slot in range(3, -1, -1):
                    to = to * dim + index[pos // dim ** slot % dim]
                moved[to] = v * sign ** 4
            assert moved == col
    # the dense oracles at the drawn degree
    module_action = self_module_action(action, module)
    ambient = dim ** (degree + 1)

    def dense_columns(basis):
        return [[fld(col.get(pos, 0)) for pos in range(ambient)] for col in basis.columns]

    invariant = dense_columns(cochain_space_basis(module, degree, action))
    for data in invariant:
        for g in range(action.size):
            assert [fld(v) for v in act_dense(action, module_action, g, degree, data)] == data
    plain = dense_columns(cochain_space_basis(module, degree))
    assert len(invariant) == projected_rank(action, module_action, degree, plain, fld)


def test_invariant_basis_moves_each_basis_once_per_generator(monkeypatch):
    # one apply_group_sparse call per generator moves every basis column
    calls = []

    def counting(action, module_action, g, degree, columns):
        calls.append((g, degree, len(columns)))
        return apply_group_sparse(action, module_action, g, degree, columns)

    monkeypatch.setattr(sys.modules["ltsdeform.cohomology"], "apply_group_sparse", counting)
    system, action = meson_action("B3", QQ)
    module = self_module(system)
    gens = generators(action)
    for degree in (1, 3):
        calls.clear()
        basis = cochain_space_basis(module, degree, action)
        plain = len(cochain_space_basis(module, degree))
        assert calls == [(g, degree, plain) for g in gens]
        assert len(basis) < plain


def test_group_table_takes_one_product_per_element_and_chosen_generator(monkeypatch):
    # make_group_action multiplies every element by each generator it
    # chooses, and chooses at most log2 |G| (each at least doubles the
    # subgroup reached); the whole table would be |G|^2 = 2304 products
    calls = []
    mul = Matrix.__mul__

    def counting(a, b):
        calls.append(b)
        return mul(a, b)

    n, gens = GROUPS["B3"]
    elements = [("g%d" % k, Matrix(m))
                for k, m in enumerate(closure([signed_perm(p, s) for p, s in gens]))]
    monkeypatch.setattr(Matrix, "__mul__", counting)
    action = make_group_action(meson(n), elements)
    assert action.size == 48
    chosen = {id(b) for b in calls}
    assert len(calls) == 48 * len(chosen) <= 48 * int(math.log2(48))
    # the self-module action is built unchecked: its three actions permute
    # the slots of the bracket, which make_group_action has just checked
    calls.clear()
    self_module_action(action, self_module(action.system))
    assert calls == []


def test_a_valid_element_list_takes_no_rank(monkeypatch):
    # every row of the table holding I proves every element invertible, so
    # rank only names the singular element of a list that is not a group
    ranks = []
    rank = sys.modules["ltsdeform.groups"].rank

    def counting(m):
        ranks.append(m)
        return rank(m)

    monkeypatch.setattr(sys.modules["ltsdeform.groups"], "rank", counting)
    n, gens = GROUPS["B3"]
    elements = [("g%d" % k, Matrix(m))
                for k, m in enumerate(closure([signed_perm(p, s) for p, s in gens]))]
    assert make_group_action(meson(n), elements).size == 48
    assert ranks == []
    # {I, 0} is closed and holds I, but is no group: both are ranked, in order
    zero = Matrix.zero(n, n)
    with pytest.raises(GroupActionError, match="element 'z' is not invertible"):
        make_group_action(meson(n), [("e", Matrix.identity(n)), ("z", zero)])
    assert ranks == [Matrix.identity(n), zero]


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_generators_generate_the_whole_group_and_are_few(group):
    _, action = meson_action(group, QQ)
    gens = generators(action)
    assert action.size == ORDERS[group]
    assert _subgroup(action.mult_table, action.identity_index, gens) == \
        set(range(action.size))
    assert len(gens) <= math.log2(action.size)
    assert action.identity_index not in gens
    # deterministic: cached on the action, and equal on a fresh build
    assert generators(action) is gens
    assert generators(meson_action.__wrapped__(group, QQ)[1]) == gens
    assert generators(meson_action(group, GF)[1]) == gens


def test_trivial_group_has_no_generators():
    system = meson(2)
    action = make_group_action(system, [("e", Matrix.identity(2))])
    assert generators(action) == ()


def test_greedy_choice_takes_the_largest_subgroup_then_the_lowest_index():
    # C4 = <r>, listed so that the involution r^2 comes first: each of r and
    # r^3 generates all four elements, r^2 only two, so the lowest index of
    # those two (r at index 2) is the only generator
    system = meson(2)
    r = Matrix([[0, -1], [1, 0]])
    action = make_group_action(system, [("e", Matrix.identity(2)), ("r2", r * r),
                                        ("r", r), ("r3", r * r * r)])
    assert generators(action) == (2,)


def test_generators_equal_the_every_candidate_oracle_on_every_group():
    # skipping the candidates inside a subgroup closed earlier in the step
    # changes no pick, on every action this file builds
    c4 = Matrix([[0, -1], [1, 0]])
    actions = [meson_action(group, fld)[1] for group in sorted(GROUPS) for fld in FIELDS]
    for fld in FIELDS:
        actions += [sign_action(skew_lts(3, fld)), transpose_action_on_rect(2, fld)[1]]
        system, action = meson_action("S3xC2", fld)
        p, pinv = (Matrix(rows, fld) for rows in UNIMODULAR)
        actions.append(make_group_action(changed_basis(system, p, pinv), [
            (lab, pinv * m * p) for lab, m in zip(action.labels, action.matrices)]))
    actions += [swap_action()[1],
                make_group_action(meson(2), [("e", Matrix.identity(2))]),
                make_group_action(meson(2), [("e", Matrix.identity(2)), ("r2", c4 * c4),
                                             ("r", c4), ("r3", c4 * c4 * c4)])]
    for action in actions:
        assert generators(action) == generators_every_candidate(action)


GOLDEN_DOCS = Path(__file__).parent / "golden" / "docs"


@pytest.mark.parametrize("system_doc,action_doc,picks,closures,oracle_closures", [
    ("meson3", "meson3_b3", (10, 3), 33, 89), ("meson2", "meson2_b2", (3, 1), 7, 11)])
def test_generators_close_fewer_subgroups_on_the_golden_actions(
        monkeypatch, system_doc, action_doc, picks, closures, oracle_closures):
    calls = []

    def counting(table, identity, gens):
        calls.append(tuple(gens))
        return _subgroup(table, identity, gens)

    system = system_from_document(load_document((GOLDEN_DOCS / (system_doc + ".json")).read_text()))
    elements = action_elements_from_document(
        load_document((GOLDEN_DOCS / (action_doc + ".json")).read_text()), system.field)
    monkeypatch.setattr(sys.modules["ltsdeform.groups"], "_subgroup", counting)
    monkeypatch.setattr(oracles, "_subgroup", counting)
    action = make_group_action(system, elements)   # chooses the generators
    assert (generators(action), len(calls)) == (picks, closures)
    calls.clear()
    assert (generators_every_candidate(action), len(calls)) == (picks, oracle_closures)


def test_non_equivariant_element_that_is_no_generator_is_rejected():
    # {I, -I, -W, W} with W an order-2 matrix that skews the meson bracket;
    # -I and -W generate, so W itself is checked only through them
    warp = Matrix([[0, 2], [QQ(Fraction(1, 2)), 0]])
    one = Matrix.identity(2)
    elements = [("e", one), ("-e", one.scale(-1)), ("-w", warp.scale(-1)), ("w", warp)]
    # the same list on the abelian plane, where every matrix is an automorphism
    flat = make_system(["x", "y"], StructureTensor.zero((2, 2, 2), 2))
    assert 3 not in generators(make_group_action(flat, elements))
    with pytest.raises(GroupActionError, match="not equivariant"):
        make_group_action(meson(2), elements)


def swap_action():
    system = meson(2)
    return system, make_group_action(system, [("0", Matrix.identity(2)),
                                              ("1", Matrix([[0, 1], [1, 0]]))])


def test_module_matrices_must_send_the_identity_to_the_identity():
    system, action = swap_action()
    minus = Matrix.identity(2).scale(-1)
    with pytest.raises(GroupActionError, match="identity"):
        make_module_action(action, self_module(system),
                           [minus, Matrix([[0, 1], [1, 0]])])


def test_module_matrices_must_be_a_representation():
    # V(e) = I but V(s)^2 = -I while s^2 = e
    system, action = swap_action()
    with pytest.raises(GroupActionError, match="not a representation"):
        make_module_action(action, self_module(system),
                           [Matrix.identity(2), Matrix([[0, -1], [1, 0]])])


def test_self_module_matrices_are_accepted():
    system, action = meson_action("B3", QQ)
    module = self_module(system)
    ma = make_module_action(action, module, list(action.matrices))
    assert ma.module is module and ma.matrices == action.matrices


def test_self_module_action_runs_no_equivariance_check(monkeypatch):
    system, action = meson_action("B3", QQ)
    groups = sys.modules["ltsdeform.groups"]
    failures = []
    equivariance_failure = groups.equivariance_failure

    def counting(*args):
        failures.append(args)
        return equivariance_failure(*args)

    monkeypatch.setattr(groups, "equivariance_failure", counting)
    module = self_module(system)
    ma = self_module_action(action, module)
    assert ma.module is module and ma.matrices == action.matrices
    assert failures == []


def test_another_module_of_the_same_dimension_is_still_checked():
    # the self-module with one left entry moved, (0, 0, 0) -> 0, is no
    # self-module, and the swap sends that entry to (1, 1, 1) -> 1
    system, action = swap_action()
    module = self_module(system)
    left = module.left.entries | {0: 1}
    other = LtsModule(system, 2, StructureTensor.from_entries(left, (2, 2, 2), 2),
                      module.right, module.middle)
    assert other != module
    with pytest.raises(GroupActionError) as err:
        self_module_action(action, other)
    assert str(err.value) == "module action left is not equivariant under '1' at (0, 0, 0)"


def test_singular_module_matrix_is_rejected():
    system, action = swap_action()
    with pytest.raises(GroupActionError, match="not a representation"):
        make_module_action(action, self_module(system),
                           [Matrix.identity(2), Matrix([[1, 1], [1, 1]])])
