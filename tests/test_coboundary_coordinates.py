"""Coboundary coordinates read at the plain free positions of the target,
unchecked.

The rows that CochainComplex.rows keeps for the images of a basis column
rebuild each image exactly in the plain basis of C^(k+2)
(oracles.reconstruct_dense), on plain and invariant complexes, including
a non-monomial action; a bracket is rejected exactly when it fails the square
or cyclic condition (cochain_violations), whatever the module, also when
it fails the fundamental identity alone; the bracket is checked once per
complex and once per coboundary_matrix call; and a dims-only cohomology
of a plain complex reconstructs nothing."""

import random
import sys
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import reconstruct_dense
from test_cohomology import UNIMODULAR, changed_basis
from test_generators import meson_action

from ltsdeform.caps import DEFAULT_CAPS
from ltsdeform.cohomology import (CochainComplex, _coboundary_images, coboundary_matrix,
                                  cochain_space_basis, cochain_violations, cohomology)
from ltsdeform.groups import make_group_action, sign_action, transpose_action_on_rect
from ltsdeform.linalg import LinAlgError, Matrix, PrimeField, QQ
from ltsdeform.lts import (LieTripleSystem, LtsModule, StructureTensor, meson, self_module,
                           skew_lts)

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(7)]


def rows_at_every_plain_row(cx, degree):
    """CochainComplex.rows(degree) at every plain free row of C^(degree +
    2): out of degree 3 the rows are kept at x1 < x2 alone, and each
    column is rebuilt from them by CochainComplex._unfold."""
    rows = cx.rows(degree)
    if degree != 3:
        return rows
    columns = {}
    for i, row in rows.items():
        for j, v in row.items():
            columns.setdefault(j, {})[i] = v
    out = {}
    for j, column in columns.items():
        for i, v in cx._unfold(column).items():
            out.setdefault(i, {})[j] = v
    return out


def unreconstructed_images(module, degree, action=None):
    """Indices of the source columns whose coboundary image differs from
    the plain C^(degree + 2) member with the coordinates that the complex
    keeps for it in its rows (rows_at_every_plain_row)."""
    cx = CochainComplex(module, action)
    source = cx.basis(degree)
    target = cochain_space_basis(module, degree + 2)
    ambient = module.system.dim ** (degree + 2) * module.dim
    images = list(_coboundary_images(module, degree, source.columns, DEFAULT_CAPS))
    columns = [{} for _ in images]
    for i, row in rows_at_every_plain_row(cx, degree).items():
        assert i in range(len(target))
        for j, v in row.items():
            columns[j][i] = v
    assert len(images) == len(source)
    return [j for j, (image, coords) in enumerate(zip(images, columns))
            if reconstruct_dense(target, coords) != [image.get(pos, 0)
                                                     for pos in range(ambient)]]


def complexes(fld):
    """(label, system, action, degrees): each complex is checked plain and
    invariant.  The signed actions need char != 2, where -1 = 1."""
    t2 = meson(2, fld)
    swap = make_group_action(t2, [("0", Matrix.identity(2, fld)),
                                  ("1", Matrix([[0, 1], [1, 0]], fld))])
    rect, transpose = transpose_action_on_rect(2, fld)
    cases = [("meson2/swap", t2, swap, (1, 3, 5)),
             ("rect22/transpose", rect, transpose, (1, 3))]
    if fld.char != 2:
        skew3 = skew_lts(3, fld)
        # D4 conjugated into the changed basis of meson(3): non-monomial
        system, action = meson_action("D4", fld)
        p, pinv = (Matrix(rows, fld) for rows in UNIMODULAR)
        changed = changed_basis(system, p, pinv)
        conj = make_group_action(changed, [(lab, pinv * m * p)
                                           for lab, m in zip(action.labels, action.matrices)])
        cases += [("skew3/sign", skew3, sign_action(skew3), (1, 3)),
                  ("meson3 changed basis/D4", changed, conj, (1, 3))]
    return cases


@pytest.mark.parametrize("fld", FIELDS, ids=repr)
def test_every_coboundary_image_reconstructs_in_the_target_span(fld):
    for label, system, action, degrees in complexes(fld):
        module = self_module(system)
        for group in (None, action):
            for degree in degrees:
                assert not unreconstructed_images(module, degree, group), \
                    (label, group is not None, degree)


@lru_cache(maxsize=None)
def c3_basis(d, fld):
    return cochain_space_basis(self_module(meson(d, fld)), 3)


def random_tensor(rng, d, m, fld):
    return StructureTensor.from_entries({k: rng.randint(-2, 2) for k in range(d * d * m * m)},
                                        (d, d, m), m, fld)


@settings(max_examples=60, deadline=None)
@given(fld=st.sampled_from(FIELDS), d=st.sampled_from([2, 3]),
       coords=st.lists(st.integers(-2, 2), max_size=24),
       perturb=st.none() | st.tuples(st.integers(0, 80), st.integers(1, 6)),
       mdim=st.sampled_from([None, 1, 2]), rng=st.randoms(use_true_random=False))
# a member of C^3(T; T) that fails the fundamental identity alone
@example(fld=QQ, d=2, coords=[1], perturb=None, mdim=None, rng=random.Random(0))
def test_bracket_check_decides_rejection_and_passing_brackets_reconstruct(
        fld, d, coords, perturb, mdim, rng):
    # brackets from C^3(T; T) of meson(d), some perturbed at one entry, on
    # the self-module (mdim None) or on a random module of that dimension
    basis = c3_basis(d, fld)
    mu = basis.combine((coords + [0] * len(basis))[:len(basis)])
    if perturb is None:
        assert cochain_violations(mu).passed
    else:
        pos, shift = perturb
        entries = dict(mu.entries)
        entries[pos % d ** 4] = entries.get(pos % d ** 4, 0) + shift
        mu = StructureTensor.from_entries(entries, mu.dims, d, fld)
    system = LieTripleSystem(d, tuple("x%d" % i for i in range(d)), mu, fld)
    module = (self_module(system) if mdim is None else
              LtsModule(system, mdim, *(random_tensor(rng, d, mdim, fld) for _ in range(3))))
    passed = cochain_violations(mu).passed
    for degree in (1, 3, 5) if d == 2 else (1, 3):
        if passed:
            cohomology(module, degree, want_representatives=False)
            assert not unreconstructed_images(module, degree), degree
        else:
            with pytest.raises(LinAlgError, match="fails the Lie triple system .module. axioms"):
                cohomology(module, degree, want_representatives=False)


def test_dims_only_cohomology_of_a_plain_complex_reconstructs_nothing(monkeypatch):
    # only express reconstructs: the coboundary reads its coordinates
    # unchecked, and a plain basis is built without _span_sum
    module = sys.modules["ltsdeform.cohomology"]
    span_sum, calls = module._span_sum, []

    def counting(columns, coords, field):
        calls.append(len(coords))
        return span_sum(columns, coords, field)

    monkeypatch.setattr(module, "_span_sum", counting)
    for system in (meson(2), meson(3, PrimeField(7))):
        rep = cohomology(self_module(system), 3, want_representatives=False)
        assert rep.dim_space > 0
    assert calls == []


def test_the_bracket_is_checked_once_per_complex_and_per_matrix(monkeypatch):
    # cohomology(3) builds the coboundaries out of degrees 3 and 1
    module = sys.modules["ltsdeform.cohomology"]
    check, checked = module._check_bracket, []

    def counting(m):
        checked.append(m)
        return check(m)

    monkeypatch.setattr(module, "_check_bracket", counting)
    target = self_module(meson(3))
    cohomology(target, 3)
    assert [m is target for m in checked] == [True]
    b1, b3 = (cochain_space_basis(target, k) for k in (1, 3))
    coboundary_matrix(target, b1, b3)
    coboundary_matrix(target, b1, b3)
    assert [m is target for m in checked] == [True] * 3
