"""The sparse cochain complex against the dense references: the sparse
coboundary against the pointwise formula, preimages against the dense
solve, and the bases that the deformation layer builds."""

import importlib
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st
from oracles import coboundary_pointwise

from ltsdeform.cohomology import (CochainComplex, apply_coboundary, coboundary_matrix,
                                  is_coboundary)
from ltsdeform.deformation import check_equivalence, make_deformation
from ltsdeform.groups import sign_action
from ltsdeform.linalg import PrimeField, QQ, solve
from ltsdeform.lts import StructureTensor, make_system, meson, self_module, skew_lts, sym_lts

BUILDERS = {"meson2": lambda fld: meson(2, fld), "sym2": lambda fld: sym_lts(2, fld),
            "skew3": lambda fld: skew_lts(3, fld)}
FIELDS = {"QQ": QQ, "GF7": PrimeField(7)}
# the module, not the function of the same name that the package re-exports
cohomology_module = importlib.import_module("ltsdeform.cohomology")


@lru_cache(maxsize=None)
def plain_complex(label, field):
    return CochainComplex(self_module(BUILDERS[label](FIELDS[field])))


def random_cochain(data, cx, degree):
    """A random combination of at most four basis columns."""
    basis = cx.basis(degree)
    coords = data.draw(st.dictionaries(st.integers(0, len(basis) - 1), st.integers(-4, 4),
                                       max_size=4))
    return basis.combine({j: cx.field(v) for j, v in coords.items()})


cases = st.tuples(st.sampled_from(sorted(BUILDERS)), st.sampled_from(sorted(FIELDS)))


@settings(max_examples=30, deadline=None)
@given(cases, st.sampled_from([1, 3, 5]), st.data())
def test_sparse_coboundary_matches_the_pointwise_formula(case, degree, data):
    cx = plain_complex(*case)
    f = random_cochain(data, cx, degree)
    df = apply_coboundary(cx.module, f)
    assert df == coboundary_pointwise(cx.module, f)
    if degree < 5:   # from degree 5, d(d f) would have degree 9, past the degree cap
        assert apply_coboundary(cx.module, df).is_zero()


@settings(max_examples=30, deadline=None)
@given(cases, st.sampled_from([1, 3]), st.data())
def test_preimage_of_a_coboundary_has_the_same_image(case, degree, data):
    cx = plain_complex(*case)
    f = random_cochain(data, cx, degree)
    df = apply_coboundary(cx.module, f)
    pre = is_coboundary(cx.module, df)
    assert pre is not None
    assert apply_coboundary(cx.module, pre) == df


@settings(max_examples=30, deadline=None)
@given(cases, st.sampled_from([1, 3]), st.booleans(), st.data())
def test_augmented_solve_matches_the_dense_solve(case, degree, inside, data):
    cx = plain_complex(*case)
    source, target = cx.basis(degree), cx.basis(degree + 2)
    if inside:
        rhs = apply_coboundary(cx.module, random_cochain(data, cx, degree))
    else:
        rhs = random_cochain(data, cx, degree + 2)
    x = solve(coboundary_matrix(cx.module, source, target), target.express(rhs))
    pre = cx.preimage(rhs)
    if x is None:
        assert pre is None and not inside
    else:
        assert pre == source.combine(x)


def test_the_complex_caches_bases_and_coboundaries(monkeypatch):
    calls = []
    original = cohomology_module.cochain_space_basis

    def counted(module, degree, *args, **kwargs):
        calls.append(degree)
        return original(module, degree, *args, **kwargs)

    monkeypatch.setattr(cohomology_module, "cochain_space_basis", counted)
    cx = CochainComplex(self_module(meson(3)))
    cx.cohomology(3)
    cx.cohomology(3)
    assert cx.preimage(apply_coboundary(cx.module, cx.basis(1).combine({0: 1}))) is not None
    assert sorted(calls) == [1, 3, 5]


def record_bases(monkeypatch):
    """The actions of every cochain_space_basis call, recorded."""
    actions = []
    original = cohomology_module.cochain_space_basis

    def recording(module, degree, action=None, *args, **kwargs):
        actions.append(action)
        return original(module, degree, action, *args, **kwargs)

    monkeypatch.setattr(cohomology_module, "cochain_space_basis", recording)
    return actions


def test_unobstructed_equivalence_builds_no_plain_basis(monkeypatch):
    t3 = meson(3)
    action = sign_action(t3)
    trivial = make_deformation(t3, action, [t3.mu])
    actions = record_bases(monkeypatch)
    assert check_equivalence(trivial, trivial, 3).equivalent
    assert actions and None not in actions


def test_obstructed_equivalence_builds_the_plain_complex(monkeypatch):
    abelian = make_system(["a1", "a2"], StructureTensor.zero((2, 2, 2), 2))
    action = sign_action(abelian)
    t_nu = make_deformation(abelian, action, [abelian.mu, meson(2).mu])
    trivial = make_deformation(abelian, action, [abelian.mu])
    actions = record_bases(monkeypatch)
    res = check_equivalence(t_nu, trivial, 1)
    assert res.obstructed_order == 1 and res.plain_solvable is False
    assert None in actions


def test_preimage_needs_a_degree_above_one():
    cx = plain_complex("meson2", "QQ")
    with pytest.raises(ValueError, match="degree-1"):
        cx.preimage(cx.basis(1).combine({0: 1}))
