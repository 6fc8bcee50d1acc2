"""The cocycle elimination of CochainComplex.cohomology, which puts each
pivot at the column with the shortest image, against the elimination in
index order (oracles.cohomology_index_order): the same dimensions, the
same canonical cocycle basis and the same representatives, entry for
entry, on every bundled system and action and on the benchmark's seeded
basis changes (perfbench/gen.py, imported read-only)."""

import importlib
import random
import sys
from pathlib import Path

import pytest
from oracles import cohomology_index_order
from test_cohomology import changed_basis

from ltsdeform import bundled_path
from ltsdeform.cohomology import CochainComplex
from ltsdeform.documents import action_elements_from_document, load_document, system_from_document
from ltsdeform.groups import make_group_action
from ltsdeform.linalg import Matrix, PrimeField, QQ
from ltsdeform.lts import self_module

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import gen  # noqa: E402

# the module, not the function of the same name that the package re-exports
cohomology_module = importlib.import_module("ltsdeform.cohomology")
FIELDS = {"QQ": QQ, "GF7": PrimeField(7)}
SYSTEMS = ["matrix2", "meson1", "meson2", "meson2x3", "meson3", "meson4", "rect22", "skew3",
           "sl2", "sym2"]
ACTIONS = {"meson2": "meson2_swap", "skew3": "skew3_sign", "rect22": "rect22_transpose"}


def document(stem):
    return load_document(bundled_path(stem + ".json").read_text())


def exact(entries):
    """Sparse entries with the type of each value, so that an int and an
    integral Fraction differ."""
    return [(k, type(v), v) for k, v in sorted(entries.items())]


def assert_index_order_agrees(cx, degree, monkeypatch):
    dim_z, dim_b, zcols, representatives = cohomology_index_order(cx, degree)
    kernels = []
    original = cohomology_module.canonical_kernel

    def recorded(*args):
        kernels.append(original(*args))
        return kernels[-1]

    monkeypatch.setattr(cohomology_module, "canonical_kernel", recorded)
    report = cx.cohomology(degree)
    monkeypatch.undo()
    assert (report.dim_cocycles, report.dim_coboundaries) == (dim_z, dim_b)
    (cols, free), = kernels
    assert [exact(z) for z in cols] == [exact(z) for z in zcols]
    assert free == [max(z) for z in zcols]
    assert [exact(c.entries) for c in report.representatives] == \
        [exact(c.entries) for c in representatives]


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name, action", [(name, None) for name in SYSTEMS]
                         + sorted(ACTIONS.items()))
def test_bundled_cohomology_agrees_with_the_index_order(name, action, field, monkeypatch):
    system = system_from_document(document(name), FIELDS[field])
    if action is not None:
        action = make_group_action(system, action_elements_from_document(document(action),
                                                                         system.field))
    cx = CochainComplex(self_module(system), action)
    for degree in (3, 5) if system.dim == 2 else (3,):
        assert_index_order_agrees(cx, degree, monkeypatch)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name", ["meson3", "sl2"])
def test_cohomology_after_a_seeded_basis_change_agrees_with_the_index_order(name, field, seed,
                                                                             monkeypatch):
    fld = FIELDS[field]
    system = system_from_document(document(name), fld)
    p, pinv = gen.unimodular(system.dim, random.Random(seed))
    changed = changed_basis(system, Matrix(p, fld), Matrix(pinv, fld))
    assert_index_order_agrees(CochainComplex(self_module(changed)), 3, monkeypatch)
