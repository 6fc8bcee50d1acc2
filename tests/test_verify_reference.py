"""The sparse axiom checks against the pointwise references: verify_lts
and verify_module on perturbed self-modules, whose left, right and middle
actions (and the bracket) are perturbed independently, must give the
reports of oracles.verify_lts_loop and verify_module_loop, violation for
violation, in every field and with or without every witness; and
cochain_violations must give the report of cochain_violations_loop."""

from functools import lru_cache
from math import prod

from hypothesis import example, given, settings, strategies as st
from oracles import cochain_violations_loop, verify_lts_loop, verify_module_loop

from ltsdeform.cohomology import cochain_violations
from ltsdeform.linalg import PrimeField, QQ
from ltsdeform.lts import (LieTripleSystem, LtsModule, StructureTensor, meson,
                           self_module, sym_lts, verify_lts, verify_module)

BUILDERS = {"meson2": lambda fld: meson(2, fld), "meson3": lambda fld: meson(3, fld),
            "sym2": lambda fld: sym_lts(2, fld)}
FIELDS = {"QQ": QQ, "GF2": PrimeField(2), "GF7": PrimeField(7)}
PARTS = ("mu", "left", "right", "middle")


@lru_cache(maxsize=None)
def base_module(label, field):
    return self_module(BUILDERS[label](FIELDS[field]))


def perturbed(tensor, changes):
    """The tensor with the entries at the given flat indices replaced."""
    size = prod(tensor.dims) * tensor.dim_out
    entries = dict(tensor.entries)
    for key, v in changes.items():
        entries[key % size] = v
    return StructureTensor.from_entries(entries, tensor.dims, tensor.dim_out, tensor.field)


changes = st.dictionaries(st.integers(0, 10 ** 6), st.integers(-2, 2), max_size=3)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(BUILDERS)), st.sampled_from(sorted(FIELDS)),
       st.fixed_dictionaries({part: changes for part in PARTS}), st.booleans())
@example("meson2", "QQ", {"mu": {}, "left": {}, "right": {5: 1}, "middle": {}}, True)
@example("meson3", "GF7", {"mu": {}, "left": {}, "right": {40: 3}, "middle": {}}, False)
@example("sym2", "GF2", {"mu": {1: 1}, "left": {0: 1}, "right": {}, "middle": {7: 1}},
         True)
def test_sparse_reports_equal_the_pointwise_references(label, field, edits, all_witnesses):
    base = base_module(label, field)
    fld = FIELDS[field]
    parts = {"mu": base.system.mu, "left": base.left, "right": base.right,
             "middle": base.middle}
    parts = {name: perturbed(t, {k: fld(v) for k, v in edits[name].items()})
             for name, t in parts.items()}
    system = LieTripleSystem(base.system.dim, base.system.basis_names, parts["mu"], fld)
    module = LtsModule(system, base.dim, parts["left"], parts["right"], parts["middle"])
    assert verify_lts(parts["mu"], all_witnesses) == verify_lts_loop(parts["mu"],
                                                                     all_witnesses)
    assert verify_module(module, all_witnesses) == verify_module_loop(module, all_witnesses)


def test_a_perturbed_theta_breaks_both_relations_in_place():
    """A theta relation reads the residual matrix row-major over (l, w) and
    negates the fundamental identity; a single change of theta on meson2
    shows both in the references' layout."""
    base = base_module("meson2", "QQ")
    module = LtsModule(base.system, base.dim, base.left,
                       perturbed(base.right, {5: QQ(1)}), base.middle)
    report = verify_module(module, all_witnesses=True)
    assert report == verify_module_loop(module, all_witnesses=True)
    axioms = {v.axiom for v in report.violations}
    assert {"theta-square", "theta-d"} <= axioms
    assert all(len(v.residual) == 4 for v in report.violations
               if v.axiom.startswith("theta"))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(FIELDS) + ["GF3"]), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from([1, 3, 5]), changes, st.booleans())
@example("QQ", 2, 1, 3, {0: 1, 2: 1}, True)
def test_cochain_violations_equal_the_written_out_conditions(field, d, m, degree, edits,
                                                            all_witnesses):
    fld = PrimeField(3) if field == "GF3" else FIELDS[field]
    c = perturbed(StructureTensor.zero((d,) * degree, m, fld),
                  {k: fld(v) for k, v in edits.items()})
    assert cochain_violations(c, all_witnesses) == cochain_violations_loop(c, all_witnesses)
