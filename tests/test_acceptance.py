"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; everything is exact, so there are no tolerances anywhere.
"""

import json
import random
import time

import pytest
from oracles import (action_on_cochain_ambient, coboundary_pointwise, cochain, d_operator,
                     dense, nullspace_from_rref)

from ltsdeform import bundled_path
from ltsdeform.cli import main as cli_main
from ltsdeform.cohomology import (apply_coboundary, coboundary_matrix, cochain_space_basis,
                                  cochain_violations)
from ltsdeform.deformation import (apply_isomorphism, check_deformation_equations,
                                   check_equivalence, extend, infinitesimal,
                                   make_deformation, make_formal_isomorphism,
                                   obstruction, pad_deformation, trivialize)
from ltsdeform.documents import dump_document, load_document, system_from_document
from ltsdeform.groups import make_group_action, self_module_action, sign_action
from ltsdeform.linalg import Matrix, QQ, rref_rows
from ltsdeform.lts import (StructureTensor, from_lie_algebra, function_lts,
                           matrix_lts, meson, rect_lts, self_module, skew_lts,
                           sl2_brackets, sym_lts, verify_lts, verify_module)


def report(n, text):
    print("PASS criterion %d: %s" % (n, text))


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


@pytest.fixture(scope="module")
def worked_example(t2, swap_action):
    def coeffs(i, j, p):
        vec = [0, 0]
        if j == p:
            vec[j] += 1
        if i == p:
            vec[i] -= 1
        return vec

    mu2 = StructureTensor.from_map(coeffs, (2, 2, 2), 2)
    zero = StructureTensor.zero((2, 2, 2), 2)
    return make_deformation(t2, swap_action, [t2.mu, zero, mu2])


def equivariant_cocycles(m2, action):
    b3 = cochain_space_basis(m2, 3, action)
    b5 = cochain_space_basis(m2, 5, action)
    mat = coboundary_matrix(m2, b3, b5)
    rows = ({j: v for j, v in enumerate(row) if v} for row in mat.rows)
    cols, _ = nullspace_from_rref(rref_rows(rows, QQ), len(b3), QQ)
    return [b3.combine(c) for c in cols]


def test_criterion_1_axiom_suite():
    start = time.monotonic()
    systems = [meson(1), meson(2), meson(3), meson(4), matrix_lts(2), skew_lts(3),
               sym_lts(2), rect_lts(2, 2), from_lie_algebra(sl2_brackets()),
               function_lts(meson(2), 3)]
    for system in systems:
        assert verify_lts(system.mu).passed, system.basis_names
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, "axiom suite took %.2fs" % elapsed
    report(1, "all %d builder systems pass the axioms in %.2fs"
              % (len(systems), elapsed))


def test_criterion_2_complex_property(t2, swap_action):
    cases = [("meson(2)", t2, None), ("meson(2)/swap", t2, swap_action)]
    sk3 = skew_lts(3)
    cases += [("skew(3)", sk3, None), ("skew(3)/sign", sk3, sign_action(sk3))]
    for label, system, action in cases:
        module = self_module(system)
        b1 = cochain_space_basis(module, 1, action)
        b3 = cochain_space_basis(module, 3, action)
        b5 = cochain_space_basis(module, 5, action)
        b7 = cochain_space_basis(module, 7, action)
        d1 = coboundary_matrix(module, b1, b3)
        d3 = coboundary_matrix(module, b3, b5)
        d5 = coboundary_matrix(module, b5, b7)
        assert (d3 * d1).is_zero(), label
        assert (d5 * d3).is_zero(), label
    report(2, "d3.d1 = 0 and d5.d3 = 0 as exact matrix products on "
              "meson(2) and skew(3), plain and equivariant")


def test_criterion_3_oracle_equivalence(m2):
    rng = random.Random(2024)
    checked = 0
    for degree in (1, 3, 5):
        basis = cochain_space_basis(m2, degree)
        target = cochain_space_basis(m2, degree + 2)
        mat = coboundary_matrix(m2, basis, target)
        for _ in range(100):
            coords = [rng.randint(-9, 9) for _ in range(len(basis))]
            f = basis.combine(coords)
            assert coboundary_pointwise(m2, f) == target.combine(mat.apply(coords))
            assert apply_coboundary(m2, f) == target.combine(mat.apply(coords))
            checked += 1
    report(3, "pointwise coboundary equals matrix action on %d random "
              "cochains across degrees 1, 3, 5" % checked)


def test_criterion_4_worked_deformation_end_to_end(worked_example, m2):
    assert check_deformation_equations(worked_example).passed
    assert check_deformation_equations(pad_deformation(worked_example, 4)).passed
    n, inf = infinitesimal(worked_example)
    assert n == 2
    assert inf == worked_example.terms[2]
    assert apply_coboundary(m2, inf).is_zero()
    ob = obstruction(worked_example)
    assert ob.cochain.is_zero() and ob.is_cocycle
    ext = extend(worked_example)
    assert ext is not None and ext.order == 3
    assert check_deformation_equations(ext).passed
    report(4, "the order-2 meson(2) deformation checks through order 4, has "
              "2-infinitesimal a cocycle, vanishing obstruction, and a valid "
              "order-3 extension")


def test_criterion_5_dimension_checks(m2, swap_action):
    # computed bases
    dims = {
        "C1": len(cochain_space_basis(m2, 1)),
        "C1_G": len(cochain_space_basis(m2, 1, swap_action)),
        "C3": len(cochain_space_basis(m2, 3)),
        "C3_G": len(cochain_space_basis(m2, 3, swap_action)),
    }
    assert dims == {"C1": 4, "C1_G": 2, "C3": 4, "C3_G": 2}

    # hand parameterizations, checked independently of the nullspace path
    swap = swap_action.matrices[1]
    hand_c1 = [Matrix([[1, 0], [0, 0]]), Matrix([[0, 1], [0, 0]]),
               Matrix([[0, 0], [1, 0]]), Matrix([[0, 0], [0, 1]])]
    assert len(hand_c1) == dims["C1"]
    hand_c1g = [Matrix.identity(2), swap]
    for a in hand_c1g:
        assert a * swap == swap * a
    assert len(hand_c1g) == dims["C1_G"]

    # a degree-3 cochain is fixed by the two values f(g1,g2,g_l); the four
    # unit choices satisfy both constraints
    basis3 = cochain_space_basis(m2, 3)
    hand_c3 = []
    for l in range(2):
        for out in range(2):
            data = [0] * 16
            data[(0 * 2 + 1) * 2 * 2 + l * 2 + out] = 1
            data[(1 * 2 + 0) * 2 * 2 + l * 2 + out] = -1
            c = cochain(data, 3, 2, 2)
            assert cochain_violations(c).passed
            basis3.express(c)
            hand_c3.append(c)
    assert len(hand_c3) == dims["C3"]

    # invariance additionally forces f(g1,g2,g_sigma(l)) = -sigma f(g1,g2,g_l)
    basis3g = cochain_space_basis(m2, 3, swap_action)
    ma = self_module_action(swap_action, m2)
    count = 0
    for val in ([1, 0], [0, 1]):
        data = [0] * 16
        sval = [-val[1], -val[0]]
        for out in range(2):
            data[(0 * 2 + 1) * 2 * 2 + 0 * 2 + out] = val[out]
            data[(1 * 2 + 0) * 2 * 2 + 0 * 2 + out] = -val[out]
            data[(0 * 2 + 1) * 2 * 2 + 1 * 2 + out] = sval[out]
            data[(1 * 2 + 0) * 2 * 2 + 1 * 2 + out] = -sval[out]
        c = cochain(data, 3, 2, 2)
        assert cochain_violations(c).passed
        basis3g.express(c)
        count += 1
    assert count == dims["C3_G"]
    report(5, "dim C1 = 4, C1_G = 2, C3 = 4, C3_G = 2, each agreeing with its "
              "hand parameterization")


def test_criterion_6_obstruction_theorems(t2, m2, swap_action):
    rng = random.Random(77)
    cocycle_basis = equivariant_cocycles(m2, swap_action)
    amb5 = action_on_cochain_ambient(swap_action,
                                     self_module_action(swap_action, m2), 5)
    deformations = []
    while len(deformations) < 20:
        z = StructureTensor.zero((2, 2, 2), 2)
        for zb in cocycle_basis:
            z = z + zb.scale(rng.randint(-3, 3))
        defo = make_deformation(t2, swap_action, [t2.mu, z])
        assert check_deformation_equations(defo).passed
        deformations.append(defo)
        ext = extend(defo)
        if ext is not None and len(deformations) < 20:
            deformations.append(ext)

    extended = 0
    for defo in deformations:
        assert defo.order <= 2
        ob = obstruction(defo)
        for mat in amb5:
            assert mat.apply(dense(ob.cochain)) == dense(ob.cochain)
        assert ob.is_cocycle is True
        ext = extend(defo)
        assert (ext is not None) == (ob.preimage is not None)
        if ext is not None:
            extended += 1
            assert ext.order == defo.order + 1
            assert check_deformation_equations(ext).passed
    report(6, "on %d random equivariant deformations the obstruction is "
              "invariant, a 5-cocycle, and extension succeeds exactly on "
              "coboundaries (%d extensions verified)"
              % (len(deformations), extended))


def test_criterion_7_gauge_suite(t2, m2, swap_action, worked_example):
    rng = random.Random(99)
    trivial = make_deformation(t2, swap_action, [t2.mu])
    count = 0
    for base in (trivial, worked_example):
        for _ in range(10):
            mats = [Matrix.identity(2)]
            for _ in range(rng.randint(1, 4)):
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                mats.append(Matrix([[a, b], [b, a]]))
            iso = make_formal_isomorphism(swap_action, mats)
            gauged = apply_isomorphism(base, iso, 4)
            res = check_equivalence(base, gauged, 4)
            assert res.equivalent
            again = apply_isomorphism(base, res.isomorphism, 4)
            assert again.terms == gauged.terms
            psi1 = iso.term(1)
            psi1_c = cochain([psi1.rows[l][i] for i in range(2) for l in range(2)],
                             1, 2, 2)
            diff = base.term(1) - gauged.terms[1]
            assert diff == apply_coboundary(m2, psi1_c)
            if base is trivial:
                reduced, log = trivialize(gauged, 4)
                assert log[-1]["status"] == "trivial"
                assert all(reduced.terms[i].is_zero() for i in range(1, 5))
            count += 1
    report(7, "%d random equivariant gauge transforms round-trip through "
              "equivalence search, satisfy the first-order class identity, "
              "and gauge transforms of the trivial deformation trivialize"
              % count)


def test_criterion_8_invariant_coboundary_closure(m2, swap_action):
    ma = self_module_action(swap_action, m2)
    amb = {deg: action_on_cochain_ambient(swap_action, ma, deg) for deg in (3, 5)}
    checked = 0
    for degree in (1, 3):
        basis = cochain_space_basis(m2, degree, swap_action)
        for j in range(len(basis)):
            img = dense(apply_coboundary(m2, basis.combine({j: 1})))
            for mat in amb[degree + 2]:
                assert mat.apply(img) == img
            checked += 1
    report(8, "coboundaries of all %d invariant basis cochains in degrees 1 "
              "and 3 are fixed by both ambient action matrices" % checked)


def test_criterion_9_d_identity_and_theta_relations():
    for system in (meson(2), skew_lts(3), matrix_lts(2)):
        module = self_module(system)
        assert verify_module(module).passed  # includes both theta relations
        for a in range(system.dim):
            for b in range(system.dim):
                dm = d_operator(module, a, b)
                for c in range(system.dim):
                    vec = [0] * system.dim
                    vec[c] = 1
                    assert dm.apply(vec) == list(system.bracket_basis(a, b, c))
    report(9, "D(a,b)c = [abc] and both theta relations hold exactly on "
              "meson(2), skew(3), matrix(2) self-modules")


def test_criterion_10_cli_contract(capsys, tmp_path):
    data = lambda name: str(bundled_path(name))

    # criterion 1 through the CLI
    for name in ("meson1.json", "meson2.json", "meson3.json", "meson4.json",
                 "matrix2.json", "skew3.json", "sym2.json", "rect22.json",
                 "sl2.json", "meson2x3.json"):
        assert cli_main(["verify", data(name)]) == 0

    # criterion 4 through the CLI
    assert cli_main(["deform-check", data("meson2_swap_t2.json"),
                     "--order", "4"]) == 0
    capsys.readouterr()
    assert cli_main(["deform-obstruct", data("meson2_swap_t2.json"),
                     "--json"]) == 0
    ob_report = json.loads(capsys.readouterr().out)
    assert ob_report["is_zero"] and ob_report["is_coboundary"]
    ext_path = tmp_path / "extended.json"
    assert cli_main(["deform-extend", data("meson2_swap_t2.json"),
                     "-o", str(ext_path)]) == 0
    assert load_document(ext_path.read_text())["terms"][-1]["order"] == 3
    capsys.readouterr()

    # criterion 5 through the CLI
    for args, want in [(["cohomology", data("meson2.json"), "--degree", "1",
                         "--json"], 4),
                       (["cohomology", data("meson2.json"), "--degree", "1",
                         "--equivariant", data("meson2_swap.json"), "--json"], 2),
                       (["cohomology", data("meson2.json"), "--degree", "3",
                         "--json"], 4),
                       (["cohomology", data("meson2.json"), "--degree", "3",
                         "--equivariant", data("meson2_swap.json"), "--json"], 2)]:
        assert cli_main(args) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["dim_space"] == want

    # documented failure exit codes
    bad = tmp_path / "bad.json"
    doc = load_document(bundled_path("meson2.json").read_text())
    doc["bracket"] = doc["bracket"] + [[0, 0, 0, {"1": "1"}]]
    bad.write_text(dump_document(doc))
    assert cli_main(["verify", str(bad)]) == 1
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert cli_main(["verify", str(broken)]) == 2

    # serialize/parse round trip is byte-exact on every bundled document
    from ltsdeform.documents import (action_elements_from_document,
                                     action_to_document, system_to_document)
    from ltsdeform.groups import make_group_action as mga

    for name in ("meson1.json", "meson2.json", "meson3.json", "meson4.json",
                 "matrix2.json", "skew3.json", "sym2.json", "rect22.json",
                 "sl2.json", "meson2x3.json"):
        text = bundled_path(name).read_text()
        system = system_from_document(load_document(text))
        assert dump_document(system_to_document(system)) == text
    for name, sysname in (("meson2_swap.json", "meson2.json"),
                          ("skew3_sign.json", "skew3.json"),
                          ("rect22_transpose.json", "rect22.json")):
        text = bundled_path(name).read_text()
        system = system_from_document(load_document(bundled_path(sysname).read_text()))
        action = mga(system, action_elements_from_document(load_document(text),
                                                           system.field))
        assert dump_document(action_to_document(action)) == text
    capsys.readouterr()
    report(10, "bundled documents reproduce the axiom, deformation and "
               "dimension criteria through the CLI with documented exit "
               "codes, and serialization round-trips byte-exactly")
