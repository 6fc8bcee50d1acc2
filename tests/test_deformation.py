import json
import random
import re
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (check_terms_loop, cochain, equivalence_gap_two_series, evaluate_dense,
                     fundamental_residual_loop, gauge_dense)

from ltsdeform import bundled_path, deformation
from ltsdeform.cohomology import apply_coboundary, coboundary_matrix, cochain_space_basis
from ltsdeform.deformation import (DeformationError, FormalIsomorphism, _gauge,
                                   apply_isomorphism, check_deformation_equations,
                                   check_equivalence, extend, infinitesimal,
                                   make_deformation, make_formal_isomorphism, obstruction,
                                   pad_deformation, rigidity_certificate, trivialize)
from ltsdeform.documents import (action_elements_from_document, deformation_from_document,
                                  deformation_terms, load_document, system_from_document)
from ltsdeform.groups import (make_group_action, sign_action, transpose_action_on_rect,
                              trivial_action)
from ltsdeform.linalg import Matrix, PrimeField, QQ, nullspace_from_rref, rref_rows
from ltsdeform.lts import (StructureTensor, make_system, meson, self_module, skew_lts,
                           sym_lts)


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


def mu2_tensor():
    def coeffs(i, j, p):
        vec = [0, 0]
        if j == p:
            vec[j] += 1
        if i == p:
            vec[i] -= 1
        return vec

    return StructureTensor.from_map(coeffs, (2, 2, 2), 2)


@pytest.fixture(scope="module")
def worked_example(t2, swap_action):
    zero = StructureTensor.zero((2, 2, 2), 2)
    return make_deformation(t2, swap_action, [t2.mu, zero, mu2_tensor()])


def equivariant_cocycle_basis(m2, swap_action):
    b3 = cochain_space_basis(m2, 3, swap_action)
    b5 = cochain_space_basis(m2, 5, swap_action)
    mat = coboundary_matrix(m2, b3, b5)
    rows = ({j: v for j, v in enumerate(row) if v} for row in mat.rows)
    cols, _ = nullspace_from_rref(rref_rows(rows, QQ), len(b3), QQ)
    return [b3.combine(col) for col in cols]


def random_equivariant_cocycle(m2, swap_action, rng):
    zs = equivariant_cocycle_basis(m2, swap_action)
    acc = StructureTensor.zero((2, 2, 2), 2)
    for z in zs:
        acc = acc + z.scale(rng.randint(-3, 3))
    return acc


def random_equivariant_iso(swap_action, rng, order):
    mats = [Matrix.identity(2)]
    for _ in range(order):
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        mats.append(Matrix([[a, b], [b, a]]))
    return make_formal_isomorphism(swap_action, mats)


# ---------------------------------------------------------------------------
# construction and the order equations


def test_worked_example_is_accepted(worked_example):
    assert worked_example.order == 2
    report = check_deformation_equations(worked_example)
    assert report.passed
    assert [c.order for c in report.orders] == [0, 1, 2]


def test_worked_example_padded_to_order_four(worked_example):
    padded = pad_deformation(worked_example, 4)
    report = check_deformation_equations(padded)
    assert report.passed and len(report.orders) == 5


def test_trivial_deformation_is_accepted(t2, swap_action):
    defo = make_deformation(t2, swap_action, [t2.mu])
    assert defo.order == 0
    assert check_deformation_equations(defo).passed
    assert infinitesimal(defo) is None


def test_wrong_leading_term_is_rejected(t2, swap_action):
    with pytest.raises(DeformationError, match="term 0"):
        make_deformation(t2, swap_action, [StructureTensor.zero((2, 2, 2), 2)])


def test_term_violating_square_condition_is_rejected(t2, swap_action):
    bad = StructureTensor.from_map(lambda i, j, k: [1, 0], (2, 2, 2), 2)
    with pytest.raises(DeformationError, match="cochain conditions"):
        make_deformation(t2, swap_action, [t2.mu, bad])


def test_non_equivariant_term_is_rejected(t2, swap_action):
    # alternating and cyclic, but not swap-equivariant: f(g1,g2,g1) = g1 only
    def coeffs(i, j, p):
        sign = 1 if (i, j) == (0, 1) else (-1 if (i, j) == (1, 0) else 0)
        return [sign, 0] if p == 0 else [0, 0]

    bad = StructureTensor.from_map(coeffs, (2, 2, 2), 2)
    with pytest.raises(DeformationError, match="equivariant"):
        make_deformation(t2, swap_action, [t2.mu, bad])


def counting(monkeypatch, *names):
    """Count the calls that deformation makes through each of its names."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def wrapper(*args, _name=name, _orig=getattr(deformation, name), **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(deformation, name, wrapper)
    return calls


@cache
def rect22_setting():
    system, action = transpose_action_on_rect(2)
    module = self_module(system)
    return system, action, cochain_space_basis(module, 3), cochain_space_basis(module, 3, action)


def planted_term(kind, rng):
    """A degree-3 term of rect22 under transposition: an invariant cochain,
    a plain one (most are not equivariant), or an invariant one with a
    square fault, a cyclic fault or both at random indices."""
    _, _, plain, invariant = rect22_setting()
    basis = plain if kind == "plain" else invariant
    term = basis.combine([rng.randint(-1, 1) for _ in basis.columns])
    a, b, c = rng.sample(range(4), 3)
    l = rng.randrange(4)
    fault = {}
    if kind in ("square", "both"):
        fault[((a * 4 + a) * 4 + b) * 4 + l] = 1
    if kind in ("cyclic", "both"):
        fault[((a * 4 + b) * 4 + c) * 4 + l] = 1
        fault[((b * 4 + a) * 4 + c) * 4 + l] = -1
    return term + StructureTensor.from_entries(fault, (4, 4, 4), 4)


def raised(fn, *args):
    try:
        fn(*args)
    except DeformationError as exc:
        return str(exc)
    return None


def test_term_list_checks_report_what_the_per_term_loop_reports():
    system, action, _, _ = rect22_setting()
    rng = random.Random(22)
    kinds = ("good", "good", "plain", "square", "cyclic", "both")
    seen = set()
    for _ in range(60):
        terms = [system.mu] + [planted_term(rng.choice(kinds), rng)
                               for _ in range(rng.randint(1, 5))]
        expected = raised(check_terms_loop, action, terms)
        assert raised(make_deformation, system, action, terms) == expected
        if expected is not None:
            seen.add(re.match(r"term (\d+) (?:.*: (\w+) at|is not equivariant)",
                              expected).groups())
    # faults of every kind, reported at several orders
    assert {axiom for _, axiom in seen} == {"square", "cyclic", None}
    assert len({order for order, _ in seen}) >= 3


def test_a_term_list_is_checked_in_one_cochain_and_one_equivariance_call(
        monkeypatch, worked_example):
    calls = counting(monkeypatch, "cochain_violations", "equivariance_failure")
    padded = list(pad_deformation(worked_example, 5).terms)
    make_deformation(worked_example.system, worked_example.action, padded)
    assert calls == {"cochain_violations": 1, "equivariance_failure": 1}
    # terms 2..4 pass, term 5 fails the square condition
    padded[4] = padded[3] = padded[2]
    padded[5] = StructureTensor.from_map(lambda i, j, k: [1, 0], (2, 2, 2), 2)
    with pytest.raises(DeformationError, match="term 5 violates"):
        make_deformation(worked_example.system, worked_example.action, padded)
    assert calls == {"cochain_violations": 2, "equivariance_failure": 2}


def test_order1_residual_is_minus_the_coboundary(m2, t2, swap_action):
    # for terms [mu, z] the order-1 equation residual is exactly -delta3(z)
    rng = random.Random(5)
    b3 = cochain_space_basis(m2, 3, swap_action)
    z = b3.combine([rng.randint(-3, 3) for _ in range(len(b3))])
    defo = make_deformation(t2, swap_action, [t2.mu, z])
    report = check_deformation_equations(defo)
    delta = apply_coboundary(m2, z)
    assert report.orders[1].passed == delta.is_zero()


def test_infinitesimal_of_worked_example_is_a_cocycle(worked_example, m2):
    n, term = infinitesimal(worked_example)
    assert n == 2
    assert term == mu2_tensor()
    assert apply_coboundary(m2, term).is_zero()


def test_first_nonzero_term_is_reported(t2, swap_action, m2):
    rng = random.Random(9)
    z = random_equivariant_cocycle(m2, swap_action, rng)
    defo = make_deformation(t2, swap_action, [t2.mu, z])
    if z.is_zero():
        assert infinitesimal(defo) is None
    else:
        n, c = infinitesimal(defo)
        assert n == 1 and c == z


# ---------------------------------------------------------------------------
# obstructions and extension


def test_worked_example_obstruction_vanishes(worked_example):
    ob = obstruction(worked_example)
    assert ob.cochain.is_zero()
    assert ob.is_cocycle is True
    assert ob.preimage is not None and ob.preimage.is_zero()


def test_order1_obstruction_formula(t2, swap_action, m2):
    # F_2(a,b,c,d,e) = z(a,b,z(c,d,e)) - z(z(a,b,c),d,e) - z(c,z(a,b,d),e)
    #                  - z(c,d,z(a,b,e))
    from itertools import product

    rng = random.Random(13)
    zt = random_equivariant_cocycle(m2, swap_action, rng)
    defo = make_deformation(t2, swap_action, [t2.mu, zt])
    assert check_deformation_equations(defo).passed
    ob = obstruction(defo)
    data = []
    for a, b, c, dd, e in product(range(2), repeat=5):
        t1 = evaluate_dense(zt, a, b, zt.basis_value(c, dd, e))
        t2_ = evaluate_dense(zt, zt.basis_value(a, b, c), dd, e)
        t3 = evaluate_dense(zt, c, zt.basis_value(a, b, dd), e)
        t4 = evaluate_dense(zt, c, dd, zt.basis_value(a, b, e))
        data.extend(x - y - u - v for x, y, u, v in zip(t1, t2_, t3, t4))
    assert ob.cochain == cochain(data, 5, 2, 2)


def test_extension_of_order0_always_exists(t2, swap_action):
    defo = make_deformation(t2, swap_action, [t2.mu])
    ext = extend(defo)
    assert ext is not None and ext.order == 1
    assert check_deformation_equations(ext).passed


def test_worked_example_extends_with_zero_term(worked_example):
    ext = extend(worked_example)
    assert ext is not None and ext.order == 3
    assert ext.terms[3].is_zero()
    assert check_deformation_equations(ext).passed


def test_padding_leaves_residuals_unchanged(worked_example):
    base = check_deformation_equations(worked_example)
    padded = check_deformation_equations(pad_deformation(worked_example, 5))
    for c_base, c_pad in zip(base.orders, padded.orders):
        assert (c_base.passed, c_base.witness) == (c_pad.passed, c_pad.witness)


# ---------------------------------------------------------------------------
# gauge transformations and equivalence


def test_identity_isomorphism_fixes_deformations(worked_example, swap_action):
    iso = make_formal_isomorphism(swap_action, [Matrix.identity(2)])
    assert apply_isomorphism(worked_example, iso, 2).terms == worked_example.terms


def test_isomorphism_needs_identity_leading_term(swap_action):
    with pytest.raises(DeformationError, match="identity"):
        make_formal_isomorphism(swap_action, [Matrix([[2, 0], [0, 2]])])


def test_isomorphism_terms_must_be_equivariant(swap_action):
    with pytest.raises(DeformationError, match="commute"):
        make_formal_isomorphism(swap_action, [Matrix.identity(2),
                                              Matrix([[1, 0], [0, -1]])])


def test_gauge_of_trivial_gives_minus_coboundary(t2, swap_action, m2):
    trivial = make_deformation(t2, swap_action, [t2.mu])
    psi = Matrix([[1, 2], [2, 1]])
    iso = make_formal_isomorphism(swap_action, [Matrix.identity(2), psi])
    gauged = apply_isomorphism(trivial, iso, 3)
    psi_c = cochain([psi.rows[l][i] for i in range(2) for l in range(2)], 1, 2, 2)
    assert gauged.terms[1] == apply_coboundary(m2, psi_c).scale(-1)


def test_gauge_first_order_class_identity(worked_example, swap_action, m2):
    # mu_1 - gauged mu_1 = delta1(psi_1) for every equivariant isomorphism
    rng = random.Random(21)
    for _ in range(10):
        iso = random_equivariant_iso(swap_action, rng, order=3)
        gauged = apply_isomorphism(worked_example, iso, 4)
        psi1 = iso.terms[1]
        psi1_c = cochain([psi1.rows[l][i] for i in range(2) for l in range(2)], 1, 2, 2)
        lhs = worked_example.term(1) - gauged.terms[1]
        assert lhs == apply_coboundary(m2, psi1_c)


def test_gauge_composition_acts_like_sequential_application(worked_example, swap_action):
    rng = random.Random(33)
    cap = 4
    iso1 = random_equivariant_iso(swap_action, rng, order=cap)
    iso2 = random_equivariant_iso(swap_action, rng, order=cap)
    seq = apply_isomorphism(apply_isomorphism(worked_example, iso1, cap), iso2, cap)
    # truncated product (iso2 . iso1)_r = sum_{i+j=r} psi2_i psi1_j
    prod_terms = []
    for r in range(cap + 1):
        acc = Matrix.zero(2, 2)
        for i in range(r + 1):
            acc = acc + iso2.term(i) * iso1.term(r - i)
        prod_terms.append(acc)
    prod = make_formal_isomorphism(swap_action, prod_terms)
    direct = apply_isomorphism(worked_example, prod, cap)
    assert seq.terms == direct.terms


def test_equivalence_roundtrip(worked_example, swap_action):
    rng = random.Random(17)
    for _ in range(5):
        iso = random_equivariant_iso(swap_action, rng, order=3)
        gauged = apply_isomorphism(worked_example, iso, 4)
        res = check_equivalence(worked_example, gauged, 4)
        assert res.equivalent
        back = apply_isomorphism(worked_example, res.isomorphism, 4)
        assert back.terms == gauged.terms


def test_equivalence_of_identical_deformations_is_identity(worked_example):
    res = check_equivalence(worked_example, worked_example, 3)
    assert res.equivalent
    for i, m in enumerate(res.isomorphism.terms):
        assert m == (Matrix.identity(2) if i == 0 else Matrix.zero(2, 2))


def test_obstructed_equivalence_reports_the_order():
    # an abelian system has delta1 = 0, so a nonzero infinitesimal can never
    # be matched by any gauge of the trivial deformation
    system = make_system(["x", "y"], StructureTensor.zero((2, 2, 2), 2))
    action = trivial_action(system)
    trivial = make_deformation(system, action, [system.mu])

    def coeffs(i, j, p):
        if (i, j) == (0, 1):
            return [0, 1] if p == 0 else [0, 0]
        if (i, j) == (1, 0):
            return [0, -1] if p == 0 else [0, 0]
        return [0, 0]

    z = StructureTensor.from_map(coeffs, (2, 2, 2), 2)
    other = make_deformation(system, action, [system.mu, z])
    assert check_deformation_equations(other).passed
    res = check_equivalence(trivial, other, 2)
    assert not res.equivalent
    assert res.obstructed_order == 1
    assert not res.witness.is_zero()
    assert res.plain_solvable is False


def bundled_deformation(name):
    def doc(n):
        return load_document(bundled_path(n).read_text())

    system_ref, action_ref, raw_terms = deformation_from_document(doc(name))
    system = system_from_document(doc(system_ref))
    action = make_group_action(system, action_elements_from_document(doc(action_ref),
                                                                     system.field))
    terms = deformation_terms(raw_terms, system.dim, system.field)
    return make_deformation(system, action, [system.mu] + terms)


def test_equivalence_at_a_cap_below_the_order_holds_both_ways():
    t2 = bundled_deformation("meson2_swap_t2.json")
    trivial = bundled_deformation("meson2_swap_trivial.json")
    assert t2.order == 2
    assert check_equivalence(t2, trivial, 1).equivalent
    assert check_equivalence(trivial, t2, 1).equivalent


def test_trivialize_at_a_cap_below_the_order_matches_the_command_line():
    golden = Path(__file__).parent / "golden" / "deform-trivialize-t2-cap1.json"
    reduced, log = trivialize(bundled_deformation("meson2_swap_t2.json"), 1)
    assert log == json.loads(golden.read_text())["log"]
    assert reduced.order == 1


def sym2_coboundary_deformation():
    """The order-1 deformation of sym2 (no action) with mu_1 = d(e_0 -> e_0),
    the one of tests/golden/docs/sym2_cob_e00.json."""
    sym2 = sym_lts(2)
    cob = apply_coboundary(self_module(sym2), StructureTensor((3,), 3, {0: 1}))
    return make_deformation(sym2, trivial_action(sym2), [sym2.mu, cob])


def test_obstruction_of_a_coboundary_infinitesimal_is_nonzero_and_unobstructed():
    # mu_2 = 0 fails the order-2 equation, so F = mu_1(mu_1) is not zero
    defo = sym2_coboundary_deformation()
    mu1 = defo.terms[1]
    ob = obstruction(defo)
    assert not ob.cochain.is_zero()
    assert ob.cochain.entries == fundamental_residual_loop([(mu1, mu1)], 3)
    assert ob.is_cocycle is True and ob.preimage is not None
    assert check_deformation_equations(extend(defo)).passed


def test_obstruction_leaves_the_membership_check_to_its_preimage_call(monkeypatch):
    defo = sym2_coboundary_deformation()
    calls = counting(monkeypatch, "cochain_violations", "equivariance_failure")
    ob = obstruction(defo)
    assert calls == {"cochain_violations": 0, "equivariance_failure": 0}
    assert not ob.cochain.is_zero()
    assert any(cochain_space_basis(self_module(defo.system), 5, defo.action).express(ob.cochain))


def test_equivalence_needs_one_system_and_one_action():
    t2 = bundled_deformation("meson2_swap_t2.json")
    other_system = sym2_coboundary_deformation()
    other_action = make_deformation(t2.system, trivial_action(t2.system), t2.terms)
    with pytest.raises(DeformationError, match="different systems"):
        check_equivalence(other_system, t2, 1)
    with pytest.raises(DeformationError, match="different actions"):
        check_equivalence(other_action, t2, 2)


def skew3_non_cocycle_deformation():
    """Order 1 on skew3 with the sign action; mu_1 is the first invariant
    basis column of C^3 that is not a cocycle, so the order-1 equation fails."""
    system = skew_lts(3)
    action = sign_action(system)
    module = self_module(system)
    columns = (StructureTensor((3, 3, 3), 3, col)
               for col in cochain_space_basis(module, 3, action).columns)
    mu1 = next(c for c in columns if not apply_coboundary(module, c).is_zero())
    return make_deformation(system, action, [system.mu, mu1])


def test_the_library_rejects_a_deformation_whose_order_1_equation_fails():
    bad = skew3_non_cocycle_deformation()
    report = check_deformation_equations(bad)
    assert report.orders[0].passed and not report.orders[1].passed
    message = re.escape("deformation fails its order-1 equation at %r"
                        % (report.orders[1].witness,))
    good = make_deformation(bad.system, bad.action, [bad.system.mu])
    calls = [lambda: obstruction(bad), lambda: extend(bad), lambda: trivialize(bad, 1),
             lambda: check_equivalence(bad, good, 1), lambda: check_equivalence(good, bad, 1),
             lambda: check_equivalence(bad, bad, 1)]
    for call in calls:
        with pytest.raises(DeformationError, match=message):
            call()


def test_the_order_equations_are_required_through_the_cap():
    # valid at its own order 1; read through order 2, mu_2 = 0 fails the
    # order-2 equation, as golden case deform-trivialize-sym2-cob-cap2 shows
    defo = sym2_coboundary_deformation()
    assert check_deformation_equations(defo).passed
    assert trivialize(defo, 1)[1][-1]["status"] == "trivial"
    message = re.escape("deformation fails its order-2 equation at (0, 1, 0, 2, 1)")
    with pytest.raises(DeformationError, match=message):
        trivialize(defo, 2)
    with pytest.raises(DeformationError, match=message):
        check_equivalence(defo, defo, 2)


def test_negative_cap_is_rejected(worked_example):
    with pytest.raises(DeformationError, match="non-negative"):
        trivialize(worked_example, -1)
    with pytest.raises(DeformationError, match="non-negative"):
        check_equivalence(worked_example, worked_example, -1)


def test_gauge_at_a_cap_below_the_order_reads_the_truncated_deformation():
    t2 = bundled_deformation("meson2_swap_t2.json")
    iso = random_equivariant_iso(t2.action, random.Random(5), order=2)
    gauged = apply_isomorphism(t2, iso, 1)
    assert gauged.order == 1
    truncated = make_deformation(t2.system, t2.action, t2.terms[:2])
    assert gauged.terms == apply_isomorphism(truncated, iso, 1).terms


# systems with an action under which the random isomorphisms below are
# equivariant: the swap commutes with [[a, b], [b, a]], the sign action
# {I, -I} with every matrix
GAUGE_SYSTEMS = ("meson2-swap", "meson3-sign", "skew3-sign")
GAUGE_FIELDS = (QQ, PrimeField(7))


@cache
def gauge_setting(name, fld):
    if name == "meson2-swap":
        system = meson(2, fld)
        action = make_group_action(system, [("0", Matrix.identity(2, fld)),
                                            ("1", Matrix([[0, 1], [1, 0]], fld))])
    else:
        system = meson(3, fld) if name == "meson3-sign" else skew_lts(3, fld)
        action = sign_action(system)
    return system, action, cochain_space_basis(self_module(system), 3, action)


@st.composite
def gauge_cases(draw):
    name = draw(st.sampled_from(GAUGE_SYSTEMS))
    fld = draw(st.sampled_from(GAUGE_FIELDS))
    system, action, basis = gauge_setting(name, fld)
    cap = draw(st.integers(1, 4))
    small = st.integers(-2, 2)

    def term():
        return basis.combine([draw(small) for _ in basis.columns])

    # the order may exceed the cap: apply_isomorphism reads modulo t^(cap+1)
    order = draw(st.integers(0, cap + 1))
    defo = make_deformation(system, action, [system.mu] + [term() for _ in range(order)])
    return defo, draw(gauge_isomorphisms(name, fld, cap)), cap


@st.composite
def gauge_isomorphisms(draw, name, fld, order):
    """An equivariant formal isomorphism of the gauge setting with small
    integer coefficients, psi_1..psi_k for k drawn up to order."""
    system, action, _ = gauge_setting(name, fld)
    d = system.dim
    small = st.integers(-2, 2)
    mats = [Matrix.identity(d, fld)]
    for _ in range(draw(st.integers(0, order))):
        if name == "meson2-swap":
            a, b = draw(small), draw(small)
            mats.append(Matrix([[a, b], [b, a]], fld))
        else:
            mats.append(Matrix([[draw(small) for _ in range(d)] for _ in range(d)], fld))
    return make_formal_isomorphism(action, mats)


@settings(max_examples=40, deadline=None)
@given(gauge_cases())
def test_gauge_equals_the_dense_sum_over_index_tuples(case):
    defo, iso, cap = case
    gauged = apply_isomorphism(defo, iso, cap)
    assert gauged.order == cap
    assert list(gauged.terms) == gauge_dense(defo, iso, cap)


@settings(max_examples=40, deadline=None)
@given(gauge_cases())
def test_the_gauge_gap_equals_the_two_series_difference(case):
    # b is a gauged by the whole of psi, so the gap with psi_0..psi_(k-1)
    # is the order-k cochain that check_equivalence solves for psi_k; it
    # continues the inverse series from phi_0..phi_(k-2), which psi_(k-1)
    # does not change
    defo, iso, cap = case
    gauged = apply_isomorphism(defo, iso, cap)
    for k in range(1, cap + 1):
        psis = FormalIsomorphism(tuple(iso.term(i) for i in range(k)))
        phis = psis.inverse_terms(k, iso.inverse_terms(k)[:k - 1])
        assert phis == psis.inverse_terms(k)
        # check_equivalence forms only coefficient k
        series = _gauge(defo, psis, phis, k, k)
        assert all(t.is_zero() for t in series[:k])
        assert series[k] == _gauge(defo, psis, phis, k)[k]
        gap = series[k] - gauged.terms[k]
        assert gap == equivalence_gap_two_series(defo, gauged, psis.terms, k)


@st.composite
def extension_cases(draw):
    """A deformation whose order equations hold: a gauge of the trivial
    deformation of a gauge setting, whose obstructions vanish, or an
    order-1 deformation of the abelian plane, whose coboundaries vanish, so
    that its obstruction has a preimage exactly when it is zero, as for a
    multiple of the meson bracket."""
    fld = draw(st.sampled_from(GAUGE_FIELDS))
    name = draw(st.sampled_from(GAUGE_SYSTEMS + ("plane",)))
    small = st.integers(-2, 2)
    if name != "plane":
        system, action, _ = gauge_setting(name, fld)
        trivial = make_deformation(system, action, [system.mu])
        return apply_isomorphism(trivial, draw(gauge_isomorphisms(name, fld, 3)),
                                 draw(st.integers(0, 3)))
    system = make_system(["x", "y"], StructureTensor.zero((2, 2, 2), 2, fld), fld)
    if draw(st.booleans()):
        term = meson(2, fld).mu.scale(draw(small))
    else:
        basis = cochain_space_basis(self_module(system), 3)
        term = basis.combine([draw(small) for _ in basis.columns])
    return make_deformation(system, trivial_action(system), [system.mu, term])


@settings(max_examples=30, deadline=None)
@given(extension_cases())
def test_extend_appends_the_obstruction_preimage_exactly_when_there_is_one(defo):
    ob = obstruction(defo)
    extended = extend(defo)
    assert (extended is None) == (ob.preimage is None)
    if extended is not None:
        assert extended.terms[:-1] == defo.terms
        assert extended.terms[-1] == ob.preimage


# ---------------------------------------------------------------------------
# trivialization and rigidity


def test_trivialize_the_worked_example(worked_example):
    reduced, log = trivialize(worked_example, 4)
    assert log[-1]["status"] == "trivial"
    for i in range(1, reduced.order + 1):
        assert reduced.terms[i].is_zero()


def test_trivialize_gauge_of_trivial(t2, swap_action):
    rng = random.Random(29)
    trivial = make_deformation(t2, swap_action, [t2.mu])
    for _ in range(5):
        iso = random_equivariant_iso(swap_action, rng, order=4)
        gauged = apply_isomorphism(trivial, iso, 4)
        reduced, log = trivialize(gauged, 4)
        assert log[-1]["status"] == "trivial"
        assert all(reduced.terms[i].is_zero() for i in range(1, 5))


def test_trivialize_stops_at_nonzero_class():
    system = make_system(["x", "y"], StructureTensor.zero((2, 2, 2), 2))
    action = trivial_action(system)

    def coeffs(i, j, p):
        if (i, j) == (0, 1):
            return [0, 1] if p == 0 else [0, 0]
        if (i, j) == (1, 0):
            return [0, -1] if p == 0 else [0, 0]
        return [0, 0]

    z = StructureTensor.from_map(coeffs, (2, 2, 2), 2)
    defo = make_deformation(system, action, [system.mu, z])
    reduced, log = trivialize(defo, 3)
    assert log[-1]["status"] == "reduced"
    assert log[-1]["order"] == 1
    assert reduced.terms[1] == z


def test_rigidity_certificates(t2, swap_action):
    assert rigidity_certificate(t2, swap_action).rigid
    assert rigidity_certificate(t2, trivial_action(t2)).rigid
    system = make_system(["x", "y"], StructureTensor.zero((2, 2, 2), 2))
    rep = rigidity_certificate(system, trivial_action(system))
    assert not rep.rigid
    assert "inconclusive" in rep.conclusion


def test_rigidity_on_skew3_with_sign_action():
    system = skew_lts(3)
    rep = rigidity_certificate(system, sign_action(system))
    assert rep.dim_h3_equivariant >= 0
    assert rep.rigid == (rep.dim_h3_equivariant == 0)


def test_deformation_pipeline_over_prime_field():
    from ltsdeform.linalg import PrimeField

    gf = PrimeField(5)
    system = meson(2, gf)
    action = trivial_action(system)
    defo = make_deformation(system, action, [system.mu])
    assert check_deformation_equations(defo).passed
    ext = extend(defo)
    assert ext is not None and check_deformation_equations(ext).passed
    assert rigidity_certificate(system, action).dim_h3_equivariant >= 0
