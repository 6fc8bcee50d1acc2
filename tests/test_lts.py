import pytest
from oracles import d_operator, theta

from ltsdeform.linalg import PrimeField
from ltsdeform.lts import (BuildError, StructureTensor, from_lie_algebra, function_lts,
                           make_system, matrix_lts, meson, rect_lts, self_module,
                           skew_lts, sl2_brackets, sym_lts, verify_lts, verify_module)

ALL_BUILDERS = [
    lambda: meson(1), lambda: meson(2), lambda: meson(3), lambda: meson(4),
    lambda: matrix_lts(2), lambda: skew_lts(3), lambda: sym_lts(2),
    lambda: rect_lts(2, 2), lambda: from_lie_algebra(sl2_brackets()),
    lambda: function_lts(meson(2), 3),
]


@pytest.fixture(scope="module")
def t2():
    return meson(2)


def test_every_builder_passes_the_axioms():
    for build in ALL_BUILDERS:
        system = build()
        assert verify_lts(system.mu).passed, system.basis_names


def test_zero_tensor_is_abelian_lts():
    mu = StructureTensor.zero((3, 3, 3), 3)
    assert verify_lts(mu).passed


def test_single_entry_tensor_fails_skew():
    mu = StructureTensor.from_map(lambda i, j, k: [1], (1, 1, 1), 1)
    report = verify_lts(mu)
    assert not report.passed
    v = report.first("skew")
    assert v is not None and v.witness == (0, 0, 0)


def test_meson_bracket_values(t2):
    assert t2.bracket(0, 1, 0) == [0, 1]      # [g1 g2 g1] = g2
    assert t2.bracket(0, 1, 1) == [-1, 0]     # [g1 g2 g2] = -g1
    assert t2.bracket(1, 0, 0) == [0, -1]


def test_bracket_vanishes_on_repeated_argument(t2):
    for v in ([1, 0], [2, 3], [-1, 5]):
        assert not any(t2.bracket(v, v, [7, 11]))


def test_bracket_polarized_skewness():
    system = skew_lts(3)
    d = system.dim
    for i in range(d):
        for j in range(d):
            for k in range(d):
                lhs = system.bracket(i, j, k)
                rhs = system.bracket(j, i, k)
                assert lhs == [-x for x in rhs]


def test_skew2_is_one_dimensional_abelian():
    system = skew_lts(2)
    assert system.dim == 1
    assert system.mu.is_zero()


def test_sym_lts_closure_is_validated():
    # symmetric 3x3 matrices close under the double commutator as well
    assert verify_lts(sym_lts(3).mu).passed


def test_rect_lts_nonsquare():
    assert verify_lts(rect_lts(2, 3).mu).passed


def test_function_lts_shape_and_componentwise_bracket(t2):
    f = function_lts(t2, 3)
    assert f.dim == 6
    assert f.basis_names[0] == "g1@0" and f.basis_names[2] == "g1@1"
    # same-copy bracket mirrors the base system
    assert f.bracket(0, 1, 0)[1] == 1
    # cross-copy brackets vanish
    assert not any(f.bracket(0, 3, 1))


def test_from_lie_algebra_rejects_bad_constants():
    bad = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]  # not antisymmetric
    with pytest.raises(BuildError, match="antisymmetric"):
        from_lie_algebra(bad)
    # [e1,e2] = e2, [e1,e3] = e3, [e2,e3] = e1 violates Jacobi at (e1,e2,e3)
    no_jacobi = [[[0, 0, 0], [0, 1, 0], [0, 0, 1]],
                 [[0, -1, 0], [0, 0, 0], [1, 0, 0]],
                 [[0, 0, -1], [-1, 0, 0], [0, 0, 0]]]
    with pytest.raises(BuildError, match="Jacobi"):
        from_lie_algebra(no_jacobi)


def test_meson_over_prime_field():
    gf = PrimeField(5)
    system = meson(2, gf)
    assert verify_lts(system.mu).passed
    assert system.bracket(0, 1, 0) == [gf(0), gf(1)]


# ---------------------------------------------------------------------------
# modules, theta, D


def test_self_modules_pass(t2):
    for build in (lambda: t2, lambda: skew_lts(3), lambda: matrix_lts(2)):
        assert verify_module(self_module(build())).passed


def test_zeroing_one_action_breaks_the_module(t2):
    good = self_module(t2)
    broken = type(good)(good.system, good.dim, good.left,
                        StructureTensor.zero((2, 2, 2), 2), good.middle)
    report = verify_module(broken)
    assert not report.passed


def test_theta_matrix_values(t2):
    module = self_module(t2)
    # theta(g1, g2) g2 = [g2 g1 g2] = g1
    th = theta(module, 0, 1)
    assert th.apply([0, 1]) == [1, 0]


def test_theta_on_abelian_system_vanishes():
    system = make_system(["x", "y"], StructureTensor.zero((2, 2, 2), 2))
    module = self_module(system)
    assert theta(module, 0, 0).is_zero()
    assert theta(module, [3, 4], [1, 2]).is_zero()


def test_d_operator_equals_left_bracket_on_self_modules():
    for build in (lambda: meson(2), lambda: skew_lts(3), lambda: matrix_lts(2)):
        system = build()
        module = self_module(system)
        for a in range(system.dim):
            for b in range(system.dim):
                dm = d_operator(module, a, b)
                for c in range(system.dim):
                    col = [0] * system.dim
                    col[c] = 1
                    assert dm.apply(col) == list(system.bracket_basis(a, b, c))


def test_theta_accepts_vector_arguments(t2):
    module = self_module(t2)
    blend = theta(module, [1, 1], [2, 0])
    expected = (theta(module, 0, 0).scale(2) + theta(module, 1, 0).scale(2))
    assert blend == expected
