"""The sparse structure tensor and the nested-sum kernel against the dense
loops in tests/oracles.py: the fundamental identity and its five module
placements (one-term series), the order-r deformation equations and the
obstruction (coefficients of one pass over a term series), gauge
composition through the slot transform, and trilinear evaluation, on
generated sparse and fully dense tensors over QQ and GF(p), most failing
the identities; and the kernel against the per-entry kernel it replaced,
on long, gapped, one-term and zero-padded series."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st
from oracles import (compose_tensor_dense, evaluate_dense, fundamental_residual_loop,
                     module_fundamental_loop, nested_sum_per_entry)

from ltsdeform import bundled_path, deformation
from ltsdeform.caps import DEFAULT_CAPS
from ltsdeform.cli import _load_deformation, main
from ltsdeform.linalg import Matrix, PrimeField, QQ
from ltsdeform.lts import (FUNDAMENTAL, LieTripleSystem, LtsModule, StructureTensor,
                           _module_fundamental_terms, fundamental_terms, meson,
                           self_module, skew_lts, verify_lts, verify_module)
from ltsdeform.tensorops import nested_sum, transform_series, transform_sparse

FIELDS = [QQ, PrimeField(7), PrimeField(10007)]
PLACEMENTS = [(4, "last"), (3, 4), (2, 3), (1, 2), (0, 1)]


def _scalar(draw, fld):
    if fld is QQ and draw(st.booleans()):
        return Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    return draw(st.integers(-3, 3))


@st.composite
def tensors(draw, fld, d, m):
    """A (d, d, m) -> m tensor, fully dense or with a few nonzero entries."""
    size = d * d * m * m
    if draw(st.booleans()):
        values = [draw(st.sampled_from([1, 2, -1, -3, 5])) for _ in range(size)]
    else:
        values = [0] * size
        for _ in range(draw(st.integers(0, 6))):
            values[draw(st.integers(0, size - 1))] = _scalar(draw, fld)
    return StructureTensor.from_entries(dict(enumerate(values)), (d, d, m), m, fld)


@st.composite
def brackets(draw, fld, d):
    """A (d, d, d) -> d bracket: random, or a standard system, perturbed or not."""
    if d == 3 and draw(st.booleans()):
        mu = (meson(3, fld) if draw(st.booleans()) else skew_lts(3, fld)).mu
    elif draw(st.booleans()):
        mu = meson(d, fld).mu
    else:
        return draw(tensors(fld, d, d))
    if draw(st.booleans()):
        mu = mu + draw(tensors(fld, d, d))
    return mu


def _dims(draw):
    """d <= 3, and d = 4 now and then."""
    return 4 if draw(st.integers(0, 9)) == 0 else draw(st.integers(1, 3))


def _system(mu):
    d = mu.dims[0]
    return LieTripleSystem(d, tuple("x%d" % i for i in range(d)), mu, mu.field)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_fundamental_identity_matches_the_loop(data):
    fld = data.draw(st.sampled_from(FIELDS))
    d = _dims(data.draw)
    mu = data.draw(brackets(fld, d))
    res = nested_sum(fundamental_terms([mu], [mu]), (d,) * 6, 0)[0]
    expected = fundamental_residual_loop([(mu, mu)], d)
    assert res == expected
    # every witness in flat order, with its whole residual vector
    found = [(v.witness, v.residual) for v in
             verify_lts(mu, all_witnesses=True).violations if v.axiom == "fundamental"]
    bases = sorted({k // d for k in expected})
    assert [w for w, _ in found] == [_unflatten(b, (d,) * 5) for b in bases]
    assert [r for _, r in found] == [tuple(expected.get(b * d + l, 0) for l in range(d))
                                     for b in bases]


def _unflatten(base, dims):
    idx = []
    for n in reversed(dims):
        base, i = divmod(base, n)
        idx.append(i)
    return tuple(reversed(idx))


@st.composite
def modules(draw):
    fld = draw(st.sampled_from(FIELDS))
    d = 4 if draw(st.integers(0, 14)) == 0 else draw(st.integers(1, 3))
    mu = draw(brackets(fld, d))
    if draw(st.booleans()):
        module = self_module(_system(mu))
        if draw(st.booleans()):
            module = LtsModule(module.system, d, module.left + draw(tensors(fld, d, d)),
                               module.right, module.middle)
        return module
    m = draw(st.integers(1, 3))
    return LtsModule(_system(mu), m, draw(tensors(fld, d, m)), draw(tensors(fld, d, m)),
                     draw(tensors(fld, d, m)))


@settings(max_examples=60, deadline=None)
@given(modules())
def test_module_placements_match_the_loop(module):
    d, m = module.system.dim, module.dim
    expected = module_fundamental_loop(module)
    for p, name in PLACEMENTS:
        axiom = "module-fundamental-%s" % name
        assert nested_sum(_module_fundamental_terms(module, p),
                          (d, d, d, d, m, m), 0) == [expected[axiom]], axiom
    # first-hit order of the old loop: witness tuples in flat order and,
    # within one tuple, the placements last, 4, 3, 2, 1
    hits = sorted((k // m, n) for n, (_, name) in enumerate(PLACEMENTS)
                  for k in expected["module-fundamental-%s" % name])
    order = []
    for _, n in hits:
        if n not in order:
            order.append(n)
    want = []
    for n in order:
        axiom = "module-fundamental-%s" % PLACEMENTS[n][1]
        res = expected[axiom]
        for base in sorted({k // m for k in res}):
            want.append((axiom, _unflatten(base, (d, d, d, d, m)),
                         tuple(res.get(base * m + l, 0) for l in range(m))))
    got = [(v.axiom, v.witness, v.residual)
           for v in verify_module(module, all_witnesses=True).violations
           if v.axiom.startswith("module-fundamental")]
    assert got == want


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_order_equations_match_the_loop(data):
    # coefficients 0..n of one pass are the order equations, n+1 the obstruction
    fld = data.draw(st.sampled_from(FIELDS))
    d = 4 if data.draw(st.integers(0, 14)) == 0 else data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 3 if d < 4 else 1))
    terms = [data.draw(brackets(fld, d))] + [data.draw(tensors(fld, d, d)) for _ in range(n)]
    series = nested_sum(fundamental_terms(terms, terms), (d,) * 6, n + 1)
    assert len(series) == n + 2
    for r in range(n + 1):
        pairs = [(terms[i], terms[r - i]) for i in range(r + 1)]
        assert series[r] == fundamental_residual_loop(pairs, d), r
    # mu_(n+1) is missing, which leaves the pairs i, j >= 1 of the obstruction
    pairs = [(terms[i], terms[n + 1 - i]) for i in range(1, n + 1)]
    assert series[n + 1] == fundamental_residual_loop(pairs, d)


def _nonzero(draw, fld):
    if fld is QQ and draw(st.booleans()):
        return Fraction(draw(st.sampled_from([1, -2, 3])), draw(st.integers(2, 5)))
    return draw(st.sampled_from([1, 2, -1, -3, 5]))


@st.composite
def gauged_series(draw, fld, d, order):
    """Terms 0..order of a bracket gauged by Psi = id + psi_1 t with psi_1 =
    E_ii + c E_ij, idempotent and not diagonal for d > 1: the inverse series
    is id + sum_k (-t)^k psi_1, so the terms do not stop at a finite order."""
    mu = draw(brackets(fld, d))
    i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
    psi = Matrix([[int(r == c == i) + (r == i and c == j != i) * _nonzero(draw, fld)
                   for c in range(d)] for r in range(d)], fld)
    iso = deformation.FormalIsomorphism((Matrix.identity(d, fld), psi))
    phis = [m.rows for m in iso.inverse_terms(order)]
    psis_t = [list(zip(*m.rows)) for m in iso.terms]
    terms = transform_series([mu.entries], [phis, phis, phis, psis_t], order)
    return [StructureTensor.from_entries(t, (d, d, d), d, fld) for t in terms]


@st.composite
def gapped_series(draw, fld, d, order):
    """Terms 0..order whose entries sit at a few shared positions, so that a
    position holds values at several orders, with zero terms between them."""
    pool = draw(st.lists(st.integers(0, d ** 4 - 1), min_size=1, max_size=8, unique=True))
    terms = []
    for _ in range(order + 1):
        entries = {}
        if draw(st.integers(0, 2)):
            entries = {k: _nonzero(draw, fld) for k in pool if draw(st.booleans())}
        terms.append(StructureTensor.from_entries(entries, (d, d, d), d, fld))
    return terms


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_position_pairs_match_the_per_entry_kernel(data):
    # long series nonzero at every order, series with zero terms between
    # nonzero ones and one-term series, mixed over the four terms of the
    # fundamental identity with either sign, read through an order that
    # may fall short of the series or run past them
    fld = data.draw(st.sampled_from([QQ, PrimeField(7)]))
    d = data.draw(st.integers(1, 3))
    pool = [data.draw(gauged_series(fld, d, data.draw(st.integers(1, 8)))),
            data.draw(gapped_series(fld, d, data.draw(st.integers(1, 8)))),
            [data.draw(brackets(fld, d))]]
    terms = [(data.draw(st.sampled_from([1, -1])), data.draw(st.sampled_from(pool)), slot,
              data.draw(st.sampled_from(pool)), pos) for _, slot, pos in FUNDAMENTAL]
    order = data.draw(st.integers(0, 10))
    got = nested_sum(terms, (d,) * 6, order)
    assert len(got) == order + 1
    assert got == nested_sum_per_entry(terms, (d,) * 6, order)


def test_zero_padding_leaves_the_high_coefficients_empty():
    # a series padded to order 5000 past its last nonzero term 2: every
    # coefficient past 2 + 2 is empty
    for fld in (QQ, PrimeField(7)):
        mu = meson(3, fld).mu
        terms = [mu, mu.scale(fld(2)),
                 StructureTensor.from_entries({5: 1, 40: 3}, (3, 3, 3), 3, fld)]
        zero = StructureTensor.zero((3, 3, 3), 3, fld)
        series = terms + [zero] * 4998
        got = nested_sum(fundamental_terms(series, series), (3,) * 6, 5000)
        assert len(got) == 5001
        assert any(got[4]) and not any(any(c) for c in got[5:])
        assert got[:5] == nested_sum(fundamental_terms(terms, terms), (3,) * 6, 4)
        assert got == nested_sum_per_entry(fundamental_terms(series, series), (3,) * 6, 5000)


def test_order_equations_and_obstruction_take_one_pass_each(monkeypatch):
    t2_path = str(bundled_path("meson2_swap_t2.json"))
    t2, _, _ = _load_deformation(t2_path, None, DEFAULT_CAPS)
    calls = []

    def counting(terms, dims, order):
        calls.append(order)
        return nested_sum(terms, dims, order)

    monkeypatch.setattr(deformation, "nested_sum", counting)
    assert deformation.check_deformation_equations(t2).passed
    assert calls == [2]
    assert deformation.obstruction(t2).cochain.is_zero()
    assert calls == [2, 3]

    # each deform command: one pass per document, plus deform-extend's
    # recheck of the extended deformation
    trivial = str(bundled_path("meson2_swap_trivial.json"))
    for argv, orders in [(["deform-obstruct", t2_path], [3]),
                         (["deform-extend", t2_path], [3, 3]),
                         (["deform-trivialize", t2_path], [2]),
                         (["deform-equiv", t2_path, trivial], [2, 2])]:
        calls.clear()
        assert main(argv + ["--json"]) == 0
        assert calls == orders, argv[0]


@st.composite
def square_matrices(draw, fld, d):
    """An arbitrary d x d matrix, not a permutation, sometimes singular."""
    return Matrix([[_scalar(draw, fld) for _ in range(d)] for _ in range(d)], fld)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_gauge_composition_matches_the_dense_loop(data):
    fld = data.draw(st.sampled_from(FIELDS))
    d = _dims(data.draw)
    tensor = data.draw(tensors(fld, d, d))
    out, a1, a2, a3 = [data.draw(square_matrices(fld, d)) for _ in range(4)]
    got = StructureTensor.from_entries(
        transform_sparse([tensor.entries],
                         [a1.rows, a2.rows, a3.rows, list(zip(*out.rows))])[0],
        (d, d, d), d, fld)
    assert got == compose_tensor_dense(tensor, out, a1, a2, a3)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_evaluate_matches_the_dense_loop(data):
    fld = data.draw(st.sampled_from(FIELDS))
    d, m = _dims(data.draw), data.draw(st.integers(1, 3))
    tensor = data.draw(tensors(fld, d, m))
    args = []
    for n in (d, d, m):
        if data.draw(st.booleans()):
            args.append(data.draw(st.integers(0, n - 1)))
        else:
            args.append([fld(_scalar(data.draw, fld)) for _ in range(n)])
    assert tensor.evaluate(*args) == evaluate_dense(tensor, *args)
