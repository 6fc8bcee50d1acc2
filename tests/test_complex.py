"""The sparse cochain complex against the dense references: the sparse
coboundary against the pointwise formula, preimages against the dense
solve, plain and invariant, equivariant cohomology against the group
average of the plain cocycles and coboundaries, and the bases that the
deformation layer builds."""

import importlib
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (coboundary_pointwise, dense, nullspace, projected_rank, reynolds_project,
                     rref_dense)
from test_coboundary_coordinates import complexes, rows_at_every_plain_row
from test_cohomology import changed_basis, dimensions

from ltsdeform import bundled_path
from ltsdeform.cohomology import (CochainComplex, SpanError, apply_coboundary, coboundary_matrix,
                                  cochain_space_basis, is_coboundary)
from ltsdeform.deformation import (apply_isomorphism, check_deformation_equations,
                                   check_equivalence, extend, make_deformation,
                                   make_formal_isomorphism, obstruction, trivialize)
from ltsdeform.documents import action_elements_from_document, load_document, system_from_document
from ltsdeform.groups import (make_group_action, self_module_action, sign_action,
                              transpose_action_on_rect, trivial_action)
from ltsdeform.linalg import Matrix, PrimeField, QQ, RrefAccumulator, rref_rows, solve
from ltsdeform.lts import (SKEW, StructureTensor, from_lie_algebra, function_lts,
                           make_system, matrix_lts, meson, permuted_sum, rect_lts, self_module,
                           skew_lts, sl2_brackets, sym_lts, theta_module)

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


@lru_cache(maxsize=None)
def invariant_complex(label, field):
    """The invariant complex of a case of test_coboundary_coordinates.complexes."""
    for name, system, action, _ in complexes(FIELDS[field]):
        if name == label:
            return CochainComplex(self_module(system), action)
    raise KeyError(label)


# sign on skew(3) fixes every odd-degree cochain; D4 in a changed basis of
# meson(3) acts by matrices that are not monomial
INVARIANT = ("skew3/sign", "meson3 changed basis/D4")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(BUILDERS) + list(INVARIANT)), st.sampled_from(sorted(FIELDS)),
       st.sampled_from([1, 3]), st.booleans(), st.data())
def test_augmented_solve_matches_the_dense_solve(label, field, degree, inside, data):
    # the complex solves on rows read at the plain free positions; the dense
    # solve reads the matrix at the free positions of the target basis,
    # plain or invariant
    cx = invariant_complex(label, field) if label in INVARIANT else plain_complex(label, field)
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


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_invariant_preimage_rejects_a_cochain_outside_the_complex(field):
    cx = invariant_complex("meson3 changed basis/D4", field)
    module_action = self_module_action(cx.action, cx.module)
    plain = cochain_space_basis(cx.module, 3)
    # the first plain column that the group average moves is not invariant
    moved = next(c for c in map(plain.combine, ({j: 1} for j in range(len(plain))))
                 if reynolds_project(cx.action, module_action, 3, dense(c)) != dense(c))
    with pytest.raises(SpanError):
        cx.preimage(moved)


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_equivariant_cohomology_is_the_invariant_part_of_the_cohomology(field):
    # the characteristic divides no group order here, so the group average
    # projects onto the invariants and commutes with the coboundary:
    # Z_G^k = (Z^k)^G and B_G^k = (B^k)^G, and dim H_G^k = dim (H^k)^G
    fld = FIELDS[field]
    for label, system, action, degrees in complexes(fld):
        module = self_module(system)
        module_action = self_module_action(action, module)
        for degree in degrees:
            basis, target = (cochain_space_basis(module, k) for k in (degree, degree + 2))
            kernel = nullspace(coboundary_matrix(module, basis, target))
            cocycles = [dense(basis.combine(kernel.column(j))) for j in range(kernel.ncols)]
            coboundaries = []
            if degree > 1:
                source = cochain_space_basis(module, degree - 2)
                coboundaries = [dense(apply_coboundary(module, source.combine({j: 1})))
                                for j in range(len(source))]
            dim_z, dim_b = (projected_rank(action, module_action, degree, vectors, fld)
                            for vectors in (cocycles, coboundaries))
            report = CochainComplex(module, action).cohomology(degree, want_representatives=False)
            assert (report.dim_cocycles, report.dim_coboundaries, report.dim_h) == \
                (dim_z, dim_b, dim_z - dim_b), (label, degree)


def test_the_complex_caches_bases_and_coboundaries(monkeypatch):
    calls, assembled, transposed, tabled = [], [], [], []
    basis, images, transpose, tables = (
        cohomology_module.cochain_space_basis, cohomology_module._coboundary_images,
        cohomology_module._transpose, cohomology_module._coefficient_tables)

    def counted(module, degree, *args, **kwargs):
        calls.append(degree)
        return basis(module, degree, *args, **kwargs)

    def assembling(module, degree, *args):
        assembled.append(degree)
        return images(module, degree, *args)

    def transposing(vectors, *args):
        transposed.append(1)
        return transpose(vectors, *args)

    def tabling(module):
        tabled.append(1)
        return tables(module)

    system = meson(3)
    for action in (None, sign_action(system)):
        module = self_module(system)
        image = apply_coboundary(module, CochainComplex(module, action).basis(1).combine({1: 1}))
        del calls[:], assembled[:], transposed[:], tabled[:]
        monkeypatch.setattr(cohomology_module, "cochain_space_basis", counted)
        monkeypatch.setattr(cohomology_module, "_coboundary_images", assembling)
        monkeypatch.setattr(cohomology_module, "_coefficient_tables", tabling)
        cx = CochainComplex(module, action)
        cx.cohomology(3)
        cx.cohomology(3)
        assert cx.preimage(image) is not None
        # the images are read at the plain free positions: no basis of degree 5
        assert sorted(calls) == [1, 3]
        assert sorted(assembled) == [1, 3]
        # the coefficient tables are built once per complex, for both degrees
        assert len(tabled) == 1
        # two solves on a fresh complex transpose once, as its coboundary is built
        monkeypatch.setattr(cohomology_module, "_transpose", transposing)
        cx = CochainComplex(module, action)
        assert cx.preimage(image) is not None and cx.preimage(image.scale(2)) is not None
        assert len(transposed) == 1 and sorted(assembled) == [1, 1, 3]
        monkeypatch.undo()


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


# ---------------------------------------------------------------------------
# dimensions without representatives


# the bundled systems that have a bundled action, with that action
BUNDLED_ACTIONS = {"meson2": "meson2_swap", "skew3": "skew3_sign", "rect22": "rect22_transpose"}


@lru_cache(maxsize=None)
def bundled_complex(name, equivariant, field):
    def doc(stem):
        return load_document(bundled_path(stem + ".json").read_text())

    system = system_from_document(doc(name), FIELDS[field])
    action = None
    if equivariant:
        action = make_group_action(system, action_elements_from_document(
            doc(BUNDLED_ACTIONS[name]), system.field))
    return CochainComplex(self_module(system), action)


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("equivariant", [False, True], ids=["plain", "invariant"])
@pytest.mark.parametrize("name", sorted(BUNDLED_ACTIONS))
@pytest.mark.parametrize("degree", [1, 3])
def test_rank_only_cohomology_builds_no_cocycle_kernel(monkeypatch, name, equivariant, field,
                                                       degree):
    cx = bundled_complex(name, equivariant, field)
    with_reps = cx.cohomology(degree)   # builds (and caches) the bases and rows
    kernels = []
    original = RrefAccumulator.kernel_basis

    def counted(acc, ncols):
        kernels.append(ncols)
        return original(acc, ncols)

    monkeypatch.setattr(RrefAccumulator, "kernel_basis", counted)
    rank_only = cx.cohomology(degree, want_representatives=False)
    assert not rank_only.representatives
    assert dimensions(rank_only) == dimensions(with_reps)
    assert kernels == []
    # the counter sees the kernel that representatives need, which is
    # read only when there is a class to fit
    assert dimensions(cx.cohomology(degree)) == dimensions(with_reps)
    assert kernels == ([with_reps.dim_space] if with_reps.dim_h else [])


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name, equivariant, degree",
                         [("skew3", False, 1), ("rect22", True, 1), ("matrix2", False, 5)])
def test_representatives_read_no_divided_echelon_rows(monkeypatch, name, equivariant, degree,
                                                      field):
    # the cocycle kernel is read fraction-free, and only the representatives
    # kept are divided: with the bases and rows built, cohomology reads no
    # echelon form out through pivots, which divides every row
    if name == "matrix2":
        cx = CochainComplex(self_module(matrix_lts(2, FIELDS[field])))
    else:
        cx = bundled_complex(name, equivariant, field)
    for k in range(max(degree - 2, 1), degree + 1, 2):
        cx.rows(k)
    reads = []
    pivots = RrefAccumulator.pivots
    monkeypatch.setattr(RrefAccumulator, "pivots",
                        property(lambda acc: reads.append(acc) or pivots.fget(acc)))
    report = cx.cohomology(degree)
    assert report.dim_h > 0 and len(report.representatives) == report.dim_h
    assert reads == []


# ---------------------------------------------------------------------------
# scalars at the boundary of the complex


def assert_field_scalars(values, field):
    """Over GF(p) every value is an int in [0, p); over QQ an int or a
    non-integral Fraction."""
    for v in values:
        if field.char:
            assert type(v) is int and 0 <= v < field.char, repr(v)
        else:
            assert type(v) is int or (type(v) is Fraction and v.denominator != 1), repr(v)


@pytest.mark.parametrize("field", [PrimeField(7), PrimeField(2), QQ], ids=repr)
@pytest.mark.parametrize("label", sorted(BUILDERS))
@pytest.mark.parametrize("degree", [1, 3])
def test_values_leave_the_complex_as_field_elements(label, field, degree):
    cx = CochainComplex(self_module(BUILDERS[label](field)))
    source, target = cx.basis(degree), cx.basis(degree + 2)
    # bare-int coordinates over GF(p); over QQ halves, whose sums over
    # shared positions are often integral
    coords = {j: Fraction(j + 1, 2) if not field.char else j + 8
              for j in range(0, len(source), 2)}
    f = source.combine(coords)
    assert_field_scalars(f.entries.values(), field)
    assert_field_scalars(source.express(f), field)
    # a sparse dict of bare ints, as the library takes from its callers
    assert_field_scalars(source.express({pos: 9 * v for pos, v in source.columns[-1].items()}),
                         field)
    df = apply_coboundary(cx.module, f)
    assert_field_scalars(df.entries.values(), field)
    pre = cx.preimage(df)
    assert pre is not None and apply_coboundary(cx.module, pre) == df
    assert_field_scalars(pre.entries.values(), field)
    for rep in cx.cohomology(degree).representatives:
        assert_field_scalars(rep.entries.values(), field)
    matrix = coboundary_matrix(cx.module, source, target)
    assert_field_scalars((v for row in matrix.rows for v in row), field)
    kernel = nullspace(matrix)
    assert_field_scalars((v for row in kernel.rows for v in row), field)
    x = solve(matrix, target.express(df))
    assert_field_scalars(x, field)
    assert matrix.apply(x) == target.express(df)


# ---------------------------------------------------------------------------
# the coboundary rows in small characteristic


@lru_cache(maxsize=None)
def small_char_complex(label, p):
    return CochainComplex(self_module(BUILDERS[label](PrimeField(p))))


def coboundary_rows_dense(cx, degree):
    """Reference for CochainComplex.rows: the pointwise coboundary of each
    source basis column, expressed in the target basis by dense Gauss-Jordan
    elimination with the images as augmented columns.  The cochain
    conditions touch only the last three slots, so every target column lies
    in one block of positions with a common prefix (checked), and each
    block is eliminated on its own."""
    field = cx.field
    source, target = cx.basis(degree), cx.basis(degree + 2)
    block = source.dim ** 3 * source.mdim
    images = [coboundary_pointwise(cx.module, source.combine({j: 1}))
              for j in range(len(source))]
    columns = {}   # block -> [(target column, {position: scalar})]
    for j, col in enumerate(target.columns):
        assert len({pos // block for pos in col}) == 1
        columns.setdefault(min(col) // block, []).append((j, col))
    want = {}
    for b, cols in columns.items():
        nb = len(cols)
        rows = {}
        for k, (_, col) in enumerate(cols):
            for pos, v in col.items():
                rows.setdefault(pos, {})[k] = field(v)
        for t, image in enumerate(images):
            for pos, v in image.entries.items():
                if pos // block == b:
                    rows.setdefault(pos, {})[nb + t] = v
        pivots = rref_dense(list(rows.values()), nb + len(images), field)
        # the target columns are independent and every image lies in their span
        assert sorted(pivots) == list(range(nb))
        for k, prow in pivots.items():
            for c, v in prow.items():
                if c >= nb:
                    want.setdefault(cols[k][0], {})[c - nb] = v
    # no image has an entry outside the blocks of the target columns
    assert all(pos // block in columns for image in images for pos in image.entries)
    return want


@settings(max_examples=24, deadline=None)
@given(st.sampled_from([2, 3, 7, 10007]), st.sampled_from(sorted(BUILDERS)),
       st.sampled_from([1, 3]))
def test_coboundary_rows_match_the_dense_reference_in_small_characteristic(p, label, degree):
    # char 2 polarizes the square condition; every characteristic must read
    # the same rows as the field-element reference, as residues in [0, p);
    # out of degree 3 the rows at x1 >= x2 are rebuilt from the kept ones
    cx = small_char_complex(label, p)
    want = coboundary_rows_dense(cx, degree)
    assert rows_at_every_plain_row(cx, degree) == want


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(7)], ids=repr)
def test_every_value_the_package_returns_is_a_residue(field):
    def matrix_values(*mats):
        return (v for m in mats for row in m.rows for v in row)

    # builders, their self-modules and theta modules, and the sl2 constants
    systems = [meson(3, field), matrix_lts(2, field), skew_lts(3, field), sym_lts(2, field),
               rect_lts(2, 2, field), from_lie_algebra(sl2_brackets(field), fld=field),
               function_lts(meson(2, field), 2)]
    for system in systems:
        module = self_module(system)
        for tensor in (system.mu, module.left, module.right, module.middle,
                       theta_module(module).left):
            assert_field_scalars(tensor.entries.values(), field)
    assert_field_scalars((v for row in sl2_brackets(field) for vec in row for v in vec), field)
    # documents read with a prime-field override
    for name in ("matrix2", "meson3", "rect22", "skew3", "sl2", "sym2"):
        system = system_from_document(load_document(bundled_path(name + ".json").read_text()),
                                      field)
        assert_field_scalars(system.mu.entries.values(), field)
    for name in ("meson2_swap", "rect22_transpose", "skew3_sign"):
        doc = load_document(bundled_path(name + ".json").read_text())
        assert_field_scalars(matrix_values(*(m for _, m in action_elements_from_document(
            doc, field))), field)
    # group matrices, their products, sums, scalings and images
    actions = [transpose_action_on_rect(2, field)[1]]
    if field.char != 2:   # -I is I in characteristic 2
        actions.append(sign_action(skew_lts(3, field)))
    for action in actions:
        mats = action.matrices
        assert_field_scalars(matrix_values(*mats), field)
        for a in mats:
            assert_field_scalars(a.apply(list(range(-2, a.ncols - 2))), field)
            for b in mats:
                assert_field_scalars(matrix_values(a * b, a + b, a - b, a.scale(-3)), field)
    # a gauge-trivial deformation through order 3: its terms, the
    # obstruction cochain, the extension, the equivalence and trivialize
    system = meson(3, field)
    action = trivial_action(system)
    trivial = make_deformation(system, action, [system.mu])
    iso = make_formal_isomorphism(action, [
        Matrix.identity(3, field), Matrix([[1, -2, 0], [3, 0, -1], [0, 1, 1]], field),
        Matrix([[0, 0, -1], [2, 1, 0], [-1, 0, 3]], field)])
    assert_field_scalars(matrix_values(*iso.inverse_terms(3)), field)
    gauged = apply_isomorphism(trivial, iso, 3)
    assert not gauged.terms[1].is_zero()
    for term in gauged.terms:
        assert_field_scalars(term.entries.values(), field)
    for order in (1, 2, 3):
        defo = make_deformation(system, action, gauged.terms[:order + 1])
        ob = obstruction(defo)
        assert_field_scalars(ob.cochain.entries.values(), field)
        assert_field_scalars(ob.preimage.entries.values(), field)
        assert_field_scalars(extend(defo).terms[-1].entries.values(), field)
    res = check_equivalence(gauged, trivial, 1)
    assert res.equivalent and not res.isomorphism.terms[1].is_zero()
    assert_field_scalars(matrix_values(*res.isomorphism.terms), field)
    # through order 3 the search fixes the canonical order-1 solution, which
    # over GF(2) does not extend: it reports an obstruction at order 2
    res = check_equivalence(gauged, trivial, 3)
    if res.equivalent:
        assert_field_scalars(matrix_values(*res.isomorphism.terms), field)
    else:
        assert field.char == 2 and res.obstructed_order == 2
        assert_field_scalars(res.witness.entries.values(), field)
    # likewise trivialize ends at a nonzero order-2 class over GF(2)
    reduced, log = trivialize(gauged, 3)
    assert log[0]["status"] == "step"
    assert log[-1]["status"] == "trivial" or field.char == 2
    for term in reduced.terms:
        assert_field_scalars(term.entries.values(), field)


def test_every_value_the_package_returns_over_qq_is_canonical():
    # QQ inputs with halves, whose sums are often integral: every value
    # that comes back is an int or a non-integral Fraction
    def matrix_values(*mats):
        return (v for m in mats for row in m.rows for v in row)

    half = Fraction(1, 2)
    p = Matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    pinv = Matrix([[half, -half, half], [half, half, -half], [-half, half, half]])
    swap = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert_field_scalars(matrix_values(p * pinv, pinv + pinv, pinv - p, pinv.scale(2),
                                       pinv * swap * p), QQ)
    assert_field_scalars(pinv.apply([1, 1, 1]), QQ)
    # a basis change with 1/2 entries, its tensors, sums and scalings
    system = changed_basis(meson(3), p, pinv)
    mu = system.mu
    halved = mu.scale(half)
    for tensor in (mu, halved + halved, mu - halved, halved.scale(2),
                   permuted_sum([(halved, perm) for perm in SKEW]),
                   theta_module(self_module(system)).left):
        assert_field_scalars(tensor.entries.values(), QQ)
    assert_field_scalars(halved.evaluate([half, 1, 0], [0, 2, half], 1), QQ)
    # order-equation residuals of a deformation that fails them
    action = trivial_action(system)
    plain = CochainComplex(self_module(system))
    c = plain.basis(3).combine({j: Fraction(j + 1, 2)
                                for j in range(0, len(plain.basis(3)), 3)})
    report = check_deformation_equations(
        make_deformation(system, action, [mu, c, c.scale(Fraction(2, 3))]))
    assert not report.passed
    for check in report.orders:
        assert_field_scalars(check.residual or (), QQ)
    # gauge terms, the inverse series and the equivalence back
    trivial = make_deformation(system, action, [mu])
    iso = make_formal_isomorphism(action, [Matrix.identity(3), pinv, pinv.scale(Fraction(2, 3))])
    assert_field_scalars(matrix_values(*iso.inverse_terms(3)), QQ)
    gauged = apply_isomorphism(trivial, iso, 3)
    for term in gauged.terms:
        assert_field_scalars(term.entries.values(), QQ)
    res = check_equivalence(gauged, trivial, 3)
    assert res.equivalent
    assert_field_scalars(matrix_values(*res.isomorphism.terms), QQ)
    # plain and invariant bases, representatives and preimages
    swapped = make_group_action(system, [("e", Matrix.identity(3)), ("s", pinv * swap * p)])
    for cx in (plain, CochainComplex(self_module(system), swapped)):
        for degree in (1, 3, 5):
            assert_field_scalars((v for col in cx.basis(degree).columns
                                  for v in col.values()), QQ)
        for rep in cx.cohomology(3).representatives:
            assert_field_scalars(rep.entries.values(), QQ)
        f = cx.basis(3).combine([Fraction(j + 1, 2) for j in range(len(cx.basis(3)))])
        df = apply_coboundary(cx.module, f)
        assert_field_scalars(df.entries.values(), QQ)
        pre = cx.preimage(df)
        assert pre is not None and apply_coboundary(cx.module, pre) == df
        assert_field_scalars(pre.entries.values(), QQ)
