from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (canonical_kernel, is_prime_trial_division, nullspace, nullspace_from_rref,
                     rref_dense, rref_in_order)

from ltsdeform.linalg import (_PRIME_BOUND, LinAlgError, Matrix, PrimeField, QQ,
                              RrefAccumulator, _is_prime, field_from_spec, rank, rref_rows,
                              solve, solve_rows)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=7)


def small_matrix(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(st.lists(rationals, min_size=c, max_size=c),
                               min_size=r, max_size=r))).map(
        lambda rows: Matrix([[QQ(x) for x in row] for row in rows]))


def test_rank_identity_and_zero():
    assert rank(Matrix.identity(2)) == 2
    assert rank(Matrix.zero(2, 2)) == 0


def test_rank_dependent_rows():
    assert rank(Matrix([[1, 2], [2, 4]])) == 1


def test_nullspace_identity_is_trivial():
    assert nullspace(Matrix.identity(3)).ncols == 0


def test_nullspace_single_relation():
    ns = nullspace(Matrix([[1, -1]]))
    assert ns.ncols == 1
    assert ns.column(0) == [1, 1]


def test_nullspace_zero_matrix_full():
    ns = nullspace(Matrix.zero(2, 3))
    assert ns.ncols == 3
    assert ns == Matrix.identity(3)


def test_solve_identity():
    assert solve(Matrix.identity(3), [5, QQ(Fraction(1, 2)), -2]) == [5, Fraction(1, 2), -2]


def test_solve_underdetermined_free_vars_zero():
    assert solve(Matrix([[1, 1]]), [2]) == [2, 0]


def test_solve_inconsistent():
    assert solve(Matrix([[1], [1]]), [1, 2]) is None


def test_solve_dimension_mismatch():
    with pytest.raises(LinAlgError):
        solve(Matrix([[1, 2]]), [1, 2])


@settings(max_examples=60)
@given(small_matrix())
def test_rank_nullity(m):
    ns = nullspace(m)
    assert rank(m) + ns.ncols == m.ncols


@settings(max_examples=60)
@given(small_matrix())
def test_matrix_times_nullspace_vanishes(m):
    ns = nullspace(m)
    if ns.ncols:
        assert (m * ns).is_zero()


@settings(max_examples=60)
@given(small_matrix(), st.lists(rationals, min_size=1, max_size=5))
def test_solve_exact_or_certified_inconsistent(m, b):
    b = [QQ(x) for x in b[:m.nrows]] + [0] * max(0, m.nrows - len(b))
    x = solve(m, b)
    if x is None:
        aug = Matrix([row + [v] for row, v in zip(m.rows, b)])
        assert rank(aug) == rank(m) + 1
    else:
        assert m.apply(x) == b


@settings(max_examples=40)
@given(small_matrix())
def test_nullspace_is_deterministic_and_canonical(m):
    ns1 = nullspace(m)
    ns2 = nullspace(m)
    assert ns1 == ns2
    # each basis column carries 1 at its own free coordinate
    piv_free = []
    for j in range(ns1.ncols):
        col = ns1.column(j)
        ones = [i for i, v in enumerate(col) if v == 1]
        assert ones, "free coordinate missing"


SMALL_ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 2, 3])
# over QQ also Fractions and large integers: they reach the echelon form's
# denominator clearing and its pivot rows whose integer pivot entry is not 1
QQ_ENTRIES = st.one_of(SMALL_ENTRIES, SMALL_ENTRIES,
                       st.fractions(min_value=-20, max_value=20, max_denominator=7),
                       st.integers(-10 ** 6, 10 ** 6))


def sparse_rows(max_rows=8, max_cols=8, entry=SMALL_ENTRIES):
    """Rows of entries (by default small integers, mostly zero), as
    {column: value} dicts."""
    return st.integers(1, max_cols).flatmap(
        lambda c: st.lists(st.lists(entry, min_size=c, max_size=c),
                           min_size=1, max_size=max_rows).map(
            lambda rows: (c, [{j: v for j, v in enumerate(r) if v} for r in rows])))


def field_and_rows(fields, max_rows, max_cols):
    """A field and sparse rows for it, QQ_ENTRIES over QQ."""
    return st.sampled_from(fields).flatmap(lambda fld: st.tuples(st.just(fld), sparse_rows(
        max_rows, max_cols, QQ_ENTRIES if fld == QQ else SMALL_ENTRIES)))


def assert_canonical(pivots):
    # over QQ every value read out is canonical: an integral value is an int
    assert not any(isinstance(v, Fraction) and v.denominator == 1
                   for prow in pivots.values() for v in prow.values())


@settings(max_examples=120)
@given(field_and_rows([QQ, PrimeField(2), PrimeField(3), PrimeField(10007)], 12, 12),
       st.lists(st.sampled_from([0, 0, 1, -1, 2]), max_size=14), st.randoms())
def test_rref_rows_matches_dense_gauss_jordan(case, rhs, rnd):
    # wide enough that new pivots fill in and cancel entries of earlier
    # pivot rows, which the accumulator's column index must follow
    fld, (ncols, rows) = case
    if rhs:
        # a right-hand side in one more column, as CochainComplex.preimage
        # builds it: rows past the matrix's carry the right-hand side alone
        n = max(len(rows), len(rhs))
        rows = [{**r, ncols: v} if v else r
                for r, v in zip(rows + [{}] * n, rhs + [0] * n)][:n]
        ncols += 1
    rows = [{j: fld(v) for j, v in r.items()} for r in rows]
    want = rref_dense(rows, ncols, fld)
    assert rref_in_order(rows, fld) == want
    # the RREF of a span is unique: any insertion order gives the same one
    rnd.shuffle(rows)
    got = rref_rows(rows, fld)
    assert got == want
    assert rref_in_order(rows, fld) == want
    assert rref_rows((r for r in rows), fld) == want
    assert_canonical(got)
    cols, free = nullspace_from_rref(got, ncols, fld)
    assert free == [c for c in range(ncols) if c not in want]
    for col in cols:
        for prow in want.values():
            assert not fld(sum((v * col.get(j, 0) for j, v in prow.items()), fld.zero))


@settings(max_examples=100)
@given(field_and_rows([QQ, PrimeField(7)], 8, 6),
       st.lists(st.sampled_from([None, 0, 1, -1, 2]), max_size=10), st.sets(st.integers(0, 9)))
def test_solve_rows_matches_the_dense_solve(case, rhs, absent):
    # rows dropped from the system, right-hand sides past its rows and on
    # rows it leaves empty (inconsistent unless zero), zeros given explicitly
    fld, (ncols, dense_rows) = case
    rows = {i: r for i, r in enumerate(dense_rows) if i not in absent}
    b = {i: v for i, v in enumerate(rhs) if v is not None}
    nrows = max(len(dense_rows), len(rhs))
    matrix = Matrix([[rows.get(i, {}).get(j, 0) for j in range(ncols)] for i in range(nrows)],
                    fld)
    x = solve_rows(rows, b, ncols, fld)
    want = solve(matrix, [b.get(i, 0) for i in range(nrows)])
    assert x == (None if want is None else {j: v for j, v in enumerate(want) if v})
    # checked apart from solve: the echelon form of the augmented rows
    pivots = rref_dense([{**dict(enumerate(r)), ncols: b.get(i, 0)}
                         for i, r in enumerate(matrix.rows)], ncols + 1, fld)
    assert (x is None) == (ncols in pivots)
    if x is not None:
        assert all(fld(sum(v * x.get(j, 0) for j, v in enumerate(r)) - b.get(i, 0)) == 0
                   for i, r in enumerate(matrix.rows))


def test_solve_rows_on_rows_the_right_hand_side_misses_or_the_matrix_leaves_empty():
    rows = {0: {0: 2}, 2: {1: 1}}
    assert solve_rows(rows, {0: 4}, 2, QQ) == {0: 2}
    assert solve_rows(rows, {0: 4, 1: 1}, 2, QQ) is None
    assert solve_rows(rows, {0: 4, 1: 7}, 2, PrimeField(7)) == {0: 2}
    assert solve_rows({}, {}, 3, QQ) == {}


@settings(max_examples=80)
@given(field_and_rows([QQ, PrimeField(7)], 10, 10), st.data())
def test_accumulator_matches_dense_gauss_jordan_after_every_add(case, data):
    # rows go in one at a time, as cohomology's representatives loop feeds
    # them, and the rows fed in are as drawn (Fractions and plain multiples
    # of p included); the reference reads them through the field
    fld, (ncols, rows) = case
    mid = data.draw(st.integers(1, len(rows)))
    acc = RrefAccumulator(fld)
    rank_before = 0
    for i, row in enumerate(rows, 1):
        want = rref_dense([{j: fld(v) for j, v in r.items()} for r in rows[:i]], ncols, fld)
        assert acc.add(row) == (len(want) > rank_before)
        assert acc.rank == len(want)
        rank_before = len(want)
        if i in (mid, len(rows)):
            assert acc.pivots == want
            assert_canonical(acc.pivots)


@st.composite
def keyed_rows(draw):
    """(field, ncols, rows, order): drawn rows over QQ or GF(7), made all
    zero or completed to full rank by a bidiagonal block, with repeated and
    zero rows added, and a random total order of the columns."""
    fld, (ncols, rows) = draw(field_and_rows([QQ, PrimeField(7)], 8, 8))
    shape = draw(st.sampled_from(["drawn", "zero", "full"]))
    if shape == "zero":
        rows = [{} for _ in rows]
    elif shape == "full":
        rows = rows + [{j: 1, j + 1: draw(SMALL_ENTRIES)} if j + 1 < ncols else {j: 2}
                       for j in range(ncols)]
    rows = rows + draw(st.lists(st.sampled_from(rows), max_size=3)) + [{}] * draw(
        st.integers(0, 2))
    order = draw(st.permutations(range(ncols)))
    return fld, ncols, draw(st.permutations(rows)), order


@settings(max_examples=100)
@given(keyed_rows())
def test_accumulator_with_a_pivot_key_and_the_canonical_kernel(case):
    # with a key the pivots are the RREF in the key's column order; its row
    # span and rank are those of the index-order RREF, and canonical_kernel
    # turns its kernel into nullspace_from_rref's canonical basis; so does
    # kernel_basis, with and without the key, up to one positive int per
    # vector over QQ
    fld, ncols, rows, order = case
    acc = RrefAccumulator(fld, order.__getitem__)
    acc.extend(rows)
    want = rref_dense(rows, ncols, fld)
    assert acc.rank == len(want)
    assert rref_dense(list(acc.pivots.values()), ncols, fld) == want
    assert_canonical(acc.pivots)
    # the dense RREF with the columns relabelled by the order, labels restored
    label = sorted(range(ncols), key=order.__getitem__)
    relabelled = rref_dense([{order[c]: v for c, v in r.items()} for r in rows], ncols, fld)
    assert acc.pivots == {label[pc]: {label[c]: v for c, v in prow.items()}
                          for pc, prow in relabelled.items()}
    cols, free = nullspace_from_rref(acc.pivots, ncols, fld)
    assert canonical_kernel(cols, fld) == nullspace_from_rref(rref_rows(rows, fld), ncols, fld)
    assert canonical_kernel(reversed(cols), fld) == canonical_kernel(cols, fld)
    canonical, canonical_free = nullspace_from_rref(want, ncols, fld)
    for key in (order.__getitem__, None):
        acc = RrefAccumulator(fld, key)
        acc.extend(rows)
        vectors, free = acc.kernel_basis(ncols)
        assert free == canonical_free == [max(z) for z in vectors]
        assert all(all(z.values()) for z in vectors)
        assert [{c: fld.div(v, z[f]) for c, v in z.items()}
                for z, f in zip(vectors, free)] == canonical
        if fld.char:
            assert all(z[f] == 1 for z, f in zip(vectors, free))
        else:
            assert all(type(v) is int for z in vectors for v in z.values())
            assert all(z[f] > 0 for z, f in zip(vectors, free))


def test_fraction_free_rows_with_non_unit_pivot_entries():
    # inside, the first row keeps its integer pivot entry 2; the last row
    # clears its denominator, meets that pivot and is stored as (0, 3, 11),
    # and eliminating its pivot from the first row divides out a gcd of 2
    acc = RrefAccumulator(QQ)
    assert acc.add({0: 2, 1: 1, 2: 1, 3: 4})
    assert acc.pivots == {0: {0: 1, 1: Fraction(1, 2), 2: Fraction(1, 2), 3: 2}}
    assert not acc.add({0: Fraction(1, 3), 1: Fraction(1, 6), 2: Fraction(1, 6),
                        3: Fraction(2, 3)})
    assert acc.add({0: Fraction(1, 2), 1: 1, 2: 3, 3: 1})
    assert acc.rank == 2
    assert acc.pivots == {0: {0: 1, 2: Fraction(-4, 3), 3: 2}, 1: {1: 1, 2: Fraction(11, 3)}}
    assert_canonical(acc.pivots)


def test_kernel_basis_skips_stale_and_repeated_holders():
    # row 0 gains the free column 5 when pivot 1 is eliminated from it,
    # loses it to pivot 2 and gains it again from pivot 3, so the index
    # lists it twice under 5; row 1 loses 5 to pivot 4 and stays listed
    rows = [{0: 2, 1: 1, 2: 1}, {1: 1, 4: 1, 5: 1}, {2: 1, 5: -1, 3: 1},
            {3: 3, 5: 3, 4: 1}, {4: 1, 5: 1}]
    for fld in (QQ, PrimeField(7)):
        acc = RrefAccumulator(fld)
        for row in rows:
            acc.add(row)
        assert acc._holders[5].count(0) == 2 and 5 in acc._rows[0]
        assert 1 in acc._holders[5] and 5 not in acc._rows[1]
        cols, free = nullspace_from_rref(rref_rows(rows, fld), 6, fld)
        kernel, kernel_free = acc.kernel_basis(6)
        assert kernel_free == free
        assert len(kernel) == len(cols) == 1
        for z, col, f in zip(kernel, cols, free):
            scale = 1 if fld.char else lcm(*(acc._rows[pc][pc] for pc in col if pc != f))
            assert z == {c: v * scale for c, v in col.items()}
        if not fld.char:
            assert kernel[0][5] == 6


# ---------------------------------------------------------------------------
# prime fields


def test_prime_field_requires_prime():
    with pytest.raises(LinAlgError):
        PrimeField(6)
    PrimeField(2)
    PrimeField(97)


def test_gf_canonical_representatives():
    gf = PrimeField(7)
    x = gf(10)
    assert x == 3
    assert gf(-1) == 6
    assert gf(gf(3) + gf(5)) == 1
    assert gf(gf(3) * gf(5)) == 1
    assert gf.div(gf.one, gf(3)) == gf(5)


def test_equal_gf_values_are_equal_dict_keys():
    # one scalar type per field: equal matrices and scalars hash equal,
    # however they were built
    gf7 = PrimeField(7)
    assert len({Matrix([[1, 0], [0, 1]], gf7), Matrix.identity(2, gf7)}) == 1
    assert len({Matrix([[8, -7], [14, -6]], gf7), Matrix.identity(2, gf7),
                Matrix.identity(2, gf7).scale(8), Matrix([[Fraction(1, 2)]], gf7).scale(2)}) == 2
    assert {gf7(3): 1}.get(3) == 1
    assert {gf7(-4): 1, gf7.div(6, 2): 2}.get(3) == 2
    assert type(gf7(Fraction(1, 2))) is int and gf7(Fraction(1, 2)) == 4


def test_plain_int_multiple_of_p_is_no_pivot():
    # 7 is an int entry of a GF(7) matrix: zero in the field, though truthy
    gf7 = PrimeField(7)
    assert rank(Matrix([[7, 1], [0, 1]], gf7)) == 1
    assert nullspace(Matrix([[7, 1], [0, 1]], gf7)).ncols == 1
    assert solve(Matrix([[7, 1], [0, 1]], gf7), [1, 8]) == [gf7(0), gf7(1)]


def test_sparse_rows_with_a_plain_int_multiple_of_p():
    # the echelon form reads row entries through the field once, on entry
    gf7 = PrimeField(7)
    acc = RrefAccumulator(gf7)
    assert acc.add({0: 7, 1: 1})
    assert acc.pivots == {1: {1: gf7.one}}
    assert not acc.add({0: 14, 1: 8})
    assert acc.add({0: 1, 1: 7})
    assert acc.pivots == {0: {0: gf7.one}, 1: {1: gf7.one}}
    assert rref_rows([{0: 7, 1: 1}, {0: 21, 2: 3}], gf7) == {1: {1: gf7.one},
                                                           2: {2: gf7.one}}


def test_gf_linear_algebra():
    gf = PrimeField(5)
    m = Matrix([[gf(1), gf(2)], [gf(2), gf(4)]], gf)
    assert rank(m) == 1
    ns = nullspace(m)
    assert ns.ncols == 1
    assert (m * ns).is_zero()
    x = solve(m, [gf(3), gf(6)])
    assert x is not None
    assert m.apply(x) == [gf(3), gf(1)]


def test_field_from_spec():
    assert field_from_spec("rational") is not None
    assert field_from_spec("gf:11").p == 11
    with pytest.raises(LinAlgError):
        field_from_spec("gf:10")
    with pytest.raises(LinAlgError):
        field_from_spec("real")


def test_primality_agrees_with_trial_division_below_10_5():
    assert [n for n in range(10 ** 5) if _is_prime(n)] == \
        [n for n in range(10 ** 5) if is_prime_trial_division(n)]


def test_primality_rejects_strong_pseudoprimes():
    # psi_1, ..., psi_12: the least strong pseudoprime to the first k prime
    # bases (psi_7 = psi_8 and psi_9 = psi_10 = psi_11 appear once)
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)
        with pytest.raises(LinAlgError, match="must be prime"):
            PrimeField(n)


def test_prime_moduli_stop_below_the_exact_bound_of_the_primality_test():
    assert PrimeField(1000000000000000003).p == 1000000000000000003
    largest = next(p for p in range(_PRIME_BOUND - 2, 0, -2) if _is_prime(p))
    assert PrimeField(largest).p == largest
    # the bound is itself a strong pseudoprime to every base of the test
    assert _is_prime(_PRIME_BOUND)
    for p in (_PRIME_BOUND, 10 ** 30 + 57):
        with pytest.raises(LinAlgError, match="must be below"):
            PrimeField(p)
    with pytest.raises(LinAlgError):
        field_from_spec("gf:%d" % _PRIME_BOUND)


def test_echelon_rows_demote_integral_fractions_to_int():
    # the second row's pivot is 1/2 of the first's: eliminating it leaves
    # integral Fractions, which are stored as ints
    pivots = rref_rows([{0: 2, 1: 1, 2: 1, 3: 4}, {0: 1, 1: 1, 2: 3, 3: 1}], QQ)
    assert pivots == {0: {0: 1, 2: -2, 3: 3}, 1: {1: 1, 2: 5, 3: -2}}
    assert all(type(v) is int for prow in pivots.values() for v in prow.values())


def test_rational_scalars_demote_to_int():
    assert QQ(Fraction(4, 2)) == 2 and isinstance(QQ(Fraction(4, 2)), int)
    assert QQ.div(1, 3) == Fraction(1, 3)
    assert QQ.div(4, 2) == 2 and isinstance(QQ.div(4, 2), int)
    assert QQ.format(Fraction(-3, 7)) == "-3/7"
