"""Slow reference implementations that the tests compare the library with."""

from fractions import Fraction
from itertools import product
from math import prod

from ltsdeform.caps import DEFAULT_CAPS
from ltsdeform.cohomology import (CochainBasis, apply_coboundary, cochain_space_basis,
                                  cochain_violations)
from ltsdeform.deformation import DeformationError
from ltsdeform.groups import (GroupActionError, _subgroup, equivariance_failure,
                              self_module_action)
from ltsdeform.linalg import (QQ, LinAlgError, Matrix, RrefAccumulator, nullspace_from_rref,
                              rref_rows, solve_rows)
from ltsdeform.lts import (CYCLIC, SKEW, AxiomReport, StructureTensor, Violation,
                           permuted_sum, theta_module)
from ltsdeform.tensorops import slot_indices, transform_series


# ---------------------------------------------------------------------------
# dense trilinear evaluation, the fundamental identity and gauge composition


def evaluate_dense(tensor, x, y, z):
    """Reference for StructureTensor.evaluate: the nested loop over
    basis_value; arguments are basis indices or coefficient vectors."""
    xs = ((x, 1),) if isinstance(x, int) else tuple(p for p in enumerate(x) if p[1])
    ys = ((y, 1),) if isinstance(y, int) else tuple(p for p in enumerate(y) if p[1])
    zs = ((z, 1),) if isinstance(z, int) else tuple(p for p in enumerate(z) if p[1])
    out = [0] * tensor.dim_out
    for i, a in xs:
        for j, b in ys:
            ab = a * b
            for k, c in zs:
                w = tensor.basis_value(i, j, k)
                if not any(w):
                    continue
                abc = ab * c
                for l, v in enumerate(w):
                    if v:
                        out[l] = out[l] + abc * v
    return [tensor.field(v) for v in out]


def _sparse(data, field):
    return {k: r for k, v in enumerate(data) if (r := field(v))}


def fundamental_residual_loop(pairs, d):
    """Reference for nested_sum(lts.fundamental_terms([mi], [mj]), ...) summed
    over the (mi, mj) pairs: the sum of mi(a,b,mj(c,d,e)) - mi(mj(a,b,c),d,e)
    - mi(c,mj(a,b,d),e) - mi(c,d,mj(a,b,e)) at every basis tuple, as a
    sparse {flat index: value} dict over (d,) * 6."""
    data = []
    for a, b, c, dd, e in product(range(d), repeat=5):
        acc = [0] * d
        for mi, mj in pairs:
            t1 = evaluate_dense(mi, a, b, mj.basis_value(c, dd, e))
            t2 = evaluate_dense(mi, mj.basis_value(a, b, c), dd, e)
            t3 = evaluate_dense(mi, c, mj.basis_value(a, b, dd), e)
            t4 = evaluate_dense(mi, c, dd, mj.basis_value(a, b, e))
            for l in range(d):
                acc[l] = acc[l] + t1[l] - t2[l] - t3[l] - t4[l]
        data.extend(acc)
    return _sparse(data, pairs[0][0].field)


def nested_sum_per_entry(terms, dims, order):
    """Reference for tensorops.nested_sum: the per-entry kernel it replaced.
    Every entry is decoded once per term, and every (inner entry, outer
    entry) pair that meets with a + b <= order adds into coefficient a + b
    of a dict per coefficient; the sums are reduced by the field of the
    first term's outer tensors."""
    field = terms[0][1][0].field
    strides = [prod(dims[s + 1:]) for s in range(len(dims))]
    out = [{} for _ in range(order + 1)]
    for sign, outer, slot, inner, positions in terms:
        rest = [strides[s] for s in range(len(dims) - 1) if s not in positions]
        # outer entries by their index in the inner's slot: (a, rest of key, value), a rising
        by_slot = {}
        for a, t in enumerate(outer[:order + 1]):
            for key, u in t.entries.items():
                idx = slot_indices(key, t.dims + (t.dim_out,))
                args = idx[:slot] + idx[slot + 1:-1]
                part = idx[-1] + args[0] * rest[0] + args[1] * rest[1]
                by_slot.setdefault(idx[slot], []).append((a, part, u if sign > 0 else -u))
        for b, t in enumerate(inner[:order + 1]):
            for key, v in t.entries.items():
                idx = slot_indices(key, t.dims + (t.dim_out,))
                base = sum(i * strides[s] for i, s in zip(idx, positions))
                for a, part, u in by_slot.get(idx[-1], ()):
                    if a + b > order:
                        break
                    out[a + b][base + part] = out[a + b].get(base + part, 0) + u * v
    return [field.sparse(acc.items()) for acc in out]


def module_fundamental_loop(module):
    """Reference for the module-fundamental-* residuals of verify_module:
    {axiom: sparse {flat index: value} over (d, d, d, d, m, m)}, written out
    placement by placement over the variables (a, b, c, dd, w), w in V."""
    mu = module.system.mu
    d, m = module.system.dim, module.dim
    m1, m2, m3 = module.left, module.right, module.middle
    ev = evaluate_dense

    def residual(lhs, terms):
        for t in terms:
            lhs = [x - y for x, y in zip(lhs, t)]
        return lhs

    data = {"module-fundamental-%s" % n: [] for n in ("last", 4, 3, 2, 1)}
    for a, b, c, dd, w in product(range(d), range(d), range(d), range(d), range(m)):
        # module slot in the last position of the fundamental identity
        data["module-fundamental-last"] += residual(
            ev(m1, a, b, m1.basis_value(c, dd, w)),
            [ev(m1, mu.basis_value(a, b, c), dd, w),
             ev(m1, c, mu.basis_value(a, b, dd), w),
             ev(m1, c, dd, m1.basis_value(a, b, w))])
        # module slot in position 4: [ab[cve]] with e renamed dd
        data["module-fundamental-4"] += residual(
            ev(m1, a, b, m3.basis_value(c, dd, w)),
            [ev(m3, mu.basis_value(a, b, c), dd, w),
             ev(m3, c, dd, m1.basis_value(a, b, w)),
             ev(m3, c, mu.basis_value(a, b, dd), w)])
        # module slot in position 3: [ab[vde]]
        data["module-fundamental-3"] += residual(
            ev(m1, a, b, m2.basis_value(c, dd, w)),
            [ev(m2, c, dd, m1.basis_value(a, b, w)),
             ev(m2, mu.basis_value(a, b, c), dd, w),
             ev(m2, c, mu.basis_value(a, b, dd), w)])
        # module slot in position 2: [av[cde]]
        data["module-fundamental-2"] += residual(
            ev(m3, a, mu.basis_value(b, c, dd), w),
            [ev(m2, c, dd, m3.basis_value(a, b, w)),
             ev(m3, b, dd, m3.basis_value(a, c, w)),
             ev(m1, b, c, m3.basis_value(a, dd, w))])
        # module slot in position 1: [vb[cde]]
        data["module-fundamental-1"] += residual(
            ev(m2, a, mu.basis_value(b, c, dd), w),
            [ev(m2, c, dd, m2.basis_value(a, b, w)),
             ev(m3, b, dd, m2.basis_value(a, c, w)),
             ev(m1, b, c, m2.basis_value(a, dd, w))])
    return {axiom: _sparse(vals, mu.field) for axiom, vals in data.items()}


class Recorder:
    """Keeps the violations per axiom, in the order of the first hit of
    each axiom: the first violation of each, or all of them."""

    def __init__(self, keep_all):
        self.keep_all = keep_all
        self.by_axiom = {}

    def hit(self, axiom, witness, residual):
        kept = self.by_axiom.setdefault(axiom, [])
        if self.keep_all or not kept:
            kept.append(Violation(axiom, tuple(witness), tuple(residual)))

    def report(self):
        return AxiomReport.collect(v for vs in self.by_axiom.values() for v in vs)


def verify_lts_loop(mu, all_witnesses=False):
    """Reference for lts.verify_lts: the skew and cyclic identities written
    out at every basis triple (skew as the diagonal, then the polarized sum
    at i <= j), then the fundamental identity at every basis 5-tuple."""
    d = mu.dim_in
    field = mu.field
    zero = field.zero
    rec = Recorder(all_witnesses)
    for i, j, k in product(range(d), repeat=3):
        if i == j:
            w = mu.basis_value(i, i, k)
            if any(w):
                rec.hit("skew", (i, i, k), w)
        if i <= j:
            w = [field(a + b) for a, b in zip(mu.basis_value(i, j, k), mu.basis_value(j, i, k))]
            if any(w):
                rec.hit("skew", (i, j, k), w)
        w = [field(a + b + c) for a, b, c in zip(mu.basis_value(i, j, k),
                                          mu.basis_value(j, k, i),
                                          mu.basis_value(k, i, j))]
        if any(w):
            rec.hit("cyclic", (i, j, k), w)
    res = fundamental_residual_loop([(mu, mu)], d)
    for n, x in enumerate(product(range(d), repeat=5)):
        w = [res.get(n * d + l, zero) for l in range(d)]
        if any(w):
            rec.hit("fundamental", x, w)
    return rec.report()


def verify_module_loop(module, all_witnesses=False):
    """Reference for lts.verify_module: the module identities at every
    basis triple, the fundamental identity with the module slot in each
    position (module_fundamental_loop) at every basis tuple, and the theta
    relations as d^4 dense m x m matrix products."""
    T = module.system
    mu = T.mu
    d, m = T.dim, module.dim
    field = T.field
    zero = field.zero
    m1, m2, m3 = module.left, module.right, module.middle
    rec = Recorder(all_witnesses)

    for i, j, w in product(range(d), range(d), range(m)):
        if i == j:
            r = m1.basis_value(i, i, w)
            if any(r):
                rec.hit("module-skew", (i, i, w), r)
        if i <= j:
            r = [field(a + b) for a, b in zip(m1.basis_value(i, j, w), m1.basis_value(j, i, w))]
            if any(r):
                rec.hit("module-skew", (i, j, w), r)
        r = [field(a + b) for a, b in zip(m3.basis_value(i, j, w), m2.basis_value(i, j, w))]
        if any(r):
            rec.hit("module-skew-mixed", (i, j, w), r)
        r = [field(a + b + c) for a, b, c in zip(m1.basis_value(i, j, w),
                                          m3.basis_value(j, i, w),
                                          m2.basis_value(i, j, w))]
        if any(r):
            rec.hit("module-cyclic", (i, j, w), r)

    res = module_fundamental_loop(module)
    for n, x in enumerate(product(range(d), range(d), range(d), range(d), range(m))):
        for p in ("last", 4, 3, 2, 1):
            axiom = "module-fundamental-%s" % p
            r = [res[axiom].get(n * m + l, zero) for l in range(m)]
            if any(r):
                rec.hit(axiom, x, r)

    th = [[theta_basis(module, i, j) for j in range(d)] for i in range(d)]
    dop = [[th[j][i] - th[i][j] for j in range(d)] for i in range(d)]

    def theta_vec(w, a=None, b=None):
        """theta(e_a, w) or theta(w, e_b) for a coefficient vector w."""
        acc = Matrix.zero(m, m, T.field)
        for l, coef in enumerate(w):
            if coef:
                acc = acc + (th[l][b] if a is None else th[a][l]).scale(coef)
        return acc

    for a, b, c, dd in product(range(d), repeat=4):
        r = (th[c][dd] * th[a][b] - th[b][dd] * th[a][c]
             - theta_vec(mu.basis_value(b, c, dd), a=a) + dop[b][c] * th[a][dd])
        if not r.is_zero():
            rec.hit("theta-square", (a, b, c, dd), tuple(v for row in r.rows for v in row))
        r = (th[c][dd] * dop[a][b] - dop[a][b] * th[c][dd]
             + theta_vec(mu.basis_value(a, b, c), b=dd)
             + theta_vec(mu.basis_value(a, b, dd), a=c))
        if not r.is_zero():
            rec.hit("theta-d", (a, b, c, dd), tuple(v for row in r.rows for v in row))
    return rec.report()


def compose_tensor_dense(tensor, out_mat, in1, in2, in3):
    """Reference for gauge composition through transform_sparse:
    out_mat . tensor(in1 x, in2 y, in3 z) as a structure tensor."""
    d = tensor.dim_in
    c1 = [in1.column(j) for j in range(d)]
    c2 = [in2.column(j) for j in range(d)]
    c3 = [in3.column(j) for j in range(d)]
    entries = [[[out_mat.apply(evaluate_dense(tensor, c1[i], c2[j], c3[k]))
                 for k in range(d)] for j in range(d)] for i in range(d)]
    return StructureTensor.build(entries, (d, d, d), d, out_mat.field)


def gauge_dense(defo, iso, cap):
    """Reference for deformation.apply_isomorphism: term r is the sum, over
    every (p, i, a, b, c) with p + i + a + b + c = r, of
    psi_p . mu_i(phi_a x, phi_b y, phi_c z), phi the inverse series; no
    zero term is skipped."""
    d, phis = defo.system.dim, iso.inverse_terms(cap)
    terms = [StructureTensor.zero((d, d, d), d, defo.system.field)] * (cap + 1)
    for r in range(cap + 1):
        for p, i, a, b in product(range(r + 1), repeat=4):
            if p + i + a + b <= r:
                terms[r] = terms[r] + compose_tensor_dense(
                    defo.term(i), iso.term(p), phis[a], phis[b], phis[r - p - i - a - b])
    return terms


def equivalence_gap_two_series(defo_a, defo_b, psis, k):
    """Reference for the order-k cochain of deformation.check_equivalence:
    [t^k](Psi o mu^a) - [t^k](mu^b o Psi^(x3)), Psi the series of the
    matrices psis, in two transform_series calls."""
    d, field = defo_a.system.dim, defo_a.system.field
    ident = [Matrix.identity(d, field).rows]
    rows = [m.rows for m in psis]
    lhs = transform_series([t.entries for t in defo_a.terms],
                           [ident] * 3 + [[list(zip(*r)) for r in rows]], k)[k]
    rhs = transform_series([t.entries for t in defo_b.terms], [rows] * 3 + [ident], k)[k]
    return (StructureTensor.from_entries(lhs, (d, d, d), d, field)
            - StructureTensor.from_entries(rhs, (d, d, d), d, field))


def check_terms_loop(action, terms):
    """Reference for the cochain and equivariance checks of
    deformation.make_deformation: term by term, the cochain conditions of
    terms 1..n before equivariance, one cochain_violations and one
    equivariance_failure call per term."""
    for i, t in enumerate(terms):
        if i > 0 and not (report := cochain_violations(t)).passed:
            v = report.violations[0]
            raise DeformationError("term %d violates the degree-3 cochain conditions: %s at %r"
                                   % (i, v.axiom, v.witness))
        failure, = equivariance_failure(action, [t])
        if failure is not None:
            raise DeformationError(
                "term %d is not equivariant under element %r at basis "
                "triple (%d, %d, %d)" % ((i, action.labels[failure[0]]) + failure[1]))


# ---------------------------------------------------------------------------
# primality


def is_prime_trial_division(n):
    """Reference for linalg._is_prime: trial division by 2 and the odd numbers."""
    if n < 4:
        return n >= 2
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# dense slot transforms and equivariance


def transform_dense(data, in_mats, out_mat):
    """Dense reference for tensorops.transform_sparse.

    data is a flat list over (i_1, ..., i_k, l) with k = len(in_mats); the
    matrices are row lists.  Returns the flat list
    new[j_1..j_k, a] = sum out_mat[a][b] * in_mats[0][i_1][j_1] * ...
    * in_mats[k-1][i_k][j_k] * data[i_1..i_k, b],
    i.e. new(x_1, ..., x_k) = out_mat . old(A_1 x_1, ..., A_k x_k), one
    axis at a time.
    """
    cur = list(data)
    size = len(data)
    stride = len(out_mat)
    for mat in reversed(in_mats):
        cur = _transform_axis(cur, size, stride, mat)
        stride *= len(mat)
    return _transform_axis(cur, size, 1, out_mat, contra=True)


def _transform_axis(data, size, stride, mat, contra=False):
    """Contract one axis (given by its stride) with mat.

    contra=False: new[.., j, ..] = sum_i mat[i][j] data[.., i, ..]
    contra=True:  new[.., a, ..] = sum_b mat[a][b] data[.., b, ..]
    """
    dim = len(mat)
    out = [0] * size
    block = stride * dim
    for start in range(0, size, block):
        for off in range(stride):
            base = start + off
            vals = [data[base + i * stride] for i in range(dim)]
            if not any(vals):
                continue
            for j in range(dim):
                s = 0
                for i in range(dim):
                    v = vals[i]
                    if not v:
                        continue
                    c = mat[j][i] if contra else mat[i][j]
                    if c:
                        s = s + c * v
                out[base + j * stride] = s
    return out


def act_dense(action, module_action, g, degree, data):
    """Reference for groups.apply_group_sparse on a dense flat list:
    (g.c)(x_1, ..., x_k) = V(g) c(g^{-1} x_1, ..., g^{-1} x_k)."""
    ginv = action.inverse_matrix(g).rows
    return transform_dense(data, [ginv] * degree, module_action.matrices[g].rows)


def equivariance_witness_loop(tensor, in_mats, out_mat):
    """Reference for groups.equivariance_witness: the first basis tuple
    (a, b, c) in lexicographic order with
    T(A_1 e_a, A_2 e_b, A_3 e_c) != out_mat T(e_a, e_b, e_c), or None.

    out_mat is the map on values itself, not its inverse.
    """
    cols = [[m.column(j) for j in range(m.ncols)] for m in in_mats]
    for a, b, c in product(*(range(m.ncols) for m in in_mats)):
        lhs = evaluate_dense(tensor, cols[0][a], cols[1][b], cols[2][c])
        rhs = out_mat.apply(list(tensor.basis_value(a, b, c)))
        if lhs != rhs:
            return (a, b, c)
    return None


# ---------------------------------------------------------------------------
# group multiplication tables


def mult_table_row_major(mats, fld):
    """Reference for the table of groups.make_group_action: every product
    mats[i] * mats[j], looked up in the list row by row.  Returns
    (table, None) when the list is closed under products, otherwise
    (None, (i, j)) for the first pair in row-major order whose product is
    not in the list."""
    def key(m):
        return tuple(tuple(fld(v) for v in row) for row in m.rows)

    index = {}
    for k, m in enumerate(mats):
        index.setdefault(key(m), k)
    table = []
    for i, a in enumerate(mats):
        row = []
        for j, b in enumerate(mats):
            k = index.get(key(a * b))
            if k is None:
                return None, (i, j)
            row.append(k)
        table.append(tuple(row))
    return tuple(table), None


def generators_every_candidate(action):
    """Reference for groups.generators: the same greedy choice, with the
    subgroup of every element outside the current one closed at each step."""
    table, ident, n = action.mult_table, action.identity_index, action.size
    gens = []
    sub = {ident}
    while len(sub) < n:
        best = None
        for g in range(n):
            if g in sub:
                continue
            cand = _subgroup(table, ident, gens + [g])
            if best is None or len(cand) > len(best[1]):
                best = (g, cand)
        gens.append(best[0])
        sub = best[1]
    return tuple(gens)


# ---------------------------------------------------------------------------
# ambient actions, invariant subspaces and the Reynolds projector


def action_on_cochain_ambient(action, module_action, degree, caps=DEFAULT_CAPS):
    """Dense matrices of c -> g o c o (g^{-1})^(tensor degree) on the ambient
    space of degree-cochains, one per group element.

    A cochain is invariant exactly when it is fixed by every one of these.
    """
    if degree < 1 or degree % 2 == 0:
        raise GroupActionError("cochain degree must be odd and >= 1")
    caps.check_degree(degree)
    d = action.system.dim
    m = module_action.module.dim
    ambient = d ** degree * m
    caps.check_ambient(ambient * ambient, what="ambient action matrix")
    fld = action.system.field
    out = []
    for g in range(action.size):
        cols = []
        for pos in range(ambient):
            unit = [fld.zero] * ambient
            unit[pos] = fld.one
            cols.append([fld(v) for v in act_dense(action, module_action, g, degree, unit)])
        out.append(Matrix.from_columns(cols, ambient, fld))
    return out


def invariant_subspace(ambient_actions, fld):
    """Basis of the simultaneous fixed space of the given ambient matrices,
    as the nullspace of the stacked (rho(g) - I) blocks."""
    if not ambient_actions:
        raise GroupActionError("need at least one ambient action matrix")
    n = ambient_actions[0].ncols
    rows = []
    for mat in ambient_actions:
        for i, row in enumerate(mat.rows):
            r = {j: v for j, v in enumerate(row) if v}
            cur = r.get(i, None)
            if cur is None:
                r[i] = -fld.one
            else:
                cur = cur - fld.one
                if cur:
                    r[i] = cur
                else:
                    del r[i]
            if r:
                rows.append(r)
    pivots = rref_rows(rows, fld)
    cols, _ = nullspace_from_rref(pivots, n, fld)
    z = fld.zero
    dense = []
    for col in cols:
        v = [z] * n
        for i, val in col.items():
            v[i] = val
        dense.append(v)
    return Matrix.from_columns(dense, n, fld)


def reynolds_project(action, module_action, degree, data):
    """Group-average a flat coefficient list: (1/|G|) sum_g rho(g) c.

    Requires the field characteristic not to divide the group order.
    """
    fld = action.system.field
    n = action.size
    if fld.char and n % fld.char == 0:
        raise GroupActionError("characteristic %d divides the group order %d"
                               % (fld.char, n))
    acc = [fld.zero] * len(data)
    for g in range(n):
        moved = act_dense(action, module_action, g, degree, data)
        acc = [a + b for a, b in zip(acc, moved)]
    inv = fld.div(fld.one, fld(n))
    return [fld(inv * a) for a in acc]


# ---------------------------------------------------------------------------
# cochain constraints and module operators


def three_slot_conditions(d):
    """The conditions on the last three slots that define C^k, in witness
    order: (axiom, witness, triples), each saying that the values at the
    triples sum to zero.  The square condition is polarized plus the
    diagonal."""
    for i in range(d):
        for j in range(i, d):
            for y in range(d):
                if i == j:
                    yield "square", (i, i, y), ((i, i, y),)
                else:
                    yield "square", (i, j, y), ((i, j, y), (j, i, y))
    for x, y, z in product(range(d), repeat=3):
        yield "cyclic", (x, y, z), ((x, y, z), (y, z, x), (z, x, y))


def constraint_rows(d, m, degree, field):
    """Reference for the constraint rows of cohomology.three_slot_constraint_rows,
    written out from three_slot_conditions over the full degree ambient
    (for every prefix), one row per condition and value coordinate."""
    if degree == 1:
        return []
    block = d ** 3 * m
    rows = []
    for p in range(d ** (degree - 3)):
        for _, _, triples in three_slot_conditions(d):
            for a in range(m):
                row = {}
                for i, j, k in triples:
                    key = p * block + ((i * d + j) * d + k) * m + a
                    row[key] = field(row.get(key, field.zero) + field.one)
                row = {key: v for key, v in row.items() if v}
                if row:
                    rows.append(row)
    return rows


def cochain_violations_loop(c, all_witnesses=False):
    """Reference for cohomology.cochain_violations: three_slot_conditions
    at every prefix, prefix by prefix."""
    rec = Recorder(all_witnesses)
    degree = len(c.dims)
    if degree < 3:
        return rec.report()
    d, m = c.dims[0], c.dim_out
    zero = c.field.zero
    data = dense(c)
    for p, pre in enumerate(product(range(d), repeat=degree - 3)):
        for axiom, witness, triples in three_slot_conditions(d):
            w = [zero] * m
            for i, j, k in triples:
                base = (p * d ** 3 + (i * d + j) * d + k) * m
                for l in range(m):
                    w[l] = c.field(w[l] + data[base + l])
            if any(w):
                rec.hit(axiom, pre + witness, w)
    return rec.report()


def bracket_passes_reference(module):
    """Reference for cohomology._check_bracket, written out on the tables:
    True when the bracket has no entry at i = j and its sums over SKEW and
    CYCLIC vanish (the SKEW sum at i = j is twice the diagonal, at i > j
    that at i < j)."""
    mu = module.system.mu
    d = mu.dims[0]
    return not (mu.field.sparse((key, v) for key, v in mu.entries.items()
                                if key // (d ** 3) == key // (d * d) % d)
                or not permuted_sum([(mu, perm) for perm in SKEW]).is_zero()
                or not permuted_sum([(mu, perm) for perm in CYCLIC]).is_zero())


def theta_basis(module, i, j):
    """Matrix of theta(e_i, e_j): v -> [v e_i e_j] on the V-basis."""
    m = module.dim
    cols = [module.right.basis_value(i, j, w) for w in range(m)]
    return Matrix([[cols[w][l] for w in range(m)] for l in range(m)],
                  module.system.field, copy=False)


def theta(module, a, b):
    """Matrix of theta(a, b) for coefficient-vector arguments."""
    d = module.system.dim
    a = _as_vector(a, d)
    b = _as_vector(b, d)
    acc = Matrix.zero(module.dim, module.dim, module.system.field)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                acc = acc + theta_basis(module, i, j).scale(x * y)
    return acc


def d_operator(module, a, b):
    return theta(module, b, a) - theta(module, a, b)


def _as_vector(x, d):
    if isinstance(x, int):
        v = [0] * d
        v[x] = 1
        return v
    if len(x) != d:
        raise LinAlgError("vector of length %d, expected %d" % (len(x), d))
    return list(x)


# ---------------------------------------------------------------------------
# invariant bases and echelon forms


def invariant_basis_all_elements(module, degree, action, module_action=None):
    """Basis of C_G^degree(T; V) as the kernel of the stacked rows of
    (g.c - c) over the plain basis columns c, for every non-identity element
    g of the group (the library stacks a generating set only), each column
    moved densely by act_dense, apart from the library's slot transform."""
    if module_action is None:
        module_action = self_module_action(action, module)
    basis = cochain_space_basis(module, degree)
    field = basis.field
    rows = {}
    ambient = basis.dim ** degree * basis.mdim
    for g in range(action.size):
        if g == action.identity_index:
            continue
        for c, col in enumerate(basis.columns):
            data = [col.get(pos, 0) for pos in range(ambient)]
            moved = act_dense(action, module_action, g, degree, data)
            for pos, v in enumerate(moved):
                if v := v - data[pos]:
                    rows.setdefault((g, pos), {})[c] = v
    pivots = rref_in_order(rows.values(), field)
    ncols, nfree = nullspace_from_rref(pivots, len(basis.columns), field)
    inv_columns = []
    for ncol in ncols:
        out = {}
        for j, coef in ncol.items():
            for pos, v in basis.columns[j].items():
                out[pos] = out.get(pos, 0) + coef * v
        inv_columns.append({pos: r for pos, v in out.items() if (r := field(v))})
    inv_free = [basis.free_positions[j] for j in nfree]
    return CochainBasis(degree, basis.dim, basis.mdim, field, inv_columns, inv_free,
                        invariant=True)


def nullspace(m):
    """Basis of the right kernel of the Matrix m as matrix columns, the
    canonical one of linalg.nullspace_from_rref (free variables ascending)."""
    field = m.field
    pivots = rref_rows([{j: v for j, v in enumerate(row) if v} for row in m.rows], field)
    cols, _ = nullspace_from_rref(pivots, m.ncols, field)
    return Matrix.from_columns([[col.get(i, field.zero) for i in range(m.ncols)]
                                for col in cols], m.ncols, field)


def parse_coefficient(s, fld):
    """Reference for documents._parse_coeff on strings of its grammar: the
    whole string, spaces stripped, read by Fraction and then the field."""
    return fld(Fraction(s.strip()))


def rref_in_order(rows, field):
    """Reference for linalg.rref_rows: the rows enter RrefAccumulator one at
    a time in the order given, not sparsest first."""
    acc = RrefAccumulator(field)
    for row in rows:
        acc.add(row)
    return acc.pivots


def cohomology_index_order(cx, degree):
    """Reference for CochainComplex.cohomology: the cocycle rows of cx
    eliminated with every pivot at the lowest column index, so that
    nullspace_from_rref gives the canonical cocycle basis at once.  The
    coboundaries are the images of the basis of degree - 2, each computed
    alone and expressed in the basis of degree; the representatives are
    the canonical cocycles that extend their span, in order.  Returns
    (dim Z, dim B, the canonical cocycle basis as coordinate dicts,
    representatives)."""
    field = cx.field
    basis = cx.basis(degree)
    cocycles = RrefAccumulator(field)
    for row in cx.rows(degree).values():
        cocycles.add(row)
    span = RrefAccumulator(field)
    if degree > 1:
        source = cx.basis(degree - 2)
        for j in range(len(source)):
            image = apply_coboundary(cx.module, source.combine({j: 1}))
            span.add(dict(enumerate(basis.express(image))))
    dim_b = span.rank
    zcols, _ = nullspace_from_rref(cocycles.pivots, len(basis), field)
    representatives = [basis.combine(z) for z in zcols if span.add(z)]
    return len(basis) - cocycles.rank, dim_b, zcols, representatives


def rref_dense(rows, ncols, field):
    """Textbook Gauss-Jordan elimination on dense rows, as the {pivot column:
    sparse row} dict that linalg.rref_rows returns."""
    mat = [[field(row.get(c, field.zero)) for c in range(ncols)] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        inv = field.div(field.one, mat[r][c])
        mat[r] = [field(inv * v) for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [field(a - f * b) for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return {c: {j: v for j, v in enumerate(mat[i]) if v} for i, c in enumerate(pivots)}


# ---------------------------------------------------------------------------
# dense cochains and the pointwise coboundary


def cochain(data, degree, d, m, fld=QQ):
    """The degree-cochain over d basis vectors with values in an
    m-dimensional module whose coefficients are the flat list data."""
    if len(data) != d ** degree * m:
        raise LinAlgError("cochain data of length %d, expected %d"
                          % (len(data), d ** degree * m))
    return StructureTensor.from_entries(dict(enumerate(data)), (d,) * degree, m, fld)


def dense(c):
    """All coefficients of a sparse tensor as one flat list."""
    z = c.field.zero
    return [c.entries.get(k, z) for k in range(prod(c.dims) * c.dim_out)]


def reconstruct_dense(basis, coords):
    """The member of the basis's span with the sparse coordinates {column:
    scalar}, as a flat list over the ambient space: every column scaled and
    added in turn, each entry reduced by the field at the end.  A vector
    lies in the span exactly when it equals this list for its entries at
    the free positions."""
    fld = basis.field
    out = [0] * (basis.dim ** basis.degree * basis.mdim)
    for j, coef in coords.items():
        for pos, v in basis.columns[j].items():
            out[pos] += coef * v
    return [fld(v) for v in out]


def coboundary_pointwise(module, f):
    """Reference for cohomology.apply_coboundary: the coboundary formula
    evaluated at every basis tuple (x_1, ..., x_{2n+1}),

        theta(x_{2n}, x_{2n+1}) f(x_1, ..., x_{2n-1})
      - theta(x_{2n-1}, x_{2n+1}) f(x_1, ..., x_{2n-2}, x_{2n})
      + sum_k (-1)^(k+n) D(x_{2k-1}, x_{2k}) f(..omit pair k..)
      + sum_k sum_{j>2k} (-1)^(n+k+1) f(..omit pair k.., [x_{2k-1} x_{2k} x_j], ..)

    with hat-omission and substitution taken literally on argument positions.
    """
    d = module.system.dim
    m = module.dim
    deg_in = len(f.dims)
    if f.dims != (d,) * deg_in or f.dim_out != m:
        raise LinAlgError("cochain does not match the module shape")
    n = (deg_in + 1) // 2
    deg_out = deg_in + 2

    th = [[theta_basis(module, i, j).rows for j in range(d)] for i in range(d)]
    dop = [[[[a - b for a, b in zip(r1, r2)]
             for r1, r2 in zip(th[j][i], th[i][j])] for j in range(d)]
           for i in range(d)]
    mu = module.system.mu
    brk = [[[tuple((l, v) for l, v in enumerate(mu.basis_value(i, j, k)) if v)
             for k in range(d)] for j in range(d)] for i in range(d)]
    data = dense(f)

    def fvec(idx):
        base = 0
        for i in idx:
            base = base * d + i
        base *= m
        return data[base:base + m]

    def matvec_acc(acc, mat, vec, sign):
        for l in range(m):
            row = mat[l]
            s = acc[l]
            for w, v in zip(row, vec):
                if w and v:
                    s = s + w * v if sign > 0 else s - w * v
            acc[l] = s

    out = []
    for x in product(range(d), repeat=deg_out):
        acc = [0] * m
        v = fvec(x[:deg_out - 2])
        if any(v):
            matvec_acc(acc, th[x[deg_out - 2]][x[deg_out - 1]], v, +1)
        v = fvec(x[:deg_out - 3] + (x[deg_out - 2],))
        if any(v):
            matvec_acc(acc, th[x[deg_out - 3]][x[deg_out - 1]], v, -1)
        for k in range(1, n + 1):
            sign = 1 if (k + n) % 2 == 0 else -1
            omitted = x[:2 * k - 2] + x[2 * k:]
            v = fvec(omitted)
            if any(v):
                matvec_acc(acc, dop[x[2 * k - 2]][x[2 * k - 1]], v, sign)
            bk = brk[x[2 * k - 2]][x[2 * k - 1]]
            for j0 in range(2 * k, deg_out):
                entries = bk[x[j0]]
                if not entries:
                    continue
                sub = j0 - 2
                for l, coef in entries:
                    v = fvec(omitted[:sub] + (l,) + omitted[sub + 1:])
                    if any(v):
                        for t in range(m):
                            if v[t]:
                                # substitution terms carry the opposite sign
                                acc[t] = acc[t] - coef * v[t] if sign > 0 \
                                    else acc[t] + coef * v[t]
        out.extend(acc)
    return cochain(out, deg_out, d, m, module.system.field)


def coboundary_images_per_term(module, degree, cochains):
    """Reference for cohomology._coboundary_images with every position as a
    row: each term of each nonzero entry f(y)_w pushed into the whole ambient
    space of C^(degree + 2), with the theta, D and inverse bracket tables as
    the field's scalars, and each image reduced once by the field."""
    d = module.system.dim
    m = module.dim
    field = module.system.field
    theta, dop = [[] for _ in range(m)], [[] for _ in range(m)]
    for lists, tensor in ((theta, module.right), (dop, theta_module(module).left)):
        for key in sorted(tensor.entries):
            a, c, w, l = slot_indices(key, (d, d, m, m))
            lists[w].append((a, c, l, tensor.entries[key]))
    inverse_bracket = [[] for _ in range(d)]
    mu = module.system.mu.entries
    for key in sorted(mu):
        a, c, e, l = slot_indices(key, (d, d, d, d))
        inverse_bracket[l].append((a, c, e, mu[key]))
    n = (degree + 1) // 2
    place = [d ** (degree - 1 - s) for s in range(degree)]
    for col in cochains:
        out = {}
        for pos, v in col.items():
            ybase, w = divmod(pos, m)
            y = [ybase // step % d for step in place]
            # theta(x_{2n}, x_{2n+1}) f(x_1, ..., x_{2n-1})
            # - theta(x_{2n-1}, x_{2n+1}) f(x_1, ..., x_{2n-2}, x_{2n})
            head, last = divmod(ybase, d)
            for a, c, l, t in theta[w]:
                key = ((ybase * d + a) * d + c) * m + l
                out[key] = out.get(key, 0) + t * v
                key = (((head * d + a) * d + last) * d + c) * m + l
                out[key] = out.get(key, 0) - t * v
            for k in range(1, n + 1):
                sv = v if (k + n) % 2 == 0 else -v
                gap = 2 * k - 2
                tail = d ** (degree - gap)
                hi, lo = divmod(ybase, tail)
                # D(x_{2k-1}, x_{2k}) f(..omit pair k..)
                for a, c, l, t in dop[w]:
                    key = (((hi * d + a) * d + c) * tail + lo) * m + l
                    out[key] = out.get(key, 0) + t * sv
                # -f(..omit pair k.., [x_{2k-1} x_{2k} x_j], ..) for j > 2k
                for s in range(gap, degree):
                    for a, c, e, coef in inverse_bracket[y[s]]:
                        key = ((((hi * d + a) * d + c) * tail + lo
                                + (e - y[s]) * place[s]) * m + w)
                        out[key] = out.get(key, 0) - coef * sv
        yield field.sparse(out.items())


def preimage_on_every_row(cx, c):
    """Reference for CochainComplex.preimage: the canonical solve
    (linalg.solve_rows) of the coboundary read at every plain free position
    of C^k, from the per-term images of the source basis columns, against
    c read there; None when there is no solution."""
    source = cx.basis(len(c.dims) - 2)
    rows = {}
    images = coboundary_images_per_term(cx.module, source.degree, source.columns)
    for j, image in enumerate(cx._at_plain_free(images)):
        for r, v in image.items():
            rows.setdefault(r, {})[j] = v
    rhs, = cx._at_plain_free([c.entries])
    x = solve_rows(rows, rhs, len(source), cx.field)
    return None if x is None else source.combine(x)
