"""Slow reference implementations that the tests compare the library with."""

from ltsdeform.cohomology import CochainBasis, cochain_space_basis
from ltsdeform.groups import apply_group_sparse, self_module_action
from ltsdeform.linalg import nullspace_from_rref, rref_rows


def invariant_basis_all_elements(module, degree, action, module_action=None):
    """Basis of C_G^degree(T; V) as the kernel of the stacked rows of
    (g.c - c) over the plain basis columns c, for every non-identity element
    g of the group (the library stacks a generating set only)."""
    if module_action is None:
        module_action = self_module_action(action, module)
    basis = cochain_space_basis(module, degree)
    field = basis.field
    rows = {}
    for g in range(action.size):
        if g == action.identity_index:
            continue
        for c, col in enumerate(basis.columns):
            moved = apply_group_sparse(action, module_action, g, degree, col)
            for pos, v in col.items():
                cur = moved.get(pos)
                if cur is None:
                    moved[pos] = -v
                else:
                    cur = cur - v
                    if cur:
                        moved[pos] = cur
                    else:
                        del moved[pos]
            for pos, v in moved.items():
                rows.setdefault((g, pos), {})[c] = v
    pivots = rref_rows(rows.values(), field)
    ncols, nfree = nullspace_from_rref(pivots, len(basis.columns), field)
    inv_columns = []
    for ncol in ncols:
        out = {}
        for j, coef in ncol.items():
            for pos, v in basis.columns[j].items():
                out[pos] = out.get(pos, 0) + coef * v
        inv_columns.append({pos: v for pos, v in out.items() if v})
    inv_free = [basis.free_positions[j] for j in nfree]
    return CochainBasis(degree, basis.dim, basis.mdim, field, inv_columns, inv_free,
                        invariant=True)


def rref_dense(rows, ncols, field):
    """Textbook Gauss-Jordan elimination on dense rows, as the {pivot column:
    sparse row} dict that linalg.rref_rows returns."""
    mat = [[row.get(c, field.zero) for c in range(ncols)] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        inv = field.div(field.one, mat[r][c])
        mat[r] = [inv * v for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return {c: {j: v for j, v in enumerate(mat[i]) if v} for i, c in enumerate(pivots)}
