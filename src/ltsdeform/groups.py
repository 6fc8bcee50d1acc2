"""Finite group actions on a Lie triple system by bracket-preserving
linear automorphisms.

Groups are given by explicit element lists (label, matrix); closure,
identity and invertibility are validated by exact comparison over the
whole list.  Equivariance of the bracket, of a module action and of
deformation terms, and invariance of cochains, are checked on a
deterministic generating set (generators) only.  That is exact: the group
acts through a homomorphism, so a property preserved under composition
that holds for every generator holds for every element, and the fixed
space of the generators is the fixed space of the group.  Invariant
subspaces of cochain ambients are computed as stacked nullspaces, which is
valid in every characteristic; the Reynolds averaging projector is
provided as a cross-check when the characteristic permits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .caps import DEFAULT_CAPS
from .linalg import Matrix, rank, rref_rows, nullspace_from_rref
from .tensorops import transform_dense, transform_sparse


class GroupActionError(ValueError):
    """The element list fails the group axioms or equivariance."""


@dataclass(frozen=True)
class GroupAction:
    system: object
    labels: tuple
    matrices: tuple
    identity_index: int
    mult_table: tuple
    inverses: tuple

    @property
    def size(self):
        return len(self.matrices)

    def inverse_matrix(self, g):
        return self.matrices[self.inverses[g]]


@dataclass(frozen=True)
class ModuleAction:
    """Action on a coefficient module, aligned with the group element list."""

    module: object
    matrices: tuple
    verified: tuple  # which of the three module actions were checked equivariant


def _matrix_key(m, fld):
    """Hashable form of a matrix: equal matrices get equal keys, also when
    some entries are plain ints standing for prime-field elements."""
    return tuple(tuple(fld(v) for v in row) for row in m.rows)


def make_group_action(system, elements, caps=DEFAULT_CAPS):
    """Validate (label, matrix) pairs as a group acting on the system.

    Checks, in order: shapes, duplicate elements, invertibility, closure
    (building the multiplication table), presence of the identity, and
    equivariance of the bracket under the generating set of generators();
    equivariance under s and t implies it under st, so that covers every
    element.
    """
    labels = tuple(lab for lab, _ in elements)
    mats = tuple(m for _, m in elements)
    n = len(mats)
    if n == 0:
        raise GroupActionError("empty element list")
    caps.check_group(n)
    d, fld = system.dim, system.field
    for lab, m in zip(labels, mats):
        if m.nrows != d or m.ncols != d:
            raise GroupActionError("element %r is %dx%d, expected %dx%d"
                                   % (lab, m.nrows, m.ncols, d, d))
    if len(set(labels)) != n:
        raise GroupActionError("duplicate labels in element list")
    where = {}
    for k, m in enumerate(mats):
        where.setdefault(_matrix_key(m, fld), []).append(k)
    dups = [ks for ks in where.values() if len(ks) > 1]
    if dups:
        i, j = min(dups)[:2]
        raise GroupActionError("duplicate element matrices %r and %r"
                               % (labels[i], labels[j]))
    index = {key: ks[0] for key, ks in where.items()}
    for lab, m in zip(labels, mats):
        if rank(m) != d:
            raise GroupActionError("element %r is not invertible" % (lab,))

    table = []
    for i in range(n):
        row = []
        for j in range(n):
            k = index.get(_matrix_key(mats[i] * mats[j], fld))
            if k is None:
                raise GroupActionError("not closed under product: %r * %r is not "
                                       "an element" % (labels[i], labels[j]))
            row.append(k)
        table.append(tuple(row))

    identity_index = index.get(_matrix_key(Matrix.identity(d, fld), fld))
    if identity_index is None:
        raise GroupActionError("identity matrix missing from element list")

    inverses = []
    for i in range(n):
        for j in range(n):
            if table[i][j] == identity_index:
                inverses.append(j)
                break
        else:
            raise GroupActionError("element %r has no inverse in the list" % (labels[i],))

    action = GroupAction(system, labels, mats, identity_index,
                         tuple(table), tuple(inverses))
    mu = system.mu
    for g in generators(action):
        lab, m = labels[g], mats[g]
        gcols = [m.column(j) for j in range(d)]
        for a, b, c in product(range(d), repeat=3):
            lhs = mu.evaluate(gcols[a], gcols[b], gcols[c])
            rhs = m.apply(list(mu.basis_value(a, b, c)))
            if lhs != rhs:
                raise GroupActionError(
                    "bracket is not equivariant under element %r at basis triple "
                    "(%d, %d, %d)" % (lab, a, b, c))
    return action


def _subgroup(table, identity, gens):
    """Element indices of the subgroup generated by gens."""
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for a in frontier:
            row = table[a]
            for s in gens:
                c = row[s]
                if c not in seen:
                    seen.add(c)
                    new.append(c)
        frontier = new
    return seen


def generators(action):
    """Deterministic generating set of the group, as a tuple of element
    indices in the order they were chosen.

    Greedy over the multiplication table: each step adds the element that,
    with the generators so far, generates the largest subgroup (the lowest
    index on a tie), until the whole group is reached.  The subgroup at
    least doubles at every step (Lagrange), so there are at most
    log2 |G| generators; the trivial group has none.  Cached on the action.
    """
    cached = action.__dict__.get("_generators")
    if cached is not None:
        return cached
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
    cached = tuple(gens)
    object.__setattr__(action, "_generators", cached)
    return cached


def trivial_action(system):
    return make_group_action(system, [("e", Matrix.identity(system.dim, system.field))])


def sign_action(system):
    """The two-element action {I, -I}; equivariant on any Lts by trilinearity."""
    d = system.dim
    one = Matrix.identity(d, system.field)
    return make_group_action(system, [("0", one), ("1", one.scale(-system.field.one))])


def transpose_action_on_rect(p, fld=None):
    """The two-element action on square-matrix rect_lts(p, p) by transposition."""
    from .lts import rect_lts
    from .linalg import QQ

    fld = QQ if fld is None else fld
    system = rect_lts(p, p, fld)
    d = p * p
    z, one = fld.zero, fld.one
    rows = [[z] * d for _ in range(d)]
    for i in range(p):
        for j in range(p):
            rows[j * p + i][i * p + j] = one
    swap = Matrix(rows, fld, copy=False)
    action = make_group_action(system, [("0", Matrix.identity(d, fld)), ("1", swap)])
    return system, action


def self_module_action(action, module):
    """The module action on the self-module, reusing the element matrices."""
    return make_module_action(action, module, list(action.matrices))


def make_module_action(action, module, matrices):
    """Validate the module matrices as a representation V of the group
    (V(e) = I and V(s) V(g) = V(sg) for every generator s and element g,
    which makes every V(g) invertible) under which the three module actions
    are equivariant.

    Equivariance is checked under the generators only: for a representation
    it passes from s and t to st.
    """
    m = module.dim
    mats = tuple(matrices)
    if len(mats) != action.size:
        raise GroupActionError("module matrices must align with the element list")
    for lab, vm in zip(action.labels, mats):
        if vm.nrows != m or vm.ncols != m:
            raise GroupActionError("module matrix for %r is %dx%d, expected %dx%d"
                                   % (lab, vm.nrows, vm.ncols, m, m))
    e = action.identity_index
    if mats[e] != Matrix.identity(m, action.system.field):
        raise GroupActionError("module matrix for the identity %r is not the identity"
                               % (action.labels[e],))
    gens = generators(action)
    for s in gens:
        row = action.mult_table[s]
        for g in range(action.size):
            if mats[s] * mats[g] != mats[row[g]]:
                raise GroupActionError(
                    "module matrices are not a representation: V(%r) V(%r) != V(%r)"
                    % (action.labels[s], action.labels[g], action.labels[row[g]]))
    d = module.system.dim
    checked = []
    for name, tensor in (("left", module.left), ("right", module.right),
                         ("middle", module.middle)):
        for g in gens:
            lab, gm, vm = action.labels[g], action.matrices[g], mats[g]
            gcols = [gm.column(j) for j in range(d)]
            vcols = [vm.column(w) for w in range(m)]
            for a, b, w in product(range(d), range(d), range(m)):
                lhs = tensor.evaluate(gcols[a], gcols[b], vcols[w])
                rhs = vm.apply(list(tensor.basis_value(a, b, w)))
                if lhs != rhs:
                    raise GroupActionError(
                        "module action %s is not equivariant under %r at (%d, %d, %d)"
                        % (name, lab, a, b, w))
        checked.append(name)
    return ModuleAction(module, mats, tuple(checked))


# ---------------------------------------------------------------------------
# induced action on cochain ambients


def apply_group_dense(action, module_action, g, degree, data):
    """Apply element g to a flat degree-cochain coefficient list."""
    d = action.system.dim
    m = module_action.module.dim
    ginv = action.inverse_matrix(g).rows
    gv = module_action.matrices[g].rows
    return transform_dense(data, degree, d, m, ginv, gv)


def apply_group_sparse(action, module_action, g, degree, entries):
    d = action.system.dim
    m = module_action.module.dim
    ginv = action.inverse_matrix(g).rows
    gv = module_action.matrices[g].rows
    return transform_sparse(entries, degree, d, m, ginv, gv)


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
    out = []
    fld = action.system.field
    z = fld.zero
    for g in range(action.size):
        cols = []
        for pos in range(ambient):
            res = apply_group_sparse(action, module_action, g, degree, {pos: fld.one})
            col = [z] * ambient
            for key, v in res.items():
                col[key] = v
            cols.append(col)
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
    """Group-average a cochain: (1/|G|) sum_g rho(g) c.

    Accepts a flat coefficient list or a cochain object and returns the same
    kind.  Requires the field characteristic not to divide the group order.
    """
    fld = action.system.field
    n = action.size
    if fld.char and n % fld.char == 0:
        raise GroupActionError("characteristic %d divides the group order %d"
                               % (fld.char, n))
    wrap = None
    if hasattr(data, "data"):
        wrap, data = data, list(data.data)
    acc = [fld.zero] * len(data)
    for g in range(n):
        moved = apply_group_dense(action, module_action, g, degree, data)
        acc = [a + b for a, b in zip(acc, moved)]
    inv = fld.div(fld.one, fld(n))
    out = [inv * a for a in acc]
    if wrap is not None:
        return type(wrap).build(wrap.degree, wrap.dim, wrap.mdim, out)
    return out
