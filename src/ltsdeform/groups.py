"""Finite group actions on a Lie triple system by bracket-preserving
linear automorphisms.

Groups are given by explicit element lists (label, matrix), compared
exactly.  Closure is validated on the right multiplications by a
generating set only; the rest of the multiplication table follows from
them by integer lookups.  A multilinear map (the bracket, a module action, a
deformation term, a cochain) is equivariant exactly when it is a fixed
point of the group action on maps, g.T = V(g) o T o (g^{-1} x ... x g^{-1})
with V(g^{-1}) on a module slot, so one fixed-point test
(equivariance_failure) on the one slot transform (tensorops.transform_sparse)
checks them all, gauge terms (degree-1 cochains) too, a whole list of maps
of one shape per transform.  It is run for a
deterministic generating set (generators) only.  That is exact: the group
acts through a homomorphism, so a property preserved under composition
that holds for every generator holds for every element, and the fixed
space of the generators is the fixed space of the group.
"""

from __future__ import annotations

from dataclasses import dataclass

from .caps import DEFAULT_CAPS
from .linalg import QQ, Matrix, rank
from .lts import rect_lts
from .tensorops import first_difference, slot_indices, transform_sparse


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


def make_group_action(system, elements, caps=DEFAULT_CAPS):
    """Validate (label, matrix) pairs as a group acting on the system.

    Checks, in order: shapes, duplicate elements, invertibility, closure
    (building the multiplication table from |G| matrix products per element
    of a generating set, see _closed_table; when it fails, a row-major scan
    names the first pair whose product is not an element), and equivariance
    of the bracket under the generating set of generators(); equivariance
    under s and t implies it under st, so that covers every element.
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
        where.setdefault(m, []).append(k)
    dups = [ks for ks in where.values() if len(ks) > 1]
    if dups:
        i, j = min(dups)[:2]
        raise GroupActionError("duplicate element matrices %r and %r"
                               % (labels[i], labels[j]))
    index = {key: ks[0] for key, ks in where.items()}
    for lab, m in zip(labels, mats):
        if rank(m) != d:
            raise GroupActionError("element %r is not invertible" % (lab,))

    identity_index = index.get(Matrix.identity(d, fld))
    table = None if identity_index is None else _closed_table(mats, index, identity_index)
    if table is None:
        i, j = _first_non_product(mats, index)
        raise GroupActionError("not closed under product: %r * %r is not "
                               "an element" % (labels[i], labels[j]))
    inverses = tuple(row.index(identity_index) for row in table)

    action = GroupAction(system, labels, mats, identity_index, table, inverses)
    failure, = equivariance_failure(action, [system.mu])
    if failure is not None:
        raise GroupActionError(
            "bracket is not equivariant under element %r at basis triple "
            "(%d, %d, %d)" % ((labels[failure[0]],) + failure[1]))
    return action


def _closed_table(mats, index, identity):
    """Multiplication table of the list, or None when some product falls
    outside it.

    Only right multiplications by a generating set are matrix products:
    walking the list in index order, each element that the search from the
    identity has not reached becomes a generator s, with
    R_s[g] = index of g s, and the breadth-first search over every R_s so far
    records each element b it reaches as b = a s_t (one search costs
    |G| |gens| lookups, so it is simply run again for each new generator).
    Once every element is reached, every element is a word in the
    generators, so rows follow by integer lookups, i b = R_t[i a], and the
    list is closed.  (Holt, Eick and O'Brien, Handbook of Computational
    Group Theory, 2005, ch. 4.)
    """
    rights = []
    order, parent = [identity], {identity: None}
    for s in range(len(mats)):
        if s in parent:
            continue
        r = [index.get(m * mats[s]) for m in mats]
        if None in r:
            return None
        rights.append(r)
        order, parent = [identity], {identity: None}
        for a in order:
            for t, rt in enumerate(rights):
                if rt[a] not in parent:
                    parent[rt[a]] = (a, t)
                    order.append(rt[a])
    table = []
    for i in range(len(mats)):
        row = [None] * len(mats)
        row[identity] = i
        for b in order[1:]:
            a, t = parent[b]
            row[b] = rights[t][row[a]]
        table.append(tuple(row))
    return tuple(table)


def _first_non_product(mats, index):
    """First pair (i, j) in row-major order whose product is not an element
    (there is one: a finite set of invertible matrices closed under
    products is a group, so it holds the identity)."""
    for i, mi in enumerate(mats):
        for j, mj in enumerate(mats):
            if mi * mj not in index:
                return i, j


def equivariance_witness(tensors, in_mats, out_inv):
    """For each tensor T of the list, all of one shape with k input slots,
    the first basis tuple t, in lexicographic order, with
    out_inv T(A_1 e_t1, ..., A_k e_tk) != T(e_t1, ..., e_tk), A_s = in_mats[s],
    or None: the fixed-point form of T(A_1 x_1, ..., A_k x_k) = B T(x_1,
    ..., x_k), out_inv = B^{-1}.  One transform_sparse call moves them all."""
    mats = [a.rows for a in in_mats] + [list(zip(*out_inv.rows))]
    out = []
    for tensor, moved in zip(tensors, transform_sparse([t.entries for t in tensors], mats)):
        key = first_difference(tensor.field.sparse(moved.items()), tensor.entries)
        out.append(None if key is None else slot_indices(key // tensor.dim_out, tensor.dims))
    return out


def equivariance_failure(action, tensors, values=None):
    """For each tensor of the list, all of one shape, (g, equivariance_witness's
    tuple) for the first generator g that moves it, or None.  The input
    slots read through g, but the last through V(g), and the values through
    V(g^{-1}); V is values (aligned with the element list), or the element
    matrices when values is None.  One equivariance_witness call per
    generator moves every tensor that no earlier generator moved."""
    values = action.matrices if values is None else values
    out = [None] * len(tensors)
    for g in generators(action):
        pending = [i for i, failure in enumerate(out) if failure is None]
        if not pending:
            break
        head = len(tensors[0].dims) - 1
        witnesses = equivariance_witness([tensors[i] for i in pending],
                                         (action.matrices[g],) * head + (values[g],),
                                         values[action.inverses[g]])
        for i, t in zip(pending, witnesses):
            if t is not None:
                out[i] = (g, t)
    return out


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

    A candidate in the subgroup of a candidate evaluated before it in the
    same step generates no more than that one, which has the lower index,
    so it cannot win the step and is skipped without a closure.
    """
    cached = action.__dict__.get("_generators")
    if cached is not None:
        return cached
    table, ident, n = action.mult_table, action.identity_index, action.size
    gens = []
    sub = {ident}
    while len(sub) < n:
        best, covered = None, set(sub)
        for g in range(n):
            if g in covered:
                continue
            cand = _subgroup(table, ident, gens + [g])
            covered |= cand
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


def transpose_action_on_rect(p, fld=QQ):
    """The two-element action on square-matrix rect_lts(p, p) by transposition."""
    system = rect_lts(p, p, fld)
    d = p * p
    # row j p + i has its one at column i p + j
    swap = Matrix([[int(c == r % p * p + r // p) for c in range(d)] for r in range(d)], fld)
    action = make_group_action(system, [("0", Matrix.identity(d, fld)), ("1", swap)])
    return system, action


def self_module_action(action, module):
    """The module action on the self-module, reusing the element matrices."""
    return make_module_action(action, module, list(action.matrices))


def make_module_action(action, module, matrices):
    """Validate the module matrices as a representation V of the group
    (V(e) = I and V(s) V(g) = V(sg) for every generator s and element g,
    which makes every V(g) invertible; module matrices equal to the element
    matrices pass by the table) under which the three module actions
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
    # the element matrices themselves need no check: the table holds their products
    if mats != action.matrices:
        for s in generators(action):
            row = action.mult_table[s]
            for g in range(action.size):
                if mats[s] * mats[g] != mats[row[g]]:
                    raise GroupActionError(
                        "module matrices are not a representation: V(%r) V(%r) != V(%r)"
                        % (action.labels[s], action.labels[g], action.labels[row[g]]))
    failures = equivariance_failure(action, [module.left, module.right, module.middle], mats)
    for name, failure in zip(("left", "right", "middle"), failures):
        if failure is not None:
            raise GroupActionError(
                "module action %s is not equivariant under %r at (%d, %d, %d)"
                % ((name, action.labels[failure[0]]) + failure[1]))
    return ModuleAction(module, mats)


# ---------------------------------------------------------------------------
# induced action on cochain ambients


def apply_group_sparse(action, module_action, g, degree, columns):
    """Apply element g to every sparse degree-cochain {flat index: value}
    in the list, returning the list of moved cochains:
    (g.c)(x_1, ..., x_k) = V(g) c(g^{-1} x_1, ..., g^{-1} x_k).
    One call per element moves a whole basis, so the slot matrices are
    read (and the monomial move tables of transform_sparse built) once.
    The values are transform_sparse's exact sums, unreduced over GF(p)."""
    ginv = action.inverse_matrix(g).rows
    gv = list(zip(*module_action.matrices[g].rows))
    return transform_sparse(columns, [ginv] * degree + [gv])


def apply_group_dense(action, module_action, g, degree, data):
    """apply_group_sparse on one flat coefficient list, as a list of field
    scalars."""
    moved, = apply_group_sparse(action, module_action, g, degree, [dict(enumerate(data))])
    return action.system.field.dense([moved.get(k, 0) for k in range(len(data))])
