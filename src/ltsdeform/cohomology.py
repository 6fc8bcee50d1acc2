"""Odd-degree cochain spaces of a Lie triple system, the coboundary, and
(equivariant) cohomology.

A degree-(2n+1) cochain f with values in a module V is constrained, for
n >= 1, by f(x_1,...,x_{2n-2},x,x,y) = 0 and the cyclic sum over the last
three arguments; degree 1 is the full Hom(T, V).  Both constraints touch
only the last three slots with a common prefix, so the constraint matrix
is block diagonal over prefixes with one repeated block; its unique
reduced-echelon nullspace is assembled from the kernel of that single
block.  Cochain coordinates are raw ambient tensor entries throughout,
flattened row-major over (inputs..., value coordinate).

The square condition is imposed in polarized form plus the diagonal, and
invariant subspaces come from stacked nullspaces, so every computation is
valid in any characteristic.  An invariant subspace is the fixed space of
a deterministic generating set of the group (groups.generators), which is
exact: the group acts through a homomorphism, so whatever every generator
fixes the whole group fixes.

Coboundary matrices are assembled by pushing each nonzero entry of a basis
column forward through the coboundary formula, at a cost proportional to
nnz * d^2 per column rather than the d^(k+2) output tuples of a degree-k
cochain; the images are read off as sparse coordinates and fed straight
into the echelon form.  apply_coboundary evaluates the same formula
pointwise on a dense cochain and is the reference the tests compare
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .caps import DEFAULT_CAPS
from .groups import apply_group_sparse, generators, self_module_action
from .linalg import (QQ, LinAlgError, Matrix, RrefAccumulator, nullspace_from_rref, rref_rows,
                     solve)
from .lts import StructureTensor, _Recorder
from .tensorops import slot_indices


class SpanError(ValueError):
    """A vector falls outside the span of the basis it is expressed in."""


@dataclass(frozen=True)
class Cochain:
    """Flat coefficient tensor of a multilinear map T^(x degree) -> V."""

    degree: int
    dim: int
    mdim: int
    data: tuple

    @classmethod
    def build(cls, degree, dim, mdim, data):
        data = tuple(data)
        if degree < 1 or degree % 2 == 0:
            raise LinAlgError("cochain degree must be odd and >= 1")
        if len(data) != dim ** degree * mdim:
            raise LinAlgError("cochain data of length %d, expected %d"
                              % (len(data), dim ** degree * mdim))
        return cls(degree, dim, mdim, data)

    @classmethod
    def zero(cls, degree, dim, mdim):
        return cls.build(degree, dim, mdim, [0] * (dim ** degree * mdim))

    @property
    def ambient_dim(self):
        return len(self.data)

    def value(self, idx):
        """The V-coefficient vector at a basis input tuple."""
        base = 0
        for i in idx:
            base = base * self.dim + i
        base *= self.mdim
        return self.data[base:base + self.mdim]

    def is_zero(self):
        return not any(self.data)

    def __add__(self, other):
        self._compat(other)
        return Cochain(self.degree, self.dim, self.mdim,
                       tuple(a + b for a, b in zip(self.data, other.data)))

    def __sub__(self, other):
        self._compat(other)
        return Cochain(self.degree, self.dim, self.mdim,
                       tuple(a - b for a, b in zip(self.data, other.data)))

    def scale(self, c):
        return Cochain(self.degree, self.dim, self.mdim,
                       tuple(c * a for a in self.data))

    def _compat(self, other):
        if (self.degree, self.dim, self.mdim) != (other.degree, other.dim, other.mdim):
            raise LinAlgError("cochain shape mismatch")


def tensor_to_cochain(t):
    """Degree-3 cochain from a trilinear structure tensor."""
    return Cochain.build(3, t.dim_in, t.dim_out, t.flat())


def cochain_to_tensor(c, fld=None):
    if c.degree != 3:
        raise LinAlgError("only degree-3 cochains convert to structure tensors")
    d = c.dim
    return StructureTensor.from_entries(dict(enumerate(c.data)), (d, d, d), c.mdim,
                                        fld or QQ)


def cochain_violations(c, all_witnesses=False):
    """Pointwise check of the degree's square and cyclic constraints."""
    rec = _Recorder(all_witnesses)
    if c.degree == 1:
        return rec.report()
    d = c.dim
    npre = c.degree - 3
    for pre in product(range(d), repeat=npre):
        for i in range(d):
            for j in range(i, d):
                for y in range(d):
                    if i == j:
                        w = c.value(pre + (i, i, y))
                        if any(w):
                            rec.hit("square", pre + (i, i, y), w)
                    else:
                        w = [a + b for a, b in zip(c.value(pre + (i, j, y)),
                                                   c.value(pre + (j, i, y)))]
                        if any(w):
                            rec.hit("square", pre + (i, j, y), w)
        for x, y, z in product(range(d), repeat=3):
            w = [a + b + e for a, b, e in zip(c.value(pre + (x, y, z)),
                                              c.value(pre + (y, z, x)),
                                              c.value(pre + (z, x, y)))]
            if any(w):
                rec.hit("cyclic", pre + (x, y, z), w)
    return rec.report()


# ---------------------------------------------------------------------------
# cochain space bases


def _flat3(i, j, k, a, d, m):
    return ((i * d + j) * d + k) * m + a


def three_slot_constraint_rows(d, m, field):
    """Constraint rows on a trilinear block: polarized square plus cyclic."""
    one = field.one
    rows = []
    for i in range(d):
        for j in range(i, d):
            for y in range(d):
                for a in range(m):
                    if i == j:
                        rows.append({_flat3(i, i, y, a, d, m): one})
                    else:
                        rows.append({_flat3(i, j, y, a, d, m): one,
                                     _flat3(j, i, y, a, d, m): one})
    for x, y, z in product(range(d), repeat=3):
        for a in range(m):
            row = {}
            for key in (_flat3(x, y, z, a, d, m), _flat3(y, z, x, a, d, m),
                        _flat3(z, x, y, a, d, m)):
                cur = row.get(key)
                if cur is None:
                    row[key] = one
                else:
                    cur = cur + one
                    if cur:
                        row[key] = cur
                    else:
                        del row[key]
            if row:
                rows.append(row)
    return rows


_three_slot_cache = {}


def _three_slot_kernel(d, m, field):
    key = (d, m, field)
    hit = _three_slot_cache.get(key)
    if hit is None:
        pivots = rref_rows(three_slot_constraint_rows(d, m, field), field)
        hit = nullspace_from_rref(pivots, d ** 3 * m, field)
        _three_slot_cache[key] = hit
    return hit


@dataclass
class CochainBasis:
    """Basis of a (possibly invariant) cochain space.

    Columns are sparse {ambient position: scalar} dicts.  Every column has
    entry 1 at its own free position and 0 at the free positions of the
    other columns, so coordinates of a member vector are read directly off
    the free positions (and verified by exact reconstruction).
    """

    degree: int
    dim: int
    mdim: int
    field: object
    columns: list
    free_positions: list
    invariant: bool = False

    def __len__(self):
        return len(self.columns)

    @property
    def ambient_dim(self):
        return self.dim ** self.degree * self.mdim

    def column_cochain(self, j):
        data = [self.field.zero] * self.ambient_dim
        for pos, v in self.columns[j].items():
            data[pos] = v
        return Cochain.build(self.degree, self.dim, self.mdim, data)

    def matrix(self):
        z = self.field.zero
        dense = []
        for col in self.columns:
            v = [z] * self.ambient_dim
            for pos, val in col.items():
                v[pos] = val
            dense.append(v)
        return Matrix.from_columns(dense, self.ambient_dim, self.field)

    @cached_property
    def _free_index(self):
        return {pos: j for j, pos in enumerate(self.free_positions)}

    def express(self, data):
        """Coordinates of an ambient vector in this basis; SpanError if outside.

        The vector is a sparse {ambient position: scalar} dict, a dense
        sequence of ambient length, or a Cochain.
        """
        if isinstance(data, Cochain):
            data = data.data
        if isinstance(data, dict):
            support = {pos: v for pos, v in data.items() if v}
        else:
            if len(data) != self.ambient_dim:
                raise LinAlgError("ambient vector of length %d, expected %d"
                                  % (len(data), self.ambient_dim))
            support = {pos: v for pos, v in enumerate(data) if v}
        coords = self._coordinates(support)
        z = self.field.zero
        return [coords.get(j, z) for j in range(len(self.columns))]

    def _coordinates(self, support):
        """Sparse coordinates {column: scalar} of a sparse vector without
        zero entries, read off the free positions in its support and
        verified by exact reconstruction."""
        index = self._free_index
        coords = {}
        for pos, v in support.items():
            j = index.get(pos)
            if j is not None:
                coords[j] = v
        recon = {}
        for j, coef in coords.items():
            for pos, v in self.columns[j].items():
                cur = recon.get(pos)
                if cur is None:
                    recon[pos] = coef * v
                else:
                    cur = cur + coef * v
                    if cur:
                        recon[pos] = cur
                    else:
                        del recon[pos]
        for pos, v in support.items():
            if recon.pop(pos, None) != v:
                raise SpanError("vector is not in the span of the basis")
        if recon:
            raise SpanError("vector is not in the span of the basis")
        return coords

    def combine(self, coords):
        """The cochain with the given coordinates."""
        if len(coords) != len(self.columns):
            raise LinAlgError("coordinate vector of length %d, expected %d"
                              % (len(coords), len(self.columns)))
        data = [self.field.zero] * self.ambient_dim
        for coef, col in zip(coords, self.columns):
            if not coef:
                continue
            for pos, v in col.items():
                data[pos] = data[pos] + coef * v
        return Cochain.build(self.degree, self.dim, self.mdim, data)


def cochain_space_basis(module, degree, action=None, module_action=None,
                        caps=DEFAULT_CAPS):
    """Deterministic basis of C^degree(T; V), or of the invariant subspace
    C_G^degree(T; V) when an action is supplied.

    The invariant subspace is the kernel of the stacked rows of (g.c - c)
    over the basis columns c, for g in the generating set generators(action)
    only: g -> rho(g) is a homomorphism, so a cochain fixed by every
    generator is fixed by the whole group.  The rows span the same space as
    those of all the elements, and the unique reduced echelon form of that
    span gives the same columns and free positions.
    """
    if degree < 1 or degree % 2 == 0:
        raise LinAlgError("cochain degree must be odd and >= 1")
    caps.check_degree(degree)
    d = module.system.dim
    m = module.dim
    field = module.system.field
    ambient = d ** degree * m
    caps.check_ambient(ambient)

    if degree == 1:
        one = field.one
        columns = [{pos: one} for pos in range(ambient)]
        free = list(range(ambient))
    else:
        wcols, wfree = _three_slot_kernel(d, m, field)
        block = d ** 3 * m
        columns, free = [], []
        for p in range(d ** (degree - 3)):
            off = p * block
            for col, fpos in zip(wcols, wfree):
                columns.append({off + k: v for k, v in col.items()})
                free.append(off + fpos)

    basis = CochainBasis(degree, d, m, field, columns, free, invariant=False)
    if action is None:
        return basis

    if module_action is None:
        module_action = self_module_action(action, module)
    rows = {}
    for g in generators(action):
        for c, col in enumerate(basis.columns):
            moved = apply_group_sparse(action, module_action, g, degree, col)
            for pos in moved.keys() | col.keys():
                v = moved.get(pos, 0) - col.get(pos, 0)
                if v:
                    rows.setdefault((g, pos), {})[c] = v
    pivots = rref_rows(rows.values(), field)
    ncols, nfree = nullspace_from_rref(pivots, len(basis.columns), field)
    inv_columns = []
    for ncol in ncols:
        out = {}
        for j, coef in ncol.items():
            for pos, v in basis.columns[j].items():
                cur = out.get(pos)
                if cur is None:
                    out[pos] = coef * v
                else:
                    cur = cur + coef * v
                    if cur:
                        out[pos] = cur
                    else:
                        del out[pos]
        inv_columns.append(out)
    inv_free = [basis.free_positions[j] for j in nfree]
    return CochainBasis(degree, d, m, field, inv_columns, inv_free, invariant=True)


# ---------------------------------------------------------------------------
# the coboundary


def apply_coboundary(module, f, caps=DEFAULT_CAPS):
    """Degree-raising coboundary of a degree-(2n-1) cochain.

    Evaluates, at every basis tuple (x_1, ..., x_{2n+1}):

        theta(x_{2n}, x_{2n+1}) f(x_1, ..., x_{2n-1})
      - theta(x_{2n-1}, x_{2n+1}) f(x_1, ..., x_{2n-2}, x_{2n})
      + sum_k (-1)^(k+n) D(x_{2k-1}, x_{2k}) f(..omit pair k..)
      + sum_k sum_{j>2k} (-1)^(n+k+1) f(..omit pair k.., [x_{2k-1} x_{2k} x_j], ..)

    with hat-omission and substitution taken literally on argument positions.
    """
    d = module.system.dim
    m = module.dim
    if f.dim != d or f.mdim != m:
        raise LinAlgError("cochain does not match the module shape")
    deg_in = f.degree
    n = (deg_in + 1) // 2
    deg_out = deg_in + 2
    caps.check_degree(deg_out)
    caps.check_ambient(d ** deg_out * m)

    th = [[module.theta_basis(i, j).rows for j in range(d)] for i in range(d)]
    dop = [[[[a - b for a, b in zip(r1, r2)]
             for r1, r2 in zip(th[j][i], th[i][j])] for j in range(d)]
           for i in range(d)]
    mu = module.system.mu
    brk = [[[tuple((l, v) for l, v in enumerate(mu.basis_value(i, j, k)) if v)
             for k in range(d)] for j in range(d)] for i in range(d)]
    data = f.data

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
    return Cochain.build(deg_out, d, m, out)


def _coboundary_images(module, basis_from, caps):
    """Sparse coboundary image {ambient position: scalar} of each column of
    basis_from, yielded one column at a time.

    Same formula as apply_coboundary, but every nonzero entry f(y)_w of a
    column is pushed forward instead of evaluating all d^(k+2) output
    tuples: the theta and D terms insert a pair (a, c) into y, and the
    substitution terms replace an argument y_s = l by each e with
    [e_a e_c e_e] having an l-component, found through the inverse bracket
    index l -> [(a, c, e, coef)].
    """
    d = module.system.dim
    m = module.dim
    if basis_from.dim != d or basis_from.mdim != m:
        raise LinAlgError("cochain does not match the module shape")
    deg_in = basis_from.degree
    n = (deg_in + 1) // 2
    caps.check_degree(deg_in + 2)
    caps.check_ambient(d ** (deg_in + 2) * m)

    # theta[w] and dop[w]: (a, c, l, coef) with theta(e_a, e_c) resp.
    # D(e_a, e_c) = theta(e_c, e_a) - theta(e_a, e_c) sending v_w to
    # coef * v_l + ..., read off right(a, c, w)_l, the l-th coefficient of
    # theta(e_a, e_c) v_w
    right = module.right.entries
    r = lambda a, c, w, l: right.get(((a * d + c) * m + w) * m + l, 0)
    support = {slot_indices(key, (d, d, m, m)) for key in right}
    theta = [[] for _ in range(m)]
    dop = [[] for _ in range(m)]
    for a, c, w, l in sorted(support | {(c, a, w, l) for a, c, w, l in support}):
        if t := r(a, c, w, l):
            theta[w].append((a, c, l, t))
        if dv := r(c, a, w, l) - r(a, c, w, l):
            dop[w].append((a, c, l, dv))
    inverse_bracket = [[] for _ in range(d)]
    mu = module.system.mu.entries
    for key in sorted(mu):
        a, c, e, l = slot_indices(key, (d, d, d, d))
        inverse_bracket[l].append((a, c, e, mu[key]))

    place = [d ** (deg_in - 1 - s) for s in range(deg_in)]
    for col in basis_from.columns:
        out = {}
        for pos, v in col.items():
            ybase, w = divmod(pos, m)
            y = [ybase // p % d for p in place]
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
                tail = d ** (deg_in - gap)
                hi, lo = divmod(ybase, tail)
                # D(x_{2k-1}, x_{2k}) f(..omit pair k..)
                for a, c, l, t in dop[w]:
                    key = (((hi * d + a) * d + c) * tail + lo) * m + l
                    out[key] = out.get(key, 0) + t * sv
                # -f(..omit pair k.., [x_{2k-1} x_{2k} x_j], ..) for j > 2k
                for s in range(gap, deg_in):
                    for a, c, e, coef in inverse_bracket[y[s]]:
                        key = ((((hi * d + a) * d + c) * tail + lo
                                + (e - y[s]) * place[s]) * m + w)
                        out[key] = out.get(key, 0) - coef * sv
        yield {key: val for key, val in out.items() if val}


def _coboundary_columns(module, basis_from, basis_to, caps):
    """Sparse coordinate columns {row: scalar} of the coboundary matrix."""
    if basis_to.degree != basis_from.degree + 2:
        raise LinAlgError("bases must sit in consecutive odd degrees")
    if basis_from.invariant != basis_to.invariant:
        raise LinAlgError("bases must be both plain or both invariant")
    for image in _coboundary_images(module, basis_from, caps):
        try:
            yield basis_to._coordinates(image)
        except SpanError as exc:
            raise RuntimeError(
                "coboundary image escaped the target cochain space; this must "
                "not happen and indicates an internal inconsistency") from exc


def coboundary_matrix(module, basis_from, basis_to, caps=DEFAULT_CAPS):
    """Matrix of the coboundary in the given bases.

    Both bases must be plain or both invariant; for invariant bases the image
    of every column is verified to lie in the invariant target span, so a
    RuntimeError here signals an internal inconsistency.
    """
    field = basis_from.field
    rows = [[field.zero] * len(basis_from) for _ in range(len(basis_to))]
    for j, col in enumerate(_coboundary_columns(module, basis_from, basis_to, caps)):
        for i, v in col.items():
            rows[i][j] = v
    return Matrix(rows, field, copy=False)


# ---------------------------------------------------------------------------
# cohomology


@dataclass
class CohomologyReport:
    degree: int
    equivariant: bool
    dim_space: int
    dim_cocycles: int
    dim_coboundaries: int
    dim_h: int
    representatives: tuple


def cohomology(module, degree, action=None, module_action=None,
               caps=DEFAULT_CAPS, want_representatives=True):
    """Dimensions (and representatives) of the degree-th cohomology of the
    plain or invariant cochain complex."""
    if degree < 1 or degree % 2 == 0:
        raise LinAlgError("cohomology degree must be odd and >= 1")
    if action is not None and module_action is None:
        module_action = self_module_action(action, module)
    field = module.system.field
    basis_k = cochain_space_basis(module, degree, action, module_action, caps)
    basis_up = cochain_space_basis(module, degree + 2, action, module_action, caps)
    out_rows = {}
    for j, col in enumerate(_coboundary_columns(module, basis_k, basis_up, caps)):
        for i, v in col.items():
            out_rows.setdefault(i, {})[j] = v
    pivots = rref_rows((out_rows[i] for i in sorted(out_rows)), field)
    zcols, _ = nullspace_from_rref(pivots, len(basis_k), field)
    dim_z = len(zcols)

    acc = RrefAccumulator(field)
    if degree > 1:
        basis_down = cochain_space_basis(module, degree - 2, action, module_action, caps)
        for col in _coboundary_columns(module, basis_down, basis_k, caps):
            acc.add(col)
    dim_b = acc.rank

    # representatives: extend the coboundary span through the cocycle basis,
    # first fit in the canonical cocycle order
    representatives = []
    if want_representatives:
        for z in zcols:
            if acc.add(z):
                representatives.append(basis_k.combine(
                    [z.get(j, field.zero) for j in range(len(basis_k))]))
    return CohomologyReport(degree, action is not None, len(basis_k),
                            dim_z, dim_b, dim_z - dim_b, tuple(representatives))


def is_cocycle(module, c, caps=DEFAULT_CAPS):
    return apply_coboundary(module, c, caps).is_zero()


def is_coboundary(module, c, action=None, module_action=None, caps=DEFAULT_CAPS):
    """A preimage under the coboundary in the (invariant, when an action is
    given) complex, or None when the class is nonzero."""
    if c.degree < 3:
        raise LinAlgError("degree-1 cochains have no incoming coboundary")
    if action is not None and module_action is None:
        module_action = self_module_action(action, module)
    basis_down = cochain_space_basis(module, c.degree - 2, action, module_action, caps)
    basis_k = cochain_space_basis(module, c.degree, action, module_action, caps)
    mat = coboundary_matrix(module, basis_down, basis_k, caps)
    coords = basis_k.express(c)
    x = solve(mat, coords)
    if x is None:
        return None
    return basis_down.combine(x)
