"""Lie triple systems given by exact structure constants.

A system is a finite-dimensional space with a trilinear bracket [abc]
satisfying skew-symmetry in the first two slots, the cyclic identity, and
the five-variable fundamental identity.  All axioms are checked on basis
tuples only; multilinearity extends them to the whole space.  The skew
axiom is checked in polarized form plus the diagonal so the verdict is
valid in every characteristic.

Brackets, module actions and deformation terms are StructureTensors that
store only their nonzero coefficients, as a {flat index: value} dict in
the tensorops layout, each a scalar of the field (linalg); every sum of
them is taken exactly and reduced once, by the field.  Each identity is
written once, as a table: SKEW and CYCLIC are argument permutations whose
sum (permuted_sum) vanishes, on the bracket, the module actions, the
cochains of the cohomology layer and their constraint rows; FUNDAMENTAL
is the term table of the sparse kernel tensorops.nested_sum, checked on
the bracket, with the module variable at each of its five positions, on
the theta operators of a module (Yamaguti's relations), and on the series
of deformation terms.  Witnesses come in flat order, which is
lexicographic.

Also provides modules over a system (three bilinear actions of T x T on a
coefficient space) and builders for the standard matrix examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import product

from .linalg import QQ, LinAlgError, Matrix, solve
from .tensorops import nested_sum, slot_indices, value_vectors


class BuildError(ValueError):
    """A builder's input fails its own axioms (non-closure, bad constants)."""


# ---------------------------------------------------------------------------
# structure tensors


@dataclass(frozen=True)
class StructureTensor:
    """Coefficients of a trilinear map f(e_i, e_j, e_k) = sum_l c[i][j][k][l] v_l.

    Only the nonzero coefficients are stored: entries maps the flat index
    ((i * n_2 + j) * n_3 + k) * dim_out + l, the tensorops layout, to
    c[i][j][k][l], a scalar of the field (over GF(p) an int in [0, p)).
    The constructor keeps entries as given; from_entries and from_map read
    values through the field, and sums and scalings reduce through it.
    The field takes no part in comparisons.  A degree-k cochain is the
    same type with k input slots; dim_in, basis_value and evaluate are for
    three.
    """

    dims: tuple
    dim_out: int
    entries: dict
    field: object = dc_field(default=QQ, compare=False)

    @classmethod
    def from_entries(cls, entries, dims, dim_out, fld=QQ):
        """From {flat index: value}; values pass through the field and zeros
        are dropped."""
        out = {k: w for k, v in entries.items() if (w := fld(v))}
        return cls(tuple(dims), dim_out, out, fld)

    @classmethod
    def build(cls, entries, dims, dim_out, fld=QQ):
        """From nested lists entries[i][j][k] of dim_out coefficients."""
        return cls.from_map(lambda i, j, k: entries[i][j][k], dims, dim_out, fld)

    @classmethod
    def zero(cls, dims, dim_out, fld=QQ):
        return cls(tuple(dims), dim_out, {}, fld)

    @classmethod
    def from_map(cls, fn, dims, dim_out, fld=QQ):
        """fn(i, j, k) -> iterable of dim_out coefficients."""
        entries = {}
        for n, idx in enumerate(product(*map(range, dims))):
            vec = [fld(v) for v in fn(*idx)]
            if len(vec) != dim_out:
                raise LinAlgError("output vector of length %d, expected %d"
                                  % (len(vec), dim_out))
            entries.update((n * dim_out + l, v) for l, v in enumerate(vec) if v)
        return cls(tuple(dims), dim_out, entries, fld)

    @property
    def dim_in(self):
        if self.dims[0] == self.dims[1] == self.dims[2]:
            return self.dims[0]
        raise LinAlgError("tensor is not cubic: dims %r" % (self.dims,))

    def basis_value(self, i, j, k):
        base = ((i * self.dims[1] + j) * self.dims[2] + k) * self.dim_out
        get, z = self.entries.get, self.field.zero
        return tuple(get(base + l, z) for l in range(self.dim_out))

    def evaluate(self, x, y, z):
        """Trilinear evaluation; arguments are basis indices or coefficient vectors."""
        args = [{a: 1} if isinstance(a, int) else {i: c for i, c in enumerate(a) if c}
                for a in (x, y, z)]
        out = [0] * self.dim_out
        for key, v in self.entries.items():
            i, j, k, l = slot_indices(key, self.dims + (self.dim_out,))
            a, b, c = args[0].get(i), args[1].get(j), args[2].get(k)
            if a and b and c:
                out[l] += a * b * c * v
        return self.field.dense(out)

    def is_zero(self):
        return not self.entries

    def __add__(self, other):
        if (self.dims, self.dim_out) != (other.dims, other.dim_out):
            raise LinAlgError("tensor shape mismatch")
        a, b = self.entries, other.entries
        out = self.field.sparse((k, a.get(k, 0) + b.get(k, 0)) for k in a.keys() | b.keys())
        return StructureTensor(self.dims, self.dim_out, out, self.field)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = self.field(c)
        out = self.field.sparse((k, c * v) for k, v in self.entries.items())
        return StructureTensor(self.dims, self.dim_out, out, self.field)


# ---------------------------------------------------------------------------
# systems and axiom reports


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple
    residual: tuple


@dataclass(frozen=True)
class AxiomReport:
    passed: bool
    violations: tuple

    @classmethod
    def collect(cls, violations):
        violations = tuple(violations)
        return cls(not violations, violations)

    @classmethod
    def from_hits(cls, groups, all_witnesses=False, order=lambda witness: witness):
        """The report of groups of (axiom, hits) families, each family's hits
        a list of (witness, residual) in witness order: within a group the
        families in the order of order(first witness), then in table order,
        with the first hit of each or all of them."""
        found = [families[n] for families in groups for _, n in sorted(
            (order(hits[0][0]), n) for n, (_, hits) in enumerate(families) if hits)]
        return cls.collect(Violation(axiom, w, r) for axiom, hits in found
                           for w, r in (hits if all_witnesses else hits[:1]))

    def first(self, axiom):
        for v in self.violations:
            if v.axiom == axiom:
                return v
        return None


@dataclass(frozen=True)
class LieTripleSystem:
    dim: int
    basis_names: tuple
    mu: StructureTensor
    field: object = dc_field(default_factory=lambda: QQ)

    def bracket(self, x, y, z):
        return self.mu.evaluate(x, y, z)

    def bracket_basis(self, i, j, k):
        return self.mu.basis_value(i, j, k)


# The skew and cyclic identities as tables of argument permutations: the
# sum of the tensor at the permuted arguments (x[perm[0]], x[perm[1]],
# x[perm[2]]) vanishes.  The permutations act on the last three arguments,
# so a degree-k cochain keeps its prefix.
SKEW = ((0, 1, 2), (1, 0, 2))
CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def permuted_sum(terms):
    """The sum of tensor(.., x[perm[0]], x[perm[1]], x[perm[2]]) over the
    (tensor, perm) terms, tensors of one shape, as a tensor of that shape:
    each entry is pushed to the argument tuple x that reads it."""
    out = {}
    for tensor, perm in terms:
        *_, n0, n1, n2 = tensor.dims
        m = tensor.dim_out
        inv = [perm.index(q) for q in range(3)]
        for key, v in tensor.entries.items():
            rest, l = divmod(key, m)
            rest, k = divmod(rest, n2)
            rest, j = divmod(rest, n1)
            pre, i = divmod(rest, n0)
            y = (i, j, k)
            flat = (((pre * n0 + y[inv[0]]) * n1 + y[inv[1]]) * n2 + y[inv[2]]) * m + l
            out[flat] = out.get(flat, 0) + v
    return StructureTensor(tensor.dims, m, tensor.field.sparse(out.items()), tensor.field)


def permutation_hits(terms):
    """(witness, residual) of every argument tuple, in flat order, at which
    the permuted_sum of the terms is nonzero."""
    t = permuted_sum(terms)
    return list(value_vectors(t.entries, t.dims + (t.dim_out,)))


def skew_hits(tensor, polarized_diagonal=True):
    """The skew identity of the table SKEW in its last three arguments
    (i, j, k): the diagonal value at i = j and the polarized sum at i < j,
    which together say [iik] = 0 in every characteristic.  The axiom
    reports also list the polarized sum at i = j, twice the diagonal value
    (zero in characteristic 2), after it; the cochain conditions do not."""
    fld = tensor.field
    *_, n0, n1, n2, m = dims = tensor.dims + (tensor.dim_out,)
    diag = list(value_vectors(fld.sparse((key, v) for key, v in tensor.entries.items()
                                         if key // (n1 * n2 * m) % n0 == key // (n2 * m) % n1),
                              dims))
    polar = [h for h in permutation_hits([(tensor, p) for p in SKEW])
             if h[0][-3] < h[0][-2] or polarized_diagonal and h[0][-3] == h[0][-2]]
    return sorted(diag + polar, key=lambda h: h[0])


# The fundamental identity [x0 x1 [x2 x3 x4]] = [[x0 x1 x2] x3 x4]
# + [x2 [x0 x1 x3] x4] + [x2 x3 [x0 x1 x4]] as (sign, outer slot, inner
# positions): the inner bracket reads the variables at those positions and
# fills that slot of the outer one, which reads the others in order.
FUNDAMENTAL = ((1, 2, (2, 3, 4)), (-1, 0, (0, 1, 2)), (-1, 1, (0, 1, 3)),
               (-1, 2, (0, 1, 4)))


def fundamental_terms(outer, inner):
    """tensorops.nested_sum terms of the fundamental identity with the
    series outer of outer brackets and the series inner of inner ones."""
    return [(sign, outer, slot, inner, pos) for sign, slot, pos in FUNDAMENTAL]


def verify_lts(mu, all_witnesses=False):
    """Check the three defining identities of a Lie triple system.

    Skew-symmetry is verified as mu(a,b,c) + mu(b,a,c) = 0 together with the
    diagonal mu(a,a,c) = 0, which is equivalent to [aab] = 0 in every
    characteristic.
    """
    d = mu.dim_in
    if mu.dim_out != d:
        raise LinAlgError("structure tensor must be square (dim_out == dim_in)")
    series = [mu]  # one list for both roles, decoded once
    res = nested_sum(fundamental_terms(series, series), (d,) * 6, 0)[0]
    return AxiomReport.from_hits(
        [[("skew", skew_hits(mu)), ("cyclic", permutation_hits([(mu, p) for p in CYCLIC]))],
         [("fundamental", list(value_vectors(res, (d,) * 6)))]],
        all_witnesses)


def make_system(names, mu, fld=QQ, check=True):
    names = tuple(names)
    if check:
        report = verify_lts(mu)
        if not report.passed:
            v = report.violations[0]
            raise BuildError("not a Lie triple system: %s at %r, residual %r"
                             % (v.axiom, v.witness, v.residual))
    return LieTripleSystem(mu.dim_in, names, mu, fld)


# ---------------------------------------------------------------------------
# modules, theta and D operators


@dataclass(frozen=True)
class LtsModule:
    """Coefficient space V with the three T (x) T actions.

    left, right, middle are the maps (a,b,v) -> [abv], [vab], [avb]; each is
    a (d, d, m) -> m structure tensor over the base system's field.  right
    is theta: theta(a, b) v = [v a b].
    """

    system: LieTripleSystem
    dim: int
    left: StructureTensor
    right: StructureTensor
    middle: StructureTensor


def self_module(system):
    """The system as a module over itself: right(i, j, w) = [w i j] and
    middle(i, j, w) = [i w j] permute the bracket's arguments."""
    mu = system.mu
    return LtsModule(system, system.dim, mu, permuted_sum([(mu, (2, 0, 1))]),
                     permuted_sum([(mu, (0, 2, 1))]))


def _module_fundamental_terms(module, p):
    """nested_sum terms (one-term series) of the fundamental identity with
    its variable at position p in V, renamed x4 (the others keep their
    order, as x0..x3).  Each tensor's series is one list shared by its
    terms, which nested_sum decodes once.

    A bracket whose V-valued argument sits in slot t is module.right,
    middle or left for t = 0, 1, 2, each taking that argument last.
    """
    acting = ([module.right], [module.middle], [module.left])
    own = [module.system.mu]
    name = [q - (q > p) for q in range(5)]
    name[p] = 4
    terms = []
    for sign, slot, pos in FUNDAMENTAL:
        inner = acting[pos.index(p)] if p in pos else own
        args = [name[q] for q in range(5) if q not in pos]
        args.insert(slot, None)  # the inner bracket's value
        vslot = slot if p in pos else args.index(4)
        args.append(args.pop(vslot))
        # x4 sorts last, where the acting tensors take it
        terms.append((sign, acting[vslot], args.index(None), inner,
                      tuple(sorted(name[q] for q in pos))))
    return terms


def theta_module(module):
    """The module that theta = module.right alone determines: left is
    D(a, b) = theta(b, a) - theta(a, b) and middle is -theta."""
    right = module.right
    return LtsModule(module.system, module.dim,
                     permuted_sum([(right, SKEW[1]), (right.scale(-1), SKEW[0])]),
                     right, right.scale(-1))


def verify_module(module, all_witnesses=False):
    """Check the module identities and the theta-operator relations.

    The bracket identities are checked on every basis placement with exactly
    one slot in V (the all-T placements are the base system's own axioms).
    Yamaguti's theta-square and theta-d relations are the fundamental
    identity with V in position 1 resp. 3 on theta_module(module), negated;
    each residual is the m x m matrix, row-major over (l, w).
    """
    T = module.system
    d, m = T.dim, module.dim
    left, right, middle = module.left, module.right, module.middle
    dims = (d, d, d, d, m, m)
    identities = [
        ("module-skew", skew_hits(left)),
        ("module-skew-mixed", permutation_hits([(middle, SKEW[0]), (right, SKEW[0])])),
        ("module-cyclic", permutation_hits([(left, SKEW[0]), (middle, SKEW[1]),
                                            (right, SKEW[0])]))]
    fundamental, theta, tm = [], [], theta_module(module)
    for p in (4, 3, 2, 1, 0):  # the module slot in position last, 4, 3, 2, 1
        res = nested_sum(_module_fundamental_terms(module, p), dims, 0)[0]
        fundamental.append(("module-fundamental-%s" % ("last" if p == 4 else p + 1),
                            list(value_vectors(res, dims))))
    for axiom, p in (("theta-square", 0), ("theta-d", 2)):
        res = nested_sum(_module_fundamental_terms(tm, p), dims, 0)[0]
        # the negated residual, row-major over (l, w)
        res = T.field.sparse(((key // (m * m) * m + key % m) * m + key // m % m, -v)
                             for key, v in res.items())
        theta.append((axiom, list(value_vectors(res, (d, d, d, d, m * m)))))
    return AxiomReport.from_hits([identities, fundamental, theta], all_witnesses)


# ---------------------------------------------------------------------------
# builders


def meson(n, fld=QQ):
    """Meson triple system T_n: [g_i g_j g_l] = d_li g_j - d_lj g_i."""
    if n < 1:
        raise BuildError("meson(n) needs n >= 1")
    one = fld.one

    def coeffs(i, j, l):
        vec = [fld.zero] * n
        if l == i:
            vec[j] = vec[j] + one
        if l == j:
            vec[i] = vec[i] - one
        return vec

    mu = StructureTensor.from_map(coeffs, (n, n, n), n, fld)
    return make_system(["g%d" % (i + 1) for i in range(n)], mu, fld)


def _commutator(a, b):
    return a * b - b * a


def _flatten(mat):
    return [v for row in mat.rows for v in row]


def _system_from_matrices(names, mats, triple, fld):
    """Expand triple(A,B,C) of basis matrices in the given basis."""
    d = len(mats)
    nentries = mats[0].nrows * mats[0].ncols
    basis = Matrix.from_columns([_flatten(mh) for mh in mats], nentries, fld)

    def coeffs(i, j, k):
        x = solve(basis, _flatten(triple(mats[i], mats[j], mats[k])))
        if x is None:
            raise BuildError("bracket value at (%d,%d,%d) is outside the span "
                             "of the basis (not closed)" % (i, j, k))
        return x

    mu = StructureTensor.from_map(coeffs, (d, d, d), d, fld)
    return make_system(names, mu, fld)


def _unit(n, i, j, fld, ncols=None):
    ncols = n if ncols is None else ncols
    rows = [[fld.zero] * ncols for _ in range(n)]
    rows[i][j] = fld.one
    return Matrix(rows, fld, copy=False)


def matrix_lts(n, fld=QQ):
    """All n x n matrices under [ABC] = [[A,B],C]; basis of matrix units."""
    if n < 1:
        raise BuildError("matrix_lts(n) needs n >= 1")
    names, mats = [], []
    for i in range(n):
        for j in range(n):
            names.append("E%d%d" % (i + 1, j + 1))
            mats.append(_unit(n, i, j, fld))
    trip = lambda a, b, c: _commutator(_commutator(a, b), c)
    return _system_from_matrices(names, mats, trip, fld)


def skew_lts(n, fld=QQ):
    """Skew-symmetric n x n matrices under the double commutator; basis e_ij - e_ji, i < j."""
    if n < 2:
        raise BuildError("skew_lts(n) needs n >= 2")
    names, mats = [], []
    for i in range(n):
        for j in range(i + 1, n):
            names.append("A%d%d" % (i + 1, j + 1))
            mats.append(_unit(n, i, j, fld) - _unit(n, j, i, fld))
    trip = lambda a, b, c: _commutator(_commutator(a, b), c)
    return _system_from_matrices(names, mats, trip, fld)


def sym_lts(n, fld=QQ):
    """Symmetric n x n matrices under the double commutator; basis e_ij + e_ji, i <= j.

    Closure of the bracket inside the symmetric matrices is validated at
    construction; a bracket value outside the span raises BuildError.
    """
    if n < 1:
        raise BuildError("sym_lts(n) needs n >= 1")
    names, mats = [], []
    for i in range(n):
        for j in range(i, n):
            names.append("S%d%d" % (i + 1, j + 1))
            mats.append(_unit(n, i, j, fld) + _unit(n, j, i, fld))
    trip = lambda a, b, c: _commutator(_commutator(a, b), c)
    return _system_from_matrices(names, mats, trip, fld)


def rect_lts(p, q, fld=QQ):
    """p x q matrices with [ABC] = (AB^t - BA^t)C + C(B^tA - A^tB)."""
    if p < 1 or q < 1:
        raise BuildError("rect_lts(p, q) needs p, q >= 1")
    names, mats = [], []
    for i in range(p):
        for j in range(q):
            names.append("E%d%d" % (i + 1, j + 1))
            mats.append(_unit(p, i, j, fld, ncols=q))

    def trip(a, b, c):
        bt = b.transpose()
        at = a.transpose()
        return (a * bt - b * at) * c + c * (bt * a - at * b)

    return _system_from_matrices(names, mats, trip, fld)


def from_lie_algebra(brackets, names=None, fld=QQ):
    """Lie algebra constants [e_i, e_j] = sum_l brackets[i][j][l] e_l, as an Lts.

    Validates antisymmetry, the skew identity of the bracket read as a
    (d, d, 1) -> d tensor, and the Jacobi identity, the cyclic identity of
    [abc] = [[a, b], c], which is the system's bracket.
    """
    d = len(brackets)
    if any(len(row) != d or any(len(v) != d for v in row) for row in brackets):
        raise BuildError("bracket table must be d x d x d")
    br = StructureTensor.from_map(lambda i, j, _: brackets[i][j], (d, d, 1), d, fld)
    for (i, j, _), _ in skew_hits(br)[:1]:
        if i == j:
            raise BuildError("[e_%d, e_%d] must vanish" % (i, i))
        raise BuildError("bracket not antisymmetric at (%d, %d)" % (i, j))
    entries = {}
    for key, c in br.entries.items():
        i, j, _, p = slot_indices(key, (d, d, 1, d))
        for k in range(d):
            for l, c2 in enumerate(br.basis_value(p, k, 0)):
                flat = ((i * d + j) * d + k) * d + l
                entries[flat] = entries.get(flat, 0) + c * c2
    mu = StructureTensor.from_entries(dict(sorted(entries.items())), (d, d, d), d, fld)
    for (i, j, k), _ in permutation_hits([(mu, p) for p in CYCLIC])[:1]:
        raise BuildError("Jacobi identity fails at (%d, %d, %d)" % (i, j, k))
    if names is None:
        names = ["x%d" % (i + 1) for i in range(d)]
    return make_system(names, mu, fld)


def sl2_brackets(fld=QQ):
    """Structure constants of sl_2 on the basis (e, f, h)."""
    z, one, two = fld.zero, fld.one, fld(2)
    b = [[[z, z, z] for _ in range(3)] for _ in range(3)]
    b[0][1] = [z, z, one]          # [e, f] = h
    b[1][0] = [z, z, fld(-1)]
    b[2][0] = [two, z, z]          # [h, e] = 2e
    b[0][2] = [fld(-2), z, z]
    b[2][1] = [z, fld(-2), z]      # [h, f] = -2f
    b[1][2] = [z, two, z]
    return b


def function_lts(system, s):
    """s independent copies of the system with the componentwise bracket.

    Models functions from an s-element set into the system; the basis is
    ordered copy-major: all basis vectors of copy 0, then copy 1, ...
    """
    if s < 1:
        raise BuildError("function_lts needs at least one copy")
    d = system.dim
    fld = system.field
    n = d * s

    entries = {}
    for key, v in system.mu.entries.items():
        i, j, k, l = slot_indices(key, (d, d, d, d))
        for o in range(0, n, d):  # the first basis index of each copy
            entries[(((o + i) * n + o + j) * n + o + k) * n + o + l] = v
    mu = StructureTensor((n, n, n), n, entries, fld)
    names = ["%s@%d" % (nm, c) for c in range(s) for nm in system.basis_names]
    return make_system(names, mu, fld)
