"""Lie triple systems given by exact structure constants.

A system is a finite-dimensional space with a trilinear bracket [abc]
satisfying skew-symmetry in the first two slots, the cyclic identity, and
the five-variable fundamental identity.  All axioms are checked on basis
tuples only; multilinearity extends them to the whole space.  The skew
axiom is checked in polarized form plus the diagonal so the verdict is
valid in every characteristic.

Also provides modules over a system (three bilinear actions of T x T on a
coefficient space) with the theta / D operators on basis pairs, and
builders for the standard matrix examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import product

from .linalg import QQ, LinAlgError, Matrix, solve


class BuildError(ValueError):
    """A builder's input fails its own axioms (non-closure, bad constants)."""


# ---------------------------------------------------------------------------
# structure tensors


def _freeze3(entries, dims, dim_out, fld):
    out = []
    for i in range(dims[0]):
        plane = []
        for j in range(dims[1]):
            line = []
            for k in range(dims[2]):
                vec = tuple(fld(v) for v in entries[i][j][k])
                if len(vec) != dim_out:
                    raise LinAlgError("output vector of length %d, expected %d"
                                      % (len(vec), dim_out))
                line.append(vec)
            plane.append(tuple(line))
        out.append(tuple(plane))
    return tuple(out)


@dataclass(frozen=True)
class StructureTensor:
    """Coefficients of a trilinear map f(e_i, e_j, e_k) = sum_l c[i][j][k][l] v_l."""

    dims: tuple
    dim_out: int
    entries: tuple

    @classmethod
    def build(cls, entries, dims, dim_out, fld=QQ):
        return cls(tuple(dims), dim_out, _freeze3(entries, dims, dim_out, fld))

    @classmethod
    def zero(cls, dims, dim_out, fld=QQ):
        z = fld.zero
        vec = (z,) * dim_out
        line = (vec,) * dims[2]
        plane = (line,) * dims[1]
        return cls(tuple(dims), dim_out, (plane,) * dims[0])

    @classmethod
    def from_map(cls, fn, dims, dim_out, fld=QQ):
        """fn(i, j, k) -> iterable of dim_out coefficients."""
        entries = [[[list(fn(i, j, k)) for k in range(dims[2])]
                    for j in range(dims[1])] for i in range(dims[0])]
        return cls.build(entries, dims, dim_out, fld)

    @property
    def dim_in(self):
        if self.dims[0] == self.dims[1] == self.dims[2]:
            return self.dims[0]
        raise LinAlgError("tensor is not cubic: dims %r" % (self.dims,))

    def basis_value(self, i, j, k):
        return self.entries[i][j][k]

    def flat(self):
        """The coefficients c[i][j][k][l] as one list, row-major over
        (i, j, k, l): the flat layout of cochains and of tensorops."""
        return [v for p in self.entries for ln in p for w in ln for v in w]

    def evaluate(self, x, y, z):
        """Trilinear evaluation; arguments are basis indices or coefficient vectors."""
        e = self.entries
        xs = ((x, 1),) if isinstance(x, int) else tuple(p for p in enumerate(x) if p[1])
        ys = ((y, 1),) if isinstance(y, int) else tuple(p for p in enumerate(y) if p[1])
        zs = ((z, 1),) if isinstance(z, int) else tuple(p for p in enumerate(z) if p[1])
        out = [0] * self.dim_out
        for i, a in xs:
            ei = e[i]
            for j, b in ys:
                ab = a * b
                eij = ei[j]
                for k, c in zs:
                    w = eij[k]
                    if not any(w):
                        continue
                    abc = ab * c
                    for l, v in enumerate(w):
                        if v:
                            out[l] = out[l] + abc * v
        return out

    def is_zero(self):
        return all(not v for p in self.entries for ln in p for w in ln for v in w)

    def _zip(self, other, op):
        if self.dims != other.dims or self.dim_out != other.dim_out:
            raise LinAlgError("tensor shape mismatch")
        return StructureTensor(self.dims, self.dim_out, tuple(
            tuple(tuple(tuple(op(a, b) for a, b in zip(w1, w2))
                        for w1, w2 in zip(l1, l2))
                  for l1, l2 in zip(p1, p2))
            for p1, p2 in zip(self.entries, other.entries)))

    def __add__(self, other):
        return self._zip(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._zip(other, lambda a, b: a - b)

    def scale(self, c):
        return StructureTensor(self.dims, self.dim_out, tuple(
            tuple(tuple(tuple(c * v for v in w) for w in ln) for ln in p)
            for p in self.entries))


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

    def first(self, axiom):
        for v in self.violations:
            if v.axiom == axiom:
                return v
        return None


class _Recorder:
    """Keeps the lexicographically first violation per axiom (or all of them)."""

    def __init__(self, keep_all):
        self.keep_all = keep_all
        self.by_axiom = {}
        self.order = []

    def hit(self, axiom, witness, residual):
        if axiom not in self.by_axiom:
            self.by_axiom[axiom] = []
            self.order.append(axiom)
        if self.keep_all or not self.by_axiom[axiom]:
            self.by_axiom[axiom].append(Violation(axiom, tuple(witness), tuple(residual)))

    def report(self):
        return AxiomReport.collect(v for a in self.order for v in self.by_axiom[a])


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


def verify_lts(mu, all_witnesses=False):
    """Check the three defining identities of a Lie triple system.

    Skew-symmetry is verified as mu(a,b,c) + mu(b,a,c) = 0 together with the
    diagonal mu(a,a,c) = 0, which is equivalent to [aab] = 0 in every
    characteristic.
    """
    d = mu.dim_in
    if mu.dim_out != d:
        raise LinAlgError("structure tensor must be square (dim_out == dim_in)")
    rec = _Recorder(all_witnesses)
    for i, j, k in product(range(d), repeat=3):
        if i == j:
            w = mu.basis_value(i, i, k)
            if any(w):
                rec.hit("skew", (i, i, k), w)
        if i <= j:
            w = [a + b for a, b in zip(mu.basis_value(i, j, k), mu.basis_value(j, i, k))]
            if any(w):
                rec.hit("skew", (i, j, k), w)
        w = [a + b + c for a, b, c in zip(mu.basis_value(i, j, k),
                                          mu.basis_value(j, k, i),
                                          mu.basis_value(k, i, j))]
        if any(w):
            rec.hit("cyclic", (i, j, k), w)
    for a, b, c, dd, e in product(range(d), repeat=5):
        lhs = mu.evaluate(a, b, mu.basis_value(c, dd, e))
        r1 = mu.evaluate(mu.basis_value(a, b, c), dd, e)
        r2 = mu.evaluate(c, mu.basis_value(a, b, dd), e)
        r3 = mu.evaluate(c, dd, mu.basis_value(a, b, e))
        w = [x - (p + q + r) for x, p, q, r in zip(lhs, r1, r2, r3)]
        if any(w):
            rec.hit("fundamental", (a, b, c, dd, e), w)
    return rec.report()


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
    a (d, d, m) -> m structure tensor over the base system's field.
    """

    system: LieTripleSystem
    dim: int
    left: StructureTensor
    right: StructureTensor
    middle: StructureTensor

    def theta_basis(self, i, j):
        """Matrix of theta(e_i, e_j): v -> [v e_i e_j] on the V-basis."""
        m = self.dim
        cols = [self.right.basis_value(i, j, w) for w in range(m)]
        return Matrix([[cols[w][l] for w in range(m)] for l in range(m)],
                      self.system.field, copy=False)

    def d_basis(self, i, j):
        return self.theta_basis(j, i) - self.theta_basis(i, j)


def self_module(system):
    mu = system.mu
    d = system.dim
    left = mu
    right = StructureTensor.from_map(
        lambda i, j, w: mu.basis_value(w, i, j), (d, d, d), d, system.field)
    middle = StructureTensor.from_map(
        lambda i, j, w: mu.basis_value(i, w, j), (d, d, d), d, system.field)
    return LtsModule(system, d, left, right, middle)


def verify_module(module, all_witnesses=False):
    """Check the module identities and the theta-operator relations.

    The bracket identities are checked on every basis placement with exactly
    one slot in V (the all-T placements are the base system's own axioms).
    """
    T = module.system
    mu = T.mu
    d = T.dim
    m = module.dim
    m1, m2, m3 = module.left, module.right, module.middle
    rec = _Recorder(all_witnesses)

    for i, j, w in product(range(d), range(d), range(m)):
        if i == j:
            r = m1.basis_value(i, i, w)
            if any(r):
                rec.hit("module-skew", (i, i, w), r)
        if i <= j:
            r = [a + b for a, b in zip(m1.basis_value(i, j, w), m1.basis_value(j, i, w))]
            if any(r):
                rec.hit("module-skew", (i, j, w), r)
        r = [a + b for a, b in zip(m3.basis_value(i, j, w), m2.basis_value(i, j, w))]
        if any(r):
            rec.hit("module-skew-mixed", (i, j, w), r)
        r = [a + b + c for a, b, c in zip(m1.basis_value(i, j, w),
                                          m3.basis_value(j, i, w),
                                          m2.basis_value(i, j, w))]
        if any(r):
            rec.hit("module-cyclic", (i, j, w), r)

    def residual(lhs, terms):
        for t in terms:
            lhs = [x - y for x, y in zip(lhs, t)]
        return lhs

    for a, b, c, dd, w in product(range(d), range(d), range(d), range(d), range(m)):
        # module slot in the last position of the fundamental identity
        r = residual(m1.evaluate(a, b, m1.basis_value(c, dd, w)),
                     [m1.evaluate(mu.basis_value(a, b, c), dd, w),
                      m1.evaluate(c, mu.basis_value(a, b, dd), w),
                      m1.evaluate(c, dd, m1.basis_value(a, b, w))])
        if any(r):
            rec.hit("module-fundamental-last", (a, b, c, dd, w), r)
        # module slot in position 4: [ab[cve]] with e renamed dd
        r = residual(m1.evaluate(a, b, m3.basis_value(c, dd, w)),
                     [m3.evaluate(mu.basis_value(a, b, c), dd, w),
                      m3.evaluate(c, dd, m1.basis_value(a, b, w)),
                      m3.evaluate(c, mu.basis_value(a, b, dd), w)])
        if any(r):
            rec.hit("module-fundamental-4", (a, b, c, dd, w), r)
        # module slot in position 3: [ab[vde]]
        r = residual(m1.evaluate(a, b, m2.basis_value(c, dd, w)),
                     [m2.evaluate(c, dd, m1.basis_value(a, b, w)),
                      m2.evaluate(mu.basis_value(a, b, c), dd, w),
                      m2.evaluate(c, mu.basis_value(a, b, dd), w)])
        if any(r):
            rec.hit("module-fundamental-3", (a, b, c, dd, w), r)
        # module slot in position 2: [av[cde]]
        r = residual(m3.evaluate(a, mu.basis_value(b, c, dd), w),
                     [m2.evaluate(c, dd, m3.basis_value(a, b, w)),
                      m3.evaluate(b, dd, m3.basis_value(a, c, w)),
                      m1.evaluate(b, c, m3.basis_value(a, dd, w))])
        if any(r):
            rec.hit("module-fundamental-2", (a, b, c, dd, w), r)
        # module slot in position 1: [vb[cde]]
        r = residual(m2.evaluate(a, mu.basis_value(b, c, dd), w),
                     [m2.evaluate(c, dd, m2.basis_value(a, b, w)),
                      m3.evaluate(b, dd, m2.basis_value(a, c, w)),
                      m1.evaluate(b, c, m2.basis_value(a, dd, w))])
        if any(r):
            rec.hit("module-fundamental-1", (a, b, c, dd, w), r)

    th = [[module.theta_basis(i, j) for j in range(d)] for i in range(d)]
    dop = [[th[j][i] - th[i][j] for j in range(d)] for i in range(d)]

    def theta_vec(a, w):
        acc = Matrix.zero(m, m, T.field)
        for l, coef in enumerate(w):
            if coef:
                acc = acc + th[a][l].scale(coef)
        return acc

    def theta_vec_left(w, b):
        acc = Matrix.zero(m, m, T.field)
        for l, coef in enumerate(w):
            if coef:
                acc = acc + th[l][b].scale(coef)
        return acc

    for a, b, c, dd in product(range(d), repeat=4):
        r = (th[c][dd] * th[a][b] - th[b][dd] * th[a][c]
             - theta_vec(a, mu.basis_value(b, c, dd)) + dop[b][c] * th[a][dd])
        if not r.is_zero():
            rec.hit("theta-square", (a, b, c, dd), tuple(v for row in r.rows for v in row))
        r = (th[c][dd] * dop[a][b] - dop[a][b] * th[c][dd]
             + theta_vec_left(mu.basis_value(a, b, c), dd)
             + theta_vec(c, mu.basis_value(a, b, dd)))
        if not r.is_zero():
            rec.hit("theta-d", (a, b, c, dd), tuple(v for row in r.rows for v in row))
    return rec.report()


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
    entries = []
    for i in range(d):
        plane = []
        for j in range(d):
            line = []
            for k in range(d):
                w = triple(mats[i], mats[j], mats[k])
                x = solve(basis, _flatten(w))
                if x is None:
                    raise BuildError("bracket value at (%d,%d,%d) is outside the span "
                                     "of the basis (not closed)" % (i, j, k))
                line.append(x)
            plane.append(line)
        entries.append(plane)
    mu = StructureTensor.build(entries, (d, d, d), d, fld)
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

    Validates antisymmetry and the Jacobi identity, then sets
    [abc] = [[a, b], c].
    """
    d = len(brackets)
    br = [[[fld(v) for v in brackets[i][j]] for j in range(d)] for i in range(d)]
    for i in range(d):
        for j in range(d):
            if len(br[i][j]) != d:
                raise BuildError("bracket table must be d x d x d")
            if i == j and any(br[i][i]):
                raise BuildError("[e_%d, e_%d] must vanish" % (i, i))
            w = [a + b for a, b in zip(br[i][j], br[j][i])]
            if any(w):
                raise BuildError("bracket not antisymmetric at (%d, %d)" % (i, j))

    def lie(x, y):
        out = [fld.zero] * d
        for i, a in enumerate(x):
            if not a:
                continue
            for j, b in enumerate(y):
                if not b:
                    continue
                for l, v in enumerate(br[i][j]):
                    if v:
                        out[l] = out[l] + a * b * v
        return out

    def basis_vec(i):
        v = [fld.zero] * d
        v[i] = fld.one
        return v

    for i, j, k in product(range(d), repeat=3):
        ei, ej, ek = basis_vec(i), basis_vec(j), basis_vec(k)
        w = [a + b + c for a, b, c in zip(lie(lie(ei, ej), ek),
                                          lie(lie(ej, ek), ei),
                                          lie(lie(ek, ei), ej))]
        if any(w):
            raise BuildError("Jacobi identity fails at (%d, %d, %d)" % (i, j, k))

    mu = StructureTensor.from_map(
        lambda i, j, k: lie(br[i][j], basis_vec(k)), (d, d, d), d, fld)
    if names is None:
        names = ["x%d" % (i + 1) for i in range(d)]
    return make_system(names, mu, fld)


def sl2_brackets(fld=QQ):
    """Structure constants of sl_2 on the basis (e, f, h)."""
    z, one = fld.zero, fld.one
    two = one + one
    b = [[[z, z, z] for _ in range(3)] for _ in range(3)]
    b[0][1] = [z, z, one]          # [e, f] = h
    b[1][0] = [z, z, -one]
    b[2][0] = [two, z, z]          # [h, e] = 2e
    b[0][2] = [-two, z, z]
    b[2][1] = [z, -two, z]         # [h, f] = -2f
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

    def coeffs(i, j, k):
        ci, cj, ck = i // d, j // d, k // d
        vec = [fld.zero] * n
        if ci == cj == ck:
            w = system.mu.basis_value(i % d, j % d, k % d)
            for l, v in enumerate(w):
                vec[ci * d + l] = v
        return vec

    mu = StructureTensor.from_map(coeffs, (n, n, n), n, fld)
    names = ["%s@%d" % (nm, c) for c in range(s) for nm in system.basis_names]
    return make_system(names, mu, fld)
