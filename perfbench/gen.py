"""Seeded input generators, in plain integer arithmetic.

Nothing here calls the library: structure constants are written down from
their defining formulas, basis changes and gauge transformations are
composed on dense integer tensors, and documents are serialized with the
standard json module.  A tensor is a nested list ``t[i][j][k][l]`` of ints,
the coefficient of basis vector l in [e_i e_j e_k].
"""

from __future__ import annotations

import json
from itertools import product


# ---------------------------------------------------------------------------
# small integer matrices (lists of rows)


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def signed_perm(perm, signs):
    """Matrix sending e_j to signs[j] * e_perm[j]."""
    n = len(perm)
    return [[signs[j] if perm[j] == i else 0 for j in range(n)] for i in range(n)]


def random_signed_perm(n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return signed_perm(perm, [rng.choice((1, -1)) for _ in range(n)])


def unimodular(n, rng, transvections=2):
    """A seeded unimodular integer matrix h u and its integer inverse.

    u is a fixed product of transvections row_k += row_(k+1), the same for
    every seed, and h a seeded signed permutation.  So the structure
    constants after the change have the same sparsity for every seed, up
    to relabeling, and a job costs about the same whatever the seed.
    """
    u, uinv = identity(n), identity(n)
    for k in range(min(transvections, n - 1)):
        e, einv = identity(n), identity(n)
        e[k][k + 1], einv[k][k + 1] = 1, -1
        u, uinv = matmul(e, u), matmul(uinv, einv)
    h = random_signed_perm(n, rng)
    hinv = [list(r) for r in zip(*h)]          # signed permutations are orthogonal
    return matmul(h, u), matmul(uinv, hinv)


# ---------------------------------------------------------------------------
# structure tensors


def zero_tensor(d):
    return [[[[0] * d for _ in range(d)] for _ in range(d)] for _ in range(d)]


def meson_tensor(n):
    """[g_i g_j g_l] = d_li g_j - d_lj g_i."""
    t = zero_tensor(n)
    for i, j, l in product(range(n), repeat=3):
        if l == i:
            t[i][j][l][j] += 1
        if l == j:
            t[i][j][l][i] -= 1
    return t


def lie_tensor(brackets):
    """[abc] = [[a, b], c] from Lie algebra constants brackets[i][j][l]."""
    d = len(brackets)
    t = zero_tensor(d)
    for i, j in product(range(d), repeat=2):
        for m, a in enumerate(brackets[i][j]):
            if a:
                for k in range(d):
                    for l, b in enumerate(brackets[m][k]):
                        t[i][j][k][l] += a * b
    return t


SL2_BRACKETS = [  # basis e, f, h: [e,f] = h, [h,e] = 2e, [h,f] = -2f
    [[0, 0, 0], [0, 0, 1], [-2, 0, 0]],
    [[0, 0, -1], [0, 0, 0], [0, 2, 0]],
    [[2, 0, 0], [0, -2, 0], [0, 0, 0]],
]


def _matrix_triple_tensor(mats, triple, coords):
    """Structure constants of a bracket on a space of matrices.

    mats are the basis matrices, triple(a, b, c) the bracket on matrices,
    and coords(m) the integer coordinates of a matrix in the basis.
    """
    d = len(mats)
    t = zero_tensor(d)
    for i, j, k in product(range(d), repeat=3):
        t[i][j][k] = coords(triple(mats[i], mats[j], mats[k]))
    return t


def _unit(p, q, i, j):
    m = [[0] * q for _ in range(p)]
    m[i][j] = 1
    return m


def _add(a, b, s=1):
    return [[x + s * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _transpose(a):
    return [list(r) for r in zip(*a)]


def _double_commutator(a, b, c):
    ab = _add(matmul(a, b), matmul(b, a), -1)
    return _add(matmul(ab, c), matmul(c, ab), -1)


def skew_tensor(n):
    """Skew-symmetric n x n matrices, basis e_ij - e_ji (i < j)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mats = [_add(_unit(n, n, i, j), _unit(n, n, j, i), -1) for i, j in pairs]
    return _matrix_triple_tensor(mats, _double_commutator,
                                 lambda m: [m[i][j] for i, j in pairs])


def sym_tensor(n):
    """Symmetric n x n matrices, basis e_ij + e_ji (i <= j)."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    mats = [_add(_unit(n, n, i, j), _unit(n, n, j, i)) for i, j in pairs]

    def coords(m):
        return [m[i][j] // 2 if i == j else m[i][j] for i, j in pairs]

    return _matrix_triple_tensor(mats, _double_commutator, coords)


def matrix_tensor(n):
    """All n x n matrices under [[A, B], C], basis of matrix units."""
    idx = [(i, j) for i in range(n) for j in range(n)]
    mats = [_unit(n, n, i, j) for i, j in idx]
    return _matrix_triple_tensor(mats, _double_commutator,
                                 lambda m: [m[i][j] for i, j in idx])


def rect_tensor(p, q):
    """p x q matrices with [ABC] = (AB^t - BA^t)C + C(B^tA - A^tB)."""
    idx = [(i, j) for i in range(p) for j in range(q)]
    mats = [_unit(p, q, i, j) for i, j in idx]

    def triple(a, b, c):
        at, bt = _transpose(a), _transpose(b)
        left = _add(matmul(a, bt), matmul(b, at), -1)
        right = _add(matmul(bt, a), matmul(at, b), -1)
        return _add(matmul(left, c), matmul(c, right))

    return _matrix_triple_tensor(mats, triple, lambda m: [m[i][j] for i, j in idx])


SYSTEMS = {
    "meson2": lambda: meson_tensor(2),
    "meson3": lambda: meson_tensor(3),
    "meson4": lambda: meson_tensor(4),
    "skew3": lambda: skew_tensor(3),
    "sym2": lambda: sym_tensor(2),
    "sl2": lambda: lie_tensor(SL2_BRACKETS),
    "matrix2": lambda: matrix_tensor(2),
    "rect22": lambda: rect_tensor(2, 2),
    "abelian2": lambda: zero_tensor(2),
    "abelian3": lambda: zero_tensor(3),
    "abelian4": lambda: zero_tensor(4),
}


def system_tensor(name):
    return SYSTEMS[name]()


# ---------------------------------------------------------------------------
# composition: out . t(a x, b y, c z)


def _contract_input(t, axis, mat):
    """new[.., j, ..] = sum_i mat[i][j] t[.., i, ..] on input axis 0, 1 or 2."""
    d = len(t)
    out = zero_tensor(d)
    for i, j, k in product(range(d), repeat=3):
        w = t[i][j][k]
        if not any(w):
            continue
        src = (i, j, k)[axis]
        for dst in range(d):
            c = mat[src][dst]
            if not c:
                continue
            key = [i, j, k]
            key[axis] = dst
            tgt = out[key[0]][key[1]][key[2]]
            for l, v in enumerate(w):
                if v:
                    tgt[l] += c * v
    return out


def _contract_output(t, mat):
    d = len(t)
    out = zero_tensor(d)
    for i, j, k in product(range(d), repeat=3):
        w = t[i][j][k]
        if any(w):
            out[i][j][k] = [sum(mat[a][b] * w[b] for b in range(d)) for a in range(d)]
    return out


def compose(t, out, a, b, c):
    """The tensor of (x, y, z) -> out t(a x, b y, c z)."""
    t = _contract_input(t, 0, a)
    t = _contract_input(t, 1, b)
    t = _contract_input(t, 2, c)
    return _contract_output(t, out)


def change_basis(t, p, pinv):
    """Structure constants after the coordinate change x -> p x."""
    return compose(t, p, pinv, pinv, pinv)


def tensor_add(a, b):
    d = len(a)
    return [[[[x + y for x, y in zip(a[i][j][k], b[i][j][k])] for k in range(d)]
             for j in range(d)] for i in range(d)]


def gauge_trivial_terms(mu0, psi, order):
    """Terms mu_1..mu_order of Psi o mu0 o (Psi^-1 x Psi^-1 x Psi^-1) for
    Psi = id + t psi, truncated at t^order.

    Psi^-1 = sum_a (-psi)^a t^a, so the order-r term is
    sum over p + a + b + c = r (p in {0, 1}) of psi^p mu0(phi_a, phi_b, phi_c).
    """
    d = len(mu0)
    phis = [identity(d)]
    neg = [[-v for v in row] for row in psi]
    for _ in range(order):
        phis.append(matmul(neg, phis[-1]))
    first = [_contract_input(mu0, 0, phis[a]) for a in range(order + 1)]
    inner = {}
    for a in range(order + 1):
        for b in range(order + 1 - a):
            ab = _contract_input(first[a], 1, phis[b])
            for c in range(order + 1 - a - b):
                inner[a, b, c] = _contract_input(ab, 2, phis[c])
    sums = [zero_tensor(d) for _ in range(order + 1)]
    for (a, b, c), t in inner.items():
        sums[a + b + c] = tensor_add(sums[a + b + c], t)
    terms = []
    for r in range(1, order + 1):
        terms.append(tensor_add(sums[r], _contract_output(sums[r - 1], psi)))
    return terms


def order_equation_holds(terms, r):
    """The order-r deformation equation for terms mu_0, mu_1, ... (missing
    terms count as zero), checked on basis tuples."""
    d = len(terms[0])
    sparse = []
    for t in terms:
        s = {}
        for i, j, k in product(range(d), repeat=3):
            w = t[i][j][k]
            if any(w):
                s[i, j, k] = [(l, v) for l, v in enumerate(w) if v]
        sparse.append(s)

    def ev(s, x, y, z):
        # trilinear evaluation with coefficient-pair arguments
        out = [0] * d
        for i, a in x:
            for j, b in y:
                for k, c in z:
                    for l, v in s.get((i, j, k), ()):
                        out[l] += a * b * c * v
        return out

    unit = [[(i, 1)] for i in range(d)]
    pairs = [(sparse[i], sparse[r - i]) for i in range(r + 1)
             if i < len(sparse) and r - i < len(sparse) and sparse[i] and sparse[r - i]]
    for a, b, c, dd, e in product(range(d), repeat=5):
        acc = [0] * d
        for si, sj in pairs:
            for l, v in enumerate(ev(si, unit[a], unit[b], sj.get((c, dd, e), ()))):
                acc[l] += v
            for l, v in enumerate(ev(si, sj.get((a, b, c), ()), unit[dd], unit[e])):
                acc[l] -= v
            for l, v in enumerate(ev(si, unit[c], sj.get((a, b, dd), ()), unit[e])):
                acc[l] -= v
            for l, v in enumerate(ev(si, unit[c], unit[dd], sj.get((a, b, e), ()))):
                acc[l] -= v
        if any(acc):
            return False
    return True


# ---------------------------------------------------------------------------
# signed-permutation groups


def closure(gens):
    """All products of the generators, as a sorted list of tuple matrices."""
    n = len(gens[0])
    ident = tuple(tuple(r) for r in identity(n))
    gens = [tuple(tuple(r) for r in g) for g in gens]
    elems = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                c = tuple(tuple(r) for r in matmul(a, g))
                if c not in elems:
                    elems.add(c)
                    new.append(c)
        frontier = new
    return sorted(elems)


def conjugate_group(elements, h):
    hinv = [list(r) for r in zip(*h)]
    return [matmul(matmul(h, g), hinv) for g in elements]


# ---------------------------------------------------------------------------
# documents (the library's canonical JSON form, written independently)


def _quadruples(t):
    d = len(t)
    out = []
    for i, j, k in product(range(d), repeat=3):
        cmap = {str(l): str(v) for l, v in enumerate(t[i][j][k]) if v}
        if cmap:
            out.append([i, j, k, cmap])
    return out


def dump(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def system_doc(t):
    d = len(t)
    return {"schema": "lts-system/1", "field": "rational", "dim": d,
            "basis": ["x%d" % (i + 1) for i in range(d)],
            "bracket": _quadruples(t)}


def action_doc(elements):
    return {"schema": "lts-action/1",
            "elements": [{"label": "g%d" % n, "matrix": [[str(v) for v in r] for r in m]}
                         for n, m in enumerate(elements)]}


def deformation_doc(system_ref, action_ref, terms):
    doc = {"schema": "lts-deformation/1", "system": system_ref,
           "terms": [{"order": r, "entries": _quadruples(t)}
                     for r, t in enumerate(terms, start=1)]}
    if action_ref is not None:
        doc["action"] = action_ref
    return doc


def tensor_from_quadruples(entries, d):
    """Inverse of the document quadruple list, for integer coefficients."""
    t = zero_tensor(d)
    for i, j, k, cmap in entries:
        for l, s in cmap.items():
            t[i][j][k][int(l)] = int(s)
    return t
