"""Odd-degree cochain spaces of a Lie triple system, the coboundary, and
(equivariant) cohomology.

A degree-k cochain with values in a module V is a StructureTensor over
(d,) * k with values in V, the sparse type of brackets and deformation
terms: only its nonzero coefficients, flattened row-major over (inputs...,
value coordinate).  A degree-(2n+1) cochain is constrained, for n >= 1, by
f(x_1,...,x_{2n-2},x,x,y) = 0 and the cyclic sum over the last three
arguments; degree 1 is the full Hom(T, V).  Both constraints come from
the permutation tables lts.SKEW and lts.CYCLIC, which give the witnesses
of cochain_violations, its verdict on the bracket, and, applied to the
unit tensors stacked along a leading slot, the constraint rows of the
basis.  They touch only the last three slots with a common prefix,
so the constraint matrix is block diagonal over prefixes with one
repeated block; its unique reduced-echelon nullspace is assembled from
the kernel of that single block.

The square condition is imposed in polarized form plus the diagonal, and
an invariant subspace is the kernel of the rows g.c - c, read at the plain
free positions, for g in a deterministic generating set of the group
(groups.generators), so every computation is exact in any characteristic:
no averaging over the group.

CochainComplex holds the plain or invariant complex of one module: it
validates the self-module action and the bracket (one cochain_violations
check) once and builds each degree's basis and sparse coboundary on first
use.  cohomology, is_coboundary and the solves of the deformation layer
all go through one complex.  The coboundary is applied by pushing each
nonzero entry of a cochain forward through its formula, at a cost
proportional to nnz * d^2 rather than the d^(k+2) output tuples of a
degree-k cochain.  The images of basis columns are assembled only at the
plain free positions of C^(k+2), which the three-slot kernel gives
without a basis: every term is keyed directly by its plain row, and the
terms at other positions are dropped by group before they are summed.
They are kept once, as sparse rows, for the plain and the invariant
complex alike.  A solve (linalg.solve_rows) reduces the right-hand side as
the augmented column of those rows, with free variables zero.

Out of degree 3, only the rows whose first pair has x1 < x2 are kept.  C^5
puts no condition on its first pair, but every image of a 3-cochain f
vanishes at x1 = x2, term by term and in every characteristic: the theta
and pair-2 terms by f's square condition, the pair-1 D term as D(x, x) =
0, and the pair-1 substitutions as [x x y] = 0.  By polarization the image
is alternating in (x1, x2), so the other rows are zero or the negatives of
kept ones: the kernel and every rank stay, and the rows are rebuilt by
negation only where coordinates in a basis of C^5 are read.  Images of
5-cochains are not alternating in any pair (D(x1, x2) f(x3, ..) breaks it),
so every other degree keeps all its rows.

Every echelon form here is the unique reduced one in index order (the
three-slot kernel, the invariant-basis rows, the coboundary span, the
solves) but one: the elimination of the cocycle rows puts each pivot at
the column with the shortest image, ties by index, which fills in far
less after a change of basis.  Its rank is the same; when representatives
are wanted, its kernel basis, read off the fraction-free echelon rows, is
turned back into the canonical one, free variables ascending, by
linalg.canonical_kernel.  Scalars are
the field's own (linalg): every sum here is exact and reduced once, by
field.sparse; over QQ the push-forward sums ints, each column scaled by
the lcm of its denominators, and divides each image entry once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import lcm

from .caps import DEFAULT_CAPS
from .groups import apply_group_sparse, generators, self_module_action
from .linalg import (LinAlgError, Matrix, RrefAccumulator, canonical_kernel,
                     nullspace_from_rref, rref_rows, solve_rows)
from .lts import CYCLIC, AxiomReport, StructureTensor, permutation_hits, skew_hits


class SpanError(ValueError):
    """A vector falls outside the span of the basis it is expressed in."""


def _span_sum(columns, coords, field):
    """sum of coef * columns[j] over the sparse coordinates {j: coef}, as a
    sparse dict without zeros, each entry reduced once by the field."""
    out = {}
    for j, coef in coords.items():
        if not coef:
            continue
        for pos, v in columns[j].items():
            out[pos] = out.get(pos, 0) + coef * v
    return field.sparse(out.items())


def _transpose(vectors, lengths=None):
    """Sparse rows {i: {j: scalar}} of the sparse columns given as (j, {i:
    scalar}) pairs, or the other way round.  The number of entries of each
    vector is appended to the list lengths, when one is given."""
    out = {}
    for j, vec in vectors:
        if lengths is not None:
            lengths.append(len(vec))
        for i, v in vec.items():
            out.setdefault(i, {})[j] = v
    return out


# ---------------------------------------------------------------------------
# the cochain conditions


def _conditions(c):
    """The square and cyclic conditions of a cochain in its last three
    slots, as (axiom, hits) families from the tables lts.SKEW and
    lts.CYCLIC."""
    return [("square", skew_hits(c, polarized_diagonal=False)),
            ("cyclic", permutation_hits([(c, p) for p in CYCLIC]))]


def three_slot_constraint_rows(d, m, field):
    """Constraint rows on a trilinear block, one per condition, witness and
    value coordinate, in that order: the conditions applied to each unit
    tensor of one value coordinate, repeated for every coordinate.  The
    unit tensors are stacked along a leading slot, so that one call of the
    conditions gives every row: a witness is (unit, triple)."""
    d3 = d ** 3
    units = StructureTensor((d3, d, d, d), 1, {t * d3 + t: field.one for t in range(d3)},
                            field)
    rows = {}
    for n, (_, hits) in enumerate(_conditions(units)):
        for (t, *witness), (v,) in hits:
            rows.setdefault((n, tuple(witness)), {})[t] = v
    return [{t * m + a: v for t, v in rows[key].items()} for key in sorted(rows)
            for a in range(m)]


def cochain_violations(c, all_witnesses=False):
    """Check of the degree's square and cyclic conditions on a cochain.
    The conditions are reported prefix by prefix, square before cyclic:
    the families in the order of the prefix of their first witness."""
    return AxiomReport.from_hits([_conditions(c)] if len(c.dims) >= 3 else [],
                                 all_witnesses, order=lambda witness: witness[:-3])


# ---------------------------------------------------------------------------
# cochain space bases


@cache
def _three_slot_kernel(d, m, field):
    pivots = rref_rows(three_slot_constraint_rows(d, m, field), field)
    return nullspace_from_rref(pivots, d ** 3 * m, field)


@dataclass
class CochainBasis:
    """Basis of a (possibly invariant) cochain space.

    Columns are sparse {ambient position: scalar} dicts: ints in [0, p)
    over GF(p), canonical int | Fraction over QQ.  Every column has entry
    1 at its own free position and 0 at the free positions of the other
    columns, so the coordinates of a member vector are its entries at the
    free positions: express verifies them by exact reconstruction, the
    coboundary reads them unchecked.  express and combine take any int or
    rational scalars and return field scalars.
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

    @cached_property
    def _free_index(self):
        return {pos: j for j, pos in enumerate(self.free_positions)}

    def express(self, c):
        """Coordinates of a cochain, or of a sparse {ambient position:
        scalar} dict, in this basis; SpanError if outside."""
        field = self.field
        if isinstance(c, StructureTensor):
            if c.dims != (self.dim,) * self.degree or c.dim_out != self.mdim:
                raise LinAlgError("cochain does not match the basis shape")
            support = c.entries
        else:
            support = {k: w for k, v in c.items() if (w := field(v))}
        index = self._free_index
        coords = {j: v for pos, v in support.items() if (j := index.get(pos)) is not None}
        if _span_sum(self.columns, coords, field) != support:
            raise SpanError("vector is not in the span of the basis")
        return [coords.get(j, 0) for j in range(len(self.columns))]

    def combine(self, coords):
        """The cochain with the given coordinates: a sequence over the
        columns or a sparse {column: scalar} dict, whose keys must be
        column indices."""
        if not isinstance(coords, dict):
            if len(coords) != len(self.columns):
                raise LinAlgError("coordinate vector of length %d, expected %d"
                                  % (len(coords), len(self.columns)))
            coords = dict(enumerate(coords))
        elif any(j not in range(len(self.columns)) for j in coords):
            raise LinAlgError("coordinate keys must be column indices below %d"
                              % len(self.columns))
        field = self.field
        entries = _span_sum(self.columns, {j: field(coef) for j, coef in coords.items()},
                            field)
        return StructureTensor((self.dim,) * self.degree, self.mdim, entries, field)


def cochain_space_basis(module, degree, action=None, module_action=None,
                        caps=DEFAULT_CAPS):
    """Deterministic basis of C^degree(T; V), or of the invariant subspace
    C_G^degree(T; V) when an action is supplied.

    The invariant coordinates over the plain columns c_j are cut out by
    the generating set generators(action): g -> rho(g) is a homomorphism,
    so what every generator fixes the whole group fixes.  Each g acts by
    one matrix on every input slot and by V(g) on the values; both commute
    with the square and cyclic conditions, so g.c - c lies in C^degree.  A
    vector of C^degree is zero iff its entries at the plain free positions
    are, as every plain column is 1 at its own free position and 0 at the
    others.  So one row per (generator g, plain free position f_i), with
    entries (g.c_j)[f_i] - [i = j], has exactly the invariant coordinates
    as kernel, in every characteristic and for any action.  The unique
    reduced echelon form of their span gives the columns and free positions.
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
        columns = [{pos: 1} for pos in range(ambient)]
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
    free_index = basis._free_index
    rows = []
    for g in generators(action):
        grows = [{i: -1} for i in range(len(free))]
        for j, moved in enumerate(apply_group_sparse(action, module_action, g, degree,
                                                     columns)):
            for pos, v in moved.items():
                i = free_index.get(pos)
                if i is not None:
                    row = grows[i]
                    row[j] = row.get(j, 0) + v
        rows.extend(field.sparse(row.items()) for row in grows)
    pivots = rref_rows(rows, field)
    ncols, nfree = nullspace_from_rref(pivots, len(columns), field)
    inv_columns = [_span_sum(columns, ncol, field) for ncol in ncols]
    inv_free = [free[j] for j in nfree]
    return CochainBasis(degree, d, m, field, inv_columns, inv_free, invariant=True)


# ---------------------------------------------------------------------------
# the coboundary


def _every_position(d, m, field):
    """The identity index of a three-slot block: every position is a row
    and every prefix is kept, so an image is keyed by its ambient
    positions."""
    block = d ** 3 * m
    return range(block), block, None


@cache
def _plain_free_index(d, m, field):
    """index[pos] of each position of a three-slot block, its place among
    the free positions of _three_slot_kernel or -1 if it is not free, the
    number of free positions, and None: every prefix is kept."""
    _, wfree = _three_slot_kernel(d, m, field)
    index = [-1] * (d ** 3 * m)
    for i, pos in enumerate(wfree):
        index[pos] = i
    return index, len(wfree), None


@cache
def _first_pairs(d):
    """(place, pairs) of the first pairs x1 < x2 of C^5, in lexicographic
    order: place[x1 * d + x2] is the number of the pair, or -1 when x1 >=
    x2, and pairs[q] is (x1 * d + x2, x2 * d + x1) for the pair numbered q."""
    place = [-1] * (d * d)
    pairs = []
    for a in range(d):
        for b in range(a + 1, d):
            place[a * d + b] = len(pairs)
            pairs.append((a * d + b, b * d + a))
    return place, pairs


def _half_free_index(d, m, field):
    """_plain_free_index with the first pair of C^5 cut to x1 < x2, for the
    images of degree-3 cochains alone (CochainComplex.rows): the rows of
    the prefix (x1, x2) are numbered by the place of the pair in
    _first_pairs, and the other prefixes are dropped."""
    index, nw, _ = _plain_free_index(d, m, field)
    return index, nw, _first_pairs(d)[0]


def _integral(v, den):
    """den * v as an int, for an int or Fraction v whose denominator
    divides den."""
    return v.numerator * (den // v.denominator)


def _coefficient_tables(module):
    """(theta, dop, inverse_bracket, den): the coefficients that the
    push-forward of _coboundary_images reads.

    theta[w] and dop[w] list (a, c, l, coef) with theta(e_a, e_c) resp.
    D(e_a, e_c) sending v_w to coef * v_l + ..., ascending in (a, c, l):
    theta is the right action, and D(a, c) = theta(c, a) - theta(a, c) the
    left action of lts.theta_module.  inverse_bracket[l] lists (a, c, e,
    coef) with [e_a e_c e_e] having l-component coef.  Every coef is scaled
    by their common denominator den, so that over QQ the push-forward runs
    on ints (the denominators of D divide those of theta); over GF(p) each
    D coefficient is a residue."""
    d = module.system.dim
    m = module.dim
    p = module.system.field.char
    right, mu = module.right, module.system.mu
    den = lcm(*(v.denominator for t in (right, mu) for v in t.entries.values()))
    theta, dop = [[] for _ in range(m)], []
    for key in sorted(right.entries):
        rest, l = divmod(key, m)
        rest, w = divmod(rest, m)
        a, c = divmod(rest, d)
        theta[w].append((a, c, l, _integral(right.entries[key], den)))
    for terms in theta:
        sums = {}
        for a, c, l, t in terms:
            sums[c, a, l] = sums.get((c, a, l), 0) + t
            sums[a, c, l] = sums.get((a, c, l), 0) - t
        dop.append([(a, c, l, t) for (a, c, l), v in sorted(sums.items())
                    if (t := v % p if p else v)])
    inverse_bracket = [[] for _ in range(d)]
    for key in sorted(mu.entries):
        rest, l = divmod(key, d)
        rest, e = divmod(rest, d)
        a, c = divmod(rest, d)
        inverse_bracket[l].append((a, c, e, _integral(mu.entries[key], den)))
    return theta, dop, inverse_bracket, den


def _coboundary_images(module, degree, cochains, caps, block_index=_every_position,
                       tables=_coefficient_tables):
    """Sparse coboundary image {row: scalar} of each sparse degree-(2n-1)
    cochain {ambient position: scalar}, yielded one at a time.  The terms
    of each image entry are summed exactly, and the sum is reduced once by
    the field (field.sparse).

    The image is, at every basis tuple (x_1, ..., x_{2n+1}):

        theta(x_{2n}, x_{2n+1}) f(x_1, ..., x_{2n-1})
      - theta(x_{2n-1}, x_{2n+1}) f(x_1, ..., x_{2n-2}, x_{2n})
      + sum_k (-1)^(k+n) D(x_{2k-1}, x_{2k}) f(..omit pair k..)
      + sum_k sum_{j>2k} (-1)^(n+k+1) f(..omit pair k.., [x_{2k-1} x_{2k} x_j], ..)

    with hat-omission and substitution taken literally on argument
    positions.  Every nonzero entry f(y)_w is pushed forward instead of
    evaluating all d^(k+2) output tuples: the theta and D terms insert a
    pair (a, c) into y, and the substitution terms replace an argument
    y_s = l by each e with [e_a e_c e_e] having an l-component, found
    through the inverse bracket index l -> [(a, c, e, coef)] of
    tables(module), by default _coefficient_tables.

    Entries are assembled only at the rows that are read.  C^(k+2) is
    d^(k-1) prefix copies of one block over its last three slots and the
    value, and block_index(d, m, field) gives (index, nw, first): the entry
    at prefix * block + local goes to row prefix * nw + index[local], or is
    dropped when index[local] is -1.  The default, _every_position, keys an
    image by its ambient positions; _plain_free_index keys it by the plain
    free positions of C^(k+2).  first is None, or, for degree 3 only, the
    place of each first pair of C^5 (_half_free_index): the prefix x1 * d +
    x2 then moves to row prefix first[x1 * d + x2], or is dropped when that
    is -1.  The degree and the caps are checked on the call, before the
    index or any table is built.
    """
    if degree < 1 or degree % 2 == 0:
        raise LinAlgError("cochain degree must be odd and >= 1")
    d = module.system.dim
    m = module.dim
    field = module.system.field
    caps.check_degree(degree + 2)
    caps.check_ambient(d ** (degree + 2) * m)
    index, nw, first = block_index(d, m, field)
    theta, dop, inverse_bracket, den = tables(module)
    return _push_forward(cochains, degree, d, m, theta, dop, inverse_bracket, den, field,
                         index, nw, first)


def _push_forward(cochains, degree, d, m, theta, dop, inverse_bracket, den, field, index, nw,
                  first):
    """The images of _coboundary_images, from its tables, one at a time.

    The terms are grouped by the argument slots that keep their prefix, so
    that a dropped block position costs one test per group, not per term:
    - pair n (both theta terms, the last D term and the last substitution)
      keeps y_1..y_(k-1); its block position depends on (w, y_k) alone, and
      its terms are summed per position into one table per (w, y_k), built
      on first use and kept for the call;
    - pairs 1..n-1 insert (a, c) into the prefix and keep y's last three
      slots: the D terms sit at block position (last three, l), grouped by
      l, and a substitution in one of the last three slots at (last three
      with that slot e, w), grouped by e;
    - a substitution at s <= k-4 changes the prefix alone and keeps f's own
      block position, so one test drops all of them.
    Each column is scaled by the lcm of its denominators, pushed on ints,
    and each image entry divided once by that lcm times den.

    The prefix of every term goes through heads, the identity unless first
    is given.  At degree 3 the prefix of C^5 is its first pair: pair n
    keeps f's (y1, y2), so first drops the table of an entry whose y1 >= y2
    at once, and pair 1 inserts (a, c), so its D and substitution terms are
    kept only at a < c, numbered by first.  Nothing else is lost, as the
    images of C^3 cochains are alternating in (x1, x2): at x1 = x2 the
    theta and pair-2 terms vanish by f's square condition, the pair-1 D
    term as D(x, x) = 0, and the pair-1 substitutions as [x x y] = 0,
    which _check_bracket ensures, and polarization gives the sign change
    under the swap.  An image of C^5 is not alternating in any pair
    (D(x1, x2) f(x3, ..) breaks it), so first is read at degree 3 alone."""
    n = (degree + 1) // 2
    d3 = d ** 3
    last = {}
    heads = range(d ** (degree - 1)) if first is None else first

    def last_table(w, y):
        sums = {}
        for a, c, l, t in theta[w]:
            for local, coef in ((((y * d + a) * d + c) * m + l, t),
                                (((a * d + y) * d + c) * m + l, -t)):
                sums[local] = sums.get(local, 0) + coef
        for a, c, l, t in dop[w]:
            local = ((a * d + c) * d + y) * m + l
            sums[local] = sums.get(local, 0) + t
        for a, c, e, coef in inverse_bracket[y]:
            local = ((a * d + c) * d + e) * m + w
            sums[local] = sums.get(local, 0) - coef
        return [(i, t) for local, t in sums.items() if t and (i := index[local]) >= 0]

    # pair p < n, with sign (-1)^(p+n): the prefix y_1..y_(k-3) splits as
    # (hi, lo) around the inserted pair at slot 2p - 1, and (a, c) moves the
    # row by heads[(a * d + c) * tailp] * nw, or drops the term when that is
    # -1 (at degree 3 alone, where the prefix of f is empty)
    pairs = []
    for p in range(1, n):
        gap = 2 * p - 2
        tailp = d ** (degree - 3 - gap)
        sign = 1 if (p + n) % 2 == 0 else -1
        moves = [None if (h := heads[ac * tailp]) < 0 else h * nw for ac in range(d * d)]
        dterms = []
        for w in range(m):
            by_l = {}
            for a, c, l, t in dop[w]:
                if (move := moves[a * d + c]) is not None:
                    by_l.setdefault(l, []).append((move, sign * t))
            dterms.append(list(by_l.items()))
        # the last three slots, with each slot's step in the block
        near = []
        for step in (d * d * m, d * m, m):
            by_y = []
            for y in range(d):
                by_e = {}
                for a, c, e, coef in inverse_bracket[y]:
                    if (move := moves[a * d + c]) is not None:
                        by_e.setdefault((e - y) * step, []).append((move, -sign * coef))
                by_y.append(list(by_e.items()))
            near.append(by_y)
        far = [(d ** (degree - 4 - s),
                [[(moves[a * d + c] + (e - y) * d ** (degree - 4 - s) * nw, -sign * coef)
                  for a, c, e, coef in inverse_bracket[y]] for y in range(d)])
               for s in range(gap, degree - 3)]
        pairs.append((tailp, d * d * tailp, dterms, near, far))

    for col in cochains:
        cden = lcm(*(v.denominator for v in col.values() if v.__class__ is not int))
        if cden != 1:
            col = {pos: _integral(v, cden) for pos, v in col.items()}
        out = {}
        get = out.get
        for pos, v in col.items():
            ybase, w = divmod(pos, m)
            head, y = divmod(ybase, d)
            if (base := heads[head]) >= 0:
                table = last.get(w * d + y)
                if table is None:
                    table = last[w * d + y] = last_table(w, y)
                base *= nw
                for i, t in table:
                    key = base + i
                    out[key] = get(key, 0) + t * v
            if n == 1:
                continue
            prefix, lt = divmod(ybase, d3)
            own = lt * m + w
            slots = (lt // (d * d), lt // d % d, y)
            kept = index[own]
            for tailp, himul, dterms, near, far in pairs:
                hi, lo = divmod(prefix, tailp)
                b = (hi * himul + lo) * nw
                for l, terms in dterms[w]:
                    i = index[own - w + l]
                    if i >= 0:
                        bi = b + i
                        for off, t in terms:
                            key = bi + off
                            out[key] = get(key, 0) + t * v
                for ys, by_y in zip(slots, near):
                    for eoff, terms in by_y[ys]:
                        i = index[own + eoff]
                        if i >= 0:
                            bi = b + i
                            for off, t in terms:
                                key = bi + off
                                out[key] = get(key, 0) + t * v
                if kept >= 0:
                    bi = b + kept
                    for place, by_y in far:
                        for off, t in by_y[prefix // place % d]:
                            key = bi + off
                            out[key] = get(key, 0) + t * v
        scale = cden * den
        if scale == 1:
            yield field.sparse(out.items())
        else:
            yield field.sparse((key, Fraction(s, scale)) for key, s in out.items())


def apply_coboundary(module, f, caps=DEFAULT_CAPS):
    """Degree-raising coboundary of a degree-(2n-1) cochain, the formula of
    _coboundary_images applied to its nonzero entries."""
    d = module.system.dim
    degree = len(f.dims)
    if f.dims != (d,) * degree or f.dim_out != module.dim:
        raise LinAlgError("cochain does not match the module shape")
    image, = _coboundary_images(module, degree, [f.entries], caps)
    return StructureTensor((d,) * (degree + 2), module.dim, image, module.system.field)


def is_cocycle(module, c, caps=DEFAULT_CAPS):
    return apply_coboundary(module, c, caps).is_zero()


def _check_bracket(module):
    """Raise LinAlgError unless the bracket passes the square and cyclic
    conditions.  Then every coboundary image lies in C^(k+2), and in
    C_G^(k+2) under a validated action, whatever the module: in its last
    three slots the theta terms and the last D term cancel (D is read off
    theta), the rest keep f's conditions, but for -f(.., [a b c]).  The
    verdict is that of cochain_violations on the bracket."""
    if not cochain_violations(module.system.mu).passed:
        raise LinAlgError(
            "a coboundary image escapes the target cochain space: the bracket "
            "or the module fails the Lie triple system (module) axioms; check "
            "them with verify_lts and verify_module")


def coboundary_matrix(module, basis_from, basis_to, caps=DEFAULT_CAPS):
    """Matrix of the coboundary in the given bases: each image's entries at
    the target's free positions.

    Both bases must be plain, or invariant under the same action: an
    invariant basis does not record its group, so this is not checked
    (CochainComplex pairs its bases).  A bracket that fails the square or
    cyclic condition, whose images leave the target, raises LinAlgError.
    """
    _check_bracket(module)
    for basis in (basis_from, basis_to):
        if basis.dim != module.system.dim or basis.mdim != module.dim:
            raise LinAlgError("cochain does not match the module shape")
    if basis_to.degree != basis_from.degree + 2:
        raise LinAlgError("bases must sit in consecutive odd degrees")
    if basis_from.invariant != basis_to.invariant:
        raise LinAlgError("bases must be both plain or both invariant")
    field = basis_from.field
    index = basis_to._free_index
    rows = [[field.zero] * len(basis_from) for _ in range(len(basis_to))]
    for j, image in enumerate(_coboundary_images(module, basis_from.degree,
                                                 basis_from.columns, caps)):
        for pos, v in image.items():
            i = index.get(pos)
            if i is not None:
                rows[i][j] = v
    return Matrix(rows, field, copy=False)


# ---------------------------------------------------------------------------
# the complex and its cohomology


@dataclass
class CohomologyReport:
    degree: int
    equivariant: bool
    dim_space: int
    dim_cocycles: int
    dim_coboundaries: int
    dim_h: int
    representatives: tuple


class CochainComplex:
    """The plain complex of a module, or its invariant subcomplex when an
    action is given.  Each degree's basis and coboundary are built on first
    use and kept; the self-module action, when none is passed, and the
    bracket are validated once, here.

    The coboundary out of degree k is kept as rows at the free positions
    of the plain basis of C^(k+2), plain and invariant alike: the bracket
    check puts every image in C^(k+2), where a vector is zero iff its
    entries there are, so their kernel is Z^k, and no basis of C^(k+2) is
    built.  The coefficient tables of the coboundary formula are built once
    per complex, on the first assembly."""

    def __init__(self, module, action=None, module_action=None, caps=DEFAULT_CAPS):
        if action is not None and module_action is None:
            module_action = self_module_action(action, module)
        _check_bracket(module)
        self.module = module
        self.action = action
        self.module_action = module_action
        self.caps = caps
        self.field = module.system.field
        self._bases = {}
        self._rows = {}
        self._image_lengths = {}
        self._coefficients = None

    def _tables(self, module):
        """_coefficient_tables of the module, built on first use and kept."""
        if self._coefficients is None:
            self._coefficients = _coefficient_tables(module)
        return self._coefficients

    def basis(self, degree):
        if degree not in self._bases:
            self._bases[degree] = cochain_space_basis(
                self.module, degree, self.action, self.module_action, self.caps)
        return self._bases[degree]

    def _at_plain_free(self, vectors):
        """Each sparse vector of C^k, k >= 3, read at the free positions of
        the plain basis, as {plain row: scalar}.  C^k is d^(k-3) prefix
        copies of one three-slot block, so pos is free iff pos % block is
        free in the block's kernel, and its row is pos // block times the
        block's free count plus the place of pos % block among them."""
        d, m = self.module.system.dim, self.module.dim
        index, nw, _ = _plain_free_index(d, m, self.field)
        block = d ** 3 * m
        for vec in vectors:
            yield {pos // block * nw + i: v for pos, v in vec.items()
                   if (i := index[pos % block]) >= 0}

    def rows(self, degree):
        """The coboundary from degree to degree + 2 as sparse rows {plain
        row: {column: scalar}}: columns are the basis of degree, rows the
        plain free positions of C^(degree + 2) in plain basis order.  The
        number of entries of each column, its image length, is kept too.

        Out of degree 3 the rows are those at the first pairs x1 < x2 of
        C^5 alone (_half_free_index), the row of pair number q at q * nw +
        i.  Every image of C^3 is alternating in (x1, x2), so these rows
        have the kernel Z^3 and the rank of all of them, and each image
        length is half the full one; _unfold rebuilds the rest.
        Images of C^5 are not alternating in any pair: other degrees keep
        every plain free row."""
        if degree not in self._rows:
            index = _half_free_index if degree == 3 else _plain_free_index
            images = _coboundary_images(self.module, degree, self.basis(degree).columns,
                                        self.caps, index, self._tables)
            lengths = self._image_lengths[degree] = []
            self._rows[degree] = _transpose(enumerate(images), lengths)
        return self._rows[degree]

    def _unfold(self, vec):
        """A vector at the rows of rows(3), the first pairs x1 < x2 of C^5,
        as the alternating vector {plain row: scalar} with those entries:
        negated at (x2, x1), zero at (x, x)."""
        d = self.module.system.dim
        _, nw, _ = _plain_free_index(d, self.module.dim, self.field)
        pairs = _first_pairs(d)[1]
        p = self.field.char
        out = {}
        for r, v in vec.items():
            q, i = divmod(r, nw)
            ab, ba = pairs[q]
            out[ab * nw + i] = v
            out[ba * nw + i] = p - v if p else -v
        return out

    def cohomology(self, degree, want_representatives=True):
        """Dimensions (and representatives) of the degree-th cohomology."""
        if degree < 1 or degree % 2 == 0:
            raise LinAlgError("cohomology degree must be odd and >= 1")
        field = self.field
        basis = self.basis(degree)
        # pivots at the column with the fewest entries among the rows (the
        # shortest image), ties by index: a static Markowitz order
        zrows = self.rows(degree)
        n = len(basis)
        order = [size * n + j for j, size in enumerate(self._image_lengths[degree])]
        cocycles = RrefAccumulator(field, order.__getitem__)
        cocycles.extend(zrows.values())
        dim_z = n - cocycles.rank

        # the coboundary span in the coordinates of basis: the plain rows
        # are those of the plain basis (out of degree 3, rebuilt by _unfold);
        # an invariant basis takes the rows at its free positions, which are
        # plain free positions, as each of its columns is 1 at its own free
        # position and 0 at the others
        acc = RrefAccumulator(field)
        if degree > 1:
            columns = _transpose(self.rows(degree - 2).items()).values()
            if degree == 5:
                columns = map(self._unfold, columns)
            if basis.invariant:
                place, = self._at_plain_free([basis._free_index])
                columns = ({place[r]: v for r, v in col.items() if r in place}
                           for col in columns)
            acc.extend(columns)
        dim_b = acc.rank

        # representatives: extend the coboundary span through the cocycle
        # basis, first fit in the canonical cocycle order; the whole span is
        # in by now, so the fit does not depend on the order it went in.
        # The dimensions need ranks alone: only representatives read the
        # echelon rows out and build the cocycle kernel, whose basis in the
        # pivot order above is made canonical again.
        representatives = []
        if want_representatives:
            zcols, _ = canonical_kernel(cocycles.kernel_basis(n), field)
            for z in zcols:
                if acc.add(z):
                    representatives.append(basis.combine(z))
        return CohomologyReport(degree, self.action is not None, n,
                                dim_z, dim_b, dim_z - dim_b, tuple(representatives))

    def preimage(self, c):
        """The canonical preimage of the cochain c under the coboundary
        (free variables zero), or None when c is not a coboundary.

        express in the basis of c's degree checks that c lies in the
        complex (SpanError otherwise); then one sparse solve
        (linalg.solve_rows) on the coboundary's rows against c's entries at
        the plain free positions.  Those rows have the kernel and so the
        canonical solution of the rows read in any basis of the target.  A
        cochain of degree 5 that is not alternating in its first pair is no
        coboundary; one that is has the equations of the rows at x1 < x2
        of rows(3) and no others, so it is solved on them alone.
        """
        degree = len(c.dims)
        if degree < 3:
            raise LinAlgError("degree-1 cochains have no incoming coboundary")
        source = self.basis(degree - 2)
        self.basis(degree).express(c)
        rhs, = self._at_plain_free([c.entries])
        if degree == 5:
            d = self.module.system.dim
            _, nw, _ = _plain_free_index(d, self.module.dim, self.field)
            place = _first_pairs(d)[0]
            half = {place[r // nw] * nw + r % nw: v for r, v in rhs.items()
                    if place[r // nw] >= 0}
            if self._unfold(half) != rhs:
                return None
            rhs = half
        x = solve_rows(self.rows(degree - 2), rhs, len(source), self.field)
        return None if x is None else source.combine(x)


def cohomology(module, degree, action=None, module_action=None,
               caps=DEFAULT_CAPS, want_representatives=True):
    """Dimensions (and representatives) of the degree-th cohomology of the
    plain or invariant cochain complex."""
    return CochainComplex(module, action, module_action, caps).cohomology(
        degree, want_representatives)


def is_coboundary(module, c, action=None, module_action=None, caps=DEFAULT_CAPS):
    """A preimage under the coboundary in the (invariant, when an action is
    given) complex, or None when the class is nonzero."""
    return CochainComplex(module, action, module_action, caps).preimage(c)
