"""Sparse flat multilinear tensors: the slot transform and the nested sum.

A tensor with input slots of dimensions n_1, ..., n_k and values of
dimension m is a {flat index: value} dict, flattened row-major over
(i_1, ..., i_k, l): the value coordinate l, the last slot, varies fastest.
Structure tensors (d, d, d) -> d, module tensors (d, d, m) -> m and
cochains of every degree share this layout.  The group action on cochains
(a whole basis per call) and every equivariance check go through
transform_sparse, which moves entries through lookup tables when every
slot matrix is monomial, and gauge composition through its series form
transform_series; the fundamental identity and its module placements
(one-term series) and all the order-r deformation equations (the term
series) through one nested_sum each.  nested_sum decodes each series once
per call into positions, index tuples with their nonzero (order, value)
pairs; its cost is the pairs of outer and inner positions that meet in a
slot, each a truncated convolution of their orders.
"""

from __future__ import annotations

from collections import defaultdict
from math import prod
from operator import itemgetter


def slot_indices(flat, dims):
    """The per-slot indices of a flat index over slots of the given
    dimensions (the last slot varies fastest)."""
    idx = []
    for n in reversed(dims):
        flat, i = divmod(flat, n)
        idx.append(i)
    return tuple(reversed(idx))


def transform_sparse(tensors, mats):
    """Contract every slot of every tensor in the list with its own square
    row-list matrix (mats, the value slot last) the same way:
    new[.., j, ..] = sum_i mat[i][j] old[.., i, ..].  Returns the list of
    results, so that one call moves a whole basis.

    An input slot given A reads its argument through A (new(x) = old(A x));
    a map B on the values (new = B old) is passed as its transpose.  Like
    transform_series, it knows no field: its values are exact sums of
    products, zero sums among them, which the caller reduces over GF(p) and
    drops (field.sparse).

    When every matrix is monomial (one nonzero per row and per column, as
    for signed and scaled permutations) every entry moves to exactly one
    key.  The shapes are then checked and the (target, coefficient) tables
    built once per call: one table for the trailing slots and one for the
    rest, so that each entry moves by one lookup in each.  Any other matrix
    contracts one slot at a time, through transform_series.
    """
    moves = [_monomial_moves(mat) for mat in mats]
    if None in moves:
        series = [[mat] for mat in mats]
        return [transform_series([entries], series, 0)[0] for entries in tensors]
    # one table for the trailing slots and one for the rest, each about the
    # square root of the index range long: a single table over the whole
    # range can cost more to build than the entries it moves
    split, size, total = len(moves), 1, prod(map(len, moves))
    while size * size < total:
        split -= 1
        size *= len(moves[split])
    low, high = _move_table(moves[split:]), _move_table(moves[:split], size)
    out = []
    for entries in tensors:
        new = {}
        for key, v in entries.items():
            if v:
                h, lo = divmod(key, size)
                th, ch = high[h]
                tl, cl = low[lo]
                if cl is not None:
                    v = cl * v
                new[th + tl] = v if ch is None else ch * v
        out.append(new)
    return out


def _monomial_moves(mat):
    """(column, entry) of the one nonzero entry of every row of a monomial
    row-list matrix, or None when a row or column has more or fewer."""
    moves = []
    for row in mat:
        nonzero = [(j, c) for j, c in enumerate(row) if c]
        if len(nonzero) != 1:
            return None
        moves.append(nonzero[0])
    if len({j for j, _ in moves}) != len(moves):
        return None
    return moves


def _move_table(moves, scale=1):
    """(target, coefficient) of every flat index over the slots with the
    given moves (the last slot fastest), the target multiplied by scale and
    a coefficient equal to one given as None."""
    table = [(0, 1)]
    for slot in moves:
        n = len(slot)
        table = [(t * n + j, a * c) for t, a in table for j, c in slot]
    return [(t * scale, None if c == 1 else c) for t, c in table]


def transform_series(series, mats, order, low=0):
    """Coefficients 0..order of the slot transform of a series of sparse
    tensors with one series of row-list matrices per slot (the value slot
    last and transposed, as in transform_sparse): coefficient r is the sum
    of transform_sparse(series[a_0], [mats[0][a_1], ..., mats[-1][a_k]])
    over a_0 + ... + a_k = r.  Every list reads as zero past its end (a
    matrix series needs its term 0), index 0 is like any other, and each
    slot in turn is a truncated convolution of one-slot contractions.  The
    last pass (the first slot) forms only the coefficients from low on;
    those below come back empty.  The values are exact sums, zero sums
    kept, as in transform_sparse."""
    out = [series[r] if r < len(series) else {} for r in range(order + 1)]
    stride = 1
    for n, slot in enumerate(reversed(mats), 1):
        new = [{} for _ in range(order + 1)]
        for r in range(low if n == len(mats) else 0, order + 1):
            for a in range(min(r + 1, len(slot))):
                _contract(out[r - a], stride, slot[a], new[r])
        out, stride = new, stride * len(slot[0])
    return out


def _contract(entries, stride, mat, out):
    """Contract the slot of the given stride with mat (see transform_sparse),
    adding into out."""
    dim = len(mat)
    for flat, v in entries.items():
        if not v:
            continue
        i = (flat // stride) % dim
        base = flat - i * stride
        for j, c in enumerate(mat[i]):
            if c:
                key = base + j * stride
                out[key] = out.get(key, 0) + c * v


def nested_sum(terms, dims, order):
    """Coefficients 0..order of the sum of sign * outer(.., inner(x_p, x_q, x_r), ..)
    over the terms, as sparse tensors over variables of dimensions dims[:-1]
    with values of dimension dims[-1].

    Each term is (sign, outer, slot, inner, positions) with series (lists)
    outer and inner of trilinear tensors: inner[b] reads the variables at
    positions and fills the given slot of outer[a], whose other two
    arguments are the remaining variables in increasing order, adding into
    coefficient a + b.  Each series is decoded once per call into its
    positions, each with its nonzero (order, value) pairs; a term pairs the
    outer and inner positions that meet in the slot and adds each pair's
    truncated convolution (a + b <= order) into one accumulator per output
    position.  The cost is the number of such position pairs times their
    convolutions.  An accumulator reaches only as far as a nonzero pair
    can, so a series padded with zeros costs no more than its nonzero
    terms.  The sums are reduced by the field of the first term's outer
    tensors.
    """
    field = terms[0][1][0].field
    strides = [prod(dims[s + 1:]) for s in range(len(dims))]
    decoded = {}
    for _, outer, _, inner, _ in terms:
        for series in (outer, inner):
            if id(series) not in decoded:
                decoded[id(series)] = _positions(series[:order + 1])
    # coefficients past the highest order a nonzero pair reaches stay empty
    length = 1 + min(order, max(decoded[id(outer)][1] + decoded[id(inner)][1]
                                for _, outer, _, inner, _ in terms))
    accs = defaultdict(lambda: [0] * length)
    for sign, outer, slot, inner, positions in terms:
        rest = [strides[s] for s in range(len(dims) - 1) if s not in positions]
        # outer positions by their index in the inner's slot: (rest of key, series)
        by_slot = {}
        for idx, us in decoded[id(outer)][0]:
            args = idx[:slot] + idx[slot + 1:-1]
            part = idx[-1] + args[0] * rest[0] + args[1] * rest[1]
            by_slot.setdefault(idx[slot], []).append((part, us))
        for idx, vs in decoded[id(inner)][0]:
            matches = by_slot.get(idx[-1])
            if matches is None:
                continue
            base = sum(i * strides[s] for i, s in zip(idx, positions))
            # one accumulator lookup per pair and inner order costs less
            # than a second loop per pair when positions hold one order
            for b, v in vs:
                if sign < 0:
                    v = -v
                lim = length - b
                for part, us in matches:
                    acc = accs[base + part]
                    for a, u in us:
                        if a >= lim:
                            break
                        acc[a + b] += u * v
    return [field.sparse(zip(accs, map(itemgetter(r), accs.values()))) if r < length else {}
            for r in range(order + 1)]


def _positions(series):
    """([(index tuple, [(order, value), ...]), ...], last order) of a series
    of tensors of one shape: every position with a nonzero value at some
    order, its nonzero values with their orders rising, and the highest
    order with a nonzero value (-1 for none)."""
    by_key, last = {}, -1
    for a, t in enumerate(series):
        for key, u in t.entries.items():
            if u:
                by_key.setdefault(key, []).append((a, u))
                last = a
    if not by_key:
        return [], -1
    shape = series[0].dims + (series[0].dim_out,)
    return [(slot_indices(key, shape), us) for key, us in by_key.items()], last


def value_vectors(entries, dims):
    """(index tuple, value vector) of every input tuple at which the sparse
    tensor over dims (value slot last) is nonzero, in flat order; a missing
    value reads as 0, the zero of every field."""
    *head, m = dims
    get, values = entries.get, range(m)
    for base in sorted({k // m for k in entries}):
        yield slot_indices(base, head), tuple([get(base * m + l, 0) for l in values])


def first_difference(a, b):
    """Smallest flat index at which the sparse tensors a and b differ, with
    a missing entry read as zero; None when they are equal."""
    bad = [k for k in a.keys() | b.keys() if a.get(k, 0) != b.get(k, 0)]
    return min(bad) if bad else None
