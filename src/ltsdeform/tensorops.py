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
series) through one nested_sum each.
"""

from __future__ import annotations

from math import prod


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


def transform_series(series, mats, order):
    """Coefficients 0..order of the slot transform of a series of sparse
    tensors with one series of row-list matrices per slot (the value slot
    last and transposed, as in transform_sparse): coefficient r is the sum
    of transform_sparse(series[a_0], [mats[0][a_1], ..., mats[-1][a_k]])
    over a_0 + ... + a_k = r.  Every list reads as zero past its end (a
    matrix series needs its term 0), index 0 is like any other, and each
    slot in turn is a truncated convolution of one-slot contractions.  The
    values are exact sums, zero sums kept, as in transform_sparse."""
    out = [series[r] if r < len(series) else {} for r in range(order + 1)]
    stride = 1
    for slot in reversed(mats):
        new = [{} for _ in range(order + 1)]
        for r, acc in enumerate(new):
            for a in range(min(r + 1, len(slot))):
                _contract(out[r - a], stride, slot[a], acc)
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
    coefficient a + b.  Every entry is decoded once per term; the cost is the
    number of (inner entry, outer entry) pairs that meet with a + b <= order.
    The sums are reduced by the field of the first term's outer tensors.
    """
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


def value_vectors(entries, dims, zero):
    """(index tuple, value vector) of every input tuple at which the sparse
    tensor over dims (value slot last) is nonzero, in flat order."""
    m = dims[-1]
    for base in sorted({k // m for k in entries}):
        yield (slot_indices(base, dims[:-1]),
               tuple(entries.get(base * m + l, zero) for l in range(m)))


def first_difference(a, b):
    """Smallest flat index at which the sparse tensors a and b differ, with
    a missing entry read as zero; None when they are equal."""
    bad = [k for k in a.keys() | b.keys() if a.get(k, 0) != b.get(k, 0)]
    return min(bad) if bad else None
