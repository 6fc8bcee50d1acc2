"""The slot transform of sparse flat multilinear tensors.

A tensor with input slots of dimensions n_1, ..., n_k and values of
dimension m is a {flat index: value} dict, flattened row-major over
(i_1, ..., i_k, l): the value coordinate l, the last slot, varies fastest.
Cochains, structure tensors (d, d, d) -> d and module tensors
(d, d, m) -> m share this layout, and the group action on cochains and
every equivariance check go through transform_sparse.
"""

from __future__ import annotations


def slot_indices(flat, dims):
    """The per-slot indices of a flat index over slots of the given
    dimensions (the last slot varies fastest)."""
    idx = []
    for n in reversed(dims):
        flat, i = divmod(flat, n)
        idx.append(i)
    return tuple(reversed(idx))


def transform_sparse(entries, mats):
    """Contract every slot with its own square row-list matrix (mats, the
    value slot last) the same way: new[.., j, ..] = sum_i mat[i][j] old[.., i, ..].

    An input slot given A reads its argument through A (new(x) = old(A x));
    a map B on the values (new = B old) is passed as its transpose.  An int
    matrix entry that is a multiple of p is zero in GF(p) but not falsy and
    can leave a zero value: compare results with zero defaults
    (first_difference), not by key presence.
    """
    stride = 1
    for mat in reversed(mats):
        entries = _contract(entries, stride, mat)
        stride *= len(mat)
    return entries


def _contract(entries, stride, mat):
    """Contract the slot of the given stride with mat (see transform_sparse)."""
    dim = len(mat)
    out = {}
    for flat, v in entries.items():
        if not v:
            continue
        i = (flat // stride) % dim
        base = flat - i * stride
        for j, c in enumerate(mat[i]):
            if not c:
                continue
            key = base + j * stride
            cur = out.get(key)
            if cur is None:
                out[key] = c * v
            else:
                cur = cur + c * v
                if cur:
                    out[key] = cur
                else:
                    del out[key]
    return out


def first_difference(a, b):
    """Smallest flat index at which the sparse tensors a and b differ, with
    a missing entry read as zero; None when they are equal."""
    bad = [k for k in a.keys() | b.keys() if a.get(k, 0) != b.get(k, 0)]
    return min(bad) if bad else None
