"""The coboundary out of C^3, kept at the first pairs x1 < x2 of C^5.

Every image of a 3-cochain is alternating in its first pair (x1, x2):
the per-term oracle's images, read at the plain free rows, vanish at
x1 = x2 and change sign under the swap, on plain and invariant complexes,
self-modules and random modules of dimension 1 and 2, over QQ, GF(7) and
GF(2).  The rows that _coboundary_images keeps at the free rows, and
CochainComplex.rows(3) for a whole basis, are the oracle's rows at
x1 < x2, under their own plain row numbers.
preimage of a 5-cochain equals the canonical solve on every plain free
row (oracles.preimage_on_every_row), on coboundaries and on cochains that
are not alternating, which have none.  An image of a 5-cochain is not
alternating in its first pair, so the cut stays at degree 3."""

from functools import cache

from hypothesis import given, settings, strategies as st
from oracles import coboundary_images_per_term, preimage_on_every_row
from test_cohomology import UNIMODULAR, bundled_system, changed_basis
from test_generators import meson_action

from ltsdeform import bundled_path
from ltsdeform.caps import DEFAULT_CAPS
from ltsdeform.cohomology import (CochainComplex, _coboundary_images, _plain_free_index,
                                  apply_coboundary)
from ltsdeform.documents import action_elements_from_document, load_document
from ltsdeform.groups import make_group_action
from ltsdeform.linalg import Matrix, PrimeField, QQ
from ltsdeform.lts import LtsModule, StructureTensor, meson, self_module

FIELDS = [QQ, PrimeField(7), PrimeField(2)]


@cache
def systems(fld):
    """label -> (system, action): the bundled systems of dimension 2 and 3,
    meson2 under its swap, skew3 under its signs (but in characteristic 2,
    where they collapse), meson(3) under D4 (S3 in characteristic 2, as
    for the signs), and meson(3) in a unimodular basis under that group
    conjugated into it."""
    def bundled_action(system, stem):
        doc = load_document(bundled_path(stem + ".json").read_text())
        return make_group_action(system, action_elements_from_document(doc, fld))

    out = {name: (bundled_system(name, fld), None) for name in ("sl2", "sym2")}
    for name, stem in (("meson2", "meson2_swap"), ("skew3", "skew3_sign")):
        system = bundled_system(name, fld)
        out[name] = (system, bundled_action(system, stem) if fld.char != 2 else None)
    out["meson3"] = meson_action("D4" if fld.char != 2 else "S3", fld)
    system, action = out["meson3"]
    p, pinv = (Matrix(rows, fld) for rows in UNIMODULAR)
    changed = changed_basis(system, p, pinv)
    out["meson3 changed basis"] = (changed, make_group_action(
        changed, [(lab, pinv * m * p) for lab, m in zip(action.labels, action.matrices)]))
    return out


@cache
def self_complex(label, fld, invariant):
    system, action = systems(fld)[label]
    return CochainComplex(self_module(system), action if invariant else None)


@st.composite
def complexes(draw):
    """A plain or invariant complex of a self-module, or the plain complex
    of a module of dimension 1 or 2 with a random theta."""
    fld = draw(st.sampled_from(FIELDS))
    label = draw(st.sampled_from(sorted(systems(fld))))
    if draw(st.booleans()):
        invariant = systems(fld)[label][1] is not None and draw(st.booleans())
        return self_complex(label, fld, invariant)
    system = systems(fld)[label][0]
    d, m = system.dim, draw(st.sampled_from([1, 2]))
    right = StructureTensor.from_entries(
        draw(st.dictionaries(st.integers(0, d * d * m * m - 1), st.integers(-3, 3),
                             max_size=6)), (d, d, m), m, fld)
    return CochainComplex(LtsModule(system, m, right, right, right))


def combination(draw, basis, columns=None):
    """A combination of at most four of the given columns of basis (all by
    default) with small int coefficients, as a cochain."""
    columns = range(len(basis)) if columns is None else columns
    if not columns:
        return basis.combine({})
    coords = draw(st.dictionaries(st.sampled_from(columns), st.integers(-3, 3), max_size=4))
    return basis.combine(coords)


def plain_rows(cx, vectors):
    """Each vector of C^5 read at the plain free rows, as {(x1, x2, i):
    scalar}, i the place of the block position among the free ones."""
    d = cx.module.system.dim
    nw = _plain_free_index(d, cx.module.dim, cx.field)[1]
    return [{(*divmod(r // nw, d), r % nw): v for r, v in vec.items()}
            for vec in cx._at_plain_free(vectors)]


def is_alternating(rows, field):
    return all(a != b and rows.get((b, a, i), 0) == field(-v)
               for (a, b, i), v in rows.items())


def halved(cx, rows):
    """The rows at x1 < x2, at their plain row numbers."""
    d = cx.module.system.dim
    nw = _plain_free_index(d, cx.module.dim, cx.field)[1]
    return {(a * d + b) * nw + i: v for (a, b, i), v in rows.items() if a < b}


@settings(max_examples=60, deadline=None)
@given(complexes(), st.data())
def test_images_of_c3_are_alternating_and_kept_at_x1_below_x2(cx, data):
    basis = cx.basis(3)
    f = combination(data.draw, basis)
    rows, = plain_rows(cx, coboundary_images_per_term(cx.module, 3, [f.entries]))
    assert is_alternating(rows, cx.field)
    assert list(_coboundary_images(cx.module, 3, [f.entries], DEFAULT_CAPS,
                                   True)) == [halved(cx, rows)]
    # the rows of the whole basis, and the image lengths of the pivot key
    want = {}
    columns = plain_rows(cx, coboundary_images_per_term(cx.module, 3, basis.columns))
    for j, column in enumerate(columns):
        for r, v in halved(cx, column).items():
            want.setdefault(r, {})[j] = v
    assert cx.rows(3) == want
    assert cx._image_lengths[3] == [len(column) // 2 for column in columns]


@settings(max_examples=60, deadline=None)
@given(complexes(), st.data())
def test_preimage_of_a_5_cochain_matches_the_solve_on_every_row(cx, data):
    f = combination(data.draw, cx.basis(3))
    c = apply_coboundary(cx.module, f)
    pre = cx.preimage(c)
    assert pre is not None and pre == preimage_on_every_row(cx, c)
    # a nonzero part at the rows x1 >= x2 alone leaves the rows at x1 < x2
    # as they were: only the alternation check can tell
    target = cx.basis(5)
    d, m = cx.module.system.dim, cx.module.dim
    lower = [j for j, pos in enumerate(target.free_positions)
             if pos // (d ** 4 * m) >= pos // (d ** 3 * m) % d]
    g = combination(data.draw, target, lower)
    c2 = c + g
    pre2 = cx.preimage(c2)
    assert pre2 == preimage_on_every_row(cx, c2)
    if not is_alternating(plain_rows(cx, [c2.entries])[0], cx.field):
        assert pre2 is None


def test_an_image_of_c5_is_not_alternating_in_its_first_pair():
    # D(x1, x2) f(x3, ..) breaks the alternation out of degree 5: the rows
    # of C^7 are kept at every first pair
    module = self_module(meson(2))
    basis = CochainComplex(module).basis(5)

    def at(image, *args):
        flat = 0
        for i in args:
            flat = flat * 2 + i
        return image.entries.get(flat, 0)

    zero_pair = apply_coboundary(module, basis.combine({0: 1}))
    assert at(zero_pair, 0, 0, 0, 1, 0, 1, 0, 1) == -1
    swapped = apply_coboundary(module, basis.combine({4: 1}))
    assert (at(swapped, 0, 1, 0, 1, 0, 1, 0, 1), at(swapped, 1, 0, 0, 1, 0, 1, 0, 1)) == (-2, 1)
