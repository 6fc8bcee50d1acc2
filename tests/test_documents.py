import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from oracles import parse_coefficient

from ltsdeform import bundled_path
from ltsdeform.documents import (DocumentError, _parse_coeff, _parse_quadruples,
                                 action_elements_from_document,
                                 action_to_document, deformation_from_document,
                                 deformation_terms, deformation_to_document,
                                 dump_document, load_document,
                                 module_matrices_from_document, quadruples,
                                 system_from_document, system_to_document)
from ltsdeform.groups import make_group_action
from ltsdeform.linalg import QQ, LinAlgError, Matrix, PrimeField
from ltsdeform.lts import StructureTensor, matrix_lts, meson, verify_lts

BUNDLED = ["meson1.json", "meson2.json", "meson3.json", "meson4.json",
           "matrix2.json", "skew3.json", "sym2.json", "rect22.json",
           "sl2.json", "meson2x3.json"]


def test_system_roundtrip_is_byte_exact():
    for name in BUNDLED:
        text = bundled_path(name).read_text()
        system = system_from_document(load_document(text))
        assert dump_document(system_to_document(system)) == text


def test_action_roundtrip_is_byte_exact():
    t2 = meson(2)
    for name, system in [("meson2_swap.json", t2)]:
        text = bundled_path(name).read_text()
        doc = load_document(text)
        elements = action_elements_from_document(doc, system.field)
        action = make_group_action(system, elements)
        assert dump_document(action_to_document(action)) == text


def test_deformation_roundtrip_is_byte_exact():
    text = bundled_path("meson2_swap_t2.json").read_text()
    system_ref, action_ref, raw_terms = deformation_from_document(load_document(text))
    t2 = meson(2)
    terms = deformation_terms(raw_terms, 2, t2.field)
    doc = deformation_to_document(system_ref, action_ref,
                                  list(enumerate(terms, start=1)), t2.field)
    assert dump_document(doc) == text


def test_parse_serialize_parse_is_identity():
    system = matrix_lts(2)
    doc = system_to_document(system)
    again = system_from_document(load_document(dump_document(doc)))
    assert again == system


def test_gf_documents_roundtrip():
    gf = PrimeField(7)
    system = meson(2, gf)
    doc = system_to_document(system)
    assert doc["field"] == "gf:7"
    again = system_from_document(doc)
    assert again == system
    assert verify_lts(again.mu).passed


def test_field_override_reinterprets_coefficients():
    doc = load_document(bundled_path("meson2.json").read_text())
    gf = PrimeField(3)
    system = system_from_document(doc, field_override=gf)
    assert system.field is gf
    assert verify_lts(system.mu).passed


def test_malformed_documents_are_rejected():
    with pytest.raises(DocumentError):
        load_document("not json at all {")
    with pytest.raises(DocumentError):
        system_from_document({"schema": "nope"})
    good = load_document(bundled_path("meson2.json").read_text())
    bad = dict(good)
    bad["bracket"] = [[0, 1, 9, {"0": "1"}]]
    with pytest.raises(DocumentError, match="out of range"):
        system_from_document(bad)
    bad = dict(good)
    bad["bracket"] = [[0, 1, 0, {"0": "0.5"}]]
    with pytest.raises(DocumentError, match="parse"):
        system_from_document(bad)


def test_duplicate_bracket_entries_rejected():
    good = load_document(bundled_path("meson2.json").read_text())
    bad = dict(good)
    bad["bracket"] = [[0, 1, 0, {"1": "1"}], [0, 1, 0, {"1": "2"}]]
    with pytest.raises(DocumentError, match="duplicate"):
        system_from_document(bad)


def test_deformation_orders_must_increase():
    doc = {"schema": "lts-deformation/1", "system": "s.json",
           "terms": [{"order": 2, "entries": []}, {"order": 2, "entries": []}]}
    with pytest.raises(DocumentError, match="strictly increasing"):
        deformation_from_document(doc)


def test_module_matrices_block():
    t2 = meson(2)
    swap = Matrix([[0, 1], [1, 0]])
    action = make_group_action(t2, [("0", Matrix.identity(2)), ("1", swap)])
    doc = action_to_document(action, module_matrices=list(action.matrices))
    mats = module_matrices_from_document(doc, t2.field)
    assert mats == list(action.matrices)


def test_sparse_entries_omit_zero_maps():
    zero = StructureTensor.zero((2, 2, 2), 2)
    t2 = meson(2)
    doc = deformation_to_document("s.json", None, [(1, zero)], t2.field)
    assert doc["terms"][0]["entries"] == []
    assert "action" not in doc


def test_json_booleans_are_not_integers():
    # true would otherwise pass as the int 1: a one-dimensional document
    # with "dim": true, and a bracket index true, both parsed silently
    doc = load_document(bundled_path("meson1.json").read_text())
    doc["dim"] = True
    with pytest.raises(DocumentError, match="wrong type"):
        system_from_document(doc)
    doc = load_document(bundled_path("meson2.json").read_text())
    doc["bracket"] = [[0, True, 0, {"1": "1"}]]
    with pytest.raises(DocumentError, match="entries must be"):
        system_from_document(doc)
    doc = {"schema": "lts-deformation/1", "system": "s.json",
           "terms": [{"order": True, "entries": []}]}
    with pytest.raises(DocumentError, match="wrong type"):
        deformation_from_document(doc)


def bracket_error(cmap, field_override=None):
    """The message of the DocumentError that a meson2 document whose
    bracket is the one quadruple (0, 1, 0, cmap) raises."""
    doc = load_document(bundled_path("meson2.json").read_text())
    doc["bracket"] = [[0, 1, 0, cmap]]
    with pytest.raises(DocumentError) as info:
        system_from_document(doc, field_override=field_override)
    return str(info.value)


def test_coefficient_error_messages_keep_their_text():
    where = "bracket (0, 1, 0): cannot parse coefficient "
    assert bracket_error({"0": "0.5"}) == where + "'0.5' (expected an integer or p/q)"
    assert (bracket_error({"0": "1/7"}, PrimeField(7))
            == where + "'1/7': denominator 7 not invertible mod 7")
    big = "9" * 5000
    assert bracket_error({"0": big}) == where + (
        "%r: Exceeds the limit (%d digits) for integer string conversion: value has "
        "5000 digits; use sys.set_int_max_str_digits() to increase the limit"
        % (big, sys.get_int_max_str_digits()))


def test_coefficient_map_errors():
    assert bracket_error(["1"]).endswith("coefficient map must be an object")
    assert bracket_error({"x": "1"}).endswith("bad coefficient index 'x'")
    assert bracket_error({"2": "1"}).endswith("coefficient index 2 out of range")
    assert bracket_error({"-1": "1"}).endswith("coefficient index -1 out of range")
    assert bracket_error({"0": 1}).endswith("coefficients must be strings")


def test_coefficient_indices_are_read_in_the_written_form_only():
    # int() reads the first six of these keys, the first five as 1 or 0;
    # in one map, "1", "01", " 1 " and "+1" would name one index, the last
    # one winning
    for key in ("01", " 1 ", "+1", "\uff11", "-0", "1_0", "1.0", ""):
        assert bracket_error({key: "1"}).endswith("bad coefficient index %r" % key)
    assert "bad coefficient index '01'" in bracket_error(
        {"1": "2", "01": "3", " 1 ": "5", "+1": "7"})


def test_coefficients_outside_the_grammar_are_rejected():
    # Fraction reads the first eight (Unicode digits included); the
    # document grammar reads none
    for sval in ("+1", "1.5", "1e3", "1_000", "1/02", "\uff11", "-\u0663", "1/1\u0664",
                 "1 / 2", "1/-2", "1/+2", "1/0", "--1", "0x10", "inf", "nan", ""):
        with pytest.raises(DocumentError, match="expected an integer or p/q"):
            _parse_coeff(sval, QQ, "w")


def test_parse_rational_coefficient_strings():
    gf = PrimeField(7)
    assert _parse_coeff("1/2", gf, "w") == gf(4)
    with pytest.raises(DocumentError, match="not invertible"):
        _parse_coeff("1/7", gf, "w")
    assert _parse_coeff("-3/7", QQ, "w") == Fraction(-3, 7)


SPACES = st.sampled_from(["", " ", "  ", "\t", "\n"])
DIGITS = st.one_of(st.integers(0, 30), st.integers(0, 2 ** 80)).map(str)
DENOMINATORS = st.one_of(st.sampled_from([1, 7, 14, 49]), st.integers(1, 60),
                         st.integers(2 ** 64, 2 ** 80)).map(str)


@st.composite
def coefficient_strings(draw):
    """Strings of the coefficient grammar: an optional minus, digits with
    leading zeros allowed, an optional /q with q free of them, and spaces."""
    num = draw(st.sampled_from(["", "-"])) + "0" * draw(st.integers(0, 2)) + draw(DIGITS)
    den = draw(st.none() | DENOMINATORS)
    return draw(SPACES) + num + ("" if den is None else "/" + den) + draw(SPACES)


@settings(max_examples=150, deadline=None)
@given(coefficient_strings(), st.sampled_from([QQ, PrimeField(7)]))
def test_parse_coeff_matches_the_fraction_oracle(sval, fld):
    try:
        want = parse_coefficient(sval, fld)
    except LinAlgError as exc:
        # a denominator that is zero mod 7 once the fraction is reduced
        with pytest.raises(DocumentError) as info:
            _parse_coeff(sval, fld, "w")
        assert str(info.value) == "w: cannot parse coefficient %r: %s" % (sval, exc)
        return
    got = _parse_coeff(sval, fld, "w")
    assert got == want and type(got) is type(want)


@st.composite
def sparse_tensors(draw):
    """(field, StructureTensor (d, d, d) -> m) with a few nonzero entries;
    over QQ the values include proper Fractions."""
    fld = draw(st.sampled_from([QQ, PrimeField(7)]))
    d, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if fld == QQ:
        values = st.fractions(min_value=-50, max_value=50, max_denominator=9)
    else:
        values = st.integers(1, 6)
    entries = draw(st.dictionaries(st.integers(0, d ** 3 * m - 1),
                                   values.filter(bool), max_size=8))
    return fld, StructureTensor.from_entries(entries, (d, d, d), m, fld)


@settings(max_examples=60, deadline=None)
@given(sparse_tensors())
def test_quadruples_roundtrip_through_the_parser(case):
    fld, tensor = case
    d, m = tensor.dim_in, tensor.dim_out
    raw = json.loads(json.dumps(quadruples(tensor, fld)))
    again = _parse_quadruples(raw, d, m, fld, "t")
    assert again == tensor
    assert [type(again.entries[k]) for k in sorted(again.entries)] == [
        type(tensor.entries[k]) for k in sorted(tensor.entries)]
    assert quadruples(again, fld) == raw
