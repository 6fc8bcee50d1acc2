import pytest

from ltsdeform import bundled_path
from ltsdeform.documents import (DocumentError, action_elements_from_document,
                                 action_to_document, deformation_from_document,
                                 deformation_terms, deformation_to_document,
                                 dump_document, load_document,
                                 module_matrices_from_document,
                                 system_from_document, system_to_document)
from ltsdeform.groups import make_group_action
from ltsdeform.linalg import Matrix, PrimeField
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
