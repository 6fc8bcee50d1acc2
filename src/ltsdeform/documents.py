"""JSON interchange documents for systems, actions and deformations.

Coefficients are always strings ("3/7", "-1"), never floats; tensors are
stored as sparse quadruples (i, j, k, {l: coefficient}) with zero entries
omitted.  Serialization is canonical (sorted keys, two-space indent,
entries sorted by index, trailing newline), so parse followed by serialize
is byte-exact on canonical files.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .caps import DEFAULT_CAPS
from .linalg import LinAlgError, Matrix, field_from_spec, field_spec
from .lts import LieTripleSystem, StructureTensor
from .tensorops import value_vectors

# ASCII digits only: int() would also read full-width and other Unicode digits
_COEFF_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")
# an integer in the form str() writes, the one form of a coefficient index
_INDEX_RE = re.compile(r"0|-?[1-9][0-9]*")

SYSTEM_SCHEMA = "lts-system/1"
ACTION_SCHEMA = "lts-action/1"
DEFORMATION_SCHEMA = "lts-deformation/1"


class DocumentError(ValueError):
    """Malformed document content."""


def dump_document(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def load_document(text):
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer past Python's digit limit, deep nesting
        raise DocumentError("invalid JSON: %s" % exc) from exc
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    return doc


def _parse_coeff(sval, fld, where):
    """Coefficient strings are "p/q" or plain integers, nothing else; the
    captured integers go through the field, which reduces them."""
    m = _COEFF_RE.fullmatch(sval.strip())
    if m is None:
        raise DocumentError("%s: cannot parse coefficient %r (expected an "
                            "integer or p/q)" % (where, sval))
    num, den = m.groups()
    try:
        return fld(int(num) if den is None else Fraction(int(num), int(den)))
    except ValueError as exc:
        # GF(p) with q = 0 mod p, or an integer past Python's digit limit
        raise DocumentError("%s: cannot parse coefficient %r: %s"
                            % (where, sval, exc))


def _require(doc, key, types, what):
    if key not in doc:
        raise DocumentError("%s is missing %r" % (what, key))
    val = doc[key]
    # JSON true/false would pass as the ints 1/0
    if not isinstance(val, types) or isinstance(val, bool):
        raise DocumentError("%s field %r has the wrong type" % (what, key))
    return val


def _parse_quadruples(raw, dim, dim_out, fld, what):
    """The quadruples as a StructureTensor (dim, dim, dim) -> dim_out.  A
    coefficient index is read only in the form quadruples writes, str(l)."""
    if not isinstance(raw, list):
        raise DocumentError("%s must be an array of quadruples" % what)
    index = {str(l): l for l in range(dim_out)}
    entries = {}
    seen = set()
    for item in raw:
        if (not isinstance(item, list) or len(item) != 4
                or not all(isinstance(x, int) and not isinstance(x, bool)
                           for x in item[:3])):
            raise DocumentError("%s entries must be [i, j, k, {l: coeff}]" % what)
        i, j, k, cmap = item
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise DocumentError("%s: index (%d, %d, %d) out of range" % (what, i, j, k))
        if (i, j, k) in seen:
            raise DocumentError("%s: duplicate entry at (%d, %d, %d)" % (what, i, j, k))
        seen.add((i, j, k))
        where = "%s (%d, %d, %d)" % (what, i, j, k)
        if not isinstance(cmap, dict):
            raise DocumentError("%s: coefficient map must be an object" % where)
        base = ((i * dim + j) * dim + k) * dim_out
        for key, sval in cmap.items():
            l = index.get(key)
            if l is None:
                if not _INDEX_RE.fullmatch(key):
                    raise DocumentError("%s: bad coefficient index %r" % (where, key))
                raise DocumentError("%s: coefficient index %s out of range" % (where, key))
            if not isinstance(sval, str):
                raise DocumentError("%s: coefficients must be strings" % where)
            v = _parse_coeff(sval, fld, where)
            if v:
                entries[base + l] = v
    return StructureTensor((dim, dim, dim), dim_out, entries, fld)


def quadruples(tensor, fld):
    """[i_1, ..., i_k, {l: coefficient}] for every input tuple at which the
    sparse tensor is nonzero, in flat order: the one writer of tensors."""
    return [[*idx, {str(l): fld.format(v) for l, v in enumerate(vec) if v}]
            for idx, vec in value_vectors(tensor.entries, tensor.dims + (tensor.dim_out,))
            if any(vec)]


# ---------------------------------------------------------------------------
# systems


def system_to_document(system):
    return {
        "schema": SYSTEM_SCHEMA,
        "field": field_spec(system.field),
        "dim": system.dim,
        "basis": list(system.basis_names),
        "bracket": quadruples(system.mu, system.field),
    }


def system_from_document(doc, field_override=None, caps=DEFAULT_CAPS):
    """Parse a system document; axiom validation is the caller's concern.

    The dim^4 entries of the bracket's dense form are checked against the
    ambient cap before any quadruple is parsed.
    """
    if _require(doc, "schema", str, "system document") != SYSTEM_SCHEMA:
        raise DocumentError("expected schema %r" % SYSTEM_SCHEMA)
    spec = _require(doc, "field", str, "system document")
    try:
        fld = field_override or field_from_spec(spec)
    except LinAlgError as exc:
        raise DocumentError("system document field: %s" % exc) from None
    dim = _require(doc, "dim", int, "system document")
    if dim < 1:
        raise DocumentError("dim must be positive")
    basis = _require(doc, "basis", list, "system document")
    if len(basis) != dim or not all(isinstance(b, str) for b in basis):
        raise DocumentError("basis must list %d names" % dim)
    caps.check_ambient(dim ** 4, what="bracket tensor")
    mu = _parse_quadruples(_require(doc, "bracket", list, "system document"),
                           dim, dim, fld, "bracket")
    return LieTripleSystem(dim, tuple(basis), mu, fld)


# ---------------------------------------------------------------------------
# actions


def action_to_document(action, module_matrices=None):
    fld = action.system.field
    doc = {
        "schema": ACTION_SCHEMA,
        "elements": [
            {"label": lab, "matrix": [[fld.format(v) for v in row] for row in m.rows]}
            for lab, m in zip(action.labels, action.matrices)
        ],
    }
    if module_matrices is not None:
        doc["module"] = {
            "elements": [[[fld.format(v) for v in row] for row in m.rows]
                         for m in module_matrices],
        }
    return doc


def _parse_matrix(raw, fld, where):
    if (not isinstance(raw, list) or not raw
            or not all(isinstance(r, list) for r in raw)):
        raise DocumentError("%s: matrix must be an array of rows" % where)
    rows = []
    for r in raw:
        row = []
        for sval in r:
            if not isinstance(sval, str):
                raise DocumentError("%s: matrix entries must be strings" % where)
            row.append(_parse_coeff(sval, fld, where))
        rows.append(row)
    if any(len(r) != len(rows[0]) for r in rows):
        raise DocumentError("%s: ragged matrix" % where)
    return Matrix(rows, fld, copy=False)


def action_elements_from_document(doc, fld):
    """(label, matrix) pairs from an action document; validation is the
    group constructor's concern."""
    if _require(doc, "schema", str, "action document") != ACTION_SCHEMA:
        raise DocumentError("expected schema %r" % ACTION_SCHEMA)
    raw = _require(doc, "elements", list, "action document")
    out = []
    labels = set()
    for item in raw:
        if not isinstance(item, dict):
            raise DocumentError("action elements must be objects")
        lab = _require(item, "label", str, "action element")
        if lab in labels:
            raise DocumentError("duplicate element label %r" % lab)
        labels.add(lab)
        out.append((lab, _parse_matrix(_require(item, "matrix", list, "action element"),
                                       fld, "element %r" % lab)))
    if not out:
        raise DocumentError("action document lists no elements")
    return out


def module_matrices_from_document(doc, fld):
    """Optional coefficient-module matrices, aligned with the element list."""
    raw = doc.get("module")
    if raw is None:
        return None
    if not isinstance(raw, dict) or not isinstance(raw.get("elements"), list):
        raise DocumentError("module block must carry an elements array")
    return [_parse_matrix(mraw, fld, "module element %d" % i)
            for i, mraw in enumerate(raw["elements"])]


# ---------------------------------------------------------------------------
# deformations


def deformation_to_document(system_ref, action_ref, terms, fld):
    """Document for (order, tensor) terms mu_1, ..., mu_n (mu_0 is implied
    by the referenced system)."""
    doc = {
        "schema": DEFORMATION_SCHEMA,
        "system": system_ref,
        "terms": [{"order": order, "entries": quadruples(tensor, fld)}
                  for order, tensor in terms],
    }
    if action_ref is not None:
        doc["action"] = action_ref
    return doc


def deformation_from_document(doc):
    """(system_ref, action_ref, [(order, raw_entries), ...]); tensors are
    materialized once the referenced system fixes dim and field."""
    if _require(doc, "schema", str, "deformation document") != DEFORMATION_SCHEMA:
        raise DocumentError("expected schema %r" % DEFORMATION_SCHEMA)
    system_ref = _require(doc, "system", str, "deformation document")
    action_ref = doc.get("action")
    if action_ref is not None and not isinstance(action_ref, str):
        raise DocumentError("action reference must be a path string")
    raw_terms = _require(doc, "terms", list, "deformation document")
    out = []
    last = 0
    for item in raw_terms:
        if not isinstance(item, dict):
            raise DocumentError("terms must be objects")
        order = _require(item, "order", int, "deformation term")
        if order <= last:
            raise DocumentError("term orders must be strictly increasing from 1")
        last = order
        out.append((order, _require(item, "entries", list, "deformation term")))
    return system_ref, action_ref, out


def deformation_terms(raw_terms, dim, fld, caps=DEFAULT_CAPS):
    """Materialize (order, raw_entries) pairs into order-indexed tensors; the
    (top + 1) * dim^4 entries of the dense series mu_0..mu_top are checked
    against the ambient cap first."""
    top = max((order for order, _ in raw_terms), default=0)
    caps.check_ambient((top + 1) * dim ** 4, what="deformation series")
    by_order = {}
    for order, raw in raw_terms:
        by_order[order] = _parse_quadruples(raw, dim, dim, fld, "term %d" % order)
    zero = StructureTensor.zero((dim, dim, dim), dim, fld)
    return [by_order.get(i, zero) for i in range(1, top + 1)]
