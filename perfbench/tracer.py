"""Per-layer spans recorded from outside the program.

The tracer replaces public functions of the library with timing wrappers
in every module namespace that binds them (``deformation`` imports
``coboundary_matrix``, ``cohomology`` imports ``rref_rows`` and
``apply_group_sparse``, the package re-exports most of them), and patches
``RrefAccumulator.add`` and ``CochainBasis.express`` on their classes.
Nothing under ``src/`` is edited.  Spans (layer, parent span, field,
start, end) stay in memory as compact arrays and are written out when the
run ends.

A layer's self time is its spans' durations minus the time covered by
their child spans.  Counts are read from arguments and return values.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from collections import defaultdict


def _matrix_counts(args, kwargs, result):
    nnz = sum(1 for row in result.rows for v in row if v)
    return (("cohomology.matrix_nnz", nnz),
            ("cohomology.matrix_cells", result.nrows * result.ncols))


def _basis_counts(args, kwargs, result):
    return (("cohomology.basis_cols", len(result)),)


def _add_counts(args, kwargs, result):
    return (("linalg.rref_rows", 1), ("linalg.rank_sum", 1 if result else 0))


def _bytes_in(args, kwargs, result):
    return (("documents.bytes_in", len(args[0].encode())),)


# (module, function or Class.method, layer, counts from (args, kwargs, result))
SPECS = [
    ("cohomology", "apply_coboundary", "cohomology.apply", None),
    ("cohomology", "CochainBasis.express", "cohomology.express", None),
    ("cohomology", "coboundary_matrix", "cohomology.matrix", _matrix_counts),
    ("cohomology", "cochain_space_basis", "cohomology.basis", _basis_counts),
    ("cohomology", "cohomology", "cohomology.cohomology", None),
    # not called at the seed commit; wrapped so that a later change routing
    # the command line through them is measured by the same benchmark
    ("cohomology", "is_coboundary", "cohomology.cohomology", None),
    ("cohomology", "is_cocycle", "cohomology.cohomology", None),
    ("groups", "apply_group_sparse", "groups.transform", None),
    ("groups", "apply_group_dense", "groups.transform", None),
    ("groups", "make_group_action", "groups.validate", None),
    ("groups", "make_module_action", "groups.validate", None),
    ("linalg", "rref_rows", "linalg.rref", None),
    ("linalg", "RrefAccumulator.add", "linalg.rref", _add_counts),
    ("linalg", "solve", "linalg.solve", None),
    ("deformation", "check_deformation_equations", "deformation.order_eqs", None),
    ("deformation", "apply_isomorphism", "deformation.gauge", None),
    ("deformation", "check_equivalence", "deformation.equiv", None),
    ("deformation", "trivialize", "deformation.trivialize", None),
    ("deformation", "obstruction", "deformation.obstruction", None),
    ("deformation", "extend", "deformation.obstruction", None),
    ("deformation", "make_deformation", "deformation.validate", None),
    ("deformation", "make_formal_isomorphism", "deformation.validate", None),
    ("documents", "load_document", "documents.parse", _bytes_in),
    ("documents", "system_from_document", "documents.parse", None),
    ("documents", "action_elements_from_document", "documents.parse", None),
    ("documents", "module_matrices_from_document", "documents.parse", None),
    ("documents", "deformation_from_document", "documents.parse", None),
    ("documents", "deformation_terms", "documents.parse", None),
    ("documents", "dump_document", "documents.dump", None),
    ("lts", "verify_lts", "lts.verify", None),
    ("lts", "verify_module", "lts.verify", None),
    ("cli", "main", "cli.self", None),
]

PACKAGE = "ltsdeform"
JOB = "bench.job"   # root span of every job: benchmark code and unwrapped calls


class Tracer:
    def __init__(self):
        self.layers = [JOB]
        self.layer_ids = {JOB: 0}
        self.tags = []
        self.tag = 0
        # one entry per span: layer id, parent span, field tag, start, end
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_tag = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.self_time = defaultdict(float)     # (layer, tag) -> seconds
        self.calls = defaultdict(int)           # layer -> calls
        self.counts = defaultdict(int)          # counter -> amount
        self.patches = []
        self.origin = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def _enter(self, layer_id):
        idx = len(self.span_start)
        self.span_layer.append(layer_id)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_tag.append(self.tag)
        start = time.perf_counter()
        self.span_start.append(start)
        self.span_end.append(start)
        frame = [idx, start, 0.0]
        self.stack.append(frame)
        return frame

    def _exit(self, frame, layer_id):
        end = time.perf_counter()
        self.stack.pop()
        idx, start, child = frame
        self.span_end[idx] = end
        dur = end - start
        self.self_time[layer_id, self.tag] += dur - child
        self.calls[layer_id] += 1
        if self.stack:
            self.stack[-1][2] += dur

    def run_job(self, fn, tag):
        """Run one job under a root span; tag names the field (qq / gf)."""
        if tag not in self.tags:
            self.tags.append(tag)
        self.tag = self.tags.index(tag)
        frame = self._enter(0)
        try:
            return fn()
        finally:
            self._exit(frame, 0)

    def _wrap(self, orig, layer, counter):
        layer_id = self.layer_ids.setdefault(layer, len(self.layers))
        if layer_id == len(self.layers):
            self.layers.append(layer)
        enter, leave, counts = self._enter, self._exit, self.counts

        def wrapper(*args, **kwargs):
            frame = enter(layer_id)
            try:
                result = orig(*args, **kwargs)
            finally:
                leave(frame, layer_id)
            if counter is not None:
                for key, amount in counter(args, kwargs, result):
                    counts[key] += amount
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for modname, attr, layer, counter in SPECS:
            home = sys.modules["%s.%s" % (PACKAGE, modname)]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(orig, layer, counter))
                self.patches.append((cls, meth, orig))
                continue
            orig = getattr(home, attr)
            wrapper = self._wrap(orig, layer, counter)
            for mod in modules:
                for name, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, name, wrapper)
                        self.patches.append((mod, name, orig))

    def uninstall(self):
        while self.patches:
            owner, name, orig = self.patches.pop()
            setattr(owner, name, orig)

    # -- results -----------------------------------------------------------

    def layer_self_time(self, layer, tag=None):
        lid = self.layer_ids.get(layer)
        if lid is None:
            return 0.0
        if tag is None:
            return sum(t for (l, _), t in self.self_time.items() if l == lid)
        if tag not in self.tags:
            return 0.0
        return self.self_time.get((lid, self.tags.index(tag)), 0.0)

    def layer_calls(self, layer):
        lid = self.layer_ids.get(layer)
        return 0 if lid is None else self.calls[lid]

    @property
    def span_count(self):
        return len(self.span_start)

    def write_spans(self, directory):
        """One native-endian binary file per span column plus index.json,
        which names the layers and field tags the columns refer to."""
        os.makedirs(directory, exist_ok=True)
        columns = {"layer": self.span_layer, "parent": self.span_parent,
                   "field": self.span_tag, "start": self.span_start,
                   "end": self.span_end}
        index = {"spans": self.span_count, "layers": self.layers, "fields": self.tags,
                 "origin": self.origin,
                 "columns": {name: arr.typecode for name, arr in columns.items()}}
        with open(os.path.join(directory, "index.json"), "w") as fh:
            json.dump(index, fh, indent=1)
        for name, arr in columns.items():
            with open(os.path.join(directory, name + ".bin"), "wb") as fh:
                arr.tofile(fh)
