"""The three workloads: seeded job lists and their answer checks.

A workload is a list of rounds; every round holds the same kinds of job,
so cutting a run at a round boundary keeps the job mix fixed.  Rounds
differ only in their seeded inputs.  A job is a zero-argument callable
returning a hashable answer plus a check of that answer against values
reached without the code being measured (see expected.py).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from . import expected, gen

GF_PRIME = 10007
ROUNDS = 4


@dataclass
class Job:
    name: str
    field: str          # "qq" or "gf", for splitting per-layer times
    run: Callable       # () -> answer
    check: Callable     # answer -> bool


class Library:
    """The modules of the program under test, looked up at call time so
    that wrappers installed by the tracer are seen."""

    def __init__(self):
        # importlib, not attribute access: the package re-exports the
        # function cohomology under the name of its module
        for name in ("cli", "cohomology", "deformation", "groups", "linalg", "lts"):
            setattr(self, name, importlib.import_module("ltsdeform." + name))
        self.fields = {"qq": self.linalg.QQ,
                       "gf": self.linalg.PrimeField(GF_PRIME)}

    def system(self, tensor, fld):
        d = len(tensor)
        mu = self.lts.StructureTensor.build(tensor, (d, d, d), d, fld)
        return self.lts.make_system(["x%d" % i for i in range(d)], mu, fld, check=False)

    def action(self, system, elements, fld):
        mats = [("g%d" % n, self.linalg.Matrix([[fld(v) for v in r] for r in m], fld))
                for n, m in enumerate(elements)]
        return self.groups.make_group_action(system, mats)


def _dims(rep):
    return (rep.dim_space, rep.dim_cocycles, rep.dim_coboundaries, rep.dim_h)


# ---------------------------------------------------------------------------
# scan-plain


def _plain_job(lib, label, tensor, degree, field):
    fld = lib.fields[field]
    want = expected.plain_dims(label, len(tensor), degree)

    def run():
        system = lib.system(tensor, fld)
        rep = lib.cohomology.cohomology(lib.lts.self_module(system), degree,
                                        want_representatives=False)
        return _dims(rep)

    return Job("%s/H%d/%s" % (label, degree, field), field, run, lambda a: a == want)


def _changed(label, rng):
    t = gen.system_tensor(label)
    d = len(t)
    p, pinv = gen.unimodular(d, rng)
    return gen.change_basis(t, p, pinv)


def scan_plain(lib, rng, workdir, smoke=False):
    """H^3 (and H^5 at d = 2) of seeded basis changes of every standard system."""
    heavy = ["meson4", "matrix2", "rect22", "abelian4"]
    medium = ["meson3", "skew3", "sym2", "sl2", "abelian3"]
    light = ["meson2", "abelian2"]
    copies = 1 if smoke else 2
    rounds = []
    for r in range(1 if smoke else ROUNDS):
        specs = []
        if not smoke:
            specs.append((heavy[r % len(heavy)], 3))
        for _ in range(copies):
            specs.extend((label, 3) for label in medium)
            specs.extend((label, k) for label in light for k in (3, 5))
        jobs = []
        for label, degree in specs:
            t = _changed(label, rng)
            jobs.extend(_plain_job(lib, label, t, degree, f) for f in ("qq", "gf"))
        rounds.append(jobs)
    return rounds


# ---------------------------------------------------------------------------
# scan-equivariant


def _equiv_job(lib, label, tensor, template, elements, degree, field):
    fld = lib.fields[field]
    want = expected.EQUIVARIANT[label, template, degree]

    def run():
        system = lib.system(tensor, fld)
        action = lib.action(system, elements, fld)
        rep = lib.cohomology.cohomology(lib.lts.self_module(system), degree, action,
                                        want_representatives=False)
        return _dims(rep)

    return Job("%s/%s/H%d/%s" % (label, template, degree, field), field, run,
               lambda a: a == want)


EQUIVARIANT_SPECS = [  # (system, template, degree); templates in expected.py
    ("meson4", "D4", 3),
    ("meson3", "B3", 3),
    ("meson3", "rot24", 3),
    ("meson3", "S3xC2", 3),
    ("meson3", "D4", 3),
    ("meson3", "V4", 3),
    ("meson2", "B2", 3), ("meson2", "B2", 5),
    ("meson2", "C4", 3), ("meson2", "C4", 5),
    ("meson2", "V4", 3), ("meson2", "V4", 5),
    ("meson2", "swap", 3), ("meson2", "swap", 5),
    ("skew3", "sign", 3),
    ("rect22", "transpose", 3),
]

SMOKE_EQUIVARIANT = [("meson3", "D4", 3), ("meson2", "B2", 5), ("skew3", "sign", 3)]


def scan_equivariant(lib, rng, workdir, smoke=False):
    """Invariant-complex H^3 / H^5 under signed-permutation subgroups
    (conjugated by a seeded signed permutation) and the bundled actions."""
    specs = SMOKE_EQUIVARIANT if smoke else EQUIVARIANT_SPECS
    rounds = []
    for _ in range(1 if smoke else ROUNDS):
        jobs = []
        for label, template, degree in specs:
            t = gen.system_tensor(label)
            elements = expected.template_elements(label, template)
            if label.startswith("meson"):
                # signed permutations are automorphisms of every meson system
                h = gen.random_signed_perm(len(t), rng)
                elements = gen.conjugate_group(elements, h)
            rng.shuffle(elements)
            jobs.extend(_equiv_job(lib, label, t, template, elements, degree, f)
                        for f in ("qq", "gf"))
        rounds.append(jobs)
    return rounds


# ---------------------------------------------------------------------------
# deform-cli


def _cli_job(lib, name, argv, check):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = lib.cli.main(argv + ["--json"])
        return code, out.getvalue()

    return Job(name, "qq", run, check)


def _json_check(code, pred):
    def check(answer):
        got, text = answer
        if got != code:
            return False
        try:
            return bool(pred(json.loads(text)))
        except (ValueError, KeyError, TypeError, IndexError):
            return False
    return check


def _extend_check(terms, order, system_ref, action_ref):
    """deform-extend prints the extended document; its new term must solve
    the next order equation, checked here in integer arithmetic."""
    def check(answer):
        code, text = answer
        if code != 0:
            return False
        try:
            doc = json.loads(text)
            new = doc["terms"]
            if (doc["system"] != system_ref or doc.get("action") != action_ref
                    or len(new) != order + 1 or new[-1]["order"] != order + 1):
                return False
            top = gen.tensor_from_quadruples(new[-1]["entries"], len(terms[0]))
        except (ValueError, KeyError, TypeError, IndexError):
            return False
        return gen.order_equation_holds(terms + [top], order + 1)
    return check


DEFORM_SPECS = [  # (system, action, order): gauge-trivial deformations
    ("meson3", "sign", 8),
    ("skew3", "sign", 6),
    ("meson4", "trivial", 4),
]

NU_SPECS = [  # (abelian system, action, bracket nu, padded order): t * nu
    ("abelian3", "sign", "meson3", 4),
    ("abelian4", "trivial", "meson4", 2),
]


def _gauge_trivial(label, order, rng):
    mu0 = gen.system_tensor(label)
    # a fixed multiset of signs in seeded order: every coordinate
    # permutation, with suitable signs, is an automorphism of these
    # systems, so the cost does not depend on the seed
    d = len(mu0)
    signs = [1] * (d - d // 2) + [-1] * (d // 2)
    rng.shuffle(signs)
    psi = [[signs[i] if i == j else 0 for j in range(d)] for i in range(d)]
    return mu0, gen.gauge_trivial_terms(mu0, psi, order)


def _t_nu(label, nu_label, order, rng):
    nu = _changed(nu_label, rng)
    return gen.system_tensor(label), [nu] + [gen.zero_tensor(len(nu))] * (order - 1)


def deform_cli(lib, rng, workdir, smoke=False):
    """CLI commands on documents written to workdir."""
    deform_specs = [("meson3", "sign", 4)] if smoke else DEFORM_SPECS
    nu_specs = NU_SPECS[:1] if smoke else NU_SPECS
    rounds = []
    for r in range(1 if smoke else ROUNDS):
        cases = [(label, action, order, True) + _gauge_trivial(label, order, rng)
                 for label, action, order in deform_specs]
        cases += [(label, action, order, False) + _t_nu(label, nu_label, order, rng)
                  for label, action, nu_label, order in nu_specs]
        jobs = []
        for label, action, order, trivial, mu0, terms in cases:
            d = len(mu0)
            elements = [gen.identity(d)]
            if action == "sign":
                elements.append([[-v for v in row] for row in gen.identity(d)])
            names = ["r%d_%s%s.json" % (r, label, suffix)
                     for suffix in ("", "_" + action, "_t%d" % order, "_t0")]
            sys_ref, act_ref, defo_ref, triv_ref = names
            for name, doc in ((sys_ref, gen.system_doc(mu0)),
                              (act_ref, gen.action_doc(elements)),
                              (defo_ref, gen.deformation_doc(sys_ref, act_ref, terms)),
                              (triv_ref, gen.deformation_doc(sys_ref, act_ref, []))):
                with open(os.path.join(workdir, name), "w") as fh:
                    fh.write(gen.dump(doc))
            sys_path, act_path, defo, triv = (os.path.join(workdir, n) for n in names)
            tag = "%s/%s/order%d" % (label, action, order)
            size = len(elements)
            jobs.append(_cli_job(lib, "verify " + tag, ["verify", sys_path, act_path],
                                 _json_check(0, lambda j, n=size: j["passed"]
                                             and j["action"]["size"] == n)))
            jobs.append(_cli_job(lib, "deform-check " + tag, ["deform-check", defo],
                                 _json_check(0, lambda j, o=order: j["passed"]
                                             and j["order"] == o)))
            if trivial:
                equiv = _json_check(0, lambda j, o=order: j["equivalent"] and j["cap"] == o)
                reduce = _json_check(0, lambda j: j["trivial"])
            else:   # t * nu: a nonzero class already at order 1
                equiv = _json_check(1, lambda j: not j["equivalent"]
                                    and j["obstructed_order"] == 1)
                reduce = _json_check(0, lambda j: not j["trivial"]
                                     and j["log"][-1]["status"] == "reduced"
                                     and j["log"][-1]["order"] == 1)
            jobs.append(_cli_job(lib, "deform-equiv " + tag, ["deform-equiv", defo, triv],
                                 equiv))
            jobs.append(_cli_job(lib, "deform-trivialize " + tag,
                                 ["deform-trivialize", defo], reduce))
            if d == 3:
                jobs.append(_cli_job(lib, "deform-extend " + tag, ["deform-extend", defo],
                                     _extend_check([mu0] + terms, order, sys_ref, act_ref)))
        rounds.append(jobs)
    return rounds


WORKLOADS = {
    "scan-plain": scan_plain,
    "scan-equivariant": scan_equivariant,
    "deform-cli": deform_cli,
}


def build(name, lib, seed, workdir, smoke=False):
    """The round list of a workload; documents, if any, go to workdir."""
    return WORKLOADS[name](lib, random.Random("%s:%d" % (name, seed)), workdir, smoke)
