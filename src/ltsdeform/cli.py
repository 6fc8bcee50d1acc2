"""Command-line front end.

Commands: verify, cohomology, deform-check, deform-obstruct, deform-extend,
deform-equiv, deform-trivialize, rigidity.  Exit codes are a stable
contract: 0 success, 1 mathematical failure (axiom violation, obstructed
extension, inequivalence, inconclusive rigidity), 2 parse or usage errors,
3 size caps exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .caps import Caps, CapExceeded
from .cohomology import cohomology
from .deformation import (DeformationError, check_deformation_equations, check_equivalence,
                          extend, make_deformation, obstruction, pad_deformation,
                          rigidity_certificate, trivialize)
from .documents import (DocumentError, action_elements_from_document,
                        deformation_from_document, deformation_terms,
                        deformation_to_document, dump_document, load_document,
                        module_matrices_from_document, quadruples, system_from_document)
from .groups import GroupActionError, make_group_action, make_module_action, trivial_action
from .linalg import LinAlgError, field_from_spec
from .lts import BuildError, self_module, verify_lts, verify_module


class UsageError(ValueError):
    pass


def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError("cannot read %s: %s" % (path, exc))


def _write(path, text):
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise DocumentError("cannot write %s: %s" % (path, exc))


def _load_system(path, field_override, caps):
    doc = load_document(_read(path))
    return system_from_document(doc, field_override, caps)


def _checked_system(path, field_override, caps):
    system = _load_system(path, field_override, caps)
    report = verify_lts(system.mu)
    if not report.passed:
        v = report.violations[0]
        raise DeformationError("system %s fails the %s axiom at %r" %
                               (path, v.axiom, v.witness))
    return system


def _load_action(path, system, caps):
    doc = load_document(_read(path))
    elements = action_elements_from_document(doc, system.field)
    action = make_group_action(system, elements, caps)
    module_mats = module_matrices_from_document(doc, system.field)
    module_action = None
    if module_mats is not None:
        module_action = make_module_action(action, self_module(system), module_mats)
    return action, module_action


def _load_deformation(path, field_override, caps):
    doc = load_document(_read(path))
    system_ref, action_ref, raw_terms = deformation_from_document(doc)
    base = Path(path).parent
    system_path = str(base / system_ref)
    system = _checked_system(system_path, field_override, caps)
    if action_ref is None:
        action = trivial_action(system)
        action_path = None
    else:
        action_path = str(base / action_ref)
        action, _ = _load_action(action_path, system, caps)
    terms = deformation_terms(raw_terms, system.dim, system.field, caps)
    defo = make_deformation(system, action, [system.mu] + terms)
    return defo, system_ref, action_ref


def _violations_json(report, fld):
    return [{"axiom": v.axiom, "witness": list(v.witness),
             "residual": [fld.format(x) for x in v.residual]}
            for v in report.violations]


def _cochain_entries(c, fld):
    return [[q[:-1], q[-1]] for q in quadruples(c, fld)]


def _emit(args, report, human_lines):
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in human_lines:
            print(line)


def _caps(args):
    try:
        return Caps.from_env(max_degree=args.max_degree, max_ambient=args.max_ambient,
                             max_group=args.max_group)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _field_override(args):
    if not args.field:
        return None
    try:
        return field_from_spec(args.field)
    except LinAlgError as exc:
        raise UsageError("--field: %s" % exc) from None


# ---------------------------------------------------------------------------
# commands


def cmd_verify(args):
    caps = _caps(args)
    system = _load_system(args.system, _field_override(args), caps)
    fld = system.field
    lts_report = verify_lts(system.mu, all_witnesses=args.all_witnesses)
    module_report = verify_module(self_module(system), all_witnesses=args.all_witnesses)
    report = {
        "system": {
            "path": args.system,
            "dim": system.dim,
            "field": args.field or "document",
            "lts": {"passed": lts_report.passed,
                    "violations": _violations_json(lts_report, fld)},
            "self_module": {"passed": module_report.passed,
                            "violations": _violations_json(module_report, fld)},
        },
    }
    lines = ["system %s: dim %d" % (args.system, system.dim),
             "  lts axioms: %s" % ("ok" if lts_report.passed else "FAILED")]
    for v in lts_report.violations:
        lines.append("    %s at %r residual %s"
                     % (v.axiom, v.witness, [fld.format(x) for x in v.residual]))
    lines.append("  self-module axioms: %s"
                 % ("ok" if module_report.passed else "FAILED"))
    for v in module_report.violations:
        lines.append("    %s at %r" % (v.axiom, v.witness))
    passed = lts_report.passed and module_report.passed

    if args.action:
        try:
            action, module_action = _load_action(args.action, system, caps)
            report["action"] = {"path": args.action, "passed": True,
                                "size": action.size,
                                "labels": list(action.labels)}
            lines.append("action %s: ok (order %d group)" % (args.action, action.size))
            if module_action is not None:
                # make_module_action raises unless all three are equivariant
                report["action"]["module_verified"] = ["left", "right", "middle"]
                lines.append("  module action: ok (left, right, middle equivariant)")
        except GroupActionError as exc:
            report["action"] = {"path": args.action, "passed": False,
                                "error": str(exc)}
            lines.append("action %s: FAILED (%s)" % (args.action, exc))
            passed = False

    report["passed"] = passed
    _emit(args, report, lines + ["verdict: %s" % ("pass" if passed else "fail")])
    return 0 if passed else 1


def cmd_cohomology(args):
    caps = _caps(args)
    if args.degree < 1 or args.degree % 2 == 0:
        raise UsageError("the cochain complex has odd degrees only; got %d" % args.degree)
    system = _checked_system(args.system, _field_override(args), caps)
    module = self_module(system)
    action = None
    module_action = None
    if args.equivariant:
        action, module_action = _load_action(args.equivariant, system, caps)
    rep = cohomology(module, args.degree, action, module_action, caps,
                     want_representatives=args.representatives)
    fld = system.field
    report = {
        "degree": rep.degree,
        "equivariant": rep.equivariant,
        "dim_space": rep.dim_space,
        "dim_cocycles": rep.dim_cocycles,
        "dim_coboundaries": rep.dim_coboundaries,
        "dim_h": rep.dim_h,
    }
    label = "C_G" if rep.equivariant else "C"
    lines = ["dim %s^%d = %d" % (label, rep.degree, rep.dim_space),
             "dim Z = %d" % rep.dim_cocycles,
             "dim B = %d" % rep.dim_coboundaries,
             "dim H = %d" % rep.dim_h]
    if args.representatives:
        report["representatives"] = [_cochain_entries(c, fld) for c in rep.representatives]
        for i, c in enumerate(rep.representatives):
            lines.append("representative %d: %s" % (i, _cochain_entries(c, fld)))
    _emit(args, report, lines)
    return 0


def cmd_deform_check(args):
    caps = _caps(args)
    defo, _, _ = _load_deformation(args.deformation, _field_override(args), caps)
    if args.order is not None:
        if args.order < defo.order:
            raise UsageError("--order %d is below the document's top term %d"
                             % (args.order, defo.order))
        defo = pad_deformation(defo, args.order)
    rep = check_deformation_equations(defo)
    fld = defo.system.field
    report = {
        "order": defo.order,
        "passed": rep.passed,
        "orders": [{"order": c.order, "passed": c.passed,
                    "witness": list(c.witness) if c.witness else None,
                    "residual": [fld.format(x) for x in c.residual] if c.residual else None}
                   for c in rep.orders],
    }
    lines = ["deformation order %d" % defo.order]
    for c in rep.orders:
        if c.passed:
            lines.append("  order %d: ok" % c.order)
        else:
            lines.append("  order %d: FAILED at %r residual %s"
                         % (c.order, c.witness, [fld.format(x) for x in c.residual]))
    lines.append("verdict: %s" % ("pass" if rep.passed else "fail"))
    _emit(args, report, lines)
    return 0 if rep.passed else 1


def _check_cap(args):
    if args.cap is not None and args.cap < 0:
        raise UsageError("--cap must be a non-negative order; got %d" % args.cap)


def cmd_deform_obstruct(args):
    caps = _caps(args)
    defo, _, _ = _load_deformation(args.deformation, _field_override(args), caps)
    ob = obstruction(defo, caps)
    fld = defo.system.field
    report = {
        "order": defo.order,
        "obstruction": _cochain_entries(ob.cochain, fld),
        "is_zero": ob.cochain.is_zero(),
        "is_cocycle": ob.is_cocycle,
        "is_coboundary": ob.preimage is not None,
        "preimage": _cochain_entries(ob.preimage, fld) if ob.preimage else None,
    }
    lines = ["obstruction for extending order %d -> %d" % (defo.order, defo.order + 1),
             "  cochain: %s" % ("0" if ob.cochain.is_zero()
                                else _cochain_entries(ob.cochain, fld)),
             "  5-cocycle: %s" % ("unverified (caps)" if ob.is_cocycle is None
                                  else ob.is_cocycle),
             "  coboundary (extendable): %s" % (ob.preimage is not None)]
    _emit(args, report, lines)
    return 0


def cmd_deform_extend(args):
    caps = _caps(args)
    defo, system_ref, action_ref = _load_deformation(args.deformation,
                                                     _field_override(args), caps)
    extended = extend(defo, caps)
    if extended is None:
        _emit(args, {"extended": False,
                     "reason": "obstruction class is nonzero"},
              ["not extendable: obstruction class is nonzero"])
        return 1
    doc = deformation_to_document(system_ref, action_ref,
                                  [(i, extended.terms[i]) for i in range(1, extended.order + 1)],
                                  defo.system.field)
    text = dump_document(doc)
    if args.output:
        _write(args.output, text)
        _emit(args, {"extended": True, "order": extended.order, "output": args.output},
              ["extended to order %d -> %s" % (extended.order, args.output)])
    else:
        sys.stdout.write(text)
    return 0


def cmd_deform_equiv(args):
    caps = _caps(args)
    _check_cap(args)
    fo = _field_override(args)
    defo_a, _, _ = _load_deformation(args.deformation_a, fo, caps)
    defo_b, _, _ = _load_deformation(args.deformation_b, fo, caps)
    cap = args.cap if args.cap is not None else max(defo_a.order, defo_b.order)
    res = check_equivalence(defo_a, defo_b, cap, caps)
    fld = defo_a.system.field
    if res.equivalent:
        report = {
            "equivalent": True,
            "cap": cap,
            "isomorphism": [{"order": i,
                             "matrix": [[fld.format(v) for v in row] for row in m.rows]}
                            for i, m in enumerate(res.isomorphism.terms)],
        }
        lines = ["equivalent through order %d" % cap]
        for i, m in enumerate(res.isomorphism.terms):
            lines.append("  psi_%d = %s" % (i, [[fld.format(v) for v in row]
                                                for row in m.rows]))
        _emit(args, report, lines)
        return 0
    report = {
        "equivalent": False,
        "cap": cap,
        "obstructed_order": res.obstructed_order,
        "witness": _cochain_entries(res.witness, fld),
        "plain_solvable": res.plain_solvable,
    }
    lines = ["not equivalent: obstructed at order %d" % res.obstructed_order,
             "  the difference cochain has a nonzero equivariant cohomology class",
             "  solvable ignoring equivariance: %s" % res.plain_solvable]
    _emit(args, report, lines)
    return 1


def cmd_deform_trivialize(args):
    caps = _caps(args)
    _check_cap(args)
    defo, system_ref, action_ref = _load_deformation(args.deformation,
                                                     _field_override(args), caps)
    cap = args.cap if args.cap is not None else defo.order
    reduced, log = trivialize(defo, cap, caps)
    fld = defo.system.field
    doc = deformation_to_document(system_ref, action_ref,
                                  [(i, reduced.terms[i]) for i in range(1, reduced.order + 1)],
                                  fld)
    report = {"cap": cap, "log": log, "trivial": log[-1]["status"] == "trivial",
              "reduced": doc}
    lines = ["gauge reduction through order %d" % cap]
    for step in log:
        lines.append("  %s: %s" % (step["status"], step["detail"]))
    if args.output:
        _write(args.output, dump_document(doc))
        lines.append("reduced document -> %s" % args.output)
    _emit(args, report, lines)
    return 0


def cmd_rigidity(args):
    caps = _caps(args)
    system = _checked_system(args.system, _field_override(args), caps)
    if args.equivariant:
        action, _ = _load_action(args.equivariant, system, caps)
    else:
        action = trivial_action(system)
    rep = rigidity_certificate(system, action, caps)
    report = {"dim_h3_equivariant": rep.dim_h3_equivariant, "rigid": rep.rigid,
              "conclusion": rep.conclusion}
    _emit(args, report, ["dim H^3_G = %d" % rep.dim_h3_equivariant, rep.conclusion])
    return 0 if rep.rigid else 1


# ---------------------------------------------------------------------------
# parser


def _add_common(p):
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--field", help="override the document field: rational or gf:<p>")
    p.add_argument("--max-degree", type=int, help="cochain degree cap (default 7)")
    p.add_argument("--max-ambient", type=int, help="ambient entry cap (default 10^7)")
    p.add_argument("--max-group", type=int, help="group order cap (default 64)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ltsdeform",
        description="Exact computations with Lie triple systems: axiom checking, "
                    "equivariant Yamaguti cohomology, and formal deformations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="validate a system (and optionally an action)")
    p.add_argument("system")
    p.add_argument("action", nargs="?", default=None)
    p.add_argument("--all-witnesses", action="store_true",
                   help="list every violation instead of the first per axiom")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cohomology", help="cochain space and cohomology dimensions")
    p.add_argument("system")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--equivariant", metavar="ACTION",
                   help="restrict to the invariant subcomplex of this action")
    p.add_argument("--representatives", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("deform-check", help="check the order-r deformation equations")
    p.add_argument("deformation")
    p.add_argument("--order", type=int, help="zero-pad and check through this order")
    _add_common(p)
    p.set_defaults(func=cmd_deform_check)

    p = sub.add_parser("deform-obstruct", help="obstruction cochain and its class")
    p.add_argument("deformation")
    _add_common(p)
    p.set_defaults(func=cmd_deform_obstruct)

    p = sub.add_parser("deform-extend", help="extend one order when unobstructed")
    p.add_argument("deformation")
    p.add_argument("-o", "--output", help="write the extended document here")
    _add_common(p)
    p.set_defaults(func=cmd_deform_extend)

    p = sub.add_parser("deform-equiv", help="search for an equivariant formal isomorphism")
    p.add_argument("deformation_a")
    p.add_argument("deformation_b")
    p.add_argument("--cap", type=int, help="truncation order (default: max term order)")
    _add_common(p)
    p.set_defaults(func=cmd_deform_equiv)

    p = sub.add_parser("deform-trivialize", help="strip coboundary infinitesimals")
    p.add_argument("deformation")
    p.add_argument("--cap", type=int, help="truncation order (default: term order)")
    p.add_argument("-o", "--output", help="write the reduced document here")
    _add_common(p)
    p.set_defaults(func=cmd_deform_trivialize)

    p = sub.add_parser("rigidity", help="sufficient rigidity certificate via H^3_G")
    p.add_argument("system")
    p.add_argument("--equivariant", metavar="ACTION",
                   help="action file (default: the trivial group)")
    _add_common(p)
    p.set_defaults(func=cmd_rigidity)
    return parser


@functools.cache
def _parser():
    # built once per process: in-process callers run main many times
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        code = 2
    except DocumentError as exc:
        print("document error: %s" % exc, file=sys.stderr)
        code = 2
    except CapExceeded as exc:
        print("cap exceeded: %s" % exc, file=sys.stderr)
        code = 3
    except (GroupActionError, DeformationError, BuildError, LinAlgError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        code = 1
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
