"""Seeded mutations of the bundled documents through every command: each
run must end with an exit code of the contract (0, 1, 2 or 3), and no
exception may escape cli.main."""

import copy
import json
import random

import pytest

from ltsdeform import bundled_path
from ltsdeform.cli import main

NAMES = sorted(p.name for p in bundled_path("").iterdir() if p.name.endswith(".json"))
TEXTS = {name: bundled_path(name).read_text() for name in NAMES}
ACTION_SYSTEM = {"meson2_swap.json": "meson2.json", "rect22_transpose.json": "rect22.json",
                 "skew3_sign.json": "skew3.json"}
DEFORMATIONS = ["meson2_swap_t2.json", "meson2_swap_trivial.json"]
JUNK = [None, True, False, 0, -1, 1, 2, 3, 10 ** 6, -(10 ** 9), 1.5, "", "x", "0", "1",
        "-1", "1/0", "-3/2", "1e400", "gf:4", "rational", "lts-system/1",
        "lts-action/1", [], {}, [[]], [0, 1], [0, 0, 0, {"0": "1"}], {"0": "1"}]
# caps small enough that no mutated document can run for long
CAPS = ["--max-ambient", "5000", "--max-group", "16"]
MUTATIONS = 100


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, path + (i,))


def _mutate(doc, rng):
    """One random edit at a random place: a value of the same kind (another
    coefficient string, index or order), a junk value, a deletion, a
    duplicate, or an added junk entry."""
    paths = list(_paths(doc))[1:]
    if not paths:
        return rng.choice(JUNK)
    path = rng.choice(paths)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    op = rng.randrange(5)
    if op == 4 and isinstance(parent[key], str):
        parent[key] = rng.choice(["0", "1", "-1", "2", "1/2", "-3"])
    elif op == 4 and isinstance(parent[key], int) and not isinstance(parent[key], bool):
        parent[key] = rng.randrange(-1, 5)
    elif op in (0, 4):
        parent[key] = copy.deepcopy(rng.choice(JUNK))
    elif op == 1:
        del parent[key]
    elif op == 2 and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    elif isinstance(parent, dict):
        parent[rng.choice(["extra", "schema", "dim", "field", "terms", "module"])] = \
            copy.deepcopy(rng.choice(JUNK))
    else:
        parent.append(copy.deepcopy(rng.choice(JUNK)))
    return doc


def _mutated_text(name, rng):
    text = TEXTS[name]
    if rng.random() < 0.1:
        return text[:rng.randrange(len(text))]
    doc = json.loads(text)
    for _ in range(rng.randint(1, 3)):
        doc = _mutate(doc, rng)
    return json.dumps(doc)


def _commands(name, tmp):
    path = str(tmp / name)
    schema = json.loads(TEXTS[name])["schema"]
    if schema == "lts-system/1":
        cmds = [["verify", path], ["cohomology", path, "--degree", "3"], ["rigidity", path]]
        cmds += [["verify", path, str(tmp / a)] for a, s in ACTION_SYSTEM.items() if s == name]
        if name == "meson2.json":
            cmds += [["deform-check", str(tmp / d)] for d in DEFORMATIONS]
        return cmds
    if schema == "lts-action/1":
        system = str(tmp / ACTION_SYSTEM[name])
        cmds = [["verify", system, path],
                ["cohomology", system, "--degree", "1", "--equivariant", path],
                ["rigidity", system, "--equivariant", path]]
        if name == "meson2_swap.json":
            cmds += [["deform-trivialize", str(tmp / d)] for d in DEFORMATIONS]
        return cmds
    other = str(tmp / DEFORMATIONS[0])
    return [["deform-check", path], ["deform-obstruct", path],
            ["deform-extend", path, "-o", str(tmp / "out.json")],
            ["deform-equiv", path, other], ["deform-equiv", other, path, "--cap", "3"],
            ["deform-equiv", path, other, "--cap", "1"],
            ["deform-equiv", other, path, "--cap", "-1"],
            ["deform-trivialize", path], ["deform-trivialize", path, "--cap", "1"],
            ["deform-trivialize", path, "--cap", "-1"]]


def test_mutated_documents_exit_with_a_contract_code(tmp_path, capsys):
    rng = random.Random(20201)
    for name in NAMES:
        (tmp_path / name).write_text(TEXTS[name])
    for seed in range(MUTATIONS):
        name = rng.choice(NAMES)
        (tmp_path / name).write_text(_mutated_text(name, rng))
        for argv in _commands(name, tmp_path):
            if rng.random() < 0.2:
                argv = argv + ["--field", rng.choice(["gf:7", "gf:10007", "rational"])]
            if rng.random() < 0.3:
                argv = argv + ["--json"]
            try:
                code = main(argv + CAPS)
            except Exception as exc:  # any exception escaping main is the failure
                pytest.fail("mutation %d of %s: %r escaped main on %r"
                            % (seed, name, exc, argv))
            assert code in (0, 1, 2, 3), (seed, name, argv, code)
        (tmp_path / name).write_text(TEXTS[name])
        capsys.readouterr()


def test_undecodable_documents_and_unwritable_outputs_exit_two(tmp_path, capsys):
    """Byte-level faults that no edit of a parsed document makes, and -o
    paths that cannot be written: each exits 2 with one stderr line."""
    for name in NAMES:
        (tmp_path / name).write_text(TEXTS[name])
    system, defo = str(tmp_path / "meson2.json"), str(tmp_path / DEFORMATIONS[0])
    faults = {"invalid_utf8.json": b'{"schema": "lts-system/1\xff"}',
              "long_integer.json": b'{"schema": "lts-system/1", "dim": ' + b"7" * 5000 + b"}",
              "deep_nesting.json": b"[" * 100000}
    argvs = []
    for name, content in faults.items():
        path = tmp_path / name
        path.write_bytes(content)
        argvs += [["verify", str(path)], ["verify", system, str(path)],
                  ["deform-check", str(path)]]
    for out in (tmp_path / "missing" / "out.json", tmp_path):
        argvs += [["deform-extend", defo, "-o", str(out)],
                  ["deform-trivialize", defo, "-o", str(out)]]
    for argv in argvs:
        try:
            code = main(argv + CAPS)
        except Exception as exc:  # any exception escaping main is the failure
            pytest.fail("%r escaped main on %r" % (exc, argv))
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1, (argv, code, err)
