"""Tests of the benchmark itself: python3 -m pytest perfbench

The smoke size of each workload runs one small round in a few seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import expected, gen  # noqa: E402

WORKLOADS = ["scan-plain", "scan-equivariant", "deform-cli"]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=cwd)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    result = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", "0", "--smoke"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared("end_to_end")
    assert result["metrics"]["ok_frac"]["value"] == 1.0      # failed_frac == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced_counts_repeat(workload):
    args = ("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke")
    first, second = result_of(bench(*args)), result_of(bench(*args))
    assert first["failed"] == 0 and second["failed"] == 0
    got = {k: v["unit"] for k, v in first["metrics"].items()}
    assert got == declared("per_layer")
    for name, unit in got.items():
        if unit in ("count", "bytes"):
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "scan-plain", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_generated_tensors_match_the_library_constructors():
    from ltsdeform import lts

    systems = {
        "meson2": lts.meson(2), "meson3": lts.meson(3), "meson4": lts.meson(4),
        "skew3": lts.skew_lts(3), "sym2": lts.sym_lts(2), "matrix2": lts.matrix_lts(2),
        "rect22": lts.rect_lts(2, 2), "sl2": lts.from_lie_algebra(lts.sl2_brackets()),
    }
    for name, system in systems.items():
        t = gen.system_tensor(name)
        d = len(t)
        assert all(list(system.mu.basis_value(i, j, k)) == t[i][j][k]
                   for i in range(d) for j in range(d) for k in range(d)), name


def test_basis_change_and_gauge_are_exact():
    import random

    rng = random.Random(5)
    mu = gen.system_tensor("meson3")
    p, pinv = gen.unimodular(3, rng)
    changed = gen.change_basis(mu, p, pinv)
    assert gen.change_basis(changed, pinv, p) == mu
    psi = [[1, 0, 0], [0, -1, 0], [0, 0, 1]]
    terms = gen.gauge_trivial_terms(changed, psi, 4)
    for r in range(5):
        assert gen.order_equation_holds([changed] + terms, r)


def test_templates_and_pins():
    for key, order in expected.TEMPLATE_ORDERS.items():
        assert len(expected.template_elements(*key)) == order, key
    # closed form against the values the test suite pins for meson(2)
    assert expected.closed_form_dim(2, 3) == 4
    assert expected.plain_dims("meson2", 2, 3)[3] == 0
    assert expected.EQUIVARIANT["meson2", "swap", 3][0] == 2
    assert expected.EQUIVARIANT["meson2", "swap", 3][3] == 0
    assert expected.plain_dims("abelian2", 2, 3)[3] > 0
