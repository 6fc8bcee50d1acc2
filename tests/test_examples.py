"""The scripts under scripts/ and the README's Python example run and
print what they did when these tests were written, or, for the line
count, print a well-formed table."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

WALKTHROUGH = """\
accepted as an order-2 candidate
order equations through t^4: r=0:ok r=1:ok r=2:ok r=3:ok r=4:ok
first nonzero term: order 2; coboundary of it vanishes: True
obstruction: zero=True cocycle=True extendable=True
extended to order 3 (new term zero: True)
equivalent to the trivial deformation: True
  psi_0 = [['1', '0'], ['0', '1']]
  psi_1 = [['0', '0'], ['0', '0']]
  psi_2 = [['0', '-1/2'], ['-1/2', '0']]
trivialize: removed order-2 coboundary infinitesimal
trivialize: removed order-4 coboundary infinitesimal
trivialize: all terms through order 4 vanish
all reduced terms vanish: True
"""

# the timing column stripped
RIGIDITY_SCAN = """\
meson(2) / trivial       dim H^3_G = 0   RIGID
meson(2) / swap          dim H^3_G = 0   RIGID
meson(1) / trivial       dim H^3_G = 0   RIGID
meson(3) / sign          dim H^3_G = 0   RIGID
skew(3) / trivial        dim H^3_G = 0   RIGID
skew(3) / sign           dim H^3_G = 0   RIGID
sym(2) / sign            dim H^3_G = 0   RIGID
sl2 / trivial            dim H^3_G = 0   RIGID
matrix(2) / trivial      dim H^3_G = 0   RIGID
rect(2,2) / trivial      dim H^3_G = 0   RIGID
meson(2)^3 / trivial     dim H^3_G = 0   RIGID
"""


def run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, cwd=ROOT, env=env)


def test_deformation_walkthrough_output():
    proc = run_python(["scripts/deformation_walkthrough.py"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == WALKTHROUGH


def test_rigidity_scan_verdicts():
    proc = run_python(["scripts/rigidity_scan.py"])
    assert proc.returncode == 0, proc.stderr
    stripped = [re.sub(r"\s*\(\d+\.\d+s\)$", "", line) for line in proc.stdout.splitlines()]
    assert "\n".join(stripped) + "\n" == RIGIDITY_SCAN


def test_code_lines_counts_every_module_and_the_total():
    proc = run_python(["scripts/code_lines.py"])
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    modules = sorted(path.name for path in (ROOT / "src" / "ltsdeform").glob("*.py"))
    assert [row[0] for row in rows] == modules + ["total"]
    counts = [(int(row[1]), int(row[3])) for row in rows]
    assert all(0 < code < every for code, every in counts[:-1])
    assert counts[-1] == tuple(map(sum, zip(*counts[:-1])))
    init = (ROOT / "src" / "ltsdeform" / "__init__.py").read_text().splitlines()
    assert counts[0][1] == len(init)


def test_readme_python_example():
    readme = (ROOT / "README.md").read_text()
    (code,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    # each print line of the example states its output in a trailing comment
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M)
    lines = proc.stdout.splitlines()
    assert len(lines) == len(expected) == 2
    for line, comment in zip(lines, expected):
        assert line.startswith(comment), (line, comment)
