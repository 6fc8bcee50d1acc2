"""The --json reports of `cohomology` and `rigidity` on the bundled
documents and on the action documents in tests/golden/docs/ (groups of
order 8 and 48), byte for byte as recorded in tests/golden/.

cases.json lists each case: its argument list (an argument "@name" stands
for the bundled document of that name, "%name" for the document of that
name under tests/golden/docs/), its exit code and the file under
tests/golden/ holding its exact standard output.
"""

import json
from pathlib import Path

import pytest

from ltsdeform import bundled_path
from ltsdeform.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def _resolve(arg):
    if arg.startswith("@"):
        return str(bundled_path(arg[1:]))
    if arg.startswith("%"):
        return str(GOLDEN / "docs" / arg[1:])
    return arg


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_json_output_is_byte_identical(case, capsys):
    argv = [_resolve(a) for a in case["argv"]]
    assert main(argv) == case["exit"]
    out = capsys.readouterr().out
    assert out == (GOLDEN / ("%s.json" % case["name"])).read_text()
