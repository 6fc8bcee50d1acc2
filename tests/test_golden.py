"""The --json reports of `cohomology` and `rigidity` on the bundled
documents, byte for byte as recorded in tests/golden/.

cases.json lists each case: its argument list (an argument "@name" stands
for the bundled document of that name), its exit code and the file under
tests/golden/ holding its exact standard output.
"""

import json
from pathlib import Path

import pytest

from ltsdeform import bundled_path
from ltsdeform.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_json_output_is_byte_identical(case, capsys):
    argv = [str(bundled_path(a[1:])) if a.startswith("@") else a for a in case["argv"]]
    assert main(argv) == case["exit"]
    out = capsys.readouterr().out
    assert out == (GOLDEN / ("%s.json" % case["name"])).read_text()
