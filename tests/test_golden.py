"""Command-line reports on the bundled documents and on the documents in
tests/golden/docs/, byte for byte as recorded in tests/golden/.

cases.json lists each case: its argument list (an argument "@name" stands
for the bundled document of that name, "%name" for the document of that
name under tests/golden/docs/), its exit code, the file under tests/golden/
holding its exact standard output and, when the case names one under
"stderr", the file holding its exact standard error.  The cases run from
tests/golden/, and "%name" is passed as the relative path docs/name, so
reports that echo a document path do not depend on where the repository
lives.
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
        return "docs/" + arg[1:]
    return arg


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_json_output_is_byte_identical(case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    argv = [_resolve(a) for a in case["argv"]]
    assert main(argv) == case["exit"]
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / ("%s.json" % case["name"])).read_text()
    if "stderr" in case:
        assert captured.err == (GOLDEN / case["stderr"]).read_text()
