"""The bundled documents under src/ltsdeform/data/ are exactly what
scripts/regen_bundled_docs.py writes from the builders, so serialising
the systems, actions and deformations built in code is byte-stable.

The script is loaded by path and its DATA directory pointed at a
temporary one before main() runs.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "regen_bundled_docs.py"
BUNDLED = ROOT / "src" / "ltsdeform" / "data"


def test_regenerated_documents_are_byte_identical(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("_regen_bundled_docs", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.DATA = tmp_path
    script.main()
    capsys.readouterr()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in BUNDLED.glob("*.json"))
    assert len(written) == 15
    for name in written:
        assert (tmp_path / name).read_bytes() == (BUNDLED / name).read_bytes(), name
