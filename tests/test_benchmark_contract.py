"""The benchmark's tracer (perfbench/tracer.py) wraps library functions by
name; every name it lists must still resolve, or `--trace 1` runs fail.

The tracer file is loaded by path and only its SPECS list is read.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _specs():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.PACKAGE, tracer.SPECS


def test_every_traced_name_resolves_in_the_package():
    package, specs = _specs()
    assert specs
    for modname, attr, _, _ in specs:
        home = importlib.import_module("%s.%s" % (package, modname))
        if "." in attr:
            # wrapped on the class that defines it, as the tracer does
            cls_name, meth = attr.split(".")
            target = vars(getattr(home, cls_name)).get(meth)
        else:
            target = getattr(home, attr, None)
        assert callable(target), "%s.%s.%s" % (package, modname, attr)
