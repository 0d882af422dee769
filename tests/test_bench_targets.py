"""Every (module, qualname) the benchmark tracer wraps still exists.

The tracer in perfbench/tracer.py patches chernlab functions by name; a
renamed or deleted target breaks traced benchmark runs, so it is caught here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(modname, qualname) for _, modname, qualname, _ in tracer.TARGETS]


@pytest.mark.parametrize("modname,qualname", _targets())
def test_tracer_target_resolves(modname, qualname):
    obj = importlib.import_module(f"chernlab.{modname}")
    for part in qualname.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
