"""The benchmark tracer's wrap targets must exist in hgreen.

`perfbench/run.py --trace 1` patches every TARGETS entry by name; a renamed or
deleted function would otherwise surface only as a traceback in the bench.
The tracer module is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_tracer_target_resolves():
    targets = _load_tracer().TARGETS
    attrs = {attr for _, _, attr in targets}
    assert {"FracIdeal.valuation", "LatticeRoute.c_chi", "SqrtSupport.support"} <= attrs
    for name, modname, attr in targets:
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{name}: {modname}.{attr} is missing"
            obj = getattr(obj, part)
        assert callable(obj), f"{name}: {modname}.{attr} is not callable"
