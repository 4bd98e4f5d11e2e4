"""The benchmark tracer's bindings into bellsim.

``bench/tracer.py`` wraps bellsim functions by (module, name); a rename in
the library would break the traced benchmark without failing any library
test, so the names it binds are checked here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("module_name, func_name", dict.fromkeys(tracer.LAYERS + tracer.CACHES))
def test_traced_name_resolves(module_name, func_name):
    func = getattr(importlib.import_module(f"bellsim.{module_name}"), func_name)
    assert callable(func)
    if (module_name, func_name) in tracer.CACHES:
        assert func.cache_info().misses >= 0
