"""The benchmark tracer's bindings into bellsim.

``bench/tracer.py`` wraps bellsim functions by (module, name); a rename in
the library would break the traced benchmark without failing any library
test, so the names it binds are checked here.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "bench" / "tracer.py"


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


def _modules_after(statement: str) -> set[str]:
    """The keys of sys.modules in a fresh interpreter after ``statement``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", f"{statement}\nimport sys\nprint(*sys.modules)"],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    return set(proc.stdout.split())


def test_import_graph():
    """``Tracer.install`` finds the traced modules in sys.modules, so the CLI
    must load every one of them eagerly.  The library imports numpy only:
    neither ``import bellsim.cli`` nor a command run in the same process
    loads any scipy module (``SparseOperator.mat`` imports scipy.sparse on
    first use).  Conjugation needs no numpy at all."""
    after_cli = _modules_after("import bellsim.cli")
    assert {f"bellsim.{module}" for module, _ in tracer.LAYERS} <= after_cli
    after_chsh = _modules_after("from bellsim.cli import main\n"
                                "main(['chsh', '--cutoff', '6'])")
    for modules in (after_cli, after_chsh):
        assert not {name for name in modules if name.split(".")[0] == "scipy"}
    assert "numpy" not in _modules_after("import bellsim.adjoint")
