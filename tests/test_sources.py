"""Checks on the library's source files and on the golden generator."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _rng_uses(tree: ast.AST) -> list[str]:
    """Imports of random, secrets or numpy.random, and np.random/numpy.random reads."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        if any(name.split(".")[0] in ("random", "secrets")
               or name.startswith(("numpy.random", "np.random")) for name in names):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_library_is_seedless():
    """No RNG exists in the library, as the CLI docstring and README state."""
    found = {path.name: _rng_uses(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted((ROOT / "src" / "bellsim").glob("*.py"))}
    assert len(found) > 1
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_rng_guard_sees_every_form():
    tree = ast.parse("import random\nfrom numpy import random\nfrom secrets import choice\n"
                     "import numpy.random as npr\nrng = np.random.default_rng()\n"
                     "import numpy as np\nx = np.linalg.norm(rng.random(3))\n")
    assert len(_rng_uses(tree)) == 5


def test_make_goldens_imports():
    """The golden generator loads without running: every helper it imports exists."""
    spec = importlib.util.spec_from_file_location("make_goldens",
                                                  ROOT / "tests" / "make_goldens.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
