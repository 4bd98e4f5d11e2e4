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


def _top_level_names(tree: ast.Module) -> set[str]:
    """Functions, classes and assignment targets defined at module level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _references(tree: ast.AST) -> set[str]:
    """Names a tree reads: Name loads, attributes, import aliases and strings
    (such as the ``LAYERS`` entries of bench/tracer.py)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def _unreferenced(defining: list[ast.Module], referencing: list[ast.AST]) -> set[str]:
    defined = set().union(*map(_top_level_names, defining))
    return defined - set().union(*map(_references, referencing))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_library_names_are_used_outside_tests():
    """Every top-level name of the library is used by the library or the
    benchmark; helpers only the tests call live under tests/."""
    library = [_parse(path) for path in sorted((ROOT / "src" / "bellsim").glob("*.py"))]
    bench = [_parse(path) for path in sorted((ROOT / "bench").glob("*.py"))
             if not path.name.startswith("test_")]
    assert len(library) > 1 and bench
    assert _unreferenced(library, library + bench) == set()


def test_unused_name_guard_sees_every_form():
    library = ast.parse("def by_name(): pass\ndef by_attribute(): pass\nclass ByImport: pass\n"
                        "def by_string(): pass\nCONSTANT = by_name()\ndef unused(): pass\n"
                        "UNUSED: int = 0\nA, (B, C) = 1, (2, 3)\nprint(B)\n")
    caller = ast.parse("from lib import ByImport as alias\nimport lib\nlib.by_attribute(C)\n"
                       "LAYERS = (('lib', 'by_string'),)\n")
    assert _unreferenced([library], [library, caller]) == {"CONSTANT", "unused", "UNUSED", "A"}


def test_make_goldens_imports():
    """The golden generator loads without running: every helper it imports exists."""
    spec = importlib.util.spec_from_file_location("make_goldens",
                                                  ROOT / "tests" / "make_goldens.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
