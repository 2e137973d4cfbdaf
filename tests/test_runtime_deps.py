"""The library imports numpy, scipy and the standard library only; mpmath is test-only."""

import ast
import sys
from pathlib import Path

import irslink

RUNTIME = {"numpy", "scipy", "irslink"} | set(sys.stdlib_module_names)


def _imported_modules(path: Path):
    """Top-level package of every absolute import in the file, function-local ones included."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_library_imports_only_numpy_scipy_and_stdlib():
    files = sorted(Path(irslink.__file__).resolve().parent.glob("*.py"))
    assert len(files) > 1
    foreign = [(f.name, name) for f in files for name in _imported_modules(f)
               if name not in RUNTIME]
    assert not foreign, foreign


def test_import_scan_sees_function_local_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import fbl\n\n\ndef f():\n"
                     "    import mpmath.libmp\n    from numpy import pi\n")
    assert list(_imported_modules(probe)) == ["mpmath", "numpy"]
