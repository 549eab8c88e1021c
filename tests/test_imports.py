"""Every module of ``src/repro``, ``tests`` and ``benchmarks`` reads each
name it imports.

An import nothing reads is dead weight that outlives the code it once
served.  Package ``__init__.py`` files are skipped: their imports are
re-exports.  An import kept only for its side effect says so with
``# noqa: F401`` on its line.  ``perfbench/`` is not scanned.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = (ROOT / "src" / "repro", ROOT / "tests", ROOT / "benchmarks")
MODULES = sorted(path for directory in SCANNED
                 for path in directory.rglob("*.py")
                 if path.name != "__init__.py")


def _annotation_names(node):
    """Names inside a string annotation such as ``"Program"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            parsed = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return set()
        return {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return set()


def unused_imports(source: str):
    """``(line, name)`` of every name *source* imports and never reads,
    except names imported on a line marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.arg):
            read |= _annotation_names(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            read |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            read |= _annotation_names(node.returns)
    return sorted((line, name) for name, line in imported.items()
                  if name not in read
                  and "# noqa: F401" not in lines[line - 1])


def test_scanner_finds_an_unused_import():
    source = "import os\nfrom typing import List, Dict\nx: List = []\n"
    assert unused_imports(source) == [(1, "os"), (2, "Dict")]
    assert unused_imports('from a import B\ndef f(x: "B"): pass\n') == []
    assert unused_imports("import a.b  # noqa: F401\nimport c\n") == \
        [(2, "c")]
    assert unused_imports("from a import (\n    B,\n    C,  # noqa: F401\n)\n"
                          ) == [(2, "B")]


def test_no_unused_imports():
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in MODULES
              for line, name in unused_imports(path.read_text())]
    assert unused == []
