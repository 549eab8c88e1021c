"""Every module of ``src/repro`` reads each name it imports.

An import nothing reads is dead weight that outlives the code it once
served.  Package ``__init__.py`` files are skipped: their imports are
re-exports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(path for path in SRC.rglob("*.py")
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
    """``(line, name)`` of every name *source* imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.arg):
            read |= _annotation_names(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            read |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            read |= _annotation_names(node.returns)
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_scanner_finds_an_unused_import():
    source = "import os\nfrom typing import List, Dict\nx: List = []\n"
    assert unused_imports(source) == [(1, "os"), (2, "Dict")]
    assert unused_imports('from a import B\ndef f(x: "B"): pass\n') == []


def test_no_unused_imports():
    unused = [f"{path.relative_to(SRC)}:{line}: {name}"
              for path in MODULES
              for line, name in unused_imports(path.read_text())]
    assert unused == []
