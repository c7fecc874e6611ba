"""Every module of the package uses each name it imports.

No linter runs on this repository, so the check is made here with the
standard library's ``ast``.  ``__init__.py`` is skipped: its imports are the
package's public re-exports.
"""

import ast
from pathlib import Path

import mixdecomp

PACKAGE = Path(mixdecomp.__file__).parent


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_import_check_sees_one():
    assert _unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["line 1: os"]


def test_no_unused_imports():
    found = {
        path.name: unused
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py" and (unused := _unused_imports(path.read_text()))
    }
    assert not found, f"unused imports: {found}"
