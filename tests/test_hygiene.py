"""Source hygiene: every imported name in the package and the tests is used.

The check reads the syntax tree only (stdlib `ast`): a name bound by an
import must occur somewhere in the same file as a plain name, attribute
bases included (`pytest` in `pytest.raises`). Names that appear only inside
strings do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("src/motivic/*.py")) + sorted(ROOT.glob("tests/*.py"))


def unused_imports(source: str):
    """Names bound by imports in `source` that nothing refers to, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys as system\n"
              "from a import b, c as d\n"
              "def f():\n    from e import g\n    return b(d, os.sep)\n")
    assert unused_imports(source) == ["g", "system"]


def test_every_imported_name_is_used():
    assert FILES
    unused = {}
    for path in FILES:
        names = unused_imports(path.read_text())
        if names:
            unused[path.relative_to(ROOT).as_posix()] = names
    assert unused == {}
