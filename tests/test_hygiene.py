"""Source hygiene, read from the syntax tree only (stdlib `ast`).

- Every imported name in the package and the tests is used: a name bound
  by an import must occur somewhere in the same file as a plain name,
  attribute bases included (`pytest` in `pytest.raises`).
- Every function and method the package defines is referred to somewhere
  in the package, the tests or the benchmark: a function as a plain name
  or an attribute, a method as an attribute. Dunders are exempt, and so
  are the `Session.eval_*` handlers, which `Session.evaluate` reaches
  through `getattr`. The check goes by name alone, so a method that shares
  its name with a used one passes.
- Every attribute a package class stores on `self` (`self.name = ...` in
  one of its methods) is read somewhere in the package, the tests or the
  benchmark, again by name alone: some `x.name` is loaded. An attribute
  that is only ever assigned or bumped (`self.n += 1`) is unread.

Names that appear only inside strings do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/motivic/*.py"))
FILES = PACKAGE + sorted(ROOT.glob("tests/*.py"))
READERS = FILES + sorted(ROOT.glob("perfbench/*.py"))
REACHED_BY_NAME = ("cli.Session.eval_",)


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


def unreferenced_definitions(package: dict, readers):
    """Functions and methods of `package` ({module: source}) that no source
    in `readers` refers to, as "module.function" or "module.Class.method",
    sorted."""
    names, attrs = set(), set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []
    for module, source in package.items():
        tree = ast.parse(source)
        methods = {}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                methods.update((id(d), cls.name) for d in cls.body
                               if isinstance(d, functions))
        for d in ast.walk(tree):
            if not isinstance(d, functions) or d.name.startswith("__"):
                continue
            if id(d) in methods:
                qual = "%s.%s.%s" % (module, methods[id(d)], d.name)
                used = d.name in attrs
            else:
                qual = "%s.%s" % (module, d.name)
                used = d.name in names or d.name in attrs
            if not used and not qual.startswith(REACHED_BY_NAME):
                out.append(qual)
    return sorted(out)


def unread_attributes(package: dict, readers):
    """Attributes that classes of `package` ({module: source}) store on
    `self` and no source in `readers` loads, as "module.Class.attr",
    sorted."""
    read = set()
    for source in readers:
        read.update(node.attr for node in ast.walk(ast.parse(source))
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load))
    out = set()
    for module, source in package.items():
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                out.update("%s.%s.%s" % (module, cls.name, node.attr)
                           for node in ast.walk(method)
                           if isinstance(node, ast.Attribute)
                           and isinstance(node.ctx, ast.Store)
                           and isinstance(node.value, ast.Name)
                           and node.value.id == "self"
                           and node.attr not in read)
    return sorted(out)


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


def test_the_check_finds_an_unreferenced_definition():
    package = {
        "m": ("def used():\n    def inner():\n        pass\n    return inner\n"
              "def unused():\n    pass\n"
              "class C:\n    def __init__(self):\n        self.f()\n"
              "    def f(self):\n        pass\n"
              "    def called_by_name(self):\n        pass\n"
              "    def idle(self):\n        pass\n"),
        "cli": ("class Session:\n    def eval_x(self):\n        pass\n"
                "    def eval(self):\n        pass\n"),
    }
    reader = "from m import used\nused()\ncalled_by_name()\n"
    assert unreferenced_definitions(package, list(package.values()) + [reader]) \
        == ["cli.Session.eval", "m.C.called_by_name", "m.C.idle", "m.unused"]


def test_every_definition_is_referenced():
    assert PACKAGE
    package = {path.stem: path.read_text() for path in PACKAGE}
    readers = [path.read_text() for path in READERS]
    assert unreferenced_definitions(package, readers) == []


def test_the_check_finds_an_unread_attribute():
    package = {"m": ("class C:\n    def __init__(self, a):\n"
                     "        self.kept = a\n        self.unread = a\n"
                     "        self.n = 0\n"
                     "    def bump(self):\n        self.n += 1\n"
                     "        return self.kept\n"
                     "class D:\n    def set(self, other):\n"
                     "        self.elsewhere = 1\n        other.unread = 2\n")}
    reader = "def f(d):\n    return d.elsewhere\n"
    assert unread_attributes(package, list(package.values()) + [reader]) \
        == ["m.C.n", "m.C.unread"]


def test_every_stored_attribute_is_read():
    assert PACKAGE
    package = {path.stem: path.read_text() for path in PACKAGE}
    readers = [path.read_text() for path in READERS]
    assert unread_attributes(package, readers) == []
