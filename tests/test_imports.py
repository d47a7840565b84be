"""Every module of the package and of the tests reads each name it imports."""

import ast
import os

import grasspq

SOURCES = [os.path.join(d, f) for d in (os.path.dirname(grasspq.__file__),
                                        os.path.dirname(__file__))
           for f in sorted(os.listdir(d)) if f.endswith(".py")]


def unread_imports(source):
    """The names that `source` binds by an import and never reads; a
    `from __future__` import is a compiler directive, not a name."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_every_imported_name_is_read():
    # the scan itself sees an unread name, however it is imported
    assert unread_imports("from __future__ import annotations\nimport os.path, sys as system\n"
                          "from a import b, c as d\nprint(os, d)\n") == [
        (2, "system"), (3, "b")]
    unread = []
    for path in SOURCES:
        with open(path, encoding="utf-8") as fh:
            unread += [f"{os.path.basename(path)}:{line}: {name}"
                       for line, name in unread_imports(fh.read())]
    assert SOURCES and not unread, unread
