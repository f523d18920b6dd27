#!/usr/bin/env python3
"""Fail on a name that a module of the package imports and never uses.

Usage: python .github/scripts/unused_imports.py [DIR]

Reads every .py file in DIR (default src/sdefl) with the standard library's
ast and lists each imported name that the module never reads, one
"path:line: name" per line, then exits 1; exits 0 when there is none.
__init__.py is skipped, since it imports to re-export, and so is
`from __future__ import ...`.
"""

import ast
import os
import sys


def unused_imports(source):
    """(line, name) of each name that source imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # import a.b binds a
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join("src", "sdefl")
    found = []
    for fname in sorted(os.listdir(root)):
        if fname.endswith(".py") and fname != "__init__.py":
            path = os.path.join(root, fname)
            with open(path, encoding="utf-8") as fh:
                found += [f"{path}:{line}: {name}" for line, name in unused_imports(fh.read())]
    print("\n".join(found or ["no unused imports"]))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
