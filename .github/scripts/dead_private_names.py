#!/usr/bin/env python3
"""Fail on a private module-level name that no module of the package reads.

Usage: python .github/scripts/dead_private_names.py [DIR]

Reads every .py file in DIR (default src/sdefl) with the standard library's
ast.  A private name is one that a module binds at its top level, by def,
class or assignment, and that starts with one underscore.  It is read where
any module of the package loads it as a name, as an attribute
(``_kernels._doubling_scan``) or through ``from ... import``; a function's
or class's reads of its own name inside its body do not count.  Lists each
unread one as "path:line: name", then exits 1; exits 0 when there is none.
"""

import ast
import os
import sys


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def definitions(tree):
    """(name, line, statement) of each private name bound at the top of a
    module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            found = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for f in found for t in ast.walk(f)
                     if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)]
        else:
            continue
        for name in names:
            if _private(name):
                yield name, node.lineno, node


def reads(node):
    """Every name that node loads, as a name, an attribute or an import."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def dead_private_names(sources):
    """(path, line, name) of each private name in sources ({path: text}) that
    no module reads outside the body that defines it."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    # name -> the top-level statements that read it
    readers = {}
    for tree in trees.values():
        for stmt in tree.body:
            for name in reads(stmt):
                readers.setdefault(name, set()).add(id(stmt))
    found = []
    for path, tree in trees.items():
        for name, line, owner in definitions(tree):
            if not readers.get(name, set()) - {id(owner)}:
                found.append((path, line, name))
    return sorted(found)


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join("src", "sdefl")
    sources = {}
    for fname in sorted(os.listdir(root)):
        if fname.endswith(".py"):
            path = os.path.join(root, fname)
            with open(path, encoding="utf-8") as fh:
                sources[path] = fh.read()
    found = [f"{path}:{line}: {name}" for path, line, name in dead_private_names(sources)]
    print("\n".join(found or ["no dead private names"]))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
