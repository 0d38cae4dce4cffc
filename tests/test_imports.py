"""Source hygiene: every module-level import in the package is used, and every private helper is called."""

import ast
from pathlib import Path

import heavyfactors

PACKAGE = Path(heavyfactors.__file__).parent


def imported_names(tree):
    """(bound name, line) for each module-level import, `from __future__` aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_module_level_import_is_used():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported_names(tree) if name not in used]
    assert unused == []


def test_every_private_helper_has_a_caller():
    """Each module-level `_name` def or class is read somewhere in the package outside its own body."""
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    assert trees
    read_in = [
        (top, {node.id if isinstance(node, ast.Name) else node.attr
               for node in ast.walk(top) if isinstance(node, (ast.Name, ast.Attribute))})
        for tree in trees.values() for top in tree.body
    ]
    orphans = [
        f"{module}:{top.lineno}: {top.name}"
        for module, tree in trees.items() for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        and top.name.startswith("_") and not top.name.startswith("__")
        and not any(top.name in names for other, names in read_in if other is not top)
    ]
    assert orphans == []


def test_package_exports_exactly_what_it_imports():
    """`__all__` lists each name `__init__.py` imports from its modules, and each resolves."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {name for name, _ in imported_names(tree)}
    assert imported == set(heavyfactors.__all__)
    assert len(heavyfactors.__all__) == len(imported)
    assert all(hasattr(heavyfactors, name) for name in heavyfactors.__all__)
