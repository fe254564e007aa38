"""The package's public names all resolve, and its modules import only what they use."""
import ast
import pathlib

import levyminmax


def test_every_exported_name_resolves():
    missing = [name for name in levyminmax.__all__
               if not hasattr(levyminmax, name)]
    assert missing == []


def test_star_import_works():
    namespace = {}
    exec("from levyminmax import *", namespace)
    assert set(levyminmax.__all__) <= set(namespace)


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports to re-export, so only the other modules are checked
    package = pathlib.Path(levyminmax.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.name}:{stmt.lineno} {bound}")
    assert unused == []


def test_frozen_objects_are_written_only_in_post_init():
    # object.__setattr__ on a frozen dataclass is how __post_init__ stores
    # its normalized fields; anywhere else it mutates a finished value
    package = pathlib.Path(levyminmax.__file__).parent
    writes = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {id(node)
                   for func in ast.walk(tree)
                   if isinstance(func, ast.FunctionDef)
                   and func.name == "__post_init__"
                   for node in ast.walk(func)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "object"
                    and id(node) not in allowed):
                writes.append(f"{path.name}:{node.lineno}")
    assert writes == []
