"""Public names: every export of a module exists, and the package
re-exports only names its modules export."""

import ast
import importlib
import pkgutil

import relcomp


def _modules():
    return [importlib.import_module("relcomp." + info.name)
            for info in pkgutil.iter_modules(relcomp.__path__)
            if not info.name.startswith("_")]


def _exports(module):
    # a module without __all__ exports its public names, as import * does
    names = getattr(module, "__all__", None)
    if names is None:
        names = [k for k in vars(module) if not k.startswith("_")]
    return set(names)


def test_every_name_in_all_is_defined():
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), "%s.%s" % (module.__name__, name)


def test_package_imports_only_exported_names():
    with open(relcomp.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module("relcomp." + node.module)
        for alias in node.names:
            assert alias.name in _exports(module), "%s.%s" % (node.module, alias.name)
