"""The package's modules import each other in layers.

Every intra-package import is read from the source with `ast`, those in
function bodies included, so the import graph is the one a reader sees.
"""

import ast
from pathlib import Path

import butterfly

PACKAGE = Path(butterfly.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py"))}


def _targets(node):
    """The package modules one import statement names."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("butterfly.")]
    if node.level:
        module = node.module or ""
    elif (node.module or "").startswith("butterfly"):
        module = node.module.removeprefix("butterfly").removeprefix(".")
    else:
        return []
    if module:
        return [module.split(".")[0]]
    # `from . import dsl`: each name is a module, or else a name of the package
    return [alias.name if alias.name in MODULES else "__init__"
            for alias in node.names]


def _import_graph():
    return {name: {target for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   for target in _targets(node)} - {name}
            for name, tree in MODULES.items()}


def test_intra_package_imports_form_no_cycle():
    graph = _import_graph()
    assert {"dsl", "geom"} <= graph["theorems"]  # the graph sees top-level imports
    done, path = set(), []

    def visit(name):
        assert name not in path, f"import cycle: {' -> '.join(path + [name])}"
        if name in done:
            return
        path.append(name)
        for target in sorted(graph[name]):
            visit(target)
        path.pop()
        done.add(name)

    for name in graph:
        visit(name)


def test_no_function_body_imports():
    nested = [f"{name}.py:{node.lineno}"
              for name, tree in MODULES.items()
              for function in ast.walk(tree)
              if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.Lambda))
              for node in ast.walk(function)
              if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []
