import ast
import importlib
import pkgutil
from pathlib import Path

import xfmr
import xfmr.tensor


def test_every_exported_name_resolves():
    modules = [xfmr] + [importlib.import_module(f"xfmr.{m.name}") for m in pkgutil.iter_modules(xfmr.__path__)]
    stale = [f"{module.__name__}.{name}" for module in modules
             for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert stale == []


# tensor exports with no caller in the package, each with its reason
UNCALLED_TENSOR_EXPORTS = {
    "gelu": "perfbench's tracer looks it up by name in its OPS list",
}


def test_every_tensor_export_has_a_caller():
    """Each name in ``xfmr.tensor.__all__`` is imported, called or read by
    another module of the package, or is a listed exception that still has
    no caller."""
    used = set()
    for path in Path(xfmr.__file__).parent.glob("*.py"):
        if path.name == "tensor.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    uncalled = {name for name in xfmr.tensor.__all__ if name not in used}
    assert uncalled == set(UNCALLED_TENSOR_EXPORTS)
