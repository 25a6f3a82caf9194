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


# the module classes that compute, each in its own ``forward``
FORWARD_CLASSES = {
    "layers": ("Linear", "LayerNorm", "Mlp"),
    "bias": ("AbsolutePositionEmbedding",),
    "attention": ("GroupedAttention", "PooledFullAttention"),
    "embed": ("CrossScaleEmbedding",),
    "model": ("Block", "Classifier"),
}


def test_module_call_is_the_one_entry_point():
    """``Module`` is the only class of the package that defines ``__call__``,
    and every computing module class defines ``forward``."""
    modules = [importlib.import_module(f"xfmr.{m.name}") for m in pkgutil.iter_modules(xfmr.__path__)]
    callers = {f"{cls.__module__}.{cls.__qualname__}" for module in modules
               for cls in vars(module).values()
               if isinstance(cls, type) and cls.__module__.startswith("xfmr") and "__call__" in vars(cls)}
    assert callers == {"xfmr.layers.Module"}
    for name, classes in FORWARD_CLASSES.items():
        module = importlib.import_module(f"xfmr.{name}")
        for cls in classes:
            assert "forward" in vars(getattr(module, cls)), f"xfmr.{name}.{cls}"


def test_module_call_passes_arguments_to_forward():
    class Probe(xfmr.layers.Module):
        def forward(self, *args, **kwargs):
            return args, kwargs, self

    probe = Probe()
    token = object()
    assert probe(1, token, train=True, rng=None) == ((1, token), {"train": True, "rng": None}, probe)
