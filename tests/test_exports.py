import ast
import importlib
import pkgutil
from dataclasses import replace
from pathlib import Path

import pytest

import xfmr
import xfmr.tensor
from xfmr import build_layout, build_model, toy_spec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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


def _resolve(node: ast.expr, names: dict):
    """The object a Name or dotted Attribute chain rooted in ``names`` reads;
    KeyError for any other root, AttributeError for a missing attribute."""
    if isinstance(node, ast.Attribute):
        return getattr(_resolve(node.value, names), node.attr)
    if isinstance(node, ast.Name):
        return names[node.id]
    raise KeyError(node)


@pytest.mark.parametrize("attention", ["lsda", "sda-only", "pvt-like"])
def test_benchmark_reads_resolve(attention):
    """The benchmark under ``perfbench/`` reads the package by name and is not
    run by this suite: every name it imports from ``xfmr``, every ``xfmr.``
    chain and ``(owner, "name")`` patch target it reads, every op of its
    tracer's ``OPS``, and the block attributes it rebuilds layouts from
    still exist. The files are parsed, not imported."""
    missing = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {"xfmr": xfmr}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("xfmr"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    if hasattr(module, alias.name):
                        names[alias.asname or alias.name] = getattr(module, alias.name)
                    else:
                        missing.append(f"{path.name}: {node.module}.{alias.name}")
            elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "OPS":
                missing += [f"{path.name}: xfmr.tensor.{op}" for op in ast.literal_eval(node.value)
                            if not hasattr(xfmr.tensor, op)]
        for node in ast.walk(tree):
            try:
                if isinstance(node, ast.Attribute):
                    _resolve(node, names)
                elif (isinstance(node, ast.Tuple) and len(node.elts) > 1 and isinstance(node.elts[1], ast.Constant)
                      and isinstance(node.elts[1].value, str)):
                    getattr(_resolve(node.elts[0], names), node.elts[1].value)
            except KeyError:
                pass  # rooted in a local value, not in the package
            except AttributeError:
                missing.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert missing == []

    model = build_model(replace(toy_spec(), attention_mode=attention), seed=0)
    for block in (b for blocks in model.stages for b in blocks):
        rebuilt = build_layout(block.mode, *block.layout.grid, block.group_size)
        assert (rebuilt.groups, rebuilt.slots) == (block.layout.groups, block.layout.slots)
        assert hasattr(block.attn, "bias")
        if attention != "pvt-like":
            assert isinstance(block.attn.bias.eval_count, int)
