import importlib
import pkgutil

import xfmr


def test_every_exported_name_resolves():
    modules = [xfmr] + [importlib.import_module(f"xfmr.{m.name}") for m in pkgutil.iter_modules(xfmr.__path__)]
    stale = [f"{module.__name__}.{name}" for module in modules
             for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert stale == []
