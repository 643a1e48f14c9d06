"""The public names the package and its submodules declare."""

import importlib
import pkgutil

import randloc


def test_every_exported_name_resolves():
    names = ["randloc"] + [f"randloc.{m.name}" for m in pkgutil.iter_modules(randloc.__path__)]
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [f"{name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert len(names) == 11
    assert not missing
