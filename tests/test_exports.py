"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import gmtepi


def test_every_name_in_all_resolves():
    names = ["gmtepi"] + [f"gmtepi.{m.name}" for m in pkgutil.iter_modules(gmtepi.__path__)]
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [f"{name}.{n}" for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing
