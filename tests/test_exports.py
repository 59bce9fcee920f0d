import importlib
import pkgutil

import obfloer


def test_every_exported_name_resolves():
    modules = [m.name for m in pkgutil.iter_modules(obfloer.__path__)
               if m.name != "__main__"]
    assert sorted(modules) == sorted(obfloer.__all__)
    for name in modules:
        module = importlib.import_module(f"obfloer.{name}")
        namespace = {}
        exec(f"from obfloer.{name} import *", namespace)
        missing = [n for n in getattr(module, "__all__", ())
                   if n not in namespace]
        assert not missing, (name, missing)
