import importlib
import importlib.util
import inspect
import os
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


def test_bench_tracer_hooks_exist():
    # the tracer drops the metrics of a function it cannot find, so a
    # renamed function would leave the bench result short of metrics
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                        "tracer.py")
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    hooks = set(tracer.TIME_METRICS.values())
    hooks |= {fn for fn, _ in tracer.COUNT_METRICS.values()}
    hooks.add("floer.decide_lazy")
    for hook in sorted(hooks):
        layer, name = hook.split(".")
        fn = getattr(importlib.import_module(f"obfloer.{layer}"), name, None)
        assert not name.startswith("_") and inspect.isfunction(fn), hook
        assert fn.__module__ == f"obfloer.{layer}", hook
