import glob
import importlib
import importlib.util
import inspect
import io
import json
import math
import os
import pkgutil
import shutil
import subprocess
import sys

import pytest

import obfloer
import obfloer.front

from loc import code_lines
import stages
from test_front import BENCH_LADDER, CORPUS


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


def test_readme_library_snippet_runs():
    # the README's example is the library's front door: a public name it
    # uses must not go away unnoticed
    with open(os.path.join(os.path.dirname(__file__), os.pardir,
                           "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "import" in snippet and "assert" in snippet
    exec(compile(snippet, "README.md", "exec"), {})


LOC_SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line


# a comment line
class A:
    """Class docstring."""

    x = """a string that is
    no docstring"""

    def f(self):
        \'\'\'Function docstring.\'\'\'
        return os.sep
'''


def test_loc_counts_code_lines_only():
    # CHANGES.md and ROADMAP quote code lines by tests/loc.py: blank
    # lines, comment lines and docstrings are left out, other strings
    # and trailing comments are not
    assert code_lines(LOC_SAMPLE) == 6
    assert code_lines("") == 0
    assert code_lines("def f():\n    return 1\n") == 2


def test_stages_prints_every_stage_of_a_check(capsys):
    # tests/stages.py splits one full-mode check into its stages; its
    # verdict line must agree with the check's
    path = os.path.join(os.path.dirname(__file__), os.pardir, "corpus",
                        "lantern.obk")
    assert stages.main([path, "--repeat", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [line[:24].strip() for line in lines[:-1]]
    assert names == ["parse", "build", "flatten", "local walk + candidates",
                     "rest of walk", "count", "generators", "assembly",
                     "decide"]
    for line in lines[:-1]:
        assert line.endswith(" ms") and float(line[24:-3]) >= 0
    assert lines[-1] == ("verdict NONVANISHING, bounding candidate none, "
                         "22 generators")


@pytest.mark.parametrize("name", ["floer", "front", "heegaard", "mapping",
                                  "nicify", "surface"])
def test_public_functions_are_exactly_the_exported_ones(name):
    # the bench tracer wraps every public function, and calls inside a
    # module go through its globals: a public helper called per column
    # or per move would be wrapped and skew every traced metric
    module = importlib.import_module(f"obfloer.{name}")
    defined = {n for n, fn in vars(module).items()
               if inspect.isfunction(fn) and fn.__module__ == module.__name__
               and not n.startswith("_")}
    exported = {n for n in module.__all__
                if inspect.isfunction(getattr(module, n))}
    assert defined == exported

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


def test_traced_runs_are_well_formed(tmp_path):
    # a traced bench run ends in a JSON result only if every metric is
    # read and finite; run the tracer over all three check modes and a
    # lazy check that falls back to the full complex
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                        "tracer.py")
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    fallback = tmp_path / "torus_abinv3.obk"
    fallback.write_text(BENCH_LADDER["torus_abinv3.obk"])
    runs = [(p, mode) for p in sorted(glob.glob(os.path.join(CORPUS, "*.obk")))
            for mode in ({}, {"lazy": True}, {"rank": True})]
    runs.append((str(fallback), {"lazy": True}))
    tracer = tracer_mod.Tracer([sys.modules[name] for name in sorted(sys.modules)
                                if name.startswith("obfloer.")])
    tracer.install()
    try:
        for book, (p, mode) in enumerate(runs):
            tracer.book = book
            code, _ = obfloer.front.run_check(p, out=io.StringIO(), **mode)
            assert code in (0, 1), (p, mode)
    finally:
        tracer.remove()
    totals = tracer_mod.LayerTotals(tracer.names)
    totals.absorb(tracer.spans, 0, len(runs), 1.0)
    metrics = totals.metrics()
    assert totals.absent() == []
    wanted = (set(tracer_mod.TIME_METRICS) | set(tracer_mod.COUNT_METRICS)
              | {"floer.lazy_fallback_share", "surface.self_ms",
                 "trace.other_ms"})
    assert wanted <= set(metrics)
    assert all(math.isfinite(m["value"]) for m in metrics.values())
    # the pipeline's twist and doubling pass through the traced functions
    for name in ("mapping.apply_word_ms", "mapping.image_crossings",
                 "heegaard.assemble_ms"):
        assert metrics[name]["value"] > 0, name
    json.dumps(metrics, allow_nan=False)


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


@pytest.fixture(scope="module")
def bench_tree(tmp_path_factory):
    # a copy of the bench and what it reads, so that the run's work
    # files and bytecode stay out of the checkout
    tree = tmp_path_factory.mktemp("bench_tree")
    for part in ("bench", "corpus", "src", "tests"):
        shutil.copytree(os.path.join(ROOT, part), tree / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tree


def _reject_constant(name):
    raise ValueError(f"the bench result holds {name}")


@pytest.mark.parametrize("workload, trace", [
    ("small_books", 1), ("census_ladder", 1), ("lazy_ladder", 1),
    ("scale_wall", 1), ("scale_wall", 0)])
def test_bench_runs_end_to_end(bench_tree, workload, trace):
    # the bench is judged on its last stdout line, so every run, traced
    # or not, must end in a well-formed, correct JSON result
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.2", "--trace", str(trace)],
        cwd=bench_tree, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    result = json.loads(lines[-1], parse_constant=_reject_constant)
    assert result["correct"] is True and result["failed"] == 0
    assert not [line for line in lines if line.startswith("absent")]
    if trace:
        with open(os.path.join(ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as fh:
            layers = [m["name"] for m in json.load(fh)["per_layer"]]
        assert len(layers) == 40
        assert set(layers) <= set(result["metrics"])


# public functions that `obfloer check` never calls, each with its reason
UNTRACED = {
    "surface.unoriented_canonical": "reached only through curve targets",
    "surface.geometric_intersection":
        "count checked against brute force; ROADMAP item 17",
    "nicify.finger_move": "isotopy wiggles; ROADMAP item 17",
}


def test_check_reaches_every_public_function(tmp_path):
    # a public function that only tests call is dead weight in the
    # pipeline's layers: trace the checks of the corpus and the bench
    # ladder in every mode, and require a span from each function
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                        "tracer.py")
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    books = sorted(glob.glob(os.path.join(CORPUS, "*.obk")))
    for name, text in BENCH_LADDER.items():
        (tmp_path / name).write_text(text)
        books.append(str(tmp_path / name))
    layers = ("surface", "mapping", "heegaard", "nicify")
    public = set()
    for layer in layers:
        module = importlib.import_module(f"obfloer.{layer}")
        public |= {f"{layer}.{n}" for n, fn in vars(module).items()
                   if inspect.isfunction(fn)
                   and fn.__module__ == module.__name__
                   and not n.startswith("_")}
    assert set(UNTRACED) <= public
    tracer = tracer_mod.Tracer([sys.modules[name] for name in sorted(sys.modules)
                                if name.startswith("obfloer.")])
    tracer.install()
    try:
        for book in books:
            for mode in ({}, {"lazy": True}, {"rank": True}):
                code, _ = obfloer.front.run_check(book, out=io.StringIO(),
                                                  **mode)
                assert code in (0, 1), (book, mode)
    finally:
        tracer.remove()
    spanned = {span[0] for span in tracer.spans}
    assert sorted(public - spanned - set(UNTRACED)) == []
    assert sorted(set(UNTRACED) & spanned) == []
