"""Spans around the package's public functions, and per-layer metrics.

The tracer wraps every public module-level function of the package
under every module name that binds it (`make_nice` is bound in nicify,
floer and front), so calls between layers all pass through a wrapper.
Each call leaves a span: name, start, end, parent span and book id.
A span's self time is its duration minus its children's; the self time
of a function that no metric names is folded into its parent when both
live in one module, and into `<module>.other` otherwise.  Counts are
read from the arguments and results of a few functions, after the pass,
so that counting costs no traced time.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

# metric -> the function whose folded self time it reports, per book
TIME_METRICS = {
    "front.parse_ms": "front.parse_input",
    "front.check_self_ms": "front.run_check",
    "mapping.apply_word_ms": "mapping.apply_word",
    "heegaard.assemble_ms": "heegaard.build_diagram",
    "nicify.make_nice_ms": "nicify.make_nice",
    "nicify.lazy_frontier_ms": "nicify.lazy_frontier",
    "floer.census_ms": "floer.domain_census",
    "floer.generators_ms": "floer.generators",
    "floer.assembly_ms": "floer.boundary_matrix",
    "floer.contact_class_self_ms": "floer.contact_class",
    "floer.decide_ms": "floer.decide_vanishing",
    "floer.rank_ms": "floer.homology_rank",
    "floer.decide_lazy_self_ms": "floer.decide_lazy",
}

# metric -> (the function it is read from, count key), per book
COUNT_METRICS = {
    "nicify.make_nice_calls": ("nicify.make_nice", "calls.nicify.make_nice"),
    "nicify.lazy_frontier_calls": ("nicify.lazy_frontier",
                                   "calls.nicify.lazy_frontier"),
    "floer.census_calls": ("floer.domain_census",
                           "calls.floer.domain_census"),
    "mapping.image_crossings": ("mapping.apply_word", "image_crossings"),
    "heegaard.crossings_pre": ("heegaard.build_diagram", "crossings_pre"),
    "heegaard.regions_pre": ("heegaard.build_diagram", "regions_pre"),
    "nicify.moves": ("nicify.make_nice", "moves"),
    "nicify.regions_post": ("nicify.make_nice", "regions_post"),
    "floer.domains": ("floer.domain_census", "domains"),
    "floer.generators": ("floer.generators", "generators"),
    "floer.move_checks": ("floer.boundary_matrix", "move_checks"),
    "floer.nonzeros": ("floer.boundary_matrix", "nonzeros"),
    "floer.c_block": ("floer.decide_vanishing", "c_block"),
}

# functions whose arguments and result are kept until the pass ends
_KEEP = {"mapping.apply_word", "heegaard.build_diagram", "nicify.make_nice",
         "floer.domain_census", "floer.generators", "floer.boundary_matrix",
         "floer.decide_vanishing", "floer.decide_lazy"}


def _c_block(m, c) -> int:
    """Generators in c's connected component of the differential graph."""
    nbrs = [set(col) for col in m.columns]
    for i, col in enumerate(m.columns):
        for j in col:
            nbrs[j].add(i)
    start = m.generators.index(c)
    seen = {start}
    todo = [start]
    while todo:
        for j in nbrs[todo.pop()]:
            if j not in seen:
                seen.add(j)
                todo.append(j)
    return len(seen)


class Tracer:
    """Installs and removes span-recording wrappers on the package."""

    def __init__(self, modules):
        self.spans = []          # [name, start, end, parent, book, kept]
        self._stack = []
        self.book = -1
        self._bindings = []
        wrappers = {}
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or not fn.__module__.startswith("obfloer.")):
                    continue
                if fn not in wrappers:
                    layer = fn.__module__.rsplit(".", 1)[-1]
                    wrappers[fn] = self._wrap(fn, f"{layer}.{fn.__name__}")
                self._bindings.append((mod, attr, fn, wrappers[fn]))
        self.names = {w.span_name for w in wrappers.values()}

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep = name in _KEEP

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    self.book, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if keep:
                    span[5] = (args, result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        wrapper.span_name = name
        return wrapper

    def install(self):
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def remove(self):
        for mod, attr, fn, _ in self._bindings:
            setattr(mod, attr, fn)

    def write(self, path):
        """Write every span as one JSON list per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, book, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, book]) + "\n")


class LayerTotals:
    """Self times and counts summed over traced passes."""

    def __init__(self, names):
        self.names = names
        self.books = 0
        self.self_s = {}
        self.counts = {}

    def _add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def absorb(self, spans, first, books, scale):
        """Add spans[first:] of one pass, then drop their kept objects.

        Self times are multiplied by scale, the pass's ratio of scaled
        to wall time.
        """
        self.books += books
        named = set(TIME_METRICS.values())
        bucket = {}
        child_s = {}
        census_under = {}
        for i in range(first, len(spans)):
            name, start, end, parent, _, kept = spans[i]
            if parent >= first:
                child_s[parent] = child_s.get(parent, 0.0) + end - start
                if name == "floer.domain_census" and kept is not None:
                    census_under[parent] = (census_under.get(parent, 0)
                                            + len(kept[1]))
        for i in range(first, len(spans)):
            name, start, end, parent, _, kept = spans[i]
            layer = name.split(".", 1)[0]
            if name in named:
                b = name
            elif parent >= first and bucket[parent].split(".", 1)[0] == layer:
                b = bucket[parent]
            else:
                b = layer + ".other"
            bucket[i] = b
            self.self_s[b] = (self.self_s.get(b, 0.0)
                              + (end - start - child_s.get(i, 0.0)) * scale)
            self._add("calls." + name, 1)
            if kept is not None:
                self._count(name, *kept, census_under.get(i, 0))
                spans[i][5] = None

    def _count(self, name, args, result, census_domains):
        add = self._add
        if name == "mapping.apply_word":
            add("image_crossings", sum(len(img.crossings) for img in result))
        elif name == "heegaard.build_diagram":
            add("crossings_pre", result.n_vertices)
            add("regions_pre", len(result.regions))
        elif name == "nicify.make_nice":
            add("moves", (result.n_vertices - args[0].n_vertices) // 2)
            add("regions_post", len(result.regions))
        elif name == "floer.domain_census":
            add("domains", len(result))
        elif name == "floer.generators":
            add("generators", len(result))
        elif name == "floer.boundary_matrix":
            add("move_checks", result.n * census_domains)
            add("nonzeros", sum(len(col) for col in result.columns))
        elif name == "floer.decide_vanishing":
            add("c_block", _c_block(*args[:2]))
        elif name == "floer.decide_lazy":
            add("lazy_verdicts", 1)
            add("lazy_fallbacks", int(result.rank != -1))

    def metrics(self):
        """Per-book self times (ms) and counts.

        A metric whose function no longer exists is left out, and named
        by absent().
        """
        per = 1.0 / max(self.books, 1)
        out = {}
        for key, fn in TIME_METRICS.items():
            if fn in self.names:
                out[key] = {"value": 1000.0 * self.self_s.get(fn, 0.0) * per,
                            "unit": "ms"}
        for key, (fn, count) in COUNT_METRICS.items():
            if fn in self.names:
                out[key] = {"value": self.counts.get(count, 0) * per,
                            "unit": "count"}
        if "floer.decide_lazy" in self.names:
            verdicts = self.counts.get("lazy_verdicts", 0)
            share = (self.counts.get("lazy_fallbacks", 0) / verdicts
                     if verdicts else 0.0)
            out["floer.lazy_fallback_share"] = {"value": share,
                                                "unit": "share"}
        surface = sum(v for k, v in self.self_s.items()
                      if k.startswith("surface."))
        other = sum(v for k, v in self.self_s.items()
                    if k not in TIME_METRICS.values()
                    and not k.startswith("surface."))
        out["surface.self_ms"] = {"value": 1000.0 * surface * per,
                                  "unit": "ms"}
        out["trace.other_ms"] = {"value": 1000.0 * other * per, "unit": "ms"}
        return out

    def absent(self):
        wanted = set(TIME_METRICS.values()) | {
            fn for fn, _ in COUNT_METRICS.values()} | {"floer.decide_lazy"}
        return sorted(wanted - self.names)

    def self_total_s(self):
        return sum(self.self_s.values())
