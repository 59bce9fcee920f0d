"""Benchmark for obfloer: time to verdict, decided share and memory.

Run from the repository root:

    python3 bench/run.py --workload census_ladder --seed 1 --seconds 10 \\
        --trace 0

One process checks one book at a time with `obfloer.front.run_check`,
which is what `obfloer check FILE` does after import.  Set-up imports
the package afresh and writes the workload's books, nine times; the
timed phase then repeats whole passes over the books for --seconds
(and at least the workload's minimum number of passes).  An untimed
phase afterwards checks every verdict against a known answer.

With --trace 0 the last line holds the end-to-end metrics; with
--trace 1 untraced and traced passes alternate and it holds per-layer
self times and counts from the traced ones.  The last line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from checks import known_answers  # noqa: E402
from speed import Speed, timed_call  # noqa: E402
from tracer import LayerTotals, Tracer  # noqa: E402
from workloads import WORKLOADS, make_books, write_books  # noqa: E402

SETUP_ROUNDS = 9
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
FAILURES = ("census_cap", "deadline", "error", "wrong_verdict",
            "unconfirmed")
UNITS = {"books_per_s": "1/s", "verdict_p50_ms": "ms",
         "verdict_tail_ms": "ms", "setup_s": "s", "peak_rss_mib": "MiB",
         "decided_share": "share", "front.import_ms": "ms",
         "trace.books_per_s_traced": "1/s",
         "trace.books_per_s_untraced": "1/s",
         "trace.overhead_books_per_s": "1/s", "trace.wall_ms": "ms",
         "trace.accounted_share": "share"}


def load_package():
    """Import obfloer afresh.  Returns (modules by short name, seconds)."""
    for name in [m for m in sys.modules
                 if m == "obfloer" or m.startswith("obfloer.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module("obfloer.front")
    seconds = time.perf_counter() - t0
    mods = {name.rsplit(".", 1)[-1]: mod for name, mod in sys.modules.items()
            if name.startswith("obfloer.")}
    return types.SimpleNamespace(**mods), seconds


def set_up(workload, seed, workdir, speed):
    """Median of SETUP_ROUNDS rounds of import plus writing the books.

    Returns the package, the books and their paths, then the median
    round and import in reference seconds and the median round in wall
    seconds.
    """
    totals, raw, imports = [], [], []
    for _ in range(SETUP_ROUNDS):
        factor = speed.refresh(max_age=0)
        t0 = time.perf_counter()
        ob, import_s = load_package()
        books = make_books(workload, ROOT, seed, ob.surface)
        paths = write_books(books, workdir)
        raw.append(time.perf_counter() - t0)
        totals.append(raw[-1] / factor)
        imports.append(import_s / factor)
    return ob, books, paths, statistics.median(totals), \
        statistics.median(imports), statistics.median(raw)


def _stage(tb):
    """The innermost package function on a traceback."""
    stage = "front.run_check"
    while tb is not None:
        frame = tb.tb_frame
        module = frame.f_globals.get("__name__", "")
        fn = frame.f_globals.get(frame.f_code.co_name)
        if (module.startswith("obfloer.")
                and getattr(fn, "__code__", None) is frame.f_code):
            stage = f"{module.rsplit('.', 1)[-1]}.{frame.f_code.co_name}"
        tb = tb.tb_next
    return stage


def run_pass(ob, books, paths, deadline, attempts, speed, tracer=None):
    """Check every book once.  Returns (reference seconds, wall seconds).

    Each attempt is kept as (book index, reference seconds, Report or
    None, error text or None, wall seconds).  A missed deadline reads
    "deadline in <module.function>", naming the stage that was running.
    """
    scaled_sum = wall_sum = 0.0
    for i, (book, path) in enumerate(zip(books, paths)):
        if tracer is not None:
            tracer.book = len(attempts)
        out = io.StringIO()
        scaled, wall, found, overran = timed_call(
            speed, deadline, ob.front.run_check, path, lazy=book.lazy,
            rank=book.rank, out=out)
        if overran:
            report, error = None, f"deadline in {_stage(overran)}"
        else:
            report = found[1]
            error = None if report else out.getvalue().strip()
        attempts.append((i, scaled, report, error, wall))
        scaled_sum += scaled
        wall_sum += wall
    return scaled_sum, wall_sum


def tail(times, sample_floor):
    """Highest listed percentile with ten samples beyond it.

    The percentile is chosen from sample_floor, the fewest samples any
    run of the workload takes, so it is the same in every run.  With
    fewer than eleven samples it is the maximum.
    """
    qualified = [q for q in TAIL_PERCENTILES
                 if sample_floor * (1 - q / 100) >= 10]
    ordered = sorted(times)
    if not qualified:
        return 100.0, ordered[-1]
    q = qualified[-1]
    return q, ordered[math.ceil(q / 100 * len(ordered)) - 1]


def classify(books, attempts, answers):
    """Failure counts by kind, decided attempts, and books answered wrong."""
    fails = dict.fromkeys(FAILURES, 0)
    wrong = set()
    decided = 0
    for i, _, report, error, _ in attempts:
        if report is None:
            kind = ("deadline" if error.startswith("deadline")
                    else "census_cap" if "state cap" in error else "error")
        elif answers[i] is None:
            kind = "unconfirmed"
        else:
            ans = answers[i]
            machine = "\n".join(report.machine_lines()) + "\n"
            if (report.verdict != ans.verdict
                    or (ans.machine is not None and machine != ans.machine)
                    or (ans.rank is not None and report.rank is not None
                        and report.rank != ans.rank)):
                kind = "wrong_verdict"
                wrong.add(books[i].name)
            else:
                decided += 1
                continue
        fails[kind] += 1
    return fails, decided, wrong


def timed_passes(ob, books, paths, wl, seconds, speed, attempts):
    """End-to-end metrics of untraced passes, and an unscaled summary."""
    rates, wall_rates = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(rates) < wl.min_passes:
        scaled, wall = run_pass(ob, books, paths, wl.deadline, attempts,
                                speed)
        rates.append(len(books) / scaled)
        wall_rates.append(len(books) / wall)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    floor = wl.min_passes * len(books)
    times = [a[1] for a in attempts]
    walls = [a[4] for a in attempts]
    q, tail_s = tail(times, floor)
    metrics = {"books_per_s": statistics.median(rates),
               "verdict_p50_ms": 1000 * statistics.median(times),
               "verdict_tail_ms": 1000 * tail_s,
               "peak_rss_mib": peak_mib}
    unscaled = {"books_per_s": statistics.median(wall_rates),
                "verdict_p50_ms": 1000 * statistics.median(walls),
                "verdict_tail_ms": 1000 * tail(walls, floor)[1]}
    notes = [f"verdict_tail_ms: p{q:g} of {len(times)} samples"]
    return metrics, unscaled, notes, len(rates)


def traced_passes(ob, books, paths, wl, seconds, speed, attempts, spans):
    """Per-layer metrics; untraced and traced passes alternate."""
    tracer = Tracer(vars(ob).values())
    totals = LayerTotals(tracer.names)
    plain, traced, traced_s = [], [], 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not traced:
        scaled, _ = run_pass(ob, books, paths, wl.deadline, attempts, speed)
        plain.append(len(books) / scaled)
        first = len(tracer.spans)
        tracer.install()
        try:
            scaled, wall = run_pass(ob, books, paths, wl.deadline, attempts,
                                    speed, tracer)
        finally:
            tracer.remove()
        traced.append(len(books) / scaled)
        traced_s += scaled
        totals.absorb(tracer.spans, first, len(books), scaled / wall)
    tracer.write(spans)
    metrics = totals.metrics()
    metrics["trace.books_per_s_traced"] = statistics.median(traced)
    metrics["trace.books_per_s_untraced"] = statistics.median(plain)
    metrics["trace.overhead_books_per_s"] = (
        metrics["trace.books_per_s_traced"]
        - metrics["trace.books_per_s_untraced"])
    metrics["trace.wall_ms"] = 1000 * traced_s / totals.books
    metrics["trace.accounted_share"] = totals.self_total_s() / traced_s
    notes = []
    if totals.absent():
        notes.append("absent (function gone): " + " ".join(totals.absent()))
    return metrics, notes, len(plain) + len(traced)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    work = os.path.join(ROOT, ".bench_work")
    workdir = os.path.join(work, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    speed = Speed()
    attempts = []
    try:
        ob, books, paths, setup_s, import_s, setup_wall_s = set_up(
            args.workload, args.seed, workdir, speed)
        if args.trace:
            spans = os.path.join(
                work, f"spans-{args.workload}-{args.seed}.jsonl")
            metrics, notes, passes = traced_passes(
                ob, books, paths, wl, args.seconds, speed, attempts, spans)
            metrics["front.import_ms"] = 1000 * import_s
        else:
            metrics, unscaled, notes, passes = timed_passes(
                ob, books, paths, wl, args.seconds, speed, attempts)
            metrics["setup_s"] = setup_s
            unscaled["setup_s"] = setup_wall_s
            notes.append("unscaled: " + json.dumps(unscaled))
        wanted = {a[0] for a in attempts if a[2] is not None}
        answers, have_oracle = known_answers(ob, speed, ROOT, books, paths,
                                             wanted, wl.deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    fails, decided, wrong = classify(books, attempts, answers)
    if args.trace:
        for kind in FAILURES:
            metrics[f"fail.{kind}"] = fails[kind]
    else:
        metrics["decided_share"] = decided / len(attempts)

    print("env: " + json.dumps({
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload, "seed": args.seed,
        "deadline_s": wl.deadline, "books_per_pass": len(books),
        "passes": passes, "oracle": have_oracle,
        "slowdown_median": statistics.median(speed.samples),
        "slowdown_range": [min(speed.samples), max(speed.samples)]}))
    for line in notes:
        print(line)
    other = sorted({books[i].name for i, a in answers.items()
                    if a is not None and a.source == "other-mode"})
    if other:
        print("no independent answer (lazy and full agree): "
              + " ".join(other))
    for line in sorted({f"{books[i].name}: {error or 'unconfirmed'}"
                        for i, _, report, error, _ in attempts
                        if report is None or answers[i] is None}):
        print("failed " + line)
    if wrong:
        print("WRONG verdicts: " + " ".join(sorted(wrong)))
    out = {key: value if isinstance(value, dict)
           else {"value": value, "unit": UNITS.get(key, "count")}
           for key, value in metrics.items()}
    print(json.dumps({"correct": not wrong, "attempted": len(attempts),
                      "failed": len(attempts) - decided, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
