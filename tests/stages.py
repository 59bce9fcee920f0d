"""The CPU time of each stage of one full-mode check, stage by stage.

Each stage runs --repeat times (default 5) on the previous stage's
result, and the minimum CPU time of a run is printed in ms: parse,
build, flatten, local walk + candidates, rest of walk, count,
generators, assembly and decide.  A check whose candidate bounds pays
the local walk + candidates and the count; the rest of the walk, the
generators, the assembly and decide run whether or not a candidate
bounds, so that a book shows what only a fallback would add.  The
assembly runs on an index that is already walked, so it times the
count and the listing of the generators again, the columns and the
∂² check.
Standard library only.

    python tests/stages.py FILE [--repeat N]
"""

import argparse
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def timed(repeat, fn, *args):
    """fn's result and the least CPU ms of repeat calls."""
    best = None
    for _ in range(repeat):
        t0 = time.process_time()
        out = fn(*args)
        ms = 1000.0 * (time.process_time() - t0)
        best = ms if best is None else min(best, ms)
    return out, best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="stages")
    parser.add_argument("file")
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat takes a positive count")
    from obfloer import floer
    from obfloer.front import parse_input
    from obfloer.heegaard import build_diagram
    from obfloer.nicify import make_nice
    with open(args.file, encoding="utf-8") as fh:
        text = fh.read()
    n = args.repeat
    rows = []
    book, ms = timed(n, parse_input, text)
    rows.append(("parse", ms))
    dia, ms = timed(n, build_diagram, book.page, book.word)
    rows.append(("build", ms))
    nice, ms = timed(n, make_nice, dia)
    rows.append(("flatten", ms))
    c = floer.contact_class(nice)

    def local():
        index = floer._disk_index(nice)
        return index, floer._bounding_candidate(nice, c, index)

    (index, x), ms = timed(n, local)
    rows.append(("local walk + candidates", ms))
    rest = []
    for _ in range(n):
        index, _ = local()
        rest.append(timed(1, floer._walk, index, range(nice.n_vertices))[1])
    rows.append(("rest of walk", min(rest)))
    _, ms = timed(n, floer.count_generators, nice)
    rows.append(("count", ms))
    _, ms = timed(n, floer.generators, nice)
    rows.append(("generators", ms))
    m, ms = timed(n, floer._assemble, nice, index)
    rows.append(("assembly", ms))
    verdict, ms = timed(n, floer.decide_vanishing, m, c)
    rows.append(("decide", ms))
    for name, ms in rows:
        print(f"{name:<24}{ms:10.3f} ms")
    found = "none" if x is None else str(x)
    print(f"verdict {verdict.outcome}, bounding candidate {found}, "
          f"{m.n} generators")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    sys.exit(main())
