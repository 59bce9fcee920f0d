"""The untimed known-answer phase.

After the timed passes every book that returned a verdict gets a known
answer, from the first of these that applies:

  golden      the corpus report, compared byte for byte;
  positive    an all-positive twist word gives a Stein-fillable
              structure, whose contact class is nonzero;
  oracle      the brute-force complex of tests/floer_oracle.py, for
              flattened diagrams with at most 18 unpointed regions;
  other-mode  the verdict of the other mode (lazy against full).  This
              is agreement, not an independent answer, and such books
              are named in the output.
"""

from __future__ import annotations

import io
import os
import sys
from dataclasses import dataclass

from speed import timed_call

# budget for one brute-force oracle run, in reference seconds; a diagram
# near the oracle's 18-region limit would otherwise take hours
ORACLE_SECONDS = 10.0


@dataclass(frozen=True)
class Answer:
    verdict: str
    source: str              # golden, positive, oracle or other-mode
    rank: int | None = None  # homology rank, when the source knows it
    machine: str | None = None   # the golden machine report


def _load_oracle(root):
    sys.path.insert(0, os.path.join(root, "tests"))
    try:
        import floer_oracle
    except ImportError:
        return None
    finally:
        sys.path.pop(0)
    return floer_oracle


def _oracle_answer(oracle, ob, speed, text):
    """Verdict and rank from the brute-force complex, or None if too big."""
    book = ob.front.parse_input(text)
    if book.page.n_arcs == 0:
        return None
    post = ob.nicify.make_nice(ob.heegaard.build_diagram(book.page,
                                                         book.word))
    try:
        *_, found, overran = timed_call(speed, ORACLE_SECONDS,
                                        oracle.oracle_complex, post,
                                        max_regions=18)
    except ValueError:
        return None
    if overran:
        return None
    gens, boundary = found
    # c bounds exactly when the row {c} adds nothing to the image's rank
    c = post.contact_tuple()
    extra = ("contact class row",)
    bounds = (oracle.oracle_rank(gens + [extra], {**boundary, extra: {c}})
              == oracle.oracle_rank(gens, boundary))
    return Answer(verdict="VANISHING" if bounds else "NONVANISHING",
                  source="oracle",
                  rank=oracle.oracle_homology_rank(gens, boundary))


def _other_mode_answer(ob, speed, book, path, deadline):
    *_, found, _ = timed_call(speed, deadline, ob.front.run_check, path,
                              lazy=not book.lazy, out=io.StringIO())
    if found is None or found[1] is None:
        return None
    return Answer(verdict=found[1].verdict, source="other-mode")


def known_answers(ob, speed, root, books, paths, wanted, deadline):
    """Known answer per book index in `wanted`; None where none exists."""
    oracle = _load_oracle(root)
    answers = {}
    by_text = {}
    for i in sorted(wanted):
        book = books[i]
        if book.golden:
            with open(book.golden, encoding="utf-8") as fh:
                machine = fh.read()
            verdict = next(line.split("=", 1)[1]
                           for line in machine.splitlines()
                           if line.startswith("verdict="))
            answers[i] = Answer(verdict=verdict, source="golden",
                                machine=machine)
            continue
        if book.positive:
            answers[i] = Answer(verdict="NONVANISHING", source="positive")
            continue
        key = (book.text, book.lazy)
        if key not in by_text:
            found = (_oracle_answer(oracle, ob, speed, book.text) if oracle
                     else None)
            if found is None:
                found = _other_mode_answer(ob, speed, book, paths[i],
                                           deadline)
            by_text[key] = found
        answers[i] = by_text[key]
    return answers, oracle is not None
