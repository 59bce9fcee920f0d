"""The benchmark's workloads: which books each one checks, and how.

Every book is written as an `.obk` file, so a timed check is exactly
what `obfloer check FILE` does after import.  The seed fixes the random
draw and the order in which a pass visits the books; the ladders have
no other randomness.
"""

from __future__ import annotations

import glob
import os
import random
from dataclasses import dataclass

SPECS = ((0, 2), (0, 3), (0, 4), (1, 1), (1, 2))
TORUS = "page g=1 b=1\ncurve a: 1+\ncurve b: 2+\n"
LANTERN = ("page g=0 b=4\ncurve d4: 1+ 2+ 3+\ncurve f1: 1+ 3+\n"
           "curve f2: 1+ 2+\n")
LANTERN_WORD = "+d4 -f1 +f2"

# small_books draws this many random books per seed, on top of the corpus
RANDOM_BOOKS = 600


@dataclass(frozen=True)
class Book:
    name: str                # file name, also the report's input= field
    text: str
    lazy: bool = False
    rank: bool = False
    golden: str | None = None    # path of the expected machine report
    positive: bool = False       # every twist letter is positive


@dataclass(frozen=True)
class Workload:
    deadline: float          # per-book limit in seconds
    min_passes: int          # the tail percentile is fixed by this count


WORKLOADS = {
    "small_books": Workload(deadline=2.0, min_passes=1),
    "census_ladder": Workload(deadline=5.0, min_passes=6),
    "lazy_ladder": Workload(deadline=5.0, min_passes=15),
    "scale_wall": Workload(deadline=40.0, min_passes=1),
}


def _book_text(g, b, letters) -> str:
    """An .obk file for a page and (sides, sign) twist letters."""
    lines = [f"page g={g} b={b}"]
    for k, (sides, _) in enumerate(letters, start=1):
        tokens = " ".join(f"{arc}{'+' if s > 0 else '-'}" for arc, s in sides)
        lines.append(f"curve l{k}: {tokens}")
    word = " ".join(f"{'+' if sign > 0 else '-'}l{k}"
                    for k, (_, sign) in enumerate(letters, start=1))
    lines.append(f"twists: {word}".rstrip())
    return "\n".join(lines) + "\n"


def _random_letters(rng, surface, page, lengths):
    """One letter per crossing count in lengths, drawn as the property
    suite draws them; a letter whose curve is rejected is dropped."""
    letters = []
    for length in lengths:
        sides = tuple((rng.randint(1, page.n_arcs), rng.choice((1, -1)))
                      for _ in range(length))
        try:
            surface.parse_curve(page, sides)
        except ValueError:
            continue
        letters.append((sides, rng.choice((1, -1))))
    return letters


def _corpus(root):
    books = []
    for path in sorted(glob.glob(os.path.join(root, "corpus", "*.obk"))):
        name = os.path.basename(path)
        golden = os.path.join(root, "corpus", "golden",
                              name[:-len(".obk")] + ".report")
        with open(path, encoding="utf-8") as fh:
            books.append(Book(name=name, text=fh.read(), golden=golden))
    if not books:
        raise FileNotFoundError("no corpus books under corpus/")
    return books


def _small_books(root, seed, surface):
    """The corpus plus a stratified draw from the property distribution.

    Book i takes page SPECS[i % 5], (i // 5) % 3 letter attempts and
    letter lengths from the bits of (i // 15) % 4, so every seed has the
    same mix of pages, word lengths and letter lengths; the arcs and
    signs are drawn.  Words stop at two letters: three-letter genus-1
    words include census-wall books (about one draw in 2000), and one
    of them moves a run's throughput and memory far more than any
    bound; scale_wall measures the census wall instead.
    """
    rng = random.Random(seed)
    books = _corpus(root)
    for i in range(RANDOM_BOOKS):
        g, b = SPECS[i % 5]
        page = surface.make_page(g, b)
        pattern = (i // 15) % 4
        lengths = (1 + (pattern & 1), 1 + (pattern >> 1))[:(i // 5) % 3]
        letters = _random_letters(rng, surface, page, lengths)
        books.append(Book(name=f"r{i:04d}.obk",
                          text=_book_text(g, b, letters),
                          positive=all(sign > 0 for _, sign in letters)))
    return books


def _ladder():
    out = []
    for k in (2, 3, 4):
        out.append(Book(name=f"torus_ab{k}.obk", positive=True,
                        text=TORUS + "twists: " + " ".join(["+a +b"] * k)
                        + "\n"))
    for k in (1, 2, 3):
        out.append(Book(name=f"torus_abinv{k}.obk",
                        text=TORUS + "twists: " + " ".join(["+a -b"] * k)
                        + "\n"))
    out.append(Book(name="lantern_word1.obk",
                    text=LANTERN + f"twists: {LANTERN_WORD}\n"))
    return out


def make_books(workload, root, seed, surface):
    """The workload's books, in the order the seed gives a pass."""
    if workload == "small_books":
        books = _small_books(root, seed, surface)
    elif workload == "census_ladder":
        books = [Book(b.name, b.text, rank=True, positive=b.positive)
                 for b in _ladder()]
    elif workload == "lazy_ladder":
        books = [Book(b.name, b.text, lazy=True, positive=b.positive)
                 for b in _ladder()]
    elif workload == "scale_wall":
        books = [Book(name="lantern_word1.obk",
                      text=LANTERN + f"twists: {LANTERN_WORD}\n"),
                 Book(name="lantern_word2.obk",
                      text=LANTERN + f"twists: {LANTERN_WORD} {LANTERN_WORD}"
                      + "\n")]
    else:
        raise ValueError(f"unknown workload '{workload}'")
    random.Random(seed).shuffle(books)
    return books


def write_books(books, directory):
    """Write every book; returns the file paths in the same order."""
    paths = []
    for book in books:
        path = os.path.join(directory, book.name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(book.text)
        paths.append(path)
    return paths
