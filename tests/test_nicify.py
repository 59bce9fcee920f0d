import glob
import os
import random
import signal

import pytest

from obfloer.front import parse_input
from obfloer.heegaard import build_diagram
from obfloer.mapping import TwistWord
from obfloer.nicify import (FingerMoveSpec, elementary_moves, finger_move,
                            lazy_frontier, make_nice)
from obfloer.surface import make_page, parse_curve

from test_front import BENCH_LADDER, CORPUS, LANTERN

annulus = make_page(0, 2)
four_holed = make_page(0, 4)


def assert_disk_regions(diagram):
    """Every unpointed region is a disk with one boundary cycle, and a β
    edge with one region on both sides has the basepoint one there
    (docs/conventions.md, "Every region but the basepoint one is a
    disk")."""
    for r, reg in enumerate(diagram.regions):
        if r != diagram.z0_region:
            assert reg.euler == 1 and len(reg.cycles) == 1, r
    for e, (fam, _) in enumerate(diagram.edge_label):
        r = diagram.he_region[2 * e]
        if fam == "b" and diagram.he_region[2 * e + 1] == r:
            assert r == diagram.z0_region, e


def region_shapes(diagram):
    return sorted((r.euler, r.corner_count, len(r.cycles),
                   k == diagram.z0_region)
                  for k, r in enumerate(diagram.regions))


def lantern_book():
    """Boundary twists times one negative interior twist on S_{0,4}."""
    d1 = parse_curve(four_holed, [(1, 1)])
    d2 = parse_curve(four_holed, [(2, 1)])
    d3 = parse_curve(four_holed, [(3, 1)])
    d4 = parse_curve(four_holed, [(1, 1), (2, 1), (3, 1)])
    f1 = parse_curve(four_holed, [(1, 1), (3, 1)])
    word = TwistWord(((d1, 1), (d2, 1), (d3, 1), (d4, 1), (f1, -1)))
    return build_diagram(four_holed, word)


def random_book(rng):
    specs = [(0, 2), (0, 3), (0, 4), (1, 1), (1, 2)]
    while True:
        g, b = rng.choice(specs)
        page = make_page(g, b)
        letters = []
        for _ in range(rng.randint(0, 4)):
            ln = rng.randint(1, 2)
            sides = tuple((rng.randint(1, page.n_arcs), rng.choice((1, -1)))
                          for _ in range(ln))
            try:
                letters.append((parse_curve(page, sides), rng.choice((1, -1))))
            except ValueError:
                continue
        return build_diagram(page, TwistWord(tuple(letters)))


def test_lantern_flattening_census_and_trace():
    dia = lantern_book()
    assert dia.n_vertices == 10
    # three squares, two hexagons, and the pointed 16-gon
    assert region_shapes(dia) == [
        (1, 4, 1, False), (1, 4, 1, False), (1, 4, 1, False),
        (1, 6, 1, False), (1, 6, 1, False), (1, 16, 1, True)]
    assert dia.bad_regions() == [1, 3]

    lines = []
    nice = make_nice(dia, trace=lines.append)
    assert lines == [
        "finger region=1 sides=6 crossings=1 rest=0 vertices=12",
        "finger region=3 sides=6 crossings=1 rest=0 vertices=14"]
    assert nice.n_vertices == 14
    assert nice.bad_regions() == []
    assert region_shapes(nice) == [
        (1, 2, 1, False), (1, 2, 1, False),
        (1, 4, 1, False), (1, 4, 1, False), (1, 4, 1, False),
        (1, 4, 1, False), (1, 4, 1, False), (1, 4, 1, False),
        (1, 4, 1, False), (1, 24, 1, True)]
    # the input diagram is untouched
    assert dia.n_vertices == 10


def test_make_nice_is_idempotent():
    nice = make_nice(lantern_book())
    assert make_nice(nice) is nice


def test_lazy_frontier_lantern_matches_full():
    # both oversized regions touch the page crossings here, so the lazy
    # pass flattens everything the full pass does
    lz = lazy_frontier(lantern_book())
    assert lz.n_vertices == 14
    assert lz.bad_regions() == []


def test_nicification_preserves_page_data():
    dia = lantern_book()
    nice = make_nice(dia)
    assert [t for t in nice.v_tag if t[0] != "finger"] == dia.v_tag
    assert nice.contact_tuple() == dia.contact_tuple()
    assert nice.z0_region == dia.z0_region


def test_each_poke_adds_two_crossings():
    dia = lantern_book()
    for move in list(elementary_moves(dia))[:12]:
        out = finger_move(dia, move)
        assert out.n_vertices == dia.n_vertices + 2 * len(move.crossings)
        out.validate()


def test_finger_move_rejects_bad_specs():
    dia = lantern_book()
    move = next(iter(elementary_moves(dia)))
    with pytest.raises(TypeError, match="FingerMoveSpec"):
        finger_move(dia, (move.source, move.crossings, move.terminal))
    with pytest.raises(ValueError, match="at least one"):
        finger_move(dia, FingerMoveSpec(move.source, (), move.terminal))
    with pytest.raises(ValueError, match="does not exist"):
        finger_move(dia, FingerMoveSpec(10 ** 6, move.crossings,
                                        move.terminal))
    # a half-edge of the wrong family on either end
    a_half = next(h for h in range(2 * dia.n_edges)
                  if dia.label(h)[0] == "a")
    b_half = next(h for h in range(2 * dia.n_edges)
                  if dia.label(h)[0] == "b")
    with pytest.raises(ValueError, match="b family"):
        finger_move(dia, FingerMoveSpec(a_half, move.crossings,
                                        move.terminal))
    with pytest.raises(ValueError, match="a family"):
        finger_move(dia, FingerMoveSpec(move.source, (b_half,),
                                        move.terminal))
    with pytest.raises(ValueError, match="not the declared terminal"):
        finger_move(dia, FingerMoveSpec(move.source, move.crossings,
                                        move.terminal + 1))


def test_finger_move_rejects_detached_crossing():
    dia = lantern_book()
    move = next(iter(elementary_moves(dia)))
    enter = dia.he_region[move.source]
    off = next(h for h in range(2 * dia.n_edges)
               if dia.label(h)[0] == "a" and dia.he_region[h] != enter)
    with pytest.raises(ValueError, match="does not bound"):
        finger_move(dia, FingerMoveSpec(move.source, (off,), move.terminal))


def test_basepoint_region_is_never_pushed_through():
    dia = lantern_book()
    z = dia.z0_region
    b_half = next(h for h in range(2 * dia.n_edges)
                  if dia.label(h)[0] == "b" and dia.he_region[h] == z)
    a_half = next(h for h in dia.regions[z].cycles[0]
                  if dia.label(h)[0] == "a")
    with pytest.raises(ValueError, match="basepoint region"):
        finger_move(dia, FingerMoveSpec(b_half, (a_half,), 0))


def test_flattening_rejects_a_non_disk_region():
    # the identity annulus book is flat, but moving the basepoint onto a
    # bigon exposes the annular region, which no doubled page produces
    dia = build_diagram(annulus, TwistWord(()))
    wrapped = dia.clone()
    ring = next(r for r, reg in enumerate(wrapped.regions)
                if len(reg.cycles) == 2)
    bigon = next(r for r, reg in enumerate(wrapped.regions) if reg.is_bigon)
    wrapped.z0_region = bigon
    wrapped.validate()
    assert wrapped.bad_regions() == [ring]

    with pytest.raises(ValueError, match=f"region {ring} is not a disk"):
        make_nice(wrapped)
    cycles = wrapped.regions[ring].cycles
    b_half = next(h for cyc in cycles for h in cyc
                  if wrapped.label(h)[0] == "b")
    a_half = next(h for cyc in cycles for h in cyc
                  if wrapped.label(h)[0] == "a")
    with pytest.raises(ValueError, match="only pass through a disk"):
        finger_move(wrapped, FingerMoveSpec(
            b_half, (a_half,), wrapped.he_region[wrapped.twin(a_half)]))


def test_random_books_flatten_clean():
    rng = random.Random(411)
    for _ in range(40):
        dia = random_book(rng)
        assert_disk_regions(dia)
        nice = make_nice(dia)
        assert_disk_regions(nice)
        assert nice.bad_regions() == []
        nice.validate()
        assert [t for t in nice.v_tag if t[0] != "finger"] == dia.v_tag
        assert nice.contact_tuple() == dia.contact_tuple()
        assert make_nice(nice) is nice
        lz = lazy_frontier(dia)
        lz.validate()
        assert_disk_regions(lz)
        contact = set(lz.contact_tuple())
        for r in lz.bad_regions():
            touched = {lz.he_origin[h]
                       for cyc in lz.regions[r].cycles for h in cyc}
            assert not touched & contact


def test_doubled_pages_have_disk_regions():
    # the identity books on these pages, then the corpus and the bench
    # ladder, built and flattened both ways
    diagrams = [build_diagram(make_page(g, b), TwistWord(()))
                for g, b in ((0, 2), (0, 3), (0, 5), (1, 1), (1, 2),
                             (2, 1), (2, 3), (3, 2))]
    texts = [open(p).read() for p in sorted(glob.glob(os.path.join(
        CORPUS, "*.obk")))]
    texts += list(BENCH_LADDER.values())
    texts.append(LANTERN + "twists: +d4 -f1 +f2 +d4 -f1 +f2\n")
    for text in texts:
        book = parse_input(text)
        dia = build_diagram(book.page, book.word)
        diagrams += [dia, lazy_frontier(dia), make_nice(dia)]
    for dia in diagrams:
        assert_disk_regions(dia)


@pytest.mark.xfail(raises=TimeoutError, strict=True,
                   reason="the flattening planner spins on this book")
def test_flattening_spins_on_a_genus_one_book():
    # each finger chops a hexagon or octagon and leaves a new one; the
    # move budget (63,568 pokes here) is never reached in practice
    book = parse_input("page g=1 b=1\ncurve a: 1+\n"
                       "curve d: 1+ 2+ 1- 2-\ntwists: -a -d\n")
    dia = build_diagram(book.page, book.word)

    def expire(signum, frame):
        raise TimeoutError("make_nice still running after 2 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(2)
    try:
        make_nice(dia)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
