"""End-to-end acceptance checks.

Each test covers one shipped guarantee and appends a single pass/fail
line to RESULTS; the conftest prints the block after the run, so the
log always carries a compact scoreboard.  The census-shape check is a
strict expected failure: the worked four-hole example is supposed to
show one non-disk and one oversized region before flattening, but
minimal-position pushoffs produce two hexagonal disks instead, and we
refuse to fake the fatter layout.  Everything else is green.
"""

import glob
import io
import os
import random
import time

import pytest

from obfloer import floer
from obfloer.floer import (boundary_matrix, contact_class, decide_lazy,
                           decide_vanishing, domain_census, generators,
                           homology_rank)
from obfloer.front import parse_input, run_check
from obfloer.heegaard import build_diagram
from obfloer.mapping import TwistWord, same_action_on_basis
from obfloer.nicify import (elementary_moves, finger_move, lazy_frontier,
                            make_nice)
from obfloer.surface import make_page, parse_curve

from floer_oracle import (as_boundary, oracle_bounds, oracle_complex,
                          oracle_decide, oracle_homology_rank)
from oracles import disk_move
from test_nicify import assert_disk_regions

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")
RESULTS = []
_example = {}


def corpus_path(name):
    return os.path.join(CORPUS, name)


def corpus_files():
    files = sorted(glob.glob(corpus_path("*.obk")))
    assert len(files) == 9
    return files


def boundary_of(m, chain):
    acc = set()
    for x in chain:
        acc ^= set(m.columns[m.generators.index(x)])
    return {m.generators[k] for k in acc}


def lantern_diagram():
    book = parse_input(open(corpus_path("lantern.obk")).read())
    return build_diagram(book.page, book.word)


def test_worked_example_verdict():
    t0 = time.perf_counter()
    code, report = run_check(corpus_path("lantern.obk"), out=io.StringIO())
    wall = time.perf_counter() - t0
    _example["wall"] = wall
    assert code == 0
    assert report.verdict == floer.NONVANISHING
    assert wall < 10.0
    _example["verdict"] = True


@pytest.mark.xfail(strict=True, reason=(
    "minimal-position pushoffs give two hexagonal disk regions before "
    "flattening; the expected single non-disk plus single oversized "
    "region needs a non-minimal curve placement this pipeline never "
    "produces"))
def test_worked_example_census_shape():
    dia = lantern_diagram()
    plain = [reg for r, reg in enumerate(dia.regions) if r != dia.z0_region]
    nondisk = sum(1 for reg in plain if not reg.is_disk)
    oversized = sum(1 for reg in plain
                    if reg.is_disk and not (reg.is_bigon or reg.is_square))
    _example["census"] = (nondisk, oversized)
    assert (nondisk, oversized) == (1, 1)


def test_worked_example_boundary_shape():
    post = make_nice(lantern_diagram())
    c = contact_class(post)
    census = domain_census(post)
    good = []
    for x in generators(post):
        targets = {}
        for dom in census:
            y = disk_move(post, x, dom)
            if y is not None:
                targets.setdefault(y, []).append(dom)
        odd = {y for y, doms in targets.items() if len(doms) % 2 == 1}
        if c not in odd or len(odd) != 2:
            continue
        (y,) = odd - {c}
        shares = tuple(k for k in range(3) if x[k] == c[k])
        if shares == (2,) and any(d.kind == "bigon" for d in targets[y]):
            good.append(x)
    assert good, "no generator differs from c in the first two slots " \
        "with boundary c + y and a bigon to y"
    assert (3, 12, 2) in good
    _example["dx"] = True
    nondisk, oversized = _example.get("census", ("?", "?"))
    verdict = "PASS" if _example.get("verdict") else "not reached"
    RESULTS.append(
        f"worked four-hole example: verdict {verdict} (NONVANISHING, "
        f"{_example.get('wall', 0.0):.2f}s < 10s); d x = c + y PASS "
        "(x = (3, 12, 2) shares only the third contact slot, bigon to y); "
        f"pre-flattening census FAIL expected (got {nondisk} non-disk / "
        f"{oversized} oversized, required 1 / 1: minimal-position pushoffs "
        "never form the non-disk region)")


def test_twist_relation_matches_two_curve_product():
    t0 = time.perf_counter()
    page = make_page(0, 4)
    d1 = parse_curve(page, [(1, 1)])
    d2 = parse_curve(page, [(2, 1)])
    d3 = parse_curve(page, [(3, 1)])
    d4 = parse_curve(page, [(1, 1), (2, 1), (3, 1)])
    f1 = parse_curve(page, [(1, 1), (3, 1)])
    f2 = parse_curve(page, [(1, 1), (2, 1)])
    f3 = parse_curve(page, [(2, 1), (3, 1)])
    lhs = TwistWord(((d1, 1), (d2, 1), (d3, 1), (d4, 1), (f1, -1)))
    rhs = TwistWord(((f2, 1), (f3, 1)))
    assert same_action_on_basis(page, lhs, rhs) is True
    # control: the relation is not an artifact of a trivial comparator
    assert same_action_on_basis(page, lhs, TwistWord(())) is False
    wall = time.perf_counter() - t0
    assert wall < 1.0
    RESULTS.append(
        "four-hole twist relation: PASS (five-letter boundary word acts "
        f"on the arc basis as the two-curve product, {wall:.3f}s < 1s)")


def test_one_band_books_against_brute_force():
    page = make_page(0, 2)
    core = parse_curve(page, [(1, 1)])
    walls = []
    for signs, want, want_rank in [((), floer.NONVANISHING, 2),
                                   ((1,), floer.NONVANISHING, 1),
                                   ((-1,), floer.VANISHING, None)]:
        t0 = time.perf_counter()
        word = TwistWord(tuple((core, s) for s in signs))
        nice = make_nice(build_diagram(page, word))
        m = boundary_matrix(nice)
        c = contact_class(nice)
        v = decide_vanishing(m, c)
        assert v.outcome == want
        if want_rank is not None:
            assert homology_rank(m) == want_rank
        main = {m.generators[i]: {m.generators[k] for k in col}
                for i, col in enumerate(m.columns)}
        gens, bnd = oracle_complex(nice)
        assert sorted(gens) == sorted(m.generators)
        assert all(bnd[x] == main[x] for x in gens)
        assert oracle_homology_rank(gens, bnd) == homology_rank(m)
        bounds, witness = oracle_decide(gens, bnd, c)
        assert bounds == (want == floer.VANISHING)
        if bounds:
            assert boundary_of(m, v.certificate) == {c}
            assert boundary_of(m, witness) == {c}
        walls.append(time.perf_counter() - t0)
        assert walls[-1] < 1.0
    RESULTS.append(
        "one-band books vs brute force: PASS (ranks 2 / 1, negative twist "
        "bounds with a verified chain, matching boundary operators; "
        f"worst case {max(walls):.3f}s < 1s)")


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
                letters.append((parse_curve(page, sides),
                                rng.choice((1, -1))))
            except ValueError:
                continue
        return build_diagram(page, TwistWord(tuple(letters)))


def check_book_properties(dia, rng):
    assert_disk_regions(dia)
    post = make_nice(dia)
    assert_disk_regions(post)
    assert_disk_regions(lazy_frontier(dia))
    assert post.bad_regions() == []
    assert [t for t in post.v_tag if t[0] != "finger"] == dia.v_tag
    assert post.contact_tuple() == dia.contact_tuple()
    m = boundary_matrix(post)
    cols = [set(col) for col in m.columns]
    for col in cols:
        acc = set()
        for k in col:
            acc ^= cols[k]
        assert not acc, "boundary fails to square to zero"
    c = contact_class(post)
    assert m.columns[m.generators.index(c)] == (), \
        "the distinguished generator is not a cycle"
    full = decide_vanishing(m, c)
    assert oracle_bounds(*as_boundary(m), c) == (
        full.outcome == floer.VANISHING)
    assert decide_lazy(dia).outcome == full.outcome
    wiggled = dia
    for _ in range(5):
        moves = list(elementary_moves(wiggled))
        if not moves:
            # a one-region book admits no poke at all: every finger
            # would have to cross the basepoint region
            break
        wiggled = finger_move(wiggled, rng.choice(moves))
        assert_disk_regions(wiggled)
    redone = make_nice(wiggled)
    assert_disk_regions(redone)
    m = boundary_matrix(redone)
    again = decide_vanishing(m, contact_class(redone))
    assert oracle_bounds(*as_boundary(m), contact_class(redone)) == (
        again.outcome == floer.VANISHING)
    assert again.outcome == full.outcome, \
        "verdict changed under gratuitous finger moves"


def test_property_suite():
    t0 = time.perf_counter()
    rng = random.Random(2026)
    count = 0
    for path in corpus_files():
        book = parse_input(open(path).read())
        check_book_properties(build_diagram(book.page, book.word), rng)
        count += 1
    while count < 109:
        check_book_properties(random_book(rng), rng)
        count += 1
    wall = time.perf_counter() - t0
    assert wall < 300.0
    RESULTS.append(
        f"property suite: PASS ({count} books, corpus plus 100 random: "
        "boundary squares to zero, class is a cycle, flattening leaves "
        "only small unpointed regions and keeps the page crossings, lazy "
        "and full verdicts agree, verdicts survive five extra finger "
        f"moves; {wall:.1f}s < 300s)")


def stabilized(text, sign):
    out = []
    arc = None
    for line in text.splitlines():
        if line.startswith("page "):
            g = int(line.split("g=")[1].split()[0])
            b = int(line.split("b=")[1].split()[0])
            arc = 2 * g + b
            out.append(f"page g={g} b={b + 1}")
        elif line.startswith("twists:"):
            out.append(f"curve hopf: {arc}+")
            out.append(line + " " + ("+" if sign > 0 else "-") + "hopf")
        else:
            out.append(line)
    return "\n".join(out) + "\n"


def test_stabilization_preserves_verdict(tmp_path):
    t0 = time.perf_counter()
    for path in corpus_files():
        _, base = run_check(path, out=io.StringIO())
        plus = tmp_path / ("plus_" + os.path.basename(path))
        plus.write_text(stabilized(open(path).read(), +1))
        code, rep = run_check(str(plus), out=io.StringIO())
        assert rep is not None, path
        assert rep.verdict == base.verdict, path
    minus = tmp_path / "minus_annulus_id.obk"
    minus.write_text(stabilized(open(corpus_path("annulus_id.obk")).read(),
                                -1))
    code, rep = run_check(str(minus), out=io.StringIO())
    assert code == 1
    assert rep.verdict == floer.VANISHING
    wall = time.perf_counter() - t0
    assert wall < 30.0
    RESULTS.append(
        "stabilization: PASS (one extra band with a positive twist keeps "
        "all nine corpus verdicts; the negative version kills the annulus "
        f"class; {wall:.2f}s < 30s)")


def test_repeated_runs_are_byte_identical(tmp_path):
    for path in corpus_files():
        stem = os.path.basename(path)[:-4]
        blobs = []
        for tag in ("a", "b"):
            pre = tmp_path / f"{stem}_{tag}_pre.txt"
            post = tmp_path / f"{stem}_{tag}_post.txt"
            _, rep = run_check(path, export_pre=str(pre),
                               export_post=str(post), out=io.StringIO())
            blobs.append((pre.read_bytes(), post.read_bytes(),
                          "\n".join(rep.machine_lines())))
        assert blobs[0] == blobs[1], stem
    RESULTS.append(
        "determinism: PASS (two runs per corpus input, byte-identical "
        "pre/post dumps and machine reports)")
