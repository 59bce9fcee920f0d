import glob
import hashlib
import importlib.util
import io
import os
import random
import re
import subprocess
import sys

import pytest

from obfloer import floer, surface
from obfloer.floer import (BoundaryMatrix, boundary_matrix, contact_class,
                           decide_lazy, decide_vanishing, domain_census,
                           generators, homology_rank)
from obfloer.front import parse_input, run_check
from obfloer.heegaard import build_diagram
from obfloer.mapping import TwistWord
from obfloer.nicify import lazy_frontier, make_nice
from obfloer.surface import make_page, parse_curve

from census_oracle import oracle_bigons, oracle_census
from floer_oracle import (as_boundary, oracle_bounds, oracle_complex,
                          oracle_decide, oracle_generators,
                          oracle_homology_rank)
from oracles import disk_move, oracle_columns, oracle_torus_h1_order
from test_acceptance import random_book as property_book
from test_front import BENCH_LADDER, CORPUS, LANTERN, torus_word

annulus = make_page(0, 2)
four_holed = make_page(0, 4)
core = parse_curve(annulus, [(1, 1)])


def annulus_book(*signs):
    word = TwistWord(tuple((core, s) for s in signs))
    return build_diagram(annulus, word)


def lantern_book():
    d1 = parse_curve(four_holed, [(1, 1)])
    d2 = parse_curve(four_holed, [(2, 1)])
    d3 = parse_curve(four_holed, [(3, 1)])
    d4 = parse_curve(four_holed, [(1, 1), (2, 1), (3, 1)])
    f1 = parse_curve(four_holed, [(1, 1), (3, 1)])
    word = TwistWord(((d1, 1), (d2, 1), (d3, 1), (d4, 1), (f1, -1)))
    return build_diagram(four_holed, word)


def boundary_of(m, chain):
    acc = set()
    for x in chain:
        acc ^= set(m.columns[m.generators.index(x)])
    return {m.generators[k] for k in acc}


def test_identity_annulus_complex():
    nice = make_nice(annulus_book())
    assert generators(nice) == [(0,), (1,)]
    census = domain_census(nice)
    assert [d.kind for d in census] == ["bigon", "bigon"]
    m = boundary_matrix(nice)
    # the two bigons connect the same pair, so they cancel over GF(2)
    assert m.columns == ((), ())
    assert homology_rank(m) == 2
    v = decide_vanishing(m, contact_class(nice))
    assert v.outcome == floer.NONVANISHING
    # the rank of c's closure block, which is empty here
    assert v.rank == 0


def test_positive_core_twist_complex():
    nice = make_nice(annulus_book(1))
    m = boundary_matrix(nice)
    assert m.n == 1
    assert domain_census(nice) == []
    assert homology_rank(m) == 1
    assert decide_vanishing(m, contact_class(nice)).outcome == \
        floer.NONVANISHING


def test_negative_core_twist_complex():
    nice = make_nice(annulus_book(-1))
    m = boundary_matrix(nice)
    assert m.n == 3
    c = contact_class(nice)
    assert c == (0,)
    assert m.columns == ((), (0,), (0,))
    assert homology_rank(m) == 1
    v = decide_vanishing(m, c)
    assert v.outcome == floer.VANISHING
    assert v.rank == 1      # closure rank: row c, columns 1 and 2
    # the bounding chain really bounds
    assert boundary_of(m, v.certificate) == {c}


@pytest.mark.parametrize("signs", [(), (1,), (-1,)])
def test_hopf_triple_against_brute_force(signs):
    nice = make_nice(annulus_book(*signs))
    m = boundary_matrix(nice)
    main = {m.generators[i]: {m.generators[k] for k in col}
            for i, col in enumerate(m.columns)}
    gens, bnd = oracle_complex(nice)
    assert sorted(gens) == sorted(m.generators)
    assert all(bnd[x] == main[x] for x in gens)
    assert oracle_homology_rank(gens, bnd) == homology_rank(m)
    c = contact_class(nice)
    bounds, witness = oracle_decide(gens, bnd, c)
    v = decide_vanishing(m, c)
    assert bounds == (v.outcome == floer.VANISHING)
    if bounds:
        assert boundary_of(m, witness) == {c}


def test_lantern_complex():
    nice = make_nice(lantern_book())
    m = boundary_matrix(nice)
    assert m.n == 22
    # the census drops a 15th disk that has two corners on one β circle
    assert len(domain_census(nice)) == 14
    c = contact_class(nice)
    assert c == (0, 1, 2)
    v = decide_vanishing(m, c)
    assert v.outcome == floer.NONVANISHING
    assert v.rank == 2      # closure rank: 3 rows, 3 columns
    assert homology_rank(m) == 2
    # the functional certificate kills every boundary and hits c
    phi = set(v.certificate)
    assert c in phi
    for col in m.columns:
        assert len(phi & {m.generators[k] for k in col}) % 2 == 0


def test_lantern_against_brute_force():
    nice = make_nice(lantern_book())
    m = boundary_matrix(nice)
    main = {m.generators[i]: {m.generators[k] for k in col}
            for i, col in enumerate(m.columns)}
    gens, bnd = oracle_complex(nice)
    assert sorted(gens) == sorted(m.generators)
    assert all(bnd[x] == main[x] for x in gens)
    assert oracle_homology_rank(gens, bnd) == 2


def test_lantern_boundary_hits_contact_class():
    # some generator sharing only the third page crossing has dx = c + y,
    # where the domain into c is a rectangle and the one into y a bigon
    nice = make_nice(lantern_book())
    c = contact_class(nice)
    census = domain_census(nice)
    hits = []
    for x in generators(nice):
        pairs = [(dom, y) for dom in census
                 if (y := disk_move(nice, x, dom)) is not None]
        targets = set()
        for _dom, y in pairs:
            targets ^= {y}
        if c in targets:
            hits.append((x, pairs))
    shaped = [(x, pairs) for x, pairs in hits
              if x[2] == c[2] and x[0] != c[0] and x[1] != c[1]]
    assert shaped
    x, pairs = shaped[0]
    assert x == (3, 12, 2)
    kinds = {y: dom.kind for dom, y in pairs}
    assert kinds[c] == "rectangle"
    assert len(pairs) == 2
    other = next(y for y in kinds if y != c)
    assert kinds[other] == "bigon"


def test_lazy_disks_into_c_match_the_all_pairs_rule():
    # decide_lazy's scan names the generators an odd number of census
    # disks move to c; disk_move, tried on every generator, must agree
    texts = [open(p).read()
             for p in sorted(glob.glob(os.path.join(CORPUS, "*.obk")))]
    texts += list(BENCH_LADDER.values())
    texts += [torus_word("+a +b", k) for k in (4, 5, 6)]
    texts += [torus_word("+a -b", k) for k in (3, 4)]
    diagrams = [build_diagram(book.page, book.word)
                for book in map(parse_input, texts)]
    for seed in range(2026, 2036):
        rng = random.Random(seed)
        diagrams += [property_book(rng) for _ in range(100)]
    partial = into_c = 0
    for dia in diagrams:
        lz = lazy_frontier(dia)
        if not lz.bad_regions():
            continue
        c = lz.contact_tuple()
        census = domain_census(lz)
        expected = set()
        for x in generators(lz):
            for dom in census:
                if disk_move(lz, x, dom) == c:
                    expected ^= {x}
        assert floer._sources_into_c(lz) == expected
        partial += 1
        into_c += bool(expected)
    assert partial >= 20 and into_c >= 15


def test_census_matches_region_union_oracle():
    paths = sorted(glob.glob(os.path.join(CORPUS, "*.obk")))
    diagrams = []
    for text in [open(p).read() for p in paths] + list(BENCH_LADDER.values()):
        book = parse_input(text)
        diagrams.append(build_diagram(book.page, book.word))
    for seed in (2026, 2126, 2226, 2326):
        rng = random.Random(seed)
        diagrams += [property_book(rng) for _ in range(100)]
    domains = 0
    for dia in diagrams:
        for flat in (make_nice(dia), lazy_frontier(dia)):
            census = domain_census(flat)
            assert census == oracle_census(flat)
            domains += len(census)
    assert domains > 2000


# sha256 of repr(domain_census(...)) for censuses far past the
# region-union oracle; book, flattening, disk count
LARGE_CENSUS_SHA256 = {
    ("lantern_word2", "make_nice", 9638):
        "3ade5d621b33d2b1508db6f33e1c3ffae5ed5e46c1724337d16902934375b28d",
    ("lantern_word2", "lazy_frontier", 2430):
        "aab860bc21d351429de9bee917691be4b99501832fb5dd8e0d5440f815819b3a",
    ("torus_abinv4", "make_nice", 3064):
        "8aebbe5fc83d4bf9074a1334c5d0775ed1dabf8fdc07692ae71e3f8a74829d84",
}


def test_large_censuses_are_pinned():
    books = {"lantern_word2": LANTERN + "twists: +d4 -f1 +f2 +d4 -f1 +f2\n",
             "torus_abinv4": torus_word("+a -b", 4)}
    flatten = {"make_nice": make_nice, "lazy_frontier": lazy_frontier}
    got = {}
    for name, how, _ in LARGE_CENSUS_SHA256:
        book = parse_input(books[name])
        census = domain_census(flatten[how](build_diagram(book.page,
                                                          book.word)))
        got[name, how, len(census)] = hashlib.sha256(
            repr(census).encode()).hexdigest()
    assert got == LARGE_CENSUS_SHA256


# sha256 of repr(boundary_matrix(make_nice(...)).columns) for complexes
# past the all-pairs oracle; book, generators, nonzeros
LARGE_COLUMNS_SHA256 = {
    ("lantern_word2", 25704, 86249):
        "a63ea5fcca9840fae7d0c233dd238cee1b9d7e82dc4f86c53409519192061e12",
    ("torus_abinv4", 879, 1658):
        "4e7ee5a5f1f05371ddb9ad4402d61734238022320749585c4666c82878b8331e",
}


def test_large_columns_are_pinned():
    books = {"lantern_word2": LANTERN + "twists: +d4 -f1 +f2 +d4 -f1 +f2\n",
             "torus_abinv4": torus_word("+a -b", 4)}
    got = {}
    for name, _, _ in LARGE_COLUMNS_SHA256:
        book = parse_input(books[name])
        m = boundary_matrix(make_nice(build_diagram(book.page, book.word)))
        got[name, m.n, sum(map(len, m.columns))] = hashlib.sha256(
            repr(m.columns).encode()).hexdigest()
    assert got == LARGE_COLUMNS_SHA256


# torus (ab)^6 after make_nice, recorded with the boundary-trace bigon
# walk: 4,344 generators, 11,340 nonzeros, 316 bigons and 10,064
# rectangles; sha256 of repr(domain_census(...)) and of
# repr(boundary_matrix(...).columns)
AB6_CENSUS_SHA256 = (
    "8339a0b48417b7081355056e144547ab652366b5c20adaa25c1fd6cd0a3825f8")
AB6_COLUMNS_SHA256 = (
    "a56b819da42268a01c446663ab04c8b946fa1e70682de3c0514615079274098f")


def test_bigon_heavy_complex_is_pinned():
    book = parse_input(torus_word("+a +b", 6))
    nice = make_nice(build_diagram(book.page, book.word))
    census = domain_census(nice)
    assert [sum(d.kind == kind for d in census)
            for kind in ("bigon", "rectangle")] == [316, 10064]
    assert hashlib.sha256(repr(census).encode()).hexdigest() == (
        AB6_CENSUS_SHA256)
    m = boundary_matrix(nice)
    assert (m.n, sum(map(len, m.columns))) == (4344, 11340)
    assert hashlib.sha256(repr(m.columns).encode()).hexdigest() == (
        AB6_COLUMNS_SHA256)


def test_bigon_walk_matches_the_boundary_trace():
    # the walk from each bigon tile emits exactly the bigons that tracing
    # every boundary loop and flooding it finds, masks included
    texts = [open(p).read()
             for p in sorted(glob.glob(os.path.join(CORPUS, "*.obk")))]
    texts += list(BENCH_LADDER.values())
    texts += [LANTERN + "twists: +d4 -f1 +f2 +d4 -f1 +f2\n",
              torus_word("+a -b", 4), torus_word("+a +b", 6)]
    diagrams = []
    for text in texts:
        book = parse_input(text)
        diagrams.append(build_diagram(book.page, book.word))
    for seed in (2026, 11):
        rng = random.Random(seed)
        diagrams += [property_book(rng) for _ in range(200)]
    bigons = 0
    for dia in diagrams:
        for flat in (make_nice(dia), lazy_frontier(dia)):
            walked = []

            def keep(swap, regions, passthrough):
                if len(swap) == 1:
                    walked.append((swap, regions, passthrough))

            floer.walk_domains(flat, keep)
            assert sorted(walked) == sorted(oracle_bigons(flat))
            bigons += len(walked)
    assert bigons > 3000


@pytest.mark.parametrize("skipped", [((1, 15, 3), (2, 7, 17)),
                                     ((1, 4, 13),)])
def test_square_zero_check_catches_a_missing_disk(monkeypatch, skipped):
    # on torus (ab)^3, dropping this one rectangle, or this one bigon,
    # from the walk leaves a matrix whose square is not zero
    book = parse_input(torus_word("+a +b", 3))
    nice = make_nice(build_diagram(book.page, book.word))
    walk = floer.walk_domains
    dropped = []

    def without(diagram, emit):
        def keep(swap, regions, passthrough):
            if swap == skipped:
                dropped.append(swap)
            else:
                emit(swap, regions, passthrough)
        walk(diagram, keep)

    monkeypatch.setattr(floer, "walk_domains", without)
    with pytest.raises(RuntimeError, match="fails to square to zero"):
        boundary_matrix(nice)
    assert dropped == [skipped]


@pytest.mark.parametrize("times", [4, 3])
def test_square_zero_check_counts_composite_hits_mod_2(times):
    # generator 0 reaches generator times + 1 through each of the
    # generators 1..times: an even count cancels, an odd one is a fault
    last = times + 1
    m = BoundaryMatrix(
        generators=tuple((k,) for k in range(last + 1)),
        columns=(tuple(range(1, last)),) + ((last,),) * times + ((),))
    if times % 2:
        with pytest.raises(RuntimeError, match=(
                rf"fails to square to zero on generator \(0,\); "
                rf"composite hits \[\({last},\)\]")):
            floer._check_square_zero(m)
    else:
        floer._check_square_zero(m)


def test_decision_path_builds_no_census_list(tmp_path, monkeypatch):
    # assembly and the lazy scan read walk_domains directly: with the
    # sorted census view broken, every mode reports as before
    books = {"lantern_word1": BENCH_LADDER["lantern_word1.obk"],
             "torus_ab4": torus_word("+a +b", 4),
             "torus_abinv3": torus_word("+a -b", 3)}
    modes = [dict(lazy=lazy, rank=rank)
             for lazy in (False, True) for rank in (False, True)]

    def reports():
        out = []
        for name, text in books.items():
            path = tmp_path / f"{name}.obk"
            path.write_text(text)
            for mode in modes:
                code, rep = run_check(str(path), **mode, out=io.StringIO())
                out.append((code, rep.machine_lines()))
        return out

    expected = reports()

    def no_census(diagram):
        raise AssertionError("the decision path built the census list")

    monkeypatch.setattr(floer, "domain_census", no_census)
    assert reports() == expected


@pytest.mark.parametrize("letters, k, outcome", [
    ("+a -b", 1, floer.VANISHING), ("+a -b", 2, floer.VANISHING),
    ("+a -b", 3, floer.VANISHING), ("+a -b", 4, floer.VANISHING),
    ("+a +b", 2, floer.NONVANISHING), ("+a +b", 3, floer.NONVANISHING),
    ("+a +b", 4, floer.NONVANISHING), ("+a +b", 5, floer.NONVANISHING)])
def test_torus_rank_is_h1_order(letters, k, outcome):
    # these books are L-spaces, so the rank is |H_1|; positive words are
    # Stein fillable, and (a b^-1)^k is not right-veering
    book = parse_input(torus_word(letters, k))
    nice = make_nice(build_diagram(book.page, book.word))
    m = boundary_matrix(nice)
    assert homology_rank(m) == oracle_torus_h1_order(book.letters)
    assert decide_vanishing(m, contact_class(nice)).outcome == outcome


@pytest.mark.parametrize("k, rank", [(6, 4), (7, 3)])
def test_torus_ranks_past_the_l_spaces(k, rank):
    # (ab)^6 is the boundary twist by the chain relation, so the action on
    # H_1 of the page is the identity and b_1 = 2: not a rational homology
    # sphere, and the rank 4 pinned here is this solver's own count.
    # (ab)^7 is that twist after ab, the right-handed trefoil's
    # monodromy, so it is -1 surgery on the trefoil: the Brieskorn sphere
    # Sigma(2,3,7) up to orientation, whose HF-hat has rank 3
    # (Ozsvath-Szabo, "Absolutely graded Floer homologies...", arXiv
    # math/0110170).  Positive words are Stein fillable, so both classes
    # survive.
    book = parse_input(torus_word("+a +b", k))
    nice = make_nice(build_diagram(book.page, book.word))
    m = boundary_matrix(nice)
    assert homology_rank(m) == rank
    assert decide_vanishing(m, contact_class(nice)).outcome == \
        floer.NONVANISHING


def test_lantern_word_twice_decides_in_both_modes(tmp_path):
    # 180 flat regions, 9,638 domains: far past the region-union oracle
    path = tmp_path / "lantern_word2.obk"
    path.write_text(LANTERN + "twists: +d4 -f1 +f2 +d4 -f1 +f2\n")
    for lazy in (False, True):
        code, rep = run_check(str(path), lazy=lazy, rank=True,
                              out=io.StringIO())
        assert code == 1
        assert (rep.verdict, rep.rank, rep.generators) == (
            floer.VANISHING, 10, 25704)


def flat_complex(text):
    book = parse_input(text)
    nice = make_nice(build_diagram(book.page, book.word))
    return boundary_matrix(nice), contact_class(nice)


def corpus_and_ladder():
    """The corpus and the ladder up to torus (ab)^4, at most 247
    generators."""
    paths = sorted(glob.glob(os.path.join(CORPUS, "*.obk")))
    return {os.path.basename(p): open(p).read() for p in paths} | BENCH_LADDER


def test_decision_agrees_with_rank_oracle():
    for name, text in corpus_and_ladder().items():
        m, c = flat_complex(text)
        v = decide_vanishing(m, c)
        assert oracle_bounds(*as_boundary(m), c) == (
            v.outcome == floer.VANISHING), name


def test_generators_are_sorted():
    # decide_vanishing takes c as generator 0, the lexicographically first
    for name, text in corpus_and_ladder().items():
        book = parse_input(text)
        nice = make_nice(build_diagram(book.page, book.word))
        gens = generators(nice)
        assert gens == sorted(gens), name
        assert gens[0] == nice.contact_tuple(), name


def test_columns_match_all_pairs_oracle():
    diagrams = []
    for text in [*corpus_and_ladder().values(), torus_word("+a -b", 4)]:
        book = parse_input(text)
        diagrams.append(build_diagram(book.page, book.word))
    for seed in (2026, 2126):
        rng = random.Random(seed)
        diagrams += [property_book(rng) for _ in range(100)]
    nonzeros = 0
    for dia in diagrams:
        nice = make_nice(dia)
        columns = boundary_matrix(nice).columns
        assert columns == oracle_columns(nice)
        nonzeros += sum(map(len, columns))
    assert nonzeros > 4000


@pytest.mark.parametrize("text, rows, cols", [
    (open(os.path.join(CORPUS, "lantern.obk")).read(), 3, 3),
    (open(os.path.join(CORPUS, "neg_hopf.obk")).read(), 1, 2),
    (torus_word("+a +b", 4), 11, 17),
    (torus_word("+a -b", 3), 1, 2),
    (LANTERN + "twists: +d4 -f1 +f2\n", 14, 27),
    (LANTERN + "twists: +d4 -f1 +f2 +d4 -f1 +f2\n", 572, 657),
], ids=["lantern", "neg_hopf", "torus_ab4", "torus_abinv3",
        "lantern_word1", "lantern_word2"])
def test_closure_sizes_are_pinned(text, rows, cols):
    m, c = flat_complex(text)
    r, cc = floer._closure(m, m.generators.index(c))
    assert (len(r), len(cc)) == (rows, cols)


def test_closure_is_closed():
    complexes = [flat_complex(text) for text in corpus_and_ladder().values()]
    for seed in (1105, 1205, 1305, 1405):
        rng = random.Random(seed)
        for _ in range(12):
            nice = make_nice(random_book(rng))
            complexes.append((boundary_matrix(nice), contact_class(nice)))
    for m, c in complexes:
        c_idx = m.generators.index(c)
        rows, cols = map(set, floer._closure(m, c_idx))
        assert c_idx in rows
        for i, col in enumerate(m.columns):
            assert (i in cols) == bool(rows.intersection(col))
            if i in cols:
                assert rows.issuperset(col)


def test_rechecks_catch_a_wrong_elimination(monkeypatch):
    # the plain multiplications over the whole matrix guard the decision
    # apart from the closure: a corrupt basis must never yield a verdict
    eliminate = floer._eliminate

    def flip_combination(columns, combos=True):
        return {p: (vec, combo ^ 1)
                for p, (vec, combo) in eliminate(columns, combos).items()}

    def drop_lowest_pivot(columns, combos=True):
        basis = eliminate(columns, combos)
        if basis:
            del basis[min(basis)]
        return basis

    chains = functionals = 0
    for name, text in corpus_and_ladder().items():
        m, c = flat_complex(text)
        v = decide_vanishing(m, c)
        _, cols = floer._closure(m, m.generators.index(c))
        if v.outcome == floer.VANISHING:
            monkeypatch.setattr(floer, "_eliminate", flip_combination)
            with pytest.raises(RuntimeError, match="bounding chain fails"):
                decide_vanishing(m, c)
            chains += 1
        if cols:
            monkeypatch.setattr(floer, "_eliminate", drop_lowest_pivot)
            with pytest.raises(RuntimeError, match="functional fails"):
                decide_vanishing(m, c)
            functionals += 1
        monkeypatch.setattr(floer, "_eliminate", eliminate)
    assert chains and functionals


def test_boundary_matrix_refuses_oversized_regions():
    with pytest.raises(ValueError, match="flattened"):
        boundary_matrix(lantern_book())


def test_a_move_out_of_the_generators_is_an_internal_error(monkeypatch):
    # a disk's move keeps α circles distinct; one that breaks this, here
    # a bigon whose target repeats the α circle of x's second coordinate,
    # must stop the assembly and never be dropped as a non-fit
    nice = make_nice(lantern_book())
    x = generators(nice)[0]
    target = next(v for v in range(nice.n_vertices)
                  if nice.v_beta[v] == 1
                  and nice.v_alpha[v] == nice.v_alpha[x[1]])
    monkeypatch.setattr(floer, "walk_domains", lambda diagram, emit: emit(
        ((1, x[0], target),), 0, 0))
    with pytest.raises(RuntimeError, match="internal error.*no generator"):
        boundary_matrix(nice)


@pytest.mark.parametrize("name", ["lantern.obk", "lantern_stab.obk"])
def test_a_code_that_names_no_generator_is_decoded(monkeypatch, name):
    # one bigon moves c's first coordinate onto the last vertex of β
    # circle 1 whose α circle another coordinate of c holds; the message
    # names c and the decoded tuple exactly
    with open(os.path.join(CORPUS, name)) as fh:
        book = parse_input(fh.read())
    nice = make_nice(build_diagram(book.page, book.word))
    c = contact_class(nice)
    held = {nice.v_alpha[v] for v in c[1:]}
    target = max(v for v in range(nice.n_vertices)
                 if nice.v_beta[v] == 1 and nice.v_alpha[v] in held)
    monkeypatch.setattr(floer, "walk_domains", lambda diagram, emit: emit(
        ((1, c[0], target),), 0, 0))
    with pytest.raises(RuntimeError) as err:
        boundary_matrix(nice)
    assert str(err.value) == (
        f"internal error: a disk moves generator {c} to "
        f"{(target, *c[1:])}, which is no generator")


def test_a_lazy_disk_out_of_the_generators_is_an_internal_error(monkeypatch):
    # decide_lazy reads the disks into c by the assembly's rule: a bigon
    # into c whose source repeats the α circle of c's second coordinate
    # must stop it, never be dropped as a non-fit
    book = parse_input(torus_word("+a +b", 4))
    dia = build_diagram(book.page, book.word)
    lz = lazy_frontier(dia)
    assert lz.bad_regions()
    c = lz.contact_tuple()
    source = next(v for v in range(lz.n_vertices)
                  if lz.v_beta[v] == 1 and lz.v_alpha[v] == lz.v_alpha[c[1]])
    monkeypatch.setattr(floer, "walk_domains", lambda diagram, emit: emit(
        ((1, source, c[0]),), 0, 0))
    with pytest.raises(RuntimeError, match="internal error.*no generator"):
        decide_lazy(dia)


def test_a_lazy_disk_through_its_source_tuple_is_skipped(monkeypatch):
    # two bigons move one source tuple x to c; the one whose passthrough
    # holds a vertex of x fits no generator and is skipped, so x is hit
    # once, not cancelled by the pair
    book = parse_input(torus_word("+a +b", 4))
    lz = lazy_frontier(build_diagram(book.page, book.word))
    c = lz.contact_tuple()
    source = next(v for v in range(lz.n_vertices) if v != c[0]
                  and lz.v_beta[v] == 1 and lz.v_alpha[v] == lz.v_alpha[c[0]])
    x = (source, *c[1:])
    elsewhere = next(v for v in range(lz.n_vertices)
                     if v not in x and v not in c)

    def two_disks(diagram, emit):
        emit(((1, source, c[0]),), 0, 1 << c[1])
        emit(((1, source, c[0]),), 0, 1 << elsewhere)

    monkeypatch.setattr(floer, "walk_domains", two_disks)
    assert floer._sources_into_c(lz) == {x}


def test_decide_vanishing_rejects_foreign_cycle():
    nice = make_nice(annulus_book())
    m = boundary_matrix(nice)
    with pytest.raises(ValueError, match="not a generator"):
        decide_vanishing(m, (7,))


def test_decide_vanishing_rejects_non_cycle():
    m = BoundaryMatrix(generators=((0,), (1,)), columns=((1,), ()))
    with pytest.raises(RuntimeError, match="not a cycle"):
        decide_vanishing(m, (0,))


def test_empty_page_complex_has_rank_one():
    m = BoundaryMatrix(generators=((),), columns=((),))
    assert homology_rank(m) == 1


def random_book(rng):
    specs = [(0, 2), (0, 3), (0, 4), (1, 1), (1, 2)]
    while True:
        g, b = rng.choice(specs)
        page = make_page(g, b)
        letters = []
        for _ in range(rng.randint(0, 3)):
            ln = rng.randint(1, 2)
            sides = tuple((rng.randint(1, page.n_arcs), rng.choice((1, -1)))
                          for _ in range(ln))
            try:
                letters.append((parse_curve(page, sides), rng.choice((1, -1))))
            except ValueError:
                continue
        return build_diagram(page, TwistWord(tuple(letters)))


def test_random_books_have_consistent_complexes():
    rng = random.Random(1105)
    for _ in range(12):
        dia = random_book(rng)
        nice = make_nice(dia)
        m = boundary_matrix(nice)       # square-zero asserted inside
        c = contact_class(nice)         # cycle condition asserted inside
        v = decide_vanishing(m, c)
        assert decide_lazy(dia).outcome == v.outcome
        assert oracle_bounds(*as_boundary(m), c) == (
            v.outcome == floer.VANISHING)
        assert homology_rank(m) >= 1
        if v.outcome == floer.VANISHING:
            assert boundary_of(m, v.certificate) == {c}
        else:
            phi = set(v.certificate)
            assert c in phi
            for col in m.columns:
                assert len(phi & {m.generators[k] for k in col}) % 2 == 0


def test_generator_budget_is_checked_on_both_sides(tmp_path, monkeypatch):
    # page g=0 b=5 holds 2, 4, 8 and 16 matchings after each β circle
    path = tmp_path / "five.obk"
    path.write_text("page g=0 b=5\ntwists:\n")
    monkeypatch.setattr(floer, "GENERATOR_BUDGET", 16)
    out = io.StringIO()
    code, rep = run_check(str(path), out=out)
    assert (code, rep.generators) == (0, 16)
    monkeypatch.setattr(floer, "GENERATOR_BUDGET", 15)
    out = io.StringIO()
    assert run_check(str(path), out=out) == (2, None)
    assert out.getvalue() == (
        "error: floer.generators: 16 matchings, over the generator budget "
        "of 15\n")


def test_generator_enumeration_matches_brute_force():
    rng = random.Random(7)
    for _ in range(6):
        nice = make_nice(random_book(rng))
        assert sorted(generators(nice)) == sorted(oracle_generators(nice))


def flat(text):
    book = parse_input(text)
    return make_nice(build_diagram(book.page, book.word))


def lantern_word(k):
    return LANTERN + "twists: " + " ".join(["+d4 -f1 +f2"] * k) + "\n"


def small_books(seed):
    """The distinct book texts of the bench's small_books draw."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(root, "bench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the class is made
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        books = module.make_books("small_books", root, seed, surface)
    finally:
        del sys.modules[spec.name]
    return list(dict.fromkeys(book.text for book in books))


def candidates(nice):
    """c with one coordinate moved along its β and α circles, sorted."""
    c = contact_class(nice)
    return sorted(c[:j] + (v,) + c[j + 1:] for v in range(nice.n_vertices)
                  for j in [nice.v_beta[v] - 1]
                  if v != c[j] and nice.v_alpha[v] == nice.v_alpha[c[j]])


def test_decide_agrees_with_the_full_matrix():
    # decide tests the generators next to c before it assembles: the
    # verdict and the generator count must be the full matrix's, and an
    # early chain (x,) must be a generator whose column is c alone
    texts = [*corpus_and_ladder().values(), lantern_word(1), lantern_word(2),
             *(torus_word("+a -b", k) for k in range(1, 6))]
    books = [("named", flat(text)) for text in texts]
    for seed in (2026, 2126):
        rng = random.Random(seed)
        books += [("property", make_nice(property_book(rng)))
                  for _ in range(100)]
    books += [("small", flat(text)) for text in small_books(1)]
    tally = {}
    for source, nice in books:
        c = contact_class(nice)
        m = boundary_matrix(nice)
        full = decide_vanishing(m, c)
        v = floer.decide(nice)
        assert (v.outcome, v.generator_count) == (full.outcome,
                                                  full.generator_count)
        early = v.rank == -1
        if early:
            (x,) = v.certificate
            assert v.outcome == floer.VANISHING
            assert x in candidates(nice)
            assert m.columns[m.generators.index(x)] == (0,)
        else:
            assert v == full
        key = (source, v.outcome, early)
        tally[key] = tally.get(key, 0) + 1
    # every VANISHING book of the bench's seed-1 draw has a bounding
    # candidate; one property draw has none, and the fallback decides it
    assert tally == {
        ("named", floer.VANISHING, True): 14,
        ("named", floer.NONVANISHING, False): 9,
        ("property", floer.VANISHING, True): 82,
        ("property", floer.VANISHING, False): 1,
        ("property", floer.NONVANISHING, False): 117,
        ("small", floer.VANISHING, True): 85,
        ("small", floer.NONVANISHING, False): 82}


def test_count_generators_matches_the_enumeration():
    diagrams = []
    for text in corpus_and_ladder().values():
        book = parse_input(text)
        dia = build_diagram(book.page, book.word)
        diagrams += [make_nice(dia), lazy_frontier(dia)]
    for seed in (2026, 2126):
        rng = random.Random(seed)
        diagrams += [make_nice(property_book(rng)) for _ in range(100)]
    big = 0
    for nice in diagrams:
        count = floer.count_generators(nice)
        assert count == len(generators(nice))
        big += count > 100
    assert big >= 4


def test_count_budget_is_checked_on_both_sides(monkeypatch):
    # the corpus lantern holds at most 3 α masks after any β circle
    with open(os.path.join(CORPUS, "lantern.obk")) as fh:
        nice = flat(fh.read())
    monkeypatch.setattr(floer, "GENERATOR_BUDGET", 3)
    assert floer.count_generators(nice) == 22
    monkeypatch.setattr(floer, "GENERATOR_BUDGET", 2)
    with pytest.raises(ValueError) as err:
        floer.count_generators(nice)
    assert str(err.value) == (
        "floer.count_generators: 3 α masks, over the generator budget of 2")


def refuse_enumeration(diagram):
    raise AssertionError("generators() ran")


def test_lantern_word_twice_decides_without_the_enumeration(tmp_path,
                                                             monkeypatch):
    # one generator next to c bounds it, so neither mode lists the 25,704
    # generators, and the report counts them all the same
    path = tmp_path / "lantern_word2.obk"
    path.write_text(lantern_word(2))
    monkeypatch.setattr(floer, "generators", refuse_enumeration)
    for lazy in (False, True):
        code, rep = run_check(str(path), lazy=lazy, out=io.StringIO())
        assert (code, rep.verdict, rep.generators) == (1, floer.VANISHING,
                                                       25704)
    v = floer.decide(flat(lantern_word(2)))
    assert (v.certificate, v.rank) == (((0, 1, 97),), -1)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_lazy_nonvanishing_counts_without_listing(tmp_path, monkeypatch, k):
    # the lazy test settles these on a partial diagram; (ab)^2's frontier
    # is already flat, so it takes the full path
    path = tmp_path / f"torus_ab{k}.obk"
    path.write_text(torus_word("+a +b", k))
    _, expected = run_check(str(path), lazy=True, out=io.StringIO())
    monkeypatch.setattr(floer, "generators", refuse_enumeration)
    code, rep = run_check(str(path), lazy=True, out=io.StringIO())
    assert code == 0
    assert rep.machine_lines() == expected.machine_lines()


# item r0568 of the bench's small_books draw for seed 3: VANISHING, and
# the one book of seeds 1-3 whose chain is no candidate
NO_CANDIDATE = ("page g=1 b=1\ncurve l1: 2- 1-\ncurve l2: 1-\n"
                "twists: +l1 -l2\n")


@pytest.mark.parametrize("text, outcome, listings", [
    (torus_word("+a -b", 3), floer.VANISHING, 0),
    (torus_word("+a +b", 3), floer.NONVANISHING, 1),
    (NO_CANDIDATE, floer.VANISHING, 1),
], ids=["candidate", "nonvanishing", "fallback"])
def test_a_full_mode_check_walks_the_disks_once(tmp_path, monkeypatch, text,
                                                outcome, listings):
    # the candidates, and on a fallback the assembly, read one index: the
    # bigons are walked once, no vertex's rectangles twice, and only a
    # fallback walks from every start
    bigon_walks, walked, listed = [], [], []
    bigons, rectangles = floer._bigons, floer._rectangles
    enumerate_all = floer.generators

    def counted_bigons(tiles, emit):
        bigon_walks.append(tiles)
        bigons(tiles, emit)

    def counted_rectangles(tiles, low, emit):
        walked.append((tiles, low))
        rectangles(tiles, low, emit)

    def whole_walk(diagram, emit):
        raise AssertionError("walk_domains ran")

    def listing(diagram):
        listed.append(diagram)
        return enumerate_all(diagram)

    monkeypatch.setattr(floer, "_bigons", counted_bigons)
    monkeypatch.setattr(floer, "_rectangles", counted_rectangles)
    monkeypatch.setattr(floer, "walk_domains", whole_walk)
    monkeypatch.setattr(floer, "generators", listing)
    path = tmp_path / "book.obk"
    path.write_text(text)
    _, rep = run_check(str(path), out=io.StringIO())
    assert rep.verdict == outcome
    (tiles,) = bigon_walks
    assert not tiles.diagram.bad_regions()
    assert all(t is tiles for t, _ in walked)
    starts = [low for _, low in walked]
    assert len(set(starts)) == len(starts)
    if listings:
        assert set(starts) == set(tiles.start)
    else:
        assert set(starts) < set(tiles.start)
    assert len(listed) == listings


def test_a_candidate_decided_check_walks_only_the_columns_it_reads(
        monkeypatch):
    # decide reads c's column, each candidate's in tuple order up to the
    # certificate, and the columns of their boundaries: only their
    # vertices are walked from, each once.  On the lantern word twice
    # none of them starts a rectangle, so the check walks only bigons;
    # some property draws walk from a few vertices
    books = [("lantern_word2", flat(lantern_word(2)))]
    for seed in (2026, 2126):
        rng = random.Random(seed)
        books += [("property", make_nice(property_book(rng)))
                  for _ in range(100)]
    rectangles = floer._rectangles
    tally = {}
    for source, nice in books:
        m = boundary_matrix(nice)
        column = {m.generators[i]: [m.generators[k] for k in col]
                  for i, col in enumerate(m.columns)}
        walked = []

        def counted(tiles, low, emit):
            walked.append(low)
            rectangles(tiles, low, emit)

        with monkeypatch.context() as patch:
            patch.setattr(floer, "_rectangles", counted)
            v = floer.decide(nice)
        if v.rank != -1:
            continue
        (x,) = v.certificate
        tried = candidates(nice)[:candidates(nice).index(x) + 1]
        read = {contact_class(nice), *tried,
                *(y for t in tried for y in column[t])}
        starts = set(floer._Tiles(nice).start)
        assert len(set(walked)) == len(walked)
        assert set(walked) == {u for y in read for u in y} & starts
        if source == "lantern_word2":
            assert (len(tried), len(read), len(walked), len(starts)) == (
                7, 8, 0, 156)
        key = (source, bool(walked))
        tally[key] = tally.get(key, 0) + 1
    assert tally == {("lantern_word2", False): 1, ("property", False): 74,
                     ("property", True): 8}


def test_local_columns_equal_the_full_matrix(monkeypatch):
    # a column read off the local index, walked only from its own
    # vertices, is the generator's column of boundary_matrix: both the
    # columns decide reads and every column, read in a shuffled order
    diagrams = [flat(text) for text in corpus_and_ladder().values()]
    for seed in (2026, 2126):
        rng = random.Random(seed)
        diagrams += [make_nice(property_book(rng)) for _ in range(100)]
    rng = random.Random(13)
    read = []
    local_column = floer._column

    def recorded(diagram, index, x):
        out = local_column(diagram, index, x)
        read.append((x, out))
        return out

    monkeypatch.setattr(floer, "_column", recorded)
    decided = everything = 0
    for nice in diagrams:
        m = boundary_matrix(nice)
        column = {m.generators[i]: [m.generators[k] for k in col]
                  for i, col in enumerate(m.columns)}
        read.clear()
        floer.decide(nice)
        assert all(out == column[x] for x, out in read)
        decided += len(read)
        index = floer._local_index(nice)
        gens = list(m.generators)
        rng.shuffle(gens)
        for x in gens:
            assert local_column(nice, index, x) == column[x], x
        assert index.unwalked.isdisjoint({u for x in gens for u in x})
        everything += len(gens)
    assert (decided, everything) == (570, 2335)


# decide's whole walk took 10.6 s at 560 MiB on the lantern word three
# times and 14.4 s at 911 MiB on (a b^-1)^7; the child caps itself at
# 256 MiB of address space and records decide's verdicts
WALL_CHILD = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))\n"
              "from obfloer import floer\n"
              "from obfloer.front import main\n"
              "decide, verdicts = floer.decide, []\n"
              "floer.decide = lambda d: verdicts.append(decide(d)) or "
              "verdicts[-1]\n"
              "code = main(['check', sys.argv[1]])\n"
              "print('certificate=' + repr([v.certificate "
              "for v in verdicts]))\n"
              "sys.exit(code)\n")


@pytest.mark.parametrize("text, certificate, count", [
    (lantern_word(3), ((0, 1, 502),), 16941665),
    (torus_word("+a -b", 7), ((0, 610),), 284171),
], ids=["lantern_word3", "torus_abinv7"])
def test_a_wall_book_decides_in_a_capped_child(tmp_path, text, certificate,
                                               count):
    # the candidate test walks only next to c, so neither wall book
    # needs the whole disk index: each decides within 10 s
    path, report = tmp_path / "wall.obk", tmp_path / "wall.report"
    path.write_text(text + f"option report={report}\n")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", WALL_CHILD, str(path)],
                          capture_output=True, text=True, timeout=10,
                          env=env)
    assert done.returncode == 1, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == f"certificate={[certificate]!r}"
    lines = report.read_text().splitlines()
    assert "verdict=VANISHING" in lines
    assert f"generators={count}" in lines


def first_candidate_move(nice):
    """The first candidate x, the circle j it moves c on, and x_j."""
    x = candidates(nice)[0]
    j = next(i for i, (a, b) in enumerate(zip(x, contact_class(nice)))
             if a != b)
    return x, j, x[j]


def inject_bigon(monkeypatch, disk):
    """Emit disk after every walk of the bigons; the list of its emits.

    The bogus disks below are bigons out of vertices on the last β
    circle, where no rectangle starts, so no walk of a vertex's
    rectangles would reach them; a bigon enters the index with the
    bigons, all walked before any column is read.
    """
    bigons, sent = floer._bigons, []

    def walk(tiles, emit):
        bigons(tiles, emit)
        emit(*disk)
        sent.append(disk)

    monkeypatch.setattr(floer, "_bigons", walk)
    return sent


def test_a_bogus_disk_out_of_a_candidate_names_no_generator(monkeypatch):
    # a bigon out of the first candidate onto a vertex whose α circle
    # another coordinate holds moves it to no generator: the candidate
    # test stops, before any enumeration or verdict
    nice = flat(torus_word("+a -b", 3))
    x, j, v = first_candidate_move(nice)
    held = {nice.v_alpha[u] for i, u in enumerate(x) if i != j}
    t = next(u for u in range(nice.n_vertices)
             if nice.v_beta[u] == j + 1 and nice.v_alpha[u] in held)
    sent = inject_bigon(monkeypatch, (((j + 1, v, t),), 0, 0))
    monkeypatch.setattr(floer, "generators", refuse_enumeration)
    with pytest.raises(RuntimeError) as err:
        floer.decide(nice)
    assert str(err.value) == (
        f"internal error: a disk moves generator {x} to "
        f"{x[:j] + (t,) + x[j + 1:]}, which is no generator")
    assert len(sent) == 1


def test_a_bogus_disk_out_of_a_candidate_breaks_square_zero(monkeypatch):
    # a bigon out of the first candidate onto a generator y with ∂y ≠ 0
    # adds ∂y to ∂(∂x): the local check stops the candidate test
    nice = flat(torus_word("+a -b", 3))
    m = boundary_matrix(nice)
    x, j, v = first_candidate_move(nice)
    w = next(u for u in range(nice.n_vertices)
             if u != v and nice.v_beta[u] == j + 1
             and nice.v_alpha[u] == nice.v_alpha[v]
             and m.columns[m.generators.index(x[:j] + (u,) + x[j + 1:])])
    sent = inject_bigon(monkeypatch, (((j + 1, v, w),), 0, 0))
    monkeypatch.setattr(floer, "generators", refuse_enumeration)
    with pytest.raises(RuntimeError, match=(
            "internal error: the boundary operator fails to square to "
            rf"zero on generator {re.escape(str(x))}; composite hits")):
        floer.decide(nice)
    assert len(sent) == 1


def test_a_candidate_bounding_more_than_c_is_no_certificate(monkeypatch):
    # a bigon out of a candidate x onto c, beside x's true targets, keeps
    # ∂² = 0; ∂x is then c plus more, so x bounds nothing and the
    # decision goes on to the enumeration
    nice = flat(torus_word("+a +b", 3))
    m = boundary_matrix(nice)
    c = contact_class(nice)
    column = {m.generators[i]: [m.generators[k] for k in col]
              for i, col in enumerate(m.columns)}
    x, j = next((x, j) for x in candidates(nice)
                for j in [next(i for i in range(len(c)) if x[i] != c[i])]
                if column[x] and all(y[j] != x[j] for y in column[x]))
    sent = inject_bigon(monkeypatch, (((j + 1, x[j], c[j]),), 0, 0))
    read = []
    local_column = floer._column

    def recorded(diagram, index, y):
        out = local_column(diagram, index, y)
        read.append((y, out))
        return out

    monkeypatch.setattr(floer, "_column", recorded)
    monkeypatch.setattr(floer, "generators", refuse_enumeration)
    with pytest.raises(AssertionError, match="generators"):
        floer.decide(nice)
    assert len(sent) == 1
    assert (x, sorted(set(column[x]) ^ {c})) in read


def test_a_disk_through_a_candidate_is_skipped(monkeypatch):
    # a bigon out of the first candidate x onto c whose passthrough
    # holds x's other coordinates fits no generator: it must not cancel
    # the disk that makes ∂x = c
    nice = flat(torus_word("+a -b", 3))
    c = contact_class(nice)
    x, j, v = first_candidate_move(nice)
    assert floer.decide(nice).certificate == (x,)
    # the same bigon with no passthrough fits x and cancels that disk
    with monkeypatch.context() as patch:
        inject_bigon(patch, (((j + 1, v, c[j]),), 0, 0))
        assert floer.decide(nice).certificate != (x,)
    through = sum(1 << u for i, u in enumerate(x) if i != j)
    sent = inject_bigon(monkeypatch, (((j + 1, v, c[j]),), 0, through))
    monkeypatch.setattr(floer, "generators", refuse_enumeration)
    assert floer.decide(nice).certificate == (x,)
    assert len(sent) == 1


def test_decide_rejects_a_disk_out_of_c(monkeypatch):
    # c is a cycle by structure: a bigon out of it onto a candidate is
    # an internal error before any candidate is tried
    nice = flat(torus_word("+a -b", 3))
    c = contact_class(nice)
    x, j, v = first_candidate_move(nice)
    sent = inject_bigon(monkeypatch, (((j + 1, c[j], v),), 0, 0))
    with pytest.raises(RuntimeError, match="distinguished generator is not "
                                           "a cycle"):
        floer.decide(nice)
    assert len(sent) == 1
