import itertools
import random
import re

import pytest

import test_acceptance
from obfloer import heegaard, mapping
from obfloer.front import parse_input
from obfloer.heegaard import build_diagram
from obfloer.mapping import dehn_twist
from obfloer.surface import (
    ArcImage,
    Arrangement,
    Curve,
    geometric_intersection,
    is_primitive,
    make_page,
    normalize,
    parallel,
    parse_curve,
    pushoff,
)
from oracles import (att_side, boundary_count, euler_characteristic_from_cut,
                     handle_numbers, oracle_att_order, oracle_is_embeddable,
                     oracle_min_arc_tokens, oracle_pair_crossings,
                     oracle_self_crossings)
from test_front import BENCH_LADDER


# -- page construction -------------------------------------------------------


def test_annulus_page():
    page = make_page(0, 2)
    assert page.n_arcs == 1
    assert page.boundary_components == 2
    assert boundary_count(page) == 2


def test_four_holed_sphere_page():
    page = make_page(0, 4)
    assert page.n_arcs == 3
    assert boundary_count(page) == 4


def test_one_holed_torus_page():
    page = make_page(1, 1)
    assert page.n_arcs == 2
    assert boundary_count(page) == 1


def test_page_needs_boundary():
    with pytest.raises(ValueError):
        make_page(1, 0)


def test_negative_genus_rejected():
    with pytest.raises(ValueError):
        make_page(-1, 2)


@pytest.mark.parametrize("genus,boundary", [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
    (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1),
])
def test_euler_characteristic_rebuild(genus, boundary):
    page = make_page(genus, boundary)
    assert euler_characteristic_from_cut(page) == 2 - 2 * genus - boundary


def test_occurrence_tables():
    page = make_page(1, 2)
    for arc in range(1, page.n_arcs + 1):
        first = page.first_occurrence[arc - 1]
        second = page.second_occurrence[arc - 1]
        assert first < second
        assert page.occurrence_word[first] == arc
        assert page.occurrence_word[second] == arc


# -- words and normalization ---------------------------------------------------


def test_normalize_cancels_inverse_pair():
    page = make_page(0, 4)
    curve = Curve(((1, 1), (1, -1), (2, 1)))
    assert normalize(page, curve).crossings == ((2, 1),)


def test_normalize_cyclic_cancellation():
    page = make_page(0, 4)
    curve = Curve(((2, 1), (1, 1), (2, -1)))
    # the leading and trailing tokens cancel around the cycle
    assert normalize(page, curve).crossings == ((1, 1),)


def test_normalize_idempotent():
    page = make_page(1, 1)
    curve = normalize(page, Curve(((1, 1), (2, 1), (2, -1), (1, 1))))
    assert normalize(page, curve) == curve


def test_normalize_arc_image_is_linear():
    page = make_page(0, 2)
    image = ArcImage(1, 0, ((1, 1), (1, -1), (1, -1)))
    out = normalize(page, image)
    # linear reduction only; no cyclic trimming across the endpoints
    assert out.crossings == ((1, -1),)
    assert out.start_slot == 1


def test_normalize_rejects_bad_arc():
    page = make_page(0, 2)
    with pytest.raises(ValueError):
        normalize(page, Curve(((2, 1),)))


def test_reduction_minimizes_arc_crossings():
    page = make_page(0, 4)
    for seed in (11, 111, 211, 311):
        rng = random.Random(seed)
        for _ in range(25):
            length = rng.randint(1, 4)
            word = tuple((rng.randint(1, 3), rng.choice((1, -1))) for _ in range(length))
            reduced = normalize(page, Curve(word)).crossings
            for arc in (1, 2, 3):
                have = sum(1 for a, _s in reduced if a == arc)
                assert have == oracle_min_arc_tokens(page, word, arc, budget=1)


def test_normalize_preserves_algebraic_crossing_sums():
    page = make_page(1, 2)
    for seed in (13, 113, 213, 313):
        rng = random.Random(seed)
        for _ in range(40):
            length = rng.randint(1, 6)
            word = tuple((rng.randint(1, 3), rng.choice((1, -1))) for _ in range(length))
            reduced = normalize(page, Curve(word)).crossings
            for arc in (1, 2, 3):
                before = sum(s for a, s in word if a == arc)
                after = sum(s for a, s in reduced if a == arc)
                assert before == after


# -- curve validation ---------------------------------------------------------


def test_parse_curve_accepts_core():
    page = make_page(0, 2)
    core = parse_curve(page, [(1, 1)])
    assert core.crossings == ((1, 1),)
    assert core.normalized


def test_parse_curve_rejects_empty():
    page = make_page(0, 2)
    with pytest.raises(ValueError):
        parse_curve(page, [])


def test_parse_curve_rejects_contractible():
    page = make_page(0, 2)
    with pytest.raises(ValueError, match="contractible"):
        parse_curve(page, [(1, 1), (1, -1)])


def test_parse_curve_rejects_nonprimitive():
    page = make_page(0, 2)
    with pytest.raises(ValueError, match="not embedded"):
        parse_curve(page, [(1, 1), (1, 1)])


def test_parse_curve_rejects_unknown_arc():
    page = make_page(0, 2)
    with pytest.raises(ValueError):
        parse_curve(page, [(3, 1)])


def test_parse_curve_rejects_self_crossing():
    page = make_page(1, 1)
    # crosses itself once: its two strands through arc 1 are forced to link
    with pytest.raises(ValueError, match="self-crossings"):
        parse_curve(page, [(1, 1), (2, 1), (1, 1), (2, -1)])


def test_parse_curve_reports_minimal_self_crossings():
    # two of its strands cross arc 1 twice in a row; that run crosses 3
    # times in the realization (4 in all) where once would do (2 in all)
    page = make_page(0, 3)
    word = [(1, 1), (1, 1), (1, 1), (2, 1)]
    with pytest.raises(ValueError, match="with 2 self-crossings"):
        parse_curve(page, word)
    assert oracle_self_crossings(page, Curve(tuple(word), normalized=True)) == 2



def test_parse_curve_counts_crossings_only_to_word_its_error(monkeypatch):
    # a long embedded curve: the torus curve a under (a b^-1)^6, whose
    # word has 233 tokens
    torus = make_page(1, 1)
    a, b = (parse_curve(torus, [(i, 1)]) for i in (1, 2))
    curve = a
    for _ in range(6):
        curve = dehn_twist(torus, b, -1, dehn_twist(torus, a, 1, curve))
    assert len(curve.crossings) == 233

    def no_count(*_args):
        raise AssertionError("parse_curve counted the crossings")

    monkeypatch.setattr(Arrangement, "crossing_number", no_count)
    assert parse_curve(torus, curve.crossings) == curve

def test_parse_curve_matches_oracle_embeddability():
    pages = [make_page(0, 4), make_page(1, 1)]
    from obfloer.surface import is_primitive, reduce_cyclic

    for seed in (17, 117, 217, 317):
        rng = random.Random(seed)
        for trial in range(60):
            page = pages[trial % 2]
            length = rng.randint(1, 4)
            word = tuple((rng.randint(1, page.n_arcs), rng.choice((1, -1)))
                         for _ in range(length))
            reduced = reduce_cyclic(word)
            if not reduced or not is_primitive(reduced):
                continue
            curve = Curve(tuple(reduced), normalized=True)
            try:
                parse_curve(page, word)
                accepted = True
            except ValueError as err:
                accepted = False
                reported = int(re.search(r"with (\d+) self-crossings", str(err))[1])
                assert reported == oracle_self_crossings(page, curve)
            assert accepted == oracle_is_embeddable(page, curve)


# -- geometric intersection -----------------------------------------------------


def test_annulus_intersections():
    page = make_page(0, 2)
    core = parse_curve(page, [(1, 1)])
    spanning = pushoff(page, 1)
    assert geometric_intersection(page, core, spanning) == 1
    assert geometric_intersection(page, core, core) == 0


def test_four_holed_sphere_hole_curves():
    page = make_page(0, 4)
    d1 = parse_curve(page, [(1, 1)])
    d4 = parse_curve(page, [(1, 1), (2, 1), (3, 1)])
    f1 = parse_curve(page, [(1, 1), (2, 1)])
    f2 = parse_curve(page, [(2, 1), (3, 1)])
    f3 = parse_curve(page, [(1, 1), (3, 1)])
    assert geometric_intersection(page, d1, f1) == 0
    assert geometric_intersection(page, d4, f1) == 0
    assert geometric_intersection(page, d4, f2) == 0
    assert geometric_intersection(page, f1, f2) == 2
    assert geometric_intersection(page, f1, f3) == 2
    assert geometric_intersection(page, f2, f3) == 2
    assert [geometric_intersection(page, f1, pushoff(page, i))
            for i in (1, 2, 3)] == [1, 1, 0]


def test_one_holed_torus_duals():
    page = make_page(1, 1)
    t1 = parse_curve(page, [(1, 1)])
    t2 = parse_curve(page, [(2, 1)])
    t12 = parse_curve(page, [(1, 1), (2, 1)])
    assert geometric_intersection(page, t1, t2) == 1
    assert geometric_intersection(page, t1, t12) == 1
    assert geometric_intersection(page, t2, t12) == 1
    assert geometric_intersection(page, t12, pushoff(page, 1)) == 1


def test_handle_wrapping_pair():
    # a pair whose naive arrangement overcounts: the curves track each
    # other around the handle and the shared band must count only once
    page = make_page(1, 1)
    x = parse_curve(page, [(2, 1)])
    y = parse_curve(page, [(2, 1), (1, 1), (2, 1)])
    assert geometric_intersection(page, x, y) == 1
    assert oracle_pair_crossings(page, x, y) == 1
    # the run of docs/conventions.md, realized with 3 crossings
    x = parse_curve(page, [(1, -1)])
    y = parse_curve(page, [(1, -1), (1, -1), (2, -1)])
    assert geometric_intersection(page, x, y) == 1
    assert oracle_pair_crossings(page, x, y) == 1


def test_parallel_curves_are_disjoint():
    page = make_page(0, 4)
    f1 = parse_curve(page, [(1, 1), (2, 1)])
    same = parse_curve(page, [(2, 1), (1, 1)])
    inverted = parse_curve(page, [(2, -1), (1, -1)])
    assert geometric_intersection(page, f1, same) == 0
    assert geometric_intersection(page, f1, inverted) == 0


def test_pushoff_family_is_disjoint():
    for page in (make_page(0, 4), make_page(1, 2), make_page(2, 1)):
        offs = [pushoff(page, i) for i in range(1, page.n_arcs + 1)]
        for i in range(len(offs)):
            for j in range(i + 1, len(offs)):
                assert geometric_intersection(page, offs[i], offs[j]) == 0


def test_pushoff_meets_its_arc_once():
    for page in (make_page(0, 2), make_page(1, 1), make_page(0, 4)):
        for i in range(1, page.n_arcs + 1):
            assert pushoff(page, i).crossings == ((i, -1),)


def test_intersection_requires_normalized():
    page = make_page(0, 2)
    raw = Curve(((1, 1), (1, -1), (1, 1)))
    core = parse_curve(page, [(1, 1)])
    with pytest.raises(ValueError, match="first"):
        geometric_intersection(page, raw, core)
    with pytest.raises(ValueError, match="second"):
        geometric_intersection(page, core, raw)


def test_intersection_matches_oracle_randomized():
    pages = [make_page(0, 4), make_page(1, 1), make_page(1, 2)]
    for seed in (23, 123, 223, 323):
        rng = random.Random(seed)
        checked = 0
        while checked < 40:
            page = pages[checked % len(pages)]
            words = []
            for _ in range(2):
                length = rng.randint(1, 3)
                words.append(tuple((rng.randint(1, page.n_arcs), rng.choice((1, -1)))
                                   for _ in range(length)))
            try:
                x = parse_curve(page, words[0])
                y = parse_curve(page, words[1])
            except ValueError:
                continue
            value = geometric_intersection(page, x, y)
            assert value == oracle_pair_crossings(page, x, y)
            assert value == geometric_intersection(page, y, x)
            checked += 1


def test_intersection_zero_iff_oracle_disjoint():
    page = make_page(1, 1)
    for seed in (29, 129, 229, 329):
        rng = random.Random(seed)
        checked = 0
        while checked < 25:
            words = []
            for _ in range(2):
                length = rng.randint(1, 3)
                words.append(tuple((rng.randint(1, 2), rng.choice((1, -1)))
                                   for _ in range(length)))
            try:
                x = parse_curve(page, words[0])
                y = parse_curve(page, words[1])
            except ValueError:
                continue
            impl_zero = geometric_intersection(page, x, y) == 0
            oracle_zero = oracle_pair_crossings(page, x, y) == 0
            assert impl_zero == oracle_zero
            checked += 1


def test_arrangement_deterministic():
    page = make_page(0, 4)
    f1 = parse_curve(page, [(1, 1), (2, 1)])
    f2 = parse_curve(page, [(2, 1), (3, 1)])
    first = Arrangement(page, [f1, f2])
    second = Arrangement(page, [f1, f2])
    assert first.att_order == second.att_order
    assert first.position == second.position


def _random_curve(rng, page):
    while True:
        word = tuple((rng.randint(1, page.n_arcs), rng.choice((1, -1)))
                     for _ in range(rng.randint(1, 4)))
        try:
            return parse_curve(page, word)
        except ValueError:
            continue


def test_att_order_matches_germ_walk():
    pages = [make_page(g, b) for g, b in ((0, 2), (0, 3), (0, 4), (1, 1), (1, 2), (2, 1))]
    for seed in (43, 143, 243, 343):
        rng = random.Random(seed)
        for trial in range(60):
            page = pages[trial % len(pages)]
            x = _random_curve(rng, page)
            kind = rng.randrange(3)
            if kind == 0:
                y = _random_curve(rng, page)
            elif kind == 1:
                y = pushoff(page, rng.randint(1, page.n_arcs))
            else:
                # an arc on a pushoff's slots: slot keys order the ends
                x = pushoff(page, rng.randint(1, page.n_arcs))
                word = tuple((rng.randint(1, page.n_arcs), rng.choice((1, -1)))
                             for _ in range(rng.randint(0, 4)))
                y = normalize(page, ArcImage(x.start_slot, x.end_slot, word))
            if parallel(x, y):
                continue
            arr = Arrangement(page, [x, y])
            assert arr.att_order == oracle_att_order(arr)



def test_handles_number_the_chord_ends(monkeypatch):
    # every arrangement that building the bench ladder and 100
    # property-suite draws makes
    books = [(book.page, book.word) for book in
             map(parse_input, BENCH_LADDER.values())]
    monkeypatch.setattr(test_acceptance, "build_diagram",
                        lambda page, word: books.append((page, word)))
    rng = random.Random(2026)
    for _ in range(100):
        test_acceptance.random_book(rng)
    built = []

    class Recorded(Arrangement):
        def __init__(self, page, paths):
            super().__init__(page, paths)
            built.append(self)

    for module in (mapping, heegaard):
        monkeypatch.setattr(module, "Arrangement", Recorded)
    for page, word in books:
        build_diagram(page, word)
    assert len(built) > 200
    for arr in built:
        number = handle_numbers(arr.events)
        n = len(arr.side)
        assert sorted(number.values()) == list(range(n))
        assert arr.chord_base[-1] == n // 2
        attachment = {h: att for att, h in number.items()}
        for h in range(0, n, 2):
            # h and h ^ 1 end one chord, from event k to event k + 1
            (p, k, tail), (q, k1, head) = attachment[h], attachment[h ^ 1]
            assert p == q and k1 == (k + 1) % len(arr.events[p])
            assert tail in ("out", "end") and head in ("in", "end")
        for h, (p, k, role) in attachment.items():
            assert arr.side[h] == att_side(arr.page, arr.events[p][k], role)
            if role != "end":
                assert attachment[arr.other[h]][:2] == (p, k)
            else:
                assert arr.other[h] == -1
        listed = list(itertools.chain.from_iterable(arr.att_order))
        assert sorted(listed) == list(range(n))
        assert all(arr.side[h] == pos
                   for pos, atts in enumerate(arr.att_order) for h in atts)
        assert [arr.position[h] for h in listed] == list(range(n))

def test_crossing_free_agrees_with_the_crossing_counts():
    # reduced curve words, embedded or not, and families of pushoffs each
    # twisted by one or two letters, shared or drawn afresh
    pages = [make_page(g, b) for g, b in
             ((0, 2), (0, 3), (0, 4), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2))]
    rng = random.Random(2023)

    def word(page):
        return tuple((rng.randint(1, page.n_arcs), rng.choice((1, -1)))
                     for _ in range(rng.randint(1, 6)))

    def letters(page):
        return [(_random_curve(rng, page), rng.choice((1, -1)))
                for _ in range(rng.randint(1, 2))]

    verdicts = {True: 0, False: 0}
    for trial in range(1200):
        page = pages[trial % len(pages)]
        paths = []
        if trial % 2:
            for _ in range(rng.randint(1, 3)):
                c = normalize(page, Curve(word(page)))
                if c.crossings and is_primitive(c.crossings):
                    paths.append(c)
        else:
            twist = letters(page)
            for arc in rng.sample(range(1, page.n_arcs + 1),
                                  rng.randint(1, min(3, page.n_arcs))):
                twist = twist if rng.random() < 0.5 else letters(page)
                image = pushoff(page, arc)
                for c, sign in twist:
                    image = dehn_twist(page, c, sign, image)
                paths.append(image)
        if not paths or any(parallel(x, y)
                            for x, y in itertools.combinations(paths, 2)):
            continue
        arr = Arrangement(page, paths)
        counts = [arr.crossing_number(p, q) for p in range(len(paths))
                  for q in range(p, len(paths))]
        assert arr.crossing_free() == (not any(counts)), (page, paths, counts)
        verdicts[arr.crossing_free()] += 1
    assert min(verdicts.values()) >= 300, verdicts
