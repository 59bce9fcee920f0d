import random

import pytest

import test_acceptance
from obfloer import mapping
from obfloer.front import parse_input
from obfloer.surface import (
    ArcImage,
    Arrangement,
    Curve,
    geometric_intersection,
    invert_word,
    make_page,
    parallel,
    parse_curve,
    pushoff,
)
from obfloer.mapping import TwistWord, apply_word, dehn_twist, same_action_on_basis

from oracles import oracle_att_order, oracle_pair_crossings
from test_front import BENCH_LADDER, LANTERN, torus_word

LANTERN_WORD = "+d4 -f1 +f2"


@pytest.fixture(scope="module")
def annulus():
    return make_page(0, 2)


@pytest.fixture(scope="module")
def torus():
    return make_page(1, 1)


@pytest.fixture(scope="module")
def four_holed():
    return make_page(0, 4)


def test_positive_twist_straightens_spanning_arc(annulus):
    core = parse_curve(annulus, [(1, 1)])
    image = dehn_twist(annulus, core, +1, pushoff(annulus, 1))
    assert image.crossings == ()


def test_negative_twist_wraps_spanning_arc(annulus):
    core = parse_curve(annulus, [(1, 1)])
    image = dehn_twist(annulus, core, -1, pushoff(annulus, 1))
    assert image.crossings == ((1, -1), (1, -1))


def test_twist_fixes_its_own_curve(annulus):
    core = parse_curve(annulus, [(1, 1)])
    assert dehn_twist(annulus, core, +1, core) == core


def test_opposite_twists_cancel(annulus):
    core = parse_curve(annulus, [(1, 1)])
    b1 = pushoff(annulus, 1)
    assert dehn_twist(annulus, core, -1, dehn_twist(annulus, core, +1, b1)) == b1
    assert dehn_twist(annulus, core, +1, dehn_twist(annulus, core, -1, b1)) == b1


def test_annulus_image_intersections(annulus):
    core = parse_curve(annulus, [(1, 1)])
    b1 = pushoff(annulus, 1)
    plus = dehn_twist(annulus, core, +1, b1)
    minus = dehn_twist(annulus, core, -1, b1)
    assert geometric_intersection(annulus, plus, core) == 1
    assert geometric_intersection(annulus, plus, b1) == 2
    assert geometric_intersection(annulus, minus, core) == 1
    assert geometric_intersection(annulus, minus, b1) == 0


def test_torus_twist_images(torus):
    t1 = parse_curve(torus, [(1, 1)])
    t2 = parse_curve(torus, [(2, 1)])
    assert dehn_twist(torus, t1, +1, t2).crossings == ((1, 1), (2, 1))
    assert dehn_twist(torus, t1, -1, t2).crossings == ((1, -1), (2, 1))


@pytest.mark.parametrize("sign", [1, -1])
def test_torus_round_trip(torus, sign):
    t1 = parse_curve(torus, [(1, 1)])
    t2 = parse_curve(torus, [(2, 1)])
    image = dehn_twist(torus, t1, sign, t2)
    assert dehn_twist(torus, t1, -sign, image) == t2


@pytest.mark.parametrize("sign", [1, -1])
def test_torus_twist_preserves_intersections(torus, sign):
    t1 = parse_curve(torus, [(1, 1)])
    t2 = parse_curve(torus, [(2, 1)])
    t12 = parse_curve(torus, [(1, 1), (2, 1)])
    a = dehn_twist(torus, t1, sign, t2)
    b = dehn_twist(torus, t1, sign, t12)
    assert geometric_intersection(torus, a, b) == geometric_intersection(torus, t2, t12) == 1


def test_disjoint_twist_returns_target_unchanged(four_holed):
    d1 = parse_curve(four_holed, [(1, 1)])
    b3 = pushoff(four_holed, 3)
    assert dehn_twist(four_holed, d1, +1, b3) is b3


def test_disjoint_twists_commute(four_holed):
    d4 = parse_curve(four_holed, [(1, 1), (2, 1), (3, 1)])
    f1 = parse_curve(four_holed, [(1, 1), (2, 1)])
    b1 = pushoff(four_holed, 1)
    one_way = dehn_twist(four_holed, d4, 1, dehn_twist(four_holed, f1, 1, b1))
    other = dehn_twist(four_holed, f1, 1, dehn_twist(four_holed, d4, 1, b1))
    assert one_way == other


def _lantern_curves(page):
    d = [parse_curve(page, [(k, 1)]) for k in (1, 2, 3)]
    d4 = parse_curve(page, [(1, 1), (2, 1), (3, 1)])
    f1 = parse_curve(page, [(1, 1), (2, 1)])
    f2 = parse_curve(page, [(2, 1), (3, 1)])
    f3 = parse_curve(page, [(1, 1), (3, 1)])
    return d, d4, f1, f2, f3


def test_att_order_matches_germ_walk_on_twist_words(torus, four_holed):
    # for (ab)^5 and for the lantern word +d4 -f1 +f2 of the bench
    # ladder, twice: every (c, target) pair that dehn_twist arranges,
    # every [c, *images] that apply_word arranges, and the images of
    # each step together, as a bottom sheet arranges them
    a, b = (parse_curve(torus, [(i, 1)]) for i in (1, 2))
    _d, d4, f12, _f23, f13 = _lantern_curves(four_holed)
    for page, letters in ((torus, ((a, 1), (b, 1)) * 5),
                          (four_holed, ((d4, 1), (f13, -1), (f12, 1)) * 2)):
        images = [pushoff(page, i) for i in range(1, page.n_arcs + 1)]
        for curve, sign in reversed(letters):
            for target in images:
                if not parallel(curve, target):
                    arr = Arrangement(page, [curve, target])
                    assert arr.att_order == oracle_att_order(arr)
            arr = Arrangement(page, [curve, *images])
            assert arr.att_order == oracle_att_order(arr)
            images = [dehn_twist(page, curve, sign, t) for t in images]
            arr = Arrangement(page, images)
            assert arr.att_order == oracle_att_order(arr)


def test_lantern_relation(four_holed):
    d, d4, f1, f2, f3 = _lantern_curves(four_holed)
    boundary = TwistWord(((d[0], 1), (d[1], 1), (d[2], 1), (d4, 1)))
    right = TwistWord(((f1, 1), (f2, 1), (f3, 1)))
    assert same_action_on_basis(four_holed, boundary, right)


def test_lantern_relation_needs_the_right_order(four_holed):
    d, d4, f1, f2, f3 = _lantern_curves(four_holed)
    boundary = TwistWord(((d[0], 1), (d[1], 1), (d[2], 1), (d4, 1)))
    wrong = TwistWord(((f1, 1), (f3, 1), (f2, 1)))
    assert not same_action_on_basis(four_holed, boundary, wrong)


def test_rearranged_lantern_relation(four_holed):
    d, d4, f1, f2, f3 = _lantern_curves(four_holed)
    left = TwistWord(((d[0], 1), (d[1], 1), (d[2], 1), (d4, 1), (f1, -1)))
    assert same_action_on_basis(four_holed, left, TwistWord(((f2, 1), (f3, 1))))
    assert not same_action_on_basis(four_holed, left, TwistWord(((f3, 1), (f2, 1))))


def test_empty_word_is_identity(four_holed):
    basis = tuple(pushoff(four_holed, i) for i in (1, 2, 3))
    assert apply_word(four_holed, TwistWord(()), basis) == basis


def test_word_times_inverse_is_identity(four_holed):
    _d, d4, f1, _f2, _f3 = _lantern_curves(four_holed)
    letters = ((f1, 1), (d4, -1), (f1, 1))
    inverse = tuple((c, -s) for c, s in reversed(letters))
    assert same_action_on_basis(four_holed, TwistWord(letters + inverse),
                                TwistWord(()))


def test_twist_word_rejects_bad_letters(four_holed):
    f1 = parse_curve(four_holed, [(1, 1), (2, 1)])
    with pytest.raises(TypeError, match="Curve"):
        TwistWord(((pushoff(four_holed, 1), 1),))
    with pytest.raises(ValueError, match="sign"):
        TwistWord(((f1, 0),))


def test_dehn_twist_rejects_bad_input(four_holed):
    f1 = parse_curve(four_holed, [(1, 1), (2, 1)])
    with pytest.raises(TypeError, match="twist about"):
        dehn_twist(four_holed, pushoff(four_holed, 1), 1, f1)
    with pytest.raises(ValueError, match="sign"):
        dehn_twist(four_holed, f1, 2, pushoff(four_holed, 1))
    with pytest.raises(ValueError, match="normalized"):
        dehn_twist(four_holed, f1, 1, Curve(((1, 1), (1, -1), (2, 1))))


def test_twist_rejects_a_self_crossing_image(monkeypatch):
    # the looped arc of test_assemble_rejects_crossing_images: pushoff 1's
    # endpoints joined across arc 2, which crosses itself
    pants = make_page(0, 3)
    c = parse_curve(pants, [(1, 1), (2, 1)])
    p1 = pushoff(pants, 1)
    looped = ArcImage(p1.start_slot, p1.end_slot, ((2, -1),), normalized=True)
    monkeypatch.setattr(mapping, "_image", lambda target, tokens: looped)
    with pytest.raises(RuntimeError, match="self-crossing image"):
        dehn_twist(pants, c, -1, p1)


def _book(text):
    book = parse_input(text)
    return book.page, book.word.letters


def test_shared_arrangement_twists_as_single_twists(monkeypatch):
    # each letter of apply_word twists all images in one arrangement;
    # dehn_twist arranges each image alone with the curve
    books = [_book(text) for text in BENCH_LADDER.values()]
    books += [_book(LANTERN + "twists: " + " ".join([LANTERN_WORD] * k)
                    + "\n") for k in (2, 3)]
    books += [_book(torus_word("+a -b", 8))]
    # the property suite's draws, caught before they are built
    monkeypatch.setattr(test_acceptance, "build_diagram",
                        lambda page, word: books.append((page, word.letters)))
    rng = random.Random(2026)
    for _ in range(100):
        test_acceptance.random_book(rng)
    twisted = 0
    for page, letters in books:
        basis = tuple(pushoff(page, i) for i in range(1, page.n_arcs + 1))
        images = basis
        for letter in reversed(letters):
            single = tuple(dehn_twist(page, *letter, t) for t in images)
            assert apply_word(page, TwistWord((letter,)), images) == single
            twisted += single != images
            images = single
        assert apply_word(page, TwistWord(letters), basis) == images
    assert twisted > 100


def test_apply_word_lets_curves_parallel_to_a_letter_sit_it_out(four_holed):
    d, _d4, f1, f2, _f3 = _lantern_curves(four_holed)
    letters = ((f1, 1), (d[0], -1))
    images = [d[0], f2]
    expected = images
    for curve, sign in reversed(letters):
        expected = [dehn_twist(four_holed, curve, sign, t) for t in expected]
    assert expected[0] is d[0] and expected[1] != f2
    assert apply_word(four_holed, TwistWord(letters), images) == tuple(expected)


def _counted_arrangements(monkeypatch):
    built = []

    class Counted(Arrangement):
        def __init__(self, page, paths):
            built.append(len(paths))
            super().__init__(page, paths)

    monkeypatch.setattr(mapping, "Arrangement", Counted)
    return built


@pytest.mark.parametrize("text, letters", [
    (LANTERN + "twists: " + " ".join([LANTERN_WORD] * 2) + "\n", 6),
    (torus_word("+a +b", 4), 8),
    (torus_word("+a -b", 8), 16),
], ids=["lantern_x2", "ab_4", "abinv_8"])
def test_apply_word_arranges_once_per_letter(monkeypatch, text, letters):
    # one arrangement per letter, and one to check the last images
    page, word = _book(text)
    basis = tuple(pushoff(page, i) for i in range(1, page.n_arcs + 1))
    built = _counted_arrangements(monkeypatch)
    apply_word(page, TwistWord(word), basis)
    assert len(word) == letters
    assert len(built) == letters + 1


@pytest.mark.parametrize("letters", [1, 2])
def test_apply_word_rejects_a_self_crossing_image(monkeypatch, letters):
    # letter 1 yields the looped arc of test_twist_rejects_a_self_crossing_image;
    # letter 2's arrangement finds it, or the last check after letter 1
    pants = make_page(0, 3)
    c = parse_curve(pants, [(1, 1), (2, 1)])
    p1 = pushoff(pants, 1)
    looped = ArcImage(p1.start_slot, p1.end_slot, ((2, -1),), normalized=True)
    made = []
    monkeypatch.setattr(mapping, "_image",
                        lambda target, tokens: made.append(tokens) or looped)
    with pytest.raises(RuntimeError, match="self-crossing image"):
        apply_word(pants, TwistWord(((c, -1),) * letters), [p1])
    assert len(made) == 1


def test_apply_word_rejects_crossing_images(monkeypatch, four_holed):
    # two arcs, each embedded, that cross each other: as targets they are
    # the caller's error, as a letter's images an internal one
    _d, d4, f1, _f2, _f3 = _lantern_curves(four_holed)
    b1 = pushoff(four_holed, 1)
    crossing = [b1, dehn_twist(four_holed, f1, -1, b1)]
    for path in crossing:
        assert Arrangement(four_holed, [path]).crossing_free()
    assert geometric_intersection(four_holed, *crossing) > 0
    with pytest.raises(ValueError, match="pairwise disjoint"):
        apply_word(four_holed, TwistWord(((d4, 1),)), crossing)

    basis = [pushoff(four_holed, i) for i in (1, 2)]
    monkeypatch.setattr(mapping, "_splice",
                        lambda arr, q, c, sign, target: crossing[q - 1])
    with pytest.raises(RuntimeError, match="two crossing images"):
        apply_word(four_holed, TwistWord(((d4, 1), (d4, 1))), basis)


def test_random_round_trips_and_intersections():
    pages = [make_page(0, 4), make_page(1, 1)]
    for seed in (23, 123, 223, 323):
        rng = random.Random(seed)
        checked = 0
        for trial in range(90):
            page = pages[trial % 2]
            word_c = tuple((rng.randint(1, page.n_arcs), rng.choice((1, -1)))
                           for _ in range(rng.randint(1, 3)))
            word_t = tuple((rng.randint(1, page.n_arcs), rng.choice((1, -1)))
                           for _ in range(rng.randint(1, 3)))
            try:
                c = parse_curve(page, word_c)
                t = parse_curve(page, word_t)
            except ValueError:
                continue
            sign = rng.choice((1, -1))
            image = dehn_twist(page, c, sign, t)
            assert dehn_twist(page, c, -sign, image) == t
            u = pushoff(page, rng.randint(1, page.n_arcs))
            image_u = dehn_twist(page, c, sign, u)
            lib = geometric_intersection(page, image, image_u)
            assert lib == geometric_intersection(page, t, u)
            # the brute-force check enumerates strand orders, so keep it to
            # images it can afford
            if len(image.crossings) + len(image_u.crossings) <= 8:
                assert lib == oracle_pair_crossings(page, image, image_u)
            checked += 1
        assert checked >= 30


@pytest.mark.parametrize("seed", [37, 137, 237, 337])
def test_twist_returns_target_exactly_when_disjoint(seed):
    rng = random.Random(seed)
    pages = [make_page(0, 2), make_page(0, 3), make_page(0, 4),
             make_page(1, 1), make_page(1, 2)]

    def random_curve(page):
        while True:
            word = tuple((rng.randint(1, page.n_arcs), rng.choice((1, -1)))
                         for _ in range(rng.randint(1, 3)))
            try:
                return parse_curve(page, word)
            except ValueError:
                continue

    disjoint = 0
    for trial in range(150):
        page = pages[trial % len(pages)]
        c = random_curve(page)
        pushed = pushoff(page, rng.randint(1, page.n_arcs))
        targets = [random_curve(page), pushed,
                   dehn_twist(page, random_curve(page), rng.choice((1, -1)),
                              pushed)]
        for t in targets:
            sign = rng.choice((1, -1))
            zero = geometric_intersection(page, c, t) == 0
            assert (dehn_twist(page, c, sign, t) == t) == zero
            disjoint += zero
        reverse = parse_curve(page, invert_word(c.crossings))
        for sign in (1, -1):
            assert dehn_twist(page, c, sign, c) == c
            assert dehn_twist(page, c, sign, reverse) == reverse
    assert 0 < disjoint < 450
