import random

import pytest

from obfloer.floer import generators
from obfloer.heegaard import assemble_diagram, build_diagram
from obfloer.mapping import TwistWord, dehn_twist
from obfloer.nicify import elementary_moves, finger_move, lazy_frontier, make_nice
from obfloer.surface import ArcImage, make_page, parse_curve, pushoff

from test_acceptance import random_book as property_book

annulus = make_page(0, 2)
torus = make_page(1, 1)
pants = make_page(0, 3)
four_holed = make_page(0, 4)


def region_shapes(diagram):
    return sorted((r.euler, r.corner_count, len(r.cycles),
                   k == diagram.z0_region)
                  for k, r in enumerate(diagram.regions))


def test_annulus_identity_book():
    dia = build_diagram(annulus, TwistWord(()))
    assert dia.n == 1
    assert dia.n_vertices == 2
    assert dia.n_edges == 4
    # one annular pointed region next to the binding, two bigons between
    # the parallel circles
    assert region_shapes(dia) == [
        (0, 4, 2, True), (1, 2, 1, False), (1, 2, 1, False)]
    assert dia.bad_regions() == []


def test_positive_stabilization_book():
    core = parse_curve(annulus, [(1, 1)])
    dia = build_diagram(annulus, TwistWord(((core, 1),)))
    assert dia.n_vertices == 1
    assert region_shapes(dia) == [(1, 4, 1, True)]
    assert dia.bad_regions() == []


def test_negative_twist_annulus_book():
    core = parse_curve(annulus, [(1, 1)])
    dia = build_diagram(annulus, TwistWord(((core, -1),)))
    assert dia.n_vertices == 3
    assert region_shapes(dia) == [
        (1, 2, 1, False), (1, 2, 1, False), (1, 8, 1, True)]
    assert dia.bad_regions() == []


@pytest.mark.parametrize("page", [torus, pants], ids=["torus", "pants"])
def test_identity_books_are_already_flat(page):
    dia = build_diagram(page, TwistWord(()))
    assert dia.n == 2
    assert dia.n_vertices == 4
    # each pushoff pair spans two cancelling bigons; everything else is
    # swallowed by the pointed region, which carries all the topology
    assert region_shapes(dia) == [
        (-2, 8, 4, True)] + [(1, 2, 1, False)] * 4
    assert dia.bad_regions() == []


def _lantern_words(page):
    d1 = parse_curve(page, [(1, 1)])
    d2 = parse_curve(page, [(2, 1)])
    d3 = parse_curve(page, [(3, 1)])
    d4 = parse_curve(page, [(1, 1), (2, 1), (3, 1)])
    f1 = parse_curve(page, [(1, 1), (2, 1)])
    f2 = parse_curve(page, [(2, 1), (3, 1)])
    f3 = parse_curve(page, [(1, 1), (3, 1)])
    boundary = TwistWord(((d1, 1), (d2, 1), (d3, 1), (d4, 1)))
    interior = TwistWord(((f1, 1), (f2, 1), (f3, 1)))
    return boundary, interior


def test_lantern_book():
    boundary, interior = _lantern_words(four_holed)
    dia = build_diagram(four_holed, boundary)
    assert dia.n == 3
    assert dia.n_vertices == 12
    assert dia.n_edges == 24
    assert len(dia.regions) == 8
    bad = dia.bad_regions()
    assert len(bad) == 1
    assert dia.regions[bad[0]].is_disk
    assert dia.regions[bad[0]].corner_count == 12
    assert dia.regions[dia.z0_region].corner_count == 12


def test_equal_monodromies_build_identical_diagrams():
    boundary, interior = _lantern_words(four_holed)
    da = build_diagram(four_holed, boundary)
    db = build_diagram(four_holed, interior)
    assert da.v_tag == db.v_tag
    assert da.edge_label == db.edge_label
    assert da.he_origin == db.he_origin
    assert [r.cycles for r in da.regions] == [r.cycles for r in db.regions]
    assert da.z0_region == db.z0_region


def test_contact_tuple_sits_on_the_top_sheet():
    boundary, _ = _lantern_words(four_holed)
    dia = build_diagram(four_holed, boundary)
    cycle = dia.contact_tuple()
    assert len(cycle) == dia.n
    for i, v in enumerate(cycle, start=1):
        assert dia.v_alpha[v] == i
        assert dia.v_beta[v] == i
        assert dia.v_tag[v] == ("contact", i)


def test_contact_crossings_are_the_first_vertices():
    rng = random.Random(1717)
    for _ in range(40):
        dia = property_book(rng)
        wiggled = dia
        for _ in range(3):
            moves = list(elementary_moves(wiggled))
            if moves:
                wiggled = finger_move(wiggled, rng.choice(moves))
        for d in (dia, lazy_frontier(dia), make_nice(dia), wiggled,
                  make_nice(wiggled)):
            assert d.contact_tuple() == tuple(range(d.n))
            assert generators(d)[0] == d.contact_tuple()


def test_validate_rejects_an_edited_contact_tag():
    boundary, _ = _lantern_words(four_holed)
    dia = build_diagram(four_holed, boundary)
    dia.validate()
    edited = dia.clone()
    edited.v_tag[0] = ("token", 1, 0)
    with pytest.raises(RuntimeError, match="missing contact point"):
        edited.validate()


def test_random_books_build_consistent_diagrams():
    pages = [annulus, pants, four_holed, torus, make_page(1, 2)]
    for seed in (31, 131, 231, 331):
        rng = random.Random(seed)

        def random_curve(page):
            while True:
                arcs = rng.sample(range(1, page.n_arcs + 1),
                                  rng.randint(1, min(3, page.n_arcs)))
                word = tuple((a, rng.choice((1, -1))) for a in sorted(arcs))
                try:
                    return parse_curve(page, word)
                except ValueError:
                    continue

        for _ in range(60):
            page = rng.choice(pages)
            word = TwistWord(tuple(
                (random_curve(page), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 4))))
            dia = build_diagram(page, word)
            # every crossing shows exactly four region corners
            corners = sum(r.corner_count for r in dia.regions)
            assert corners == 4 * dia.n_vertices
            # each circle closes up through as many edges as crossings
            for i in range(1, dia.n + 1):
                on_alpha = sum(1 for lab in dia.edge_label if lab == ("a", i))
                assert on_alpha == len(dia.alpha_walk[i - 1])
                on_beta = sum(1 for lab in dia.edge_label if lab == ("b", i))
                assert on_beta == len(dia.beta_walk[i - 1])
            # the basepoint sits in a region of the diagram
            assert 0 <= dia.z0_region < len(dia.regions)


def test_rebuild_is_deterministic():
    boundary, _ = _lantern_words(four_holed)
    da = build_diagram(four_holed, boundary)
    db = build_diagram(four_holed, boundary)
    assert da.he_origin == db.he_origin
    assert [r.cycles for r in da.regions] == [r.cycles for r in db.regions]


def test_build_rejects_bad_input():
    with pytest.raises(TypeError, match="TwistWord"):
        build_diagram(annulus, [(None, 1)])
    with pytest.raises(ValueError, match="no arcs"):
        build_diagram(make_page(0, 1), TwistWord(()))
    with pytest.raises(ValueError, match="need 2 monodromy images"):
        assemble_diagram(pants, (pushoff(pants, 1),))
    with pytest.raises(ValueError, match="pushoff endpoints"):
        assemble_diagram(pants, (pushoff(pants, 2), pushoff(pants, 1)))


def test_assemble_rejects_crossing_images():
    c = parse_curve(pants, [(1, 1), (2, 1)])
    twisted = dehn_twist(pants, c, -1, pushoff(pants, 1))
    with pytest.raises(ValueError, match="pairwise disjoint"):
        assemble_diagram(pants, (twisted, pushoff(pants, 2)))
    # pushoff 1's endpoints joined across arc 2 instead: it crosses itself
    p1 = pushoff(pants, 1)
    looped = ArcImage(p1.start_slot, p1.end_slot, ((2, -1),), normalized=True)
    with pytest.raises(ValueError, match="must be embedded"):
        assemble_diagram(pants, (looped, pushoff(pants, 2)))
