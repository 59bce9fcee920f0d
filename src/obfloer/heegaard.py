"""Doubled-page Heegaard diagrams of an open book.

The Heegaard surface doubles the page: a top sheet, where each basis
arc keeps its parallel pushoff, and a bottom sheet, where the pushoffs
are replaced by their monodromy images.  Gluing the sheets along the
page boundary closes both families: every arc doubles to an attaching
circle of the "a" family, and every pushoff joins its image into a
circle of the "b" family.  All intersection points live on the arcs:
each pushoff meets its own arc once on the top sheet, and an image
word meets the arcs once per letter on the bottom sheet.  The tuple of
top-sheet points, one per arc, is the distinguished cycle whose class
the rest of the package decides about.

The region complex is assembled from two copies of the cut polygon.
Every walk instance, a piece of polygon boundary or a chord walked
one way, is an int: the top sheet's first, the bottom sheet's after
them, each in the order described on _Chart.  Inside a sheet the chord
systems are realized without crossings, so each instance is followed
by the next one along its polygon face.  One union-find over the
instances joins each to that next one, and each stretch of page
boundary to its partner on the other sheet, since no attaching circle
runs along the binding; its classes are the regions.  The boundary
cycles are the orbits of one successor on half-edges, which hops the
binding.  Regions and their cycles are found by scanning the instance
ids upward, so a region comes before another when the least instance
of its first cycle does.  The surface cut along the "a" circles is
planar, so a region's Euler characteristic is 2 less its number of
boundary cycles, and a region is a disk exactly when it has one
(docs/conventions.md).

The basepoint region is the one touching the binding immediately
counterclockwise of the first pushoff's starting endpoint on the top
sheet.
"""

from __future__ import annotations

from dataclasses import dataclass

from .mapping import TwistWord, apply_word
from .surface import Arrangement, Page, pushoff

_TOP, _BOTTOM = 0, 1


@dataclass
class Region:
    """One complement component of the two attaching families.

    Boundary cycles list half-edge ids with the region on the left.
    The surface cut along the "a" circles is planar and connected, so
    a region's Euler characteristic is 2 less its cycle count, and it
    is a disk exactly when it has one cycle.
    """

    cycles: list

    @property
    def euler(self) -> int:
        return 2 - len(self.cycles)

    @property
    def corner_count(self) -> int:
        return sum(len(cycle) for cycle in self.cycles)

    @property
    def is_disk(self) -> bool:
        return len(self.cycles) == 1

    @property
    def tile(self) -> int:
        """2 for a bigon disk, 4 for a square disk, 0 for any other region."""
        if len(self.cycles) != 1:
            return 0
        corners = len(self.cycles[0])
        return corners if corners in (2, 4) else 0

    @property
    def is_bigon(self) -> bool:
        return self.tile == 2

    @property
    def is_square(self) -> bool:
        return self.tile == 4


class HeegaardDiagram:
    """Doubled-page diagram with curves, crossings and regions.

    Half-edges come in twin pairs (2*e, 2*e + 1) for edge e; the twin
    of h is h ^ 1.  Every edge carries a label ("a", i) or ("b", j)
    naming its attaching circle, and v_alpha[v] and v_beta[v] name the
    two circles through vertex v.  Regions own their boundary cycles,
    walked with the region on the left; he_region maps a half-edge to
    the region on its left.  The circles are not stored: walks() traces
    them from the boundary cycles.  z0_region indexes the basepoint
    region, and vertices 0 .. n - 1 are the top-sheet crossings of the
    distinguished generator.

    Instances are produced by build_diagram and later mutated in place
    by the flattening moves; consistency can be rechecked at any point
    with validate().
    """

    def __init__(self, n, v_alpha, v_beta, v_tag, edge_label, he_origin,
                 regions, he_region, z0_region):
        self.n = n
        self.v_alpha = v_alpha
        self.v_beta = v_beta
        self.v_tag = v_tag
        self.edge_label = edge_label
        self.he_origin = he_origin
        self.regions = regions
        self.he_region = he_region
        self.z0_region = z0_region

    # -- elementary queries ------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.v_alpha)

    @property
    def n_edges(self) -> int:
        return len(self.edge_label)

    def twin(self, h: int) -> int:
        return h ^ 1

    def head(self, h: int) -> int:
        return self.he_origin[h ^ 1]

    def label(self, h: int) -> tuple:
        return self.edge_label[h // 2]

    def clone(self) -> "HeegaardDiagram":
        """Independent copy that the flattening moves may mutate."""
        return HeegaardDiagram(
            n=self.n,
            v_alpha=list(self.v_alpha), v_beta=list(self.v_beta),
            v_tag=list(self.v_tag),
            edge_label=list(self.edge_label),
            he_origin=list(self.he_origin),
            regions=[Region(cycles=[list(c) for c in r.cycles])
                     for r in self.regions],
            he_region=list(self.he_region),
            z0_region=self.z0_region)

    def contact_tuple(self) -> tuple[int, ...]:
        """The distinguished generator: the top-sheet point on each arc.

        build_diagram numbers these n crossings first, and flattening
        only appends vertices, so they are vertices 0 .. n - 1; validate()
        checks their tags.
        """
        return tuple(range(self.n))

    def bad_regions(self) -> list[int]:
        """Regions that keep the diagram from being combinatorially flat.

        Good regions are the pointed one, bigon disks and square
        disks; everything else has to be flattened away before the
        complex is counted.
        """
        return [r for r, region in enumerate(self.regions)
                if r != self.z0_region and not region.tile]

    def walks(self) -> tuple[list, list]:
        """The α and the β circles, each a cyclic list of half-edges.

        Circle i of a family is traced from contact vertex i - 1 straight
        on through every vertex: after h it takes nxt[nxt[h] ^ 1], where
        nxt is the boundary-cycle successor, since two left turns at a
        four-valent vertex lead straight across it.  It runs the way its
        lowest-numbered edge points.
        """
        nxt = [0] * (2 * self.n_edges)
        for region in self.regions:
            for cycle in region.cycles:
                for t, h in enumerate(cycle):
                    nxt[cycle[t - 1]] = h
        leave = {}
        for h, v in enumerate(self.he_origin):
            if v < self.n:
                leave[self.label(h)[0], v] = h
        out = ([], [])
        for fam, circles in zip("ab", out):
            for v in range(self.n):
                h, walk = leave[fam, v], []
                while not walk or h != walk[0]:
                    walk.append(h)
                    h = nxt[nxt[h] ^ 1]
                if min(walk) % 2:
                    walk = [g ^ 1 for g in reversed(walk)]
                circles.append(walk)
        return out

    # -- consistency ---------------------------------------------------

    def validate(self) -> None:
        n_he = 2 * self.n_edges
        seen = {}
        for r, region in enumerate(self.regions):
            for cycle in region.cycles:
                if not cycle:
                    raise RuntimeError("internal error: empty boundary cycle")
                for t, h in enumerate(cycle):
                    if h in seen:
                        raise RuntimeError("internal error: half-edge reused")
                    seen[h] = r
                    if self.he_region[h] != r:
                        raise RuntimeError("internal error: he_region mismatch")
                    nxt = cycle[(t + 1) % len(cycle)]
                    if self.he_origin[nxt] != self.head(h):
                        raise RuntimeError("internal error: broken cycle")
                    if self.label(h)[0] == self.label(nxt)[0]:
                        raise RuntimeError(
                            "internal error: boundary fails to alternate "
                            "families")
        if len(seen) != n_he:
            raise RuntimeError("internal error: unswept half-edges")
        degree = [0] * self.n_vertices
        for h in range(n_he):
            degree[self.he_origin[h]] += 1
        if any(d != 4 for d in degree):
            raise RuntimeError("internal error: vertex is not four-valent")
        euler = self.n_vertices - self.n_edges + sum(
            region.euler for region in self.regions)
        if euler != 2 - 2 * self.n:
            raise RuntimeError(
                f"internal error: region complex has Euler number {euler}, "
                f"the surface needs {2 - 2 * self.n}")
        if self.v_tag[:self.n] != [("contact", i)
                                   for i in range(1, self.n + 1)]:
            raise RuntimeError("internal error: missing contact point")
        traced = [None] * self.n_edges
        for fam, circles in zip("ab", self.walks()):
            for i, walk in enumerate(circles, start=1):
                for h in walk:
                    traced[h // 2] = (fam, i)
        if traced != self.edge_label:
            raise RuntimeError("internal error: circle walk misses its edges")
        on = {"a": self.v_alpha, "b": self.v_beta}
        for e, (fam, i) in enumerate(self.edge_label):
            if (on[fam][self.he_origin[2 * e]] != i
                    or on[fam][self.he_origin[2 * e + 1]] != i):
                raise RuntimeError(
                    "internal error: a vertex's circles disagree with its "
                    "edges")


class _Chart:
    """One sheet: the cut polygon subdivided by a crossing-free family.

    arr arranges the family, and has passed its crossing_free() before
    it gets here (_double's, or the twist's last check).

    The polygon boundary has m nodes, each side's corner followed by its
    attachments; corner[pos] and node_of[handle] give them.  Walk
    instances are ints.  Boundary piece v, between nodes v and v + 1,
    is v; the top sheet walks it from v to v + 1, and the bottom sheet,
    which the doubling flips over, back from v + 1 to v.  A chord walked
    to its end h is m + h: chord c of arr, walked along its path, is
    m + 2c + 1, and against it m + 2c.  nxt[i] is the instance after i
    with the face on the left, as the doubled surface sees it.  The
    chart numbers no faces; _double's union-find groups the instances.
    """

    def __init__(self, page: Page, arr: Arrangement, sheet: int):
        self.arr = arr
        self.corner, self.node_of, m = [], [0] * len(arr.side), 0
        for pos in range(page.n_sides):
            self.corner.append(m)
            for h in arr.att_order[pos]:
                m += 1
                self.node_of[h] = m
            m += 1
        self.m = m
        # the piece into node u is followed by the piece out of u, unless
        # u holds handle h: then by the chord leaving h, m + (h ^ 1), and
        # the chord arriving at h, m + h, by the piece out of u
        step = 1 if sheet == _TOP else -1
        nxt = self.nxt = [(v + step) % m for v in range(m)]
        nxt += [0] * len(self.node_of)
        for h, u in enumerate(self.node_of):
            a, b = (u - 1) % m, u
            if sheet == _BOTTOM:
                a, b = b, a
            nxt[a] = m + (h ^ 1)
            nxt[m + h] = b


def build_diagram(page: Page, monodromy: TwistWord) -> HeegaardDiagram:
    """Diagram of the open book with the given twist-word monodromy."""
    if not isinstance(monodromy, TwistWord):
        raise TypeError("monodromy must be a TwistWord")
    basis = tuple(pushoff(page, i) for i in range(1, page.n_arcs + 1))
    return _double(page, basis, apply_word(page, monodromy, basis))


def _double(page: Page, pushoffs, images) -> HeegaardDiagram:
    """Glue the pushoffs' sheet to the images' sheet.

    images is apply_word's result on pushoffs: its arrangement, already
    checked, is the bottom sheet's, and when no letter moved an image
    the pushoffs' own arrangement serves both sheets.  Each sheet's
    vertices are read off its paths' crossing words, in the order the
    arrangement numbers their chords.

    Regions are the classes of one union-find over walk instances, which
    joins each instance to the next and each binding piece to its
    partner.  A half-edge runs along a chain of instances, and the
    boundary cycles are the orbits of after, its successor on half-edges.
    """
    n = page.n_arcs
    if n == 0:
        # the disk page doubles to a sphere with no curves: one region,
        # the basepoint one, and the empty generator
        sphere = HeegaardDiagram(
            n=0, v_alpha=[], v_beta=[], v_tag=[], edge_label=[],
            he_origin=[], regions=[Region(cycles=[])],
            he_region=[], z0_region=0)
        sphere.validate()
        return sphere
    # a boundary side lists its endpoints in handle order, which is the
    # slot key order (path, end), so both sheets list the same ones in
    # the same order when every image keeps its pushoff's slots
    if any((b.start_slot, b.end_slot) != (h.start_slot, h.end_slot)
           for b, h in zip(pushoffs, images)):
        raise RuntimeError("internal error: sheets disagree on the binding")
    top_arr = Arrangement(page, pushoffs)
    if not top_arr.crossing_free():
        raise RuntimeError("internal error: pushoffs cross")
    top = _Chart(page, top_arr, _TOP)
    bottom = _Chart(page, images.arrangement or top_arr, _BOTTOM)
    charts = (top, bottom)

    if any([arc for arc, _ in b.crossings] != [j]
           for j, b in enumerate(pushoffs, start=1)):
        raise RuntimeError("internal error: pushoff strays off its arc")
    # vertices: one per token of a path, numbered by sheet, path and
    # token, so pushoff j's contact crossing is vertex j - 1.  A path's
    # chords run from its start through its tokens to its end, so
    # vertex_at[sheet][c] is the crossing that chord c of the sheet ends
    # at, the one whose attachments are 2c + 1 and 2c + 2, or -1 where
    # the path ends.
    v_alpha, v_beta, v_tag, vertex_at = [], [], [], []
    for sheet, paths in enumerate((pushoffs, images)):
        at = []
        for j, path in enumerate(paths, start=1):
            for t, (arc, _sign) in enumerate(path.crossings):
                at.append(len(v_alpha))
                v_alpha.append(arc)
                v_beta.append(j)
                v_tag.append(("contact", j) if sheet == _TOP
                             else ("token", j, t))
            at.append(-1)
        vertex_at.append(at)

    # walk instances of the surface: the top sheet's, then the bottom
    # sheet's numbered on after them
    base = (0, len(top.nxt))
    nxt = top.nxt + [i + base[1] for i in bottom.nxt]

    # final edges: chains of directed pieces between consecutive crossings
    edge_label = []
    he_origin = []
    # the half-edge whose chain holds each instance, and the first and
    # last instance of each half-edge's chain
    home = [-1] * len(nxt)
    first, last = [], []

    def emit_edges(label, elems):
        """Split a cyclic piece/vertex sequence into edges at the vertices.

        A piece is (instance, flipped): the walk instance going along
        the curve, and the one with the other side on the left.
        """
        breaks = [t for t, e in enumerate(elems) if type(e) is int]
        elems = elems[breaks[0]:] + elems[:breaks[0]]
        breaks = [t - breaks[0] for t in breaks]
        for which, t in enumerate(breaks):
            end = breaks[which + 1] if which + 1 < len(breaks) else len(elems)
            chain = elems[t + 1:end]
            if not chain:
                raise RuntimeError("internal error: edge without pieces")
            head = elems[breaks[(which + 1) % len(breaks)]]
            h = 2 * len(edge_label)
            edge_label.append(label)
            he_origin.extend((elems[t], head))
            for inst, flipped in chain:
                home[inst], home[flipped] = h, h + 1
            first.extend((chain[0][0], chain[-1][1]))
            last.extend((chain[-1][0], chain[0][1]))

    # circle a_i runs along arc i's first copy on the top sheet and back
    # on the bottom one; the first copy lists the strands through the arc
    # in parameter order, the second copy lists them reversed
    for i, (p, q) in enumerate(zip(page.first_occurrence,
                                   page.second_occurrence), start=1):
        pos_l, pos_r = page.arc_side_pos(p), page.arc_side_pos(q)
        elems = []
        for sheet, chart in enumerate(charts):
            strands = chart.arr.att_order[pos_l]
            left = base[sheet] + chart.corner[pos_l]
            right = base[sheet] + chart.corner[pos_r] + len(strands)
            seq = [(left, right)]
            for t, h in enumerate(strands, start=1):
                seq += (vertex_at[sheet][(h - 1) >> 1], (left + t, right - t))
            elems += seq if sheet == _TOP else seq[::-1]
        emit_edges(("a", i), elems)

    # circle b_j runs along pushoff j's chords and back along image j's
    for j in range(n):
        elems = []
        x = top.m
        start, stop = top.arr.chord_base[j:j + 2]
        for c in range(start, stop):
            if c > start:
                elems.append(vertex_at[_TOP][c - 1])
            elems.append((x + 2 * c + 1, x + 2 * c))
        x = base[_BOTTOM] + bottom.m
        start, stop = bottom.arr.chord_base[j:j + 2]
        for c in range(stop - 1, start - 1, -1):
            elems.append((x + 2 * c, x + 2 * c + 1))
            if c > start:
                elems.append(vertex_at[_BOTTOM][c - 1])
        emit_edges(("b", j + 1), elems)

    # an instance and the next one with the same face on the left share a
    # region, and so do a top binding piece and its bottom partner
    parent = list(range(len(nxt)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in enumerate(nxt):
        parent[find(y)] = find(x)
    glue = [-1] * len(nxt)
    for pos in range(page.n_sides):
        if page.is_arc_side(pos):
            continue
        for t in range(len(top.arr.att_order[pos]) + 1):
            a = top.corner[pos] + t
            b = base[_BOTTOM] + bottom.corner[pos] + t
            parent[find(b)] = find(a)
            glue[a], glue[b] = b, a

    # after[h] is the half-edge after h on its boundary cycle: a walk
    # reaching a binding piece crosses to the other sheet and goes on
    # after the partner; binding pieces never follow one another
    after = []
    for x in last:
        y = nxt[x]
        if glue[y] >= 0:
            y = nxt[glue[y]]
            if glue[y] >= 0:
                raise RuntimeError("internal error: bare binding circle")
        after.append(home[y])

    # regions in the order of their least instance; a cycle found at an
    # instance inside h's chain starts at after[h]
    region_at, regions = {}, []
    he_region = [-1] * len(he_origin)
    for i, h in enumerate(home):
        if h < 0 or he_region[h] >= 0:
            continue
        r = region_at.setdefault(find(i), len(regions))
        if r == len(regions):
            regions.append(Region(cycles=[]))
        if i != first[h]:
            h = after[h]
        cycle = []
        while he_region[h] < 0:
            he_region[h] = r
            cycle.append(h)
            h = after[h]
        regions[r].cycles.append(cycle)

    # the basepoint sits just counterclockwise of the first pushoff's
    # start, handle 0
    z0_region = region_at[find(top.node_of[0])]

    diagram = HeegaardDiagram(
        n=n, v_alpha=v_alpha, v_beta=v_beta, v_tag=v_tag,
        edge_label=edge_label, he_origin=he_origin, regions=regions,
        he_region=he_region, z0_region=z0_region)
    diagram.validate()
    return diagram


__all__ = ["HeegaardDiagram", "Region", "build_diagram"]
