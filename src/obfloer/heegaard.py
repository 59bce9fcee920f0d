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
Inside a sheet the chord systems are realized without crossings, so
the polygon faces are immediate; faces are then merged across the
stretches of page boundary between the sheets, since no attaching
circle runs along the binding.  Euler characteristics are tracked
through the merge, which is how non-disk regions are recognized.

The basepoint region is the one touching the binding immediately
counterclockwise of the first pushoff's starting endpoint on the top
sheet.
"""

from __future__ import annotations

from dataclasses import dataclass

from .mapping import TwistWord, apply_word
from .surface import ArcImage, Arrangement, Page, pushoff, successor_cycles

_TOP, _BOTTOM = 0, 1
_END = "end"
_CROSSING_IMAGES = ("arc images must be embedded and pairwise disjoint to "
                    "double into a diagram")


@dataclass
class Region:
    """One complement component of the two attaching families.

    Boundary cycles list half-edge ids with the region on the left.
    A region is a disk exactly when its Euler characteristic is 1.
    """

    cycles: list
    euler: int

    @property
    def corner_count(self) -> int:
        return sum(len(cycle) for cycle in self.cycles)

    @property
    def is_disk(self) -> bool:
        return self.euler == 1

    @property
    def is_bigon(self) -> bool:
        return self.euler == 1 and self.corner_count == 2

    @property
    def is_square(self) -> bool:
        return self.euler == 1 and self.corner_count == 4


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
            regions=[Region(cycles=[list(c) for c in r.cycles], euler=r.euler)
                     for r in self.regions],
            he_region=list(self.he_region),
            z0_region=self.z0_region)

    def contact_tuple(self) -> tuple[int, ...]:
        """The distinguished generator: the top-sheet point on each arc.

        assemble_diagram numbers these n crossings first, and flattening
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
        out = []
        for r, region in enumerate(self.regions):
            if r == self.z0_region or region.is_bigon or region.is_square:
                continue
            out.append(r)
        return out

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

    A family whose chords cross inside the polygon is rejected by the
    face count; one whose strands cross beside an arc, by
    assemble_diagram's strand-order check.

    A walk instance is (item, d): a polygon-boundary piece ("i", node)
    running from node to node + 1, or chord c of path p, ("c", p, c),
    walked along (d = 1) or against (d = -1) its path.  next_item maps
    each instance to the one after it with the face on the left, and
    face_of numbers the faces.
    """

    def __init__(self, page: Page, paths, sheet: int):
        self.page = page
        self.sheet = sheet
        self.arr = Arrangement(page, paths)
        self._build_nodes()
        self._walk_faces()

    def _build_nodes(self) -> None:
        self.node_index = {}
        self.node_keys = []
        for pos in range(self.page.n_sides):
            for key in [("corner", pos)] + [
                    ("att", handle) for handle in self.arr.att_order[pos]]:
                self.node_index[key] = len(self.node_keys)
                self.node_keys.append(key)
        self.chord_end = {}
        for p, chords in enumerate(self.arr.chords):
            for c, (h_from, h_to) in enumerate(chords):
                for handle, direction in ((h_from, 1), (h_to, -1)):
                    node = self.node_index[("att", handle)]
                    if node in self.chord_end:
                        raise RuntimeError(
                            "internal error: two chord ends in one node")
                    self.chord_end[node] = (p, c, direction)

    def _walk_faces(self) -> None:
        """Faces of the chord-subdivided polygon, interior on the left."""
        m = len(self.node_keys)
        nxt = {}
        for v in range(m):
            head = (v + 1) % m
            if head in self.chord_end:
                p, c, direction = self.chord_end[head]
                nxt[(("i", v), 1)] = (("c", p, c), direction)
            else:
                nxt[(("i", v), 1)] = (("i", head), 1)
        for node, (p, c, direction) in self.chord_end.items():
            # the chord instance arriving at this node turns onto the boundary
            nxt[(("c", p, c), -direction)] = (("i", node), 1)
        self.next_item = nxt
        faces = successor_cycles(nxt, _instance_key)
        self.face_of = {inst: f for f, face in enumerate(faces)
                        for inst in face}
        self.n_faces = len(faces)
        # crossing chords make the ribbon surface non-planar, which costs
        # faces
        if len(faces) != 1 + sum(len(chords) for chords in self.arr.chords):
            raise ValueError(_CROSSING_IMAGES)

    def corner_node(self, pos: int) -> int:
        return self.node_index[("corner", pos)]


def _instance_key(inst):
    item, d = inst
    return (len(item), item, d)


def build_diagram(page: Page, monodromy: TwistWord) -> HeegaardDiagram:
    """Diagram of the open book with the given twist-word monodromy."""
    if not isinstance(monodromy, TwistWord):
        raise TypeError("monodromy must be a TwistWord")
    basis = tuple(pushoff(page, i) for i in range(1, page.n_arcs + 1))
    return assemble_diagram(page, apply_word(page, monodromy, basis))


def assemble_diagram(page: Page, images) -> HeegaardDiagram:
    """Diagram of the book whose monodromy sends pushoff j to images[j-1]."""
    n = page.n_arcs
    images = list(images)
    if len(images) != n:
        raise ValueError(f"need {n} monodromy images, got {len(images)}")
    if n == 0:
        # the disk page doubles to a sphere with no curves: one region,
        # the basepoint one, and the empty generator
        sphere = HeegaardDiagram(
            n=0, v_alpha=[], v_beta=[], v_tag=[], edge_label=[],
            he_origin=[], regions=[Region(cycles=[], euler=2)],
            he_region=[], z0_region=0)
        sphere.validate()
        return sphere
    pushoffs = [pushoff(page, i) for i in range(1, n + 1)]
    for j, image in enumerate(images):
        if not isinstance(image, ArcImage):
            raise ValueError("monodromy images must be concrete arc images")
        if not image.normalized:
            raise ValueError("monodromy images must be normalized")
        if (image.start_slot != pushoffs[j].start_slot
                or image.end_slot != pushoffs[j].end_slot):
            raise ValueError(
                "monodromy images must keep the pushoff endpoints")

    top = _Chart(page, pushoffs, _TOP)
    bottom = _Chart(page, images, _BOTTOM)
    charts = (top, bottom)

    # vertices: one per strand through an arc, on either sheet; the top
    # sheet goes first, so pushoff j's contact crossing is vertex j - 1
    v_alpha, v_beta, v_tag = [], [], []
    vertex_of = {}
    for chart in charts:
        for p, events in enumerate(chart.arr.events):
            for k, ev in enumerate(events):
                if ev[0] != "x":
                    continue
                vertex_of[(chart.sheet, p, k)] = len(v_alpha)
                v_alpha.append(ev[1])
                v_beta.append(p + 1)
                v_tag.append(("contact", p + 1) if chart.sheet == _TOP
                             else ("token", p + 1, k - 1))
    for j in range(n):
        hits = [ev for ev in top.arr.events[j] if ev[0] == "x"]
        if len(hits) != 1 or hits[0][1] != j + 1:
            raise RuntimeError("internal error: pushoff strays off its arc")

    # strand sequences through each arc, in arc-parameter order, read
    # from its first-copy side and its second-copy side
    arc_sides = [None] + [
        (page.arc_side_pos(page.first_occurrence[i - 1]),
         page.arc_side_pos(page.second_occurrence[i - 1]))
        for i in range(1, n + 1)]
    strands = {}
    for chart in charts:
        for i in range(1, n + 1):
            pos_l, pos_r = arc_sides[i]
            seq_l = [h[:2] for h in chart.arr.att_order[pos_l]]
            seq_r = [h[:2] for h in chart.arr.att_order[pos_r]]
            if seq_l != seq_r[::-1]:
                # strands cross beside the arc
                raise ValueError(_CROSSING_IMAGES)
            strands[(chart.sheet, i)] = seq_l

    # A curve piece is ("p", instance, flipped): the walk instance going
    # along the curve, and the one with the other side on the left.
    def alpha_piece(sheet, i, t):
        """The arc piece at parameter slot t."""
        pos_l, pos_r = arc_sides[i]
        m = len(strands[(sheet, i)])
        d = 1 if sheet == _TOP else -1
        left = (sheet, ("i", charts[sheet].corner_node(pos_l) + t), d)
        right = (sheet, ("i", charts[sheet].corner_node(pos_r) + (m - t)), d)
        return ("p", left, right)

    def chord_piece(sheet, j, c, d):
        return ("p", (sheet, ("c", j, c), d), (sheet, ("c", j, c), -d))

    # final edges: chains of directed pieces between consecutive crossings
    edge_label = []
    edge_length = []
    he_origin = []
    instance_home = {}

    def emit_edges(label, elems):
        """Split a cyclic piece/vertex sequence into edges at the vertices."""
        first_v = next(t for t, e in enumerate(elems) if e[0] == "v")
        elems = elems[first_v:] + elems[:first_v]
        breaks = [t for t, e in enumerate(elems) if e[0] == "v"]
        for which, t in enumerate(breaks):
            end = breaks[which + 1] if which + 1 < len(breaks) else len(elems)
            chain = elems[t + 1:end]
            if not chain:
                raise RuntimeError("internal error: edge without pieces")
            head = elems[breaks[(which + 1) % len(breaks)]][1]
            e = len(edge_label)
            edge_label.append(label)
            edge_length.append(len(chain))
            he_origin.extend((elems[t][1], head))
            for s, (_p, inst, _flipped) in enumerate(chain):
                instance_home[inst] = (2 * e, s)
            for s, (_p, _inst, flipped) in enumerate(reversed(chain)):
                instance_home[flipped] = (2 * e + 1, s)

    for i in range(1, n + 1):
        elems = []
        seq_top = strands[(_TOP, i)]
        seq_bot = strands[(_BOTTOM, i)]
        for t in range(len(seq_top) + 1):
            elems.append(alpha_piece(_TOP, i, t))
            if t < len(seq_top):
                elems.append(("v", vertex_of[(_TOP,) + seq_top[t]]))
        for t in range(len(seq_bot), -1, -1):
            elems.append(alpha_piece(_BOTTOM, i, t))
            if t > 0:
                elems.append(("v", vertex_of[(_BOTTOM,) + seq_bot[t - 1]]))
        emit_edges(("a", i), elems)

    for j in range(n):
        elems = []
        for c in range(len(top.arr.chords[j])):
            elems.append(chord_piece(_TOP, j, c, 1))
            if c + 1 < len(top.arr.events[j]) - 1:
                elems.append(("v", vertex_of[(_TOP, j, c + 1)]))
        for c in range(len(bottom.arr.chords[j]) - 1, -1, -1):
            elems.append(chord_piece(_BOTTOM, j, c, -1))
            if c > 0:
                elems.append(("v", vertex_of[(_BOTTOM, j, c)]))
        emit_edges(("b", j + 1), elems)

    # region walks: the sheets' face walks, the bottom one reversed
    # because the doubling flips it over
    nxt = {}
    for chart in charts:
        for inst, to in chart.next_item.items():
            if chart.sheet == _TOP:
                nxt[(_TOP,) + inst] = (_TOP,) + to
            else:
                nxt[(_BOTTOM, to[0], -to[1])] = (_BOTTOM, inst[0], -inst[1])

    parent = {}
    euler = {}
    for chart in charts:
        for f in range(chart.n_faces):
            parent[(chart.sheet, f)] = (chart.sheet, f)
            euler[(chart.sheet, f)] = 1

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def face_of(instance):
        sheet, item, d = instance
        if sheet == _BOTTOM:
            d = -d
        return find((sheet, charts[sheet].face_of[(item, d)]))

    # each binding piece of the top sheet is glued to its bottom partner,
    # and the faces on either side merge into one region
    glue = {}
    for pos in range(page.n_sides):
        if page.is_arc_side(pos):
            continue
        tkeys = [(top.arr.events[p][k][1], p, top.arr.events[p][k][2])
                 for p, k, _role in top.arr.att_order[pos]]
        bkeys = [(bottom.arr.events[p][k][1], p, bottom.arr.events[p][k][2])
                 for p, k, _role in bottom.arr.att_order[pos]]
        if tkeys != bkeys:
            raise RuntimeError("internal error: sheets disagree on the binding")
        for t in range(len(tkeys) + 1):
            a = (_TOP, ("i", top.corner_node(pos) + t), 1)
            b = (_BOTTOM, ("i", bottom.corner_node(pos) + t), -1)
            ra, rb = face_of(a), face_of(b)
            if ra == rb:
                euler[ra] -= 1
            else:
                parent[rb] = ra
                euler[ra] += euler[rb] - 1
            glue[a] = b
            glue[b] = a

    # a walk reaching a binding piece crosses to the other sheet and goes
    # on after the partner; binding pieces never follow one another
    succ = {}
    for x, y in nxt.items():
        if x in glue:
            continue
        if y in glue:
            y = nxt[glue[y]]
            if y in glue:
                raise RuntimeError("internal error: bare binding circle")
        succ[x] = y

    # group the stitched cycles into regions, compressed to half-edges
    cycles = successor_cycles(
        succ, lambda inst: (inst[0],) + _instance_key(inst[1:]))
    region_index = {}
    regions = []
    he_region_map = {}
    for cycle in cycles:
        root = face_of(cycle[0])
        for inst in cycle:
            if face_of(inst) != root:
                raise RuntimeError("internal error: cycle spans two regions")
        if root not in region_index:
            region_index[root] = len(regions)
            regions.append(Region(cycles=[], euler=euler[root]))
        r = region_index[root]
        starts = [t for t, inst in enumerate(cycle)
                  if instance_home[inst][1] == 0]
        if not starts:
            raise RuntimeError("internal error: boundary cycle never turns")
        cycle = cycle[starts[0]:] + cycle[:starts[0]]
        compressed = []
        t = 0
        while t < len(cycle):
            h, at = instance_home[cycle[t]]
            if at != 0:
                raise RuntimeError("internal error: chain starts mid-edge")
            for s in range(edge_length[h // 2]):
                if instance_home[cycle[t + s]] != (h, s):
                    raise RuntimeError("internal error: chain broken in walk")
            compressed.append(h)
            he_region_map[h] = r
            t += edge_length[h // 2]
        regions[r].cycles.append(compressed)

    # the basepoint sits just counterclockwise of the first pushoff's start
    u1 = top.node_index[("att", (0, 0, _END))]
    z0_region = region_index[face_of((_TOP, ("i", u1), 1))]

    he_region = [he_region_map[h] for h in range(2 * len(edge_label))]
    diagram = HeegaardDiagram(
        n=n, v_alpha=v_alpha, v_beta=v_beta, v_tag=v_tag,
        edge_label=edge_label, he_origin=he_origin, regions=regions,
        he_region=he_region, z0_region=z0_region)
    diagram.validate()
    return diagram


__all__ = ["HeegaardDiagram", "Region", "assemble_diagram", "build_diagram"]
