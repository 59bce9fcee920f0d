"""Independent brute-force oracles for curve arrangements on a page.

These deliberately avoid the library's canonical-arrangement code path.
A realization is modeled by choosing, for every basis arc, one global
order of all strands crossing it; the first copy of the arc reads that
order along the counterclockwise boundary and the second copy reads it
reversed.  Chords then cross exactly when their endpoints interleave
around the polygon, so minimal crossing numbers come from exhaustive
search over the per-arc orders.  oracle_att_order instead recomputes
the canonical arrangement's side orders by comparing strands in pairs.
oracle_columns assembles the boundary operator without the source
index, trying every census disk on every generator through disk_move.
The page oracles rebuild the gluing of the cut polygon from the
occurrence tables.  read_dump rebuilds a diagram from its canonical
text dump.  twist and elementary_moves only drive the library: one
Dehn twist is apply_word on one letter, and the single-crossing finger
moves are gratuitous isotopies for invariance tests.
exhaustive_flatten is the flattening planner that rescans bad_regions()
after every finger and walks every candidate chain to its end; the
library's planner must pick the same fingers.
"""

from __future__ import annotations

import functools
import itertools

from obfloer.floer import domain_census, generators
from obfloer.heegaard import HeegaardDiagram, Region
from obfloer.mapping import TwistWord, apply_word
from obfloer.nicify import FingerMoveSpec, _execute, _frontier
from obfloer.surface import Curve, Page, reduce_cyclic, successor_cycles


def twin_occurrences(page: Page) -> list[int]:
    """For each arc occurrence, the occurrence of the other copy."""
    twin = [0] * (2 * page.n_arcs)
    for first, second in zip(page.first_occurrence, page.second_occurrence):
        twin[first], twin[second] = second, first
    return twin


def boundary_count(page: Page) -> int:
    """Boundary circles of the page, walked around the glued polygon.

    The segment after segment j is the one following the twin of the
    next arc occurrence.
    """
    m = 2 * page.n_arcs
    if m == 0:
        return 1
    twin = twin_occurrences(page)
    return len(successor_cycles({j: twin[(j + 1) % m] for j in range(m)}))


def euler_characteristic_from_cut(page: Page) -> int:
    """Recompute the page's Euler characteristic from the identifications.

    The polygon contributes one face; arc sides glue in pairs and corners
    glue along arc endpoints.  The result must equal 2 - 2g - b.
    """
    n = page.n_arcs
    if n == 0:
        return 1
    # Corner before occurrence j is the same page point as the corner
    # after its twin occurrence; the matching pairs up all 4n corners.
    parent = list(range(4 * n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # Encode corner-before-occ-j as 2j and corner-after-occ-j as 2j + 1.
    for j, t in enumerate(twin_occurrences(page)):
        parent[find(2 * j)] = find(2 * t + 1)
    vertices = len({find(x) for x in range(4 * n)})
    edges = n + 2 * n  # glued arc sides + boundary segments
    faces = 1
    return vertices - edges + faces


def _events(path):
    if isinstance(path, Curve):
        return [("x", a, s) for a, s in path.crossings], True
    evs = [("e", path.start_slot, 0)]
    evs += [("x", a, s) for a, s in path.crossings]
    evs.append(("e", path.end_slot, 1))
    return evs, False


def _chords(events, cyclic, p):
    # A chord joins the exit attachment of one event to the entry
    # attachment of the next.  Attachment ids: (p, k, 'F'|'S'|'E').
    def entry_att(k):
        ev = events[k]
        if ev[0] == "e":
            return (p, k, "E")
        return (p, k, "F" if ev[2] > 0 else "S")

    def exit_att(k):
        ev = events[k]
        if ev[0] == "e":
            return (p, k, "E")
        return (p, k, "S" if ev[2] > 0 else "F")

    m = len(events)
    if cyclic:
        return [(exit_att(k), entry_att((k + 1) % m)) for k in range(m)]
    return [(exit_att(k), entry_att(k + 1)) for k in range(m - 1)]


def _crossing_count(page: Page, paths, orders):
    """Count chord interleavings under one choice of per-arc strand orders.

    Returns (per-path self counts, cross-count matrix entry for (0,1)).
    """
    all_events = []
    all_cyclic = []
    for path in paths:
        evs, cyc = _events(path)
        all_events.append(evs)
        all_cyclic.append(cyc)

    # Global circle positions, walking the polygon sides in order.
    position = {}
    counter = 0
    for pos in range(page.n_sides):
        if page.is_arc_side(pos):
            occ = pos // 2
            arc = page.occurrence_word[occ]
            first = page.first_occurrence[arc - 1] == occ
            strand_order = orders.get(arc, ())
            seq = strand_order if first else tuple(reversed(strand_order))
            for (p, k) in seq:
                role = "F" if first else "S"
                position[(p, k, role)] = counter
                counter += 1
        else:
            seg = pos // 2
            ends = []
            for p, evs in enumerate(all_events):
                for k, ev in enumerate(evs):
                    if ev[0] == "e" and ev[1] == seg:
                        ends.append(((p, ev[2]), (p, k, "E")))
            for _key, att in sorted(ends):
                position[att] = counter
                counter += 1
    total = counter

    def between(x, a, b):
        return 0 < (x - a) % total < (b - a) % total

    def cross(c1, c2):
        a, b = position[c1[0]], position[c1[1]]
        c, d = position[c2[0]], position[c2[1]]
        return between(c, a, b) != between(d, a, b)

    chords = [_chords(evs, cyc, p) for p, (evs, cyc) in enumerate(zip(all_events, all_cyclic))]
    selfs = []
    for p in range(len(paths)):
        n = 0
        for i in range(len(chords[p])):
            for j in range(i + 1, len(chords[p])):
                if cross(chords[p][i], chords[p][j]):
                    n += 1
        selfs.append(n)
    cross_01 = 0
    if len(paths) == 2:
        for c1 in chords[0]:
            for c2 in chords[1]:
                if cross(c1, c2):
                    cross_01 += 1
    return selfs, cross_01


def _strands_by_arc(page: Page, paths):
    strands = {arc: [] for arc in range(1, page.n_arcs + 1)}
    for p, path in enumerate(paths):
        evs, _cyc = _events(path)
        for k, ev in enumerate(evs):
            if ev[0] == "x":
                strands[ev[1]].append((p, k))
    return strands


def _order_choices(page: Page, paths):
    strands = _strands_by_arc(page, paths)
    arcs = [arc for arc in strands if strands[arc]]
    perms = [list(itertools.permutations(strands[arc])) for arc in arcs]
    for combo in itertools.product(*perms):
        yield dict(zip(arcs, combo))


def oracle_pair_crossings(page: Page, x, y):
    """Minimal crossings between two embedded paths, or None if either
    path admits no embedded realization at all."""
    best = None
    for orders in _order_choices(page, [x, y]):
        selfs, cross = _crossing_count(page, [x, y], orders)
        if selfs[0] or selfs[1]:
            continue
        if best is None or cross < best:
            best = cross
            if best == 0:
                break
    return best


def oracle_is_embeddable(page: Page, x) -> bool:
    for orders in _order_choices(page, [x]):
        selfs, _ = _crossing_count(page, [x], orders)
        if selfs[0] == 0:
            return True
    return False


def oracle_self_crossings(page: Page, x) -> int:
    """Minimal self-crossing count of one path over all placements."""
    return min(_crossing_count(page, [x], orders)[0][0]
               for orders in _order_choices(page, [x]))


def att_side(page: Page, ev, role):
    """Polygon side of an attachment: role "in", "out" or "end"."""
    if role == "end":
        return page.segment_side_pos(ev[1])
    entry = (ev[2] > 0) != (role == "out")
    occ = page.first_occurrence if entry else page.second_occurrence
    return page.arc_side_pos(occ[ev[1] - 1])


def handle_numbers(events):
    """The int handle of every attachment (p, k, role), as documented.

    Chords are numbered in (path, chord) order; chord k of a path runs
    from its event k to its event k + 1, cyclically on a curve, and
    chord c's ends are 2c and 2c + 1.
    """
    number, c = {}, 0
    for p, evs in enumerate(events):
        n_chords = len(evs) if evs[0][0] == "x" else len(evs) - 1
        for k in range(n_chords):
            k1 = (k + 1) % len(evs)
            tail = (p, k, "out" if evs[k][0] == "x" else "end")
            head = (p, k1, "in" if evs[k1][0] == "x" else "end")
            number[tail], number[head] = 2 * c, 2 * c + 1
            c += 1
    return number


def oracle_att_order(arr):
    """Attachment order along every polygon side, by a pairwise germ walk.

    Reads only the arrangement's page and events.  Two attachments on
    one arc side are compared by walking the strands leaving them, chord
    by chord, for as long as both reach the same sides: at the first
    chord whose far sides differ, the strand aiming further
    counterclockwise from the common near side attaches first; when
    both reach boundary slots, the larger slot key (path, end)
    attaches first.  Boundary sides are in slot-key order.  Each side
    lists handle_numbers' ints.
    """
    page, events = arr.page, arr.events
    twin = twin_occurrences(page)
    cap = 2 * sum(len(evs) + 2 for evs in events) + 16

    def far_sides(handle):
        p, k, role = handle
        d = -1 if role == "in" or (role == "end" and k > 0) else 1
        while True:
            k = (k + d) % len(events[p])
            ev = events[p][k]
            if ev[0] == "e":
                yield att_side(page, ev, "end"), (p, ev[2])
                return
            yield att_side(page, ev, "in" if d > 0 else "out"), None

    def compare(pos, h1, h2):
        near = pos
        walks = zip(far_sides(h1), far_sides(h2))
        for (s1, key1), (s2, key2) in itertools.islice(walks, cap):
            if s1 != s2:
                return -1 if (s1 - near) % page.n_sides > (s2 - near) % page.n_sides else 1
            if key1 is not None:
                return -1 if key1 > key2 else 1
            near = 2 * twin[s1 // 2]
        raise RuntimeError("could not separate parallel strands")

    by_side = [[] for _ in range(page.n_sides)]
    for p, evs in enumerate(events):
        for k, ev in enumerate(evs):
            for role in (("in", "out") if ev[0] == "x" else ("end",)):
                by_side[att_side(page, ev, role)].append((p, k, role))
    number = handle_numbers(events)
    for pos, atts in enumerate(by_side):
        if not page.is_arc_side(pos):
            atts.sort(key=lambda h: (h[0], events[h[0]][h[1]][2]))
        else:
            atts.sort(key=functools.cmp_to_key(lambda a, b, pos=pos: compare(pos, a, b)))
        by_side[pos] = [number[h] for h in atts]
    return by_side


def oracle_min_arc_tokens(page: Page, word, arc: int, budget: int = 2) -> int:
    """Minimal count of crossings with one arc over words reachable by
    insertion or deletion of adjacent inverse pairs (cyclic words).

    Exhaustive to the given length budget above the reduced length; used
    to confirm that reduction alone realizes the minimum.
    """
    def canon(w):
        w = tuple(w)
        if not w:
            return w
        return min(w[k:] + w[:k] for k in range(len(w)))

    start = canon(reduce_cyclic(tuple(word)))
    max_len = len(start) + 2 * budget
    tokens = [(a, s) for a in range(1, page.n_arcs + 1) for s in (1, -1)]
    seen = {start}
    frontier = [start]
    best = sum(1 for a, _s in start if a == arc)
    while frontier:
        nxt = []
        for w in frontier:
            n = len(w)
            candidates = []
            for i in range(n):
                j = (i + 1) % n
                if n >= 2 and w[i][0] == w[j][0] and w[i][1] == -w[j][1]:
                    if j > i:
                        candidates.append(w[:i] + w[j + 1:])
                    else:
                        candidates.append(w[1:-1])
            if n + 2 <= max_len:
                for i in range(n + 1):
                    for t in tokens:
                        candidates.append(w[:i] + (t, (t[0], -t[1])) + w[i:])
            for c in candidates:
                c = canon(c)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
                    best = min(best, sum(1 for a, _s in c if a == arc))
        frontier = nxt
    return best


# Twists about the two curves of the one-holed torus act on its first
# homology by these matrices; tr(ab) = 1 and tr(ab⁻¹) = 3.
_TORUS_TWISTS = {"a": ((1, 1), (0, 1)), "b": ((1, 0), (-1, 1))}


def oracle_torus_h1_order(letters) -> int:
    """|H₁(Y)| = |2 − tr φ_*| for a twist word on the one-holed torus.

    letters are (name, sign) pairs with names "a" and "b", applied
    rightmost first, so φ_* is their product in written order; Y is the
    3-manifold of the open book, and 0 stands for an infinite H₁.  Where
    HF-hat of Y is as small as it can be (an L-space), its rank equals
    this number, which gives rank answers that never read the census.
    """
    m = ((1, 0), (0, 1))
    for name, sign in letters:
        (p, q), (r, s) = _TORUS_TWISTS[name]
        t = ((p, q), (r, s)) if sign > 0 else ((s, -q), (-r, p))
        m = tuple(tuple(sum(m[i][k] * t[k][j] for k in range(2))
                        for j in range(2)) for i in range(2))
    return abs(2 - (m[0][0] + m[1][1]))


def disk_move(diagram, x, dom):
    """Generator dom moves x to, or None when dom does not fit x.

    x must hold every source corner, and the result holds the targets
    instead.  The moved generator avoids the passthrough vertices and
    keeps its α circles distinct.
    """
    y = list(x)
    for j, src, tgt in dom.swap:
        if y[j - 1] != src:
            return None
        y[j - 1] = tgt
    if not set(y).isdisjoint(dom.passthrough):
        return None
    if len({diagram.v_alpha[v] for v in y}) != len(y):
        return None
    return tuple(y)


def oracle_columns(diagram) -> tuple:
    """Boundary columns of a flattened diagram, by the all-pairs rule.

    Every census disk is tried on every generator through disk_move; column
    x lists, sorted, the indices of the generators reached an odd number
    of times, in the order generators() lists them.
    """
    gens = generators(diagram)
    index = {x: i for i, x in enumerate(gens)}
    census = domain_census(diagram)
    columns = []
    for x in gens:
        hits = set()
        for dom in census:
            y = disk_move(diagram, x, dom)
            if y is not None:
                hits ^= {index[y]}
        columns.append(tuple(sorted(hits)))
    return tuple(columns)


def read_dump(text: str) -> HeegaardDiagram:
    """The diagram whose canonical dump (front._render_text) is text.

    The census line and the sides and pointed fields are derived, so
    they are skipped; each euler field must be 2 less its cycle count,
    and he_region is read off the region cycles.
    """
    lines = text.splitlines()
    head = dict(tok.split("=") for tok in lines[0].split()[1:])
    v_alpha, v_beta, v_tag, edge_label, he_origin = [], [], [], [], []
    regions = []
    for line in lines[2:]:
        line, _, cycles = line.partition(" cycles=")
        kind, _, *tokens = line.split()
        f = dict(tok.split("=") for tok in tokens)
        if kind == "vertex":
            v_alpha.append(int(f["arc"]))
            v_beta.append(int(f["pushoff"]))
            tag = f["tag"].split(":")
            v_tag.append((tag[0], *map(int, tag[1:])))
        elif kind == "edge":
            edge_label.append((f["label"][0], int(f["label"][1:])))
            he_origin.extend((int(f["from"]), int(f["to"])))
        else:
            # the disk page's sphere has a region without a boundary
            region = Region(cycles=[[int(h) for h in cyc.split()]
                                    for cyc in cycles.split("|")]
                            if cycles else [])
            assert int(f["euler"]) == 2 - len(region.cycles), line
            regions.append(region)
    he_region = [0] * len(he_origin)
    for r, region in enumerate(regions):
        for cyc in region.cycles:
            for h in cyc:
                he_region[h] = r
    return HeegaardDiagram(
        n=int(head["arcs"]), v_alpha=v_alpha, v_beta=v_beta, v_tag=v_tag,
        edge_label=edge_label, he_origin=he_origin, regions=regions,
        he_region=he_region, z0_region=int(head["z0"]))


def twist(page: Page, c: Curve, sign: int, target):
    """Image of a curve or arc under the signed Dehn twist about c."""
    return apply_word(page, TwistWord(((c, sign),)), (target,))[0]


def elementary_moves(diagram: HeegaardDiagram):
    """All single-crossing finger moves legal on the diagram.

    Yields FingerMoveSpec values, one per pair of a "b" and an "a"
    half-edge on the boundary of an unpointed disk region.
    """
    for r, reg in enumerate(diagram.regions):
        if r == diagram.z0_region or not reg.is_disk:
            continue
        cyc = reg.cycles[0]
        for hh in cyc:
            if diagram.label(hh)[0] != "b":
                continue
            for ha in cyc:
                if diagram.label(ha)[0] != "a":
                    continue
                yield FingerMoveSpec(
                    source=hh, crossings=(ha,),
                    terminal=diagram.he_region[diagram.twin(ha)])


def _chain_from(d: HeegaardDiagram, start: int, exit_h: int):
    """Follow a finger straight through squares from a first crossing.

    Returns (crossings, rest_region, rest_rank) or None when the chain
    runs into a region it already cut.  Each step cuts a new square, so
    the chain ends.
    """
    crossings = [exit_h]
    visited = {start}
    enter = d.twin(exit_h)
    cur = d.he_region[enter]
    while True:
        reg = d.regions[cur]
        if cur == d.z0_region or reg.is_bigon:
            return crossings, cur, 0
        if cur in visited:
            return None
        if not reg.is_square:
            return crossings, cur, 2
        visited.add(cur)
        cyc = reg.cycles[0]
        exit_h = cyc[(cyc.index(enter) + 2) % 4]
        enter = d.twin(exit_h)
        cur = d.he_region[enter]
        crossings.append(exit_h)


def exhaustive_finger(d: HeegaardDiagram, target: int) -> FingerMoveSpec:
    """The finger with the least key (rank, crossings, hh, p) for target.

    Every candidate chain is walked to its end (_chain_from).
    """
    cyc = d.regions[target].cycles[0]
    L = len(cyc)
    best = None
    for pos, hh in enumerate(cyc):
        if d.label(hh)[0] != "b":
            continue
        absorber = d.he_region[d.twin(hh)]
        if absorber == d.z0_region or d.regions[absorber].is_bigon:
            a_rank = 0
        else:
            a_rank = 2
        for p in (3, L - 3):
            exit_h = cyc[(pos + p) % L]
            if d.he_region[d.twin(exit_h)] == target:
                continue
            chain = _chain_from(d, target, exit_h)
            if chain is None:
                continue
            crossings, rest, r_rank = chain
            key = (a_rank + r_rank, len(crossings), hh, p)
            if best is None or key < best[0]:
                best = (key, FingerMoveSpec(
                    source=hh, crossings=tuple(crossings),
                    terminal=rest))
    return best[1]


def exhaustive_flatten(diagram: HeegaardDiagram, frontier_only: bool):
    """The fingers of the exhaustive planner and the diagram they leave.

    After every finger, bad_regions() is scanned again for the first
    target, which must be on the frontier when frontier_only is set,
    and its finger is chosen by exhaustive_finger.  The input is not
    touched.
    """
    d = diagram.clone()
    fingers = []
    while True:
        target = next((r for r in d.bad_regions()
                       if not frontier_only or _frontier(d, r)), None)
        if target is None:
            break
        fingers.append(exhaustive_finger(d, target))
        _execute(d, fingers[-1])
    d.validate()
    return fingers, d
