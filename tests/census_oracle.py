"""The region-union census, kept as an oracle for floer.domain_census.

This is the census the package used before it walked domains: a
breadth-first search over connected sets of tiles, classifying every
vertex a set touches by which of its four quadrants the set covers.
It needs nothing but the region cycles, so it checks the grid walk and
the bigon walk from an independent direction.  Its cost grows with
the number of tile sets it visits, so it refuses to run past a state
cap and only suits diagrams of a few dozen regions.

oracle_bigons is the bigon trace the package used before it walked
bigons from their bigon tile: it traces each boundary loop along β and
back along α and floods the regions inside.  It runs on diagrams of any
size, so it checks the bigon walk where the census oracle cannot.
"""

from __future__ import annotations

from collections import deque

from obfloer.floer import DomainCandidate

MAX_STATES = 400_000

_FLAT_PATTERNS = ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1))


def quadrants(diagram):
    """Per vertex, the four corners around it in rotational order.

    Each entry is (region, h_out): the region owning the quadrant and
    the half-edge its boundary walk leaves the vertex along.
    """
    by_in = {}
    for r, region in enumerate(diagram.regions):
        for cyc in region.cycles:
            for t, h in enumerate(cyc):
                by_in[h] = (r, cyc[(t + 1) % len(cyc)])
    first_in = [-1] * diagram.n_vertices
    for h in range(2 * diagram.n_edges):
        if first_in[diagram.head(h)] < 0:
            first_in[diagram.head(h)] = h
    quads = []
    for v in range(diagram.n_vertices):
        ring = []
        h = first_in[v]
        while True:
            r, h_out = by_in[h]
            ring.append((r, h_out))
            h = diagram.twin(h_out)
            if h == first_in[v]:
                break
            assert len(ring) <= 4, "vertex is not 4-valent"
        assert len(ring) == 4, "vertex is not 4-valent"
        quads.append(ring)
    return quads


def oracle_census(diagram, max_states: int = MAX_STATES):
    """Every admissible bigon or rectangle union of flat regions.

    Tiles are the bigon and square regions away from the basepoint.
    Enumeration grows connected unions, branching to repair vertices
    whose quadrant pattern is not yet that of a disk boundary.  A disk
    is kept only when each β circle its corners touch carries exactly
    one source and one target corner.  Returns the candidates sorted by
    region tuple, the order floer.domain_census promises.
    """
    quads = quadrants(diagram)
    eligible = frozenset(
        r for r, reg in enumerate(diagram.regions)
        if r != diagram.z0_region and (reg.is_bigon or reg.is_square))
    verts_of, nbrs, is_bigon = {}, {}, {}
    for r in eligible:
        cycles = diagram.regions[r].cycles
        verts_of[r] = frozenset(diagram.he_origin[h]
                                for cyc in cycles for h in cyc)
        nbrs[r] = frozenset(diagram.he_region[diagram.twin(h)]
                            for cyc in cycles for h in cyc) & eligible
        is_bigon[r] = diagram.regions[r].is_bigon

    def classify(U):
        touched = set()
        for r in U:
            touched |= verts_of[r]
        corners, passthrough, defects = [], [], []
        for v in touched:
            ring = quads[v]
            bits = tuple(1 if r in U else 0 for r, _ in ring)
            total = sum(bits)
            if total == 0:
                continue
            if total == 4:
                passthrough.append(v)
            elif total == 1:
                corners.append((v, ring[bits.index(1)][1]))
            elif total == 2 and bits in _FLAT_PATTERNS:
                passthrough.append(v)
            else:
                defects.append(v)
        return corners, passthrough, defects

    out = []
    seen = set()
    queue = deque()
    for r in sorted(eligible):
        U = frozenset((r,))
        seen.add(U)
        queue.append(U)
    while queue:
        if len(seen) > max_states:
            raise RuntimeError("census oracle exceeded its state cap")
        U = queue.popleft()
        n_bigon = sum(1 for r in U if is_bigon[r])
        if n_bigon > 1:
            continue
        corners, passthrough, defects = classify(U)
        if defects:
            # grow only toward repairing the first broken vertex
            v = min(defects)
            for r, _ in quads[v]:
                if r in eligible and r not in U:
                    nxt = U | {r}
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
            continue
        kind = None
        if n_bigon == 1 and len(corners) == 2:
            kind = "bigon"
        elif n_bigon == 0 and len(corners) == 4:
            kind = "rectangle"
        # With no defect every vertex is a convex corner, a flat side or
        # an interior point, so by Gauss-Bonnet a union with two corners
        # and one bigon tile, or four corners and none, is a disk.
        if kind is not None:
            ends = {}
            for v, h_out in corners:
                ends.setdefault(diagram.v_beta[v], {})[
                    diagram.label(h_out)[0]] = v
            if 2 * len(ends) == len(corners) and all(
                    len(e) == 2 for e in ends.values()):
                out.append(DomainCandidate(
                    regions=tuple(sorted(U)), kind=kind,
                    swap=tuple(sorted((j, e["b"], e["a"])
                                      for j, e in ends.items())),
                    passthrough=tuple(sorted(passthrough))))
        # clean unions may still extend to larger ones
        for r in U:
            for s in nbrs[r]:
                if s not in U:
                    nxt = U | {s}
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
    out.sort(key=lambda c: c.regions)
    return out


def oracle_bigons(diagram):
    """Every bigon, found by tracing its boundary from its source corner.

    From a β half-edge h leaving P, walk β straight on; at each Q on P's
    α circle turn left onto α, which closes back onto h at P exactly
    when it runs the same way along α as the half-edge before h in its
    region.  The regions left of the loop, flooded without crossing it,
    form the domain; a flood that meets a wall or the far side of the
    loop, or a second bigon tile, is no empty embedded bigon.  Returns
    (swap, regions, passthrough) per bigon, as floer.walk_domains emits
    them, in trace order: the masks are its tiles and their vertices
    less P and Q.
    """
    origin, region, v_alpha = (diagram.he_origin, diagram.he_region,
                               diagram.v_alpha)
    n_he = 2 * diagram.n_edges
    tile = [0] * len(diagram.regions)
    nxt, prv = [0] * n_he, [0] * n_he
    for r, reg in enumerate(diagram.regions):
        if r != diagram.z0_region and (reg.is_bigon or reg.is_square):
            tile[r] = reg.corner_count
        for cyc in reg.cycles:
            for t, h in enumerate(cyc):
                nxt[h] = cyc[(t + 1) % len(cyc)]
                prv[h] = cyc[t - 1]
    straight, forward = [0] * n_he, [False] * n_he
    alpha, beta = diagram.walks()
    for circles in (alpha, beta):
        for walk in circles:
            for t, h in enumerate(walk):
                straight[h] = walk[(t + 1) % len(walk)]
                straight[h ^ 1] = walk[t - 1] ^ 1
                forward[h] = True

    def flood(loop):
        edges = set(loop)
        inside = {region[x] for x in loop}
        outside = {region[x ^ 1] for x in loop}
        if not inside.isdisjoint(outside):
            return None
        todo = list(inside)
        n_bigon = 0
        while todo:
            r = todo.pop()
            if tile[r] == 0:
                return None
            if tile[r] == 2:
                n_bigon += 1
                if n_bigon > 1:
                    return None
            for x in diagram.regions[r].cycles[0]:
                if x in edges:
                    continue
                s = region[x ^ 1]
                if s in outside:
                    return None
                if s not in inside:
                    inside.add(s)
                    todo.append(s)
        return inside if n_bigon == 1 else None

    out = []
    for j, walk in enumerate(beta, start=1):
        for h in walk + [x ^ 1 for x in walk]:
            if tile[region[h]] == 0:
                continue
            p, back = origin[h], prv[h]
            side, inside, outside = [], set(), set()
            g = h
            while True:
                r = region[g]
                if tile[r] == 0 or r in outside or region[g ^ 1] in inside:
                    break
                side.append(g)
                inside.add(r)
                outside.add(region[g ^ 1])
                q = origin[g ^ 1]
                if q == p:
                    break
                a = nxt[g]
                if v_alpha[q] == v_alpha[p] and forward[a] == forward[back]:
                    turn = [a]
                    while turn[-1] != back:
                        turn.append(straight[turn[-1]])
                    regs = flood(side + turn)
                    if regs is not None:
                        tiles = verts = 0
                        for s in regs:
                            tiles |= 1 << s
                            for x in diagram.regions[s].cycles[0]:
                                verts |= 1 << origin[x]
                        out.append((((j, p, q),), tiles,
                                    verts & ~(1 << p | 1 << q)))
                g = straight[g]
    return out
