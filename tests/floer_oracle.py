"""Independent brute-force chain complex for small flattened diagrams.

This deliberately avoids the library's census machinery.  Domains are
enumerated as raw 0/1 vectors over all regions (full powerset, capped),
and a vector counts for the differential x -> y exactly when

  * it avoids the basepoint region and is edge-connected,
  * its index e(D) + n_x(D) + n_y(D) equals 1, computed from corner
    multiplicities alone,
  * its oriented boundary, split by family, telescopes to x - y along
    the arc circles and y - x along the pushoff circles over Z,
  * away from the moving corners it has multiplicity zero at every
    coordinate of x and of y.

Membership of the distinguished cycle in the image is then settled by
trying every one of the 2^n chains, and the rank by row reduction over
integer bitmasks.  oracle_bounds settles membership by rank alone, over
every column, so it also checks the library's decision on complexes
too big to search.  Everything is hard limits and plain arithmetic, so
it only runs on desk-size inputs.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def _corner_counts(dia):
    """counts[r][v] = how many corners region r has at vertex v."""
    counts = []
    for region in dia.regions:
        here = {}
        for cyc in region.cycles:
            for h in cyc:
                v = dia.he_origin[h]
                here[v] = here.get(v, 0) + 1
        counts.append(here)
    return counts


def _edge_sides(dia):
    """Per edge, the pair of regions on its two sides."""
    return [(dia.he_region[2 * e], dia.he_region[2 * e + 1])
            for e in range(dia.n_edges)]


def _connected(tiles, sides):
    if not tiles:
        return False
    tiles = set(tiles)
    seed = next(iter(tiles))
    reach = {seed}
    grew = True
    while grew:
        grew = False
        for a, b in sides:
            if a in reach and b in tiles and b not in reach:
                reach.add(b)
                grew = True
            if b in reach and a in tiles and a not in reach:
                reach.add(a)
                grew = True
    return reach == tiles


def _boundary_mismatch(dia, tiles, x, y):
    """0 when the domain's oriented boundary telescopes to y-x / x-y."""
    delta_a = {}
    delta_b = {}
    for e in range(dia.n_edges):
        m = (1 if dia.he_region[2 * e] in tiles else 0) \
            - (1 if dia.he_region[2 * e + 1] in tiles else 0)
        if m == 0:
            continue
        tail = dia.he_origin[2 * e]
        head = dia.he_origin[2 * e + 1]
        sink = delta_a if dia.edge_label[e][0] == "a" else delta_b
        sink[head] = sink.get(head, 0) + m
        sink[tail] = sink.get(tail, 0) - m
    want_a = {}
    want_b = {}
    for v in x:
        want_a[v] = want_a.get(v, 0) + 1
        want_b[v] = want_b.get(v, 0) - 1
    for v in y:
        want_a[v] = want_a.get(v, 0) - 1
        want_b[v] = want_b.get(v, 0) + 1
    bad = 0
    for v in set(delta_a) | set(want_a):
        if delta_a.get(v, 0) != want_a.get(v, 0):
            bad += 1
    for v in set(delta_b) | set(want_b):
        if delta_b.get(v, 0) != want_b.get(v, 0):
            bad += 1
    return bad


def _index(dia, tiles, counts, x, y):
    """e(D) + n_x(D) + n_y(D) with quarter weights, exact arithmetic."""
    total = Fraction(0)
    for r in tiles:
        k = dia.regions[r].corner_count
        total += 1 - Fraction(k, 4)
    for p in itertools.chain(x, y):
        quarters = sum(counts[r].get(p, 0) for r in tiles)
        total += Fraction(quarters, 4)
    return total


def _empty_enough(tiles, counts, x, y, moving):
    for p in itertools.chain(x, y):
        quarters = sum(counts[r].get(p, 0) for r in tiles)
        if p in moving:
            if quarters != 1:
                return False
        elif quarters != 0:
            return False
    return True


def oracle_generators(dia):
    by_beta = [[] for _ in range(dia.n)]
    for v in range(dia.n_vertices):
        by_beta[dia.v_beta[v] - 1].append(v)
    out = []
    for combo in itertools.product(*by_beta):
        if len({dia.v_alpha[v] for v in combo}) == dia.n:
            out.append(tuple(combo))
    return out


def oracle_complex(dia, max_regions: int = 18):
    """All generators and the full differential, by raw enumeration.

    Returns (generators, boundary) with boundary[x] = set of targets.
    """
    usable = [r for r in range(len(dia.regions)) if r != dia.z0_region]
    if len(usable) > max_regions:
        raise ValueError("diagram too large for the brute-force oracle")
    gens = oracle_generators(dia)
    counts = _corner_counts(dia)
    sides = _edge_sides(dia)
    boundary = {x: set() for x in gens}
    domains = []
    for k in range(1, len(usable) + 1):
        for combo in itertools.combinations(usable, k):
            if _connected(combo, sides):
                domains.append(frozenset(combo))
    for x in gens:
        for y in gens:
            if x == y:
                continue
            moving = (set(x) | set(y)) - (set(x) & set(y))
            hits = 0
            for tiles in domains:
                if _boundary_mismatch(dia, tiles, x, y):
                    continue
                if _index(dia, tiles, counts, x, y) != 1:
                    continue
                if not _empty_enough(tiles, counts, x, y, moving):
                    continue
                hits += 1
            if hits % 2:
                boundary[x].add(y)
    return gens, boundary


def oracle_decide(gens, boundary, c):
    """Is c a boundary?  Try every chain; return a witness or None.

    The second return value distinguishes 'no witness exists' (exhausted)
    from a found chain.
    """
    if len(gens) > 20:
        raise ValueError("too many generators for exhaustive search")
    for k in range(1, len(gens) + 1):
        for combo in itertools.combinations(gens, k):
            acc = set()
            for x in combo:
                acc ^= boundary[x]
            if acc == {c}:
                return True, combo
    return False, None


def oracle_rank(gens, boundary):
    """Rank of the differential over GF(2), via integer bitmask rows."""
    index = {x: i for i, x in enumerate(gens)}
    rows = []
    for x in gens:
        bits = 0
        for y in boundary[x]:
            bits |= 1 << index[y]
        if bits:
            rows.append(bits)
    rank = 0
    while rows:
        pivot = min(rows, key=lambda b: b & -b)
        rows.remove(pivot)
        low = pivot & -pivot
        rows = [b ^ pivot if b & low else b for b in rows]
        rows = [b for b in rows if b]
        rank += 1
    return rank


def as_boundary(m):
    """A library BoundaryMatrix as (generators, boundary) for the oracles."""
    return m.generators, {x: {m.generators[k] for k in col}
                          for x, col in zip(m.generators, m.columns)}


def oracle_bounds(gens, boundary, c):
    """Is c a boundary?  Exactly when appending c's unit vector as one
    more column leaves the rank unchanged."""
    extra = object()
    grown = oracle_rank([*gens, extra], {**boundary, extra: {c}})
    return grown == oracle_rank(gens, boundary)


def oracle_homology_rank(gens, boundary):
    return len(gens) - 2 * oracle_rank(gens, boundary)
