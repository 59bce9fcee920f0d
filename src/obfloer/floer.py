"""The chain complex over GF(2) and the vanishing decision.

Generators are tuples of crossings, one on each pushoff circle, hitting
every arc circle exactly once.  The differential counts empty embedded
bigons and rectangles.  On a flattened diagram these are unions of
distinct tiles (the bigon and square regions away from the basepoint):
a rectangle is a grid of squares, walked once from its source corner,
and a bigon is one bigon tile with squares around it, found by tracing
its boundary (docs/conventions.md, "Domains on a flat diagram").

The boundary matrix looks up each generator's disks in an index keyed
by source corners.  The distinguished generator is the tuple of page
crossings.  It is always a cycle; the open book's contact class
vanishes exactly when it is a boundary.  Only the columns that can
reach it matter: its closure, grown from its row through the columns
meeting it (docs/conventions.md, "Deciding on c's closure"), and one
GF(2) elimination over int bitmask columns of that block settles it.
Both answers come with certificates that are re-checked by plain
multiplication against the whole matrix: a chain bounding the
distinguished generator, or a functional that kills every boundary yet
evaluates to 1 on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations

from .heegaard import HeegaardDiagram
from .nicify import lazy_frontier, make_nice

NONVANISHING = "NONVANISHING"
VANISHING = "VANISHING"


@dataclass(frozen=True)
class DomainCandidate:
    """A connected union of regions gluing to one bigon or rectangle.

    swap holds one (b circle, source, target) triple per β circle the
    corners sit on, sorted by circle: the boundary leaves the source
    corner along b and the target corner along a, and the disk moves a
    generator from its source corners to its target corners.
    """

    regions: tuple
    kind: str                # "bigon" or "rectangle"
    swap: tuple              # (b circle, source corner, target corner)
    passthrough: tuple       # boundary/interior vertices that are not corners


@dataclass(frozen=True)
class BoundaryMatrix:
    """Sparse boundary operator: column x lists the targets of x."""

    generators: tuple        # tuple of generator tuples
    columns: tuple           # columns[i] = sorted tuple of generator indices

    @property
    def n(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class Verdict:
    outcome: str
    certificate: tuple       # chain w (VANISHING) or functional (NONVANISHING)
    generator_count: int
    rank: int                # rank of c's closure block, -1 if skipped
    # the matrix decide_vanishing decided on; None when the lazy test did
    matrix: BoundaryMatrix | None = field(default=None, compare=False,
                                          repr=False)
    # the diagram decide_lazy decided on; None from decide_vanishing
    diagram: HeegaardDiagram | None = field(default=None, compare=False,
                                            repr=False)


def generators(diagram: HeegaardDiagram) -> list[tuple]:
    """All matchings: one crossing per pushoff circle, arcs all distinct."""
    n = diagram.n
    by_beta = [[] for _ in range(n)]
    for v in range(diagram.n_vertices):
        by_beta[diagram.v_beta[v] - 1].append(v)
    out = []
    pick = [0] * n

    def extend(j, used):
        if j == n:
            out.append(tuple(pick))
            return
        for v in by_beta[j]:
            a = diagram.v_alpha[v]
            if a in used:
                continue
            pick[j] = v
            extend(j + 1, used | {a})

    extend(0, frozenset())
    return out


def _cycle_tables(diagram: HeegaardDiagram):
    """Per region its tile size, per half-edge its place in its cycle.

    tile[r] is 2 for a bigon tile, 4 for a square tile and 0 for a wall:
    the basepoint region and every region that is not a bigon or square
    disk.  nxt[h], prv[h] and pos[h] are the successor, the predecessor
    and the index of h in the boundary cycle of the region on its left.
    """
    n_he = 2 * diagram.n_edges
    tile = [0] * len(diagram.regions)
    nxt, prv, pos = [0] * n_he, [0] * n_he, [0] * n_he
    for r, reg in enumerate(diagram.regions):
        if not reg.pointed and (reg.is_bigon or reg.is_square):
            tile[r] = reg.corner_count
        for cyc in reg.cycles:
            for t, h in enumerate(cyc):
                nxt[h] = cyc[(t + 1) % len(cyc)]
                prv[h] = cyc[t - 1]
                pos[h] = t
    return tile, nxt, prv, pos


def _rectangles(diagram: HeegaardDiagram, tile, pos) -> list:
    """Every rectangle, walked once as a grid from its lower source corner.

    A cell is (square, e): the square's cycle has its u-exit at e and
    its v-exit at e + 1, so that its corner e + 3 is the grid's lower
    left.  Crossing a u-exit into a square entered at position q gives
    u-exit q + 2, crossing a v-exit gives q + 1.  Rows are stacked by
    v-steps alone: the square above a right neighbour is the right
    neighbour of the square above, since every vertex is four-valent.
    A grid that repeats a region or a vertex is no embedded disk, and
    neither is any grid containing it, so the walk stops there.
    """
    origin, region, v_beta = (diagram.he_origin, diagram.he_region,
                              diagram.v_beta)
    cyc = {r: diagram.regions[r].cycles[0]
           for r, size in enumerate(tile) if size == 4}

    def cross(cell, side, turn):
        r, e = cell
        h = cyc[r][(e + side) % 4] ^ 1
        s = region[h]
        return (s, (pos[h] + turn) % 4) if tile[s] == 4 else None

    def corner(cell, k):
        r, e = cell
        return origin[cyc[r][(e + k) % 4]]

    out = []
    for r0 in sorted(cyc):
        for e0 in range(4):
            if diagram.label(cyc[r0][(e0 + 3) % 4])[0] != "b":
                continue
            row0 = [(r0, e0)]
            height = None
            while True:
                row = row0
                bottom = [corner(cell, 3) for cell in row] + [
                    corner(row[-1], 0)]
                regs, verts = set(), set(bottom)
                h = 0
                if len(verts) == len(bottom):
                    while height is None or h < height:
                        if h:
                            row = [cross(cell, 1, 1) for cell in row]
                            if None in row:
                                break
                        new = {r for r, _ in row}
                        top = [corner(cell, 2) for cell in row] + [
                            corner(row[-1], 1)]
                        if (len(new) < len(row) or not regs.isdisjoint(new)
                                or len(set(top)) < len(top)
                                or not verts.isdisjoint(top)):
                            break
                        regs |= new
                        verts.update(top)
                        h += 1
                        low, high = bottom[0], top[-1]
                        if v_beta[low] < v_beta[high]:
                            ends = {low, bottom[-1], high, top[0]}
                            out.append(DomainCandidate(
                                regions=tuple(sorted(regs)),
                                kind="rectangle",
                                swap=((v_beta[low], low, bottom[-1]),
                                      (v_beta[high], high, top[0])),
                                passthrough=tuple(sorted(verts - ends))))
                height = h
                right = cross(row0[-1], 0, 2) if h else None
                if right is None:
                    break
                row0 = row0 + [right]
    return out


def _bigons(diagram: HeegaardDiagram, tile, nxt, prv) -> list:
    """Every bigon, found by tracing its boundary from its source corner.

    From a β half-edge h leaving P, walk β straight on; at each Q on P's
    α circle turn left onto α, which closes back onto h at P exactly
    when it runs the same way along α as the half-edge before h in its
    region.  The regions left of the loop, flooded without crossing it,
    form the domain; a flood that meets a wall or the far side of the
    loop, or a second bigon tile, is no empty embedded bigon.
    """
    origin, region, v_alpha = (diagram.he_origin, diagram.he_region,
                               diagram.v_alpha)
    n_he = 2 * diagram.n_edges
    straight, forward = [0] * n_he, [False] * n_he
    for walks in (diagram.alpha_walk, diagram.beta_walk):
        for walk in walks:
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
    for j, walk in enumerate(diagram.beta_walk, start=1):
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
                        verts = {origin[x] for r in regs
                                 for x in diagram.regions[r].cycles[0]}
                        out.append(DomainCandidate(
                            regions=tuple(sorted(regs)), kind="bigon",
                            swap=((j, p, q),),
                            passthrough=tuple(sorted(verts - {p, q}))))
                g = straight[g]
    return out


def domain_census(diagram: HeegaardDiagram) -> list[DomainCandidate]:
    """Every empty embedded bigon and rectangle the differential counts.

    Domains are unions of tiles, the bigon and square regions away from
    the basepoint.  Every other region is a wall: no differential covers
    it, so on a partially flattened diagram the census sees exactly the
    domains that avoid the regions not yet flattened.  A rectangle has
    only square tiles and is walked once as a grid from its source
    corner on the lower β circle; a bigon is found by tracing its
    boundary from its source corner (docs/conventions.md, "Domains on a
    flat diagram").  A disk is kept only when each β circle its corners
    touch carries one source and one target corner, since no other disk
    fits a generator.  The list is sorted by region tuple.
    """
    tile, nxt, prv, pos = _cycle_tables(diagram)
    out = _rectangles(diagram, tile, pos) + _bigons(diagram, tile, nxt, prv)
    out.sort(key=lambda c: c.regions)
    return out


def _move(diagram, x, dom, back=False):
    """Generator dom moves x to, or None when dom does not fit x.

    Forward, x must hold every source corner and the result holds the
    targets instead; back=True swaps the roles, giving the source whose
    forward move is x.  Either way the moved generator avoids the
    passthrough vertices and keeps its α circles distinct.
    """
    y = list(x)
    for j, src, tgt in dom.swap:
        if back:
            src, tgt = tgt, src
        if y[j - 1] != src:
            return None
        y[j - 1] = tgt
    if not set(y).isdisjoint(dom.passthrough):
        return None
    if len({diagram.v_alpha[v] for v in y}) != len(y):
        return None
    return tuple(y)


def boundary_matrix(diagram: HeegaardDiagram) -> BoundaryMatrix:
    """Assemble the full boundary operator of a flattened diagram.

    Census disks are indexed by their source corners, one (β circle,
    vertex) pair per swap entry.  A generator x looks up the key of
    every one or two of its coordinates, so it meets exactly the disks
    whose source corners it holds, each once, and _move only checks the
    passthrough vertices and the α circles.  Column x lists, sorted,
    the generators reached an odd number of times; ∂² = 0 is checked
    before the matrix is returned.
    """
    if diagram.bad_regions():
        raise ValueError(
            "the boundary operator needs a flattened diagram; "
            "run make_nice first")
    gens = generators(diagram)
    index = {x: i for i, x in enumerate(gens)}
    by_source = {}
    for dom in domain_census(diagram):
        key = tuple((j, src) for j, src, _ in dom.swap)
        by_source.setdefault(key, []).append(dom)

    def column(x):
        pairs = list(enumerate(x, start=1))
        hits = set()
        for key in [(a,) for a in pairs] + list(combinations(pairs, 2)):
            for dom in by_source.get(key, ()):
                y = _move(diagram, x, dom)
                if y is not None:
                    hits ^= {index[y]}
        return tuple(sorted(hits))

    m = BoundaryMatrix(generators=tuple(gens),
                       columns=tuple(column(x) for x in gens))
    _check_square_zero(m)
    return m


def _check_square_zero(m: BoundaryMatrix) -> None:
    for i, col in enumerate(m.columns):
        acc = set()
        for j in col:
            acc ^= set(m.columns[j])
        if acc:
            raise RuntimeError(
                "internal error: the boundary operator fails to square "
                f"to zero on generator {m.generators[i]}; composite hits "
                f"{sorted(m.generators[k] for k in acc)}")


def contact_class(diagram: HeegaardDiagram) -> tuple:
    """The distinguished generator: the page crossing on every circle."""
    return diagram.contact_tuple()


def _low(vec: int) -> int:
    """The lowest set bit of a nonzero bitmask."""
    return (vec & -vec).bit_length() - 1


def _rows(vec: int) -> list[int]:
    """The set bits of a bitmask, in increasing order."""
    return [k for k, bit in enumerate(bin(vec)[:1:-1]) if bit == "1"]


def _eliminate(columns, combos=True) -> dict:
    """Echelon basis of the column space over GF(2), as int bitmasks.

    Each column becomes an int with bit k set for row k, and is reduced
    by XOR against the basis vector whose lowest set bit (its pivot)
    equals the column's lowest set bit, until that bit is no pivot.  The
    result maps each pivot to (vector, combination): the vector has the
    pivot as its lowest bit, and the combination has bit i set for each
    original column i summing to it, or is 0 when combos is false.  The
    rank is the number of pivots.
    """
    basis = {}
    for idx, col in enumerate(columns):
        vec, combo = sum(1 << k for k in col), 1 << idx if combos else 0
        while vec:
            p = _low(vec)
            if p not in basis:
                basis[p] = (vec, combo)
                break
            b_vec, b_combo = basis[p]
            vec ^= b_vec
            combo ^= b_combo
    return basis


def _closure(m: BoundaryMatrix, c_idx: int) -> tuple[list, list]:
    """c's closure: the rows R and the columns C that can reach row c.

    Starting from R = {c} and C = ∅, every column that meets R joins C
    and its rows join R, until nothing changes.  Both come back sorted.
    """
    into = [[] for _ in range(m.n)]
    for i, col in enumerate(m.columns):
        for j in col:
            into[j].append(i)
    rows, cols = {c_idx}, set()
    todo = [c_idx]
    while todo:
        for i in into[todo.pop()]:
            if i not in cols:
                cols.add(i)
                for j in m.columns[i]:
                    if j not in rows:
                        rows.add(j)
                        todo.append(j)
    return sorted(rows), sorted(cols)


def decide_vanishing(m: BoundaryMatrix, c: tuple) -> Verdict:
    """Decide whether c bounds, with a certificate either way.

    Only c's closure (_closure) is eliminated: if c = Σ ∂y over a set S,
    every y in S outside C has ∂y disjoint from R, so the y in C already
    sum to c (docs/conventions.md, "Deciding on c's closure").  One
    elimination (_eliminate) of the C columns, restricted to R, reduces
    c's unit vector.  When it reduces to zero, the pivot combinations
    used sum to a chain w with ∂w = c: VANISHING.  Otherwise the
    residual's lowest row r is no pivot, and clearing the residual's
    pivot rows with basis vectors of higher pivots keeps r.  The
    functional on R that is 1 on r and 0 on the other rows that are no
    pivot, with its pivot values fixed by back-substitution from the
    highest pivot down, kills every C column, yet is 1 on the cleared
    residual and so on c.  Extended by zero it also kills the columns
    outside C, which miss R: NONVANISHING.  Both certificates are
    re-checked here by direct multiplication against the whole matrix,
    independently of the closure and the elimination.  That c is a cycle
    is a structural fact, so an entry in its column is an internal
    error.  The verdict carries m, and its rank is the closure block's.
    """
    try:
        c_idx = m.generators.index(c)
    except ValueError:
        raise ValueError("c is not a generator of this complex") from None
    if m.columns[c_idx]:
        raise RuntimeError(
            "internal error: the distinguished generator is not a cycle")
    rows, cols = _closure(m, c_idx)
    local = {j: k for k, j in enumerate(rows)}
    basis = _eliminate([local[j] for j in m.columns[i]] for i in cols)
    rank = len(basis)
    vec, used = 1 << local[c_idx], 0
    while vec and _low(vec) in basis:
        b_vec, b_combo = basis[_low(vec)]
        vec ^= b_vec
        used ^= b_combo
    if not vec:
        chain = [cols[k] for k in _rows(used)]
        acc = set()
        for i in chain:
            acc ^= set(m.columns[i])
        if acc != {c_idx}:
            raise RuntimeError(
                "internal error: bounding chain fails its own check")
        return Verdict(outcome=VANISHING,
                       certificate=tuple(sorted(m.generators[i]
                                                for i in chain)),
                       generator_count=m.n, rank=rank, matrix=m)
    phi = 1 << _low(vec)
    for p in sorted(basis, reverse=True):
        if (phi & basis[p][0]).bit_count() % 2:
            phi |= 1 << p
    phi = {rows[k] for k in _rows(phi)}
    for col in m.columns:
        if len(phi.intersection(col)) % 2:
            raise RuntimeError(
                "internal error: functional fails to kill a boundary")
    if c_idx not in phi:
        raise RuntimeError(
            "internal error: functional misses the distinguished cycle")
    cert = tuple(sorted(m.generators[i] for i in phi))
    return Verdict(outcome=NONVANISHING, certificate=cert,
                   generator_count=m.n, rank=rank, matrix=m)


def decide_lazy(diagram: HeegaardDiagram, trace=None) -> Verdict:
    """Cheap decision: flatten only next to the page, look for disks into c.

    When no generator's boundary can hit the distinguished generator it
    is not a boundary and the answer is NONVANISHING outright, with rank
    -1; otherwise the diagram is flattened fully and the complete
    complex decides.  A frontier diagram that is already flat goes
    straight to the complete complex, so that its census runs once.
    trace gets one line per flattening move, and the verdict carries
    the diagram it was decided on and, from the complete complex, the
    matrix.
    """
    lz = lazy_frontier(diagram, trace=trace)
    if lz.bad_regions():
        c = lz.contact_tuple()
        sources = set()
        for dom in domain_census(lz):
            x = _move(lz, c, dom, back=True)
            if x is not None:
                sources ^= {x}
        if not sources:
            return Verdict(outcome=NONVANISHING, certificate=(),
                           generator_count=len(generators(lz)), rank=-1,
                           diagram=lz)
    nice = make_nice(lz, trace=trace)
    verdict = decide_vanishing(boundary_matrix(nice), contact_class(nice))
    return replace(verdict, diagram=nice)


def homology_rank(m: BoundaryMatrix) -> int:
    """dim ker − dim im of the boundary operator over GF(2)."""
    return m.n - 2 * len(_eliminate(m.columns, combos=False))


__all__ = ["BoundaryMatrix", "DomainCandidate", "NONVANISHING", "VANISHING",
           "Verdict", "boundary_matrix", "contact_class", "decide_lazy",
           "decide_vanishing", "domain_census",
           "generators", "homology_rank"]
