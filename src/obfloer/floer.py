"""The chain complex over GF(2) and the vanishing decision.

Generators are tuples of crossings, one on each pushoff circle, hitting
every arc circle exactly once.  The differential counts empty embedded
bigons and rectangles.  On a flattened diagram these are unions of
distinct tiles (the bigon and square regions away from the basepoint):
a rectangle is a grid of squares, walked once from its source corner,
and a bigon is its one bigon tile with rows of squares stacked around
it, walked once from that tile (docs/conventions.md, "Domains on a flat
diagram").  walk_domains hands each disk to a callback once, with its
tiles and its passthrough vertices as int masks.  The boundary matrix
files the disks in an index keyed by their source vertices, and the
lazy scan keeps those into the distinguished generator, both straight
off the walk; domain_census is a sorted list view of it, for tests and
oracles.

The boundary matrix looks up each generator's disks in that index.  It
numbers generators by int codes, mixed-radix numerals of their
vertices' ranks on their β circles, so that a disk moves a generator by
adding a fixed int to its code (docs/conventions.md, "Generator
codes").  The distinguished generator is the tuple of page crossings.
It is always a cycle; the open book's contact class vanishes exactly
when it is a boundary.  Only the columns that can reach it matter: its
closure, grown from its row through the columns meeting it
(docs/conventions.md, "Deciding on c's closure"), and one GF(2)
elimination over int bitmask columns of that block settles it.
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
    """Sparse boundary operator: column x lists the targets of x.

    The generators are sorted, as generators() emits them, so the
    distinguished one, the lexicographically first, is generator 0.
    """

    generators: tuple        # generator tuples, in lexicographic order
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
    """All matchings: one crossing per pushoff circle, arcs all distinct.

    The tuples come in lexicographic order: each circle's vertices are
    tried in increasing order, the first circle outermost.
    """
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
    """Per region its tile size and cycle, per half-edge the square across.

    tile[r] is 2 for a bigon tile, 4 for a square tile and 0 for a wall:
    the basepoint region and every region that is not a bigon or square
    disk.  cycle[r] is a tile's boundary cycle and None for a wall.
    step[e] is (1 << r, turn) for the square tile r on the left of e's
    twin, with turn its cycle turned to start at that twin, and None
    when no square tile is across e.
    """
    tile = [reg.tile for reg in diagram.regions]
    tile[diagram.z0_region] = 0
    cycle = [None] * len(diagram.regions)
    step = [None] * (2 * diagram.n_edges)
    for r, size in enumerate(tile):
        if size:
            cycle[r] = c = diagram.regions[r].cycles[0]
        if size == 4:
            for q, h in enumerate(c):
                step[h ^ 1] = (1 << r, c[q:] + c[:q])
    return tile, cycle, step


def _rectangles(diagram: HeegaardDiagram, tile, cyc, step, bit, climb,
                emit) -> None:
    """Every rectangle, walked once as a grid from its lower source corner.

    The first column climbs from a square's β half-edge b whose origin
    is the lower source corner, recording both sides; line 0 is the
    grid's bottom side.  Widening moves to the square across the right
    side of the bottom square, and climbs its right side only: the
    square above a right neighbour is the right neighbour of the square
    above, since every vertex is four-valent, so each width adds one
    column, walked once.  At height k a width's masks are the previous
    width's with the new column's, and the passthrough is the grid's
    vertices on lines 0..k less its four corners.

    A rectangle is emitted only from its corner on the lower β circle,
    so a start on the last β circle is skipped.  The top side's β circle
    at each height is read off the first column, so the height is also
    capped at the last one above the lower corner's circle.
    """
    origin, v_beta = diagram.he_origin, diagram.v_beta
    for r0, size in enumerate(tile):
        if size != 4:
            continue
        for t in (3, 0, 1, 2):
            b = cyc[r0][t]
            low = origin[b]
            j = v_beta[low]
            if diagram.label(b)[0] != "b" or j == diagram.n:
                continue
            line_of = {}
            regs, verts, (left, right), cap = climb(b ^ 1, len(cyc),
                                                    line_of, (3, 2))
            while True:
                while cap > 0 and v_beta[left[cap]] <= j:
                    cap -= 1
                if cap <= 0:
                    break
                lower = bit[low] | bit[right[0]]
                for k in range(1, cap + 1):
                    top_left, top_right = left[k], right[k]
                    if v_beta[top_left] > j:
                        corners = lower | bit[top_left] | bit[top_right]
                        emit(((j, low, right[0]),
                              (v_beta[top_right], top_right, top_left)),
                             regs[k], verts[k] ^ corners)
                # b's square turned to start at b, then the square
                # across its next half-edge, turned to start at the twin
                row = step[step[b ^ 1][1][1]]
                if row is None:
                    break
                b = row[1][1]
                column, line, (right,), cap = climb(b ^ 1, cap, line_of,
                                                   (2,))
                regs = [a | c for a, c in zip(regs, column)]
                verts = [a | c for a, c in zip(verts, line)]


def _bigons(diagram: HeegaardDiagram, tile, cyc, step, bit, climb,
            emit) -> None:
    """Every bigon, walked once from its one bigon tile.

    Let the tile's β half-edge run from p' to q' and its α half-edge
    back.  A bigon holding the tile is a strip of m squares stacked on
    the tile's β side, whose α side is then a path of 2m + 1 edges, with
    k rows of squares stacked on that path (docs/conventions.md,
    "Domains on a flat diagram").  Its source P and target Q are the
    left and right ends of the top row's α path.  The rows are climbed
    as columns: one on the tile's α edge, recording both sides, and for
    each strip square one on its left α edge and one on its right, so
    that widening the strip by one square adds one column on each side
    and every column is walked once.  A strip square that is not a
    square tile ends the tile, and so does a vertex repeated on line 0.
    The masks are the strip's with the columns'; the passthrough is the
    vertices less P and Q.
    """
    v_beta = diagram.v_beta
    for t, size in enumerate(tile):
        if size != 2:
            continue
        beta, alpha = cyc[t]
        if diagram.label(beta)[0] != "b":
            beta, alpha = alpha, beta
        line_of = {}
        regs, verts, (left, right), cap = climb(alpha, len(cyc),
                                                line_of, (3, 2))
        strip = 1 << t
        while cap >= 0:
            for k in range(cap + 1):
                p, q = left[k], right[k]
                emit(((v_beta[p], p, q),), strip | regs[k],
                     verts[k] ^ bit[p] ^ bit[q])
            row = step[beta]
            if row is None:
                break
            strip |= row[0]
            _, up_l, beta, up_r = row[1]
            regs_l, verts_l, (left,), cap = climb(up_l, cap, line_of, (3,))
            regs_r, verts_r, (right,), cap = climb(up_r, cap, line_of, (2,))
            regs = [a | b | c for a, b, c in zip(regs, regs_l, regs_r)]
            verts = [a | b | c for a, b, c in zip(verts, verts_l, verts_r)]


def walk_domains(diagram: HeegaardDiagram, emit) -> None:
    """Walk every empty embedded bigon and rectangle the differential counts.

    Each disk is walked once and handed to emit(swap, regions,
    passthrough), rectangles first: swap as in DomainCandidate, regions
    an int with bit r set for each of its tiles, and passthrough an int
    with bit v set for each of its vertices that is no corner.

    Domains are unions of tiles, the bigon and square regions away from
    the basepoint.  Every other region is a wall: no differential covers
    it, so on a partially flattened diagram the walk sees exactly the
    domains that avoid the regions not yet flattened.  A rectangle is a
    grid of squares, walked from its source corner on the lower β
    circle, and a bigon is its one bigon tile with a strip and rows of
    squares stacked on it, walked from that tile; both stack their
    squares by one climb (docs/conventions.md, "Domains on a flat
    diagram").
    A disk is emitted only when each β circle its corners touch carries
    one source and one target corner, since no other disk fits a
    generator.  Each source shares its α circle with a target, so
    a move by a disk keeps a generator's α circles distinct, and a
    disk fits exactly the generators that hold its sources and miss
    its passthrough.
    """
    tile, cyc, step = _cycle_tables(diagram)
    origin = diagram.he_origin
    bit = [1 << v for v in range(diagram.n_vertices)]

    def climb(e, cap, line_of, sides):
        """Stack at most cap squares across the half-edge e, row by row.

        A square entered across the twin of a half-edge, at position q
        of its cycle, has its lower left corner at q, lower right at
        q + 1, upper right at q + 2 and upper left at q + 3; the next
        row is entered across the twin of its half-edge at q + 2; step[e]
        holds the square turned so that q is 0.  sides holds the upper
        corner offset of each side to record, 3 for the left and 2 for
        the right; on line 0 these are e's head and origin, and on line
        k + 1 the corners of row k.

        A stack whose vertex positions are not distinct vertices is no
        embedded disk, and neither is any stack holding it; a repeated
        square repeats its corners.  line_of keeps the lowest line of
        every vertex met from one start, and a vertex met on lines l
        and l' caps the height below max(l, l'), for this column and
        every later one.  A region that is not a square tile caps the
        height at its row.  Returns the mask of the regions of the rows
        below each height, the mask of the recorded vertices on lines
        0..k at each k, the vertices of each side by line and the
        lowered cap.
        """
        lines = [[origin[e ^ 1] if hi == 3 else origin[e]] for hi in sides]
        regs, verts = [0], []
        reg_mask = vert_mask = 0
        k = 0
        while True:
            for line in lines:
                v = line[k]
                vert_mask |= bit[v]
                seen = line_of.get(v)
                if seen is None:
                    line_of[v] = k
                else:
                    cap = min(cap, max(seen, k) - 1)
                    line_of[v] = min(seen, k)
            verts.append(vert_mask)
            if k >= cap:
                return regs, verts, lines, cap
            row = step[e]
            if row is None:
                return regs, verts, lines, k
            reg_mask |= row[0]
            regs.append(reg_mask)
            turn = row[1]
            for line, hi in zip(lines, sides):
                line.append(origin[turn[hi]])
            e = turn[2]
            k += 1

    _rectangles(diagram, tile, cyc, step, bit, climb, emit)
    _bigons(diagram, tile, cyc, step, bit, climb, emit)


def domain_census(diagram: HeegaardDiagram) -> list[DomainCandidate]:
    """The disks of walk_domains as a list, sorted by region tuple.

    A sorted view for tests, oracles and tracing: boundary_matrix and
    decide_lazy read the walk directly, and build no list.
    """
    out = []

    def keep(swap, regions, passthrough):
        out.append(DomainCandidate(
            regions=tuple(_rows(regions)),
            kind="bigon" if len(swap) == 1 else "rectangle", swap=swap,
            passthrough=tuple(_rows(passthrough))))

    walk_domains(diagram, keep)
    out.sort(key=lambda c: c.regions)
    return out


def boundary_matrix(diagram: HeegaardDiagram) -> BoundaryMatrix:
    """Assemble the full boundary operator of a flattened diagram.

    A vertex names its β circle, so the disks of walk_domains are
    indexed, as the walk emits them, by their source corners alone: one
    vertex for a bigon, the pair in circle order for a rectangle; no
    census list is built.  A generator x looks up each of its
    coordinates and each pair of them, so it meets exactly the disks
    whose source corners it holds, each once.  A disk fits x when its
    passthrough mask misses the mask of x's vertices.

    Generators are handled as int codes: a vertex weighs its rank on its
    β circle times the circle's stride, the product of the vertex counts
    of the circles after it, and a generator's code is the sum of its
    vertices' weights.  These are mixed-radix numerals with the first
    circle most significant, so codes increase in generators() order and
    name distinct vertex choices (docs/conventions.md, "Generator
    codes").  A disk is filed with its delta, the weights of its targets
    less those of its sources; it moves x to the generator whose code is
    x's plus delta, since each source shares its α circle with a target
    and the move keeps the α circles distinct.  A code that names no
    generator is an internal error.  Column x lists, sorted, the
    generators reached an odd number of times; ∂² = 0 is checked before
    the matrix is returned.
    """
    if diagram.bad_regions():
        raise ValueError(
            "the boundary operator needs a flattened diagram; "
            "run make_nice first")
    gens = generators(diagram)
    v_beta = diagram.v_beta
    count, rank = [0] * (diagram.n + 1), []
    for j in v_beta:
        rank.append(count[j])
        count[j] += 1
    stride = [1] * (diagram.n + 1)
    for j in range(diagram.n - 1, 0, -1):
        stride[j] = stride[j + 1] * count[j + 1]
    weight = [r * stride[j] for r, j in zip(rank, v_beta)]
    bit = [1 << v for v in range(len(v_beta))]
    by_source = {}

    def file(swap, regions, passthrough):
        key = swap[0][1] if len(swap) == 1 else (swap[0][1], swap[1][1])
        delta = 0
        for _, src, tgt in swap:
            delta += weight[tgt] - weight[src]
        by_source.setdefault(key, []).append((passthrough, delta))

    walk_domains(diagram, file)
    codes = [sum(map(weight.__getitem__, x)) for x in gens]
    index = dict(zip(codes, range(len(codes))))
    columns = []
    try:
        for x, code in zip(gens, codes):
            held = 0
            for v in x:
                held |= bit[v]
            hits = []
            for key in (*x, *combinations(x, 2)):
                for mask, delta in by_source.get(key, ()):
                    if not held & mask:
                        hits.append(index[code + delta])
            hits.sort()
            if len(set(hits)) < len(hits):
                hits = [i for i in sorted(set(hits)) if hits.count(i) % 2]
            columns.append(tuple(hits))
    except KeyError as miss:
        y = [0] * diagram.n
        for v, r in enumerate(rank):
            j = v_beta[v]
            if miss.args[0] // stride[j] % count[j] == r:
                y[j - 1] = v
        raise RuntimeError(
            f"internal error: a disk moves generator {x} to {tuple(y)}, "
            "which is no generator") from None
    m = BoundaryMatrix(generators=tuple(gens), columns=tuple(columns))
    _check_square_zero(m)
    return m


def _check_square_zero(m: BoundaryMatrix) -> None:
    """Raise unless every column of ∂∂ is zero over GF(2).

    ∂(∂x) lists, with repeats, the columns of ∂x run together.  Sorted,
    each generator's repeats sit side by side, so every multiplicity is
    even exactly when the entries at even places equal those at odd
    places.
    """
    columns = m.columns
    for i, col in enumerate(columns):
        acc = []
        for j in col:
            acc += columns[j]
        acc.sort()
        if acc[::2] != acc[1::2]:
            odd = sorted(k for k in set(acc) if acc.count(k) % 2)
            raise RuntimeError(
                "internal error: the boundary operator fails to square "
                f"to zero on generator {m.generators[i]}; composite hits "
                f"{[m.generators[k] for k in odd]}")


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

    c must be m's generator 0, the lexicographically first of its sorted
    generators (docs/conventions.md, "The doubled diagram"); any other
    tuple is rejected.  Only c's closure (_closure) is eliminated: if
    c = Σ ∂y over a set S, every y in S outside C has ∂y disjoint from
    R, so the y in C already sum to c (docs/conventions.md, "Deciding
    on c's closure").  One elimination (_eliminate) of the C columns,
    restricted to R, reduces c's unit vector.  When it reduces to zero,
    the pivot combinations used sum to a chain w with ∂w = c: VANISHING.
    Otherwise the residual's lowest row r is no pivot, and clearing the
    residual's pivot rows with basis vectors of higher pivots keeps r.
    The functional on R that is 1 on r and 0 on the other rows that are
    no pivot, with its pivot values fixed by back-substitution from the
    highest pivot down, kills every C column, yet is 1 on the cleared
    residual and so on c.  Extended by zero it also kills the columns
    outside C, which miss R: NONVANISHING.  Both certificates are
    re-checked here by direct multiplication against the whole matrix,
    independently of the closure and the elimination.  That c is a cycle
    is a structural fact, so an entry in its column is an internal
    error.  The verdict carries m, and its rank is the closure block's.
    """
    if not m.generators or m.generators[0] != c:
        raise ValueError("c is not a generator of this complex")
    if m.columns[0]:
        raise RuntimeError(
            "internal error: the distinguished generator is not a cycle")
    rows, cols = _closure(m, 0)
    local = {j: k for k, j in enumerate(rows)}
    basis = _eliminate([local[j] for j in m.columns[i]] for i in cols)
    rank = len(basis)
    vec, used = 1 << local[0], 0
    while vec and _low(vec) in basis:
        b_vec, b_combo = basis[_low(vec)]
        vec ^= b_vec
        used ^= b_combo
    if not vec:
        chain = [cols[k] for k in _rows(used)]
        acc = set()
        for i in chain:
            acc ^= set(m.columns[i])
        if acc != {0}:
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
    if 0 not in phi:
        raise RuntimeError(
            "internal error: functional misses the distinguished cycle")
    cert = tuple(sorted(m.generators[i] for i in phi))
    return Verdict(outcome=NONVANISHING, certificate=cert,
                   generator_count=m.n, rank=rank, matrix=m)


def _sources_into_c(diagram: HeegaardDiagram) -> set:
    """The generators that an odd number of disks move to c.

    The disks are read off walk_domains as boundary_matrix reads them:
    every target is c's vertex j - 1 on its circle j, and the
    passthrough mask misses the source tuple, whose α circles must be
    distinct; a repeat is an internal error.
    """
    c = diagram.contact_tuple()
    sources = set()

    def tally(swap, regions, passthrough):
        if any(tgt != j - 1 for j, _, tgt in swap):
            return
        x = list(c)
        for j, src, _ in swap:
            x[j - 1] = src
        if any(passthrough >> v & 1 for v in x):
            return
        if len({diagram.v_alpha[v] for v in x}) != len(x):
            raise RuntimeError(
                f"internal error: a disk moves {tuple(x)}, which is no "
                f"generator, to {c}")
        sources.symmetric_difference_update({tuple(x)})

    walk_domains(diagram, tally)
    return sources


def decide_lazy(diagram: HeegaardDiagram, trace=None) -> Verdict:
    """Cheap decision: flatten only next to the page, look for disks into c.

    When no generator's boundary can hit the distinguished generator
    (_sources_into_c) it is not a boundary and the answer is
    NONVANISHING outright, with rank -1; otherwise the diagram is
    flattened fully and the complete complex decides.  A frontier
    diagram that is already flat goes straight to the complete complex,
    so that its disks are walked once.  trace gets one line per
    flattening move, and the verdict carries the diagram it was decided
    on and, from the complete complex, the matrix.
    """
    lz = lazy_frontier(diagram, trace=trace)
    if lz.bad_regions():
        if not _sources_into_c(lz):
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
           "generators", "homology_rank", "walk_domains"]
