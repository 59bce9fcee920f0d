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
files the disks of one whole walk in an index keyed by their source
vertices, and the lazy scan keeps those into the distinguished
generator, both straight off the walk; domain_census is a sorted list
view of it, for tests and oracles.  The decision fills the same kind
of index on demand: every bigon at once, and the rectangles out of a
vertex only when a column it reads holds that vertex, since every
rectangle that fits a generator is walked from its lower source
corner, one of the generator's vertices (docs/conventions.md,
"Corner-local columns").

Generators are numbered by int codes, their vertex ids read as base-V
numerals for V vertices, so that a disk moves a generator by adding a
fixed int to its code (docs/conventions.md, "Generator codes").  The
distinguished generator c is the tuple of page crossings.  It is always
a cycle; the open book's contact class vanishes exactly when it is a
boundary.  decide first reads the columns of the generators next to
c, c with one coordinate moved along its β and α circles: when one of
them bounds c alone, that one generator is the certificate, and
nothing else is walked, enumerated or assembled (docs/conventions.md,
"Deciding VANISHING from a generator next to c").  Otherwise the rest
of the disks are walked and the whole matrix is assembled from the
same index, and only the columns that can reach c matter: its
closure, grown from its row through the columns meeting it
(docs/conventions.md, "Deciding on c's closure"), and one GF(2)
elimination over int bitmask columns of that block settles it.  Those
certificates are re-checked by plain multiplication against the whole
matrix: a chain bounding the distinguished generator, or a functional
that kills every boundary yet evaluates to 1 on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations, islice

from .heegaard import HeegaardDiagram
from .nicify import lazy_frontier, make_nice

NONVANISHING = "NONVANISHING"
VANISHING = "VANISHING"
# the most matchings generators() holds at once: page g=0 b=21, with
# 2^20 generators, still decides, and b=22 stops here
GENERATOR_BUDGET = 1 << 20


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
    """An outcome with its certificate; the matrix stays with its caller.

    rank is the rank of c's closure block, or -1 when no elimination
    ran: a lazy NONVANISHING, or a VANISHING that decide settled from
    one generator next to c, whose certificate is that generator alone.
    """

    outcome: str
    certificate: tuple       # chain w (VANISHING) or functional (NONVANISHING)
    generator_count: int
    rank: int                # rank of c's closure block, -1 if skipped
    # the diagram decide_lazy decided on; None from decide, decide_vanishing
    diagram: HeegaardDiagram | None = field(default=None, compare=False,
                                            repr=False)


def generators(diagram: HeegaardDiagram) -> list[tuple]:
    """All matchings: one crossing per pushoff circle, arcs all distinct.

    The matchings are grown one β circle at a time, each held with the
    bitmask of its α circles; a circle's vertices are tried in
    increasing order for each matching in turn, so the tuples come in
    lexicographic order.  Holding more than GENERATOR_BUDGET matchings
    at once, complete or not, stops the enumeration with a ValueError
    that names the count and the budget.
    """
    steps = [[] for _ in range(diagram.n)]
    for v, (a, j) in enumerate(zip(diagram.v_alpha, diagram.v_beta)):
        steps[j - 1].append(((v,), 1 << a))
    out, masks = [()], [0]
    for step in steps:
        grown, held = [], []
        for x, used in zip(out, masks):
            for last, a in step:
                if not used & a:
                    grown.append(x + last)
                    held.append(used | a)
            if len(grown) > GENERATOR_BUDGET:
                raise ValueError(
                    f"floer.generators: {len(grown):,} matchings, over the "
                    f"generator budget of {GENERATOR_BUDGET:,}")
        out, masks = grown, held
    return out


def count_generators(diagram: HeegaardDiagram) -> int:
    """The number of generators, counted without listing them.

    The same growth as generators(), one β circle at a time, keeps only
    each bitmask of α circles used, with the number of partial matchings
    that use exactly those circles.  Holding more than GENERATOR_BUDGET
    masks at once stops the count with a ValueError that names the
    count and the budget.
    """
    steps = [[] for _ in range(diagram.n)]
    for a, j in zip(diagram.v_alpha, diagram.v_beta):
        steps[j - 1].append(1 << a)
    counts = {0: 1}
    for step in steps:
        grown = {}
        for used, k in counts.items():
            for a in step:
                if not used & a:
                    grown[used | a] = grown.get(used | a, 0) + k
            if len(grown) > GENERATOR_BUDGET:
                raise ValueError(
                    f"floer.count_generators: {len(grown):,} α masks, over "
                    f"the generator budget of {GENERATOR_BUDGET:,}")
        counts = grown
    return sum(counts.values())


class _Tiles:
    """A diagram's tiles and rectangle starts, built in one pass; its climb.

    tile[r] is 2 for a bigon tile, 4 for a square tile and 0 for a wall:
    the basepoint region and every region that is not a bigon or square
    disk.  cycle[r] is a tile's boundary cycle and None for a wall.
    step[e] is (1 << r, turn) for the square tile r on the left of e's
    twin, with turn its cycle turned to start at that twin, and None
    when no square tile is across e.  start[v] lists the β half-edges
    out of v that bound a square tile, for v on every β circle but the
    last: _rectangles walks from v up each of them.  bit[v] is 1 << v.
    """

    def __init__(self, diagram: HeegaardDiagram):
        self.diagram = diagram
        origin, v_beta = diagram.he_origin, diagram.v_beta
        self.tile = tile = [reg.tile for reg in diagram.regions]
        tile[diagram.z0_region] = 0
        self.cycle = cycle = [None] * len(diagram.regions)
        self.step = step = [None] * (2 * diagram.n_edges)
        self.start = start = {}
        self.bit = bit = [1 << v for v in range(diagram.n_vertices)]
        for r, size in enumerate(tile):
            if size:
                cycle[r] = c = diagram.regions[r].cycles[0]
            if size == 4:
                for q, h in enumerate(c):
                    step[h ^ 1] = (1 << r, c[q:] + c[:q])
                    if (diagram.label(h)[0] == "b"
                            and v_beta[origin[h]] != diagram.n):
                        start.setdefault(origin[h], []).append(h)

        def climb(e, cap, line_of, sides):
            """Stack at most cap squares across the half-edge e, row by row.

            A square entered across the twin of a half-edge, at position
            q of its cycle, has its lower left corner at q, lower right
            at q + 1, upper right at q + 2 and upper left at q + 3; the
            next row is entered across the twin of its half-edge at
            q + 2; step[e] holds the square turned so that q is 0.  sides
            holds the upper corner offset of each side to record, 3 for
            the left and 2 for the right; on line 0 these are e's head
            and origin, and on line k + 1 the corners of row k.

            A stack whose vertex positions are not distinct vertices is
            no embedded disk, and neither is any stack holding it; a
            repeated square repeats its corners.  line_of keeps the
            lowest line of every vertex met from one start, and a vertex
            met on lines l and l' caps the height below max(l, l'), for
            this column and every later one.  A region that is not a
            square tile caps the height at its row.  Returns the mask of
            the regions of the rows below each height, the mask of the
            recorded vertices on lines 0..k at each k, the vertices of
            each side by line and the lowered cap.
            """
            lines = [[origin[e ^ 1] if hi == 3 else origin[e]]
                     for hi in sides]
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

        self.climb = climb


def _rectangles(tiles: _Tiles, low: int, emit) -> None:
    """Every rectangle whose lower source corner is low, each walked once.

    A rectangle is walked as a grid from that corner, up each β
    half-edge b of tiles.start[low].  The first column climbs from b's
    square, recording both sides; line 0 is the grid's bottom side.
    Widening moves to the square across the right side of the bottom
    square, and climbs its right side only: the square above a right
    neighbour is the right neighbour of the square above, since every
    vertex is four-valent, so each width adds one column, walked once.
    At height k a width's masks are the previous width's with the new
    column's, and the passthrough is the grid's vertices on lines 0..k
    less its four corners.

    A rectangle is emitted only from its corner on the lower β circle,
    which is why no start lies on the last β circle.  The top side's β
    circle at each height is read off the first column, so the height
    is also capped at the last one above the lower corner's circle.
    """
    v_beta, step, bit = tiles.diagram.v_beta, tiles.step, tiles.bit
    climb, j = tiles.climb, v_beta[low]
    for b in tiles.start.get(low, ()):
        line_of = {}
        regs, verts, (left, right), cap = climb(b ^ 1, len(tiles.cycle),
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
            # b's square turned to start at b, then the square across
            # its next half-edge, turned to start at the twin
            row = step[step[b ^ 1][1][1]]
            if row is None:
                break
            b = row[1][1]
            column, line, (right,), cap = climb(b ^ 1, cap, line_of, (2,))
            regs = [a | c for a, c in zip(regs, column)]
            verts = [a | c for a, c in zip(verts, line)]


def _bigons(tiles: _Tiles, emit) -> None:
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
    diagram, step, bit = tiles.diagram, tiles.step, tiles.bit
    climb, v_beta = tiles.climb, diagram.v_beta
    for t, size in enumerate(tiles.tile):
        if size != 2:
            continue
        beta, alpha = tiles.cycle[t]
        if diagram.label(beta)[0] != "b":
            beta, alpha = alpha, beta
        line_of = {}
        regs, verts, (left, right), cap = climb(alpha, len(tiles.cycle),
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
    tiles = _Tiles(diagram)
    for low in tiles.start:
        _rectangles(tiles, low, emit)
    _bigons(tiles, emit)


def domain_census(diagram: HeegaardDiagram) -> list[DomainCandidate]:
    """The disks of walk_domains as a list, sorted by region tuple.

    A sorted view for tests, oracles and tracing: decide, decide_lazy
    and boundary_matrix read the walk directly, and build no list.
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


class _DiskIndex:
    """Disks filed by their source corners, as a walk hands them to file.

    file(swap, regions, passthrough) files one disk, and is the emit of
    every walk that fills the index.  weight[v] is vertex v's weight in
    the generator codes: with V vertices, a generator's code is its
    vertices read as a base-V numeral, the first circle's most
    significant, so a vertex on β circle j of n weighs itself times
    V^(n − j).  Codes increase in generators() order and name distinct
    vertex tuples (docs/conventions.md, "Generator codes").  A vertex
    names its β circle, so a disk is filed by its source corners alone:
    one vertex for a bigon, the pair in circle order for a rectangle.
    by_source maps each such key to its disks, each as (passthrough,
    delta), delta the weights of its targets less those of its sources;
    a disk moves a generator x that it fits to the generator whose code
    is x's plus delta, since each source shares its α circle with a
    target and the move keeps the α circles distinct.

    An index made by _local_index also holds its diagram's tiles, and
    unwalked holds the vertices whose rectangles _walk has not yet filed.
    Its by_first[v] holds (need, disks) for each key whose first vertex
    is v, need being 0 for a bigon and the bit of the second source for
    a rectangle; disks is by_source's list, so each disk is filed once.
    """

    def __init__(self, weight: list, by_source: dict, file):
        self.weight, self.by_source, self.file = weight, by_source, file
        self.by_first, self.tiles, self.unwalked = {}, None, set()


def _disk_index(diagram: HeegaardDiagram) -> _DiskIndex:
    """An empty disk index of a flattened diagram, with its filing rule."""
    if diagram.bad_regions():
        raise ValueError(
            "the boundary operator needs a flattened diagram; "
            "run make_nice first")
    n, base = diagram.n, diagram.n_vertices
    weight = [v * base ** (n - j) for v, j in enumerate(diagram.v_beta)]
    by_source = {}

    def file(swap, regions, passthrough):
        key = swap[0][1] if len(swap) == 1 else (swap[0][1], swap[1][1])
        delta = 0
        for _, src, tgt in swap:
            delta += weight[tgt] - weight[src]
        by_source.setdefault(key, []).append((passthrough, delta))

    return _DiskIndex(weight, by_source, file)


def _local_index(diagram: HeegaardDiagram) -> _DiskIndex:
    """A disk index that files each vertex's rectangles on demand.

    Every bigon is walked and filed at once, from its tile: a bigon's
    walk starts at no corner, and the tiles are few.  The rectangles
    out of a vertex are filed when _walk first reaches it
    (docs/conventions.md, "Corner-local columns").
    """
    index = _disk_index(diagram)
    index.tiles = _Tiles(diagram)
    index.unwalked = set(index.tiles.start)
    _bigons(index.tiles, index.file)
    _list_by_first(index, 0)
    return index


def _walk(index: _DiskIndex, vertices) -> None:
    """File the rectangles out of each of vertices not walked from yet.

    A rectangle that fits a generator x has its lower source corner
    among x's vertices, and _rectangles walks it from exactly that
    corner, so once x's vertices are walked, x's column can be read off
    a local index.
    """
    unwalked, by_source = index.unwalked, index.by_source
    for v in vertices:
        if v in unwalked:
            unwalked.remove(v)
            known = len(by_source)
            _rectangles(index.tiles, v, index.file)
            _list_by_first(index, known)


def _list_by_first(index: _DiskIndex, known: int) -> None:
    """List under its first vertex each key filed after the first known.

    A dict keeps its keys in the order they were made, so the keys a
    walk made are by_source's last ones.  Listing them after the walk,
    not as each disk is filed, leaves the filing rule that
    boundary_matrix runs on every disk as it was.
    """
    by_source, by_first = index.by_source, index.by_first
    bit = index.tiles.bit
    for key in islice(reversed(by_source), len(by_source) - known):
        if isinstance(key, int):
            by_first.setdefault(key, []).append((0, by_source[key]))
        else:
            by_first.setdefault(key[0], []).append(
                (bit[key[1]], by_source[key]))


def _decode(diagram: HeegaardDiagram, code: int) -> tuple:
    """The vertex tuple a code names: its base-V digits, first circle first."""
    n, base = diagram.n, diagram.n_vertices
    return tuple(code // base ** (n - j) % base for j in range(1, n + 1))


def boundary_matrix(diagram: HeegaardDiagram) -> BoundaryMatrix:
    """Assemble the full boundary operator of a flattened diagram.

    One walk of walk_domains files every disk (_disk_index), and
    _assemble reads every generator's column off that index.
    """
    index = _disk_index(diagram)
    walk_domains(diagram, index.file)
    return _assemble(diagram, generators(diagram), index)


def _assemble(diagram: HeegaardDiagram, gens: list,
              index: _DiskIndex) -> BoundaryMatrix:
    """The boundary operator on the generators gens, from a full disk index.

    A generator x looks up each of its coordinates and each pair of
    them, so it meets exactly the disks whose source corners it holds,
    each once.  A disk fits x when its passthrough mask misses the mask
    of x's vertices, and moves x's code by its delta.  A code that names
    no generator is an internal error, and its digits are the tuple it
    names.  Column x lists, sorted, the generators reached an odd number
    of times; ∂² = 0 is checked before the matrix is returned.
    """
    weight, by_source = index.weight, index.by_source
    bit = [1 << v for v in range(diagram.n_vertices)]
    codes = [sum(map(weight.__getitem__, x)) for x in gens]
    position = dict(zip(codes, range(len(codes))))
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
                        hits.append(position[code + delta])
            hits.sort()
            if len(set(hits)) < len(hits):
                hits = [i for i in sorted(set(hits)) if hits.count(i) % 2]
            columns.append(tuple(hits))
    except KeyError as miss:
        raise RuntimeError(
            f"internal error: a disk moves generator {x} to "
            f"{_decode(diagram, miss.args[0])}, which is no generator"
        ) from None
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
    error.  The verdict's rank is the closure block's.
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
                       generator_count=m.n, rank=rank)
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
                   generator_count=m.n, rank=rank)


def _column(diagram: HeegaardDiagram, index: _DiskIndex, x: tuple) -> list:
    """∂x as a sorted list of generators, read off a local index.

    _walk first files the rectangles out of x's vertices, which are all
    the rectangles that can fit x (docs/conventions.md, "Corner-local
    columns").  The column is then read by the assembly's rule: the
    disks whose sources x holds and whose passthrough misses x, each
    moving x's code by its delta, kept when hit an odd number of times.
    by_first makes it cost a lookup per coordinate, not per pair.  Every
    target code is decoded and must name a generator, or it is an
    internal error.
    """
    _walk(index, x)
    n, v_alpha, v_beta = diagram.n, diagram.v_alpha, diagram.v_beta
    weight, by_first, bit = index.weight, index.by_first, index.tiles.bit
    held = code = 0
    for v in x:
        held |= bit[v]
        code += weight[v]
    odd = set()
    for v in x:
        for need, disks in by_first.get(v, ()):
            if held & need == need:
                for mask, delta in disks:
                    if not held & mask:
                        odd ^= {code + delta}
    out = []
    for k in sorted(odd):
        y = _decode(diagram, k)
        if not (sum(map(weight.__getitem__, y)) == k
                and len({v_alpha[v] for v in y}) == n
                and all(v_beta[v] == j for j, v in enumerate(y, 1))):
            raise RuntimeError(
                f"internal error: a disk moves generator {x} to {y}, "
                "which is no generator")
        out.append(y)
    return out


def _bounding_candidate(diagram: HeegaardDiagram, c: tuple,
                        index: _DiskIndex):
    """A generator x next to c with ∂x = c, or None.

    The candidates are c with one coordinate c_j replaced by another
    vertex on β circle j and on c_j's α circle, so each is a generator;
    they are tried in tuple order (docs/conventions.md, "Deciding
    VANISHING from a generator next to c").  Each column is read off
    the local index once (_column).  c's column must be empty, and
    ∂(∂x) = 0 is checked on every candidate column.
    """
    columns = {}

    def column(x):
        if x not in columns:
            columns[x] = _column(diagram, index, x)
        return columns[x]

    if column(c):
        raise RuntimeError(
            "internal error: the distinguished generator is not a cycle")
    v_alpha = diagram.v_alpha
    candidates = sorted(
        c[:j - 1] + (v,) + c[j:] for v, j in enumerate(diagram.v_beta)
        if v != c[j - 1] and v_alpha[v] == v_alpha[c[j - 1]])
    for x in candidates:
        boundary = column(x)
        acc = set()
        for y in boundary:
            acc ^= set(column(y))
        if acc:
            raise RuntimeError(
                "internal error: the boundary operator fails to square "
                f"to zero on generator {x}; composite hits {sorted(acc)}")
        if boundary == [c]:
            return x
    return None


def decide(diagram: HeegaardDiagram) -> Verdict:
    """Decide whether a flattened diagram's contact class vanishes.

    The disks are filed on demand (_local_index): every bigon at once,
    and the rectangles out of a vertex when a column first needs them.
    When a generator x next to c has ∂x = c (_bounding_candidate), c
    bounds: VANISHING, with the chain (x,) as certificate, its
    generators counted by count_generators and rank -1, since nothing
    was eliminated; only the vertices of c, of the candidates tried and
    of their boundaries were walked from.  Otherwise the vertices not
    walked from yet are walked, so that every disk is walked once, the
    whole operator is assembled from the same index and decide_vanishing
    settles it on c's closure.  Only VANISHING is ever decided early.
    """
    c = contact_class(diagram)
    index = _local_index(diagram)
    x = _bounding_candidate(diagram, c, index)
    if x is not None:
        return Verdict(outcome=VANISHING, certificate=(x,),
                       generator_count=count_generators(diagram), rank=-1)
    _walk(index, range(diagram.n_vertices))
    m = _assemble(diagram, generators(diagram), index)
    return decide_vanishing(m, c)


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
    NONVANISHING outright, with rank -1 and the generators counted, not
    listed (count_generators); otherwise the diagram is flattened fully
    and decide settles it.  A frontier diagram that is already flat goes
    straight to decide, so that its disks are walked once.  trace gets one line per
    flattening move, and the verdict carries the diagram it was decided
    on.
    """
    lz = lazy_frontier(diagram, trace=trace)
    if lz.bad_regions():
        if not _sources_into_c(lz):
            return Verdict(outcome=NONVANISHING, certificate=(),
                           generator_count=count_generators(lz), rank=-1,
                           diagram=lz)
    nice = make_nice(lz, trace=trace)
    return replace(decide(nice), diagram=nice)


def homology_rank(m: BoundaryMatrix) -> int:
    """dim ker − dim im of the boundary operator over GF(2)."""
    return m.n - 2 * len(_eliminate(m.columns, combos=False))


__all__ = ["BoundaryMatrix", "DomainCandidate", "GENERATOR_BUDGET",
           "NONVANISHING", "VANISHING", "Verdict", "boundary_matrix",
           "contact_class", "count_generators", "decide", "decide_lazy",
           "decide_vanishing", "domain_census", "generators",
           "homology_rank", "walk_domains"]
