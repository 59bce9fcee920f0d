"""The chain complex over GF(2) and the vanishing decision.

Generators are tuples of crossings, one on each pushoff circle, hitting
every arc circle exactly once.  The differential counts empty embedded
bigons and rectangles; on a flattened diagram these are exactly the
connected unions of regions, with 0/1 multiplicities and at most one
bigon tile, that glue to a disk with two or four corners and carry no
other coordinate of the source on their closure.

The distinguished generator is the tuple of page crossings.  It is
always a cycle; the open book's contact class vanishes exactly when it
is a boundary, which a small GF(2) elimination settles.  Both answers
come with certificates that can be checked by plain multiplication: a
primitive chain bounding the distinguished generator, or a functional
that kills every boundary yet evaluates to 1 on it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

from .heegaard import HeegaardDiagram
from .nicify import lazy_frontier, make_nice

NONVANISHING = "NONVANISHING"
VANISHING = "VANISHING"

_CENSUS_CAP = 400_000

_FLAT_PATTERNS = ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1))


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
    rank: int                # rank of the boundary operator, -1 if skipped
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


def _quadrants(diagram: HeegaardDiagram):
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
            if len(ring) > 4:
                raise RuntimeError("internal error: vertex is not 4-valent")
        if len(ring) != 4:
            raise RuntimeError("internal error: vertex is not 4-valent")
        quads.append(ring)
    return quads


def domain_census(diagram: HeegaardDiagram) -> list[DomainCandidate]:
    """Every admissible bigon or rectangle union of flat regions.

    Tiles are the bigon and square regions away from the basepoint;
    oversized regions never tile a differential, so on a partially
    flattened diagram the census only sees domains avoiding them.
    Enumeration grows connected unions, branching to repair vertices
    whose quadrant pattern is not yet that of a disk boundary.  A disk
    is kept only when each β circle its corners touch carries exactly
    one source and one target corner; any other disk fits no generator.
    """
    quads = _quadrants(diagram)
    eligible = frozenset(
        r for r, reg in enumerate(diagram.regions)
        if not reg.pointed and (reg.is_bigon or reg.is_square))
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
        if len(seen) > _CENSUS_CAP:
            raise RuntimeError(
                "internal error: domain census exceeded its state cap")
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
        # No Euler test is needed: with no defect every vertex is a convex
        # corner, a flat side or an interior point, so by Gauss-Bonnet a
        # union with two corners and one bigon tile, or four corners and
        # none, has Euler characteristic 1.
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
    """Assemble the full boundary operator of a flattened diagram."""
    if diagram.bad_regions():
        raise ValueError(
            "the boundary operator needs a flattened diagram; "
            "run make_nice first")
    gens = generators(diagram)
    index = {x: i for i, x in enumerate(gens)}
    census = domain_census(diagram)

    def column(x):
        hits = set()
        for dom in census:
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


def _eliminate(columns):
    """Reduced echelon basis of the column space with combination tracking.

    basis maps a pivot row to a column (a set of rows) whose least entry
    is that pivot and which contains no other pivot; combos maps the
    pivot to the set of original column indices that sum to its column.
    """
    basis = {}
    combos = {}
    for idx, col in enumerate(columns):
        vec = set(col)
        used = {idx}
        for q in sorted(basis):
            if q in vec:
                vec = vec ^ basis[q]
                used = used ^ combos[q]
        if vec:
            p = min(vec)
            for q in basis:
                if p in basis[q]:
                    basis[q] = basis[q] ^ vec
                    combos[q] = combos[q] ^ used
            basis[p] = vec
            combos[p] = used
    return basis, combos


def decide_vanishing(m: BoundaryMatrix, c: tuple) -> Verdict:
    """Decide whether c bounds, with a certificate either way.

    VANISHING comes with a chain w of generators, ∂w = c.  NONVANISHING
    comes with a functional (a set of generators) that evaluates to 0
    on every column of the boundary and to 1 on c.  Both are re-checked
    here by direct multiplication, independently of the elimination.
    That c is a cycle is a structural fact, so an entry in its column
    is an internal error.
    """
    if c not in m.generators:
        raise ValueError("c is not a generator of this complex")
    c_idx = m.generators.index(c)
    if m.columns[c_idx]:
        raise RuntimeError(
            "internal error: the distinguished generator is not a cycle")
    basis, combos = _eliminate(m.columns)
    rank = len(basis)
    vec = {c_idx}
    used = set()
    for q in sorted(basis):
        if q in vec:
            vec = vec ^ basis[q]
            used = used ^ combos[q]
    if not vec:
        w = tuple(sorted(m.generators[i] for i in used))
        acc = set()
        for i in used:
            acc ^= set(m.columns[i])
        if acc != {c_idx}:
            raise RuntimeError(
                "internal error: bounding chain fails its own check")
        return Verdict(outcome=VANISHING, certificate=w,
                       generator_count=m.n, rank=rank)
    r = min(vec)
    phi = {r}
    for p, col in basis.items():
        if r in col:
            phi.add(p)
    for col in m.columns:
        if len(phi & set(col)) % 2:
            raise RuntimeError(
                "internal error: functional fails to kill a boundary")
    if c_idx not in phi:
        raise RuntimeError(
            "internal error: functional misses the distinguished cycle")
    cert = tuple(sorted(m.generators[i] for i in phi))
    return Verdict(outcome=NONVANISHING, certificate=cert,
                   generator_count=m.n, rank=rank)


def decide_lazy(diagram: HeegaardDiagram, trace=None) -> Verdict:
    """Cheap decision: flatten only next to the page, look for disks into c.

    When no generator's boundary can hit the distinguished generator it
    is not a boundary and the answer is NONVANISHING outright, with rank
    -1; otherwise the diagram is flattened fully and the complete
    complex decides.  trace gets one line per flattening move, and the
    verdict carries the diagram it was decided on.
    """
    lz = lazy_frontier(diagram, trace=trace)
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
    basis, _ = _eliminate(m.columns)
    rank = len(basis)
    return m.n - 2 * rank


__all__ = ["BoundaryMatrix", "DomainCandidate", "NONVANISHING", "VANISHING",
           "Verdict", "boundary_matrix", "contact_class", "decide_lazy",
           "decide_vanishing", "domain_census",
           "generators", "homology_rank"]
