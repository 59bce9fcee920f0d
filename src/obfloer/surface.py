"""Pages presented as cut polygons, and curves on them in normal coordinates.

The page is a compact oriented surface with boundary.  Cutting it along a
fixed arc basis turns it into a single polygon, and every closed curve or
properly embedded arc is recorded by its cut sequence: the cyclic (or
linear) word of signed crossings with the basis arcs.  A reduced word is a
minimal position representative with respect to the arc system, so
crossing counts between paths can be computed from a canonical
arrangement of chords inside the polygon.

Conventions (documented in docs/conventions.md):

* The polygon boundary is traversed counterclockwise.  Sides alternate
  between arc copies and boundary segments: occurrence j of an arc sits at
  polygon position 2*j and boundary segment j at position 2*j + 1.
* The first occurrence of an arc carries the parameter t increasing along
  the counterclockwise direction; the second occurrence carries it
  decreasing, which is what the orientation-preserving regluing demands.
* A token (i, +1) crosses arc i entering on the side of the first copy
  and leaving on the side of the second copy; (i, -1) is the reverse.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

__all__ = [
    "Page",
    "Curve",
    "ArcImage",
    "Arrangement",
    "make_page",
    "parse_curve",
    "normalize",
    "geometric_intersection",
    "parallel",
    "successor_cycles",
    "pushoff",
    "canonical_rotation",
    "invert_word",
    "is_primitive",
    "reduce_cyclic",
    "reduce_linear",
    "unoriented_canonical",
]

Token = tuple[int, int]


# ---------------------------------------------------------------------------
# word utilities


def invert_word(word: tuple[Token, ...]) -> tuple[Token, ...]:
    """Return the word of the same path traversed backwards."""
    return tuple((arc, -sign) for arc, sign in reversed(word))


def reduce_linear(word: tuple[Token, ...]) -> tuple[Token, ...]:
    """Cancel adjacent inverse pairs until none remain (stack pass)."""
    out: list[Token] = []
    for tok in word:
        if out and out[-1][0] == tok[0] and out[-1][1] == -tok[1]:
            out.pop()
        else:
            out.append(tok)
    return tuple(out)


def reduce_cyclic(word: tuple[Token, ...]) -> tuple[Token, ...]:
    """Cancel adjacent inverse pairs around the cycle until none remain."""
    w = list(reduce_linear(word))
    while len(w) >= 2 and w[0][0] == w[-1][0] and w[0][1] == -w[-1][1]:
        w = w[1:-1]
    return tuple(w)


def canonical_rotation(word: tuple[Token, ...]) -> tuple[Token, ...]:
    if not word:
        return word
    return min(word[k:] + word[:k] for k in range(len(word)))


def is_primitive(word: tuple[Token, ...]) -> bool:
    """A cyclic word is primitive when no proper rotation reproduces it."""
    n = len(word)
    return all(word != word[p:] + word[:p] for p in range(1, n))


def unoriented_canonical(word: tuple[Token, ...]) -> tuple[Token, ...]:
    """Canonical form of a cyclic word up to rotation and reversal."""
    return min(canonical_rotation(word), canonical_rotation(invert_word(word)))


def successor_cycles(succ: dict) -> list[list]:
    """The cycles of a successor map, each started from its least key.

    Cycles come in the order of those least keys.
    """
    cycles = []
    walked = set()
    for start in sorted(succ):
        if start in walked:
            continue
        cycle = [start]
        cur = succ[start]
        while cur != start:
            cycle.append(cur)
            cur = succ[cur]
        walked.update(cycle)
        cycles.append(cycle)
    return cycles


# ---------------------------------------------------------------------------
# pages


@dataclass(frozen=True)
class Page:
    """A page together with its cut polygon.

    occurrence_word lists the arc index at each of the 2n arc-side
    occurrences in counterclockwise order; first_occurrence and
    second_occurrence are derived from it and kept for O(1) lookups.
    The polygon's sides alternate, so a side's kind is the parity of
    its position.
    """

    genus: int
    boundary_components: int
    n_arcs: int
    occurrence_word: tuple[int, ...]
    first_occurrence: tuple[int, ...]
    second_occurrence: tuple[int, ...]

    def __post_init__(self):
        if self.n_arcs != 2 * self.genus + self.boundary_components - 1:
            raise ValueError("arc count must equal 2*genus + boundary components - 1")

    @property
    def n_sides(self) -> int:
        return 2 * len(self.occurrence_word)

    def arc_side_pos(self, occ: int) -> int:
        """Polygon position of arc occurrence occ."""
        return 2 * occ

    def is_arc_side(self, pos: int) -> bool:
        """Is polygon position pos an arc copy, not a boundary segment?"""
        return pos % 2 == 0

    def segment_side_pos(self, seg: int) -> int:
        return 2 * seg + 1

    def occurrence_of(self, arc: int, *, entry_sign: int) -> int:
        """Occurrence index where a token of the given sign enters the arc."""
        return self.first_occurrence[arc - 1] if entry_sign > 0 else self.second_occurrence[arc - 1]

    def check_arc_index(self, arc: int) -> None:
        if not 1 <= arc <= self.n_arcs:
            raise ValueError(f"unknown arc index {arc} (page has {self.n_arcs} arcs)")


def make_page(genus: int, boundary_components: int) -> Page:
    """Build the canonical page model for the given topological type.

    The attachment word is planar slits first (one arc per extra boundary
    component, its two copies adjacent), then one interleaved quadruple
    u v u v per handle.  The boundary walk of the resulting polygon is
    checked to close up into exactly boundary_components circles.
    """
    if boundary_components < 1:
        raise ValueError("a page needs at least one boundary component")
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    n = 2 * genus + boundary_components - 1

    if n == 0:
        return Page(
            genus=0,
            boundary_components=1,
            n_arcs=0,
            occurrence_word=(),
            first_occurrence=(),
            second_occurrence=(),
        )

    occ_word: list[int] = []
    for k in range(1, boundary_components):
        occ_word += [k, k]
    for h in range(genus):
        u = (boundary_components - 1) + 2 * h + 1
        v = u + 1
        occ_word += [u, v, u, v]
    assert len(occ_word) == 2 * n

    first = [-1] * n
    second = [-1] * n
    for j, arc in enumerate(occ_word):
        if first[arc - 1] < 0:
            first[arc - 1] = j
        else:
            second[arc - 1] = j
    twin = [0] * (2 * n)
    for i in range(n):
        twin[first[i]] = second[i]
        twin[second[i]] = first[i]

    # Walking along the page boundary, the segment after segment j is the
    # one following the twin of the next arc occurrence.
    cycles = successor_cycles({j: twin[(j + 1) % (2 * n)] for j in range(2 * n)})
    if len(cycles) != boundary_components:
        raise AssertionError("attachment word produced the wrong boundary count")

    return Page(
        genus=genus,
        boundary_components=boundary_components,
        n_arcs=n,
        occurrence_word=tuple(occ_word),
        first_occurrence=tuple(first),
        second_occurrence=tuple(second),
    )


# ---------------------------------------------------------------------------
# curves and arcs


@dataclass(frozen=True)
class Curve:
    """A closed curve as a cyclic reduced word of arc crossings."""

    crossings: tuple[Token, ...]
    normalized: bool = False


@dataclass(frozen=True)
class ArcImage:
    """A properly embedded arc rel endpoints, as a linear crossing word.

    start_slot and end_slot are the boundary segments its endpoints sit
    on.  Basis arc i itself has no such word; a path's crossing number
    with it is the path's count of i-tokens (docs/conventions.md).
    """

    start_slot: int
    end_slot: int
    crossings: tuple[Token, ...]
    normalized: bool = False


def _check_tokens(page: Page, tokens) -> tuple[Token, ...]:
    word = []
    for tok in tokens:
        arc, sign = tok
        page.check_arc_index(arc)
        if sign not in (1, -1):
            raise ValueError(f"crossing sign must be +1 or -1, got {sign!r}")
        word.append((int(arc), int(sign)))
    return tuple(word)


def normalize(page: Page, path):
    """Reduce a path's word to its minimal position representative.

    Closed curves are reduced cyclically and stored in a canonical
    rotation; arcs are reduced linearly rel endpoints.  Idempotent.
    """
    if isinstance(path, Curve):
        word = canonical_rotation(reduce_cyclic(_check_tokens(page, path.crossings)))
        return Curve(crossings=word, normalized=True)
    if isinstance(path, ArcImage):
        word = reduce_linear(_check_tokens(page, path.crossings))
        return replace(path, crossings=word, normalized=True)
    raise TypeError(f"expected Curve or ArcImage, got {type(path).__name__}")


def parse_curve(page: Page, tokens) -> Curve:
    """Build the normalized closed curve described by a crossing sequence.

    Rejects sequences that reduce to the empty word (a trivial curve is
    almost certainly user error in a twist description), non-primitive
    words (a multiply covered circle is not embedded), and words whose
    canonical arrangement forces a self-crossing.
    """
    word = _check_tokens(page, tokens)
    if not word:
        raise ValueError("empty crossing sequence does not describe a curve")
    reduced = reduce_cyclic(word)
    if not reduced:
        raise ValueError("crossing sequence trivializes under reduction (contractible curve)")
    if not is_primitive(reduced):
        raise ValueError("crossing sequence traverses a shorter curve repeatedly (not embedded)")
    curve = Curve(crossings=canonical_rotation(reduced), normalized=True)
    crossings = Arrangement(page, [curve]).crossing_number(0, 0)
    if crossings:
        raise ValueError(f"crossing sequence describes a curve with {crossings} self-crossings")
    return curve


def pushoff(page: Page, arc: int) -> ArcImage:
    """The standard parallel copy of a basis arc, endpoints slid forward.

    Both endpoints advance along the boundary orientation past one arc
    endpoint, so the pushoff crosses its arc exactly once.  The crossing
    enters on the second-copy side, and the endpoints sit on the
    boundary segments following the two copies.
    """
    page.check_arc_index(arc)
    p = page.first_occurrence[arc - 1]
    q = page.second_occurrence[arc - 1]
    return ArcImage(
        start_slot=q,
        end_slot=p,
        crossings=((arc, -1),),
        normalized=True,
    )


# ---------------------------------------------------------------------------
# canonical arrangements


def _dense_ranks(keys: list) -> list[int]:
    """Replace each key by its index among the distinct keys, sorted."""
    order = {key: r for r, key in enumerate(sorted(set(keys)))}
    return [order[key] for key in keys]


# Attachment handle roles: a crossing event has an entry attachment and an
# exit attachment on the two copies of its arc; an endpoint event has a
# single attachment on its boundary segment.
_IN, _OUT, _END = "in", "out", "end"


class Arrangement:
    """Canonical simultaneous realization of paths in the cut polygon.

    Every participating path must be normalized.  The arrangement orders
    all chord attachments along each polygon side, arc sides by one
    ranking of every strand's itinerary (docs/conventions.md); pairs of
    strands through one arc whose side orders disagree are recorded as
    strip crossings.  The realization is taut except along runs (see
    crossing_number), so crossing_free() reads embeddedness off it; its
    minimal counts are checked against a brute-force chord placement
    search in the test suite.
    """

    def __init__(self, page: Page, paths):
        if page.n_arcs == 0:
            raise ValueError("the disk page carries no essential curves or arcs")
        self.page = page
        self.events: list[list[tuple]] = []
        self.cyclic: list[bool] = []
        for path in paths:
            if isinstance(path, Curve):
                if not path.normalized:
                    raise ValueError("arrangement requires normalized curves")
                if not path.crossings:
                    raise ValueError("cannot arrange a trivial curve")
                self.events.append([("x", a, s) for a, s in path.crossings])
                self.cyclic.append(True)
            elif isinstance(path, ArcImage):
                if not path.normalized:
                    raise ValueError("arrangement requires normalized arcs")
                evs = [("e", path.start_slot, 0)]
                evs += [("x", a, s) for a, s in path.crossings]
                evs.append(("e", path.end_slot, 1))
                self.events.append(evs)
                self.cyclic.append(False)
            else:
                raise TypeError(f"cannot arrange {type(path).__name__}")
        # strands[p][arc]: event indices of path p crossing that arc
        self.strands: list[dict] = []
        for evs in self.events:
            by_arc = {}
            for k, ev in enumerate(evs):
                if ev[0] == "x":
                    by_arc.setdefault(ev[1], []).append(k)
            self.strands.append(by_arc)
        self._build()

    # -- endpoints on a segment -----------------------------------------------

    def _slot_key(self, handle) -> tuple:
        """Endpoints on one segment go by path, then start before end."""
        p, k, _role = handle
        return (p, self.events[p][k][2])

    # -- ranking germs -----------------------------------------------------------

    def _rank_germs(self, side: dict) -> dict:
        """Rank the away germ of every attachment by its itinerary.

        The germ leaving an attachment reads one letter per chord: the
        counterclockwise offset from the chord's near side to its far
        side, followed by the slot key when the far end is a slot, which
        ends the itinerary.  Otherwise the itinerary goes on from the far
        event's other attachment, on the twin side.  Ranks order
        itineraries lexicographically.  Round i of prefix doubling ranks
        prefixes of length 2^i; an ended itinerary hops in place, as its
        slot letter already tells it apart.  Rounds stop once no two
        attachments of one side share a rank.  A round that splits no
        class would split none later, so strands still tied then are
        parallel.
        """
        n_sides = self.page.n_sides
        far = {}
        for a, b in itertools.chain.from_iterable(self.chords):
            far[a], far[b] = b, a
        index = {h: i for i, h in enumerate(far)}
        letters, hop = [], []
        for i, (h, f) in enumerate(far.items()):
            offset = (side[f] - side[h]) % n_sides
            p, k, role = f
            if role == _END:
                letters.append((offset,) + self._slot_key(f))
                hop.append(i)
            else:
                letters.append((offset,))
                hop.append(index[(p, k, _OUT if role == _IN else _IN)])
        sides = [side[h] for h in far]
        rank, classes = _dense_ranks(letters), 0
        while len(set(zip(sides, rank))) < len(rank):
            if max(rank) + 1 == classes:
                raise RuntimeError("internal error: could not separate parallel strands")
            classes = max(rank) + 1
            rank = _dense_ranks([(rank[i], rank[j]) for i, j in enumerate(hop)])
            hop = [hop[j] for j in hop]
        return dict(zip(far, rank))

    # -- construction ----------------------------------------------------------

    def _build(self) -> None:
        page = self.page
        self.chords: list[list[tuple]] = []
        for p, evs in enumerate(self.events):
            chords = []
            if self.cyclic[p]:
                m = len(evs)
                for k in range(m):
                    chords.append(((p, k, _OUT), (p, (k + 1) % m, _IN)))
            else:
                tail = (p, 0, _END)
                for k in range(1, len(evs) - 1):
                    chords.append((tail, (p, k, _IN)))
                    tail = (p, k, _OUT)
                chords.append((tail, (p, len(evs) - 1, _END)))
            self.chords.append(chords)

        # Of two strands leaving one arc side, the one whose itinerary is
        # larger at the first letter where they differ attaches
        # counterclockwise-earlier: non-crossing chords from one side nest,
        # the one aiming further counterclockwise outside.  Strands that
        # cross the same arcs keep their order, as entering a side and
        # switching to its twin copy both reverse it.  Endpoints on a
        # boundary side go by slot key.  Most small arrangements have no
        # arc side with two attachments and skip the ranking.  side[h]
        # is the polygon position of handle h's side: an endpoint's
        # segment, or the copy of its arc that the strand enters or
        # leaves by.
        self.side = side = {}
        for chord in itertools.chain.from_iterable(self.chords):
            for handle in chord:
                p, k, role = handle
                _kind, where, sign = self.events[p][k]
                if role == _END:
                    side[handle] = page.segment_side_pos(where)
                else:
                    entry = 1 if (sign > 0) == (role == _IN) else -1
                    side[handle] = page.arc_side_pos(
                        page.occurrence_of(where, entry_sign=entry))
        self.att_order: dict[int, list] = {pos: [] for pos in range(page.n_sides)}
        for handle, pos in side.items():
            self.att_order[pos].append(handle)
        rank = None
        for pos, atts in self.att_order.items():
            if not page.is_arc_side(pos):
                atts.sort(key=self._slot_key)
            elif len(atts) > 1:
                rank = rank or self._rank_germs(side)
                atts.sort(key=rank.get, reverse=True)

        self.position: dict[tuple, int] = {
            handle: i for i, handle in
            enumerate(itertools.chain.from_iterable(self.att_order.values()))}
        self.n_positions = len(self.position)

    # -- queries ----------------------------------------------------------------

    def _between(self, x: int, a: int, b: int) -> bool:
        """Is position x strictly inside the ccw interval from a to b?"""
        n = self.n_positions
        return 0 < (x - a) % n < (b - a) % n

    def _chords_cross(self, c1, c2) -> bool:
        a = self.position[c1[0]]
        b = self.position[c1[1]]
        c = self.position[c2[0]]
        d = self.position[c2[1]]
        return self._between(c, a, b) != self._between(d, a, b)

    def strand_params(self, p: int, k: int) -> tuple[int, int]:
        """Arc-parameter orders of a crossing as read from the two copies.

        Returns (t_first, t_second), read off the attachment positions on
        the first-copy and second-copy sides; within one side positions
        differ as ranks along the arc do.  A pair of strands whose two
        readings disagree must cross next to the arc.
        """
        sign = self.events[p][k][2]
        first_handle = (p, k, _IN if sign > 0 else _OUT)
        second_handle = (p, k, _OUT if sign > 0 else _IN)
        # The first copy runs counterclockwise with the parameter, the
        # second copy against it.
        return self.position[first_handle], -self.position[second_handle]

    def crossing_free(self, paths=None) -> bool:
        """Are the paths embedded and pairwise disjoint?  Linear time.

        paths names the paths to test, by index, and defaults to all of
        them.  The others are skipped: any subset of the paths is
        attached in the order its own arrangement gives it, so the
        answer is the one that arrangement would give.  Chords are
        disjoint exactly when their ends, read around the polygon, nest
        like brackets; strands pass an arc without crossing exactly when
        its second copy lists them in the reverse order of its first.
        Runs that must cross do so at a strip, so this holds exactly
        when every crossing_number is 0.
        """
        page, order = self.page, self.att_order
        keep = set(range(len(self.events)) if paths is None else paths)
        for p, q in zip(page.first_occurrence, page.second_occurrence):
            if ([h[:2] for h in order[page.arc_side_pos(p)] if h[0] in keep]
                    != [h[:2] for h in reversed(order[page.arc_side_pos(q)])
                        if h[0] in keep]):
                return False
        mate, stack = {}, []
        for p in keep:
            for a, b in self.chords[p]:
                mate[a], mate[b] = b, a
        for handle in self.position:
            if handle[0] not in keep:
                continue
            if stack and stack[-1] == mate[handle]:
                stack.pop()
            else:
                stack.append(handle)
        return not stack

    def flips_between(self, p: int, q: int) -> list[tuple[int, int, int]]:
        """Strip crossings between paths p and q as (arc, event_p, event_q)."""
        out = []
        for arc in range(1, self.page.n_arcs + 1):
            sq = self.strands[q].get(arc, ())
            for kp in self.strands[p].get(arc, ()):
                tf_p, ts_p = self.strand_params(p, kp)
                for kq in sq:
                    if p == q and kp >= kq:
                        continue
                    tf_q, ts_q = self.strand_params(q, kq)
                    if (tf_p - tf_q) * (ts_p - ts_q) < 0:
                        out.append((arc, kp, kq))
        return out

    def crossing_number(self, p: int, q: int) -> int:
        """Minimal crossing count between paths p and q, or of p with itself.

        Chords with no common arc side cross exactly when their sides
        interleave, which no placement avoids.  Chords that share an arc
        side cross only inside a run, where two strands cross the same k
        arcs in a row: a run that must cross once crosses at all k strips
        and between every two of them, 2k - 1 times.  So the minimal
        count is the strip crossings plus the crossings of chords with no
        common arc side, less those of chords that share one.
        """
        count = len(self.flips_between(p, q))
        chords_q = self.chords[q]
        for i, c1 in enumerate(self.chords[p]):
            for c2 in (chords_q[i + 1:] if p == q else chords_q):
                if self._chords_cross(c1, c2):
                    count += -1 if self._share_arc_side(c1, c2) else 1
        return count

    def _share_arc_side(self, c1, c2) -> bool:
        shared = {self.side[h] for h in c1} & {self.side[h] for h in c2}
        return any(map(self.page.is_arc_side, shared))


# ---------------------------------------------------------------------------
# intersection numbers


def geometric_intersection(page: Page, x, y) -> int:
    """Minimal transverse crossing count between two normalized paths.

    Parallel copies count as disjoint.  When the two paths share endpoint
    slots, the second argument's endpoints are read as perturbed
    counterclockwise-past the first's; the brute-force oracle in the test
    suite uses the same convention.
    """
    for label, path in (("first", x), ("second", y)):
        if not getattr(path, "normalized", False):
            raise ValueError(f"{label} argument must be normalized")
    if parallel(x, y):
        return 0
    return Arrangement(page, [x, y]).crossing_number(0, 1)


def parallel(x, y) -> bool:
    """Are two normalized paths copies of one path, in either direction?

    Such a pair cannot be arranged (its strands never separate) and
    counts as disjoint.
    """
    if isinstance(x, Curve) and isinstance(y, Curve):
        return unoriented_canonical(x.crossings) == unoriented_canonical(y.crossings)
    if isinstance(x, ArcImage) and isinstance(y, ArcImage):
        same_slots = {x.start_slot, x.end_slot} == {y.start_slot, y.end_slot}
        return same_slots and (x.crossings == y.crossings
                               or x.crossings == invert_word(y.crossings))
    return False
