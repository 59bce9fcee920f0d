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
    arr = Arrangement(page, [curve])
    # the linear test decides; the pairwise count only words the error
    if not arr.crossing_free():
        raise ValueError("crossing sequence describes a curve with "
                         f"{arr.crossing_number(0, 0)} self-crossings")
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
    return list(map(order.__getitem__, keys))


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

    A curve's events are its tokens; an arc's are its start, its tokens
    and its end.  Chord k of a path runs from its event k to its event
    k + 1, cyclically on a curve.  Attachments are int handles: chords
    are numbered in (path, chord) order, path p's from chord_base[p] on,
    and chord c's two ends are handles 2c and 2c + 1, so the far end of
    handle h is h ^ 1.  side[h] is the polygon position of the side h
    attaches to, att_order[pos] lists the handles on side pos
    counterclockwise, and position[h] is h's place in the concatenation
    of those lists.  other[h] is the attachment of h's crossing on the
    twin copy of its arc, or -1 at an endpoint.
    """

    def __init__(self, page: Page, paths):
        if page.n_arcs == 0:
            raise ValueError("the disk page carries no essential curves or arcs")
        self.page = page
        # the sides a token's strand enters and leaves by: a positive
        # token enters on its arc's first copy
        through = {}
        for arc, p, q in zip(itertools.count(1), page.first_occurrence,
                             page.second_occurrence):
            p, q = page.arc_side_pos(p), page.arc_side_pos(q)
            through[arc, 1], through[arc, -1] = (p, q), (q, p)
        self.events: list[list[tuple]] = []
        self.cyclic: list[bool] = []
        self.chord_base = [0]
        side = []
        for path in paths:
            if isinstance(path, Curve):
                if not path.normalized:
                    raise ValueError("arrangement requires normalized curves")
                if not path.crossings:
                    raise ValueError("cannot arrange a trivial curve")
                self.events.append([("x", a, s) for a, s in path.crossings])
                self.cyclic.append(True)
                # handle 2b leaves token 0, which is entered last
                sides = list(itertools.chain.from_iterable(
                    map(through.__getitem__, path.crossings)))
                side += sides[1:]
                side.append(sides[0])
            elif isinstance(path, ArcImage):
                if not path.normalized:
                    raise ValueError("arrangement requires normalized arcs")
                evs = [("e", path.start_slot, 0)]
                evs += [("x", a, s) for a, s in path.crossings]
                evs.append(("e", path.end_slot, 1))
                self.events.append(evs)
                self.cyclic.append(False)
                side.append(page.segment_side_pos(path.start_slot))
                side.extend(itertools.chain.from_iterable(
                    map(through.__getitem__, path.crossings)))
                side.append(page.segment_side_pos(path.end_slot))
            else:
                raise TypeError(f"cannot arrange {type(path).__name__}")
            self.chord_base.append(len(side) // 2)
        n = len(side)
        # chord c ends at the crossing that chord c + 1 leaves, except
        # where a path closes up or ends
        other = self.other = [0] * n
        other[0::2] = range(-1, n - 1, 2)
        other[1::2] = range(2, n + 2, 2)
        for p, cyclic in enumerate(self.cyclic):
            first, last = 2 * self.chord_base[p], 2 * self.chord_base[p + 1] - 1
            other[first], other[last] = (last, first) if cyclic else (-1, -1)
        self.side = side
        self._build()

    # -- ranking germs -----------------------------------------------------------

    def _rank_germs(self) -> list[int]:
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

        Letters are ints: (offset,) is offset * (n + 1), and a slot key
        adds 1 + the far end, as endpoints go by handle in slot key
        (path, end) order.  A round's pair of ranks is one int the same
        way.
        """
        side, other, n_sides = self.side, self.other, self.page.n_sides
        n = len(side)
        far, hop = [0] * n, [0] * n
        far[0::2], far[1::2] = side[1::2], side[0::2]
        hop[0::2], hop[1::2] = other[1::2], other[0::2]
        letters = [(f - s) % n_sides * (n + 1) for f, s in zip(far, side)]
        for h, f in enumerate(hop):
            if f < 0:
                letters[h] += 1 + (h ^ 1)
                hop[h] = h
        rank, classes = _dense_ranks(letters), 0
        while len(set(zip(side, rank))) < n:
            if max(rank) + 1 == classes:
                raise RuntimeError("internal error: could not separate parallel strands")
            classes = max(rank) + 1
            rank = _dense_ranks([r * classes + s for r, s in
                                 zip(rank, map(rank.__getitem__, hop))])
            hop = list(map(hop.__getitem__, hop))
        return rank

    # -- construction ----------------------------------------------------------

    def _build(self) -> None:
        # Of two strands leaving one arc side, the one whose itinerary is
        # larger at the first letter where they differ attaches
        # counterclockwise-earlier: non-crossing chords from one side nest,
        # the one aiming further counterclockwise outside.  Strands that
        # cross the same arcs keep their order, as entering a side and
        # switching to its twin copy both reverse it.  Endpoints on a
        # boundary side go by slot key, which is handle order.  Most small
        # arrangements have no arc side with two attachments and skip the
        # ranking.
        page = self.page
        order = self.att_order = [[] for _ in range(page.n_sides)]
        for h, pos in enumerate(self.side):
            order[pos].append(h)
        rank = None
        for pos, atts in enumerate(order):
            if len(atts) > 1 and page.is_arc_side(pos):
                rank = rank or self._rank_germs()
                atts.sort(key=rank.__getitem__, reverse=True)
        position = self.position = [0] * len(self.side)
        for i, h in enumerate(itertools.chain.from_iterable(order)):
            position[h] = i
        self.n_positions = len(position)

    # -- queries ----------------------------------------------------------------

    def _between(self, x: int, a: int, b: int) -> bool:
        """Is position x strictly inside the ccw interval from a to b?"""
        n = self.n_positions
        return 0 < (x - a) % n < (b - a) % n

    def _chords_cross(self, c1: int, c2: int) -> bool:
        pos = self.position
        a, b = pos[2 * c1], pos[2 * c1 + 1]
        return (self._between(pos[2 * c2], a, b)
                != self._between(pos[2 * c2 + 1], a, b))

    def strand_params(self, p: int, k: int) -> tuple[int, int]:
        """Arc-parameter orders of a crossing as read from the two copies.

        Returns (t_first, t_second), read off the attachment positions on
        the first-copy and second-copy sides; within one side positions
        differ as ranks along the arc do.  A pair of strands whose two
        readings disagree must cross next to the arc.
        """
        leave = 2 * (self.chord_base[p] + k)
        enter = leave - 1 if k else 2 * self.chord_base[p + 1] - 1
        if self.events[p][k][2] < 0:
            enter, leave = leave, enter
        # The first copy runs counterclockwise with the parameter, the
        # second copy against it.
        return self.position[enter], -self.position[leave]

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
        page, order, other = self.page, self.att_order, self.other
        kept = None
        if paths is not None:
            kept = bytearray(len(self.side))
            for p in paths:
                lo, hi = 2 * self.chord_base[p], 2 * self.chord_base[p + 1]
                kept[lo:hi] = b"\x01" * (hi - lo)
        for p, q in zip(page.first_occurrence, page.second_occurrence):
            first = order[page.arc_side_pos(p)]
            second = order[page.arc_side_pos(q)]
            if kept is not None:
                first = [h for h in first if kept[h]]
                second = [h for h in second if kept[h]]
            if list(map(other.__getitem__, first)) != second[::-1]:
                return False
        stack = []
        for h in itertools.chain.from_iterable(order):
            if kept is not None and not kept[h]:
                continue
            if stack and stack[-1] == h ^ 1:
                stack.pop()
            else:
                stack.append(h)
        return not stack

    def _strands(self, p: int) -> dict[int, list]:
        """Path p's crossings by arc, as (event, t_first, t_second)."""
        by_arc = {}
        for k, ev in enumerate(self.events[p]):
            if ev[0] == "x":
                by_arc.setdefault(ev[1], []).append(
                    (k, *self.strand_params(p, k)))
        return by_arc

    def flips_between(self, p: int, q: int) -> list[tuple[tuple, tuple]]:
        """Strip crossings between paths p and q as (strand_p, strand_q).

        A strand is (event, t_first, t_second), its event on its path
        and its strand_params.
        """
        strands_p = self._strands(p)
        strands_q = strands_p if p == q else self._strands(q)
        out = []
        for arc in range(1, self.page.n_arcs + 1):
            sq = strands_q.get(arc, ())
            for fp in strands_p.get(arc, ()):
                for fq in sq:
                    if p == q and fp[0] >= fq[0]:
                        continue
                    if (fp[1] - fq[1]) * (fp[2] - fq[2]) < 0:
                        out.append((fp, fq))
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
        base = self.chord_base
        for c1 in range(base[p], base[p + 1]):
            for c2 in range(c1 + 1 if p == q else base[q], base[q + 1]):
                if self._chords_cross(c1, c2):
                    count += -1 if self._share_arc_side(c1, c2) else 1
        return count

    def _share_arc_side(self, c1: int, c2: int) -> bool:
        side = self.side
        shared = ({side[2 * c1], side[2 * c1 + 1]}
                  & {side[2 * c2], side[2 * c2 + 1]})
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
