"""Dehn twists acting on crossing words.

A twist about an embedded curve c is performed directly on the cut
polygon: the target is realized together with c, every crossing between
them is resolved by splicing in one full copy of c's crossing word, and
the spliced word is reduced.  The copy enters the word with c's own
orientation or the reversed one; which of the two depends on the local
crossing sign and on the handedness of the twist.  Positive means the
twist turns traffic to the right when looking along c.

Crossings between the target and c appear in the realization in two
forms and both are spliced:

*  a crossing of two chords inside the polygon inserts the copy after
   the target token that starts the crossed chord, phased to begin with
   the c-token that follows the crossing along c;
*  a strip crossing next to an arc inserts the copy just before the
   target token that crosses the arc, phased to begin with c's own
   passage through that strip when both words traverse the arc the same
   way, or just after it when they traverse it opposite ways.

One pass along the target splices both: at each token, the strip
copies in the order the target meets them, the token, then the chord
copies in the order along the chord it starts.

apply_word twists all images of a letter in one arrangement with its
curve.  The splice reads positions only through cyclic betweenness and
through distance order along one side, and any subset of an
arrangement's paths keeps its own order, so each image comes out as
it would twisted alone.  That arrangement's linear crossing_free()
also checks the images the previous letter made, as embedded and
pairwise disjoint, and one more arrangement checks the last letter's;
the doubling reuses that one as its bottom sheet.  dehn_twist is
apply_word on one letter and one target.

The handedness conventions are pinned by the annulus and four-holed
sphere fixtures in the test suite rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .surface import (
    ArcImage,
    Arrangement,
    Curve,
    Page,
    canonical_rotation,
    invert_word,
    parallel,
    pushoff,
    reduce_cyclic,
    reduce_linear,
)


# Relative handedness of the two crossing kinds, fixed by requiring that
# opposite twists undo each other and that a positive twist about the
# annulus core straightens the spanning arc.  See the convention notes.
_CHORD_CHIRALITY = -1
_STRIP_CHIRALITY = 1

_CROSSING_IMAGES = ("internal error: twist produced a self-crossing image "
                    "or two crossing images")


@dataclass(frozen=True)
class TwistWord:
    """A composition of signed Dehn twists; the rightmost letter acts first."""

    letters: tuple

    def __post_init__(self):
        letters = tuple((curve, sign) for curve, sign in self.letters)
        for curve, sign in letters:
            if not isinstance(curve, Curve):
                raise TypeError("twist letters must be built from Curve values")
            if not curve.normalized or not curve.crossings:
                raise ValueError("twist curves must be normalized and essential")
            if sign not in (1, -1):
                raise ValueError(f"twist sign must be +1 or -1, got {sign!r}")
        object.__setattr__(self, "letters", letters)


def _loop(curve_word, start, dir_sign):
    """One full copy of the twist curve, phased at a crossing.

    The copy begins with the token at index start and wraps around; a
    negative direction inserts the reversed copy.
    """
    forward = curve_word[start:] + curve_word[:start]
    return forward if dir_sign > 0 else invert_word(forward)


def dehn_twist(page: Page, c: Curve, sign: int, target):
    """Image of a curve or arc under the signed Dehn twist about c."""
    if not isinstance(c, Curve):
        raise TypeError("can only twist about a Curve")
    if not c.normalized:
        raise ValueError("twist curve must be normalized")
    if not c.crossings:
        raise ValueError("cannot twist about a trivial curve")
    if sign not in (1, -1):
        raise ValueError(f"twist sign must be +1 or -1, got {sign!r}")
    if not isinstance(target, (Curve, ArcImage)):
        raise TypeError(f"cannot twist {type(target).__name__}")
    if not target.normalized:
        raise ValueError("twist target must be normalized")

    return apply_word(page, TwistWord(((c, sign),)), (target,))[0]


def _splice(arr: Arrangement, q: int, c: Curve, sign: int, target):
    """Twist target, path q of arr, about c, path 0 of arr.

    The splice reads arr only through cyclic betweenness of positions
    and through distance order along one side, which the other paths
    of arr do not change.
    """
    word_c = c.crossings
    events_t = arr.events[q]
    pos, n, base = arr.position, arr.n_positions, arr.chord_base

    # polygon crossings, attributed to the target chord they sit on, which
    # starts at the target's event of the same index
    interior: dict[int, list] = {}
    ends = pos[2 * base[0]:2 * base[1]]
    ends_c = list(zip(ends[::2], ends[1::2]))
    for j, chord in enumerate(range(base[q], base[q + 1])):
        pos_p = pos[2 * chord]
        span = (pos[2 * chord + 1] - pos_p) % n
        for l, (pos_r, pos_s) in enumerate(ends_c):
            off_r, off_s = (pos_r - pos_p) % n, (pos_s - pos_p) % n
            r_inside, s_inside = 0 < off_r < span, 0 < off_s < span
            if r_inside == s_inside:
                continue
            sigma = 1 if r_inside else -1
            loop = _loop(word_c, l + 1, _CHORD_CHIRALITY * sign * sigma)
            interior.setdefault(j, []).append(
                (off_r if r_inside else off_s, loop))

    # strip crossings, attributed to the target token they sit at
    flips: dict[int, list] = {}
    for (k_c, tf_c, ts_c), (k_t, tf_t, ts_t) in arr.flips_between(0, q):
        eps_c = arr.events[0][k_c][2]
        eps_t = events_t[k_t][2]
        sigma = eps_t * eps_c * (1 if ts_t > ts_c else -1)
        loop = _loop(word_c, k_c + (eps_c != eps_t),
                     _STRIP_CHIRALITY * sign * sigma)
        # Several crossings at one token are spliced in the order the
        # target meets them.  The c strands it crosses there never cross
        # each other, so they all sit on one side of it, and the nearest
        # on the copy where the target enters is met first; the nearest
        # on the other copy is the farthest on this one.
        flips.setdefault(k_t, []).append((eps_t * abs(tf_c - tf_t), loop))
    # The realization crosses more than minimally only along runs that
    # must cross anyway, so no splice at all means disjoint.
    if not flips and not interior:
        return target
    for stack in [*interior.values(), *flips.values()]:
        stack.sort(key=lambda pair: pair[0])

    # a curve's word comes out rotated, which _image undoes
    out = []
    for k, ev in enumerate(events_t):
        for _depth, loop in flips.get(k, ()):
            out.extend(loop)
        if ev[0] == "x":
            out.append(ev[1:])
        for _off, loop in interior.get(k, ()):
            out.extend(loop)
    image = _image(target, tuple(out))
    if isinstance(image, Curve) and not image.crossings:
        raise RuntimeError("internal error: twist trivialized an essential curve")
    return image


def _image(target, tokens):
    """The target's image: its spliced tokens, reduced.

    Every token comes from a normalized word, so reducing them is all
    that normalize would do.
    """
    if isinstance(target, Curve):
        return Curve(canonical_rotation(reduce_cyclic(tokens)),
                     normalized=True)
    return ArcImage(target.start_slot, target.end_slot,
                    reduce_linear(tokens), normalized=True)


class _Images(tuple):
    """A word's images, with the arrangement that checked them last.

    That arrangement holds the images alone, in order, and has passed
    crossing_free(); it is None when no letter moved an image, which
    then are the targets.
    """

    arrangement: Arrangement | None


def apply_word(page: Page, word: TwistWord, targets):
    """Images of disjoint arcs under a twist word, rightmost letter first.

    Each letter twists every image in one arrangement with its curve,
    which also checks that the images it twists are embedded and
    pairwise disjoint: the targets at the first letter, where a crossing
    is the caller's, and the previous letter's images after it.  One
    more arrangement checks the last letter's images; the returned
    tuple keeps it as its arrangement, None when no letter moved an
    image.  Images parallel to a letter's curve sit that letter out, as
    dehn_twist returns them.
    """
    images, twisted = list(targets), False
    for curve, sign in reversed(word.letters):
        moving = [j for j, t in enumerate(images) if not parallel(curve, t)]
        if not moving:
            continue
        arr = Arrangement(page, [curve, *(images[j] for j in moving)])
        if not arr.crossing_free(range(1, len(moving) + 1)):
            if not twisted:
                raise ValueError(
                    "twist targets must be embedded and pairwise disjoint")
            raise RuntimeError(_CROSSING_IMAGES)
        for q, j in enumerate(moving, 1):
            images[j] = _splice(arr, q, curve, sign, images[j])
        twisted = True
    out = _Images(images)
    out.arrangement = Arrangement(page, images) if twisted else None
    if twisted and not out.arrangement.crossing_free():
        raise RuntimeError(_CROSSING_IMAGES)
    return out


def same_action_on_basis(page: Page, w1: TwistWord, w2: TwistWord) -> bool:
    """Do two twist words move every basis pushoff arc the same way?"""
    basis = [pushoff(page, i) for i in range(1, page.n_arcs + 1)]
    return apply_word(page, w1, basis) == apply_word(page, w2, basis)


__all__ = ["TwistWord", "dehn_twist", "apply_word", "same_action_on_basis"]
