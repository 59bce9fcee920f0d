"""Flattening a doubled-page diagram into bigon and square regions.

Every region of a doubled-page diagram except the basepoint one is a
disk with one boundary cycle (docs/conventions.md), and flattening only
ever meets such regions.  The only primitive is a poke: one
attaching-circle edge of the "b" family is pushed through the unpointed
disk region in front of it and across one "a" edge on that region's far
boundary, so the tip comes to rest inside the next region over.  A poke
adds two crossings, cuts the disk it passed through in two, carves a
small bigon out of the region the tip rests in, and lengthens the
region behind the pushed edge by two sides; every unpointed region
stays a disk.

A finger is a chain of pokes: after the first one, the tip edge itself
is pushed onward, which turns the previous tip bigon into a plain
square of the tunnel.  Fingers never cross "b" edges, since circles of
one family stay disjoint, so all routing happens across "a" edges.

The flattening strategy chops one square off the lowest-numbered
oversized region per finger and routes the tip straight through
squares until it can rest in a bigon or the basepoint region, where
the damage of resting (two extra sides) is harmless.  When no harmless
entry exists the finger accepts collateral damage on a neighboring
region and the main loop picks the pieces up later.  That loop is not
known to terminate: on some books each finger chops a hexagon or
octagon and leaves a new one behind, and the global move budget, which
grows with the square of the diagram's size, is too large to stop such
a spin in practice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .heegaard import HeegaardDiagram, Region


@dataclass(frozen=True)
class FingerMoveSpec:
    """One finger move: where it starts, what it crosses, where it rests.

    source is a half-edge of the "b" family; the finger pushes that
    edge into the region on the source side.  crossings lists the "a"
    half-edges crossed in order, each seen from the region being left.
    terminal names the region the tip comes to rest in.
    """

    source: int
    crossings: tuple
    terminal: int


def _poke(d: HeegaardDiagram, h_beta: int, h_alpha: int) -> tuple:
    """Push the edge of h_beta through the region ahead, across h_alpha.

    he_region[twin(h_beta)] is the region pushed through: an unpointed
    disk with h_alpha on its boundary.  Returns (tip_half_edge,
    rest_region): the tip half-edge is the one to push to extend the
    finger, and rest_region is where the tip now sits.  Mutates d in
    place.
    """
    if d.label(h_beta)[0] != "b":
        raise ValueError("a finger can only push an edge of the b family")
    if not 0 <= h_alpha < 2 * d.n_edges:
        raise ValueError("crossed half-edge does not exist")
    if d.label(h_alpha)[0] != "a":
        raise ValueError("a finger can only cross edges of the a family")
    R = d.he_region[d.twin(h_beta)]
    if d.he_region[h_alpha] != R:
        raise ValueError(
            "the crossed edge does not bound the region the finger is in")
    reg = d.regions[R]
    if R == d.z0_region:
        raise ValueError("the basepoint region cannot be pushed through")
    if not reg.is_disk:
        raise ValueError("a finger can only pass through a disk region")

    j = d.label(h_beta)[1]
    i = d.label(h_alpha)[1]
    v2 = d.head(h_beta)
    w2 = d.head(h_alpha)

    x_L = d.n_vertices
    x_R = x_L + 1
    d.v_alpha.extend((i, i))
    d.v_beta.extend((j, j))
    d.v_tag.extend((("finger", x_L), ("finger", x_R)))

    E = d.n_edges
    e2, e3, f2, f3 = E, E + 1, E + 2, E + 3
    d.edge_label.extend((("b", j), ("b", j), ("a", i), ("a", i)))
    d.he_origin.extend((x_L, x_R,      # e2: x_L -> x_R
                        x_R, v2,       # e3: x_R -> v2
                        x_L, x_R,      # f2: x_L -> x_R
                        x_R, w2))      # f3: x_R -> w2
    d.he_region.extend((-1,) * 8)
    d.he_origin[d.twin(h_beta)] = x_L  # pushed edge now ends at x_L
    d.he_origin[d.twin(h_alpha)] = x_L  # crossed edge keeps its near piece

    # cut the region that was pushed through along the finger
    cyc = reg.cycles[0]
    pos_b = cyc.index(d.twin(h_beta))
    cyc = cyc[pos_b:] + cyc[:pos_b]
    pos_a = cyc.index(h_alpha)
    c2 = cyc[1:pos_a] + [h_alpha, d.twin(h_beta)]
    reg.cycles[0] = [2 * e3 + 1, 2 * f3] + cyc[pos_a + 1:]
    new_r = len(d.regions)
    d.regions.append(Region(cycles=[c2]))
    for h in c2:
        d.he_region[h] = new_r
    d.he_region[2 * e3 + 1] = R
    d.he_region[2 * f3] = R

    # the region behind the pushed edge absorbs the strip; it and the
    # region past the crossing may be the pointed one, which need not
    # be a disk
    r_S = d.he_region[h_beta]
    for cyc in d.regions[r_S].cycles:
        if h_beta in cyc:
            p = cyc.index(h_beta)
            cyc[p:p + 1] = [h_beta, 2 * f2, 2 * e3]
            break
    else:
        raise RuntimeError("internal error: pushed edge left no trace")
    d.he_region[2 * f2] = r_S
    d.he_region[2 * e3] = r_S

    # the tip carves a bigon sliver out of the region past the crossing
    r_N = d.he_region[d.twin(h_alpha)]
    for cyc in d.regions[r_N].cycles:
        if d.twin(h_alpha) in cyc:
            p = cyc.index(d.twin(h_alpha))
            cyc[p:p + 1] = [2 * f3 + 1, 2 * e2 + 1, d.twin(h_alpha)]
            break
    else:
        raise RuntimeError("internal error: crossed edge left no trace")
    d.he_region[2 * f3 + 1] = r_N
    d.he_region[2 * e2 + 1] = r_N

    bigon = len(d.regions)
    d.regions.append(Region(cycles=[[2 * e2, 2 * f2 + 1]]))
    d.he_region[2 * e2] = bigon
    d.he_region[2 * f2 + 1] = bigon

    return 2 * e2, r_N


def _execute(d: HeegaardDiagram, move: FingerMoveSpec) -> None:
    h = d.twin(move.source)
    for cross in move.crossings:
        h, rest = _poke(d, h, cross)
    if rest != move.terminal:
        raise ValueError(
            f"the finger comes to rest in region {rest}, "
            f"not the declared terminal {move.terminal}")


def finger_move(diagram: HeegaardDiagram,
                move: FingerMoveSpec) -> HeegaardDiagram:
    """Perform one finger move and return the new diagram.

    The input diagram is not touched.  The source half-edge must carry
    a "b" label; the finger pushes its edge into the region on the
    source side, crossing the listed "a" half-edges one unpointed disk
    region at a time, and the tip must come to rest in move.terminal.
    """
    if not isinstance(move, FingerMoveSpec):
        raise TypeError("move must be a FingerMoveSpec")
    if not move.crossings:
        raise ValueError("a finger move must cross at least one a edge")
    if not 0 <= move.source < 2 * diagram.n_edges:
        raise ValueError("source half-edge does not exist")
    d = diagram.clone()
    _execute(d, move)
    d.validate()
    return d


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


def _plan_finger(d: HeegaardDiagram, target: int) -> FingerMoveSpec:
    """Choose a finger that chops a square off the oversized disk target."""
    reg = d.regions[target]
    cyc = reg.cycles[0]
    L = len(cyc)
    best = None
    for pos, hh in enumerate(cyc):
        if d.label(hh)[0] != "b":
            continue
        # cost of the two sides the strip adds behind the pushed edge;
        # that region is never the target (docs/conventions.md)
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
    if best is None:
        raise RuntimeError(
            "internal error: no finger can leave the oversized region; "
            "resting would require sliding a full circle, which the "
            "doubled-page construction rules out")
    return best[1]


def _flatten(diagram: HeegaardDiagram, frontier_only: bool,
             trace) -> HeegaardDiagram:
    """Flatten the bad regions, or only those on the frontier, in order.

    A diagram with nothing to flatten is returned as it is.
    """
    def first_target(d):
        return next((r for r in d.bad_regions()
                     if not frontier_only or _frontier(d, r)), None)

    target = first_target(diagram)
    if target is None:
        return diagram
    d = diagram.clone()
    moves = 0
    budget = 64 + 16 * (d.n_vertices + d.n_edges) ** 2
    while target is not None:
        if not d.regions[target].is_disk:
            raise ValueError(
                f"region {target} is not a disk; only disk regions can be "
                "flattened")
        move = _plan_finger(d, target)
        moves += len(move.crossings)
        if moves > budget:
            raise RuntimeError(
                "internal error: flattening exceeded its move budget; "
                "either a finger cannot come to rest (a slide over a "
                "full circle, which the construction rules out) or the "
                "planner is looping")
        corners = d.regions[target].corner_count
        _execute(d, move)
        if trace is not None:
            trace(f"finger region={target} sides={corners} "
                  f"crossings={len(move.crossings)} rest={move.terminal} "
                  f"vertices={d.n_vertices}")
        target = first_target(d)
    d.validate()
    return d


def _frontier(d: HeegaardDiagram, r: int) -> bool:
    """Does region r have a corner on the page, where the contact points live?

    Such are the regions touching the thin strips between each arc
    and its pushoff: the regions at vertices 0 .. n - 1.  The lazy test
    assumes that the disks into the distinguished generator only ever
    tile through them.  That assumption is unproved (ROADMAP.md, the
    item on certifying the lazy NONVANISHING), and a lazy NONVANISHING
    rests on it.
    """
    return any(d.he_origin[h] < d.n
               for cyc in d.regions[r].cycles for h in cyc)


def make_nice(diagram: HeegaardDiagram, trace=None) -> HeegaardDiagram:
    """Flatten every region except the basepoint one to bigons/squares.

    Returns a new diagram presenting the same open book; the input is
    untouched.  The crossings on the page, and with them the
    distinguished generator, are preserved.  Already-flat diagrams are
    returned as they are.
    """
    return _flatten(diagram, frontier_only=False, trace=trace)


def lazy_frontier(diagram: HeegaardDiagram, trace=None) -> HeegaardDiagram:
    """Flatten only the regions that touch the page crossings.

    Cheaper than make_nice: afterwards every region meeting the thin
    strips next to the arcs is a bigon or square, which is enough to
    count the differentials into the distinguished generator; other
    oversized regions may survive.
    """
    return _flatten(diagram, frontier_only=True, trace=trace)


__all__ = ["FingerMoveSpec", "finger_move", "lazy_frontier", "make_nice"]
