"""Bipartite maximum matching on bitmasks, with Hall witnesses.

Left vertices are 0..len(masks)-1; masks[i] has bit r set when left vertex
i is adjacent to right vertex r.  A greedy pass first gives each left
vertex, in order, its lowest free right vertex; augmenting paths then run
only from the vertices it left unmatched, scanning right vertices lowest
bit first, so results are deterministic.

An augmenting search marks all of a left vertex's unseen neighbours at
once and then tries each of them.  Each right vertex is marked once and is
then tried by the vertex that marked it, so a failed search has still
visited every matched neighbour of the alternating tree, as Kuhn's search
does: no augmenting path starts at that vertex, now or after later
augmentations.
"""

from __future__ import annotations

from typing import Sequence

from .errors import FrepkitError

__all__ = ["maximum_matching", "hall_witness"]


def maximum_matching(masks: Sequence[int], match: Sequence | None = None) -> list:
    """Return match[i] = right partner of left vertex i, or None if unmatched.

    A given match is a matching on masks to extend in place of the greedy
    pass: augmenting paths keep every right vertex it matches matched.
    """
    if match is None:
        match, unmatched, taken = [], [], 0
        for i, mask in enumerate(masks):
            free = mask & ~taken
            if free:
                low = free & -free
                taken |= low
                match.append(low.bit_length() - 1)
            else:
                match.append(None)
                unmatched.append(i)
    else:
        match = list(match)
        unmatched = [i for i, r in enumerate(match) if r is None]
    if not unmatched:
        return match
    owner = {r: i for i, r in enumerate(match) if r is not None}
    seen = 0

    def augment(left: int) -> bool:
        nonlocal seen
        fresh = masks[left] & ~seen
        seen |= fresh
        while fresh:
            low = fresh & -fresh
            fresh ^= low
            right = low.bit_length() - 1
            holder = owner.get(right)
            if holder is None or augment(holder):
                match[left] = right
                owner[right] = left
                return True
        return False

    for left in unmatched:
        seen = 0
        augment(left)
    augment = None  # drop the closure's self-reference now, not at the next collection
    return match


def hall_witness(masks: Sequence[int], match: Sequence) -> tuple[list[int], list[int]]:
    """Extract a Hall-violating left subset from a deficient maximum matching.

    Starting at an unmatched left vertex, alternate unmatched/matched edges;
    the reachable left vertices Z satisfy |neighborhood(Z)| = |Z| - 1.
    Returns (left indices, ascending right positions of their joint
    neighborhood).
    """
    owner = {r: i for i, r in enumerate(match) if r is not None}
    start = next(i for i, r in enumerate(match) if r is None)
    zone = [start]
    frontier = [start]
    reached = 0
    while frontier:
        fresh = masks[frontier.pop()] & ~reached
        reached |= fresh
        while fresh:
            low = fresh & -fresh
            fresh ^= low
            holder = owner.get(low.bit_length() - 1)
            if holder is not None:  # each right vertex is reached once
                zone.append(holder)
                frontier.append(holder)
    witness = sorted(zone)
    neighborhood = [r for r in range(reached.bit_length()) if reached >> r & 1]
    if len(neighborhood) >= len(witness):
        raise FrepkitError("witness extraction from a non-deficient matching")
    return witness, neighborhood
