"""Bipartite maximum matching on bitmasks, with Hall witnesses.

Left vertices are 0..len(masks)-1; masks[i] has bit r set when left vertex
i is adjacent to right vertex r.  A greedy pass first gives each left
vertex, in order, its lowest free right vertex; augmenting paths then run
only from the vertices it left unmatched, scanning right vertices lowest
bit first, so results are deterministic.

Both functions run one iterative search, _search.  Its stack is the path
from the start: left vertices, each with the right vertices it has still to
try.  A left vertex marks all of its unseen neighbours at once; each marked
vertex is tried by the vertex that marked it, and a free one ends the
search with the path flipped.  A failed search has tried all it marked, so
its marks are the whole neighbourhood of the start's alternating tree, each
matched within the tree: the tree is closed, no later augmentation changes
it, and tree and marks are a Hall witness, one right vertex short.
"""

from __future__ import annotations

from typing import Sequence

from .errors import FrepkitError

__all__ = ["maximum_matching", "hall_witness"]


def _search(masks: Sequence[int], match: list, owner: dict, left: int) -> int | None:
    """Augment match and owner (right -> left) along the first alternating
    path from the unmatched left vertex to a free right vertex and return
    None; with no such path change nothing and return the mask of the right
    vertices reached."""
    path, untried = [left], []  # untried: the masks still to try below the top
    seen = fresh = masks[left]
    while True:
        if fresh:
            low = fresh & -fresh
            fresh ^= low
            right = low.bit_length() - 1
            holder = owner.get(right)
            if holder is None:  # each path vertex takes the right vertex it tried
                for i in reversed(path):
                    match[i], right = right, match[i]
                    owner[match[i]] = i
                return None
            untried.append(fresh)
            fresh = masks[holder] & ~seen
            seen |= fresh
            path.append(holder)
        elif untried:
            fresh = untried.pop()
            path.pop()
        else:
            return seen


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
    if unmatched:
        owner = {r: i for i, r in enumerate(match) if r is not None}
        for left in unmatched:
            _search(masks, match, owner, left)
    return match


def hall_witness(masks: Sequence[int], match: Sequence) -> tuple[list[int], list[int]]:
    """Extract a Hall-violating left subset from a deficient maximum matching.

    The left vertices of the alternating tree of the first unmatched vertex
    form Z, with |neighborhood(Z)| = |Z| - 1.  Returns (left indices,
    ascending right positions of their joint neighborhood).
    """
    owner = {r: i for i, r in enumerate(match) if r is not None}
    unmatched = [i for i, r in enumerate(match) if r is None]
    reached = _search(masks, list(match), owner, unmatched[0]) if unmatched else None
    if reached is None:
        raise FrepkitError("witness extraction from a non-deficient matching")
    neighborhood = [r for r in range(reached.bit_length()) if reached >> r & 1]
    return sorted([unmatched[0], *(owner[r] for r in neighborhood)]), neighborhood
