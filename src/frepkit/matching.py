"""Bipartite maximum matching by augmenting paths, with Hall witnesses.

Left vertices are 0..len(neighbors)-1; right vertices are whatever ids the
adjacency lists hold.  Scan order is fixed, so results are deterministic.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from .errors import FrepkitError

__all__ = ["maximum_matching", "hall_witness"]


def maximum_matching(neighbors: Sequence[Sequence[Hashable]]) -> list:
    """Return match[i] = right partner of left vertex i, or None if unmatched."""
    match_left: list = [None] * len(neighbors)
    match_right: dict = {}

    def augment(left: int, visited: set) -> bool:
        for right in neighbors[left]:
            if right in visited:
                continue
            visited.add(right)
            owner = match_right.get(right)
            if owner is None or augment(owner, visited):
                match_left[left] = right
                match_right[right] = left
                return True
        return False

    for left in range(len(neighbors)):
        augment(left, set())
    return match_left


def hall_witness(neighbors: Sequence[Sequence[Hashable]],
                 match_left: Sequence) -> tuple[list[int], list]:
    """Extract a Hall-violating left subset from a deficient maximum matching.

    Starting at an unmatched left vertex, alternate unmatched/matched edges;
    the reachable left vertices Z satisfy |neighborhood(Z)| = |Z| - 1.
    Returns (left indices, their joint right neighborhood).
    """
    match_right = {r: i for i, r in enumerate(match_left) if r is not None}
    start = next(i for i, r in enumerate(match_left) if r is None)
    zone = {start}
    frontier = [start]
    reached_right: set = set()
    while frontier:
        left = frontier.pop()
        for right in neighbors[left]:
            if right in reached_right:
                continue
            reached_right.add(right)
            owner = match_right.get(right)
            if owner is not None and owner not in zone:
                zone.add(owner)
                frontier.append(owner)
    witness = sorted(zone)
    neighborhood = sorted(reached_right)
    if len(neighborhood) >= len(witness):
        raise FrepkitError("witness extraction from a non-deficient matching")
    return witness, neighborhood
