"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the package's bitmask/branch-and-bound
machinery and its log-domain codec kernel: plain itertools over Python sets,
networkx where a mature second opinion exists, and the Lagrange basis through
the checked GF methods for the MDS codec.  Expected values frozen in the
tests were computed with these.
"""

import math
from itertools import combinations

import networkx as nx
import pytest

from frepkit import GF, BudgetExceededError, FrCode, Graph, TransversalDesign
from frepkit.analyze import DEFAULT_BUDGET
from frepkit.batch import BatchTResult


def brute_min_union(code: FrCode, k: int) -> int:
    """Reference file size: plain scan over all k-subsets of nodes."""
    sets = [set(s) for s in code.node_sets]
    return min(len(set().union(*(sets[i] for i in chosen)))
               for chosen in combinations(range(code.n), k))


def brute_max_edges(g: Graph, k: int) -> int:
    """Reference induced-edge maximum: plain scan over vertex subsets."""
    best = 0
    for chosen in combinations(range(1, g.v + 1), k):
        members = set(chosen)
        count = sum(1 for u, w in g.edges if u in members and w in members)
        best = max(best, count)
    return best


def brute_batch_t_detail(code: FrCode, budget: int | None = None) -> BatchTResult:
    """Reference batch parameter: the plain node-side scan over every
    combinations(range(n), size) by increasing size, rescanning all theta
    symbols per subset, under the nominal subset-count budget."""
    budget = DEFAULT_BUDGET if budget is None else budget
    holders = code.nodes_of_symbol
    nbr_masks = [sum(1 << (i - 1) for i in h) for h in holders]
    min_rho = min((len(h) for h in holders), default=0)
    if min_rho == 0:
        unstored = next(j for j, h in enumerate(holders, start=1) if not h)
        return BatchTResult(t=0, witness=(unstored,), witness_nodes=())
    spent = 0
    for size in range(min_rho, min(code.n, code.theta - 1) + 1):
        spent += math.comb(code.n, size)
        if spent > budget:
            raise BudgetExceededError(
                f"deficiency search over node subsets of size <= {size}", spent, budget)
        for nodes in combinations(range(code.n), size):
            t_mask = 0
            for i in nodes:
                t_mask |= 1 << i
            interior = [j for j in range(1, code.theta + 1)
                        if nbr_masks[j - 1] & ~t_mask == 0]
            if len(interior) > size:
                witness = tuple(interior[: size + 1])
                return BatchTResult(t=size, witness=witness,
                                    witness_nodes=tuple(i + 1 for i in nodes))
    return BatchTResult(t=code.theta, witness=None, witness_nodes=None)


def brute_hall_ok(code: FrCode, symbols) -> bool:
    """Reference retrievability: Hall's condition checked on every subset."""
    holders = code.nodes_of_symbol
    symbols = list(symbols)
    for r in range(1, len(symbols) + 1):
        for sub in combinations(symbols, r):
            neighborhood = set()
            for j in sub:
                neighborhood.update(holders[j - 1])
            if len(neighborhood) < len(sub):
                return False
    return True


def lagrange_values(field: GF, xs, ys, targets) -> list[int]:
    """Reference codec arithmetic: the values at targets of the polynomial of
    degree < len(xs) through (xs, ys), summed term by term in the Lagrange
    basis with the checked public GF methods only."""
    xs, ys = list(xs), list(ys)
    values = []
    for t in targets:
        total = 0
        for i, (xi, yi) in enumerate(zip(xs, ys)):
            term = yi
            for j, xj in enumerate(xs):
                if j != i:
                    term = field.mul(term, field.div(field.sub(t, xj), field.sub(xi, xj)))
            total = field.add(total, term)
        values.append(total)
    return values


def reference_decode(field: GF, dimension: int, coords) -> tuple[list[int], bool]:
    """Reference erasure decode: the message interpolated through the first
    dimension distinct positions, and whether every other coordinate agrees."""
    known = dict(coords)
    positions = sorted(known)
    xs, rest = positions[:dimension], positions[dimension:]
    ys = [known[x] for x in xs]
    message = lagrange_values(field, xs, ys, range(dimension))
    consistent = lagrange_values(field, xs, ys, rest) == [known[x] for x in rest]
    return message, consistent


def to_networkx(g: Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(1, g.v + 1))
    G.add_edges_from(g.edges)
    return G


@pytest.fixture
def paper_td34() -> TransversalDesign:
    """The TD(3,4) block list as published: 12 points in 3 groups, 16 blocks."""
    blocks = [
        (1, 5, 9), (1, 6, 10), (1, 7, 11), (1, 8, 12),
        (2, 5, 10), (2, 6, 9), (2, 7, 12), (2, 8, 11),
        (3, 5, 12), (3, 6, 11), (3, 7, 10), (3, 8, 9),
        (4, 5, 11), (4, 6, 12), (4, 7, 9), (4, 8, 10),
    ]
    groups = [(1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12)]
    return TransversalDesign(points=12, blocks=blocks, groups=groups)
