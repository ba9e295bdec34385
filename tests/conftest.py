"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the package's bitmask/branch-and-bound
machinery and its log-domain codec kernel: plain itertools over Python sets,
networkx where a mature second opinion exists, and the Lagrange basis through
the checked GF methods for the MDS codec.  Expected values frozen in the
tests were computed with these.
"""

from itertools import combinations

import networkx as nx
import pytest

from frepkit import GF, BudgetExceededError, FrCode, Graph, TransversalDesign, analyze
from frepkit.batch import BatchTResult


def brute_min_union(code: FrCode, k: int) -> int:
    """Reference file size: plain scan over all k-subsets of nodes."""
    sets = [set(s) for s in code.node_sets]
    return min(len(set().union(*(sets[i] for i in chosen)))
               for chosen in combinations(range(code.n), k))


def profile_sizes(code: FrCode, k_max: int) -> list[tuple[int, int]]:
    """(M(k), search nodes opened) for k = 1..k_max, each row's search run in
    turn through one analyze._Profile at the default budget, as
    capacity_profile runs them."""
    profile = analyze._Profile(code, k_max, analyze.DEFAULT_BUDGET, "profile search")
    sizes = []
    for k in range(1, k_max + 1):
        before = profile.opened
        profile.search(k)
        sizes.append((profile.rows[-1], profile.opened - before))
    return sizes


def brute_max_edges(g: Graph, k: int) -> int:
    """Reference induced-edge maximum: plain scan over vertex subsets."""
    best = 0
    for chosen in combinations(range(1, g.v + 1), k):
        members = set(chosen)
        count = sum(1 for u, w in g.edges if u in members and w in members)
        best = max(best, count)
    return best


def brute_batch_t_detail(code: FrCode) -> BatchTResult:
    """Reference batch parameter: the plain node-side scan over every
    combinations(range(n), size) by increasing size, rescanning all theta
    symbols per subset."""
    holders = code.nodes_of_symbol
    nbr_masks = [sum(1 << (i - 1) for i in h) for h in holders]
    min_rho = min((len(h) for h in holders), default=0)
    if min_rho == 0:
        unstored = next(j for j, h in enumerate(holders, start=1) if not h)
        return BatchTResult(t=0, witness=(unstored,), witness_nodes=())
    for size in range(min_rho, min(code.n, code.theta - 1) + 1):
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


def rho2_batch_t(code: FrCode) -> int:
    """Reference batch parameter of a code storing each symbol on two nodes.

    The symbols are then the edges of a simple graph on the nodes, and s
    symbols are deficient when they touch fewer than s nodes, so t is the
    smallest vertex count of a subgraph with more edges than vertices (theta
    when there is none).  A smallest one is connected with one edge to
    spare: the union of two distinct cycles that meet, or of two disjoint
    cycles and a shortest path between them.  networkx lists the cycles of
    length up to L for L = 3, 4, ... and measures the paths; a subgraph of at
    most L vertices has no longer cycle, so the first size <= L is exact.
    """
    edges = [tuple(h) for h in code.nodes_of_symbol]
    assert all(len(e) == 2 for e in edges) and len(set(edges)) == len(edges)
    G = nx.Graph(edges)
    dist = dict(nx.all_pairs_shortest_path_length(G))

    def vertices(a, b):
        if a & b:
            return len(a | b)
        gap = min(dist[u].get(w, code.n) for u in a for w in b)
        return len(a) + len(b) + gap - 1

    for bound in range(3, code.n + 1):
        cycles = [frozenset(c) for c in nx.simple_cycles(G, length_bound=bound)]
        best = min((vertices(a, b) for a, b in combinations(cycles, 2)), default=code.theta)
        if best <= bound:
            return best
    return code.theta


def smallest_admitted_budget(run) -> int:
    """Smallest budget at which run(budget) is not refused, by doubling and
    bisection: a search refuses exactly when it opens more nodes than the
    budget, so refusal is monotone in the budget."""

    def refused(budget):
        try:
            run(budget)
        except BudgetExceededError:
            return True
        return False

    high = 1
    while refused(high):
        high *= 2
    low = -1
    while high - low > 1:
        mid = (low + high) // 2
        if refused(mid):
            low = mid
        else:
            high = mid
    return high


def automorphism_maps(code: FrCode, a: int, v: int) -> bool:
    """Reference symmetry: whether some automorphism of the node/symbol
    incidence maps node a to node v (0-based), by networkx's VF2++ on the
    bipartite incidence graph with a and v marked.  Each vertex also carries
    its distance from the marked node, which any such automorphism keeps;
    that only speeds the matcher up."""

    def marked(node):
        G = nx.Graph()
        G.add_nodes_from((("symbol", j) for j in range(1, code.theta + 1)), kind="symbol")
        G.add_nodes_from((("node", i) for i in range(code.n)), kind="node")
        G.add_edges_from((("node", i), ("symbol", j))
                         for i, s in enumerate(code.node_sets) for j in s)
        dist = nx.single_source_shortest_path_length(G, ("node", node))
        for x, data in G.nodes(data=True):
            data["label"] = (data["kind"], dist.get(x, -1))
        return G

    return nx.vf2pp_is_isomorphic(marked(a), marked(v), node_label="label")


def discovered(code: FrCode) -> tuple[list[int], list[int], dict[int, list[int]]]:
    """(orbit, path, chain) of analyze._discover_orbits run to its end: the
    union-find orbit of the automorphisms it verified, its first path, and
    chain[d], the orbit roots it recorded under those fixing path[:d]."""
    path: list[int] = []
    chain = {0: list(range(code.n))}
    for _ in analyze._discover_orbits(code.symbol_masks, code.holder_masks, path, chain):
        pass
    return chain[0], path, chain


def proven_orbits(code: FrCode) -> list[list[int]]:
    """The node orbits (0-based) that frepkit's symmetry discovery proves
    when its work is not limited: discovery run to its end, which verifies
    each candidate with analyze._is_automorphism before it joins two orbits."""
    parent = discovered(code)[0]
    orbits: dict[int, list[int]] = {}
    for v in range(code.n):
        orbits.setdefault(analyze._root(parent, v), []).append(v)
    return sorted(orbits.values())


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
