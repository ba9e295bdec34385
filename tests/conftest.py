"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the package's bitmask/branch-and-bound
machinery and its log-domain codec kernel: plain itertools over Python sets,
networkx where a mature second opinion exists, and the Lagrange basis through
the checked GF methods for the MDS codec.  Expected values frozen in the
tests were computed with these.
"""

import hashlib
import math
from collections import Counter
from itertools import combinations, product
from typing import Hashable, Sequence

import networkx as nx
import pytest

from frepkit import (
    GF,
    BudgetExceededError,
    CorruptionError,
    FrCode,
    FrepkitError,
    Graph,
    TransversalDesign,
    analyze,
    from_graph,
)
from frepkit.analyze import _bits, _is_automorphism, _root
from frepkit.batch import BatchTResult, NoPlan, retrieval_plan


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


def search_cost(code: FrCode, k: int) -> tuple[int, int, int]:
    """(M(k), search nodes opened, discovery work units) of the search that
    file_size runs at the default budget.  The units are those of discovery
    run to its end, or 0 when set-up settled the request without it."""
    profile = analyze._Profile(code, k, analyze.DEFAULT_BUDGET, "file-size search")
    profile.search(k)
    return profile.rows[0], profile.opened, profile.units


def oracle_greedy_unions(masks: tuple[int, ...], k_max: int) -> list[int]:
    """Exact-output oracle: the greedy pass of analyze over every start, as
    it ran before it learned to stop once it meets the set-up floors, kept
    verbatim.  It pins the very incumbents that the early stop must keep."""
    best = [math.inf] * k_max
    for start in range(len(masks)):
        rest = list(masks)
        union = rest.pop(start)
        sizes = [union.bit_count()]
        for _ in range(k_max - 1):
            grown = [(union | m).bit_count() for m in rest]
            least = min(grown)
            union |= rest.pop(grown.index(least))
            sizes.append(least)
        best = list(map(min, best, sizes))
    return best


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


def assert_valid_batch_witness(code: FrCode, detail: BatchTResult) -> None:
    """detail's witness proves its t: t + 1 symbols held by t nodes, which no
    retrieval plan serves; with no witness, t is theta."""
    if detail.witness is None:
        assert detail.t == code.theta and detail.witness_nodes is None
        return
    assert len(detail.witness) == detail.t + 1
    assert len(detail.witness_nodes) == detail.t
    holders = {i for j in detail.witness for i in code.nodes_of_symbol[j - 1]}
    assert holders <= set(detail.witness_nodes)
    assert isinstance(retrieval_plan(code, detail.witness), NoPlan)


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


def discovered(code: FrCode) -> tuple[list[int], list[int], list[list[int]]]:
    """(orbit, path, chain) of analyze._discover_orbits: the orbit roots of
    the automorphisms it verified, its first path, and chain[d], the orbit
    roots it recorded under those fixing path[:d]."""
    path, chain, _ = analyze._discover_orbits(code.symbol_masks, code.holder_masks)
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


def oracle_discover_orbits(masks: tuple[int, ...], holders: Sequence[int], path: list[int],
                           chain: dict[int, list[int]]):
    """Exact-output oracle: analyze._discover_orbits as it was before its
    leaf searches learned to skip children that a verified automorphism maps
    onto a failed child, kept verbatim below.  It pins the path, the chain
    snapshots and the orbits that the skips must keep, and the work units
    they must not exceed.

    Individualization and refinement (McKay & Piperno, "Practical graph
    isomorphism, II", 2014) on the node/symbol incidence graph, yielding the
    work units of each step.  It verifies and records its own orbits: a leaf
    permutation that passes _is_automorphism joins its nodes' classes in the
    union-find orbit, chain[0].  A partition is a pair of ordered lists of
    node and symbol cell bitmasks.  At each level L, the first path
    individualizes x_L = path[L], the first node of the largest node cell,
    until every node is a singleton.  Deepest level first, each other node
    of a level's cell outside x_L's orbit takes its place, and the tree below
    is searched for a leaf with the first path's traces.  Such a leaf keeps
    x_0..x_{L-1}, so every automorphism verified before level L begins fixes
    x_0..x_L, and chain[L + 1] then gets each node's root in orbit.

    At level L, z is skipped when its root is the root of x_L or of a z0
    whose leaf search failed.  Lemma: every automorphism verified so far, at
    L or deeper, fixes the path nodes x_0..x_{L-1}.  Say z = g(z0) for such
    a g, and some h fixing x_0..x_{L-1} maps x_L to z; then g^-1 h maps x_L
    to z0.  leaf_search is complete: it returns False only once it has
    exhausted its subtree, so no such h exists for z0, nor for z.  Every
    skipped search would have failed, so the same automorphisms are verified
    in the same order, and the orbits and chain do not change; only the work
    units shrink.  Roots move as classes merge, so they are compared afresh.
    """
    n, orbit = len(masks), chain[0]
    neighbours = (masks, holders)  # of a node, of a symbol

    def refine(part, stack, ref=None):
        """Splits cells by neighbour counts in each splitter until the nodes are
        discrete or the stack is empty, or early once the trace leaves ref."""
        work, trace = 0, []
        while stack and len(part[0]) < n:
            side, splitter = stack.pop()
            slices: list[int] = []  # slices[b]: the vertices whose count has bit b set
            for v in _bits(splitter):
                carry = neighbours[side][v]
                for b, sl in enumerate(slices):
                    slices[b], carry = sl ^ carry, sl & carry
                    if not carry:
                        break
                if carry:
                    slices.append(carry)
            touched = 0
            for sl in slices:
                touched |= sl
            work += 1 + len(slices)
            cells = []
            for c in part[1 - side]:
                if not c & touched or not c & (c - 1):
                    cells.append(c)
                    continue
                frags = [(c, 0)]  # (cell, count), in ascending count order
                for sl in reversed(slices):
                    frags = [q for f, v in frags
                             for q in ((f & ~sl, 2 * v), (f & sl, 2 * v + 1)) if q[0]]
                if len(frags) > 1:
                    sizes = [f.bit_count() for f, _ in frags]
                    trace.append((side, len(cells), sizes, [v for _, v in frags]))
                    if ref is not None and (len(trace) > len(ref)
                                            or trace[-1] != ref[len(trace) - 1]):
                        return work, trace
                    work += len(frags)
                    big = sizes.index(max(sizes))  # Hopcroft: all fragments but the largest
                    stack.extend((1 - side, f) for i, (f, _) in enumerate(frags) if i != big)
                cells.extend(f for f, _ in frags)
            part[1 - side] = cells
        return work, trace

    def individualize(part, v, ref=None):
        """A copy of part with node v split off in front of its cell, refined."""
        nodes, bit = part[0][:], 1 << v
        i = next(i for i, c in enumerate(nodes) if c & bit)
        nodes[i:i + 1] = [bit, nodes[i] ^ bit]
        part = [nodes, part[1]]
        return part, *refine(part, [(0, bit)], ref)

    def target(part):
        """The index of the largest node cell, the first of equal ones; None at a leaf."""
        sizes = [c.bit_count() for c in part[0]]
        return sizes.index(max(sizes)) if max(sizes) > 1 else None

    def leaf_search(part, level, z):
        """Puts node z in place of the first path's node at level; returns
        whether a leaf below gave a verified automorphism."""
        part, work, trace = individualize(part, z, traces[level])
        yield work
        if trace != traces[level]:
            return False
        c = target(part)
        if c is None:
            perm = [part[0][p].bit_length() - 1 for p in first_leaf]
            if not _is_automorphism(holders, perm):
                return False
            for v, w in enumerate(perm):
                a, b = _root(orbit, v), _root(orbit, w)
                orbit[max(a, b)] = min(a, b)
            return True
        for y in _bits(part[0][c]):
            if (yield from leaf_search(part, level + 1, y)):
                return True
        return False

    part = [[(1 << n) - 1], [(1 << len(holders)) - 1]]
    try:
        yield refine(part, [(0, part[0][0]), (1, part[1][0])])[0]
        parts, traces = [], []
        while (c := target(part)) is not None:
            parts.append(part)
            part, work, trace = individualize(part, _bits(part[0][c])[0])
            traces.append(trace)
            yield work
        path[:0] = [_bits(p[0][target(p)])[0] for p in parts]  # whole: the search reads ahead
        first_leaf = sorted(range(n), key=part[0].__getitem__)  # each node's position
        for level in reversed(range(len(parts))):
            x, *others = _bits(parts[level][0][target(parts[level])])
            chain[level + 1] = [_root(orbit, v) for v in range(n)]  # all fixing path[:level + 1]
            settled = [x]  # x and the nodes whose leaf search failed
            for z in others:
                if all(_root(orbit, z) != _root(orbit, s) for s in settled):
                    if not (yield from leaf_search(parts[level], level, z)):
                        settled.append(z)
    finally:
        leaf_search = None  # it refers to itself: break the cycle, also on close()


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


def reference_maximum_matching(neighbors: Sequence[Sequence[Hashable]]) -> list:
    """Reference matcher: the recursive Kuhn search over adjacency lists that
    frepkit.matching ran before its bitmask rewrite, kept verbatim.  Returns
    match[i] = right partner of left vertex i, or None if unmatched."""
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


def reference_hall_witness(neighbors: Sequence[Sequence[Hashable]],
                           match_left: Sequence) -> tuple[list[int], list]:
    """Reference Hall witness over adjacency lists, kept verbatim from the
    same matcher: the left vertices reachable by alternating paths from the
    first unmatched one, and their joint right neighbourhood."""
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


def oracle_maximum_matching(masks: Sequence[int], match: Sequence | None = None) -> list:
    """Exact-output oracle: the recursive bitmask matcher that
    frepkit.matching ran before its search became iterative, kept verbatim.
    It is not an independent check of correctness, which the Kuhn reference
    and networkx give; it pins the very plans the iterative search must keep.
    Its augment recurses once per path step, so a long path needs a raised
    recursion limit."""
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


def oracle_hall_witness(masks: Sequence[int], match: Sequence) -> tuple[list[int], list[int]]:
    """Exact-output oracle: the bitmask Hall witness kept verbatim from the
    same matcher, for deficient maximum matchings."""
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


def reference_repair_transfers(code: FrCode, failed: int, dead=()) -> tuple | None:
    """Reference repair plan: the reference Kuhn matching over each lost
    symbol's surviving holders, an unmatched symbol falling back to its
    smallest donor, as plan_repair did before the bitmask rewrite; None
    when some lost symbol has no surviving holder."""
    unavailable = {failed, *dead}
    lost = code.node_sets[failed - 1]
    candidates = [[i for i in code.nodes_of_symbol[j - 1] if i not in unavailable]
                  for j in lost]
    if not all(candidates):
        return None
    matched = reference_maximum_matching(candidates)
    return tuple(zip(lost, (m if m is not None else min(c)
                            for m, c in zip(matched, candidates))))


def brute_repair_d_beta(donor_lists) -> tuple[int, int]:
    """Reference repair optimum: over every choice of one donor per lost
    symbol, the largest number of distinct donors d and, separately, the
    least largest per-donor load beta."""
    best_d, best_beta = 0, len(donor_lists) + 1
    for choice in product(*donor_lists):
        loads = Counter(choice)
        best_d = max(best_d, len(loads))
        best_beta = min(best_beta, max(loads.values()))
    return best_d, best_beta


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


def reference_read_node(system, i: int) -> dict[int, int] | None:
    """Reference node-file reader: split the bytes into lines, parse every
    line, then compare the SHA-256 with the manifest; the reader dress used
    before its hash-first fast path, kept verbatim."""
    path = system.node_path(i)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    rows = []
    for line_no, line in enumerate(data.splitlines(), start=1):
        try:
            a, b = map(int, line.split())
        except ValueError:
            raise CorruptionError(
                f"{path}:{line_no}: expected two integers, got {line!r}") from None
        rows.append((a, b))
    if not rows:
        raise CorruptionError(f"{path}: empty node file")
    (node_id, _alpha), *rows = rows
    if node_id != i:
        raise CorruptionError(f"{path} claims node id {node_id}")
    expected, actual = system.checksums[path.name], hashlib.sha256(data).hexdigest()
    if actual != expected:
        raise CorruptionError(f"{path} checksum mismatch: manifest {expected}, file {actual}")
    return dict(rows)


def td_axioms_hold(d: TransversalDesign) -> bool:
    """Reference transversal design definition, by plain counting: at least
    two groups of one size partition the points, every block meets every
    group in exactly one point, and each pair of points from different
    groups is counted in exactly one block."""
    groups = [list(g) for g in d.groups]
    listed = Counter(p for g in groups for p in g)
    if len(groups) < 2 or listed != Counter(range(1, d.points + 1)):
        return False
    if len({len(g) for g in groups}) != 1:
        return False
    if any(sum(p in g for p in b) != 1 for b in d.blocks for g in groups):
        return False
    pairs = Counter(frozenset(pair) for b in d.blocks for pair in combinations(b, 2))
    return all(pairs[frozenset((p, q))] == 1
               for g1, g2 in combinations(groups, 2) for p in g1 for q in g2)


def to_networkx(g: Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(1, g.v + 1))
    G.add_edges_from(g.edges)
    return G


def nx_code(graph: nx.Graph) -> FrCode:
    """The rho = 2 code of a regular networkx graph on nodes 0..v-1."""
    return from_graph(Graph(v=graph.number_of_nodes(),
                            edges=sorted((u + 1, w + 1) for u, w in graph.edges)))


class SearchReached(Exception):
    """Raised by the no_search fixture when an exact search starts."""


@pytest.fixture
def no_search(monkeypatch):
    """Make every exact search (analyze._Profile.search, behind file_size,
    capacity_profile and batch_t_detail) raise SearchReached, so a test
    shows that a refusal comes before any search."""

    def search(self, k, cap=None):
        raise SearchReached(f"a search for k = {k} started")

    monkeypatch.setattr(analyze._Profile, "search", search)


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
