"""Exact capacity computation, closed-form bounds, and optimality verdicts.

Exhaustive enumeration is the single source of truth for the file size
M(k); every closed form is a cross-check against it, never a substitute.
The enumerator is a branch-and-bound over the same subset space as a plain
scan; it prunes branches whose best reachable union already matches the
incumbent, and branches that a proven automorphism covers.

Budget rule: each exact request is one _Profile, whose min-union searches
share its budget (DEFAULT_BUDGET unless given) and refuse with
BudgetExceededError as soon as they have together opened more search nodes
than it, counted in their fixed order.  A node is one call of the min-union
recursion, the one search kernel, which answers file_size,
capacity_profile, max_induced_edges, has_k_clique and, on the dual code,
the batch parameter.  The polynomial set-up (greedy incumbent, floors) is
not charged, so a code that set-up settles runs at any budget.

Symmetry rule for M(k): at depth d, once it has picked the first d nodes
of discovery's first path, the search skips a child i when automorphisms,
each checked against the incidence and each fixing those d nodes, map a
smaller node to i; at d = 0 that is any automorphism.  Discovery verifies
and records these orbits itself, deepest path level first, and skips a
leaf search when a node of the same proven orbit has already failed one at
that level; it runs only when the greedy incumbent misses the floor, and
the search pays for it: between depth-0 branches it may do one unit of
work per _NODES_PER_DISCOVERY_UNIT nodes opened.  It is not charged to the
budget and depends only on (code, k), so a refusal does too.

Profile rule: capacity_profile finds M(1..k_max) in one pass, k ascending,
and bounds each row's search by the exact rows below it.  Its searches
share one greedy pass and one discovery, paid by the nodes the profile has
opened so far.  A refusal depends only on (code, k_max, budget).  The
profile neither reads nor writes the per-code memo; only file_size, a
search of its own with no rows below it, uses that.

Clique rule: k vertices S store k*d - e(S) symbols in a graph's edge code,
d the largest degree, so S is a clique exactly when that is below
k*d - C(k, 2) + 1, the cap of has_k_clique's one search.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import or_
from types import MappingProxyType
from typing import Iterable, NamedTuple, Sequence

from .errors import BudgetExceededError, ParameterError, _integer
from .incidence import FrCode, Graph, _edge_code

__all__ = [
    "DEFAULT_BUDGET",
    "EXACT_CAGE_SIZES",
    "mbr_capacity",
    "fr_capacity_bound",
    "turan_file_size",
    "td_file_size_lower_bound",
    "girth_file_size",
    "moore_bound",
    "cage_size",
    "lemma7_flag",
    "girth",
    "has_k_clique",
    "max_induced_edges",
    "file_size",
    "capacity_profile",
    "CapacityRow",
    "CapacityProfile",
]

DEFAULT_BUDGET = 10**7  # search nodes, about 1-2 us each in CPython

# Known minimal vertex counts of (3, g)-cages; everything else falls back
# to the Moore lower bound, which then only certifies "possibly loose".
EXACT_CAGE_SIZES = MappingProxyType({(3, 5): 10, (3, 6): 14, (3, 7): 24, (3, 8): 30})


def _budget(budget: int | None) -> int:
    """The budget in search nodes: DEFAULT_BUDGET when None."""
    if budget is None:
        return DEFAULT_BUDGET
    if _integer(budget, "budget") < 0:
        raise ParameterError(f"budget must be non-negative, got {budget}")
    return budget


# ---------------------------------------------------------------------------
# Closed forms

def mbr_capacity(k: int, alpha: int) -> int:
    """Largest file a minimum-bandwidth regenerating code can store: k*alpha - C(k,2)."""
    if _integer(k, "k") < 1:
        raise ParameterError(f"k must be positive, got {k}")
    return k * _integer(alpha, "alpha") - k * (k - 1) // 2


def _ceil_div(num: int, den: int) -> int:
    return -((-num) // den)


def fr_capacity_bound(n: int, k: int, alpha: int, rho: int) -> int:
    """The recursive capacity bound phi(k).

    phi(1) = alpha and phi(k+1) = phi(k) + alpha - ceil((rho*phi(k) - k*alpha)/(n - k)).
    """
    _integer(rho, "rho")
    if _integer(k, "k") < 1:
        raise ParameterError(f"k must be positive, got {k}")
    if k >= _integer(n, "n"):
        raise ParameterError(f"the recursion needs k < n, got k={k}, n={n}")
    phi = _integer(alpha, "alpha")
    for i in range(1, k):
        phi = phi + alpha - _ceil_div(rho * phi - i * alpha, n - i)
    return phi


def turan_file_size(n: int, r: int, k: int) -> int:
    """Closed-form file size of the (n, r)-Turan code: k*alpha - floor((r-1)k^2 / 2r)."""
    if not 2 <= _integer(r, "r") <= _integer(n, "n"):
        raise ParameterError(f"need 2 <= r <= n, got r={r}, n={n}")
    if n % r != 0:
        raise ParameterError(f"part count {r} does not divide {n}")
    if _integer(k, "k") < 1:
        raise ParameterError(f"k must be positive, got {k}")
    alpha = (r - 1) * n // r
    return k * alpha - (r - 1) * k * k // (2 * r)


def td_file_size_lower_bound(alpha: int, rho: int, k: int) -> int:
    """Transversal-design lower bound k*alpha - C(k,2) + rho*C(b,2) + b*t, k = b*rho + t."""
    if _integer(k, "k") < 1 or _integer(rho, "rho") < 1:
        raise ParameterError("k and rho must be positive")
    b, t = divmod(k, rho)
    return (k * _integer(alpha, "alpha") - k * (k - 1) // 2
            + rho * (b * (b - 1) // 2) + b * t)


def girth_file_size(alpha: int, g: int, k: int) -> int:
    """File size of a code on an alpha-regular graph of girth g.

    Equals k*alpha - k + 1 for k <= g - 1 and k*alpha - k for
    g <= k <= g + ceil(g/2) - 2; outside that range no formula applies.
    """
    _integer(alpha, "alpha")
    if _integer(k, "k") < 1:
        raise ParameterError(f"k must be positive, got {k}")
    if k <= _integer(g, "g") - 1:
        return k * alpha - k + 1
    if k <= g + _ceil_div(g, 2) - 2:
        return k * alpha - k
    raise ParameterError(
        f"formula not applicable: k={k} exceeds g + ceil(g/2) - 2 = "
        f"{g + _ceil_div(g, 2) - 2}")


def moore_bound(d: int, g: int) -> int:
    """Moore lower bound n0(d, g) on the order of a d-regular graph of girth g."""
    if _integer(d, "d") < 2 or _integer(g, "g") < 3:
        raise ParameterError(f"need d >= 2 and g >= 3, got d={d}, g={g}")
    if g % 2 == 1:
        return 1 + d * sum((d - 1) ** i for i in range((g - 3) // 2 + 1))
    return 2 * sum((d - 1) ** i for i in range((g - 2) // 2 + 1))


def cage_size(d: int, g: int) -> tuple[int, bool]:
    """Minimal order of a (d, g)-cage: (value, exact).

    Exact where the catalog knows the cage; otherwise the Moore bound
    serves as a conservative lower proxy and exact is False.
    """
    if (_integer(d, "d"), _integer(g, "g")) in EXACT_CAGE_SIZES:
        return EXACT_CAGE_SIZES[(d, g)], True
    return moore_bound(d, g), False


def lemma7_flag(n: int, alpha: int, k: int) -> bool:
    """True when alpha*k - alpha - k + 3 <= n < N(alpha, k+1), the window in
    which the recursive bound is known not to be tight for rho = 2.

    When only the Moore proxy for N(alpha, k+1) is available the flag means
    "possibly not tight"; cage_size() reports which case applies.
    """
    _integer(n, "n")
    _integer(alpha, "alpha")
    if _integer(k, "k") < 2:
        return False  # phi(1) = alpha is always exact
    if alpha < 2:
        return False  # no cages of degree 1; the window presumes them
    size, _ = cage_size(alpha, k + 1)
    return alpha * k - alpha - k + 3 <= n < size


# ---------------------------------------------------------------------------
# Graph analyses

def girth(g: Graph) -> int | float:
    """Length of the shortest cycle, or math.inf for forests.

    Runs a breadth-first search from every vertex; the minimum over all
    roots of the shortest cycle seen during a search is exact.
    """
    adj = [[] for _ in range(g.v + 1)]
    for u, w in g.edges:
        adj[u].append(w)
        adj[w].append(u)
    best: int | float = math.inf
    for root in range(1, g.v + 1):
        dist = {root: 0}
        parent = {root: 0}
        queue = [root]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            if 2 * dist[u] >= best:
                break
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    cycle = dist[u] + dist[w] + 1
                    if cycle < best:
                        best = cycle
    return best


def has_k_clique(g: Graph, k: int) -> bool:
    """Exact clique decision: one capped min-union search on the edge code.

    Lemma: with d the largest degree, k vertices S store k*d - e(S) symbols
    there, and e(S) <= C(k, 2) with equality only for a clique, so S is a
    clique exactly when its union is below the cap k*d - C(k, 2) + 1.  It
    refuses once it opens more than DEFAULT_BUDGET search nodes.
    """
    if _integer(k, "k") < 1:
        raise ParameterError(f"k must be positive, got {k}")
    if k > g.v:
        return False
    code = _edge_code(g)
    profile = _Profile(code, 1, DEFAULT_BUDGET,
                       f"clique search over {k}-subsets of {g.v} vertices")
    return profile.search(k, cap=k * code.alpha - k * (k - 1) // 2 + 1) is not None


def max_induced_edges(g: Graph, k: int, budget: int | None = None) -> int:
    """Maximum edge count over all induced k-vertex subgraphs, exactly.

    Lemma 1 for any graph: in the edge code, where each vertex stores its
    edges and then symbols of its own up to the largest degree d, any k
    vertices S store k*d - e(S) symbols, so the answer is k*d - M(k).  This
    is file_size on that code: the budget counts its search nodes, and a
    refusal is its BudgetExceededError ("file-size search over k-subsets of
    n nodes").
    """
    code = _edge_code(g)
    m_size = file_size(code, k, budget)
    return k * code.alpha - m_size


# ---------------------------------------------------------------------------
# Exact file size

def file_size(code: FrCode, k: int, budget: int | None = None) -> int:
    """Exact file size: min over all C(n, k) node subsets of the union size.

    Refuses (never approximates) when the branch-and-bound opens more than
    `budget` search nodes; a code whose greedy incumbent meets the floor
    opens none.  The code's memo keeps M(k) with the node count of its
    search, so a memo hit refuses exactly where a fresh search would.
    """
    if not 1 <= _integer(k, "k") <= code.n:
        raise ParameterError(f"need 1 <= k <= {code.n}, got k={k}")
    budget = _budget(budget)
    memo = code._file_sizes
    if k not in memo:
        profile = _Profile(code, k, budget, _file_size_what(code, k))
        profile.search(k)
        memo[k] = profile.rows[0], profile.opened
    m_size, nodes = memo[k]
    if nodes > budget:
        raise BudgetExceededError(_file_size_what(code, k), budget)
    return m_size


def _file_size_what(code: FrCode, k: int) -> str:
    return f"file-size search over {k}-subsets of {code.n} nodes"


def _greedy_unions(masks: tuple[int, ...], k_max: int) -> list[int]:
    """Entry k - 1: the smallest union size, over all start nodes, of k nodes
    picked greedily from the start, each the first of the remaining nodes
    that adds the fewest symbols.  The picks for k are a prefix of those for
    k + 1, so one run per start serves every k up to k_max."""
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


class _Profile:
    """One exact request and its min-union searches, run for k = 1, 2, ...
    in turn or for one k alone.  They share one budget, the greedy
    incumbents (up to k_max; a capped search reads none), the rows found so
    far, the suffix unions, and the proven orbits with the discovery that
    extends them."""

    def __init__(self, code: FrCode, k_max: int, budget: int, what: str):
        masks = code.symbol_masks
        self.code, self.budget, self.what = code, budget, what  # what names the request
        self.greedy = _greedy_unions(masks, k_max)
        self.rows: list[int] = []  # M(1), M(2), ... so far, or lower bounds on them
        # suffix[s]: the union of masks[s:]
        self.suffix = list(accumulate(reversed(masks), or_, initial=0))[::-1]
        # path: discovery's first path once known, then -1; chain[d]: each node's root
        # in orbits proven under a subgroup of the pointwise stabilizer of path[:d],
        # once recorded; chain[0] is the union-find orbit, roots the smallest nodes
        self.path, self.chain = [-1], {0: list(range(code.n))}
        self._units = _discover_orbits(masks, code.holder_masks, self.path, self.chain)
        # discovery first pays for its incidence graph (vertices and edges)
        self._spent = code.n + code.theta + sum(map(int.bit_count, masks))
        self.opened = 0  # search nodes of the finished searches

    def search(self, k: int, cap: int | None = None) -> int | None:
        """Appends M(k) to rows, adds the nodes opened to opened, and returns
        the union mask of the best k-set found, or None if none beat the
        incumbent; raises once the request's searches together pass the
        budget.  rows must hold lower bounds on M(1..k-1), or nothing.

        With a cap, it decides whether some k-set has a union below cap: cap
        is the incumbent, and the floor is raised to cap - 1, so the first
        such set ends the search.  With no such set, cap, a lower bound on
        M(k), is the row; a set found leaves no row, its union being only an
        upper bound.

        The node at depth d below an empty root picks a set's d-th smallest
        node.  Once it has picked path[:d], it opens only the children that
        chain[d] does not join to a smaller node.  Lemma: the automorphisms
        behind chain[d] fix path[:d] (see _discover_orbits).  If a product g
        of them maps i' < i to the child i, g^-1 maps each set that picks
        path[:d] and then i to a set of equal union holding path[:d] and i',
        d + 1 nodes below i: a lexicographically smaller set.  So the
        lex-least set of least union is never skipped, under any subgroup.

        A node with union U of u symbols, first free node s and r >= 2 nodes
        still to pick is not opened when u + M(r) - |U & suffix[s]| >= best:
        each completion adds the union N of r nodes from s on, with N inside
        suffix[s] and |N| >= M(r), so |U | N| >= u + M(r) - |U & suffix[s]|.
        """
        below = self.rows
        if below and len(below) != k - 1:
            raise ParameterError(f"search({k}) needs rows M(1..{k - 1}), not {len(below)} rows")
        code = self.code
        masks = code.symbol_masks
        n = code.n
        a_min = min(map(int.bit_count, masks))
        # every symbol appears in at most r_max of the chosen sets
        r_max = max(map(int.bit_count, code.holder_masks))
        s_max = code.max_pairwise_intersection
        # admissible bounds: the j-th set added overlaps the running union in at
        # most j*s_max symbols, and counting multiplicity caps the union from below
        floor = _ceil_div(k * a_min, min(max(r_max, 1), k))
        tail = [0] * (k + 1)
        for c in range(k - 1, -1, -1):
            tail[c] = tail[c + 1] + max(0, a_min - s_max * c)
        floor = max(floor, tail[0], *below[-1:])  # M is monotone in k
        if cap is None:
            best = self.greedy[k - 1]
        else:
            best, floor = cap, max(floor, cap - 1)
        nodes, found = 0, None
        if best > floor:
            opened, suffix, path, chain = self.opened, self.suffix, self.path, self.chain
            budget, what, total = self.budget - opened, self.what, self.budget
            # doll[d]: M(r), or a lower bound on it, for the r = k - d - 1 nodes
            # still to pick below a child at depth d + 1, when r >= 2 inside a
            # profile; 0 skips the test
            doll = [*below[:0:-1], 0, 0] if below else [0] * k

            def descend(children: Iterable[int], depth: int, union: int, usize: int,
                        on: int) -> bool:
                """Returns True once the floor is reached and search can stop.
                on is path[depth] once the node has picked path[:depth], else -1."""
                nonlocal best, nodes, found
                nodes += 1
                if nodes > budget:
                    raise BudgetExceededError(what, total)
                if depth == k:
                    if usize < best:
                        best, found = usize, union
                    return best <= floor
                limit = best - tail[depth + 1]
                rest = doll[depth]
                stop = n - k + depth + 2  # past the last node a child at depth + 1 may add
                for i in children:
                    nu = union | masks[i]
                    ns = nu.bit_count()
                    if ns >= limit or rest and ns + rest - (nu & suffix[i + 1]).bit_count() >= best:
                        continue
                    if i == on:  # i extends the path prefix: chain[depth + 1] filters its children
                        kids = range(i + 1, min(stop, n))
                        if roots := chain.get(depth + 1):
                            kids = [c for c in kids if roots[c] == c]
                        if descend(kids, depth + 1, nu, ns, path[depth + 1]):
                            return True
                    elif descend(range(i + 1, stop), depth + 1, nu, ns, -1):
                        return True
                    limit = best - tail[depth + 1]
                return False

            def live(j: int) -> bool:
                """Paces discovery, then tells whether branch j is a root of chain[0]."""
                while self._spent * _NODES_PER_DISCOVERY_UNIT < opened + nodes:
                    self._spent += next(self._units, math.inf)
                return chain[0][j] == j

            live(0)  # so the root reads path[0] as branch 0 would
            nodes = -1  # the root is not a search node
            try:
                descend((j for j in range(n - k + 1) if live(j)), 0, 0, 0, path[0])
            finally:
                descend = None  # it refers to itself: free the code without the cyclic collector
        self.opened += nodes
        if cap is None or found is None:
            self.rows.append(best)
        return found


# ---------------------------------------------------------------------------
# Verified symmetry for the file-size search

# Search nodes that pay for one unit of discovery work.  A unit (a splitter,
# count slice or cell fragment of a refinement) takes about two nodes' time.
_NODES_PER_DISCOVERY_UNIT = 3


def _bits(m: int) -> list[int]:
    """The positions of the set bits of m, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def _root(orbit: list[int], v: int) -> int:
    while orbit[v] != v:
        v = orbit[v]
    return v


def _is_automorphism(holders: Sequence[int], perm: list[int]) -> bool:
    """True when the node permutation perm maps the multiset of holder sets,
    one per symbol, onto itself: then some symbol permutation completes it
    to an automorphism of the incidence, and every union size is kept."""
    if sorted(perm) != list(range(len(perm))):
        return False
    images = [sum(1 << perm[i] for i in _bits(h)) for h in holders]
    return sorted(images) == sorted(holders)


def _discover_orbits(masks: tuple[int, ...], holders: Sequence[int], path: list[int],
                     chain: dict[int, list[int]]):
    """Individualization and refinement (McKay & Piperno, "Practical graph
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


# ---------------------------------------------------------------------------
# Capacity profiles

class CapacityRow(NamedTuple):
    k: int
    exact: int
    phi: int
    mbr: int
    rho2_cap: int | None          # k*alpha - k + 1, rho = 2 and k <= alpha only
    lemma7_cap: int | None        # phi - 1 when the non-tightness window applies
    lemma7_exact: bool            # cap backed by a known cage size, not the Moore proxy
    k_optimal: bool


class CapacityProfile(NamedTuple):
    n: int
    theta: int
    alpha: int
    rho: int
    rows: tuple[CapacityRow, ...]
    universally_good: bool | None
    optimal: bool | None

    def row(self, k: int) -> CapacityRow:
        return self.rows[k - 1]

    def cross_check(self) -> list[str]:
        """Violations of the universal relations between enumeration and the
        closed forms; any entry signals a disagreement with the theory."""
        problems = []
        prev = 0
        for r in self.rows:
            if r.exact < prev:
                problems.append(f"M({r.k}) = {r.exact} decreased below M({r.k - 1}) = {prev}")
            prev = r.exact
            if r.exact > r.phi:
                problems.append(f"M({r.k}) = {r.exact} exceeds phi({r.k}) = {r.phi}")
            if r.rho2_cap is not None and r.exact > r.rho2_cap:
                problems.append(
                    f"M({r.k}) = {r.exact} exceeds the rho=2 cap {r.rho2_cap}")
            if r.exact > self.theta:
                problems.append(f"M({r.k}) = {r.exact} exceeds theta = {self.theta}")
        return problems

    def to_text(self) -> str:
        lines = [f"FR code: n={self.n} theta={self.theta} alpha={self.alpha} rho={self.rho}",
                 f"{'k':>3} {'M':>5} {'phi':>5} {'mbr':>5} {'cap2':>5}  flags"]
        for r in self.rows:
            cap2 = str(r.rho2_cap) if r.rho2_cap is not None else "-"
            flags = []
            if r.k_optimal:
                flags.append("k-optimal")
            if r.lemma7_cap is not None:
                flags.append("phi-loose" if r.lemma7_exact else "phi-possibly-loose")
            lines.append(f"{r.k:>3} {r.exact:>5} {r.phi:>5} {r.mbr:>5} {cap2:>5}  "
                         + (",".join(flags) if flags else "-"))
        lines.append(f"universally_good={_verdict(self.universally_good)} "
                     f"optimal={_verdict(self.optimal)}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        import json  # here, so that a text report loads no json
        rows = []
        for r in self.rows:
            caps = {"rho2": r.rho2_cap, "lemma7": r.lemma7_cap}
            rows.append({"k": r.k, "M": r.exact, "phi": r.phi, "mbr": r.mbr,
                         "caps": caps, "k_optimal": r.k_optimal,
                         "phi_possibly_loose": r.lemma7_cap is not None})
        doc = {
            "schema": "frepkit-report/1",
            "code": {"n": self.n, "theta": self.theta,
                     "alpha": self.alpha, "rho": self.rho},
            "rows": rows,
            "verdicts": {"universally_good": self.universally_good,
                         "optimal": self.optimal},
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _verdict(value: bool | None) -> str:
    return {True: "yes", False: "no", None: "undetermined"}[value]


def capacity_profile(code: FrCode, k_max: int | None = None,
                     budget: int | None = None) -> CapacityProfile:
    """Exact file sizes and every applicable bound for k = 1..k_max.

    Defaults to k_max = alpha, the full reconstruction range.  The verdicts
    need the whole range k <= alpha; with a smaller k_max they come back
    None rather than guessed.
    """
    k_max = code.alpha if k_max is None else k_max
    if not 1 <= _integer(k_max, "k_max") <= code.n:
        raise ParameterError(f"need 1 <= k_max <= {code.n}, got {k_max}")
    profile = _Profile(code, k_max, _budget(budget),
                       f"capacity-profile search over k-subsets of {code.n} nodes, k <= {k_max}")
    for k in range(1, k_max + 1):
        profile.search(k)
    rows = []
    for k, exact in enumerate(profile.rows, start=1):
        phi = fr_capacity_bound(code.n, k, code.alpha, code.rho) if k < code.n else code.theta
        mbr = mbr_capacity(k, code.alpha)
        rho2_cap = k * code.alpha - k + 1 if code.rho == 2 and k <= code.alpha else None
        l7_cap = None
        l7_exact = False
        if code.rho == 2 and k < code.n:
            if lemma7_flag(code.n, code.alpha, k):
                l7_cap = phi - 1
                l7_exact = cage_size(code.alpha, k + 1)[1]
        upper = phi if rho2_cap is None else min(phi, rho2_cap)
        rows.append(CapacityRow(k=k, exact=exact, phi=phi, mbr=mbr,
                                rho2_cap=rho2_cap, lemma7_cap=l7_cap,
                                lemma7_exact=l7_exact, k_optimal=exact == upper))
    if k_max >= code.alpha:
        recon = rows[: code.alpha]
        universally_good = all(r.exact >= r.mbr for r in recon)
        optimal = all(r.k_optimal for r in recon)
    else:
        universally_good = None
        optimal = None
    return CapacityProfile(n=code.n, theta=code.theta, alpha=code.alpha,
                           rho=code.rho, rows=tuple(rows),
                           universally_good=universally_good, optimal=optimal)
