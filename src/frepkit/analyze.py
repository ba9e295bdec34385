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
recursion, the one search kernel, which answers file_size (and through it
max_induced_edges and has_k_clique), capacity_profile and, on the dual
code, the batch parameter.  Set-up (the greedy incumbent and the counting,
tail, colouring and girth floors) is not charged: what it settles runs at
any budget.

Symmetry rule for M(k): at depth d, once it has picked the first d nodes
of discovery's first path, the search skips a child i when automorphisms,
each checked against the incidence and each fixing those d nodes, map a
smaller node to i; at d = 0 that is any automorphism.  Below each child i
it opens there, it skips every node v > i that they map to a node below i.
Either way the lex-least set of least union is kept, as its image would be
a smaller set of the same union.  Discovery verifies and records these
orbits itself, deepest path level first, and skips a leaf search when a
node of the same proven orbit has already failed one at that level; inside
a leaf search, it skips a child that automorphisms fixing the nodes
individualized so far map onto a failed child, as that child's subtree is
a copy of the failed one.  It runs only when the greedy incumbent misses
the floor: first unpaced until its first path is known, before the search
opens a node, then paid by the search as it goes.  Before each child of a
path node it may do one unit of work per _NODES_PER_DISCOVERY_UNIT nodes
opened, before each depth-0 branch one per three times that, and the child
is tested against the orbits recorded by then.  It is not charged to the
budget and depends only on (code, k), so a refusal does too.

Profile rule: capacity_profile finds M(1..k_max) in one pass, k ascending,
and bounds each row's search by the exact rows below it.  Its searches
share one greedy pass and one discovery, paid by the nodes the profile has
opened so far.  A refusal depends only on (code, k_max, budget).  The
profile neither reads nor writes the per-code memo; only file_size, a
search of its own with no rows below it, uses that.
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


def _turan(k: int, c: int) -> int:
    """Turan's number T(k, c): the most edges of a c-partite graph on k
    vertices, reached with the parts as equal as they can be."""
    q, r = divmod(k, c)
    return (k * k - (c - r) * q * q - r * (q + 1) ** 2) // 2


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
    """Closed-form file size of the (n, r)-Turan code: k*alpha - T(k, r), T
    Turan's number, since k vertices of the complete r-partite graph induce
    at most T(k, r) edges and equal parts of n/r vertices reach it."""
    if not 2 <= _integer(r, "r") <= _integer(n, "n"):
        raise ParameterError(f"need 2 <= r <= n, got r={r}, n={n}")
    if n % r != 0:
        raise ParameterError(f"part count {r} does not divide {n}")
    if _integer(k, "k") < 1:
        raise ParameterError(f"k must be positive, got {k}")
    alpha = (r - 1) * n // r
    return k * alpha - _turan(k, r)


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
    """Length of the shortest cycle, or math.inf for forests: the girth of
    the node graph of g's edge code, which is g."""
    return _girth(_edge_code(g))


def _girth(code: FrCode, cap: int | float = math.inf) -> int | float:
    """The girth of the code's node graph, where two nodes are adjacent when
    they share a symbol, or cap if that is smaller; math.inf for a forest.

    A symbol on three nodes makes a triangle.  Otherwise a breadth-first
    search from each root, one bitmask level at a time among the root and
    the nodes after it, stops at the first level d holding two adjacent
    nodes (a closed walk through the root, so a cycle, of length at most
    2d + 1) or reaching a node twice (2d + 2).  From the least node of a
    shortest cycle it finds that cycle's length, so the least over roots is
    exact; a level with 2d + 1 >= the best so far is not searched.
    """
    holders = code.holder_masks
    if any(h.bit_count() > 2 for h in holders):
        return min(3, cap)
    adj = [0] * code.n
    for h in holders:
        for i in _bits(h):
            adj[i] |= h ^ (1 << i)
    best = cap
    for root in range(code.n):
        level, d = 1 << root, 0
        unseen = -(level << 1)  # the nodes after the root
        while level and 2 * d + 1 < best:
            reached = twice = 0
            for v in _bits(level):
                if adj[v] & level:
                    best = 2 * d + 1
                    break
                new = adj[v] & unseen
                twice |= reached & new
                reached |= new
            if twice:
                best = min(best, 2 * d + 2)
            unseen, level, d = unseen ^ reached, reached, d + 1
    return best


def has_k_clique(g: Graph, k: int) -> bool:
    """Exact clique decision, Lemma 2 read off Lemma 1: k vertices induce at
    most C(k, 2) edges, with equality only for a clique, so g has a k-clique
    exactly when max_induced_edges(g, k) is C(k, 2).  It refuses as that
    search does at DEFAULT_BUDGET.
    """
    return _integer(k, "k") <= g.v and max_induced_edges(g, k) == k * (k - 1) // 2


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


def _greedy_unions(masks: tuple[int, ...], floors: list[int]) -> list[int]:
    """Entry k - 1: the smallest union size, over all start nodes, of k nodes
    picked greedily from the start, each the first of the remaining nodes
    that adds the fewest symbols.  The picks for k are a prefix of those for
    k + 1, so one run per start serves every k up to len(floors).  No start
    goes below floors, lower bounds on M(1), M(2), ...: it stops after one meets all."""
    best = [math.inf] * len(floors)
    for start in range(len(masks)):
        rest = list(masks)
        union = rest.pop(start)
        sizes = [union.bit_count()]
        for _ in range(len(floors) - 1):
            grown = [(union | m).bit_count() for m in rest]
            least = min(grown)
            union |= rest.pop(grown.index(least))
            sizes.append(least)
        best = list(map(min, best, sizes))
        if best == floors:
            break
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
        self.a_min = min(map(int.bit_count, masks))
        self.s_max = code.max_pairwise_intersection
        self.r_max = max(1, *map(int.bit_count, code.holder_masks))
        classes: list[int] = []  # first-fit colouring in node order: each class's union
        for m in masks:  # a node joins the first class it shares no symbol with
            for i, c in enumerate(classes):
                if not c & m:
                    classes[i] = c | m
                    break
            else:
                classes.append(m)
        self.colours = len(classes)
        self.girth = _girth(code, k_max + 1)
        self.greedy = _greedy_unions(masks, [self.floor(k) for k in range(1, k_max + 1)])
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

    def floor(self, k: int) -> int:
        """The set-up floors on M(k): counting, tail, colouring and girth (see search)."""
        a_min, s_max, g = self.a_min, self.s_max, self.girth
        induced = k - 1 if k < g else k if k <= g + _ceil_div(g, 2) - 2 else k * (k - 1) // 2
        meet = min(_turan(k, self.colours), induced)  # pairs of the k nodes that share a symbol
        return max(_ceil_div(k * a_min, min(self.r_max, k)),
                   sum(max(0, a_min - s_max * j) for j in range(k)), k * a_min - s_max * meet)

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
        chain[d] does not join to a smaller node, and the whole subtree of
        each child i it opens skips every node v > i that chain[d] joins to a
        node below i (below_path gives v a mask of as many symbols as the
        first incumbent, so no union holding it passes the limit; suffix
        keeps the true masks, a looser bound).  chain[d] may be recorded
        while the children are tried, and then acts on those after it; one
        not yet recorded skips nothing.  Lemma: the automorphisms behind
        chain[d] fix path[:d] (see _discover_orbits).  Let T* be the
        lex-least set of least union, with prefix path[:d] and next pick i,
        and say a product g of them maps a node u of T*, u = i or u > i, to
        r < i.  g fixes path[:d], so r is not in it, nor in T*, whose nodes
        below i are path[:d].  Then g(T*) has the same union, holds every
        node of T* below i, and r: it is lexicographically smaller, which
        contradicts the choice of T*.  So T* is never skipped, under any
        subgroup, the trivial one included.

        The floor is the largest of M(k - 1), cap - 1 under a cap, and three
        set-up floors.  Counting: a symbol lies in at most min(r_max, k) of
        the k sets.  Tail: the j-th set added, j from 0, overlaps the union
        so far in at most j * s_max symbols.  Colouring: |A_1 | ... | A_k| >=
        sum |A_i| - sum_{i<j} |A_i & A_j| (Bonferroni); nodes of one first-fit
        colour class share no symbol, nodes of two share at most s_max, and
        by Turan's theorem at most T(k, c) of the pairs have two colours, so
        M(k) >= k * a_min - s_max * T(k, c).  On TD(rho, alpha) the classes
        are the rho groups, and this is td_file_size_lower_bound.  Girth: the
        pairs that share a symbol are the edges the k nodes induce in the
        node graph, whose girth is g or more (g is capped at k_max + 1).  For
        k < g they induce a forest, at most k - 1 edges.  k + 1 edges on k
        nodes make two cycles that share at most one node, 2g - 1 nodes or
        more, or a theta: three paths joining two nodes, any two of which
        form a cycle, so 3g/2 edges and ceil(3g/2) - 1 nodes or more.  So for
        k <= g + ceil(g/2) - 2 at most k pairs meet, and M(k) >= k * a_min -
        s_max * min(T(k, c), that count).

        A node with union U of u symbols, first free node s and r >= 2 nodes
        still to pick is not opened when u + M(r) - |U & suffix[s]| >= best:
        each completion adds the union N of r nodes from s on, with N inside
        suffix[s] and |N| >= M(r), so |U | N| >= u + M(r) - |U & suffix[s]|.
        """
        below = self.rows
        if below and len(below) != k - 1:
            raise ParameterError(f"search({k}) needs rows M(1..{k - 1}), not {len(below)} rows")
        masks, n = self.code.symbol_masks, self.code.n
        tail = [0] * (k + 1)  # tail[c]: the least that sets c..k - 1 add to the first c
        for c in range(k - 1, -1, -1):
            tail[c] = tail[c + 1] + max(0, self.a_min - self.s_max * c)
        floor = max([self.floor(k), *below[-1:]])  # M is monotone in k
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
            # a skipped node's mask: as many symbols as the first incumbent, so
            # no union with it passes the limit, under a cap too
            banned = (1 << best) - 1

            def descend(children: Iterable[int], depth: int, union: int, usize: int,
                        on: int, masks: list[int]) -> bool:
                """Returns True once the floor is reached and search can stop.
                on is path[depth] once the node has picked path[:depth], else -1;
                masks holds the banned mask at each node this subtree skips."""
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
                    if on < 0:
                        if descend(range(i + 1, stop), depth + 1, nu, ns, -1, masks):
                            return True
                    elif below_path(i, depth, nu, ns, masks):
                        return True
                    limit = best - tail[depth + 1]
                return False

            # bans[d]: the masks below the node that has picked path[:d], the
            # roots they follow, whether those are final, the (root, node)
            # pairs of the other nodes by root, and how many are banned so far
            bans: dict[int, list] = {}

            def below_path(i: int, depth: int, union: int, usize: int, masks: list[int]) -> bool:
                """Opens the child i of the node that has picked path[:depth]: its
                subtree skips each node v > i that chain[depth] joins to a node
                below i, and if i extends the path, chain[depth + 1] filters
                its children.  That node is opened once, so each depth keeps
                one list and bans in it as i rises: a banned v <= i is never
                read below i.  The list is built again only when chain[depth]
                is new, or was read from chain[0] while discovery could still
                merge it."""
                roots = chain.get(depth)
                if roots is not None:
                    ban = bans.get(depth)
                    if ban is None or ban[1] is not roots or not ban[2]:
                        low = sorted((r, v) for v in range(n) if (r := _root(roots, v)) != v)
                        final = depth > 0 or self._spent == math.inf
                        ban = bans[depth] = [list(masks), roots, final, low, 0]
                    masks, _, _, low, done = ban
                    while done < len(low) and low[done][0] < i:
                        masks[low[done][1]] = banned
                        done += 1
                    ban[4] = done
                stop = n - k + depth + 2
                if i == path[depth]:
                    kids = (c for c in range(i + 1, stop) if live(c, depth + 1))
                    return descend(kids, depth + 1, union, usize, path[depth + 1], masks)
                return descend(range(i + 1, stop), depth + 1, union, usize, -1, masks)

            def live(c: int, depth: int) -> bool:
                """Paces discovery, 3x slower at depth 0, then tells whether the
                child c is a root of chain[depth], if that is recorded by now."""
                rate = _NODES_PER_DISCOVERY_UNIT * (3 if depth == 0 else 1)
                while self._spent * rate < opened + nodes:
                    self._spent += next(self._units, math.inf)
                roots = chain.get(depth)
                return roots is None or roots[c] == c

            while path[0] < 0 and self._spent < math.inf:  # the first path, unpaced
                self._spent += next(self._units, math.inf)
            nodes = -1  # the root is not a search node
            try:
                descend((j for j in range(n - k + 1) if live(j, 0)), 0, 0, 0, path[0],
                        list(masks))
            finally:
                descend = None  # it refers to itself: free the code without the cyclic collector
        self.opened += nodes
        if cap is None or found is None:
            self.rows.append(best)
        return found


# ---------------------------------------------------------------------------
# Verified symmetry for the file-size search

# Search nodes that pay for one unit of discovery work before a child of a
# path node, once discovery has found its first path unpaced before the first
# node; a depth-0 branch pays three times as many, since only level-0 orbits
# help there (on TD(5,7) one failed level-0 leaf search costs 16,896 of the
# 24,240 units).  A unit (a splitter, count slice or cell fragment of a
# refinement) takes about two nodes' time.  0 runs discovery to its end once
# the search has opened a node.
_NODES_PER_DISCOVERY_UNIT = 1


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


def _join(orbit: list[int], perm: list[int]) -> None:
    """Joins each node's class in the union-find orbit with its image's under
    perm; the root of a class stays its smallest node."""
    for v, w in enumerate(perm):
        a, b = _root(orbit, v), _root(orbit, w)
        orbit[max(a, b)] = min(a, b)


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

    Inside a leaf search, once the search below a child y has failed, a
    later child y' is skipped when the verified automorphisms that fix every
    node individualized so far (x_0..x_{L-1}, z and the children above y')
    join y' to a failed child in a union-find of their own.  Lemma: a
    product g of them fixes those nodes and maps y' to a failed y, and
    refinement commutes with automorphisms, so g maps the subtree under y'
    onto the subtree under y, leaf for leaf and with the same traces.  If a
    leaf under y' gave an automorphism p, its image under y would give g p,
    an automorphism too, which the failed search would have verified.  So
    the skipped search would fail as well: a success is never skipped, the
    same automorphisms are verified in the same order, and the path, chain
    and orbits do not change.  A leaf search verifies nothing until it
    returns True, so the automorphisms stay the same through a node's loop.
    A leaf's permutation is verified and joined before its unit is yielded,
    so the search reads an orbit as soon as it has paid for the leaf.
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

    def leaf_search(part, level, z, fixing):
        """Puts node z in place of the first path's node at level; returns
        whether a leaf below gave a verified automorphism.  fixing holds the
        verified automorphisms that fix the nodes individualized before z."""
        part, work, trace = individualize(part, z, traces[level])
        c = target(part) if trace == traces[level] else -1  # -1: a trace differs
        perm = [part[0][p].bit_length() - 1 for p in first_leaf] if c is None else None
        found = perm is not None and _is_automorphism(holders, perm)
        if found:
            verified.append(perm)
            _join(orbit, perm)
        yield work  # after the join: a unit paid for has its orbits recorded
        if c is None or c < 0:
            return found
        fixing = [g for g in fixing if g[z] == z]
        failed: list[int] = []  # the roots of the children whose search failed
        for y in _bits(part[0][c]):
            if failed and _root(roots, y) in failed:
                continue
            if (yield from leaf_search(part, level + 1, y, fixing)):
                return True
            if not failed:  # their orbits, once: nothing is verified before a True
                roots = list(range(n))
                for g in fixing:
                    _join(roots, g)
            failed.append(_root(roots, y))
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
        verified: list[list[int]] = []  # the automorphisms, in the order verified
        for level in reversed(range(len(parts))):
            x, *others = _bits(parts[level][0][target(parts[level])])
            chain[level + 1] = [_root(orbit, v) for v in range(n)]  # all fixing path[:level + 1]
            settled = [x]  # x and the nodes whose leaf search failed
            for z in others:
                if all(_root(orbit, z) != _root(orbit, s) for s in settled):
                    # by the lemma, every automorphism verified so far fixes path[:level]
                    if not (yield from leaf_search(parts[level], level, z, verified)):
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

    Defaults to k_max = min(alpha, n), the full reconstruction range: no
    k-set of nodes exists beyond n, and alpha can exceed n.  The verdicts
    need that whole range; with a smaller k_max they come back None rather
    than guessed.
    """
    full = min(code.alpha, code.n)
    k_max = full if k_max is None else k_max
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
    if k_max >= full:
        recon = rows[:full]
        universally_good = all(r.exact >= r.mbr for r in recon)
        optimal = all(r.k_optimal for r in recon)
    else:
        universally_good = None
        optimal = None
    return CapacityProfile(n=code.n, theta=code.theta, alpha=code.alpha,
                           rho=code.rho, rows=tuple(rows),
                           universally_good=universally_good, optimal=optimal)
