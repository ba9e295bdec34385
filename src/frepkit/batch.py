"""Batch-retrieval analysis: one-symbol-per-node plans and the exact batch
parameter t.

A batch of symbols is retrievable when the symbol/node incidence admits a
system of distinct representatives; t is the largest size at which every
batch works, which by Hall's theorem is one less than the smallest
deficient symbol set.  Dually, t is the size of a smallest deficient node
set T: one whose interior, the symbols stored only on T, has more than |T|
symbols.

Connectivity lemma: a smallest deficient node set is connected in the graph
where two nodes are adjacent when they share a symbol.  Proof: split T into
the components of "shares an interior symbol".  Every interior symbol lies
in exactly one component, so the interiors and the node counts both add
up over the components, and some component is deficient.  T is smallest,
so that component is T itself.

Counting bound: let lambda be the most symbols two nodes share, rho_min the
fewest holders of a symbol and alpha_max the largest node.  An interior
symbol of an s-set has at least rho_min holders in it, so it takes at least
C(rho_min, 2) of the set's C(s, 2) node pairs, each pair carrying at most
lambda symbols; and it takes rho_min of the set's at most s*alpha_max
holder slots.  So the interior has at most min(lambda*C(s,2)/C(rho_min,2),
s*alpha_max/rho_min) symbols (the first term only when rho_min >= 2), and
an s-set whose bound is <= s cannot be deficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analyze import _budget, file_size
from .errors import BudgetExceededError, FrbDefinitionError, ParameterError
from .galois import GF, _integer
from .incidence import FrCode, validate
from .matching import hall_witness, maximum_matching

__all__ = [
    "BatchPlan",
    "NoPlan",
    "retrieval_plan",
    "batch_t",
    "batch_t_detail",
    "BatchTResult",
    "frb_certify",
    "FrbCertificate",
    "FRB_PROPERTIES",
    "theorem5_predicted_t",
]


@dataclass(frozen=True)
class BatchPlan:
    """An injective symbol -> node assignment covering the whole request."""

    symbols: tuple[int, ...]
    assignment: tuple[tuple[int, int], ...]  # (symbol, node) pairs, symbol-ascending

    def to_text(self) -> str:
        return "\n".join(f"{j} -> node {i}" for j, i in self.assignment) + "\n"


@dataclass(frozen=True)
class NoPlan:
    """Proof that the request is not retrievable one-symbol-per-node.

    The witness symbols jointly touch fewer nodes than their count, so no
    assignment can be injective on nodes.
    """

    symbols: tuple[int, ...]
    witness: tuple[int, ...]
    neighborhood: tuple[int, ...]


def retrieval_plan(code: FrCode, symbols) -> BatchPlan | NoPlan:
    """Plan a parallel retrieval of the requested symbols, or explain why none exists."""
    request = tuple(sorted(symbols))
    if len(set(request)) != len(request):
        raise ParameterError("requested symbols must be distinct")
    for j in request:
        if not 1 <= j <= code.theta:
            raise ParameterError(f"symbol {j} out of range 1..{code.theta}")
    holders = code.nodes_of_symbol
    neighbors = [holders[j - 1] for j in request]
    match = maximum_matching(neighbors)
    if all(node is not None for node in match):
        return BatchPlan(symbols=request,
                         assignment=tuple(zip(request, match)))
    witness_idx, neighborhood = hall_witness(neighbors, match)
    return NoPlan(symbols=request,
                  witness=tuple(request[i] for i in witness_idx),
                  neighborhood=tuple(neighborhood))


@dataclass(frozen=True)
class BatchTResult:
    t: int
    # smallest Hall-violating symbol set (size t + 1) and its node
    # neighborhood, absent when t = theta and no violation exists
    witness: tuple[int, ...] | None
    witness_nodes: tuple[int, ...] | None


def batch_t_detail(code: FrCode, budget: int | None = None) -> BatchTResult:
    """Exact maximum t with a maximality witness.

    t is the size of a smallest deficient node set T, one whose interior
    (the symbols stored only on T) outnumbers it; any |T| + 1 interior
    symbols violate Hall.  With no deficiency anywhere, t = theta.

    Connectivity: call two nodes adjacent when they share a symbol.  A
    smallest deficient T is connected, because the components of T under
    "shares an interior symbol" split both T and its interior, so one
    component is deficient too.  The search therefore visits connected
    node sets only, each once, rooted at its smallest node.

    Counting bound: an interior symbol has at least rho_min holders in T,
    which use at least C(rho_min, 2) of T's node pairs, and a pair shares
    at most lambda = max_pairwise_intersection symbols.  So the interior of
    an s-set is at most lambda*C(s,2)/C(rho_min,2), and (counting holder
    slots) at most s*alpha_max/rho_min.  Only sizes where both exceed s can
    be deficient; for a projective plane none can, and t = theta unsearched.

    The search refuses (never approximates) once it has tried more than
    `budget` frontier candidates; the counting bound is not charged, so a
    projective plane runs at any budget.
    """
    budget = _budget(budget)
    holders = code.nodes_of_symbol
    min_rho = min((len(h) for h in holders), default=0)
    if min_rho == 0:
        unstored = next(j for j, h in enumerate(holders, start=1) if not h)
        return BatchTResult(t=0, witness=(unstored,), witness_nodes=())
    high = min(code.n, code.theta - 1)
    found = _smallest_deficient(code, _smallest_open_size(code, min_rho, high), high, budget)
    if found is not None:
        chosen, size = found
        interior = [j for j, mask in enumerate(code.holder_masks, start=1)
                    if not mask & ~chosen]
        return BatchTResult(t=size, witness=tuple(interior[: size + 1]),
                            witness_nodes=tuple(i + 1 for i in range(code.n) if chosen >> i & 1))
    return BatchTResult(t=code.theta, witness=None, witness_nodes=None)


def _smallest_open_size(code: FrCode, min_rho: int, high: int) -> int:
    """Smallest size in [min_rho, high] the counting bound leaves open, else
    high + 1.

    Both bounds outgrow s once they exceed it, so the open sizes run from
    here up.  Taking floors is sound: an interior is a whole number.
    The pair bound needs rho_min >= 2 (a symbol on one node uses no pair).
    """
    lam = code.max_pairwise_intersection
    alpha_max = max(mask.bit_count() for mask in code.symbol_masks)
    pairs = math.comb(min_rho, 2)
    for s in range(min_rho, high + 1):
        if s * alpha_max // min_rho > s and (
                min_rho < 2 or lam * math.comb(s, 2) // pairs > s):
            return s
    return high + 1


def _smallest_deficient(code: FrCode, smallest: int, limit: int,
                        budget: int) -> tuple[int, int] | None:
    """Node mask and size of a smallest deficient set of size in
    [smallest, limit], or None.

    One depth-first pass over the connected node sets, each rooted at its
    smallest node and grown by include/exclude on its frontier: a frame
    holds the frontier still to try (cand), the nodes its subtree may not
    take (forb), the interior count, and how large its set can still grow
    (reach).  Adding node v adds to the interior those of v's symbols whose
    holder masks now lie inside the set, an O(alpha) step.  A deficient
    set of size s lowers the limit to s - 1 and is not grown; a frame that
    cannot reach `smallest` is cut.  Each frontier candidate tried is one
    search node of the budget.
    """
    n = code.n
    node_symbols: list[list[int]] = [[] for _ in range(n)]
    adjacency = [0] * n
    for mask, holders in zip(code.holder_masks, code.nodes_of_symbol):
        for i in holders:
            node_symbols[i - 1].append(mask)
            adjacency[i - 1] |= mask
    best = None
    nodes = 0
    cand, forb, interior, reach, added = ([0] * (limit + 1) for _ in range(5))
    for root in range(n - smallest + 1):
        if limit < smallest:
            break
        chosen = 1 << root
        depth = 0
        cand[0] = adjacency[root] & ~((chosen << 1) - 1)
        forb[0] = (chosen << 1) - 1
        interior[0] = node_symbols[root].count(chosen)
        reach[0] = n - root
        added[0] = chosen
        if interior[0] > 1:
            return chosen, 1
        while depth >= 0:
            c = cand[depth]
            if not c or depth + 1 >= limit or reach[depth] < smallest:
                chosen ^= added[depth]
                depth -= 1
                continue
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(
                    f"deficiency search over connected sets of {n} nodes", budget)
            low = c & -c
            cand[depth] = c ^ low
            f = forb[depth]
            forb[depth] = f | low
            r = reach[depth]
            reach[depth] = r - 1
            chosen |= low
            outside = ~chosen
            v = low.bit_length() - 1
            gained = interior[depth]
            for mask in node_symbols[v]:
                if not mask & outside:
                    gained += 1
            size = depth + 2
            if gained > size:
                best = chosen, size
                limit = size - 1
                chosen ^= low
            elif size < limit:
                depth += 1
                cand[depth] = (c ^ low) | (adjacency[v] & ~(chosen | f))
                forb[depth] = f
                interior[depth] = gained
                reach[depth] = r
                added[depth] = low
            else:
                chosen ^= low
    return best


def batch_t(code: FrCode, budget: int | None = None) -> int:
    """Largest t such that every t-subset of symbols has a retrieval plan."""
    return batch_t_detail(code, budget=budget).t


@dataclass(frozen=True)
class FrbCertificate:
    """The rho-(n, M, k, alpha, t) parameter tuple with per-property checks."""

    rho: int
    n: int
    file_size: int
    k: int
    alpha: int
    t: int
    properties: tuple[bool, bool, bool, bool]
    witness: tuple[int, ...] | None

    @property
    def tuple_str(self) -> str:
        return (f"{self.rho}-({self.n}, {self.file_size}, {self.k}, "
                f"{self.alpha}, {self.t})")

    @property
    def all_properties_hold(self) -> bool:
        return all(self.properties)

    def to_json_dict(self) -> dict:
        """JSON-ready block; joins the capacity report under an "frb" key."""
        return {
            "tuple": self.tuple_str,
            "rho": self.rho, "n": self.n, "M": self.file_size,
            "k": self.k, "alpha": self.alpha, "t": self.t,
            "properties": {key: ok for (_, key), ok in zip(FRB_PROPERTIES, self.properties)},
            "witness": list(self.witness) if self.witness is not None else None,
        }


# (text label, JSON key) of FRB properties 1-4, in the order frb_certify checks them
FRB_PROPERTIES = (
    ("node degree uniform", "node_degree_uniform"),
    ("symbol replication uniform", "symbol_replication_uniform"),
    ("file size is the exact k-union minimum", "file_size_is_exact_minimum"),
    ("every t-batch retrievable", "every_t_batch_retrievable"),
)


def frb_certify(code: FrCode, k: int, budget: int | None = None) -> FrbCertificate:
    """Assemble and check the FRB parameters of a code at reconstruction degree k.

    Property 1: every node stores alpha symbols; property 2: every symbol
    sits on rho nodes; property 3: M is the exact minimum k-union (true by
    construction here); property 4: every t-batch is retrievable (true by
    construction of t).  A computed t exceeding M breaks the definition and
    is raised, never clipped.

    k may exceed alpha: the girth-based family is certified on the full
    validity range of its file-size formula, which runs past alpha.
    """
    if not 1 <= _integer(k, "k") <= code.n:
        raise ParameterError(f"need 1 <= k <= n = {code.n}, got k={k}")
    report = validate(code)
    m_size = file_size(code, k, budget=budget)
    detail = batch_t_detail(code, budget=budget)
    if detail.t > m_size:
        raise FrbDefinitionError(
            f"computed t = {detail.t} exceeds file size M = {m_size} at k = {k}; "
            f"the FRB definition requires t <= M")
    properties = (report.rows_uniform, report.columns_uniform, True, True)
    return FrbCertificate(rho=code.rho, n=code.n, file_size=m_size, k=k,
                          alpha=code.alpha, t=detail.t,
                          properties=properties, witness=detail.witness)


def theorem5_predicted_t(family: str, **params) -> int:
    """Guaranteed batch parameter for the three constructive families.

    complete_bipartite(alpha > 2) -> 5; girth(g) -> 2g - floor(g/2) - 1;
    resolvable_td(alpha a prime power) -> alpha^2 - alpha - 1.
    """
    def param(name: str) -> int:
        if name not in params:
            raise ParameterError(f"family {family!r} needs the parameter {name!r}")
        return params[name]

    if family == "complete_bipartite":
        alpha = param("alpha")
        if alpha <= 2:
            raise ParameterError(f"complete bipartite family needs alpha > 2, got {alpha}")
        return 5
    if family == "girth":
        g = param("g")
        if g < 3:
            raise ParameterError(f"girth must be at least 3, got {g}")
        return 2 * g - g // 2 - 1
    if family == "resolvable_td":
        alpha = param("alpha")
        GF(alpha)  # raises unless alpha is a supported prime power
        return alpha * alpha - alpha - 1
    raise ParameterError(f"unknown family {family!r}")
