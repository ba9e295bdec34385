"""Batch-retrieval analysis: one-symbol-per-node plans and the exact batch
parameter t.

A batch of symbols is retrievable when the symbol/node incidence admits a
system of distinct representatives; t is the largest size at which every
batch works, which by Hall's theorem is one less than the size of a
smallest deficient symbol set, one stored on fewer nodes than it has
symbols.

Duality: in the dual code, where symbol j becomes a node storing the nodes
that hold j, the union of s dual nodes is the set of nodes holding those s
symbols.  So an s-set of symbols is deficient exactly when its dual union
has fewer than s elements, and t + 1 is the smallest s with M*(s) < s,
where M* is the file-size function of the dual code.  The min-union kernel
of `analyze` decides each size, with its floors, proven symmetry and budget.
"""

from __future__ import annotations

from typing import NamedTuple

from .analyze import _budget, _Profile, file_size
from .errors import FrbDefinitionError, ParameterError, _integer
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


class BatchPlan(NamedTuple):
    """An injective symbol -> node assignment covering the whole request."""

    symbols: tuple[int, ...]
    assignment: tuple[tuple[int, int], ...]  # (symbol, node) pairs, symbol-ascending

    def to_text(self) -> str:
        return "\n".join(f"{j} -> node {i}" for j, i in self.assignment) + "\n"


class NoPlan(NamedTuple):
    """Proof that the request is not retrievable one-symbol-per-node.

    The witness symbols jointly touch fewer nodes than their count, so no
    assignment can be injective on nodes.
    """

    symbols: tuple[int, ...]
    witness: tuple[int, ...]
    neighborhood: tuple[int, ...]


def retrieval_plan(code: FrCode, symbols) -> BatchPlan | NoPlan:
    """Plan a parallel retrieval of the requested symbols, or explain why none exists."""
    request = tuple(symbols)
    for j in request:
        if type(j) is not int:
            _integer(j, "symbol")
        if not 1 <= j <= code.theta:
            raise ParameterError(f"symbol {j} out of range 1..{code.theta}")
    request = tuple(sorted(request))
    if len(set(request)) != len(request):
        raise ParameterError("requested symbols must be distinct")
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


class BatchTResult(NamedTuple):
    t: int
    # smallest Hall-violating symbol set (size t + 1) and its node
    # neighborhood, absent when t = theta and no violation exists
    witness: tuple[int, ...] | None
    witness_nodes: tuple[int, ...] | None


def batch_t_detail(code: FrCode, budget: int | None = None) -> BatchTResult:
    """Exact maximum t with a maximality witness.

    For s = 1, 2, ... the min-union kernel on the dual code decides whether
    some s symbols are held by fewer than s nodes; t is s - 1 at the first
    such s, and theta if there is none.  Every (n + 1)-set is deficient, so
    t <= n.  The sizes share one profile: a size without a deficient set
    adds s, a lower bound on M*(s), to the rows that bound the next search.

    At the first hit the holders of the s symbols found are exactly t
    nodes: fewer would leave s - 1 of the symbols deficient too.  Any t + 1
    of their interior symbols (those stored only on them) violate Hall.

    The search refuses (never approximates) once the sizes together have
    opened more than `budget` search nodes; the floors are not charged, so
    a projective plane runs at any budget.
    """
    budget = _budget(budget)
    holders = code.nodes_of_symbol
    if not all(holders):
        unstored = next(j for j, h in enumerate(holders, start=1) if not h)
        return BatchTResult(t=0, witness=(unstored,), witness_nodes=())
    dual = FrCode(n=code.theta, theta=code.n, alpha=code.rho, rho=code.alpha,
                  node_sets=holders)
    profile = _Profile(dual, 1, budget, f"deficiency search over sets of {code.theta} symbols")
    for s in range(1, min(code.theta, code.n + 1) + 1):
        chosen = profile.search(s, cap=s)
        if chosen is not None:
            interior = [j for j, mask in enumerate(code.holder_masks, start=1)
                        if not mask & ~chosen]
            held = tuple(i + 1 for i in range(code.n) if chosen >> i & 1)
            return BatchTResult(t=s - 1, witness=tuple(interior[:s]), witness_nodes=held)
    return BatchTResult(t=code.theta, witness=None, witness_nodes=None)


def batch_t(code: FrCode, budget: int | None = None) -> int:
    """Largest t such that every t-subset of symbols has a retrieval plan."""
    return batch_t_detail(code, budget=budget).t


class FrbCertificate(NamedTuple):
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
    construction here); property 4: every t-batch is retrievable, checked
    on t's certificate: t = theta with no witness, or t < theta with a
    witness of t + 1 symbols for which retrieval_plan finds no plan.  A
    computed t exceeding M breaks the definition and is raised, never
    clipped.

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
    t, witness = detail.t, detail.witness
    t_certified = (witness is None if t == code.theta else
                   witness is not None and len(witness) == t + 1
                   and isinstance(retrieval_plan(code, witness), NoPlan))
    properties = (report.rows_uniform, report.columns_uniform, True, t_certified)
    return FrbCertificate(rho=code.rho, n=code.n, file_size=m_size, k=k,
                          alpha=code.alpha, t=t,
                          properties=properties, witness=witness)


def theorem5_predicted_t(family: str, **params) -> int:
    """Guaranteed batch parameter for the three constructive families.

    complete_bipartite(alpha > 2) -> 5; girth(g) -> 2g - floor(g/2) - 1;
    resolvable_td(alpha a prime power) -> alpha^2 - alpha - 1.
    """
    def param(name: str) -> int:
        if name not in params:
            raise ParameterError(f"family {family!r} needs the parameter {name!r}")
        return _integer(params[name], name)

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
        from .galois import GF
        alpha = param("alpha")
        GF(alpha)  # raises unless alpha is a supported prime power
        return alpha * alpha - alpha - 1
    raise ParameterError(f"unknown family {family!r}")
