"""Incidence-structure data model for fractional repetition codes.

An FR code is an ordered collection of n symbol subsets (one per storage
node) over a universe of theta symbols, with uniform node degree alpha and
uniform symbol repetition rho.  Codes are derived from regular graphs
(giving rho = 2) or from point/block designs (giving rho = block size), and
round-trip through a plain-text interchange format.

Each invariant is checked once, where the data enters, and nothing that
other checks imply is checked: FrCode refuses a node set that is not a set,
and check_axioms() checks the TD axioms that imply the rest.  The two
counting proofs are in the FrCode and check_axioms docstrings.

Conventions: symbols and nodes are 1-based in every external artifact and
in the public data types; bit positions inside masks are 0-based.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import combinations
from operator import or_
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .errors import FormatError, ParameterError, _decimal, _Frozen, _integer

__all__ = [
    "Graph",
    "FrCode",
    "Design",
    "TransversalDesign",
    "CodeReport",
    "validate",
    "from_graph",
    "from_design",
    "save",
    "load",
]


class Graph(_Frozen):
    """Simple undirected graph on vertices 1..v.

    Edges are stored canonically: each as (u, w) with u < w, sorted
    lexicographically.  This order also fixes the symbol numbering of any
    FR code derived from the graph.
    """

    _fields = ("v", "edges")
    v: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, v: int, edges: Iterable[Sequence[int]]):
        if _integer(v, "vertex count") < 1:
            raise ParameterError(f"vertex count must be positive, got {v}")
        canonical = []
        for edge in edges:
            u, w = edge
            for x in (u, w):
                if type(x) is not int:  # only then build _integer's message
                    _integer(x, "edge endpoint")
            if u == w:
                raise ParameterError(f"self-loop at vertex {u}")
            if u > w:
                u, w = w, u
            if not (1 <= u and w <= v):
                raise ParameterError(f"edge ({u}, {w}) out of range 1..{v}")
            canonical.append((u, w))
        ordered = tuple(sorted(canonical))
        for a, b in zip(ordered, ordered[1:]):
            if a == b:
                raise ParameterError(f"duplicate edge {a}")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "edges", ordered)

    @property
    def e(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * (self.v + 1)
        for u, w in self.edges:
            deg[u] += 1
            deg[w] += 1
        return deg[1:]


class FrCode(_Frozen):
    """An (n, alpha, rho) FR code over theta symbols.

    Each node set is a set of symbols in 1..theta; anything else is
    refused here.  Whether every node holds alpha symbols and every symbol
    rho nodes is left to validate(), so that a code with non-uniform
    weights can be loaded and reported on.  With no repeats, sum |S_i| over
    nodes and sum |holders(j)| over symbols both count the (node, symbol)
    incidences, so uniform rows and columns give n*alpha = theta*rho.
    Derived tables are computed once per instance, which is sound because
    an FrCode cannot change.
    """

    _fields = ("n", "theta", "alpha", "rho", "node_sets")
    n: int
    theta: int
    alpha: int
    rho: int
    node_sets: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, theta: int, alpha: int, rho: int,
                 node_sets: Iterable[Iterable[int]]):
        for name, value in (("n", n), ("theta", theta), ("alpha", alpha), ("rho", rho)):
            if _integer(value, name) < 1:
                raise ParameterError(f"{name} must be a positive integer, got {value}")
        sets = tuple(map(tuple, node_sets))
        if len(sets) != n:
            raise ParameterError(f"expected {n} node sets, got {len(sets)}")
        for i, s in enumerate(sets, start=1):
            for j in s:
                if type(j) is not int:  # only then build _integer's message
                    _integer(j, f"node {i} symbol")
                if not 1 <= j <= theta:
                    raise ParameterError(
                        f"node {i} references symbol {j}, outside 1..{theta}")
            if len(set(s)) < len(s):
                repeated = next(j for j in s if s.count(j) > 1)
                raise ParameterError(f"node {i} repeats symbol {repeated}")
        sets = tuple(tuple(sorted(s)) for s in sets)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "node_sets", sets)

    @cached_property
    def symbol_masks(self) -> tuple[int, ...]:
        """Per-node bitmask of stored symbols; bit j-1 stands for symbol j."""
        return tuple(reduce(or_, (1 << (j - 1) for j in s), 0) for s in self.node_sets)

    @cached_property
    def nodes_of_symbol(self) -> tuple[tuple[int, ...], ...]:
        """For each symbol j (index j-1), the ascending node ids storing it."""
        holders: list[list[int]] = [[] for _ in range(self.theta)]
        for i, s in enumerate(self.node_sets, start=1):
            for j in s:
                holders[j - 1].append(i)
        return tuple(tuple(h) for h in holders)

    @cached_property
    def holder_masks(self) -> tuple[int, ...]:
        """Per-symbol bitmask of the nodes storing it, symbol j at index j-1;
        bit i-1 stands for node i."""
        masks = [0] * self.theta
        for i, s in enumerate(self.node_sets):
            for j in s:
                masks[j - 1] |= 1 << i
        return tuple(masks)

    @cached_property
    def _file_sizes(self) -> dict[int, tuple[int, int]]:
        """(M(k), search nodes opened) by k, filled in by analyze.file_size.
        The symmetry pruning it counts depends only on (code, k), so a memo
        hit refuses exactly where a fresh search would."""
        return {}

    @cached_property
    def max_pairwise_intersection(self) -> int:
        masks = self.symbol_masks
        best = 0
        for i in range(self.n):
            for j in range(i + 1, self.n):
                size = (masks[i] & masks[j]).bit_count()
                if size > best:
                    best = size
        return best


class Design(_Frozen):
    """A plain point/block incidence structure, points labeled 1..points."""

    _fields = ("points", "blocks")
    points: int
    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, points: int, blocks: Iterable[Iterable[int]]):
        if _integer(points, "point count") < 1:
            raise ParameterError(f"point count must be positive, got {points}")
        blks = tuple(map(tuple, blocks))
        for b in blks:
            for p in b:
                if type(p) is not int:  # only then build _integer's message
                    _integer(p, "block point")
                if not 1 <= p <= points:
                    raise ParameterError(f"block point {p} out of range 1..{points}")
            if len(set(b)) != len(b):
                raise ParameterError(f"block {tuple(sorted(b))} repeats a point")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "blocks", tuple(tuple(sorted(b)) for b in blks))


class TransversalDesign(Design):
    """A transversal design: ell groups of h points, blocks of size ell.

    Every block meets each group exactly once and every cross-group point
    pair lies in exactly one block.  check_axioms() names the first axiom
    the structure violates, or returns None.
    """

    _fields = ("points", "blocks", "groups")
    groups: tuple[tuple[int, ...], ...]

    def __init__(self, points: int, blocks: Iterable[Iterable[int]],
                 groups: Iterable[Iterable[int]]):
        Design.__init__(self, points, blocks)
        object.__setattr__(self, "groups", tuple(tuple(sorted(g)) for g in groups))

    @property
    def ell(self) -> int:
        return len(self.groups)

    @property
    def h(self) -> int:
        return len(self.groups[0]) if self.groups else 0

    def check_axioms(self) -> str | None:
        """Checked: ell >= 2, the groups partition the points into classes
        of h, there are h^2 blocks, each meets each group once, and the
        blocks cover h^2*C(ell, 2) distinct pairs.  The rest follows by
        counting: each block covers C(ell, 2) cross-group pairs, so that many
        distinct pairs means no pair twice, and it is all h^2*C(ell, 2)
        cross-group pairs, so each lies in exactly one block.  Then for a
        point p and another group G, the blocks through p meet G once each,
        one for each point of G: p lies in exactly h blocks.
        """
        ell, h = self.ell, self.h
        if ell < 2:
            return f"group count must be at least 2, got {ell}"
        covered = sorted(p for g in self.groups for p in g)
        if covered != list(range(1, self.points + 1)) or any(len(g) != h for g in self.groups):
            return "groups must partition the points into equal-size classes"
        if len(self.blocks) != h * h:
            return f"block count {len(self.blocks)} is not h^2 = {h * h}"
        group_of = {p: gi for gi, g in enumerate(self.groups) for p in g}
        for b in self.blocks:
            if sorted(group_of[p] for p in b) != list(range(ell)):
                return "some block does not meet each group in exactly one point"
        if len({pair for b in self.blocks for pair in combinations(b, 2)}) != (
                h * h * ell * (ell - 1) // 2):
            return "some cross-group point pair is not contained in exactly one block"
        return None


class CodeReport(NamedTuple):
    """Per-invariant validation result for an FrCode.  FrCode refuses a
    repeated symbol, so uniform rows and columns also give n*alpha =
    theta*rho (see FrCode) and are all there is to check."""

    rows_uniform: bool
    columns_uniform: bool

    @property
    def valid(self) -> bool:
        return self.rows_uniform and self.columns_uniform


def validate(code: FrCode) -> CodeReport:
    """Check every FrCode invariant; a failing code yields a failing report."""
    return CodeReport(
        rows_uniform=all(len(s) == code.alpha for s in code.node_sets),
        columns_uniform=all(len(h) == code.rho for h in code.nodes_of_symbol),
    )


def from_graph(g: Graph) -> FrCode:
    """Derive the rho=2 code whose incidence matrix is the graph's.

    Vertex i becomes node i; the j-th edge in lexicographic order becomes
    symbol j, stored on its two endpoints.
    """
    degrees = g.degrees()
    alpha = degrees[0] if degrees else 0
    for i, d in enumerate(degrees, start=1):
        if d != alpha:
            raise ParameterError(
                f"graph is not regular: vertex 1 has degree {alpha}, "
                f"vertex {i} has degree {d}")
    if alpha < 1:
        raise ParameterError("graph has no edges, cannot derive a code")
    return _edge_code(g)


def _edge_code(g: Graph) -> FrCode:
    """The edge code of any graph: vertex i becomes node i and stores symbol
    j for each of its edges, the j-th in lexicographic order, and then as
    many symbols of its own as fill it to the largest degree d (at least 1).
    Any k nodes S store k*d - e(S) symbols; for a regular graph with edges
    this is from_graph(g)."""
    node_sets: list[list[int]] = [[] for _ in range(g.v)]
    for j, (u, w) in enumerate(g.edges, start=1):
        node_sets[u - 1].append(j)
        node_sets[w - 1].append(j)
    d = max(1, *map(len, node_sets))
    theta = g.e
    for s in node_sets:
        own = range(theta + 1, theta + 1 + d - len(s))
        s.extend(own)
        theta += len(own)
    return FrCode(n=g.v, theta=theta, alpha=d, rho=2, node_sets=node_sets)


def from_design(d: Design) -> FrCode:
    """Derive the code whose incidence matrix is the design's.

    Point i becomes node i; block j (in construction order) becomes symbol
    j.  Transversal designs are checked against their axioms first; a
    plain design only needs uniform point degree and block size.
    """
    if isinstance(d, TransversalDesign):
        violated = d.check_axioms()
        if violated is not None:
            raise ParameterError(f"invalid transversal design: {violated}")
    if not d.blocks:
        raise ParameterError("design has no blocks, cannot derive a code")
    rho = len(d.blocks[0])
    if any(len(b) != rho for b in d.blocks):
        raise ParameterError("blocks have non-uniform size")
    node_sets: list[list[int]] = [[] for _ in range(d.points)]
    for j, b in enumerate(d.blocks, start=1):
        for p in b:
            node_sets[p - 1].append(j)
    alpha = len(node_sets[0])
    if any(len(s) != alpha for s in node_sets):
        raise ParameterError("points have non-uniform block degree")
    return FrCode(n=d.points, theta=len(d.blocks), alpha=alpha, rho=rho,
                  node_sets=node_sets)


# ---------------------------------------------------------------------------
# Interchange format (.frc code files)

def save(code: FrCode, path) -> None:
    """Write the .frc text form: header plus one ascending symbol line per node."""
    lines = [f"FRC {code.n} {code.theta} {code.alpha} {code.rho}"]
    lines.extend(" ".join(str(j) for j in s) for s in code.node_sets)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")


def _int_fields(path, line_no: int, text: str, what: str) -> list[int]:
    fields = text.split()
    values = []
    for f in fields:
        try:
            values.append(_decimal(f))
        except ValueError:
            raise FormatError(path, line_no, f"{what}: {f!r} is not an integer") from None
    return values


def load(path) -> FrCode:
    """Parse a .frc file.  Structural problems raise FormatError with the
    line number; semantic problems (wrong weights) are left to validate()."""
    raw = Path(path).read_text(encoding="ascii", errors="replace").split("\n")
    for line_no, line in enumerate(raw, start=1):
        if "\ufffd" in line:  # the decoder's stand-in for a non-ASCII byte
            raise FormatError(path, line_no, "bytes outside ASCII")
    if raw and raw[-1] == "":
        raw.pop()
    if not raw:
        raise FormatError(path, 1, "empty file")
    header = raw[0].split()
    if len(header) != 5 or header[0] != "FRC":
        raise FormatError(path, 1, "header must be 'FRC n theta alpha rho'")
    n, theta, alpha, rho = _int_fields(path, 1, raw[0].removeprefix("FRC"), "header")
    if min(n, theta, alpha, rho) < 1:
        raise FormatError(path, 1, "header parameters must be positive")
    if len(raw) - 1 != n:
        raise FormatError(path, len(raw), f"expected {n} node lines, found {len(raw) - 1}")
    node_sets = []
    for line_no, line in enumerate(raw[1:], start=2):
        symbols = _int_fields(path, line_no, line, "node line")
        for i, j in enumerate(symbols):
            if not 1 <= j <= theta:
                raise FormatError(path, line_no, f"symbol index {j} out of range 1..{theta}")
            if i and j <= symbols[i - 1]:
                raise FormatError(path, line_no,
                                  f"symbol indices must ascend: {j} follows {symbols[i - 1]}")
        node_sets.append(symbols)
    return FrCode(n=n, theta=theta, alpha=alpha, rho=rho, node_sets=node_sets)
