"""Generators for the combinatorial families behind the optimal codes.

Turan graphs and the cage catalog feed the rho = 2 constructions;
transversal designs (built from the classical slope/intercept family of
mutually orthogonal Latin squares over a finite field) and projective
planes feed rho > 2.  Generalized 4-, 6- and 8-gons are not generated
here; codes built on them can be supplied as .frc files and analyzed
generically.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import analyze
from .errors import FrepkitError, ParameterError
from .galois import GF, _integer
from .incidence import Design, Graph, TransversalDesign

__all__ = [
    "turan",
    "cage",
    "cage_catalog",
    "CageInfo",
    "transversal_design",
    "projective_plane",
]


def turan(n: int, r: int) -> Graph:
    """The (n, r)-Turan graph: complete r-partite with parts of size n/r.

    Regular of degree (r-1)n/r and free of (r+1)-cliques.
    """
    if not 2 <= _integer(r, "part count") <= _integer(n, "vertex count"):
        raise ParameterError(f"need 2 <= r <= n, got r={r}, n={n}")
    if n % r != 0:
        raise ParameterError(f"part count {r} does not divide vertex count {n}")
    size = n // r
    part = [(v - 1) // size for v in range(1, n + 1)]
    edges = [(u, w)
             for u in range(1, n + 1)
             for w in range(u + 1, n + 1)
             if part[u - 1] != part[w - 1]]
    return Graph(v=n, edges=edges)


@dataclass(frozen=True)
class CageInfo:
    """Catalog entry for a (degree, girth)-cage."""

    name: str
    degree: int
    girth: int
    vertices: int


def _lcf(n: int, shifts: list[int], reps: int) -> list[tuple[int, int]]:
    """Expand LCF notation: a Hamiltonian n-cycle plus one chord per vertex."""
    if len(shifts) * reps != n:
        raise ParameterError(f"LCF shifts {shifts}^{reps} do not cover {n} vertices")
    edges = {(u, u % n + 1) for u in range(1, n + 1)}
    for i in range(n):
        j = (i + shifts[i % len(shifts)]) % n
        u, w = i + 1, j + 1
        edges.add((min(u, w), max(u, w)))
    return sorted(edges)


# Petersen is not Hamiltonian, so it gets explicit adjacency data.
_PETERSEN_EDGES = [
    (1, 2), (2, 3), (3, 4), (4, 5), (1, 5),      # outer cycle
    (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),     # spokes
    (6, 8), (8, 10), (7, 10), (7, 9), (6, 9),    # inner pentagram
]

_CATALOG: dict[str, tuple[CageInfo, list[tuple[int, int]]]] = {
    "petersen": (CageInfo("Petersen", 3, 5, 10), _PETERSEN_EDGES),
    "heawood": (CageInfo("Heawood", 3, 6, 14), _lcf(14, [5, -5], 7)),
    "mcgee": (CageInfo("McGee", 3, 7, 24), _lcf(24, [12, 7, -7], 8)),
    "tuttecoxeter": (CageInfo("TutteCoxeter", 3, 8, 30),
                     _lcf(30, [-13, -9, 7, -7, 9, 13], 5)),
}


def _canonical_cage_name(name: str) -> str:
    return name.lower().replace("-", "").replace("_", "").replace(" ", "")


def cage_catalog() -> tuple[CageInfo, ...]:
    return tuple(info for info, _ in _CATALOG.values())


def cage(name: str) -> Graph:
    """Return a catalog cage by name (Petersen, Heawood, McGee, TutteCoxeter)."""
    key = _canonical_cage_name(name)
    if key not in _CATALOG:
        known = ", ".join(info.name for info, _ in _CATALOG.values())
        raise ParameterError(f"unknown cage {name!r}; catalog holds: {known}")
    info, edges = _CATALOG[key]
    g = Graph(v=info.vertices, edges=edges)
    if any(d != info.degree for d in g.degrees()):
        raise FrepkitError(f"{info.name}: degree data corrupt")
    if analyze.girth(g) != info.girth:
        raise FrepkitError(f"{info.name}: girth data corrupt")
    return g


def transversal_design(ell: int, h: int) -> TransversalDesign:
    """Build TD(ell, h) for a prime power h and 2 <= ell <= h + 1.

    Points are (group, field element) pairs numbered group-major; block
    (a, b) collects the point with value a*c_i + b from group i, where
    the c_i are the first ell field elements in integer order.  For
    ell = h + 1 the extra group holds the slope a itself.  Blocks are
    emitted intercept-major, so for ell <= h the blocks of a fixed slope a
    form a parallel class (positions a+1, a+1+h, ..., stepping by h).
    """
    if _integer(ell, "group count") < 2:
        raise ParameterError(f"group count must be at least 2, got {ell}")
    field = GF(h)  # rejects h that is not a supported prime power
    if ell > h + 1:
        raise ParameterError(f"group count {ell} exceeds h + 1 = {h + 1}")
    base_groups = min(ell, h)
    blocks = []
    for b in range(h):
        for a in range(h):
            block = [i * h + field.add(field.mul(a, i), b) + 1
                     for i in range(base_groups)]
            if ell == h + 1:
                block.append(h * h + a + 1)
            blocks.append(block)
    groups = [tuple(range(i * h + 1, (i + 1) * h + 1)) for i in range(ell)]
    design = TransversalDesign(points=ell * h, blocks=blocks, groups=groups)
    violated = design.check_axioms()
    if violated is not None:
        raise FrepkitError(f"TD({ell}, {h}) construction broke axiom: {violated}")
    return design


def projective_plane(q: int) -> Design:
    """The projective plane of order q (a generalized 3-gon), q a prime power.

    Points and lines are the 1-dimensional subspaces of GF(q)^3, each
    represented by its unique scaling with leading coordinate 1; point
    (x, y, z) lies on line [a, b, c] when ax + by + cz = 0.  The derived
    code has n = theta = q^2 + q + 1 and alpha = rho = q + 1.
    """
    field = GF(q)
    reps = ([(1, y, z) for y in range(q) for z in range(q)]
            + [(0, 1, z) for z in range(q)]
            + [(0, 0, 1)])
    blocks = []
    for line in reps:
        on_line = []
        for idx, point in enumerate(reps, start=1):
            dot = 0
            for a, x in zip(line, point):
                dot = field.add(dot, field.mul(a, x))
            if dot == 0:
                on_line.append(idx)
        blocks.append(on_line)
    return Design(points=len(reps), blocks=blocks)
