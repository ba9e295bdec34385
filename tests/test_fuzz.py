"""Seeded randomized sweeps pitting each kernel against an independent route.

Inputs here are deliberately unstructured (including codes that fail
validation) so the branch-and-bound pruning, the deficiency-search dual,
and the matcher are exercised away from the tidy families the rest of the
suite uses.  Seeds are fixed; every run checks the same cases.
"""

import math
import random
from itertools import combinations

import networkx as nx
from conftest import (
    assert_valid_batch_witness,
    brute_batch_t_detail,
    brute_max_edges,
    brute_min_union,
    discovered,
    oracle_discover_orbits,
    oracle_greedy_unions,
    oracle_hall_witness,
    oracle_maximum_matching,
    profile_sizes,
    proven_orbits,
    reference_hall_witness,
    reference_maximum_matching,
)

from frepkit import (
    BudgetExceededError,
    FrCode,
    Graph,
    analyze,
    batch_t_detail,
    cage,
    capacity_profile,
    file_size,
    from_design,
    from_graph,
    girth,
    has_k_clique,
    max_induced_edges,
    projective_plane,
    transversal_design,
    turan,
)
from frepkit.batch import BatchPlan, retrieval_plan
from frepkit.incidence import _edge_code
from frepkit.matching import hall_witness, maximum_matching


def _random_graph(rng, n, p):
    G = nx.gnp_random_graph(n, p, seed=rng.randrange(10**9))
    return G, Graph(v=n, edges=[(u + 1, v + 1) for u, v in G.edges()])


def test_girth_matches_networkx_on_random_graphs():
    rng = random.Random(20240809)
    for trial in range(60):
        n = rng.randrange(3, 13)
        G, g = _random_graph(rng, n, rng.uniform(0.1, 0.6))
        if not g.edges:
            continue
        assert girth(g) == nx.girth(G)


def _random_forest(rng, n):
    """Each vertex after the first joins a random earlier one, or no one."""
    G = nx.empty_graph(n)
    G.add_edges_from((v, rng.randrange(v)) for v in range(1, n) if rng.random() < 0.8)
    return G, Graph(v=n, edges=[(u + 1, v + 1) for u, v in G.edges()])


def _node_graph(code):
    """The graph on the code's nodes joining two that share a symbol."""
    G = nx.empty_graph(code.n)
    G.add_edges_from((i, j) for i, j in combinations(range(code.n), 2)
                     if set(code.node_sets[i]) & set(code.node_sets[j]))
    return G


def test_capped_girth_matches_networkx_on_random_graphs_and_codes():
    # 150 random graphs and 150 random forests through the edge code, whose
    # node graph is the graph, then 150 random codes, some with symbols on
    # three or more nodes: the girth capped at each cap is networkx's
    rng = random.Random(4040)
    cases = []
    for trial in range(300):
        n = rng.randrange(1, 15)
        G, g = _random_forest(rng, n) if trial % 2 else _random_graph(rng, n, rng.uniform(0.05, 0.5))
        cases.append((G, _edge_code(g)))
        assert girth(g) == nx.girth(G), g.edges
    cases += [(_node_graph(c), c) for c in (_random_code_with_copies(rng) for _ in range(150))]
    forests = 0
    for G, code in cases:
        forests += nx.is_forest(G)
        for cap in (2, 3, 4, 5, 6, 8, math.inf):
            assert analyze._girth(code, cap) == min(nx.girth(G), cap), (code.node_sets, cap)
    assert forests >= 150


def test_file_size_matches_brute_on_random_codes():
    rng = random.Random(101)
    for trial in range(80):
        n = rng.randrange(2, 9)
        theta = rng.randrange(2, 11)
        alpha = rng.randrange(1, theta + 1)
        node_sets = [rng.sample(range(1, theta + 1), alpha) for _ in range(n)]
        code = FrCode(n, theta, alpha, 1, node_sets)
        for k in range(1, n + 1):
            assert file_size(code, k) == brute_min_union(code, k), (node_sets, k)


def test_unlimited_symmetry_discovery_keeps_file_size_on_random_codes():
    # discovery runs to its end before the search opens a node; copied node
    # sets give some codes automorphisms to prune with
    rng = random.Random(606)
    for trial in range(80):
        code = _random_code_with_copies(rng)
        for k in range(1, code.n + 1):
            assert file_size(code, k) == brute_min_union(code, k), (code.node_sets, k)


def _random_code_with_copies(rng):
    """n <= 9 random node sets, some of them copies of others."""
    n = rng.randrange(2, 10)
    theta = rng.randrange(2, 12)
    alpha = rng.randrange(1, theta + 1)
    node_sets = [rng.sample(range(1, theta + 1), alpha) for _ in range(n)]
    for _ in range(rng.randrange(n)):
        node_sets[rng.randrange(n)] = list(rng.choice(node_sets))
    return FrCode(n, theta, alpha, 1, node_sets)


def _relabelled(code, rng, nodes=True, symbols=True):
    """A copy with its nodes and/or its symbols renumbered at random."""
    node_ids = list(range(code.n))
    symbol_ids = list(range(1, code.theta + 1))
    if nodes:
        rng.shuffle(node_ids)
    if symbols:
        rng.shuffle(symbol_ids)
    sets = [None] * code.n
    for i, s in enumerate(code.node_sets):
        sets[node_ids[i]] = [symbol_ids[j - 1] for j in s]
    return FrCode(code.n, code.theta, code.alpha, code.rho, sets)


def test_file_size_is_unchanged_on_relabelled_catalog_codes():
    # node relabelling moves the orbit representatives the search keeps;
    # the large codes' values are the unpruned enumeration's
    rng = random.Random(707)
    small = [from_graph(turan(6, 2)), from_graph(cage("petersen")),
             from_graph(cage("heawood")), from_design(transversal_design(3, 4)),
             from_design(projective_plane(2)), from_design(projective_plane(3))]
    cases = [(code, [brute_min_union(code, k) for k in range(1, code.n + 1)])
             for code in small]
    cases += [(from_graph(cage("tuttecoxeter")), [3, 5, 7, 9, 11, 13, 15]),
              (from_graph(cage("mcgee")), [3, 5, 7, 9, 11, 13, 14]),
              (from_design(transversal_design(5, 7)), [7, 13, 18, 22, 25, 28])]
    for base, expected in cases:
        for _ in range(2):
            code = _relabelled(base, rng)
            assert [file_size(code, k) for k in range(1, len(expected) + 1)] == expected


def test_capacity_profile_matches_brute_on_random_codes():
    # each row's search is bounded by the rows below it and shares one greedy
    # pass and one discovery; copied node sets give discovery orbits to find
    rng = random.Random(808)
    searched = 0
    for trial in range(200):
        n = rng.randrange(2, 10)
        theta = rng.randrange(2, 12)
        alpha = rng.randrange(1, theta + 1)
        node_sets = [rng.sample(range(1, theta + 1), alpha) for _ in range(n)]
        for _ in range(rng.randrange(n)):
            node_sets[rng.randrange(n)] = list(rng.choice(node_sets))
        code = FrCode(n, theta, alpha, 1, node_sets)
        sizes = profile_sizes(code, n)
        assert [m for m, _ in sizes] == [brute_min_union(code, k) for k in range(1, n + 1)], \
            node_sets
        searched += sum(1 for _, nodes in sizes if nodes)
    assert searched >= 200


def test_a_profile_row_opens_no_more_nodes_than_the_search_alone():
    # the lemma in analyze._Profile.search: the same incumbent, bans and
    # orbits, a floor at least as high, and cuts by the rows below only
    # where no completion beats the incumbent
    rng = random.Random(2020)
    cases = [(code, code.n) for code in (_random_code_with_copies(rng) for _ in range(300))]
    for base, k_max in [(from_graph(cage("petersen")), 10), (from_graph(cage("heawood")), 14),
                        (_graph_code(nx.pappus_graph()), 18),
                        (_graph_code(nx.desargues_graph()), 20),
                        (from_design(transversal_design(3, 4)), 12),
                        (from_design(transversal_design(4, 5)), 20),
                        (from_design(projective_plane(3)), 13), (from_graph(cage("mcgee")), 11)]:
        cases += [(_relabelled(base, rng), k_max) for _ in range(2)]
    searched = fewer = 0
    for code, k_max in cases:
        sizes = profile_sizes(code, k_max)
        for k, (_, nodes) in enumerate(sizes, start=1):
            alone = FrCode(code.n, code.theta, code.alpha, code.rho, code.node_sets)
            file_size(alone, k)
            assert nodes <= alone._file_sizes[k][1], (code.node_sets, k)
            searched += alone._file_sizes[k][1] > 0
            fewer += nodes < alone._file_sizes[k][1]
    assert searched >= 600 and fewer >= 400, (searched, fewer)


def test_capacity_profile_equals_file_size_on_relabelled_catalog_codes():
    rng = random.Random(909)
    cases = [(from_graph(cage("petersen")), 10), (from_graph(cage("heawood")), 14),
             (from_graph(cage("tuttecoxeter")), 8), (from_graph(cage("mcgee")), 8),
             (from_design(transversal_design(3, 4)), 12),
             (from_design(projective_plane(3)), 13)]
    for base, k_max in cases:
        for relabel in ({"symbols": False}, {"nodes": False}):
            code = _relabelled(base, rng, **relabel)
            rows = [r.exact for r in capacity_profile(code, k_max).rows]
            fresh = FrCode(code.n, code.theta, code.alpha, code.rho, code.node_sets)
            assert rows == [file_size(fresh, k) for k in range(1, k_max + 1)]


def _assert_exact(code, expected, t):
    """Every capacity-profile row and file_size at each k are expected, the
    brute-force M(1..n), and batch_t_detail gives t with a valid witness.
    Returns how many profile rows searched."""
    sizes = profile_sizes(code, code.n)
    assert [m for m, _ in sizes] == expected, code.node_sets
    assert [file_size(code, k) for k in range(1, code.n + 1)] == expected, code.node_sets
    detail = batch_t_detail(code)
    assert detail.t == t, code.node_sets
    assert_valid_batch_witness(code, detail)
    return sum(1 for _, nodes in sizes if nodes)


def test_every_answer_is_exact_on_node_relabelled_catalog_codes():
    # the search skips nodes by their labels and their proven orbits, so
    # each relabelling meets the skips in another order; M(k) and t are
    # invariants, computed once by brute force on the catalog code
    rng = random.Random(1717)
    searched = []
    for base in [from_graph(turan(6, 2)), from_graph(cage("petersen")),
                 from_graph(cage("heawood")), from_design(transversal_design(3, 4)),
                 from_design(projective_plane(2)), from_design(projective_plane(3))]:
        expected = [brute_min_union(base, k) for k in range(1, base.n + 1)]
        t = brute_batch_t_detail(base).t
        searched.append(sum(_assert_exact(_relabelled(base, rng, symbols=False), expected, t)
                            for _ in range(8)))
    assert sum(searched) >= 120, searched  # K_{3,3} settles every k at set-up


def _circulant_code(rng):
    """The graph code of a random circulant graph on 3 to 6 vertices: one
    orbit of nodes."""
    m = rng.randrange(3, 7)
    jumps = rng.sample(range(1, m // 2 + 1), rng.randrange(1, m // 2 + 1))
    return _graph_code(nx.circulant_graph(m, jumps))


def _two_part_code(rng):
    """The disjoint union of two different codes of at most 10 nodes in all,
    nodes shuffled: a circulant graph code beside another or beside a
    random code with copied node sets.  Discovery proves several depth-0
    orbits, and their nodes interleave."""
    first = _circulant_code(rng)
    while True:
        second = _circulant_code(rng) if rng.random() < 0.5 else _random_code_with_copies(rng)
        if first.n + second.n <= 10 and second.node_sets != first.node_sets:
            break
    sets = [*first.node_sets, *([first.theta + j for j in s] for s in second.node_sets)]
    code = FrCode(len(sets), first.theta + second.theta, max(map(len, sets)), 2, sets)
    return _relabelled(code, rng)


def test_every_answer_is_exact_on_codes_with_several_orbits():
    rng = random.Random(1818)
    orbits = searched = 0
    for trial in range(300):
        code = _two_part_code(rng)
        orbits += len(proven_orbits(code)) > 1
        expected = [brute_min_union(code, k) for k in range(1, code.n + 1)]
        searched += _assert_exact(code, expected, brute_batch_t_detail(code).t)
    assert orbits >= 280 and searched >= 1000, (orbits, searched)


def _discovery(discover, code):
    """(path, chain, work units) of a discovery run to its end by the
    oracle's protocol: chain[0] the union-find of the automorphisms
    verified, in the order verified, read as roots, and chain[d] the
    snapshots of its roots."""
    path, chain = [], {0: list(range(code.n))}
    units = sum(discover(code.symbol_masks, code.holder_masks, path, chain))
    return path, [[analyze._root(chain[0], v) for v in range(code.n)],
                  *(chain[d] for d in range(1, len(chain)))], units


def test_discovery_proves_what_the_oracle_proves_with_no_more_work():
    # a leaf search skips a child that a verified automorphism fixing the
    # individualized nodes maps onto a failed child; a skipped search would
    # have failed, so the same automorphisms are verified in the same order
    rng = random.Random(1919)
    codes = [from_graph(turan(6, 2)), from_graph(cage("petersen")), from_graph(cage("heawood")),
             from_graph(cage("mcgee")), from_graph(cage("tuttecoxeter")),
             _graph_code(nx.pappus_graph()), _graph_code(nx.desargues_graph()),
             *(from_design(transversal_design(*h)) for h in [(3, 4), (3, 5), (4, 5), (5, 7), (7, 7)]),
             *(from_design(projective_plane(q)) for q in (2, 3, 5))]
    codes += [_relabelled(base, rng) for base in codes[:9]]
    codes += [_random_code_with_copies(rng) for _ in range(50)]
    codes += [_two_part_code(rng) for _ in range(50)]
    codes += [_dual(code) for code in codes[-40:]]
    for _ in range(60):  # transversal designs, whole or less a node: leaf searches fail here
        base = from_design(transversal_design(*rng.choice([(4, 5), (5, 5), (4, 7)])))
        nodes = rng.sample(range(base.n), base.n - rng.randrange(2))
        codes.append(_relabelled(FrCode(len(nodes), base.theta, base.alpha, base.rho,
                                        [base.node_sets[i] for i in nodes]), rng))
    fewer = 0
    for code in codes:
        path, chain, units = analyze._discover_orbits(code.symbol_masks, code.holder_masks)
        oracle_path, oracle_chain, oracle_units = _discovery(oracle_discover_orbits, code)
        assert (path, chain) == (oracle_path, oracle_chain), code.node_sets
        assert units <= oracle_units, code.node_sets
        fewer += units < oracle_units
    assert fewer >= 25, fewer


def _dual(code):
    """The code with nodes and symbols swapped, as batch_t_detail builds it."""
    return FrCode(code.theta, code.n, code.rho, code.alpha, code.nodes_of_symbol)


def _random_partial_design(rng):
    """2 to 10 nodes of a small transversal design, picked at random and in
    random order: they share at most one symbol, the case the colouring
    floor is made for."""
    code = from_design(transversal_design(*rng.choice([(2, 3), (3, 3), (3, 4), (4, 4), (3, 5),
                                                        (4, 5), (5, 5)])))
    nodes = rng.sample(range(code.n), rng.randrange(2, min(code.n, 10) + 1))
    return FrCode(len(nodes), code.theta, code.alpha, code.rho, [code.node_sets[i] for i in nodes])


def _triangle_free_graph(rng, kind):
    """A random graph with no triangle and no isolated vertex, of at most 12
    edges: bipartite (kind 0), a random graph with each edge subdivided
    (kind 1), or a cycle with chords (kind 2)."""
    while True:
        if kind == 0:
            a, b = rng.randrange(1, 6), rng.randrange(1, 6)
            G = nx.Graph((u, a + w) for u in range(a) for w in range(b) if rng.random() < 0.45)
        elif kind == 1:
            H = nx.gnp_random_graph(rng.randrange(3, 7), rng.uniform(0.3, 0.8),
                                    seed=rng.randrange(10**9))
            G = nx.Graph(e for u, w in H.edges() for e in ((u, ("mid", u, w)), (("mid", u, w), w)))
        else:
            n = rng.randrange(4, 12)
            G = nx.cycle_graph(n)
            G.add_edges_from((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(1, 4)))
            G.remove_edges_from(nx.selfloop_edges(G))
        if 0 < G.number_of_edges() <= 12 and not any(nx.triangles(G).values()):
            return G


def _graph_code(G):
    """Vertex i stores its edges, no more: the code's node graph is G."""
    index = {v: i for i, v in enumerate(G)}
    sets = [[] for _ in G]
    for j, (u, w) in enumerate(G.edges(), start=1):
        sets[index[u]].append(j)
        sets[index[w]].append(j)
    return FrCode(len(sets), G.number_of_edges(), max(map(len, sets)), 2, sets)


def test_set_up_floor_never_exceeds_brute_force_on_random_codes():
    # 300 random codes and their duals, 200 partial designs, and 300
    # triangle-free graph codes and their duals: the colouring and girth
    # floors rest on Bonferroni with Turan's theorem and with the edges k
    # nodes of a girth-g node graph induce, and a floor above M(k) would end
    # a search early with a wrong answer
    rng = random.Random(1111)
    codes = [_random_code_with_copies(rng) for _ in range(300)]
    codes += [_dual(c) for c in codes] + [_random_partial_design(rng) for _ in range(200)]
    graph_codes = [_graph_code(_triangle_free_graph(rng, trial % 3)) for trial in range(300)]
    codes += graph_codes + [_dual(c) for c in graph_codes]
    met = by_girth = 0
    for code in codes:
        profile = analyze._Profile(code, code.n, analyze.DEFAULT_BUDGET, "floor")
        floors = [profile.floor(k) for k in range(1, code.n + 1)]
        profile.girth = 3  # then the girth floor is no higher than the colouring floor
        for k, floor in enumerate(floors, start=1):
            exact = brute_min_union(code, k)
            assert floor <= exact, (code.node_sets, k)
            met += floor == exact
            by_girth += floor == exact > profile.floor(k)
    assert met >= 2500 and by_girth >= 400


def test_greedy_pass_keeps_every_incumbent_when_it_stops_at_the_floors():
    # the pass stops after the first start that meets every floor; no start
    # could go below one, so the incumbents are those of all starts
    rng = random.Random(1212)
    codes = [_random_code_with_copies(rng) for _ in range(200)]
    codes += [_dual(c) for c in codes[:100]]
    codes += [from_graph(cage("petersen")), from_graph(cage("tuttecoxeter")),
              from_design(transversal_design(3, 4)), from_design(transversal_design(5, 7)),
              from_design(projective_plane(3)), from_design(projective_plane(5))]
    stopped = 0
    for code in codes:
        profile = analyze._Profile(code, 1, analyze.DEFAULT_BUDGET, "floor")
        for k_max in range(1, min(code.n, 9) + 1):
            floors = [profile.floor(k) for k in range(1, k_max + 1)]
            greedy = analyze._greedy_unions(code.symbol_masks, floors)
            assert greedy == oracle_greedy_unions(code.symbol_masks, k_max), code.node_sets
            stopped += greedy == floors
    assert stopped >= 500


def _stabilizer_cases(seed):
    """Small catalog codes, two relabelled copies of each, and random codes
    with copied node sets.  Discovery's path starts at the first node of the
    largest cell, node 0 on the node-transitive catalog codes and their
    copies, some other node on many of the random codes."""
    rng = random.Random(seed)
    for base in [from_graph(turan(6, 2)), from_graph(cage("petersen")),
                 from_graph(cage("heawood")), from_design(transversal_design(3, 4)),
                 from_design(projective_plane(2)), from_design(projective_plane(3))]:
        yield from (base, _relabelled(base, rng), _relabelled(base, rng, symbols=False))
    for _ in range(40):
        yield _random_code_with_copies(rng)


def _path_prefix(code):
    """The increasing prefix of discovery's first path, run to its end: the
    path nodes a search can pick in turn.  Empty when refinement alone makes
    every node a cell of its own."""
    path = discovered(code)[1]
    return path[:next((i for i in range(1, len(path)) if path[i] < path[i - 1]), len(path))]


def test_stabilizer_chain_keeps_file_size(monkeypatch):
    # discovery runs to its end before a search opens a node, so the chain is
    # there for every branch and every profile row
    discover_orbits = analyze._discover_orbits

    def profile_nodes(code, with_chain):
        with monkeypatch.context() as patch:
            if not with_chain:  # an empty path: chain[0] alone
                patch.setattr(analyze, "_discover_orbits", lambda masks, holders:
                              ([], *discover_orbits(masks, holders)[1:]))
            return profile_sizes(code, code.n)

    prefixes, opened = [], {True: 0, False: 0}
    for code in [*_stabilizer_cases(1313), *_stabilizer_cases(1515)]:
        expected = [brute_min_union(code, k) for k in range(1, code.n + 1)]
        prefixes.append(_path_prefix(code))
        assert [file_size(code, k) for k in range(1, code.n + 1)] == expected, code.node_sets
        for with_chain in (True, False):
            sizes = profile_nodes(code, with_chain)
            assert [m for m, _ in sizes] == expected, code.node_sets
            opened[with_chain] += sum(nodes for _, nodes in sizes)
    assert max(map(len, prefixes)) >= 3
    assert any(prefix and prefix[0] for prefix in prefixes)  # a path that starts past node 0
    assert opened[True] < opened[False]  # the chain prunes


def test_stabilizer_chain_keeps_batch_t():
    # the batch search runs the kernel on the dual code, whose nodes are the
    # symbols; on some of the random codes the dual's path starts past node 0
    prefixes = []
    for code in [*_stabilizer_cases(1414), *_stabilizer_cases(1515)]:
        if all(code.nodes_of_symbol):  # the search runs on this dual code
            dual = FrCode(code.theta, code.n, code.rho, code.alpha, code.nodes_of_symbol)
            prefixes.append(_path_prefix(dual))
        assert batch_t_detail(code).t == brute_batch_t_detail(code).t, code.node_sets
    assert max(map(len, prefixes)) >= 3
    assert any(prefix and prefix[0] for prefix in prefixes)


def test_any_admitted_budget_gives_the_exact_answer_on_random_codes():
    # a budget only decides whether a search runs, never what it returns
    rng = random.Random(505)
    outcomes = {"admitted": 0, "refused": 0}

    def check(call, reference):
        try:
            got = call()
        except BudgetExceededError:
            outcomes["refused"] += 1
            return
        outcomes["admitted"] += 1
        assert got == reference()

    for trial in range(60):
        n = rng.randrange(2, 10)
        theta = rng.randrange(2, 12)
        alpha = rng.randrange(1, theta + 1)
        node_sets = [rng.sample(range(1, theta + 1), alpha) for _ in range(n)]
        code = FrCode(n, theta, alpha, 1, node_sets)
        budget = rng.choice([0, 1, 3, 10, 30, 100, 1000])
        for k in range(1, n + 1):
            check(lambda: file_size(code, k, budget=budget),
                  lambda: brute_min_union(code, k))
        check(lambda: batch_t_detail(code, budget=budget).t,
              lambda: brute_batch_t_detail(code).t)
    assert min(outcomes.values()) >= 20, outcomes


def test_max_induced_edges_matches_brute_on_random_graphs():
    rng = random.Random(202)
    for trial in range(40):
        n = rng.randrange(2, 11)
        _, g = _random_graph(rng, n, rng.uniform(0.1, 0.8))
        for k in range(1, n + 1):
            assert max_induced_edges(g, k) == brute_max_edges(g, k)


def test_clique_decision_matches_networkx_on_random_graphs():
    rng = random.Random(303)
    for trial in range(40):
        n = rng.randrange(2, 12)
        G, g = _random_graph(rng, n, rng.uniform(0.2, 0.9))
        omega = max((len(c) for c in nx.find_cliques(G)), default=1)
        for k in range(1, n + 1):
            assert has_k_clique(g, k) == (k <= omega)


def test_clique_decision_matches_networkx_on_300_random_graphs():
    # an oracle outside the min-union kernel, which has_k_clique runs on:
    # non-regular graphs get symbols of their own, edgeless ones are all own
    rng = random.Random(3030)
    regular = edgeless = 0
    for trial in range(300):
        n = rng.randrange(1, 15)
        G, g = _random_graph(rng, n, 0.0 if trial % 10 == 0 else rng.uniform(0.05, 0.95))
        edgeless += not g.edges
        regular += len(set(g.degrees())) == 1
        omega = max((len(c) for c in nx.find_cliques(G)), default=0)
        for k in range(1, n + 2):
            assert has_k_clique(g, k) == (k <= omega), (g.edges, k)
    assert edgeless >= 30 and regular < 100


def test_matching_size_matches_hopcroft_karp():
    rng = random.Random(404)
    for trial in range(80):
        nl = rng.randrange(1, 9)
        nr = rng.randrange(1, 9)
        B = nx.Graph()
        B.add_nodes_from(range(nl), bipartite=0)
        B.add_nodes_from(range(100, 100 + nr), bipartite=1)
        neighbors = []
        for i in range(nl):
            adj = [100 + j for j in range(nr) if rng.random() < 0.4]
            neighbors.append(adj)
            B.add_edges_from((i, a) for a in adj)
        masks = [sum(1 << (a - 100) for a in adj) for adj in neighbors]
        mine = sum(1 for m in maximum_matching(masks) if m is not None)
        theirs = len(nx.bipartite.hopcroft_karp_matching(B, top_nodes=range(nl))) // 2
        assert mine == theirs, neighbors


def _positions(mask):
    return [r for r in range(mask.bit_length()) if mask >> r & 1]


def test_matching_agrees_with_reference_kuhn_and_hopcroft_karp():
    """The bitmask matcher against the adjacency-list Kuhn matcher it
    replaced and networkx, on graphs with no left vertices, left vertices
    without edges, and right positions past 64 (big-int masks); its greedy
    result, its extension of a given match and its witness equal the
    recursive bitmask matcher's exactly."""
    rng = random.Random(4242)
    deficient = wide = 0
    for trial in range(1200):
        nl = 0 if trial % 100 == 0 else rng.randrange(1, 10)
        nr = rng.choice((rng.randrange(1, 10), rng.randrange(60, 130)))
        density = rng.uniform(0.0, 0.5 if nr < 60 else 0.08)
        masks = [0 if rng.random() < 0.1 else
                 sum(1 << r for r in range(nr) if rng.random() < density)
                 for _ in range(nl)]
        neighbors = [_positions(m) for m in masks]
        wide += any(m >> 64 for m in masks)
        match = maximum_matching(masks)
        assert match == oracle_maximum_matching(masks), masks
        assert len(match) == nl
        matched = [r for r in match if r is not None]
        assert len(set(matched)) == len(matched), masks
        assert all(r is None or masks[i] >> r & 1 for i, r in enumerate(match)), masks
        B = nx.Graph()
        B.add_nodes_from(range(nl), bipartite=0)
        B.add_nodes_from((("r", r) for r in range(nr)), bipartite=1)
        B.add_edges_from((i, ("r", r)) for i, adj in enumerate(neighbors) for r in adj)
        theirs = len(nx.bipartite.hopcroft_karp_matching(B, top_nodes=range(nl))) // 2
        reference = reference_maximum_matching(neighbors)
        assert len(matched) == sum(r is not None for r in reference) == theirs, masks
        # extending a part of the reference matching reaches the same size and
        # keeps every right vertex that part matched
        part = [r if rng.random() < 0.5 else None for r in reference]
        extended = maximum_matching(masks, part)
        assert extended == oracle_maximum_matching(masks, part), (masks, part)
        assert sum(r is not None for r in extended) == theirs, (masks, part)
        assert {r for r in part if r is not None} <= set(extended), (masks, part)
        if len(matched) == nl:
            continue
        deficient += 1
        witness, neighborhood = hall_witness(masks, match)
        union = 0
        for i in witness:
            union |= masks[i]
        assert neighborhood == _positions(union), masks
        assert len(neighborhood) == len(witness) - 1, masks
        # the alternating tree's reach does not depend on the search order
        assert (witness, neighborhood) == reference_hall_witness(neighbors, match), masks
        assert (witness, neighborhood) == oracle_hall_witness(masks, match), masks
    assert deficient >= 300 and wide >= 300


def _brute_batch_t(code):
    """Symbol-side oracle: smallest Hall-violating symbol set, minus one."""
    holders = code.nodes_of_symbol
    for size in range(1, code.theta + 1):
        for sub in combinations(range(1, code.theta + 1), size):
            neighborhood = set()
            for j in sub:
                neighborhood.update(holders[j - 1])
            if len(neighborhood) < size:
                return size - 1
    return code.theta


def test_batch_t_matches_symbol_side_oracle():
    rng = random.Random(505)
    for trial in range(80):
        n = rng.randrange(2, 8)
        theta = rng.randrange(2, 9)
        alpha = rng.randrange(1, theta + 1)
        node_sets = [rng.sample(range(1, theta + 1), alpha) for _ in range(n)]
        code = FrCode(n, theta, alpha, 1, node_sets)
        detail = batch_t_detail(code)
        assert detail.t == _brute_batch_t(code), node_sets
        if detail.witness is not None:
            assert len(detail.witness) == detail.t + 1
            assert not isinstance(retrieval_plan(code, detail.witness), BatchPlan)
