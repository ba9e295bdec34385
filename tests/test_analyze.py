import gc
import json
import math
import re
import weakref

import networkx as nx
import pytest
from conftest import (
    automorphism_maps,
    brute_max_edges,
    brute_min_union,
    discovered,
    nx_code,
    profile_sizes,
    proven_orbits,
    search_cost,
    smallest_admitted_budget,
    to_networkx,
)

from frepkit import (
    BudgetExceededError,
    FrCode,
    Graph,
    ParameterError,
    analyze,
    batch_t,
    capacity_profile,
    file_size,
    fr_capacity_bound,
    frb_certify,
    from_design,
    from_graph,
    girth,
    girth_file_size,
    has_k_clique,
    lemma7_flag,
    max_induced_edges,
    mbr_capacity,
    moore_bound,
    projective_plane,
    td_file_size_lower_bound,
    transversal_design,
    turan,
    turan_file_size,
)
from frepkit.analyze import cage_size
from frepkit.construct import cage, cage_catalog


def turan_instances(n_max):
    for n in range(4, n_max + 1):
        for r in range(2, n):
            if n % r == 0:
                yield n, r


SMALL_GRAPHS = [turan(n, r) for n, r in turan_instances(8)] + [
    turan(3, 3), cage("petersen"),
]

# the square of the 10-cycle: 4-regular with triangles, clique number 3, so
# no girth floor helps its edge code and its searches from k = 4 on open nodes
SQUARED_C10 = Graph(v=10, edges=[(i, (i + s - 1) % 10 + 1) for i in range(1, 11) for s in (1, 2)])


class TestClosedForms:
    def test_mbr_examples(self):
        assert mbr_capacity(3, 3) == 6
        assert mbr_capacity(1, 7) == 7
        assert mbr_capacity(4, 4) == 10

    def test_phi_examples(self):
        assert fr_capacity_bound(6, 3, 3, 2) == 7
        assert fr_capacity_bound(9, 1, 4, 2) == 4
        assert fr_capacity_bound(12, 4, 4, 3) == 11

    def test_phi_rejects_k_at_or_past_n(self):
        with pytest.raises(ParameterError):
            fr_capacity_bound(6, 6, 3, 2)
        with pytest.raises(ParameterError):
            fr_capacity_bound(6, 0, 3, 2)

    def test_turan_file_size_examples(self):
        assert turan_file_size(6, 2, 3) == 7
        assert turan_file_size(6, 2, 2) == 5
        with pytest.raises(ParameterError):
            turan_file_size(7, 2, 2)

    def test_turan_formula_at_r_equals_n_is_mbr(self):
        # r = n is K_n: any k vertices induce T(k, n) = C(k, 2) edges
        for n in range(2, 9):
            for k in range(1, min(n, 6) + 1):
                assert turan_file_size(n, n, k) == mbr_capacity(k, n - 1)

    def test_td_lower_bound_examples(self):
        assert td_file_size_lower_bound(4, 3, 4) == 11
        assert td_file_size_lower_bound(4, 3, 3) == 9
        assert td_file_size_lower_bound(5, 4, 1) == 5

    def test_girth_file_size_examples(self):
        assert girth_file_size(3, 5, 4) == 9
        assert girth_file_size(3, 5, 6) == 12
        assert girth_file_size(6, 5, 1) == 6

    def test_girth_file_size_range_limit(self):
        with pytest.raises(ParameterError, match="not applicable"):
            girth_file_size(3, 5, 7)

    def test_moore_bound(self):
        assert moore_bound(3, 5) == 10
        assert moore_bound(3, 6) == 14
        for g in range(3, 9):
            assert moore_bound(2, g) == g

    def test_cage_size_table_and_proxy(self):
        assert cage_size(3, 5) == (10, True)
        assert cage_size(3, 7) == (24, True)
        value, exact = cage_size(4, 5)
        assert value == moore_bound(4, 5) and not exact

    def test_lemma7_examples(self):
        assert lemma7_flag(8, 3, 4) is True
        assert lemma7_flag(10, 3, 4) is False
        assert lemma7_flag(100, 3, 4) is False

    @pytest.mark.parametrize("args,message", [
        ((10.5, 3, 4), "n 10.5"),
        ((8, 3.0, 4), "alpha 3.0"),
        ((8, 3, True), "k True"),
        ((8, 3, 1.0), "k 1.0"),
    ], ids=["n-10.5", "alpha-3.0", "k-true", "k-1.0"])
    def test_lemma7_refuses_non_integers(self, args, message):
        with pytest.raises(ParameterError, match=f"^{message} is not an integer$"):
            lemma7_flag(*args)


class TestGirth:
    def test_examples(self):
        assert girth(cage("petersen")) == 5
        assert girth(turan(6, 2)) == 4
        path = Graph(v=4, edges=[(1, 2), (2, 3), (3, 4)])
        assert girth(path) == math.inf

    def test_triangle(self):
        assert girth(turan(3, 3)) == 3

    def test_disconnected(self):
        g = Graph(v=7, edges=[(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (6, 7), (4, 7)])
        assert girth(g) == 3

    @pytest.mark.parametrize("graph", SMALL_GRAPHS, ids=lambda g: f"n{g.v}e{g.e}")
    def test_against_networkx(self, graph):
        assert girth(graph) == nx.girth(to_networkx(graph))


class TestCliques:
    def test_examples(self):
        assert has_k_clique(turan(4, 4), 4)
        assert not has_k_clique(turan(8, 4), 5)
        assert not has_k_clique(cage("petersen"), 3)

    def test_k1(self):
        assert has_k_clique(Graph(v=1, edges=[]), 1)

    def test_refuses_exactly_below_the_nodes_it_opens(self, monkeypatch):
        # no parameter: the search runs at DEFAULT_BUDGET, read per call
        def run(budget):
            monkeypatch.setattr(analyze, "DEFAULT_BUDGET", budget)
            return has_k_clique(SQUARED_C10, 4)

        b = smallest_admitted_budget(run)
        assert b > 0 and run(b) is False
        with pytest.raises(BudgetExceededError) as refused:
            run(b - 1)
        assert str(refused.value) == (
            f"file-size search over 4-subsets of 10 nodes needs more than {b - 1} "
            f"search nodes; raise the budget to run this exactly")

    @pytest.mark.parametrize("graph", SMALL_GRAPHS, ids=lambda g: f"n{g.v}e{g.e}")
    def test_against_networkx_clique_number(self, graph):
        omega = max(len(c) for c in nx.find_cliques(to_networkx(graph)))
        for k in range(1, graph.v + 1):
            assert has_k_clique(graph, k) == (k <= omega)


class TestMaxInducedEdges:
    def test_examples(self):
        assert max_induced_edges(turan(6, 2), 3) == 2
        assert max_induced_edges(turan(6, 2), 1) == 0
        assert max_induced_edges(cage("petersen"), 5) == 5

    @pytest.mark.parametrize("graph", [*SMALL_GRAPHS, Graph(v=3, edges=[])],
                             ids=lambda g: f"n{g.v}e{g.e}")
    def test_against_brute_force(self, graph):
        for k in range(1, graph.v + 1):
            assert max_induced_edges(graph, k) == brute_max_edges(graph, k)

    def test_budget(self):
        # the search opens 97 nodes; the girth floor settles Petersen at k = 5
        with pytest.raises(BudgetExceededError):
            max_induced_edges(SQUARED_C10, 5, budget=10)

    def test_refuses_exactly_below_the_nodes_it_opens(self):
        searched = 0
        for g in (cage("petersen"), turan(6, 2)):
            for k in range(1, g.v + 1):
                b = smallest_admitted_budget(lambda budget: max_induced_edges(g, k, budget))
                expected = brute_max_edges(g, k)
                assert max_induced_edges(g, k, budget=b) == expected
                assert max_induced_edges(g, k, budget=b + 1) == expected
                if b == 0:
                    continue  # the file-size set-up settled k: no search
                searched += 1
                with pytest.raises(BudgetExceededError) as refused:
                    max_induced_edges(g, k, budget=b - 1)
                assert str(refused.value) == (
                    f"file-size search over {k}-subsets of {g.v} nodes needs more "
                    f"than {b - 1} search nodes; raise the budget to run this exactly")
        assert searched


@pytest.mark.parametrize("search", [
    lambda k: file_size(from_graph(turan(6, 2)), k),
    lambda k: capacity_profile(from_graph(turan(6, 2)), k),
    lambda k: frb_certify(from_graph(turan(6, 2)), k),
    lambda k: max_induced_edges(turan(6, 2), k),
    lambda k: has_k_clique(turan(6, 2), k),
], ids=["file_size", "capacity_profile", "frb_certify", "max_induced_edges", "has_k_clique"])
@pytest.mark.parametrize("k", [2.5, 3.0, "3", True], ids=["2.5", "3.0", "str3", "True"])
def test_non_integer_k_is_refused(search, k):
    with pytest.raises(ParameterError, match="is not an integer"):
        search(k)


@pytest.mark.parametrize("search", [
    lambda b: file_size(from_graph(cage("petersen")), 5, budget=b),
    lambda b: capacity_profile(from_graph(cage("petersen")), budget=b),
    lambda b: max_induced_edges(cage("petersen"), 5, budget=b),
    lambda b: batch_t(from_graph(cage("petersen")), budget=b),
], ids=["file_size", "capacity_profile", "max_induced_edges", "batch_t"])
@pytest.mark.parametrize("budget", [True, 2.5, 10.0, "5"], ids=["True", "2.5", "10.0", "str5"])
def test_non_integer_budget_is_refused(search, budget):
    # before any search runs: True would otherwise act as a budget of 1
    message = f"^budget {re.escape(repr(budget))} is not an integer$"
    with pytest.raises(ParameterError, match=message):
        search(budget)


@pytest.mark.parametrize("call,name", [
    (lambda: mbr_capacity(2.5, 3), "k 2.5"),
    (lambda: mbr_capacity(2, 3.0), "alpha 3.0"),
    (lambda: fr_capacity_bound(6, 2.5, 3, 2), "k 2.5"),
    (lambda: fr_capacity_bound(6.0, 2, 3, 2), "n 6.0"),
    (lambda: turan_file_size(6, 2, 2.5), "k 2.5"),
    (lambda: turan_file_size(6, True, 2), "r True"),
    (lambda: td_file_size_lower_bound(2.5, 3, 2), "alpha 2.5"),
    (lambda: girth_file_size(3, 5, True), "k True"),
    (lambda: girth_file_size(3, 5.0, 2), "g 5.0"),
    (lambda: moore_bound(3.0, 5), "d 3.0"),
    (lambda: cage_size(3.0, 5), "d 3.0"),
    (lambda: cage_size(3, True), "g True"),
], ids=["mbr-k", "mbr-alpha", "phi-k", "phi-n", "turan-k", "turan-r", "td-alpha",
        "girth-k", "girth-g", "moore-d", "cage-d", "cage-g"])
def test_closed_forms_refuse_non_integers(call, name):
    # a float or bool would otherwise give a float or a wrong integer
    with pytest.raises(ParameterError, match=f"^{re.escape(name)} is not an integer$"):
        call()


@pytest.mark.parametrize("r", [0, -2, 1, 7])
def test_turan_file_size_refuses_part_counts_outside_2_to_n(r):
    # as construct.turan does: r = 0 divided by zero, r = -2 and r = 1 gave numbers
    with pytest.raises(ParameterError, match=rf"^need 2 <= r <= n, got r={r}, n=6$"):
        turan_file_size(6, r, 2)


@pytest.mark.parametrize("call,message", [
    (lambda: mbr_capacity(0, 3), "k must be positive, got 0"),
    (lambda: turan_file_size(6, 2, 0), "k must be positive, got 0"),
    (lambda: td_file_size_lower_bound(4, 3, 0), "k and rho must be positive"),
    (lambda: td_file_size_lower_bound(4, 0, 2), "k and rho must be positive"),
    (lambda: girth_file_size(3, 5, 0), "k must be positive, got 0"),
    (lambda: moore_bound(1, 5), "need d >= 2 and g >= 3, got d=1, g=5"),
    (lambda: moore_bound(3, 2), "need d >= 2 and g >= 3, got d=3, g=2"),
    (lambda: capacity_profile(from_graph(turan(6, 2)), 0), "need 1 <= k_max <= 6, got 0"),
    (lambda: capacity_profile(from_graph(turan(6, 2)), 7), "need 1 <= k_max <= 6, got 7"),
], ids=["mbr-k", "turan-k", "td-k", "td-rho", "girth-k", "moore-d", "moore-g",
        "profile-k_max-0", "profile-k_max-7"])
def test_out_of_range_arguments_are_refused(call, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        call()


SMALL_CODES = (
    [from_graph(g) for g in SMALL_GRAPHS]
    + [from_design(transversal_design(2, 2)),
       from_design(transversal_design(2, 3)),
       from_design(transversal_design(3, 3)),
       from_design(transversal_design(3, 4)),
       from_design(projective_plane(2))]
    + [FrCode(4, 4, 2, 2, [(1, 2), (1, 2), (3, 4), (3, 4)])]  # intersection 2
)


class TestFileSize:
    def test_td34_k3_from_paper_table(self, paper_td34):
        assert file_size(from_design(paper_td34), 3) == 9

    def test_k1_is_alpha(self):
        for code in SMALL_CODES:
            assert file_size(code, 1) == code.alpha

    def test_petersen_k4(self):
        code = from_graph(cage("petersen"))
        assert file_size(code, 4) == 9 == girth_file_size(3, 5, 4)

    @pytest.mark.parametrize("code", SMALL_CODES,
                             ids=lambda c: f"n{c.n}t{c.theta}a{c.alpha}r{c.rho}")
    def test_against_brute_force(self, code):
        for k in range(1, code.n + 1):
            assert file_size(code, k) == brute_min_union(code, k)

    def test_k_out_of_range(self):
        code = from_graph(turan(6, 2))
        with pytest.raises(ParameterError):
            file_size(code, 0)
        with pytest.raises(ParameterError):
            file_size(code, 7)

    def test_budget_refusal(self):
        # the search opens 74,692 nodes; the girth floor settles McGee up to
        # k = 9, and a cycle's code at every k
        code = from_graph(cage("mcgee"))
        with pytest.raises(BudgetExceededError):
            file_size(code, 10, budget=1000)

    def test_equal_but_distinct_codes_agree(self):
        a = from_design(transversal_design(3, 4))
        b = from_design(transversal_design(3, 4))
        assert a == b and a is not b
        assert [file_size(a, k) for k in range(1, 5)] == [4, 7, 9, 11]
        assert [file_size(b, k) for k in range(1, 5)] == [4, 7, 9, 11]

    def test_budget_refusal_after_a_warm_call(self):
        # refusal depends only on (code, k, budget): a memo hit refuses
        # exactly where a fresh code object's search does
        makers = [lambda: from_design(transversal_design(3, 4)),
                  lambda: from_graph(cage("petersen")),
                  lambda: from_graph(turan(6, 2)),
                  lambda: from_graph(SQUARED_C10)]
        searched = 0
        for make in makers:
            for k in range(1, make().n + 1):
                b = smallest_admitted_budget(lambda budget: file_size(make(), k, budget))
                expected = brute_min_union(make(), k)
                assert file_size(make(), k, budget=b) == expected
                assert file_size(make(), k, budget=b + 1) == expected
                warm = make()
                assert file_size(warm, k) == expected
                assert file_size(warm, k, budget=b) == expected
                if b == 0:
                    continue  # the greedy incumbent met the floor: no search
                searched += 1
                with pytest.raises(BudgetExceededError) as fresh:
                    file_size(make(), k, budget=b - 1)
                with pytest.raises(BudgetExceededError) as memo_hit:
                    file_size(warm, k, budget=b - 1)
                assert str(memo_hit.value) == str(fresh.value)
                assert f"more than {b - 1} search nodes" in str(fresh.value)
        assert searched >= 10


class TestSymmetryPruning:
    @pytest.mark.parametrize("code", [
        from_graph(turan(6, 2)), from_graph(cage("petersen")), from_graph(cage("heawood")),
        from_design(transversal_design(3, 4)), from_design(projective_plane(2)),
    ], ids=["k33", "petersen", "heawood", "td34", "pg2"])
    def test_every_proven_orbit_lies_in_one_true_orbit(self, code):
        for orbit in proven_orbits(code):
            assert all(automorphism_maps(code, orbit[0], v) for v in orbit[1:]), orbit

    @pytest.mark.parametrize("code", [
        from_graph(turan(6, 2)), from_graph(cage("petersen")), from_graph(cage("heawood")),
        from_graph(cage("mcgee")), from_design(transversal_design(3, 4)),
        from_design(transversal_design(3, 5)), from_design(transversal_design(4, 5)),
        from_design(projective_plane(2)), from_design(projective_plane(3)),
    ], ids=["k33", "petersen", "heawood", "mcgee", "td34", "td35", "td45", "pg2", "pg3"])
    def test_distinct_proven_orbits_are_distinct_true_orbits(self, code):
        # completeness: discovery skips the leaf searches that an orbit which
        # already failed answers, so a wrong skip would leave two proven
        # orbits that one automorphism joins
        firsts = [orbit[0] for orbit in proven_orbits(code)]
        for i, a in enumerate(firsts):
            assert not any(automorphism_maps(code, a, b) for b in firsts[i + 1:]), a

    def test_the_oracle_tells_orbits_apart(self):
        # nodes 0 and 1 of K_{1,2}'s code: the centre holds both symbols
        code = FrCode(3, 2, 1, 2, [(1, 2), (1,), (2,)])
        assert not automorphism_maps(code, 0, 1)
        assert automorphism_maps(code, 1, 2)

    @pytest.mark.parametrize("code,sizes", [
        (from_graph(cage("petersen")), [10]),
        (from_graph(cage("heawood")), [14]),
        (from_graph(cage("tuttecoxeter")), [30]),
        (from_design(transversal_design(7, 7)), [49]),
        (from_graph(cage("mcgee")), [8, 16]),
        (from_design(transversal_design(5, 7)), [14, 21]),
    ], ids=["petersen", "heawood", "tuttecoxeter", "td77", "mcgee", "td57"])
    def test_discovery_proves_the_orbits(self, code, sizes):
        assert sorted(map(len, proven_orbits(code))) == sizes

    @pytest.mark.parametrize("code", [
        from_graph(cage("petersen")), from_graph(cage("heawood")), from_graph(cage("mcgee")),
        from_graph(cage("tuttecoxeter")), from_design(transversal_design(3, 4)),
        from_design(transversal_design(4, 5)), from_design(transversal_design(5, 7)),
        from_design(projective_plane(3)), from_design(projective_plane(5)),
    ], ids=["petersen", "heawood", "mcgee", "tuttecoxeter", "td34", "td45", "td57",
            "pg3", "pg5"])
    def test_automorphisms_proven_before_level_0_fix_its_path_node(self, code, monkeypatch):
        # the premise of the chain rule, at every level L: discovery searches
        # its levels deepest first, and each level-l leaf keeps the path nodes
        # above l, so the automorphisms verified before level L begins fix
        # path[:L + 1], every later one moves a node of it, and chain[L + 1]
        # holds the orbits of the group the earlier ones generate
        verified = []
        is_automorphism = analyze._is_automorphism

        def spy(holders, perm):
            if is_automorphism(holders, perm):
                verified.append(perm)
                return True
            return False

        def roots(perms):
            generated = list(range(code.n))
            for perm in perms:
                for v, w in enumerate(perm):
                    a, b = analyze._root(generated, v), analyze._root(generated, w)
                    generated[max(a, b)] = min(a, b)
            return [analyze._root(generated, v) for v in range(code.n)]

        monkeypatch.setattr(analyze, "_is_automorphism", spy)
        _, path, chain = discovered(code)
        assert path[0] == 0 and sorted(chain) == list(range(len(path) + 1))
        for level in range(len(path)):
            fixes = [all(perm[x] == x for x in path[:level + 1]) for perm in verified]
            early = fixes.index(False) if False in fixes else len(fixes)
            assert not any(fixes[early:]), level
            assert chain[level + 1] == roots(verified[:early]), level
            assert early or level  # level 0 has automorphisms to prune with

    @pytest.mark.parametrize("code,units", [
        (from_design(transversal_design(5, 7)), 3113),
        (from_design(transversal_design(7, 7)), 3177),
    ], ids=["td57", "td77"])
    def test_discovery_work_is_pinned(self, code, units):
        # the work units of discovery run to its end; searching again each
        # node whose orbit already failed at its level takes TD(5,7) 252,281
        # units and TD(7,7) 8,422, and searching each child of a leaf search
        # that a proven automorphism maps onto a failed one 24,240 and 6,972
        assert sum(analyze._discover_orbits(code.symbol_masks, code.holder_masks,
                                            [], {0: list(range(code.n))})) == units

    @pytest.mark.parametrize("code,k,expected", [
        (from_graph(cage("tuttecoxeter")), 6, (13, 0, 165)),
        (from_graph(cage("heawood")), 8, (15, 966, 478)),
        (from_graph(cage("heawood")), 9, (17, 532, 536)),
        (from_graph(cage("heawood")), 10, (18, 823, 478)),
        (from_design(transversal_design(5, 7)), 6, (28, 0, 329)),
        (from_design(transversal_design(5, 7)), 7, (30, 0, 329)),
        (from_design(transversal_design(5, 7)), 9, (34, 72168, 3442)),
        (from_graph(cage("mcgee")), 9, (18, 0, 132)),
        (from_graph(cage("mcgee")), 10, (19, 31941, 908)),
        (from_design(transversal_design(7, 7)), 9, (33, 291853, 3618)),
    ], ids=["tuttecoxeter-k6", "heawood-k8", "heawood-k9", "heawood-k10", "td57-k6", "td57-k7",
            "td57-k9", "mcgee-k9", "mcgee-k10", "td77-k9"])
    def test_the_discovery_schedule_is_pinned(self, code, k, expected):
        # (M(k), search nodes opened, discovery units spent): both sides of
        # the trade move with any change to when discovery runs, what it
        # charges, or which orbits it proves.  McGee and TD(7,7) run
        # discovery to its end (908 and 3,618 units), and TD(5,7) at k = 9
        # too (3,442); Heawood at k = 8 and 10 stops short of its 536.  A
        # known regression: Heawood k = 10 opened 629 nodes before the search
        # skipped earlier orbits below each child of a path node, and opens
        # 459 once discovery has run to its end, but the smaller first branch
        # pays for 478 units, and the level-0 orbit needs 536, so the later
        # depth-0 branches are searched too (see CHANGES.md).  Without the
        # eager first path TD(7,7) k = 9 opens 2,797,171 nodes.  Skipping the
        # earlier orbits below each child of a path node takes TD(5,7) k = 9
        # from 146,779 nodes to 72,168 and McGee k = 10 from 74,692 to
        # 31,941; TD(7,7) opens the same nodes.  The
        # colouring floor settles TD(5,7) at k = 6 and 7 in set-up (they
        # opened 2,542 and 5,346 nodes without it), so discovery spends only
        # its first payment, the incidence graph; the girth floor likewise
        # settles Tutte-Coxeter at k = 6 and McGee at k = 9 (they opened
        # 1,542 and 53,932 nodes without it)
        assert search_cost(code, k) == expected

    def test_the_first_branch_prunes_as_if_discovery_had_finished(self):
        # the eager first path and the per-node pace land every snapshot
        # that the search needs before it needs it.  Heawood's first depth-0
        # branch opens 532 nodes and discovery ends at 536 units: a leaf's
        # orbit is joined before its unit is yielded, or the last join waits
        # for a unit the pace no longer pays, and the paced search opens
        # 1,115.  TD(4,5)'s discovery ends in 975 units (1,295 without
        # skipping copies of failed children in its leaf searches, when the
        # paced search opened 1,796 nodes)
        for code, k, expected in [(from_graph(cage("heawood")), 9, (17, 532)),
                                  (from_design(transversal_design(4, 5)), 8, (20, 1240))]:
            profile = analyze._Profile(code, k, analyze.DEFAULT_BUDGET, "file-size search")
            for _ in profile._units:
                pass
            profile.search(k)
            assert (profile.rows[0], profile.opened) == search_cost(code, k)[:2] == expected

    def test_a_capped_k1_search_after_discovery_ran_to_its_end(self):
        # a child list filtered by the chain stops at node n - 1, also where a
        # child at depth 1 is already a leaf
        code = from_graph(cage("petersen"))
        profile = analyze._Profile(code, 1, analyze.DEFAULT_BUDGET, "capped search")
        for _ in profile._units:
            pass
        a_min = min(map(len, code.node_sets))
        assert profile.search(1, cap=a_min + 2) == code.symbol_masks[0]
        assert profile.chain.keys() == {0, 1, 2, 3} and profile.path[0] == 0

    def test_a_non_automorphism_is_rejected(self, monkeypatch):
        code = from_graph(cage("petersen"))
        # vertices 1 and 2 are adjacent: swapping them is not an automorphism
        assert (1, 2) in cage("petersen").edges
        assert not analyze._is_automorphism(code.holder_masks, [1, 0] + list(range(2, 10)))
        # discovery runs as soon as the search has opened a node; with every
        # candidate rejected, the search opens what it opens without
        # discovery.  k = 7: the girth floor settles Petersen up to k = 6
        monkeypatch.setattr(analyze, "_NODES_PER_DISCOVERY_UNIT", 0)
        checked = []

        def reject(holders, perm):
            checked.append(perm)
            return False

        monkeypatch.setattr(analyze, "_is_automorphism", reject)
        rejecting = from_graph(cage("petersen"))
        assert file_size(rejecting, 7) == brute_min_union(rejecting, 7) == 13
        assert checked
        monkeypatch.setattr(analyze, "_discover_orbits", lambda *args: iter(()))
        silent = from_graph(cage("petersen"))
        assert file_size(silent, 7) == 13
        assert rejecting._file_sizes[7][1] == silent._file_sizes[7][1]

    def test_refusal_depends_only_on_code_k_and_budget(self):
        # discovery pays off here: without it the search opens 399,724 nodes
        def make():
            return from_design(projective_plane(5))

        b = smallest_admitted_budget(lambda budget: file_size(make(), 8, budget))
        warm = make()
        assert file_size(warm, 8, budget=b) == 24
        assert warm._file_sizes[8] == (24, b) and b < 5000
        with pytest.raises(BudgetExceededError) as fresh:
            file_size(make(), 8, budget=b - 1)
        with pytest.raises(BudgetExceededError) as memo_hit:
            file_size(warm, 8, budget=b - 1)
        assert str(memo_hit.value) == str(fresh.value)

    def test_td77_k8_runs_at_a_million_nodes(self):
        # the unpruned search opens 2,786,148 nodes; symmetry leaves 329,859
        assert file_size(from_design(transversal_design(7, 7)), 8, budget=10**6) == 31


class TestSetUpFloor:
    """The set-up floors of analyze._Profile: counting, tail, first-fit
    colouring and girth, the last two by Bonferroni with Turan's theorem and
    with the edges k nodes of the node graph induce."""

    @pytest.mark.parametrize("code", SMALL_CODES + [
        from_graph(cage("heawood")), from_design(transversal_design(3, 5)),
        from_design(projective_plane(3))], ids=lambda c: f"n{c.n}t{c.theta}a{c.alpha}r{c.rho}")
    def test_the_floor_never_exceeds_brute_force(self, code):
        profile = analyze._Profile(code, code.n, analyze.DEFAULT_BUDGET, "floor")
        for k in range(1, code.n + 1):
            assert profile.floor(k) <= brute_min_union(code, k), k

    @pytest.mark.parametrize("code,rows", [
        (from_graph(cage("tuttecoxeter")), [3, 5, 7, 9, 11, 13, 15, 16, 18, 20]),
        (from_graph(cage("mcgee")), [3, 5, 7, 9, 11, 13, 14, 16, 18, 19, 21, 22]),
        (from_design(projective_plane(5)), [6, 11, 15, 18, 20, 21, 23, 24, 25]),
        (from_design(transversal_design(5, 7)), [7, 13, 18, 22, 25, 28, 30, 31, 34]),
    ], ids=["tuttecoxeter", "mcgee", "pg5", "td57"])
    def test_the_floor_stays_below_the_benchmark_rows(self, code, rows):
        # rows that exhaustive search found without the colouring and girth floors
        profile = analyze._Profile(code, len(rows), analyze.DEFAULT_BUDGET, "floor")
        floors = [profile.floor(k) for k in range(1, len(rows) + 1)]
        assert all(map(int.__le__, floors, rows)), floors

    @pytest.mark.parametrize("h", [2, 3, 4, 5, 7, 8, 9])
    def test_on_a_transversal_design_the_floor_is_the_td_bound(self, h):
        # first fit in node order finds the ell groups, and k * alpha -
        # T(k, ell) is the TD bound; counting and tail never exceed it for
        # k <= alpha, and above alpha the floor can only rise past it
        for ell in range(2, h + 2):
            code = from_design(transversal_design(ell, h))
            profile = analyze._Profile(code, 1, analyze.DEFAULT_BUDGET, "floor")
            assert profile.colours == ell
            for k in range(1, code.n + 1):
                bound = td_file_size_lower_bound(code.alpha, ell, k)
                if k <= code.alpha:
                    assert profile.floor(k) == bound, (ell, k)
                else:
                    assert profile.floor(k) >= bound, (ell, k)

    def test_the_floor_settles_td57_up_to_k8(self):
        code = from_design(transversal_design(5, 7))
        profile = analyze._Profile(code, 9, analyze.DEFAULT_BUDGET, "floor")
        assert profile.greedy[:8] == [profile.floor(k) for k in range(1, 9)]
        assert profile.greedy[8] > profile.floor(9) == 31

    @pytest.mark.parametrize("make,g", [
        *((lambda name=info.name: from_graph(cage(name)), info.girth) for info in cage_catalog()),
        (lambda: nx_code(nx.pappus_graph()), 6), (lambda: nx_code(nx.desargues_graph()), 6),
    ], ids=[*(info.name for info in cage_catalog()), "pappus", "desargues"])
    def test_the_girth_floor_settles_the_girth_formula_range(self, make, g):
        # the greedy pass finds a path, or a cycle and a path, and the girth
        # floor meets it: every row up to g + ceil(g/2) - 2 opens no node
        code = make()
        assert analyze._girth(code) == g
        k_max = g + (g + 1) // 2 - 2
        assert profile_sizes(code, k_max) == [
            (girth_file_size(code.alpha, g, k), 0) for k in range(1, k_max + 1)]


class TestPaperRelations:
    def test_lemma1_isoperimetric_equivalence(self):
        for g in SMALL_GRAPHS:
            code = from_graph(g)
            alpha = code.alpha
            for k in range(1, g.v + 1):
                assert file_size(code, k) == k * alpha - max_induced_edges(g, k)
                # max_induced_edges runs on this very code: check it apart too
                assert k * alpha - file_size(code, k) == brute_max_edges(g, k)

    def test_lemma2_clique_iff_mbr(self):
        for g in SMALL_GRAPHS:
            code = from_graph(g)
            for k in range(1, g.v + 1):
                at_mbr = file_size(code, k) == mbr_capacity(k, code.alpha)
                assert has_k_clique(g, k) == at_mbr

    def test_lemma4_rho2_cap(self):
        for g in SMALL_GRAPHS:
            code = from_graph(g)
            for k in range(1, code.alpha + 1):
                assert file_size(code, k) <= k * code.alpha - k + 1

    def test_lemma5_girth_iff_tree_like_unions(self):
        for g in SMALL_GRAPHS:
            code = from_graph(g)
            gr = girth(g)
            for k in range(1, g.v + 1):
                lhs = gr >= k + 1
                rhs = file_size(code, k) == k * code.alpha - (k - 1)
                assert lhs == rhs, (g.v, g.e, k)

    def test_theorem3_turan_equalities(self):
        for n, r in turan_instances(10):
            code = from_graph(turan(n, r))
            for k in range(1, code.alpha + 1):
                expected = turan_file_size(n, r, k)
                assert file_size(code, k) == expected
                assert fr_capacity_bound(n, k, code.alpha, 2) == expected

    def test_turan_formula_matches_enumeration_up_to_n24(self):
        # k * alpha - T(k, r) on every (n, r)-Turan code, K_n (r = n)
        # included; (16, 8, 4) is the first case where floor((r - 1) k^2 / 2r)
        # exceeds T(k, r)
        cases = 0
        for n in range(2, 25):
            for r in range(2, n + 1):
                if n % r == 0:
                    code = from_graph(turan(n, r))
                    for k in range(1, min(n, 7) + 1):
                        assert turan_file_size(n, r, k) == file_size(code, k), (n, r, k)
                        cases += 1
        assert turan_file_size(16, 8, 4) == 50 and cases > 300

    def test_theorem4_on_fano_plane(self):
        code = from_design(projective_plane(2))
        # bipartite incidence girth 6 corresponds to g = 3 here
        for k in range(1, 3 + 2 - 2 + 1):
            assert file_size(code, k) == girth_file_size(code.alpha, 3, k)

    @pytest.mark.parametrize("info", cage_catalog(), ids=lambda i: i.name)
    def test_theorem4_full_validity_range_on_cages(self, info):
        code = from_graph(cage(info.name))
        g = info.girth
        for k in range(1, g + (g + 1) // 2 - 2 + 1):
            assert file_size(code, k) == girth_file_size(code.alpha, g, k), k

    def test_lemma1_holds_at_n14(self):
        g = cage("heawood")
        code = from_graph(g)
        for k in range(1, 15):
            assert file_size(code, k) == k * 3 - max_induced_edges(g, k)
            assert k * 3 - file_size(code, k) == brute_max_edges(g, k)

    def test_corollary2_petersen_optimal(self):
        code = from_graph(cage("petersen"))
        for k in range(1, code.alpha + 1):
            assert file_size(code, k) == fr_capacity_bound(code.n, k, code.alpha, 2)


class TestCapacityProfile:
    def test_td34_profile(self):
        profile = capacity_profile(from_design(transversal_design(3, 4)))
        assert [r.exact for r in profile.rows] == [4, 7, 9, 11]
        assert [r.phi for r in profile.rows] == [4, 7, 9, 11]
        assert profile.optimal is True
        assert profile.universally_good is True
        assert profile.cross_check() == []

    def test_published_block_list_gives_same_profile(self, paper_td34):
        # the verbatim published TD(3,4) and the generated one are different
        # labelings of the same design, so their capacity tables coincide
        profile = capacity_profile(from_design(paper_td34))
        assert [r.exact for r in profile.rows] == [4, 7, 9, 11]
        assert profile.optimal is True

    def test_k33_profile(self):
        profile = capacity_profile(from_graph(turan(6, 2)))
        assert profile.row(3).exact == 7 == profile.row(3).phi

    def test_k3_sits_at_mbr(self):
        profile = capacity_profile(from_graph(turan(3, 3)))
        assert [r.exact for r in profile.rows] == [2, 3]
        assert all(r.exact == r.mbr for r in profile.rows)
        assert profile.universally_good is True
        assert profile.optimal is True

    def test_partial_range_leaves_verdicts_open(self):
        profile = capacity_profile(from_design(transversal_design(3, 4)), k_max=2)
        assert profile.universally_good is None
        assert profile.optimal is None

    def test_rows_non_decreasing_and_bounded(self):
        for code in SMALL_CODES:
            profile = capacity_profile(code, k_max=min(code.n, code.alpha + 2))
            values = [r.exact for r in profile.rows]
            assert values == sorted(values)
            for r in profile.rows:
                assert r.exact <= code.theta

    def test_lemma7_column_on_8_vertex_cubic(self):
        cube = turan(8, 4)  # 6-regular, not the target; use a cubic graph instead
        g = Graph(v=8, edges=[(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8),
                              (1, 8), (1, 5), (2, 6), (3, 7), (4, 8)])  # cubic on 8
        assert set(g.degrees()) == {3}
        profile = capacity_profile(from_graph(g), k_max=5)
        assert profile.row(4).lemma7_cap == profile.row(4).phi - 1
        assert profile.row(4).lemma7_exact is True
        del cube

    def test_json_report_schema_and_determinism(self):
        profile = capacity_profile(from_design(transversal_design(3, 4)))
        doc = json.loads(profile.to_json())
        assert doc["schema"] == "frepkit-report/1"
        assert doc["rows"][0] == {
            "k": 1, "M": 4, "phi": 4, "mbr": 4,
            "caps": {"rho2": None, "lemma7": None},
            "k_optimal": True, "phi_possibly_loose": False,
        }
        assert profile.to_json() == profile.to_json()
        assert profile.to_text() == profile.to_text()

    @pytest.mark.parametrize("code,expected", [
        (from_graph(cage("tuttecoxeter")), [3, 5, 7, 9, 11, 13, 15, 16, 18, 20]),
        (from_graph(cage("mcgee")), [3, 5, 7, 9, 11, 13, 14, 16, 18, 19, 21, 22]),
        (from_design(projective_plane(5)), [6, 11, 15, 18, 20, 21, 23, 24, 25]),
        (from_design(transversal_design(5, 7)), [7, 13, 18, 22, 25, 28, 30, 31]),
    ], ids=["tuttecoxeter", "mcgee", "pg5", "td57"])
    def test_rows_on_the_benchmark_codes(self, code, expected):
        # the rows the capacity benchmark's `analyze` runs must print
        assert [r.exact for r in capacity_profile(code, len(expected)).rows] == expected

    @pytest.mark.parametrize("make,expected", [
        (lambda: from_graph(cage("tuttecoxeter")), [
            (3, 0), (5, 0), (7, 0), (9, 0), (11, 0), (13, 0), (15, 0), (16, 0), (18, 0), (20, 0)]),
        (lambda: from_graph(cage("heawood")),
         [(3, 0), (5, 0), (7, 0), (9, 0), (11, 0), (12, 0), (14, 0), (15, 86),
          (17, 303), (18, 104), (19, 55), (20, 20), (21, 12), (21, 0)]),
        (lambda: from_graph(cage("mcgee")),
         [(3, 0), (5, 0), (7, 0), (9, 0), (11, 0), (13, 0), (14, 0),
          (16, 0), (18, 0), (19, 1966), (21, 5114), (22, 3308)]),
    ], ids=["tuttecoxeter", "heawood", "mcgee"])
    def test_the_profile_schedule_is_pinned(self, make, expected):
        """(M(k), search nodes opened) for each k of one profile pass; the
        counts move with any change to the bounds from the rows below, the
        shared greedy pass or the shared discovery.  The girth floor settles
        each cage up to g + ceil(g/2) - 2: Tutte-Coxeter to k = 10 (42,171
        nodes without it), Heawood to k = 7 and McGee to k = 9.

        That no k-search of the profile opens more nodes than the standalone
        file_size search is an observed regression check, not a theorem:
        discovery is paid per node opened, so a search that opens fewer nodes
        early may prove its orbits later."""
        sizes = profile_sizes(make(), len(expected))
        assert sizes == expected
        for k, (_, nodes) in enumerate(sizes, start=1):
            alone = make()
            file_size(alone, k)
            assert nodes <= alone._file_sizes[k][1], k

    @pytest.mark.parametrize("make,expected", [
        (lambda: from_design(transversal_design(5, 7)),
         [(7, 0), (13, 0), (18, 0), (22, 0), (25, 0), (28, 0), (30, 0), (31, 0),
          (34, 54663)]),
        (lambda: from_design(projective_plane(5)),
         [(6, 0), (11, 0), (15, 0), (18, 0), (20, 0), (21, 0), (23, 4931),
          (24, 1467), (25, 4259)]),
    ], ids=["td57", "pg5"])
    def test_the_design_profile_schedule_is_pinned(self, make, expected):
        # (M(k), search nodes opened) on the designs: the colouring floor
        # settles TD(5,7) up to k = 8 in set-up (the profile opened 114,131
        # nodes without it; k = 9 opened 101,727 before the search skipped
        # earlier orbits below each child of a path node).  Discovery records the chain deepest first, so
        # PG(2,5) prunes below node 0 by its stabilizer's orbits from k = 8 on
        sizes = profile_sizes(make(), len(expected))
        assert sizes == expected
        for k, (_, nodes) in enumerate(sizes, start=1):
            alone = make()
            file_size(alone, k)
            assert nodes <= alone._file_sizes[k][1], k

    def test_the_profile_neither_reads_nor_writes_the_memo(self):
        code = from_graph(cage("petersen"))
        assert [r.exact for r in capacity_profile(code).rows] == [3, 5, 7]
        assert code._file_sizes == {}
        code._file_sizes[2] = (99, 0)
        assert [r.exact for r in capacity_profile(code).rows] == [3, 5, 7]
        assert file_size(code, 2) == 99

    def test_refusal_depends_only_on_code_k_max_and_budget(self):
        # the k-searches share the budget: the profile refuses below their
        # total count and runs from it on
        def make():
            return from_graph(cage("mcgee"))

        sizes = profile_sizes(make(), 12)
        assert [nodes for _, nodes in sizes] == [0] * 9 + [1966, 5114, 3308]
        total = sum(nodes for _, nodes in sizes)
        assert total == 10388
        assert len(capacity_profile(make(), 12, budget=total).rows) == 12
        with pytest.raises(BudgetExceededError) as refused:
            capacity_profile(make(), 12, budget=total - 1)
        assert str(refused.value) == (
            "capacity-profile search over k-subsets of 24 nodes, k <= 12 needs more "
            "than 10387 search nodes; raise the budget to run this exactly")

    def test_a_search_needs_exactly_the_rows_below_it(self):
        # the floor reads rows[-1] as M(k - 1) and the rows-below cut reads
        # rows[1:] by depth, so a second search(3) after k = 1..4 would take
        # M(4) for M(2)
        profile = analyze._Profile(from_graph(cage("petersen")), 4, analyze.DEFAULT_BUDGET,
                                   "profile search")
        for k in range(1, 5):
            profile.search(k)
        with pytest.raises(ParameterError, match=r"search\(3\) needs rows M\(1\.\.2\)"):
            profile.search(3)
        assert profile.rows == [3, 5, 7, 9]

    def test_cross_check_catches_lying_header(self):
        # a K33 code whose header claims rho=3 computes a phi below the true M
        code = FrCode(6, 9, 3, 3, from_graph(turan(6, 2)).node_sets)
        profile = capacity_profile(code)
        assert any("phi" in p for p in profile.cross_check())

    # K33: M = 3, 5, 7 meets phi and the rho=2 cap at every k <= alpha
    @pytest.mark.parametrize("k,exact,problem", [
        (2, 2, "M(2) = 2 decreased below M(1) = 3"),
        (2, 6, "M(2) = 6 exceeds the rho=2 cap 5"),
        (3, 10, "M(3) = 10 exceeds theta = 9"),
    ], ids=["decrease", "rho2-cap", "theta"])
    def test_cross_check_catches_planted_rows(self, k, exact, problem):
        profile = capacity_profile(from_graph(turan(6, 2)))
        assert [r.exact for r in profile.rows] == [3, 5, 7] and profile.cross_check() == []
        rows = list(profile.rows)
        rows[k - 1] = rows[k - 1]._replace(exact=exact)
        assert problem in profile._replace(rows=tuple(rows)).cross_check()


class TestReferenceCycles:
    def test_searches_free_their_inputs_without_the_cyclic_collector(self):
        # the recursive search closures refer to themselves; each search
        # breaks that cycle on the way out, refusal included, so a code dies
        # with its last reference and nothing is left for the collector
        searches = [
            (lambda: from_graph(cage("tuttecoxeter")), lambda c: file_size(c, 6)),
            (lambda: from_graph(cage("tuttecoxeter")), lambda c: file_size(c, 9, budget=100)),
            (lambda: from_graph(cage("petersen")), capacity_profile),
            (lambda: from_graph(cage("tuttecoxeter")), lambda c: capacity_profile(c, 8)),
            (lambda: from_graph(cage("tuttecoxeter")),
             lambda c: capacity_profile(c, 8, budget=100)),
            (lambda: cage("petersen"), lambda g: max_induced_edges(g, 5)),
            (lambda: cage("petersen"), lambda g: max_induced_edges(g, 5, budget=3)),
            (lambda: cage("petersen"), lambda g: has_k_clique(g, 3)),
        ]
        gc.collect()
        gc.disable()
        try:
            for i, (make, search) in enumerate(searches):
                subject = make()
                ref = weakref.ref(subject)
                try:
                    search(subject)
                except BudgetExceededError:
                    pass
                del subject
                assert ref() is None, i
                assert gc.collect() == 0, i
        finally:
            gc.enable()
