import random
import sys
from contextlib import contextmanager
from itertools import combinations

import networkx as nx
import pytest
from conftest import (
    assert_valid_batch_witness,
    brute_batch_t_detail,
    brute_hall_ok,
    nx_code,
    oracle_maximum_matching,
    rho2_batch_t,
    smallest_admitted_budget,
)

from frepkit import (
    BatchPlan,
    BudgetExceededError,
    FrbDefinitionError,
    FrepkitError,
    FrCode,
    Graph,
    NoPlan,
    ParameterError,
    batch_t,
    batch_t_detail,
    file_size,
    frb_certify,
    from_design,
    from_graph,
    max_induced_edges,
    projective_plane,
    retrieval_plan,
    theorem5_predicted_t,
    transversal_design,
    turan,
)
from frepkit import batch
from frepkit.construct import cage
from frepkit.matching import hall_witness, maximum_matching


def _masks(neighbors):
    """Adjacency lists of right positions as masks: bit r for position r."""
    return [sum(1 << r for r in adj) for adj in neighbors]


class TestMatching:
    def test_perfect_matching(self):
        match = maximum_matching(_masks([[1, 2], [1], [2, 3]]))
        assert None not in match
        assert len(set(match)) == 3

    def test_deficient_graph_witness(self):
        masks = _masks([[1], [1], [1, 2]])
        match = maximum_matching(masks)
        assert match.count(None) == 1
        witness, neighborhood = hall_witness(masks, match)
        assert set(witness) == {0, 1}
        assert neighborhood == [1]

    def test_witness_from_non_deficient_matching_raises(self):
        with pytest.raises(FrepkitError, match="non-deficient"):
            hall_witness(_masks([[0]]), [None])
        with pytest.raises(FrepkitError, match="non-deficient"):
            hall_witness([1], [0])  # a full matching has no unmatched vertex to start from

    def test_deterministic(self):
        masks = _masks([[2, 1], [1, 3], [3, 2], [2]])
        assert maximum_matching(masks) == maximum_matching(masks)


def path_code(n):
    """Symbol j < n on nodes j and j + 1, symbol n on node 1 only.  The
    greedy pass gives symbol j node j and leaves symbol n unmatched, so a
    plan for all n symbols takes an augmenting path through every node."""
    return FrCode(n, n, 2, 2, [[1, n], *([i - 1, i] for i in range(2, n)), [n - 1]])


@contextmanager
def recursion_limit_raised_by(frames):
    """The recursive references take a frame per step of an augmenting path."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


class TestLongAugmentingPaths:
    def test_path_code_plan_equals_the_recursive_matcher(self):
        n = 1201
        code = path_code(n)
        masks = list(code.holder_masks)
        with pytest.raises(RecursionError):
            oracle_maximum_matching(masks)  # past the default limit of 1000 frames
        with recursion_limit_raised_by(2 * n):
            match = oracle_maximum_matching(masks)
        request = tuple(range(1, n + 1))
        assert retrieval_plan(code, request) == BatchPlan(
            symbols=request, assignment=tuple(zip(request, [r + 1 for r in match])))
        assert match == [*range(1, n), 0]

    def test_path_code_plan_size_equals_hopcroft_karp(self):
        n = 5000
        code = path_code(n)
        plan = retrieval_plan(code, range(1, n + 1))
        B = nx.Graph()
        B.add_edges_from((("s", j), i) for i, s in enumerate(code.node_sets, 1) for j in s)
        top = [("s", j) for j in range(1, n + 1)]
        with recursion_limit_raised_by(4 * n):
            theirs = len(nx.bipartite.hopcroft_karp_matching(B, top)) // 2
        assert isinstance(plan, BatchPlan)
        assert len(plan.assignment) == theirs == n
        assert sorted(i for _, i in plan.assignment) == list(range(1, n + 1))
        assert all(j in code.node_sets[i - 1] for j, i in plan.assignment)


class TestRetrievalPlan:
    def test_k33_every_five_symbol_request_has_a_plan(self):
        code = from_graph(turan(6, 2))
        for request in combinations(range(1, 10), 5):
            plan = retrieval_plan(code, request)
            assert isinstance(plan, BatchPlan)

    def test_k33_induced_k32_has_no_plan(self):
        code = from_graph(turan(6, 2))
        # parts are {1,2,3} and {4,5,6}; the edges inside {1,2,3,4,5} form an
        # induced K_{3,2}: 6 symbols stored on only 5 nodes
        request = [j for j, ends in enumerate(_edge_endpoints(code), start=1)
                   if set(ends) <= {1, 2, 3, 4, 5}]
        assert len(request) == 6
        result = retrieval_plan(code, request)
        assert isinstance(result, NoPlan)
        assert len(result.neighborhood) == 5
        assert len(result.witness) == 6

    def test_single_symbol_always_plannable(self):
        for code in [from_graph(turan(3, 3)), from_design(transversal_design(3, 4))]:
            for j in range(1, code.theta + 1):
                assert isinstance(retrieval_plan(code, [j]), BatchPlan)

    def test_plans_are_valid_assignments(self):
        code = from_design(transversal_design(3, 4))
        plan = retrieval_plan(code, range(1, 12))
        assert isinstance(plan, BatchPlan)
        nodes_used = [node for _, node in plan.assignment]
        assert len(set(nodes_used)) == len(nodes_used)
        for symbol, node in plan.assignment:
            assert symbol in code.node_sets[node - 1]

    def test_plan_lists_symbols_ascending(self):
        code = from_graph(turan(3, 3))
        plan = retrieval_plan(code, [3, 1])
        assert [j for j, _ in plan.assignment] == [1, 3]

    def test_duplicate_request_rejected(self):
        code = from_graph(turan(3, 3))
        with pytest.raises(ParameterError, match="distinct"):
            retrieval_plan(code, [1, 1, 2])

    def test_out_of_range_request_rejected(self):
        code = from_graph(turan(3, 3))
        with pytest.raises(ParameterError):
            retrieval_plan(code, [4])

    @pytest.mark.parametrize("request_", [[1.5], [True], [2, 1.0], ["1", 2]],
                             ids=["float", "bool", "integral-float", "str"])
    def test_non_integer_symbol_rejected(self, request_):
        code = from_graph(turan(3, 3))
        with pytest.raises(ParameterError, match="^symbol .* is not an integer$"):
            retrieval_plan(code, request_)

    def test_hall_duality_exhaustive_small(self):
        # matcher verdict must coincide with Hall's condition on every
        # request of these theta <= 12 codes
        codes = [
            from_graph(turan(3, 3)),
            from_graph(turan(6, 2)),
            FrCode(4, 4, 2, 2, [(1, 2), (1, 2), (3, 4), (3, 4)]),
            from_design(projective_plane(2)),
        ]
        for code in codes:
            for r in range(1, code.theta + 1):
                for request in combinations(range(1, code.theta + 1), r):
                    plannable = isinstance(retrieval_plan(code, request), BatchPlan)
                    assert plannable == brute_hall_ok(code, request)


class TestBatchT:
    def test_k33(self):
        assert batch_t(from_graph(turan(6, 2))) == 5

    def test_td34(self):
        assert batch_t(from_design(transversal_design(3, 4))) == 11

    def test_td34_published_block_list(self, paper_td34):
        assert batch_t(from_design(paper_td34)) == 11

    def test_triangle_reaches_theta(self):
        detail = batch_t_detail(from_graph(turan(3, 3)))
        assert detail.t == 3
        assert detail.witness is None

    def test_petersen_exact(self):
        assert batch_t(from_graph(cage("petersen"))) == 7

    def test_maximality_certificates_k33(self):
        code = from_graph(turan(6, 2))
        detail = batch_t_detail(code)
        assert detail.t == 5
        # certificate 1: every 5-subset has a plan
        for request in combinations(range(1, 10), 5):
            assert isinstance(retrieval_plan(code, request), BatchPlan)
        # certificate 2: the witness 6-subset has none
        assert len(detail.witness) == 6
        assert isinstance(retrieval_plan(code, detail.witness), NoPlan)

    def test_maximality_certificates_td34(self):
        code = from_design(transversal_design(3, 4))
        detail = batch_t_detail(code)
        assert detail.t == 11
        for request in combinations(range(1, 17), 11):
            assert isinstance(retrieval_plan(code, request), BatchPlan)
        assert isinstance(retrieval_plan(code, detail.witness), NoPlan)

    def test_budget_refusal(self):
        code = from_design(transversal_design(3, 4))
        with pytest.raises(BudgetExceededError):
            batch_t(code, budget=3)


class TestFrbCertify:
    def test_k33_tuple(self):
        cert = frb_certify(from_graph(turan(6, 2)), k=3)
        assert cert.tuple_str == "2-(6, 7, 3, 3, 5)"
        assert cert.all_properties_hold

    def test_td34_tuple(self):
        cert = frb_certify(from_design(transversal_design(3, 4)), k=4)
        assert cert.tuple_str == "3-(12, 11, 4, 4, 11)"
        assert cert.all_properties_hold

    def test_petersen_tuple(self):
        cert = frb_certify(from_graph(cage("petersen")), k=4)
        assert (cert.rho, cert.n, cert.file_size, cert.k, cert.alpha) == (2, 10, 9, 4, 3)
        assert cert.t == 7
        assert cert.t >= theorem5_predicted_t("girth", g=5)

    def test_t_exceeding_m_is_reported_not_clipped(self):
        # at k = 1 the K33 code stores only M = 3 < t = 5
        with pytest.raises(FrbDefinitionError, match="t = 5 exceeds file size M = 3"):
            frb_certify(from_graph(turan(6, 2)), k=1)

    def test_k_beyond_n_rejected(self):
        with pytest.raises(ParameterError):
            frb_certify(from_graph(turan(6, 2)), k=7)


class TestTheorem5:
    def test_predictions(self):
        assert theorem5_predicted_t("complete_bipartite", alpha=3) == 5
        assert theorem5_predicted_t("girth", g=5) == 7
        assert theorem5_predicted_t("resolvable_td", alpha=4) == 11

    def test_preconditions(self):
        with pytest.raises(ParameterError):
            theorem5_predicted_t("complete_bipartite", alpha=2)
        with pytest.raises(ParameterError):
            theorem5_predicted_t("resolvable_td", alpha=6)
        with pytest.raises(ParameterError):
            theorem5_predicted_t("no_such_family")
        for family in ("complete_bipartite", "girth", "resolvable_td"):
            with pytest.raises(ParameterError, match="needs the parameter"):
                theorem5_predicted_t(family)

    @pytest.mark.parametrize("g", [2, 0, -1])
    def test_girth_below_three_is_refused(self, g):
        with pytest.raises(ParameterError, match=f"^girth must be at least 3, got {g}$"):
            theorem5_predicted_t("girth", g=g)

    @pytest.mark.parametrize("family,name,value", [
        ("girth", "g", 7.0),
        ("girth", "g", True),
        ("complete_bipartite", "alpha", 4.0),
        ("complete_bipartite", "alpha", "3"),
        ("resolvable_td", "alpha", 4.0),
    ])
    def test_non_integer_parameters_are_refused(self, family, name, value):
        with pytest.raises(ParameterError, match=f"^{name} {value!r} is not an integer$"):
            theorem5_predicted_t(family, **{name: value})

    def test_exact_t_dominates_prediction_in_family(self):
        cases = [
            (from_graph(turan(6, 2)), theorem5_predicted_t("complete_bipartite", alpha=3)),
            (from_graph(turan(8, 2)), theorem5_predicted_t("complete_bipartite", alpha=4)),
            (from_graph(cage("petersen")), theorem5_predicted_t("girth", g=5)),
            (from_graph(cage("heawood")), theorem5_predicted_t("girth", g=6)),
            (from_design(transversal_design(3, 4)),
             theorem5_predicted_t("resolvable_td", alpha=4)),
        ]
        for code, predicted in cases:
            assert batch_t(code) >= predicted

    # The paper proves only t >= the guarantee; on these codes the exact t
    # meets it.  McGee and Tutte-Coxeter are pinned in TestTheorem5InReach.
    @pytest.mark.parametrize("code,family,params", [
        *((lambda a=a: from_graph(turan(2 * a, 2)), "complete_bipartite", {"alpha": a})
          for a in range(3, 9)),
        (lambda: from_graph(cage("petersen")), "girth", {"g": 5}),
        (lambda: from_graph(cage("heawood")), "girth", {"g": 6}),
        *((lambda a=a: from_design(transversal_design(a - 1, a)), "resolvable_td",
           {"alpha": a}) for a in (3, 4, 5)),
    ], ids=[*(f"k{a}{a}" for a in range(3, 9)), "petersen", "heawood", "td23", "td34",
            "td45"])
    def test_exact_t_equals_the_guarantee(self, code, family, params):
        assert batch_t(code()) == theorem5_predicted_t(family, **params)


ORACLE_CATALOG = {
    "k33": lambda: from_graph(turan(6, 2)),
    "turan-3-3": lambda: from_graph(turan(3, 3)),
    "turan-6-3": lambda: from_graph(turan(6, 3)),
    "turan-8-2": lambda: from_graph(turan(8, 2)),
    "turan-9-3": lambda: from_graph(turan(9, 3)),
    "petersen": lambda: from_graph(cage("petersen")),
    "heawood": lambda: from_graph(cage("heawood")),
    "td33": lambda: from_design(transversal_design(3, 3)),
    "td34": lambda: from_design(transversal_design(3, 4)),
    "td35": lambda: from_design(transversal_design(3, 5)),
    "pg2": lambda: from_design(projective_plane(2)),
    "pg3": lambda: from_design(projective_plane(3)),
}


def _relabel_symbols(code, seed):
    perm = list(range(1, code.theta + 1))
    random.Random(seed).shuffle(perm)
    return FrCode(code.n, code.theta, code.alpha, code.rho,
                  [[perm[j - 1] for j in s] for s in code.node_sets])


def _relabel_nodes(code, seed):
    order = list(range(code.n))
    random.Random(seed).shuffle(order)
    return FrCode(code.n, code.theta, code.alpha, code.rho,
                  [code.node_sets[i] for i in order])


def _random_irregular_code(rng):
    """n <= 14 nodes; symbols stored 0 to 4 times, mostly twice."""
    n = rng.randrange(2, 15)
    theta = rng.randrange(2, 2 * n + 3)
    node_sets = [[] for _ in range(n)]
    for j in range(1, theta + 1):
        rho = rng.choices([0, 1, 2, 3, 4], weights=[1, 6, 30, 10, 3])[0]
        for i in rng.sample(range(n), min(rho, n)):
            node_sets[i].append(j)
    return FrCode(n, theta, 1, 1, node_sets)


def _assert_matches_oracle(code):
    detail = batch_t_detail(code)
    assert detail.t == brute_batch_t_detail(code).t, code.node_sets
    assert_valid_batch_witness(code, detail)


class TestBatchTAgainstOracle:
    """The dual min-union search against the plain combinations scan."""

    @pytest.mark.parametrize("relabel", ["none", "symbols", "nodes"])
    @pytest.mark.parametrize("name", sorted(ORACLE_CATALOG))
    def test_catalog(self, name, relabel):
        code = ORACLE_CATALOG[name]()
        if relabel == "symbols":
            code = _relabel_symbols(code, seed=len(name))
        elif relabel == "nodes":
            code = _relabel_nodes(code, seed=len(name))
        _assert_matches_oracle(code)

    def test_random_irregular_codes(self):
        rng = random.Random(606)
        t_seen = set()
        for _ in range(300):
            code = _random_irregular_code(rng)
            _assert_matches_oracle(code)
            t_seen.add(batch_t(code))
        # the sweep reaches unstored symbols (t = 0) and deep searches alike
        assert {0, 1, 2, 8} <= t_seen

    def test_witnesses_are_pinned(self):
        # the search order is fixed, so the witness is too
        k33 = batch_t_detail(from_graph(turan(6, 2)))
        assert (k33.witness, k33.witness_nodes) == ((1, 2, 3, 4, 5, 6), (1, 2, 4, 5, 6))
        petersen = batch_t_detail(from_graph(cage("petersen")))
        assert (petersen.witness, petersen.witness_nodes) == (
            (1, 2, 3, 4, 6, 7, 8, 11), (1, 2, 3, 4, 5, 6, 8))


# rho = 2 codes and their exact t
GRAPH_CODES = {
    "k33": (lambda: from_graph(turan(6, 2)), 5),
    "petersen": (lambda: nx_code(nx.petersen_graph()), 7),
    "heawood": (lambda: nx_code(nx.heawood_graph()), 8),
    "pappus": (lambda: nx_code(nx.pappus_graph()), 9),
    "desargues": (lambda: nx_code(nx.desargues_graph()), 9),
}


class TestBatchTAgainstGraphOracle:
    """On rho = 2 codes t has a graph form: networkx's cycles against both
    the dual min-union search and the node-side scan."""

    @pytest.mark.parametrize("relabel", [False, True], ids=["as-built", "relabelled"])
    @pytest.mark.parametrize("name", sorted(GRAPH_CODES))
    def test_graph_codes(self, name, relabel):
        make, t = GRAPH_CODES[name]
        code = make()
        if relabel:
            code = _relabel_nodes(_relabel_symbols(code, seed=len(name)), seed=len(name))
        assert rho2_batch_t(code) == t
        assert batch_t_detail(code).t == brute_batch_t_detail(code).t == t


class TestBudgetContract:
    """Refusal depends on the search nodes the sizes open together, in their
    fixed order; the floors are not charged."""

    @pytest.mark.parametrize("make,t", [
        (lambda: from_design(transversal_design(3, 4)), 11),
        (lambda: from_graph(cage("petersen")), 7),
        (lambda: from_graph(turan(6, 2)), 5),
    ], ids=["td34", "petersen", "k33"])
    def test_exact_budget_runs_one_less_refuses(self, make, t):
        b = smallest_admitted_budget(lambda budget: batch_t_detail(make(), budget))
        assert b >= 1
        assert brute_batch_t_detail(make()).t == t
        assert batch_t_detail(make(), budget=b).t == batch_t_detail(make(), budget=b + 1).t == t
        with pytest.raises(BudgetExceededError) as refused:
            batch_t_detail(make(), budget=b - 1)
        assert str(refused.value) == (
            f"deficiency search over sets of {make().theta} symbols needs more "
            f"than {b - 1} search nodes; raise the budget to run this exactly")

    def test_plane_runs_at_budget_zero(self):
        # the floors settle every size, so nothing is searched
        for q in (3, 5):
            code = from_design(projective_plane(q))
            assert batch_t_detail(code, budget=0).t == code.theta

    def test_negative_budget_is_a_parameter_error(self):
        code = from_graph(turan(6, 2))
        for call in (lambda: batch_t_detail(code, budget=-1),
                     lambda: file_size(code, 3, budget=-1),
                     lambda: max_induced_edges(turan(6, 2), 3, budget=-1)):
            with pytest.raises(ParameterError, match="budget must be non-negative"):
                call()


class TestTheorem5InReach:
    """Codes the subset scan was too slow for."""

    def test_mcgee(self):
        assert batch_t(from_graph(cage("mcgee"))) == 10 == theorem5_predicted_t("girth", g=7)

    def test_tutte_coxeter(self):
        code = from_graph(cage("tuttecoxeter"))
        detail = batch_t_detail(code)
        assert detail.t == 11 == theorem5_predicted_t("girth", g=8)
        assert isinstance(retrieval_plan(code, detail.witness), NoPlan)

    def test_pg24_decided_by_the_counting_bound(self):
        # the kernel's counting floor on the dual, ceil(s * rho / min(alpha, s)),
        # is at least s when rho = alpha, so no size opens a search node
        code = from_design(projective_plane(4))
        detail = batch_t_detail(code, budget=0)
        assert (detail.t, detail.witness) == (code.theta, None) == (21, None)

    def test_td38(self):
        # the deficient sets are large here, yet the search stays well within 10**6 nodes
        code = from_design(transversal_design(3, 8))
        detail = batch_t_detail(code, budget=10**6)
        assert detail.t == 11 and len(detail.witness_nodes) == 11
        assert isinstance(retrieval_plan(code, detail.witness), NoPlan)

    def test_unstored_symbol_gives_t0_at_budget_zero(self):
        code = FrCode(3, 4, 2, 2, [[1, 2], [2, 4], [1, 4]])
        assert batch_t_detail(code, budget=0) == batch.BatchTResult(
            t=0, witness=(3,), witness_nodes=())


def _edge_endpoints(code):
    """Recover each symbol's two endpoints from a rho=2 code."""
    return [tuple(i for i, s in enumerate(code.node_sets, start=1) if j in s)
            for j in range(1, code.theta + 1)]


# the codes of the batch-sparse and batch-dense benchmark workloads, with t
BENCH_CODES = {
    "petersen": (lambda: nx_code(nx.petersen_graph()), 7),
    "heawood": (lambda: nx_code(nx.heawood_graph()), 8),
    "pappus": (lambda: nx_code(nx.pappus_graph()), 9),
    "desargues": (lambda: nx_code(nx.desargues_graph()), 9),
    "td34": (lambda: from_design(transversal_design(3, 4)), 11),
    "td35": (lambda: from_design(transversal_design(3, 5)), 12),
    "pg3": (lambda: from_design(projective_plane(3)), 13),
    "td45": (lambda: from_design(transversal_design(4, 5)), 19),
}


class TestPlansOnBenchmarkCodes:
    @pytest.mark.parametrize("name", sorted(BENCH_CODES))
    def test_plans_are_valid_and_agree_with_hall(self, name):
        make, t = BENCH_CODES[name]
        code = make()
        witness = batch_t_detail(code).witness or ()  # pg3 has t = theta, so none
        rng = random.Random(len(name))
        smallest = noplans = 0
        for trial in range(150):
            if trial % 3 == 0:
                request = rng.sample(range(1, code.theta + 1), min(t + trial % 2, code.theta))
            elif trial % 3 == 1 and witness:
                # a deficient request: the maximality witness and a few more symbols
                others = [j for j in range(1, code.theta + 1) if j not in witness]
                request = [*witness, *rng.sample(others, rng.randrange(3))]
            else:
                request = rng.sample(range(1, code.theta + 1), rng.randrange(1, 10))
            request.sort()
            plan = retrieval_plan(code, request)
            if isinstance(plan, BatchPlan):
                assert [j for j, _ in plan.assignment] == request
                nodes = [i for _, i in plan.assignment]
                assert len(set(nodes)) == len(nodes)
                assert all(j in code.node_sets[i - 1] for j, i in plan.assignment)
                lowest = [code.nodes_of_symbol[j - 1][0] for j in request]
                if len(set(lowest)) == len(lowest):
                    # the greedy pass gives each symbol its smallest holder
                    smallest += 1
                    assert nodes == lowest, request
            else:
                noplans += 1
                touched = {i for j in plan.witness for i in code.nodes_of_symbol[j - 1]}
                assert set(plan.witness) <= set(request)
                assert plan.neighborhood == tuple(sorted(touched))
                assert len(touched) == len(plan.witness) - 1
            if len(request) <= 12:
                assert isinstance(plan, BatchPlan) == brute_hall_ok(code, request), request
        assert smallest >= 10 and (noplans >= 50) == bool(witness)
