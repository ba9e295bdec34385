import random
from itertools import combinations

import networkx as nx
import pytest
from conftest import brute_batch_t_detail, brute_hall_ok, rho2_batch_t, smallest_admitted_budget

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


class TestMatching:
    def test_perfect_matching(self):
        match = maximum_matching([[1, 2], [1], [2, 3]])
        assert None not in match
        assert len(set(match)) == 3

    def test_deficient_graph_witness(self):
        neighbors = [[1], [1], [1, 2]]
        match = maximum_matching(neighbors)
        assert match.count(None) == 1
        witness, neighborhood = hall_witness(neighbors, match)
        assert set(witness) == {0, 1}
        assert neighborhood == [1]

    def test_witness_from_non_deficient_matching_raises(self):
        with pytest.raises(FrepkitError, match="non-deficient"):
            hall_witness([[0]], [None])

    def test_deterministic(self):
        neighbors = [[2, 1], [1, 3], [3, 2], [2]]
        assert maximum_matching(neighbors) == maximum_matching(neighbors)


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

    def test_plan_text_export(self):
        code = from_graph(turan(3, 3))
        plan = retrieval_plan(code, [1, 3])
        lines = plan.to_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("1 -> node ")

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
    if detail.witness is None:
        assert detail.t == code.theta and detail.witness_nodes is None
        return
    assert len(detail.witness) == detail.t + 1
    assert len(detail.witness_nodes) == detail.t
    holders = {i for j in detail.witness for i in code.nodes_of_symbol[j - 1]}
    assert holders <= set(detail.witness_nodes)
    assert isinstance(retrieval_plan(code, detail.witness), NoPlan)


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


def _nx_code(graph):
    return from_graph(Graph(v=graph.number_of_nodes(),
                            edges=sorted((u + 1, w + 1) for u, w in graph.edges)))


# rho = 2 codes and their exact t
GRAPH_CODES = {
    "k33": (lambda: from_graph(turan(6, 2)), 5),
    "petersen": (lambda: _nx_code(nx.petersen_graph()), 7),
    "heawood": (lambda: _nx_code(nx.heawood_graph()), 8),
    "pappus": (lambda: _nx_code(nx.pappus_graph()), 9),
    "desargues": (lambda: _nx_code(nx.desargues_graph()), 9),
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
