import re

import networkx as nx
import pytest
from conftest import brute_min_union, to_networkx

from frepkit import (
    GF,
    ParameterError,
    file_size,
    from_design,
    girth,
    girth_file_size,
    has_k_clique,
    moore_bound,
    projective_plane,
    transversal_design,
    turan,
)
from frepkit.construct import cage, cage_catalog


@pytest.mark.parametrize("call,name", [
    (lambda: GF(4.0), "field order 4.0"),
    (lambda: GF(True), "field order True"),
    (lambda: turan(6.0, 2), "vertex count 6.0"),
    (lambda: turan(6, 2.0), "part count 2.0"),
    (lambda: transversal_design(3, 4.0), "field order 4.0"),
    (lambda: transversal_design(3.0, 4), "group count 3.0"),
    (lambda: projective_plane(2.0), "field order 2.0"),
], ids=["gf", "gf-bool", "turan-n", "turan-r", "td-h", "td-ell", "plane"])
def test_constructors_refuse_non_integers(call, name):
    with pytest.raises(ParameterError, match=f"^{re.escape(name)} is not an integer$"):
        call()


class TestTuran:
    def test_k33(self):
        g = turan(6, 2)
        assert g.e == 9
        assert set(g.degrees()) == {3}
        assert nx.is_isomorphic(to_networkx(g), nx.complete_bipartite_graph(3, 3))

    def test_complete_graph(self):
        g = turan(5, 5)
        assert set(g.degrees()) == {4}
        assert g.e == 10

    def test_k222(self):
        g = turan(6, 3)
        assert set(g.degrees()) == {4}
        assert g.e == 12

    def test_rejects_nondivisor(self):
        with pytest.raises(ParameterError, match="does not divide"):
            turan(7, 2)

    def test_rejects_r_out_of_range(self):
        with pytest.raises(ParameterError):
            turan(6, 1)
        with pytest.raises(ParameterError):
            turan(6, 7)

    @pytest.mark.parametrize("n,r", [(6, 2), (6, 3), (8, 2), (8, 4), (9, 3), (12, 4)])
    def test_clique_number_is_exactly_r(self, n, r):
        g = turan(n, r)
        assert has_k_clique(g, r)
        assert not has_k_clique(g, r + 1)


class TestCages:
    @pytest.mark.parametrize("info", cage_catalog(), ids=lambda i: i.name)
    def test_catalog_entry_postconditions(self, info):
        g = cage(info.name)
        assert g.v == info.vertices
        assert set(g.degrees()) == {info.degree}
        assert girth(g) == info.girth
        assert nx.girth(to_networkx(g)) == info.girth

    def test_petersen_is_the_petersen_graph(self):
        assert nx.is_isomorphic(to_networkx(cage("petersen")), nx.petersen_graph())

    def test_heawood_is_the_heawood_graph(self):
        assert nx.is_isomorphic(to_networkx(cage("heawood")), nx.heawood_graph())

    def test_petersen_meets_moore_bound(self):
        assert cage("petersen").v == moore_bound(3, 5) == 10

    def test_heawood_meets_moore_bound(self):
        assert cage("heawood").v == moore_bound(3, 6) == 14

    def test_name_normalization(self):
        assert cage("Tutte-Coxeter").v == 30
        assert cage("PETERSEN").v == 10

    def test_unknown_name(self):
        with pytest.raises(ParameterError, match="unknown cage"):
            cage("robertson")


class TestTransversalDesign:
    def test_td34_parameters(self):
        d = transversal_design(3, 4)
        assert d.points == 12
        assert len(d.blocks) == 16
        replication = [0] * 13
        for b in d.blocks:
            for p in b:
                replication[p] += 1
        assert all(r == 4 for r in replication[1:])

    def test_td22_smallest(self):
        d = transversal_design(2, 2)
        assert d.points == 4
        assert len(d.blocks) == 4
        assert all(len(b) == 2 for b in d.blocks)

    def test_td34_has_four_parallel_classes(self):
        d = transversal_design(3, 4)
        # greedy partition: repeatedly pull a maximal set of pairwise disjoint
        # blocks; resolvability means 4 classes of 4 blocks exhaust the list
        remaining = list(d.blocks)
        classes = []
        while remaining:
            cls = []
            used = set()
            for b in remaining:
                if used.isdisjoint(b):
                    cls.append(b)
                    used.update(b)
            if len(cls) != 4 or len(used) != 12:
                pytest.fail(f"greedy class of size {len(cls)} is not parallel")
            classes.append(cls)
            remaining = [b for b in remaining if b not in cls]
        assert len(classes) == 4

    @pytest.mark.parametrize("h", [2, 3, 4, 5, 7, 8, 9])
    def test_axioms_exhaustively(self, h):
        for ell in range(2, h + 2):
            d = transversal_design(ell, h)
            assert d.check_axioms() is None, f"TD({ell},{h})"

    def test_rejects_non_prime_power_group_size(self):
        with pytest.raises(ParameterError):
            transversal_design(3, 6)

    def test_rejects_bad_group_count(self):
        with pytest.raises(ParameterError):
            transversal_design(1, 4)
        with pytest.raises(ParameterError, match="exceeds"):
            transversal_design(6, 4)


class TestProjectivePlane:
    def test_fano(self):
        d = projective_plane(2)
        assert d.points == 7
        assert len(d.blocks) == 7
        code = from_design(d)
        assert (code.n, code.theta, code.alpha, code.rho) == (7, 7, 3, 3)

    def test_fano_code_file_size_k2(self):
        code = from_design(projective_plane(2))
        assert file_size(code, 2) == brute_min_union(code, 2) == 5
        # agrees with the girth closed form at g = 3
        assert girth_file_size(alpha=3, g=3, k=2) == 5

    def test_order_three(self):
        d = projective_plane(3)
        assert d.points == 13 and len(d.blocks) == 13
        code = from_design(d)
        assert (code.alpha, code.rho) == (4, 4)

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_two_points_span_one_line(self, q):
        d = projective_plane(q)
        from itertools import combinations
        line_sets = [set(b) for b in d.blocks]
        for p, r in combinations(range(1, d.points + 1), 2):
            assert sum(1 for s in line_sets if p in s and r in s) == 1

    def test_incidence_graph_girth_six(self):
        d = projective_plane(2)
        from frepkit import Graph
        edges = [(p, d.points + j) for j, b in enumerate(d.blocks, start=1) for p in b]
        bipartite = Graph(v=d.points + len(d.blocks), edges=edges)
        assert girth(bipartite) == 6

    def test_rejects_non_prime_power(self):
        with pytest.raises(ParameterError):
            projective_plane(6)
