import re

import pytest

from frepkit import (
    Design,
    FormatError,
    FrCode,
    Graph,
    ParameterError,
    TransversalDesign,
    from_design,
    from_graph,
    load,
    save,
    transversal_design,
    turan,
    validate,
)
from frepkit.construct import cage


def petersen_code():
    return from_graph(cage("petersen"))


class TestGraph:
    def test_edges_canonicalized(self):
        g = Graph(v=3, edges=[(2, 1), (3, 2)])
        assert g.edges == ((1, 2), (2, 3))

    def test_rejects_self_loop(self):
        with pytest.raises(ParameterError, match="self-loop"):
            Graph(v=3, edges=[(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ParameterError, match="duplicate"):
            Graph(v=3, edges=[(1, 2), (2, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            Graph(v=3, edges=[(1, 4)])

    @pytest.mark.parametrize("v", [3.0, True, "3", None])
    def test_non_integer_vertex_count_is_refused(self, v):
        with pytest.raises(ParameterError, match=f"^vertex count {v!r} is not an integer$"):
            Graph(v, [(1, 2)])

    @pytest.mark.parametrize("endpoint", [1.5, 2.0, True, "2", None])
    def test_non_integer_endpoint_is_refused(self, endpoint):
        for edge in [(endpoint, 3), (3, endpoint)]:
            with pytest.raises(ParameterError,
                               match=f"^edge endpoint {endpoint!r} is not an integer$"):
                Graph(3, [(1, 2), edge])


class TestFrCodeArguments:
    @pytest.mark.parametrize("field,value", [
        ("n", 2.0), ("theta", True), ("alpha", "2"), ("rho", 1.5),
    ])
    def test_non_integer_parameter_is_refused(self, field, value):
        args = {"n": 2, "theta": 3, "alpha": 2, "rho": 1,
                "node_sets": [(1, 2), (3,)], field: value}
        with pytest.raises(ParameterError, match=f"^{field} {value!r} is not an integer$"):
            FrCode(**args)

    @pytest.mark.parametrize("symbol", [1.5, 2.0, True, "2", None])
    def test_non_integer_symbol_is_refused(self, symbol):
        with pytest.raises(ParameterError,
                           match=f"^node 2 symbol {symbol!r} is not an integer$"):
            FrCode(2, 3, 2, 1, [(1, 2), (3, symbol)])


class TestDesign:
    @pytest.mark.parametrize("points", [3.0, True, "3", None])
    def test_non_integer_point_count_is_refused(self, points):
        with pytest.raises(ParameterError, match=f"^point count {points!r} is not an integer$"):
            Design(points, [(1, 2)])
        with pytest.raises(ParameterError, match=f"^point count {points!r} is not an integer$"):
            TransversalDesign(points, [(1, 2)], [(1,), (2,)])

    @pytest.mark.parametrize("point", [1.5, 2.0, True, "2", None])
    def test_non_integer_block_point_is_refused(self, point):
        with pytest.raises(ParameterError, match=f"^block point {point!r} is not an integer$"):
            Design(3, [(1, 2), (3, point)])
        with pytest.raises(ParameterError, match=f"^block point {point!r} is not an integer$"):
            TransversalDesign(2, [(1, point)], [(1,), (2,)])

    def test_blocks_are_sorted_and_checked(self):
        assert Design(3, [(3, 1), [2, 1]]).blocks == ((1, 3), (1, 2))
        with pytest.raises(ParameterError, match=r"^block \(1, 2, 2\) repeats a point$"):
            Design(3, [(2, 1, 2)])
        with pytest.raises(ParameterError, match="^block point 4 out of range 1..3$"):
            Design(3, [(1, 4)])


class TestValidate:
    def test_td34_code_passes_with_intersection_one(self, paper_td34):
        code = from_design(paper_td34)
        assert (code.n, code.theta, code.alpha, code.rho) == (12, 16, 4, 3)
        report = validate(code)
        assert report.valid
        assert report.max_intersection == 1

    def test_single_node_degenerate_code(self):
        report = validate(FrCode(1, 1, 1, 1, [(1,)]))
        assert report.valid
        assert report.max_intersection == 0

    def test_duplicated_node_set_fails_goodness(self):
        code = FrCode(4, 4, 2, 2, [(1, 2), (1, 2), (3, 4), (3, 4)])
        report = validate(code)
        assert report.valid  # uniform weights still hold
        assert report.max_intersection == 2

    def test_nonuniform_rows_flagged(self):
        code = FrCode(2, 3, 2, 2, [(1, 2, 3), (1,)])
        report = validate(code)
        assert not report.rows_uniform
        assert not report.valid

    def test_counting_inconsistency_flagged(self):
        code = FrCode(2, 3, 2, 2, [(1, 2), (2, 3)])
        assert not validate(code).counting_consistent


class TestFromGraph:
    def test_k33(self):
        code = from_graph(turan(6, 2))
        assert (code.n, code.theta, code.alpha, code.rho) == (6, 9, 3, 2)

    def test_triangle_stores_incident_edges(self):
        code = from_graph(turan(3, 3))
        assert (code.n, code.theta, code.alpha, code.rho) == (3, 3, 2, 2)
        # edges in lexicographic order: (1,2) (1,3) (2,3)
        assert code.node_sets == ((1, 2), (1, 3), (2, 3))

    def test_petersen_counts(self):
        code = petersen_code()
        assert (code.n, code.theta, code.alpha, code.rho) == (10, 15, 3, 2)

    def test_rho_is_two_and_intersections_bounded(self):
        for g in [turan(6, 2), turan(8, 4), cage("petersen")]:
            code = from_graph(g)
            assert code.rho == 2
            assert code.max_pairwise_intersection <= 1

    def test_irregular_graph_rejected_naming_vertices(self):
        path = Graph(v=3, edges=[(1, 2), (2, 3)])
        with pytest.raises(ParameterError, match=r"vertex 1 has degree 1.*vertex 2 has degree 2"):
            from_graph(path)


class TestFromDesign:
    def test_paper_block_list_node_one(self, paper_td34):
        code = from_design(paper_td34)
        assert code.node_sets[0] == (1, 2, 3, 4)

    def test_generated_td34_matches_parameters(self):
        code = from_design(transversal_design(3, 4))
        assert (code.n, code.theta, code.alpha, code.rho) == (12, 16, 4, 3)
        assert code.node_sets[0] == (1, 2, 3, 4)

    @staticmethod
    def _column_multiset(code):
        cols = []
        for j in range(1, code.theta + 1):
            cols.append(tuple(i for i, s in enumerate(code.node_sets) if j in s))
        return sorted(cols)

    def test_td22_equals_four_cycle_code(self):
        td_code = from_design(transversal_design(2, 2))
        assert (td_code.n, td_code.theta, td_code.alpha, td_code.rho) == (4, 4, 2, 2)
        cycle = Graph(v=4, edges=[(1, 3), (1, 4), (2, 3), (2, 4)])  # C4 relabeled
        graph_code = from_graph(cycle)
        assert self._column_multiset(td_code) == self._column_multiset(graph_code)

    @pytest.mark.parametrize("alpha", [2, 3, 4])
    def test_td2a_equals_bipartite_code(self, alpha):
        # TD(2, alpha) groups line up with the two parts of K_{alpha,alpha},
        # so both incidence matrices agree up to column permutation
        td_code = from_design(transversal_design(2, alpha))
        graph_code = from_graph(turan(2 * alpha, 2))
        assert (td_code.n, td_code.alpha, td_code.rho) == (graph_code.n, graph_code.alpha, 2)
        assert self._column_multiset(td_code) == self._column_multiset(graph_code)

    def test_invalid_design_rejected_naming_axiom(self, paper_td34):
        broken = TransversalDesign(points=paper_td34.points,
                                   blocks=paper_td34.blocks[:-1],
                                   groups=paper_td34.groups)
        with pytest.raises(ParameterError, match="block count"):
            from_design(broken)


class TestValueTypes:
    # equality, hash and repr read the fields; no field can change
    @pytest.mark.parametrize("make,text", [
        (lambda: Graph(3, [(2, 1), (3, 2)]), "Graph(v=3, edges=((1, 2), (2, 3)))"),
        (lambda: FrCode(2, 2, 1, 1, [(1,), (2,)]),
         "FrCode(n=2, theta=2, alpha=1, rho=1, node_sets=((1,), (2,)))"),
        (lambda: Design(3, [(3, 1), (2, 1)]), "Design(points=3, blocks=((1, 3), (1, 2)))"),
        (lambda: TransversalDesign(2, [(1, 2)], [(1,), (2,)]),
         "TransversalDesign(points=2, blocks=((1, 2),), groups=((1,), (2,)))"),
    ], ids=["graph", "code", "design", "transversal-design"])
    def test_equal_by_fields_and_immutable(self, make, text):
        a, b = make(), make()
        assert a == b and hash(a) == hash(b) and repr(a) == text
        field = text[text.index("(") + 1:text.index("=")]
        with pytest.raises(AttributeError):
            setattr(a, field, 1)
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert a == b

    def test_a_design_never_equals_a_transversal_design(self):
        assert Design(2, [(1, 2)]) != TransversalDesign(2, [(1, 2)], [(1,), (2,)])
        assert Design(2, [(1, 2)]) != TransversalDesign(2, [(1, 2)], [])

    def test_derived_tables_stay_out_of_equality(self):
        a, b = petersen_code(), petersen_code()
        assert a.symbol_masks and a._file_sizes == {}
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


class TestSaveLoad:
    def test_triangle_round_trip_is_four_lines(self, tmp_path):
        code = from_graph(turan(3, 3))
        path = tmp_path / "k3.frc"
        save(code, path)
        text = path.read_text()
        assert text == "FRC 3 3 2 2\n1 2\n1 3\n2 3\n"
        assert len(text.splitlines()) == 4
        assert load(path) == code

    def test_td34_file_header(self, tmp_path):
        code = from_design(transversal_design(3, 4))
        path = tmp_path / "td34.frc"
        save(code, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 13
        assert lines[0] == "FRC 12 16 4 3"
        assert load(path) == code

    def test_save_is_byte_deterministic(self, tmp_path):
        code = petersen_code()
        a, b = tmp_path / "a.frc", tmp_path / "b.frc"
        save(code, a)
        save(code, b)
        assert a.read_bytes() == b.read_bytes()

    def test_wrong_rho_header_loads_but_fails_validation(self, tmp_path):
        path = tmp_path / "lying.frc"
        path.write_text("FRC 3 3 2 3\n1 2\n1 3\n2 3\n")
        code = load(path)
        report = validate(code)
        assert not report.columns_uniform
        assert not report.valid

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.frc"
        path.write_text("FR 3 3 2 2\n1 2\n1 3\n2 3\n")
        with pytest.raises(FormatError) as err:
            load(path)
        assert err.value.line_no == 1

    def test_out_of_range_symbol_reports_line(self, tmp_path):
        path = tmp_path / "bad.frc"
        path.write_text("FRC 3 3 2 2\n1 2\n1 9\n2 3\n")
        with pytest.raises(FormatError) as err:
            load(path)
        assert err.value.line_no == 3

    def test_repeated_or_descending_symbols_report_line(self, tmp_path):
        # a repeated index would also corrupt the search's symbol masks
        for line, message in (("1 1", "1 follows 1"), ("3 1", "1 follows 3")):
            path = tmp_path / "bad.frc"
            path.write_text(f"FRC 3 3 2 2\n1 2\n{line}\n2 3\n")
            with pytest.raises(FormatError, match=message) as err:
                load(path)
            assert err.value.line_no == 3

    @pytest.mark.parametrize("line,field", [("0_1 3", "0_1"), ("+1 +3", "+1")],
                             ids=["underscore", "plus"])
    def test_symbol_fields_are_ascii_decimal(self, tmp_path, line, field):
        # int() reads both as 1 3; non-ASCII digits never get past the decoder
        path = tmp_path / "bad.frc"
        path.write_text(f"FRC 3 3 2 2\n1 2\n{line}\n2 3\n")
        with pytest.raises(FormatError, match=re.escape(f"node line: '{field}' is not")) as err:
            load(path)
        assert err.value.line_no == 3

    def test_header_fields_are_ascii_decimal(self, tmp_path):
        path = tmp_path / "bad.frc"
        path.write_text("FRC 3 3 2 +2\n1 2\n1 3\n2 3\n")
        with pytest.raises(FormatError, match="header: '\\+2' is not an integer") as err:
            load(path)
        assert err.value.line_no == 1

    def test_symbol_masks_ignore_a_repeated_symbol(self):
        code = FrCode(3, 3, 2, 2, [(1, 1), (2, 3), (1, 3)])
        assert code.symbol_masks == (0b001, 0b110, 0b101)
        assert not validate(code).symbols_valid

    def test_wrong_line_count(self, tmp_path):
        path = tmp_path / "bad.frc"
        path.write_text("FRC 3 3 2 2\n1 2\n1 3\n")
        with pytest.raises(FormatError, match="expected 3 node lines"):
            load(path)

    def test_double_counting_of_generated_codes(self, paper_td34):
        for code in [from_graph(turan(6, 2)), from_design(paper_td34), petersen_code()]:
            assert sum(len(s) for s in code.node_sets) == code.n * code.alpha
            assert code.n * code.alpha == code.rho * code.theta
