"""Round-trip and format tests for graph I/O."""

import warnings

import numpy as np
import pytest

from repro.graph import generators as gen, io as gio
from repro.graph.build import clean_edges, compact_labels, graph_from_raw_edges


@pytest.fixture
def sample():
    return gen.barabasi_albert(40, 3, seed=7)


class TestEdgeList:
    def test_round_trip(self, tmp_path, sample):
        path = tmp_path / "g.el"
        gio.write_edge_list(sample, path)
        assert gio.read_edge_list(path) == sample

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n% other comment\n\n0 1\n1 2\n")
        g = gio.read_edge_list(path)
        assert g.num_edges == 2

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0\n")
        with pytest.raises(ValueError):
            gio.read_edge_list(path)

    def test_extra_columns_and_trailing_comments_ignored(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 7 x\n  1\t2  # weight\n2 3 % note\n")
        g = gio.read_edge_list(path)
        assert g.edge_array().tolist() == [[0, 1], [1, 2], [2, 3]]

    def test_one_token_line_after_edges_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n5\n")
        with pytest.raises(ValueError):
            gio.read_edge_list(path)

    @pytest.mark.parametrize("text", ["", "# only a header\n\n"])
    def test_empty_file_is_an_empty_graph(self, tmp_path, text):
        path = tmp_path / "g.txt"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = gio.read_edge_list(path)
        assert (g.num_vertices, g.num_edges) == (0, 0)

    def test_compact_relabels(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("100 200\n200 300\n")
        g = gio.read_edge_list(path, compact=True)
        assert g.num_vertices == 3

    def test_directed_input_symmetrized(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 0\n2 1\n")
        g = gio.read_edge_list(path)
        assert g.num_edges == 2
        assert g.has_edge(1, 2)


class TestMtx:
    def test_round_trip(self, tmp_path, sample):
        path = tmp_path / "g.mtx"
        gio.write_mtx(sample, path)
        assert gio.read_mtx(path) == sample

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("not a matrix market file\n1 1 0\n")
        with pytest.raises(ValueError):
            gio.read_mtx(path)

    def test_isolated_trailing_vertices_kept(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n5 5 1\n2 1\n")
        g = gio.read_mtx(path)
        assert g.num_vertices == 5
        assert g.num_edges == 1


class TestDimacs:
    def test_basic(self, tmp_path):
        path = tmp_path / "g.gr"
        path.write_text("c road graph\np sp 4 4\na 1 2 5\na 2 1 5\na 2 3 7\na 3 4 2\n")
        g = gio.read_dimacs_gr(path)
        assert g.num_vertices == 4
        assert g.num_edges == 3  # bidirectional arc collapsed


class TestNpz:
    def test_round_trip(self, tmp_path, sample):
        path = tmp_path / "g.npz"
        gio.write_npz(sample, path)
        assert gio.read_npz(path) == sample


class TestDispatch:
    def test_load_graph_by_extension(self, tmp_path, sample):
        p1 = tmp_path / "g.el"
        gio.write_edge_list(sample, p1)
        assert gio.load_graph(p1) == sample

    def test_unknown_extension(self, tmp_path):
        with pytest.raises(ValueError, match="unknown graph format"):
            gio.load_graph(tmp_path / "g.xyz")


class TestBuildHelpers:
    def test_clean_edges(self):
        cleaned = clean_edges(np.array([[1, 0], [0, 1], [2, 2], [3, 1]]))
        assert cleaned.tolist() == [[0, 1], [1, 3]]

    def test_clean_edges_empty(self):
        assert clean_edges(np.empty((0, 2), dtype=np.int64)).shape == (0, 2)

    def test_compact_labels(self):
        edges, ids = compact_labels(np.array([[10, 20], [20, 30]]))
        assert edges.tolist() == [[0, 1], [1, 2]]
        assert ids.tolist() == [10, 20, 30]

    def test_graph_from_raw_edges(self):
        g = graph_from_raw_edges(np.array([[5, 3], [3, 5], [5, 5]]), compact=True)
        assert g.num_vertices == 2
        assert g.num_edges == 1


class TestMetis:
    def test_round_trip(self, tmp_path, sample):
        path = tmp_path / "g.graph"
        gio.write_metis(sample, path)
        assert gio.read_metis(path) == sample

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("% comment\n3 2\n2 3\n1\n1\n")
        g = gio.read_metis(path)
        assert g.num_vertices == 3 and g.num_edges == 2

    def test_weighted_rejected(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("2 1 011\n2 5\n1 5\n")
        with pytest.raises(ValueError, match="weighted"):
            gio.read_metis(path)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("3 5\n2\n1 3\n2\n")
        with pytest.raises(ValueError, match="edges"):
            gio.read_metis(path)

    def test_vertex_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("3 1\n2\n1\n")
        with pytest.raises(ValueError, match="vertices"):
            gio.read_metis(path)

    def test_load_graph_dispatch(self, tmp_path, sample):
        path = tmp_path / "g.metis"
        gio.write_metis(sample, path)
        assert gio.load_graph(path) == sample
