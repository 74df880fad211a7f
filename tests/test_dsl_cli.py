"""Tests for the pattern DSL and the command-line interface."""

import pytest

from repro.cli import main as cli_main
from repro.graph import io as gio
from repro.graph import generators as gen
from repro.patterns import catalog
from repro.patterns.dsl import PatternSyntaxError, parse_pattern, pattern_names


class TestDSLBaseNames:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("triangle", catalog.triangle()),
            ("diamond", catalog.diamond()),
            ("4-cycle", catalog.four_cycle()),
            ("4-clique", catalog.four_clique()),
            ("paw", catalog.paw()),
            ("wedge", catalog.wedge()),
            ("edge", catalog.edge()),
            ("vertex", catalog.single_vertex()),
        ],
    )
    def test_named(self, text, expected):
        assert parse_pattern(text) == expected

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3-star", catalog.star(3)),
            ("5-path", catalog.path(5)),
            ("6-cycle", catalog.cycle(6)),
            ("5-clique", catalog.clique(5)),
            ("2-tailed-triangle", catalog.k_tailed_triangle(2)),
        ],
    )
    def test_parametric(self, text, expected):
        assert parse_pattern(text) == expected

    def test_fig4(self):
        assert parse_pattern("fig4") == catalog.fig4_pattern()

    def test_case_and_whitespace(self):
        assert parse_pattern("  Triangle ") == catalog.triangle()


class TestDSLEdgeLists:
    def test_edge_list(self):
        p = parse_pattern("edges:0-1,1-2,0-2")
        assert p.is_isomorphic(catalog.triangle())

    def test_edge_list_spacing(self):
        p = parse_pattern("edges:0 - 1, 1 - 2")
        assert p.num_edges == 2

    def test_bad_edge(self):
        with pytest.raises(PatternSyntaxError):
            parse_pattern("edges:0-1,x-2")

    def test_empty_edge_list(self):
        with pytest.raises(PatternSyntaxError):
            parse_pattern("edges:")


class TestDSLFringeClauses:
    def test_single_clause(self):
        p = parse_pattern("triangle + 2x0")
        assert p.is_isomorphic(catalog.k_tailed_triangle(2))

    def test_multi_anchor(self):
        p = parse_pattern("edge + 2x0&1")
        assert p.is_isomorphic(catalog.diamond())

    def test_chained_clauses(self):
        p = parse_pattern("edge + 1x0&1 + 1x0")
        assert p.is_isomorphic(catalog.tailed_triangle())

    def test_fig13_series(self):
        p = parse_pattern("fig4 + 10x0&1")
        assert p.n == 26

    def test_anchor_out_of_range(self):
        with pytest.raises(PatternSyntaxError):
            parse_pattern("triangle + 1x7")

    def test_zero_count(self):
        with pytest.raises(PatternSyntaxError):
            parse_pattern("triangle + 0x0")

    def test_malformed_clause(self):
        with pytest.raises(PatternSyntaxError):
            parse_pattern("triangle + twox0")


class TestDSLErrors:
    def test_unknown_name(self):
        with pytest.raises(PatternSyntaxError, match="unknown pattern"):
            parse_pattern("dodecahedron")

    def test_unknown_parametric(self):
        with pytest.raises(PatternSyntaxError, match="parametric"):
            parse_pattern("3-megastar")

    def test_empty(self):
        with pytest.raises(PatternSyntaxError):
            parse_pattern("   ")

    def test_disconnected_rejected(self):
        with pytest.raises(PatternSyntaxError, match="connected"):
            parse_pattern("edges:0-1,2-3")

    def test_pattern_names_listing(self):
        names = pattern_names()
        assert "triangle" in names and "k-star" in names


class TestCLI:
    def test_count_dataset(self, capsys):
        assert cli_main(["count", "--dataset", "internet", "--scale", "tiny", "--pattern", "triangle"]) == 0
        out = capsys.readouterr().out
        assert "count" in out and "engine" in out

    def test_count_graph_file(self, tmp_path, capsys):
        g = gen.complete_graph(6)
        path = tmp_path / "k6.el"
        gio.write_edge_list(g, path)
        assert cli_main(["count", "--graph", str(path), "--pattern", "triangle"]) == 0
        assert "count    : 20" in capsys.readouterr().out  # C(6,3)

    def test_count_relabel_degree_invariant(self, capsys):
        args = ["count", "--dataset", "internet", "--scale", "tiny", "--pattern", "diamond"]
        assert cli_main(args) == 0
        plain = capsys.readouterr().out
        assert cli_main(args + ["--relabel-degree"]) == 0
        relabeled = capsys.readouterr().out
        line = next(ln for ln in plain.splitlines() if ln.startswith("count"))
        assert line in relabeled  # identical count on the renumbered graph

    def test_count_persistent_pool(self, capsys):
        assert cli_main([
            "count", "--dataset", "internet", "--scale", "tiny",
            "--pattern", "triangle", "--workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert cli_main([
            "count", "--dataset", "internet", "--scale", "tiny", "--pattern", "triangle",
        ]) == 0
        serial = capsys.readouterr().out
        pool_count = next(ln for ln in out.splitlines() if ln.startswith("count"))
        serial_count = next(ln for ln in serial.splitlines() if ln.startswith("count"))
        assert pool_count == serial_count

    def test_decompose(self, capsys):
        assert cli_main(["decompose", "--pattern", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "tri-fringe" in out and "core" in out

    def test_list_cores(self, tmp_path, capsys):
        g = gen.barabasi_albert(40, 3, seed=2)
        path = tmp_path / "g.el"
        gio.write_edge_list(g, path)
        assert cli_main(["list-cores", "--graph", str(path), "--pattern", "diamond", "--top", "3"]) == 0
        assert "core=" in capsys.readouterr().out

    def test_datasets(self, capsys):
        assert cli_main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "kron_g500-logn20" in out and "SNAP" in out

    def test_graph_required(self):
        with pytest.raises(SystemExit):
            cli_main(["count", "--pattern", "triangle"])

    def test_both_graph_sources_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(
                ["count", "--graph", "x.el", "--dataset", "internet", "--pattern", "triangle"]
            )


class TestCountTimeout:
    def test_timeout_ok_path(self, capsys):
        rc = cli_main(
            ["count", "--dataset", "internet", "--scale", "tiny",
             "--pattern", "triangle", "--timeout", "60"]
        )
        assert rc == 0
        assert "count" in capsys.readouterr().out

    def test_timeout_expiry_exits_124(self, monkeypatch, capsys):
        import time

        import repro.runtime as runtime_mod

        class SlowRuntime(runtime_mod.Runtime):
            # the abandoned daemon thread only sleeps: a count it ran after
            # the test returned would race later tests' monkeypatched spies
            def count(self, *args, **kwargs):
                time.sleep(5)

        monkeypatch.setattr(runtime_mod, "get_runtime", lambda: SlowRuntime())
        rc = cli_main(
            ["count", "--dataset", "internet", "--scale", "tiny",
             "--pattern", "triangle", "--timeout", "0.1"]
        )
        assert rc == 124
        assert "deadline_exceeded" in capsys.readouterr().err

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(
                ["count", "--dataset", "internet", "--scale", "tiny",
                 "--pattern", "triangle", "--timeout", "0"]
            )
