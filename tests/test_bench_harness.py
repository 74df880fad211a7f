"""Tests for the benchmark harness (cells, figures, reporting)."""


import json
from types import SimpleNamespace

import pytest

from repro.bench import (
    FigureResult,
    Measurement,
    geomean,
    load_figure,
    render_figure,
    render_speedups,
    run_cell,
    run_figure,
    save_figure,
)
from repro.bench import workloads as W
from repro.graph import generators as gen
from repro.patterns import catalog


@pytest.fixture(scope="module")
def graphs():
    return {"er": gen.erdos_renyi(40, 0.2, seed=1), "ba": gen.barabasi_albert(40, 3, seed=2)}


class TestGeomean:
    def test_basic(self):
        assert geomean([1, 100]) == pytest.approx(10.0)
        assert geomean([5]) == pytest.approx(5.0)

    def test_ignores_none_and_empty(self):
        assert geomean([None, 4.0, 9.0]) == pytest.approx(6.0)
        assert geomean([]) == 0.0


class TestRunCell:
    def test_ok_cell(self, graphs):
        m = run_cell("fringe-sgc", catalog.triangle(), "triangle", graphs["er"], "er")
        assert m.status == "ok" and m.count is not None and m.throughput > 0

    def test_dnf_cell(self):
        g = gen.kronecker(9, 16, seed=1)
        m = run_cell("stmatch-like", catalog.star(6), "6-star", g, "kron", timeout_s=0.05)
        assert m.status == "dnf" and m.throughput is None

    def test_unsupported_cell(self, graphs):
        m = run_cell("stmatch-like", catalog.star(12), "12-star", graphs["er"], "er")
        assert m.status == "unsupported"

    def test_ok_cell_reports_the_median_of_fixed_repeats(self, graphs, monkeypatch):
        from repro.bench import harness

        times = iter([0.0, 5.0, 10.0, 11.0, 20.0, 29.0, 30.0, 32.0, 40.0, 41.0])
        monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: next(times), time=lambda: 0.0))
        monkeypatch.setitem(harness.SYSTEMS, "fake", lambda pat: lambda graph, timeout_s: 7)
        m = run_cell("fake", catalog.triangle(), "triangle", graphs["er"], "er", timeout_s=60)
        assert harness.CELL_REPEATS == 5
        assert m.status == "ok" and m.count == 7
        assert m.samples == (5.0, 1.0, 9.0, 2.0, 1.0)
        assert m.seconds == 2.0
        record = harness.measurement_record("t", m)
        assert (record["seconds"], record["samples"]) == (2.0, [5.0, 1.0, 9.0, 2.0, 1.0])

    def test_fast_cells_repeat_until_the_minimum_sampled_time(self, graphs, monkeypatch):
        from repro.bench import harness

        # every run takes 0.01 s: 5 repeats sample 0.05 s, so the cell goes on
        clock = iter([i * 0.01 for i in range(10_000)])
        monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: next(clock), time=lambda: 0.0))
        monkeypatch.setitem(harness.SYSTEMS, "fake", lambda pat: lambda graph, timeout_s: 7)
        m = run_cell("fake", catalog.triangle(), "triangle", graphs["er"], "er", timeout_s=60)
        assert m.status == "ok"
        assert len(m.samples) > harness.CELL_REPEATS
        assert sum(m.samples) >= harness.CELL_MIN_SECONDS
        assert sum(m.samples[:-1]) < harness.CELL_MIN_SECONDS

    def test_a_slow_repeat_censors_the_cell(self, graphs, monkeypatch):
        from repro.bench import harness

        times = iter([0.0, 1.0, 2.0, 9.0])
        monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: next(times), time=lambda: 0.0))
        monkeypatch.setitem(harness.SYSTEMS, "fake", lambda pat: lambda graph, timeout_s: 7)
        m = run_cell("fake", catalog.triangle(), "triangle", graphs["er"], "er", timeout_s=5)
        assert m.status == "dnf" and m.seconds is None and m.samples == ()


class TestRunFigure:
    def test_counts_cross_checked(self, graphs):
        res = run_figure(
            "smoke",
            {"triangle": catalog.triangle(), "paw": catalog.paw()},
            graphs,
            ("fringe-sgc", "stmatch-like", "graphset-like"),
            timeout_s=10.0,
        )
        res.verify_counts_agree()  # raises on disagreement
        assert res.patterns() == ["triangle", "paw"]
        assert set(res.systems()) == {"fringe-sgc", "stmatch-like", "graphset-like"}

    def test_system_order_rotates_per_group(self, graphs, monkeypatch):
        from repro.bench import harness

        firsts: dict[tuple[str, str], str] = {}

        def fake_cell(system, pattern, pattern_name, graph, graph_name, *, timeout_s):
            firsts.setdefault((pattern_name, graph_name), system)
            return Measurement(system, pattern_name, graph_name, "ok", 1, 0.1, 10)

        monkeypatch.setattr(harness, "run_cell", fake_cell)
        patterns = {"triangle": catalog.triangle(), "paw": catalog.paw()}
        res = run_figure("t", patterns, graphs, ("a", "b", "c"))
        assert len(res.measurements) == 3 * len(patterns) * len(graphs)
        # each group starts one system later than the one before
        expect = [("a", "b", "c")[i % 3] for i in range(len(firsts))]
        assert list(firsts.values()) == expect

    def test_geomean_and_speedup(self, graphs):
        res = run_figure(
            "smoke", {"triangle": catalog.triangle()}, graphs, ("fringe-sgc", "stmatch-like")
        )
        tp = res.geomean_throughput("fringe-sgc", "triangle")
        assert tp is not None and tp > 0
        sp = res.speedup("triangle", over="stmatch-like")
        assert sp is not None and sp > 0

    def test_dnf_threshold_drops_system(self):
        res = FigureResult("x")
        for i, status in enumerate(["ok", "dnf", "dnf"]):
            res.measurements.append(
                Measurement("s", "p", f"g{i}", status, 1 if status == "ok" else None,
                            0.5 if status == "ok" else None, 100)
            )
        # paper rule: more than one DNF input -> drop the system
        assert res.geomean_throughput("s", "p") is None

    def test_count_disagreement_detected(self):
        res = FigureResult("x")
        res.measurements.append(Measurement("a", "p", "g", "ok", 1, 0.1, 10))
        res.measurements.append(Measurement("b", "p", "g", "ok", 2, 0.1, 10))
        with pytest.raises(AssertionError, match="disagreement"):
            res.verify_counts_agree()


class TestReporting:
    def test_render_and_round_trip(self, graphs, tmp_path):
        res = run_figure(
            "smoke", {"triangle": catalog.triangle()}, graphs, ("fringe-sgc",)
        )
        text = render_figure(res)
        assert "fringe-sgc" in text and "triangle" in text
        assert "speedup" in render_speedups(res, over="fringe-sgc")
        path = tmp_path / "fig.json"
        save_figure(res, path)
        loaded = load_figure(path)
        assert loaded.figure == res.figure
        assert len(loaded.measurements) == len(res.measurements)
        assert loaded.measurements[0].count == res.measurements[0].count


class TestWorkloads:
    def test_ten_inputs(self):
        graphs = W.ten_inputs("tiny")
        assert len(graphs) == 10

    def test_figure_pattern_families_nonempty(self):
        assert len(W.fig08_patterns()) == 5
        assert len(W.fig09_patterns()) >= 8
        assert len(W.fig10_patterns()) >= 5
        assert len(W.fig11_patterns()) >= 5
        assert len(W.fig12_series(10)) == 6
        assert list(W.fig12_series(10))[-1] == "fig4+10"
        assert len(W.fig15_patterns()) >= 7


class TestRecordAppender:
    def test_single_process_round_trip(self, tmp_path):
        from repro.bench.harness import RecordAppender

        path = tmp_path / "BENCH_x.json"
        with RecordAppender(path) as appender:
            appender.append({"cell": 1})
            appender.append({"cell": 2, "note": "y"})
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records == [{"cell": 1}, {"cell": 2, "note": "y"}]

    def test_concurrent_appenders_produce_only_parseable_lines(self, tmp_path):
        import subprocess
        import sys

        path = tmp_path / "BENCH_concurrent.json"
        writers, per_writer = 4, 150
        script = (
            "import sys\n"
            "from repro.bench.harness import RecordAppender\n"
            "wid, path, n = int(sys.argv[1]), sys.argv[2], int(sys.argv[3])\n"
            "with RecordAppender(path) as a:\n"
            "    for i in range(n):\n"
            "        a.append({'writer': wid, 'i': i, 'pad': 'x' * 400})\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(w), str(path), str(per_writer)]
            )
            for w in range(writers)
        ]
        for p in procs:
            assert p.wait(timeout=60) == 0
        lines = path.read_text().splitlines()
        assert len(lines) == writers * per_writer
        seen = set()
        for line in lines:
            rec = json.loads(line)  # every line parses — no interleaving
            assert len(rec["pad"]) == 400
            seen.add((rec["writer"], rec["i"]))
        assert len(seen) == writers * per_writer  # no record lost or torn


class TestProvenance:
    @staticmethod
    def _repo(tmp_path):
        import subprocess

        def git(*args):
            subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                cwd=tmp_path, check=True, capture_output=True,
            )

        (tmp_path / "benchmarks" / "results").mkdir(parents=True)
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "code.py").write_text("x = 1\n")
        (tmp_path / "benchmarks" / "results" / "BENCH_x.json").write_text("{}\n")
        git("init", "-q")
        git("add", "-A")
        git("commit", "-q", "-m", "seed")
        return git

    def test_regenerated_records_keep_the_clean_sha(self, tmp_path):
        from repro.bench.harness import git_revision

        git = self._repo(tmp_path)
        clean = git_revision(tmp_path / "src")
        assert clean is not None and len(clean) == 40
        # a rewritten record and an untracked one leave the revision clean,
        # whichever directory of the checkout the harness runs from
        (tmp_path / "benchmarks" / "results" / "BENCH_x.json").write_text('{"a": 1}\n')
        (tmp_path / "benchmarks" / "results" / "BENCH_y.json").write_text("{}\n")
        assert git_revision(tmp_path / "src") == clean
        assert git_revision(tmp_path / "benchmarks" / "results") == clean
        # a source edit does not
        (tmp_path / "src" / "code.py").write_text("x = 2\n")
        assert git_revision(tmp_path / "src") == f"{clean}-dirty"
        git("commit", "-q", "-am", "edit")
        assert git_revision(tmp_path / "src") not in (None, clean)

    def test_outside_a_checkout(self, tmp_path):
        from repro.bench.harness import git_revision

        assert git_revision(tmp_path) is None


class TestCellsExcludeSetUp:
    def test_runner_build_compiles_the_plan(self):
        from repro.bench.harness import _BENCH_RUNTIME, SYSTEMS

        pattern = catalog.tailed_four_clique(3)
        before = _BENCH_RUNTIME.stats.plan_cache_misses
        run = SYSTEMS["fringe-sgc"](pattern)
        assert _BENCH_RUNTIME.stats.plan_cache_misses == before + 1
        run(gen.erdos_renyi(30, 0.3, seed=4), 10.0)
        assert _BENCH_RUNTIME.stats.plan_cache_misses == before + 1

    def test_run_figure_builds_graph_caches_first(self, monkeypatch):
        from repro.bench import harness

        built = []
        monkeypatch.setattr(harness, "pair_index", lambda g: built.append(("pairs", g)))
        monkeypatch.setattr(harness, "adjacency_bitmap", lambda g: built.append(("bits", g)))
        monkeypatch.setattr(harness, "upper_starts", lambda g: built.append(("starts", g)))
        monkeypatch.setattr(
            harness, "slot_common_neighbors", lambda g: built.append(("slots", g))
        )
        graph = gen.erdos_renyi(20, 0.3, seed=5)
        run_figure("t", {"triangle": catalog.triangle()}, {"er": graph}, ["fringe-sgc"])
        assert built == [("pairs", graph), ("bits", graph), ("starts", graph), ("slots", graph)]
        built.clear()
        run_figure("t", {"triangle": catalog.triangle()}, {"er": graph}, ["stmatch-like"])
        assert built == []
