"""CLI tests for the profiling tier: report, bench --store/diff,
bench's check columns and trace, flamegraph/block-profile flags, and
friendly error paths."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

PROGRAM = """
int sum_arr(int *buf, int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) { buf[i] = i; acc += buf[i]; }
    return acc;
}
int main() {
    int *buf = (int*)malloc_pub(100 * sizeof(int));
    print_int(sum_arr(buf, 100));
    free_pub((char*)buf);
    return 0;
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text(PROGRAM)
    return str(path)


class TestReportCommand:
    def test_report_table_lists_categories(self, source_file, capsys):
        assert main(["report", source_file, "--seed", "2"]) == 0
        out = capsys.readouterr().out
        for column in ("config", "bnd", "cfi", "chkstk", "other"):
            assert column in out
        assert "OurMPX" in out and "OurSeg" in out

    def test_report_json_decomposition_is_exact(self, source_file, capsys):
        assert main(
            ["report", source_file, "--seed", "2", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["base"] == "Base"
        by_config = {entry["config"]: entry for entry in doc["configs"]}
        assert by_config["Base"]["delta"] == 0
        for entry in doc["configs"]:
            breakdown = entry["breakdown"]
            total = sum(part["cycles"] for part in breakdown.values())
            assert total == entry["delta"], entry["config"]
        mpx = by_config["OurMPX"]
        assert mpx["breakdown"]["bnd"]["count"] > 0
        assert mpx["breakdown"]["cfi"]["count"] > 0
        assert by_config["OurSeg"]["breakdown"]["bnd"]["count"] == 0

    def test_report_engines_agree(self, source_file, capsys):
        assert main(["report", source_file, "--seed", "2", "--json"]) == 0
        fast = capsys.readouterr().out
        assert main(
            ["report", source_file, "--seed", "2", "--json",
             "--engine", "reference"]
        ) == 0
        ref = capsys.readouterr().out
        assert json.loads(fast)["configs"] == json.loads(ref)["configs"]

    def test_report_config_subset_keeps_base(self, source_file, capsys):
        assert main(
            ["report", source_file, "--configs", "OurMPX", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [e["config"] for e in doc["configs"]] == ["Base", "OurMPX"]

    def test_report_unknown_config_friendly_error(self, source_file,
                                                  capsys):
        assert main(["report", source_file, "--configs", "Bogus"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Bogus" in err


class TestRunProfileFlags:
    def test_profile_blocks_table(self, source_file, capsys):
        assert main(
            ["run", source_file, "--profile-blocks", "--seed", "2"]
        ) == 0
        err = capsys.readouterr().err
        assert "block profile" in err
        assert "sum_arr" in err

    def test_flamegraph_written(self, source_file, tmp_path, capsys):
        out = tmp_path / "prof.folded"
        assert main(
            ["run", source_file, "--flamegraph", str(out), "--seed", "2"]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines and lines == sorted(lines)
        assert any(line.startswith("sum_arr;") for line in lines)
        for line in lines:
            frame, value = line.rsplit(" ", 1)
            assert frame and int(value) >= 0

    def test_trace_with_block_profiler_has_counter_tracks(
        self, source_file, tmp_path, capsys
    ):
        trace = tmp_path / "trace.json"
        assert main(
            ["run", source_file, "--profile-blocks", "--seed", "2",
             "--trace", str(trace)]
        ) == 0
        data = json.loads(trace.read_text())
        counters = [e for e in data["traceEvents"] if e["ph"] == "C"]
        assert counters
        assert any(
            e["name"].startswith("blockprof.check_cycles") for e in counters
        )


class TestBenchStoreAndDiff:
    def run_store(self, source_file, path, cycles_factor=None):
        assert main(
            ["bench", source_file, "--json", "--seed", "2",
             "--store", path, "--bench-name", "suite"]
        ) == 0
        if cycles_factor is not None:
            with open(path) as handle:
                doc = json.load(handle)
            bench = doc["records"][-1]["benchmarks"][-1]
            bench["cycles"] = int(bench["cycles"] * cycles_factor)
            with open(path, "w") as handle:
                json.dump(doc, handle)

    def test_store_appends_records(self, source_file, tmp_path, capsys):
        from repro.obs import bench_store

        path = str(tmp_path / "BENCH_t.json")
        self.run_store(source_file, path)
        self.run_store(source_file, path)
        capsys.readouterr()
        doc = bench_store.load_trajectory(path)
        assert len(doc["records"]) == 2
        record = doc["records"][0]
        assert set(record) == {"schema", "name", "seed", "benchmarks"}
        assert record["name"] == "suite"
        assert record["seed"] == 2
        names = [b["name"] for b in record["benchmarks"]]
        assert names[0] == "suite/Base"
        for bench in record["benchmarks"]:
            assert set(bench) == {
                "name", "config", "cycles", "instructions", "checks"
            }
            assert bench["cycles"] > 0
        assert doc["records"][0] == doc["records"][1]

    def test_diff_identical_exits_zero(self, source_file, tmp_path,
                                       capsys):
        a = str(tmp_path / "BENCH_a.json")
        b = str(tmp_path / "BENCH_b.json")
        self.run_store(source_file, a)
        self.run_store(source_file, b)
        capsys.readouterr()
        assert main(["bench", "diff", a, b]) == 0
        out = capsys.readouterr().out
        assert "bench diff: 0 of " in out

    def test_diff_injected_regression_exits_nonzero(
        self, source_file, tmp_path, capsys
    ):
        a = str(tmp_path / "BENCH_a.json")
        b = str(tmp_path / "BENCH_b.json")
        self.run_store(source_file, a)
        self.run_store(source_file, b, cycles_factor=1.5)
        capsys.readouterr()
        code = main(["bench", "diff", a, b])
        assert code == 3
        assert "CHANGED" in capsys.readouterr().out

    def test_diff_json_output(self, source_file, tmp_path, capsys):
        a = str(tmp_path / "BENCH_a.json")
        b = str(tmp_path / "BENCH_b.json")
        self.run_store(source_file, a)
        self.run_store(source_file, b, cycles_factor=2.0)
        capsys.readouterr()
        assert main(["bench", "diff", a, b, "--json"]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        [change] = doc["changes"]
        assert change["metric"] == "cycles"
        assert change["new"] == 2 * change["old"]
        assert change["delta_pct"] == 100.0

    @pytest.mark.parametrize(
        "flag", ("--tol-cycles", "--tol-instructions", "--tol-wall")
    )
    def test_diff_has_no_tolerance(self, flag, source_file, tmp_path,
                                   capsys):
        a = str(tmp_path / "BENCH_a.json")
        self.run_store(source_file, a)
        with pytest.raises(SystemExit) as exit_:
            main(["bench", "diff", a, a, flag, "0.6"])
        assert exit_.value.code == 2


class TestBenchChecksAndTrace:
    """``bench`` prints per-config check counts as columns and, under
    ``--trace``, one ``compile.total`` span per config."""

    def test_table_check_columns_match_a_direct_run(self, source_file,
                                                    capsys):
        from repro.compiler import compile_and_load
        from repro.config import ALL_CONFIGS
        from repro.runtime.trusted import T_PROTOTYPES

        assert main(["bench", source_file]) == 0
        out = capsys.readouterr().out
        for name in ALL_CONFIGS:
            assert name in out
        process = compile_and_load(
            T_PROTOTYPES + PROGRAM, ALL_CONFIGS["OurMPX"]
        )
        process.run()
        row = next(
            line.split() for line in out.splitlines()
            if line.startswith("OurMPX ")
        )
        assert process.stats.bnd_checks > 0
        assert row[-3:] == [
            str(process.stats.bnd_checks),
            str(process.stats.cfi_checks),
            str(process.stats.t_calls),
        ]

    def test_trace_has_compile_total_per_config(self, source_file,
                                                tmp_path, capsys):
        trace = tmp_path / "bench.json"
        assert main(["bench", source_file, "--trace", str(trace)]) == 0
        data = json.loads(trace.read_text())
        configs = {
            e["args"].get("config")
            for e in data["traceEvents"]
            if e["ph"] == "X" and e["name"] == "compile.total"
        }
        assert {"Base", "OurMPX"} <= configs

    def test_stats_subcommand_is_gone(self, source_file, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["stats", source_file])
        assert exit_.value.code == 2


class TestFriendlyErrors:
    """bench/bench diff exit with a one-line error on missing or corrupt
    inputs instead of a traceback."""

    def test_bench_missing_source(self, capsys):
        assert main(["bench", "/no/such/file.mc"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_bench_diff_missing_file(self, tmp_path, capsys):
        assert main(
            ["bench", "diff", str(tmp_path / "a.json"),
             str(tmp_path / "b.json")]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_bench_diff_corrupt_json(self, source_file, tmp_path, capsys):
        good = str(tmp_path / "BENCH_good.json")
        TestBenchStoreAndDiff().run_store(source_file, good)
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{definitely not json")
        capsys.readouterr()
        assert main(["bench", "diff", good, str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "not valid JSON" in err
        assert len(err.strip().splitlines()) == 1

    def test_bench_store_onto_corrupt_trajectory(self, source_file,
                                                 tmp_path, capsys):
        store = tmp_path / "BENCH_c.json"
        store.write_text('{"kind": "bench-trajectory"')
        assert main(
            ["bench", source_file, "--store", str(store)]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
