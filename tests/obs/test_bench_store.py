"""Benchmark trajectory store: schema, append, load, and the exact diff
gate."""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import ReproError
from repro.obs import bench_store


def record(name="suite", cycles=1000, instructions=900, bnd=10):
    return bench_store.make_record(
        name=name,
        seed=1,
        benchmarks=[
            bench_store.make_benchmark(
                name=f"{name}/Base",
                config="Base",
                cycles=cycles,
                instructions=instructions,
                checks={"bnd": 0, "cfi": 0, "t_calls": 3},
            ),
            bench_store.make_benchmark(
                name=f"{name}/OurMPX",
                config="OurMPX",
                cycles=cycles * 2,
                instructions=instructions * 2,
                checks={"bnd": bnd, "cfi": 4, "t_calls": 3},
            ),
        ],
    )


class TestStore:
    def test_append_creates_and_grows(self, tmp_path):
        path = str(tmp_path / "BENCH_t.json")
        assert bench_store.append_record(path, record()) == 1
        assert bench_store.append_record(path, record(cycles=1100)) == 2
        doc = bench_store.load_trajectory(path)
        assert doc["schema"] == bench_store.SCHEMA_VERSION
        assert doc["kind"] == bench_store.KIND
        assert len(doc["records"]) == 2

    def test_latest_record_filters_by_suite(self, tmp_path):
        path = str(tmp_path / "BENCH_t.json")
        bench_store.append_record(path, record(name="a", cycles=10))
        bench_store.append_record(path, record(name="b", cycles=20))
        bench_store.append_record(path, record(name="a", cycles=30))
        latest = bench_store.latest_record(path, name="a")
        assert latest["benchmarks"][0]["cycles"] == 30
        with pytest.raises(ReproError):
            bench_store.latest_record(path, name="zzz")

    def test_corrupt_json_raises_friendly_error(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text("{not json")
        with pytest.raises(ReproError) as err:
            bench_store.load_trajectory(str(path))
        assert "not valid JSON" in str(err.value)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": 1, "kind": "something"}))
        with pytest.raises(ReproError) as err:
            bench_store.load_trajectory(str(path))
        assert "bench trajectory" in str(err.value)

    @pytest.mark.parametrize(
        "where, value",
        (
            ((), 5),
            (("benchmarks",), 5),
            (("benchmarks", 0), 3),
            (("benchmarks", 0, "name"), 7),
            (("benchmarks", 0, "cycles"), "x"),
            (("benchmarks", 1, "checks"), [1, 2]),
            (("benchmarks", 1, "checks", "bnd"), "10"),
        ),
    )
    def test_malformed_record_is_a_friendly_diff_error(
        self, where, value, tmp_path, capsys
    ):
        from repro.cli import main

        good = str(tmp_path / "BENCH_good.json")
        bad = str(tmp_path / "BENCH_bad.json")
        bench_store.append_record(good, record())
        doc = {"schema": 1, "kind": bench_store.KIND, "records": [record()]}
        # Replace the value at ``where`` inside the only record.
        parent, key = doc["records"], 0
        for step in where:
            parent, key = parent[key], step
        parent[key] = value
        with open(bad, "w") as handle:
            json.dump(doc, handle)
        assert main(["bench", "diff", good, bad]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: record 0")
        if where:  # a record object names its suite
            assert err.startswith(f"error: {bad}: record 0 ('suite')")
        assert len(err.strip().splitlines()) == 1
        with pytest.raises(ReproError):
            bench_store.load_trajectory(bad)

    def test_extra_keys_of_older_files_are_ignored(self, tmp_path):
        old = record()
        old.update(engine="predecoded", cache="off")
        for bench in old["benchmarks"]:
            bench["wall_time_s"] = 0.5
        path = str(tmp_path / "BENCH_old.json")
        bench_store.append_record(path, old)
        loaded = bench_store.latest_record(path)
        assert bench_store.diff_records(loaded, record()).ok

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "BENCH_v99.json"
        path.write_text(
            json.dumps(
                {"schema": 99, "kind": bench_store.KIND, "records": []}
            )
        )
        with pytest.raises(ReproError) as err:
            bench_store.load_trajectory(str(path))
        assert "schema" in str(err.value)


class TestDiff:
    def test_identical_records_pass(self):
        result = bench_store.diff_records(record(), record())
        assert result.ok
        assert not result.changes
        # cycles, instructions and three check counts per benchmark
        assert result.compared == 10

    def test_cycle_increase_changes(self):
        result = bench_store.diff_records(
            record(cycles=1000), record(cycles=1500)
        )
        assert not result.ok
        metrics = {(r.benchmark, r.metric) for r in result.changes}
        assert ("suite/Base", "cycles") in metrics

    def test_check_count_changes(self):
        result = bench_store.diff_records(record(bnd=10), record(bnd=9))
        assert [(r.benchmark, r.metric, r.old, r.new)
                for r in result.changes] == [
            ("suite/OurMPX", "checks.bnd", 10, 9)
        ]

    def test_missing_check_kind_reads_zero(self):
        new = record()
        del new["benchmarks"][1]["checks"]["cfi"]
        result = bench_store.diff_records(record(), new)
        assert [(r.metric, r.old, r.new) for r in result.changes] == [
            ("checks.cfi", 4, 0)
        ]

    def test_disjoint_records_error(self):
        with pytest.raises(ReproError):
            bench_store.diff_records(record(name="a"), record(name="b"))

    def test_superset_reports_only_lists(self):
        old = record()
        new = record()
        new["benchmarks"].append(
            bench_store.make_benchmark(
                name="suite/OurSeg",
                config="OurSeg",
                cycles=1,
                instructions=1,
                checks={},
            )
        )
        result = bench_store.diff_records(old, new)
        assert result.ok
        assert result.only_new == ["suite/OurSeg"]
        assert result.only_old == []

    def test_dropped_benchmark_fails_the_diff(self, tmp_path, capsys):
        from repro.cli import main

        old = record()
        new = record()
        new["benchmarks"] = [
            b for b in new["benchmarks"] if b["config"] != "OurMPX"
        ]
        result = bench_store.diff_records(old, new)
        assert not result.ok
        assert result.changes == []
        assert result.only_old == ["suite/OurMPX"]
        assert "dropped  suite/OurMPX" in bench_store.render_diff(result)
        old_path = str(tmp_path / "BENCH_old.json")
        new_path = str(tmp_path / "BENCH_new.json")
        bench_store.append_record(old_path, old)
        bench_store.append_record(new_path, new)
        assert main(["bench", "diff", old_path, new_path]) == 3
        capsys.readouterr()
        assert main(["bench", "diff", old_path, new_path, "--json"]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        assert doc["only_old"] == ["suite/OurMPX"]

    def test_render_diff_shows_old_new_and_delta(self):
        result = bench_store.diff_records(
            record(cycles=1000), record(cycles=2000)
        )
        text = bench_store.render_diff(result)
        assert "CHANGED" in text
        assert "1,000 ->" in text and "2,000" in text
        assert "+100.00%" in text
        assert text.endswith("2 of 10 compared number(s) changed")


def seed_record(suite: str) -> dict:
    """The committed seed's record for ``suite``."""
    root = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
    return bench_store.latest_record(
        os.path.join(root, "BENCH_seed.json"), name=suite
    )


class TestExactGate:
    """Changes inside a relative cycle tolerance, improvements and
    check-count changes all fail the gate."""

    @staticmethod
    def mutate(doc: dict, config: str, how) -> dict:
        doc = json.loads(json.dumps(doc))
        bench = next(
            b for b in doc["benchmarks"] if b["config"] == config
        )
        how(bench)
        return doc

    @staticmethod
    def drop_bounds_checks(bench):
        # (a) checkopt elides 4,096 more bounds checks, 1 cycle each
        bench["checks"]["bnd"] -= 4096
        bench["cycles"] -= 4096

    @staticmethod
    def slower(bench):
        # (b) +1.9% cycles: a small slowdown
        bench["cycles"] = int(bench["cycles"] * 1.019)

    @staticmethod
    def stale(bench):
        # (c) half the cycles: a seed older than an optimisation
        bench["cycles"] //= 2

    @pytest.mark.parametrize("how", ("drop_bounds_checks", "slower", "stale"))
    def test_change_exits_3(self, how, tmp_path, capsys):
        from repro.cli import main

        seed = seed_record("libquantum-checkopt")
        changed = self.mutate(seed, "OurMPX", getattr(self, how))
        old = str(tmp_path / "BENCH_old.json")
        new = str(tmp_path / "BENCH_new.json")
        bench_store.append_record(old, seed)
        bench_store.append_record(new, changed)
        assert main(["bench", "diff", old, new]) == 3
        out = capsys.readouterr().out
        assert "libquantum-checkopt/OurMPX" in out
        assert main(["bench", "diff", old, old]) == 0
