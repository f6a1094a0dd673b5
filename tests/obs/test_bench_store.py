"""Benchmark trajectory store: schema, append, load, and diff gating."""

from __future__ import annotations

import json

import pytest

from repro.errors import ReproError
from repro.obs import bench_store


def record(name="suite", cycles=1000, instructions=900, wall=0.5):
    return bench_store.make_record(
        name=name,
        seed=1,
        engine="predecoded",
        cache="off",
        benchmarks=[
            bench_store.make_benchmark(
                name=f"{name}/Base",
                config="Base",
                cycles=cycles,
                instructions=instructions,
                checks={"bnd": 0, "cfi": 0, "t_calls": 3},
                wall_time_s=wall,
            ),
            bench_store.make_benchmark(
                name=f"{name}/OurMPX",
                config="OurMPX",
                cycles=cycles * 2,
                instructions=instructions * 2,
                checks={"bnd": 10, "cfi": 4, "t_calls": 3},
                wall_time_s=wall,
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
            (("benchmarks", 1, "wall_time_s"), None),
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
        assert len(err.strip().splitlines()) == 1

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
        assert not result.regressions

    def test_within_tolerance_passes(self):
        result = bench_store.diff_records(
            record(cycles=1000), record(cycles=1010)
        )
        assert result.ok  # +1% < 2% default

    def test_beyond_tolerance_regresses(self):
        result = bench_store.diff_records(
            record(cycles=1000), record(cycles=1500)
        )
        assert not result.ok
        metrics = {(r.benchmark, r.metric) for r in result.regressions}
        assert ("suite/Base", "cycles") in metrics

    def test_improvement_never_regresses(self):
        result = bench_store.diff_records(
            record(cycles=1000), record(cycles=500)
        )
        assert result.ok

    def test_wall_time_not_gated_by_default(self):
        result = bench_store.diff_records(
            record(wall=0.1), record(wall=10.0)
        )
        assert result.ok

    def test_wall_time_gated_with_explicit_tolerance(self):
        result = bench_store.diff_records(
            record(wall=0.1), record(wall=10.0), {"wall_time_s": 0.5}
        )
        assert not result.ok

    def test_custom_cycle_tolerance(self):
        old, new = record(cycles=1000), record(cycles=1100)
        assert not bench_store.diff_records(old, new).ok
        assert bench_store.diff_records(old, new, {"cycles": 0.25}).ok

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
                wall_time_s=0.0,
            )
        )
        result = bench_store.diff_records(old, new)
        assert result.ok
        assert result.only_new == ["suite/OurSeg"]
        assert result.only_old == []

    def test_render_diff_mentions_regression(self):
        result = bench_store.diff_records(
            record(cycles=1000), record(cycles=2000)
        )
        text = bench_store.render_diff(result)
        assert "REGRESSION" in text
        assert "regression(s)" in text
