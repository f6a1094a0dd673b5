"""Content-addressed object cache: key isolation across configs and
seeds, hit/miss/store accounting through repro.obs, cold==warm
determinism, and corrupt-entry recovery.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro import OUR_MPX, OUR_SEG
from repro.build import (
    BuildSession,
    ObjectCache,
    dump_binary,
    load_uobject,
    object_cache_key,
)
from repro.config import ALL_CONFIGS
from repro.link.loader import load
from repro.obs import events
from repro.runtime.trusted import T_PROTOTYPES

PROGRAM = T_PROTOTYPES + """
int acc(int n) {
    int total = 0;
    for (int i = 0; i < n; i++) { total = total + i; }
    return total;
}

int main() {
    print_int(acc(9));
    return acc(4);
}
"""

OTHER = T_PROTOTYPES + """
int main() { return 3; }
"""


class TestKeyIsolation:
    def test_configs_and_seeds_never_collide(self):
        keys = {
            object_cache_key(PROGRAM, config, seed)
            for config in (OUR_MPX, OUR_SEG)
            for seed in (1, 2)
        }
        assert len(keys) == 4

    def test_source_and_mode_isolated(self):
        base = object_cache_key(PROGRAM, OUR_MPX, 1)
        assert object_cache_key(OTHER, OUR_MPX, 1) != base
        assert object_cache_key(PROGRAM, OUR_MPX, 1, allow_undefined=True) != base

    def test_distinct_builds_occupy_distinct_entries(self, tmp_path):
        cache = ObjectCache(tmp_path)
        session = BuildSession(cache=cache)
        for config in (OUR_MPX, OUR_SEG):
            for seed in (1, 2):
                session.build(PROGRAM, config, seed=seed)
        assert len(cache.entries()) == 4


class TestHitBehaviour:
    def test_hit_skips_codegen_span_and_counts(self, tmp_path):
        session = BuildSession(cache=ObjectCache(tmp_path))
        registry = events.Registry()
        with events.use(registry):
            cold = session.build(PROGRAM, OUR_MPX, seed=5)
            warm = session.build(PROGRAM, OUR_MPX, seed=5)
        names = [s.name for s in registry.spans]
        # Two full builds, but the warm one skipped every compile stage:
        # only the cold build recorded a codegen (or sema/lower/opt) span.
        assert names.count("compile.total") == 2
        assert names.count("compile.codegen") == 1
        assert names.count("compile.sema") == 1
        snap = registry.metrics_snapshot()
        assert snap["build.cache.hit"] == 1
        assert snap["build.cache.miss"] == 1
        assert snap["build.cache.store"] == 1
        assert dump_binary(cold) == dump_binary(warm)

    def test_cold_and_warm_binaries_equivalent(self, tmp_path):
        cache = ObjectCache(tmp_path)
        cold = BuildSession(cache=cache).build(PROGRAM, OUR_SEG, seed=9)
        # A brand-new session over the same cache directory — as a new
        # process would see it — must reproduce the binary exactly.
        warm = BuildSession(cache=cache).build(PROGRAM, OUR_SEG, seed=9)
        assert dump_binary(cold) == dump_binary(warm)
        p1, p2 = load(cold), load(warm)
        assert p1.run() == p2.run()
        assert p1.wall_cycles == p2.wall_cycles
        assert p1.stats.instructions == p2.stats.instructions

    def test_warm_session_hits_every_unit(self, tmp_path):
        session = BuildSession(cache=ObjectCache(tmp_path))
        units = [
            (source, config)
            for source in (PROGRAM, OTHER)
            for config in ALL_CONFIGS.values()
        ]
        cold = [session.build(s, c, seed=3) for s, c in units]
        registry = events.Registry()
        with events.use(registry):
            warm = [session.build(s, c, seed=3) for s, c in units]
        assert registry.metrics_snapshot()["build.cache.hit"] == len(units)
        assert "compile.codegen" not in {s.name for s in registry.spans}
        for a, b in zip(cold, warm):
            assert dump_binary(a) == dump_binary(b)


class TestSession:
    def test_jobs_other_than_one_rejected(self):
        BuildSession(jobs=1)
        with pytest.raises(ValueError, match="jobs must be 1"):
            BuildSession(jobs=2)


class TestInspection:
    def test_stats_shape(self, tmp_path):
        cache = ObjectCache(tmp_path)
        BuildSession(cache=cache).build(PROGRAM, OUR_MPX, seed=1)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        cache.clear()
        assert cache.stats()["entries"] == 0


class TestCorruptEntryRecovery:
    def test_corrupt_entry_recompiled_and_overwritten(self, tmp_path):
        cache = ObjectCache(tmp_path)
        session = BuildSession(cache=cache)
        good = session.build(PROGRAM, OUR_MPX, seed=2)
        digest, _, _ = cache.entries()[0]
        path = pathlib.Path(cache.path_for(digest))
        path.write_bytes(b"{ corrupt")

        registry = events.Registry()
        with events.use(registry):
            again = session.build(PROGRAM, OUR_MPX, seed=2)
        assert dump_binary(again) == dump_binary(good)
        snap = registry.metrics_snapshot()
        assert snap["build.cache.bad_entry"] == 1
        # The entry was rewritten with a valid object.
        json.loads(path.read_bytes().decode())

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param({"imm": "x"}, id="retyped-field"),
            pytest.param({"zzz": 0}, id="unknown-field"),
        ],
    )
    def test_mistyped_entry_recompiled_and_overwritten(self, tmp_path, edit):
        # Valid JSON of the wrong shape is as corrupt as torn bytes: the
        # typed decoder refuses it, and the unit is rebuilt.
        cache = ObjectCache(tmp_path)
        session = BuildSession(cache=cache)
        good = session.build(PROGRAM, OUR_MPX, seed=2)
        digest, _, _ = cache.entries()[0]
        path = pathlib.Path(cache.path_for(digest))
        doc = json.loads(path.read_bytes())
        nodes = [doc]
        while nodes:
            node = nodes.pop()
            if isinstance(node, dict) and node.get("$") == "MovRI":
                node["f"].update(edit)
                break
            if isinstance(node, (dict, list)):
                nodes.extend(node.values() if isinstance(node, dict) else node)
        else:
            raise AssertionError("no MovRI in the cached unit")
        path.write_bytes(json.dumps(doc).encode())

        registry = events.Registry()
        with events.use(registry):
            again = session.build(PROGRAM, OUR_MPX, seed=2)
        assert dump_binary(again) == dump_binary(good)
        assert registry.metrics_snapshot()["build.cache.bad_entry"] == 1
        # The entry was rewritten with a unit that decodes.
        load_uobject(path.read_bytes())
