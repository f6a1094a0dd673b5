"""Cache keying across --checkopt levels: builds at different check
optimization levels must never cross-serve from a shared ObjectCache
(that would be cache poisoning — an aggressive binary returned for an
off build, or vice versa)."""

from __future__ import annotations

from repro import OUR_MPX
from repro.backend.isa import check_kind
from repro.build import (
    BuildSession,
    ObjectCache,
    dump_binary,
    object_cache_key,
)
from repro.config import CHECKOPT_LEVELS
from repro.link.loader import load
from repro.obs import events
from repro.runtime.trusted import T_PROTOTYPES

PROGRAM = T_PROTOTYPES + """
int sum(int *a, int n) {
    int s = 0;
    for (int i = 0; i < n; i++) { s += a[i] + a[i]; }
    return s;
}

int main() {
    int buf[6];
    for (int i = 0; i < 6; i++) { buf[i] = i + 1; }
    print_int(sum(buf, 6));
    return 0;
}
"""


def bnd_sites(binary):
    return sum(1 for insn in binary.code if check_kind(insn) == "bnd")


class TestCheckoptKeying:
    def test_levels_never_collide(self):
        keys = {
            object_cache_key(PROGRAM, OUR_MPX.variant(checkopt=level), 1)
            for level in CHECKOPT_LEVELS
        }
        assert len(keys) == len(CHECKOPT_LEVELS)

    def test_shared_cache_never_cross_serves(self, tmp_path):
        """Build aggressive first, then off, through ONE cache dir; the
        off build must recompile (miss) and keep all its checks."""
        cache = ObjectCache(tmp_path)
        session = BuildSession(cache=cache)
        registry = events.Registry()
        with events.use(registry):
            hot = session.build(
                PROGRAM, OUR_MPX.variant(checkopt="aggressive"), seed=1
            )
            cold = session.build(
                PROGRAM, OUR_MPX.variant(checkopt="off"), seed=1
            )
        snap = registry.metrics_snapshot()
        assert snap["build.cache.miss"] == 2
        assert snap.get("build.cache.hit", 0) == 0
        assert dump_binary(hot) != dump_binary(cold)
        assert bnd_sites(cold) > bnd_sites(hot)

    def test_warm_rebuild_serves_matching_level_only(self, tmp_path):
        cache = ObjectCache(tmp_path)
        first = {
            level: BuildSession(cache=cache).build(
                PROGRAM, OUR_MPX.variant(checkopt=level), seed=3
            )
            for level in CHECKOPT_LEVELS
        }
        # A fresh session over the same directory (as a new process
        # would see it) must reproduce each level bit-for-bit.
        session = BuildSession(cache=cache)
        registry = events.Registry()
        with events.use(registry):
            for level in CHECKOPT_LEVELS:
                warm = session.build(
                    PROGRAM, OUR_MPX.variant(checkopt=level), seed=3
                )
                assert dump_binary(warm) == dump_binary(first[level])
        snap = registry.metrics_snapshot()
        assert snap["build.cache.hit"] == len(CHECKOPT_LEVELS)
        assert snap.get("build.cache.miss", 0) == 0

    def test_levels_agree_observationally(self, tmp_path):
        cache = ObjectCache(tmp_path)
        session = BuildSession(cache=cache)
        outputs = set()
        for level in CHECKOPT_LEVELS:
            binary = session.build(
                PROGRAM, OUR_MPX.variant(checkopt=level), seed=1
            )
            process = load(binary)
            exit_code = process.run()
            outputs.add((exit_code, tuple(process.stdout)))
        assert len(outputs) == 1
