"""The differential harness: oracles, reports, reproducibility."""

from __future__ import annotations

import time

import pytest

from repro.errors import ReproError
from repro.fuzz.gen import generate_source
from repro.fuzz.harness import (
    FuzzReport,
    Finding,
    _strip_prototypes,
    check_program,
    fuzz_mutants,
    fuzz_programs,
    fuzz_witnesses,
    run_fuzz,
)
from repro.obs import events


def body(seed, size=8):
    return _strip_prototypes(generate_source(seed, size))


def test_check_program_passes_on_generated_code():
    assert check_program(body(11)) == []


def test_check_program_detects_config_divergence():
    # A cast-laundered read of private memory through a public pointer:
    # Base happily prints the secret while the instrumented builds
    # fault (MPX) or read the public alias (seg).  The differential
    # oracle must flag the divergence — the generator never emits such
    # laundering, so a finding like this in a fuzz run is a real bug.
    problems = check_program(
        """
        int main() {
            private char *p = malloc_priv(16);
            p[0] = (private char)7;
            char *laundered = (char*)(int)p;
            int x = (int)laundered[0];
            print_int(x);
            free_priv(p);
            return 0;
        }
        """
    )
    kinds = {kind for kind, _ in problems}
    assert kinds == {"config-divergence"}


def test_fuzz_programs_is_reproducible():
    a = fuzz_programs(seed=5, n=3, size=6)
    b = fuzz_programs(seed=5, n=3, size=6)
    assert a.iterations == b.iterations == 3
    assert a.ok and b.ok
    assert [f.kind for f in a.findings] == [f.kind for f in b.findings]


def test_fuzz_mutants_kills_everything_sampled():
    report = fuzz_mutants(seed=2, n=1, size=6, stride=16)
    assert report.mutants_total > 0
    assert report.mutants_killed == report.mutants_total
    assert report.kill_score == 1.0
    assert report.kills_misattributed == 0
    assert report.ok
    assert "mutation-kill" in report.summary()


def test_fuzz_witnesses_corrupts_both_checkers():
    registry = events.Registry()
    with events.use(registry):
        report = fuzz_witnesses(seed=0, n=1, size=5)
    assert report.ok and report.kill_score == 1.0
    fired = {
        key for key, value in registry.metrics_snapshot().items()
        if key.startswith("fuzz.witness_mutants") and value
    }
    for operator in ("truncate-claim", "drop-edit", "shift-edit",
                     "truncate-edit", "self-provider", "double-delete"):
        assert f"fuzz.witness_mutants{{operator={operator}}}" in fired


def test_budget_truncates_but_never_fails():
    deadline = time.monotonic()  # already expired
    report = fuzz_programs(seed=0, n=50, deadline=deadline)
    assert report.iterations == 0
    assert report.ok


def test_run_fuzz_dispatches_all_engines():
    reports = run_fuzz(engine="all", seed=4, n=1, size=5, stride=64)
    assert [r.engine for r in reports] == ["program", "mutation", "witness"]
    assert all(r.ok for r in reports)


def test_run_fuzz_rejects_unknown_engine():
    with pytest.raises(ReproError):
        run_fuzz(engine="quantum")


def test_run_fuzz_corpus_needs_directory():
    with pytest.raises(ReproError):
        run_fuzz(engine="corpus")


def test_finding_render_includes_repro():
    finding = Finding(
        engine="mutation",
        kind="mutant-survived",
        detail="drop-bound-check @3 survived",
        seed=9,
        source="int main() { return 0; }\n",
    )
    rendered = finding.render()
    assert "mutant-survived" in rendered
    assert "seed 9" in rendered
    assert "minimized repro" in rendered


def test_empty_report_scores_full_kill():
    assert FuzzReport(engine="mutation", seed=0).kill_score == 1.0
