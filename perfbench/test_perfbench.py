"""The benchmark's own tests.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q

Each workload runs at ``TINY`` size for a fraction of a second.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.common import ColdBuildError, NullTracer, build
from perfbench.workloads import (
    TINY,
    WORKLOADS,
    Ctx,
    load_expected,
    run,
)
from repro.build.cache import ObjectCache
from repro.build.session import BuildSession
from repro.config import OUR_MPX

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(workload: str, trace: bool, **changes) -> dict:
    changes.setdefault("expected", load_expected())
    ctx = Ctx(workload=workload, seed=3, seconds=0.5, trace=trace,
              size=TINY, **changes)
    out, _tracer = run(ctx)
    return out.record()


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (False, True))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    record = tiny(workload, trace)
    assert record["correct"], record
    assert record["failed"] == 0 and record["attempted"] > 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in record["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if not trace:
        assert all(m["value"] > 0 for m in record["metrics"].values())


def test_workload_names_match_the_spec():
    assert tuple(w["name"] for w in SPEC["workloads"]) == WORKLOADS


def test_corrupted_expected_output_counts_as_an_error():
    expected = load_expected()
    expected["exit_codes"]["gobmk"] += 1
    record = tiny("spec", True, expected=expected)
    assert not record["correct"]
    assert record["metrics"]["error_rate"]["value"] > 0


def test_tampered_serve_response_counts_as_an_error():
    def flip(response: bytes) -> bytes:
        return bytes([response[0] ^ 1]) + response[1:]

    record = tiny("serve", True, tamper=flip)
    assert not record["correct"]
    assert record["metrics"]["error_rate"]["value"] > 0
    # An invalid response counts as over the latency limit.
    assert record["metrics"]["serve.over_limit_pct"]["value"] > 0


def test_each_served_request_has_its_own_request_id():
    # Long enough for many bursts, whose payloads are freed in turn.
    ctx = Ctx(workload="serve", seed=3, seconds=3.0, trace=True, size=TINY,
              expected=load_expected())
    _out, tracer = run(ctx)
    rids = [span.rid for span in tracer.spans
            if span.name == "serve.handle_request" and span.rid is not None]
    assert len(rids) > 10
    assert len(set(rids)) == len(rids)


def test_a_cached_session_is_refused(tmp_path):
    session = BuildSession(cache=ObjectCache(str(tmp_path)))
    with pytest.raises(ColdBuildError):
        build(session, NullTracer(), "int main() { return 0; }", OUR_MPX,
              seed=1, verify=False)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spec",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
