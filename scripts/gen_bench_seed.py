#!/usr/bin/env python
"""Regenerate the committed BENCH_seed.json benchmark trajectory.

Runs the quickstart example, libquantum under the aggressive check
optimizer, the Fig. 5 kernel suite and the serving tier under every
relevant configuration via the same ``run_bench_suite`` helper the
``bench --store`` CLI path uses, so CI records produced by
``repro bench --store`` are directly diffable against the seed with
``repro bench diff BENCH_seed.json BENCH_ci.json``.

Usage::

    PYTHONPATH=src python scripts/gen_bench_seed.py [OUTPUT]

Writes to BENCH_seed.json at the repository root by default.  The
output file is replaced (a seed is a single-record-per-suite baseline,
not an append-only history).

Every number in the seed is simulated, so the output is
byte-reproducible: ``scripts/smoke.sh`` regenerates it and ``cmp``s it
with the committed file, and ``bench diff`` fails on any changed
number.  Regenerate and commit the seed after any intentional change
to cycles, instruction counts or check counts; smoke fails until you
do.
"""

from __future__ import annotations

import os
import sys

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
sys.path.insert(0, os.path.join(_ROOT, "src"))
sys.path.insert(0, _ROOT)  # for examples.quickstart

from examples.quickstart import FIXED  # noqa: E402
from repro.apps.spec import SPEC_NAMES, kernel_source  # noqa: E402
from repro.cli import run_bench_suite  # noqa: E402
from repro.config import OUR_MPX, SPEC_CONFIGS  # noqa: E402
from repro.obs import bench_store  # noqa: E402
from repro.serve import run_load  # noqa: E402

SEED = 1

# Must match the `repro serve --store` invocations in scripts/smoke.sh
# so CI records diff cleanly against the seed.
SERVE_APPS = ("webserver", "dirserver", "classifier")
SERVE_PARAMS = dict(tenants=2, pool_size=2, batch=1, seed=SEED)
SERVE_REQUESTS = {"webserver": 400, "dirserver": 400, "classifier": 120}


def build_records() -> list[dict]:
    records = []

    # Suite 1: the quickstart example under every configuration —
    # byte-comparable with what smoke.sh stores from `repro bench`.
    _, benchmarks = run_bench_suite(FIXED, suite="quickstart", seed=SEED)
    records.append(bench_store.make_record("quickstart", SEED, benchmarks))

    # Suite 2: libquantum under the aggressive post-codegen check
    # optimizer, where elision actually fires (on the quickstart it
    # changes no cycles).  A separate suite so `bench diff --suite
    # libquantum-checkopt` gates the optimizer's cycle/check deltas
    # independently of the safe baseline (safe stays bit-identical to
    # the historical output, so the other suites double as its gate).
    _, ck_benchmarks = run_bench_suite(
        kernel_source("libquantum"), suite="libquantum-checkopt",
        seed=SEED, checkopt="aggressive",
    )
    records.append(
        bench_store.make_record("libquantum-checkopt", SEED, ck_benchmarks)
    )

    # Suite 3: the Fig. 5 SPEC kernels under the paper's config set.
    fig5_benchmarks = []
    for kernel in SPEC_NAMES:
        source = kernel_source(kernel, scale=1)
        _, benchmarks = run_bench_suite(
            source,
            suite=f"fig5/{kernel}",
            seed=SEED,
            configs={c.name: c for c in SPEC_CONFIGS},
        )
        fig5_benchmarks.extend(benchmarks)
    records.append(bench_store.make_record("fig5", SEED, fig5_benchmarks))

    # Suites 4-6: the serving tier, one record per app, matching what
    # smoke.sh stores from `repro serve --store`.  batch=1 makes the
    # cycle/instruction totals exactly reproducible.
    for app in SERVE_APPS:
        report = run_load(
            app, OUR_MPX, requests=SERVE_REQUESTS[app], **SERVE_PARAMS
        )
        assert report.faults == 0, f"serve seed: {app} faulted"
        assert report.valid == report.requests, f"serve seed: {app} invalid"
        records.append(
            bench_store.make_record(
                f"serve/{app}", SEED, [report.bench_entry()]
            )
        )
    return records


def main() -> int:
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    out = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        root, "BENCH_seed.json"
    )
    if os.path.exists(out):
        os.remove(out)
    for record in build_records():
        count = bench_store.append_record(out, record)
        total = len(record["benchmarks"])
        print(f"record #{count}: {record['name']} ({total} benchmarks)")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
