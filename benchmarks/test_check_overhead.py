"""Check-overhead decomposition over the Fig. 5 kernels.

The block profiler attributes every executed bnd/CFI/magic/stack-probe
check its exact cycle cost.  This suite regenerates the Fig. 5-style
decomposition per kernel and pins the exactness contract: per-category
check cycles plus the residual ("other": spills, extra moves, allocator
differences) sum to the config's cycle delta over Base — the profiler
never loses or invents a cycle.
"""

from __future__ import annotations

import pytest

from repro.apps.spec import SPEC_NAMES, kernel_source
from repro.build import default_session
from repro.config import SPEC_CONFIGS
from repro.link.loader import load
from repro.obs.blockprof import attach_block_profiler

from .conftest import Table, fmt_pct, overhead_pct

_RESULTS: dict[str, dict[str, dict]] = {}


def _profile_kernel(name: str) -> dict[str, dict]:
    if name in _RESULTS:
        return _RESULTS[name]
    source = kernel_source(name, scale=1)
    session = default_session()
    binaries = [session.build(source, config) for config in SPEC_CONFIGS]
    results: dict[str, dict] = {}
    for config, binary in zip(SPEC_CONFIGS, binaries):
        process = load(binary)
        profiler = attach_block_profiler(process.machine)
        process.run()
        results[config.name] = {
            "cycles": process.wall_cycles,
            "stats": process.stats,
            "summary": profiler.check_summary(),
        }
    _RESULTS[name] = results
    return results


@pytest.mark.parametrize("kernel", SPEC_NAMES)
def test_decomposition_exact(kernel, benchmark):
    results = benchmark.pedantic(
        _profile_kernel, args=(kernel,), rounds=1, iterations=1
    )
    base = results["Base"]["cycles"]
    for config_name, result in results.items():
        delta = result["cycles"] - base
        check_total = sum(c["cycles"] for c in result["summary"].values())
        other = delta - check_total
        # Exactness: categories + residual == delta, by construction;
        # the substantive claim is that the categories themselves are
        # consistent with the machine's own counters.
        assert check_total + other == delta
        stats = result["stats"]
        assert result["summary"]["bnd"]["count"] == stats.bnd_checks
        assert result["summary"]["cfi"]["count"] == stats.cfi_checks
    benchmark.extra_info.update(
        {
            name: overhead_pct(base, r["cycles"])
            for name, r in results.items()
        }
    )


def test_check_category_shape():
    """OurMPX pays bnd cycles that OurSeg does not; both pay CFI."""
    results = _profile_kernel(SPEC_NAMES[0])
    mpx = results["OurMPX"]["summary"]
    seg = results["OurSeg"]["summary"]
    assert mpx["bnd"]["cycles"] > 0
    assert seg["bnd"]["cycles"] == 0
    assert mpx["cfi"]["count"] > 0
    assert seg["cfi"]["count"] > 0


def test_render_decomposition_table(capsys):
    """Print the Fig. 5-style decomposition table for the report."""
    table = Table(
        "check-overhead decomposition (avg % of Base cycles)",
        ["config", "bnd", "cfi", "chkstk", "other", "total"],
    )
    sums: dict[str, dict[str, float]] = {}
    for kernel in SPEC_NAMES:
        results = _profile_kernel(kernel)
        base = results["Base"]["cycles"]
        for config_name, result in results.items():
            if config_name == "Base":
                continue
            delta = result["cycles"] - base
            summary = result["summary"]
            check_total = sum(c["cycles"] for c in summary.values())
            row = sums.setdefault(
                config_name,
                {"bnd": 0.0, "cfi": 0.0, "chkstk": 0.0, "other": 0.0,
                 "total": 0.0},
            )
            row["bnd"] += 100.0 * summary["bnd"]["cycles"] / base
            row["cfi"] += 100.0 * summary["cfi"]["cycles"] / base
            row["chkstk"] += 100.0 * summary["chkstk"]["cycles"] / base
            row["other"] += 100.0 * (delta - check_total) / base
            row["total"] += 100.0 * delta / base
    n = len(SPEC_NAMES)
    for config_name, row in sums.items():
        table.add(
            config_name,
            *[fmt_pct(row[k] / n)
              for k in ("bnd", "cfi", "chkstk", "other", "total")],
        )
    table.show()
    assert "OurMPX" in capsys.readouterr().out
