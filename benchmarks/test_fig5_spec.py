"""Figure 5: SPEC CPU 2006 execution time relative to Base.

Paper results (Surface Pro 4, i7-6650U): OurMPX up to +74.03%, OurSeg
up to +24.5% and consistently below MPX; CFI alone averages +3.62%;
BaseOA is negligible and sometimes *negative* (the custom allocator
helps milc); OurBare can be negative (disabled optimizations sometimes
help, hmmer).

We regenerate the figure over the kernel suite and assert the shape:

* OurSeg <= OurMPX on every kernel (segmentation is the cheaper scheme);
* average CFI overhead is a few percent;
* average MPX overhead is moderate (the paper's SPEC average is ~12%);
* BaseOA stays close to Base, and is negative on the allocation-heavy
  kernel (milc).
"""

from __future__ import annotations

import pytest

from repro.apps.spec import SPEC_NAMES, kernel_source
from repro.build import default_session
from repro.config import SPEC_CONFIGS
from repro.link.loader import load

from .conftest import Table, fmt_pct, overhead_pct

_RESULTS: dict[str, dict[str, int]] = {}


def _run_kernel(name: str) -> dict[str, int]:
    if name in _RESULTS:
        return _RESULTS[name]
    source = kernel_source(name, scale=1)
    # All six configurations build through the shared (cached) session
    # first, then run one after another.
    session = default_session()
    binaries = [session.build(source, config) for config in SPEC_CONFIGS]
    cycles: dict[str, int] = {}
    expected_rc = None
    for config, binary in zip(SPEC_CONFIGS, binaries):
        process = load(binary)
        rc = process.run()
        if expected_rc is None:
            expected_rc = rc
        assert rc == expected_rc, f"{name}: {config.name} diverged"
        cycles[config.name] = process.wall_cycles
    _RESULTS[name] = cycles
    return cycles


@pytest.mark.parametrize("kernel", SPEC_NAMES)
def test_fig5_kernel(kernel, benchmark):
    cycles = benchmark.pedantic(
        _run_kernel, args=(kernel,), rounds=1, iterations=1
    )
    base = cycles["Base"]
    benchmark.extra_info.update(
        {name: overhead_pct(base, c) for name, c in cycles.items()}
    )
    # Per-kernel shape: segmentation never costs more than MPX.
    assert cycles["OurSeg"] <= cycles["OurMPX"] * 1.01
    # Full MPX instrumentation stays within the paper's envelope.
    assert overhead_pct(base, cycles["OurMPX"]) <= 80.0
    # The allocator swap alone is a small effect.
    assert abs(overhead_pct(base, cycles["BaseOA"])) <= 15.0


def test_fig5_aggregate_shapes(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for kernel in SPEC_NAMES:
        _run_kernel(kernel)

    table = Table(
        "Figure 5 — SPEC CPU overhead vs Base (simulated cycles)",
        ["kernel", "Base(cyc)", "BaseOA", "OurBare", "OurCFI", "OurMPX", "OurSeg"],
    )
    cfi_overheads = []
    mpx_overheads = []
    seg_overheads = []
    for kernel in SPEC_NAMES:
        cycles = _RESULTS[kernel]
        base = cycles["Base"]
        table.add(
            kernel,
            base,
            fmt_pct(overhead_pct(base, cycles["BaseOA"])),
            fmt_pct(overhead_pct(base, cycles["OurBare"])),
            fmt_pct(overhead_pct(base, cycles["OurCFI"])),
            fmt_pct(overhead_pct(base, cycles["OurMPX"])),
            fmt_pct(overhead_pct(base, cycles["OurSeg"])),
        )
        cfi_overheads.append(
            overhead_pct(cycles["OurBare"], cycles["OurCFI"])
        )
        mpx_overheads.append(overhead_pct(base, cycles["OurMPX"]))
        seg_overheads.append(overhead_pct(base, cycles["OurSeg"]))
    avg_cfi = sum(cfi_overheads) / len(cfi_overheads)
    avg_mpx = sum(mpx_overheads) / len(mpx_overheads)
    avg_seg = sum(seg_overheads) / len(seg_overheads)
    table.add("AVERAGE", "", "", "", fmt_pct(avg_cfi), fmt_pct(avg_mpx),
              fmt_pct(avg_seg))
    table.show()
    print(f"paper: CFI avg +3.62%, MPX <= +74.03%, Seg <= +24.5%, "
          f"MPX SPEC average ~ +12%")

    # Aggregate shapes from the paper.
    assert 0.0 <= avg_cfi <= 12.0, "CFI should average a few percent"
    assert 5.0 <= avg_mpx <= 45.0, "MPX average should be moderate"
    assert avg_seg < avg_mpx, "segmentation beats MPX on average"
    assert max(mpx_overheads) <= 80.0
    assert max(seg_overheads) <= 35.0
