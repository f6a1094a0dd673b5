"""The loader (Section 6): maps regions, initializes globals, installs
the externals table, sets the MPX bound registers or segment registers,
creates heaps and stacks, and starts the process.

The externals table is the loader's own: the binary says only which T
functions it imports.  The loader writes slot ``i`` (``NATIVE_BASE +
i``) itself and maps the table read-only, and it refuses a binary whose
initializers would write into it, so no binary can point a T call at U
code.
"""

from __future__ import annotations

from ..backend import regs
from ..errors import LoadError
from ..machine.cpu import Machine
from ..obs import events
from ..runtime.alloc import NativeAllocator, RegionAllocator
from ..runtime.trusted import TrustedRuntime
from .layout import NATIVE_BASE, REGION_SIZE, STACK_AREA, externals_table
from .objfile import Binary


class Process:
    """A loaded program: machine + trusted runtime, ready to run."""

    def __init__(self, machine: Machine, runtime: TrustedRuntime):
        self.machine = machine
        self.runtime = runtime
        self._image_runtime_state = None

    def seal(self) -> None:
        """Capture the current machine + runtime state as this
        process's image; ``reset()`` rewinds to it.  ``load()`` seals
        every process once loading is complete."""
        self.machine.seal()
        self._image_runtime_state = self.runtime.snapshot_state()

    def reset(self) -> None:
        """Restore the sealed image — machine state (memory, caches,
        cycles, Stats, threads) and runtime state (channels, files,
        log, RNG, allocators) — without re-linking or re-loading."""
        if self._image_runtime_state is None:
            raise LoadError("process was never sealed; cannot reset")
        self.machine.reset()
        self.runtime.restore_state(self._image_runtime_state)

    def run(self, max_instructions: int = 500_000_000) -> int:
        registry = events.active()
        if registry is None:
            return self.machine.run(max_instructions)
        machine = self.machine
        start = machine.wall_cycles
        try:
            return machine.run(max_instructions)
        finally:
            # Record the execution span on the simulated-cycle clock and
            # snapshot the counters — also on faults, so a stopped attack
            # still shows up in the trace and metrics.
            registry.add_span(
                "machine.run",
                ts=start,
                dur=machine.wall_cycles - start,
                clock=events.CYCLES,
                cat="machine",
                config=machine.config.name,
            )
            machine.publish_metrics(registry)

    @property
    def wall_cycles(self) -> int:
        return self.machine.wall_cycles

    @property
    def stats(self):
        return self.machine.stats

    @property
    def stdout(self) -> list[str]:
        return self.runtime.stdout


def load(
    binary: Binary,
    runtime: TrustedRuntime | None = None,
    n_cores: int = 4,
    engine: str = "predecoded",
) -> Process:
    if runtime is None:
        runtime = TrustedRuntime()
    layout = binary.layout
    entry = binary.entry
    if not isinstance(entry, str) or entry not in binary.label_addrs:
        raise LoadError(f"entry {entry!r} names no label")
    config = binary.config
    regions = [layout.public, layout.private, layout.t_region]

    def unmapped(lo: int, hi: int) -> bool:
        return hi < lo or not any(
            region.contains(lo, hi - lo) for region in regions if region
        )

    # Every address the binary's data names must lie in a region the
    # loader maps, so writing or protecting it stays bounded; the heaps
    # start past the globals, inside their regions.
    sizes = (binary.pub_globals_size, binary.priv_globals_size)
    if not all(0 <= size <= REGION_SIZE - STACK_AREA for size in sizes):
        raise LoadError(f"globals sizes {sizes} do not fit the regions")
    for lo, hi in binary.read_only_ranges:
        if unmapped(lo, hi):
            raise LoadError(
                f"read-only range [{lo:#x}, {hi:#x}) is outside the "
                "mapped regions"
            )
    table_lo, table_hi = externals_table(layout, len(binary.imports))
    for addr, data in binary.global_inits:
        if unmapped(addr, addr + len(data)):
            raise LoadError(
                f"initializer at {addr:#x} ({len(data)} bytes) is outside "
                "the mapped regions"
            )
        if addr < table_hi and addr + len(data) > table_lo:
            raise LoadError(
                f"initializer at {addr:#x} overlaps the externals table "
                f"[{table_lo:#x}, {table_hi:#x})"
            )

    natives = runtime.natives_for(binary)
    machine = Machine(binary, natives, n_cores=n_cores, engine=engine)

    # 1. Map the usable regions (guard areas stay unmapped).
    machine.mem.map_range(layout.public.base, layout.public.end)
    if layout.private is not None:
        machine.mem.map_range(layout.private.base, layout.private.end)
    machine.mem.map_range(layout.t_region.base, layout.t_region.end)

    # 2. Globals: write initializers and the externals table, then drop
    #    write permission on the table and read-only data (strings).
    for addr, data in binary.global_inits:
        machine.mem.write_bytes_unprotected(addr, data)
    machine.mem.write_bytes_unprotected(
        table_lo,
        b"".join(
            (NATIVE_BASE + i).to_bytes(8, "little")
            for i in range(len(binary.imports))
        ),
    )
    machine.mem.protect_read_only(table_lo, table_hi)
    for lo, hi in binary.read_only_ranges:
        machine.mem.protect_read_only(lo, hi)

    # 3. Architectural region state.
    if config.scheme == "seg":
        machine.fs_base = layout.public.base & ~0xFFFFFFFF
        machine.gs_base = (
            layout.private.base & ~0xFFFFFFFF
            if layout.private is not None
            else machine.fs_base
        )
    machine.bnd[0] = (layout.public.base, layout.public.end)
    if layout.private is None:
        machine.bnd[1] = machine.bnd[0]
    elif not config.split_stacks:
        # Measurement-only stack-merged configuration (OurMPX-Sep):
        # private data may sit on the public stack, so bnd1 spans both
        # regions (the unmapped guard between them still faults).
        machine.bnd[1] = (layout.public.base, layout.private.end)
    else:
        machine.bnd[1] = (layout.private.base, layout.private.end)

    # 4. Heaps.
    alloc_cls = RegionAllocator if config.custom_allocator else NativeAllocator
    pub_lo, pub_hi = layout.heap_range(False)
    runtime.pub_alloc = alloc_cls(pub_lo, pub_hi)
    if layout.private is not None:
        priv_lo, priv_hi = layout.heap_range(True)
        runtime.priv_alloc = alloc_cls(priv_lo, priv_hi)
    else:
        runtime.priv_alloc = runtime.pub_alloc
    runtime.machine = machine

    # 5. Main thread.
    thread = machine.spawn(binary.label_addrs[entry], stack_slot=0)
    assert thread.tid == 0

    # 6. Seal the post-load image so Process.reset()/Machine.reset()
    #    can rewind to this exact state without re-linking.  Cheap:
    #    only the pages touched by global initializers are materialized
    #    at this point, and the snapshot copies nothing else.
    process = Process(machine, runtime)
    process.seal()
    return process
