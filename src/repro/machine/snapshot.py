"""Machine state snapshot/restore — the mechanism behind
``Machine.seal()``/``Machine.reset()`` and the serving tier's
``MachineImage.fork()``.

A ``MachineState`` freezes everything the simulator can observe:
memory contents (copy-on-write, via ``Memory.snapshot_state``),
per-core cycle counters and L1 caches, every thread's architectural
state, the ``Stats`` counters, and the loader-installed protection
state (fs/gs bases, MPX bounds).  ``restore`` rewinds a machine to
that point **in place**: the fast engine's generated code captures
the ``stats`` object, the ``core_cycles`` and ``caches`` lists, the
memory's page dicts, and the ``bnd`` list when the machine is built,
so restoration mutates those objects rather than rebinding them — no
re-emission, no re-link.

The same state can also be restored into a *different* machine built
from the same binary (``MachineImage.fork``): the state never holds
references to live mutable structures, only immutable copies.
"""

from __future__ import annotations

from .memory import MemoryState


class ThreadState:
    __slots__ = (
        "tid", "regs", "pc", "alive", "core", "shadow",
        "pub_stack", "priv_stack", "waiting_on", "ready_time",
        "finish_time",
    )

    def __init__(self, thread):
        self.tid = thread.tid
        self.regs = tuple(thread.regs)
        self.pc = thread.pc
        self.alive = thread.alive
        self.core = thread.core
        self.shadow = tuple(thread.shadow)
        self.pub_stack = thread.pub_stack
        self.priv_stack = thread.priv_stack
        self.waiting_on = thread.waiting_on
        self.ready_time = thread.ready_time
        self.finish_time = thread.finish_time

    def materialize(self):
        from .cpu import Thread

        thread = Thread(self.tid, self.core)
        thread.regs[:] = self.regs
        thread.pc = self.pc
        thread.alive = self.alive
        thread.shadow[:] = self.shadow
        thread.pub_stack = self.pub_stack
        thread.priv_stack = self.priv_stack
        thread.waiting_on = self.waiting_on
        thread.ready_time = self.ready_time
        thread.finish_time = self.finish_time
        return thread


class MachineState:
    """An immutable image of a machine's observable state."""

    __slots__ = (
        "memory", "core_cycles", "caches", "threads", "stats",
        "exit_code", "fs_base", "gs_base", "bnd", "next_tid",
        "torn_callback",
    )

    def __init__(self, memory: MemoryState, core_cycles, caches, threads,
                 stats, exit_code, fs_base, gs_base, bnd, next_tid,
                 torn_callback):
        self.memory = memory
        self.core_cycles = core_cycles
        self.caches = caches
        self.threads = threads
        self.stats = stats
        self.exit_code = exit_code
        self.fs_base = fs_base
        self.gs_base = gs_base
        self.bnd = bnd
        self.next_tid = next_tid
        self.torn_callback = torn_callback

    @classmethod
    def capture(cls, machine) -> "MachineState":
        stats = machine.stats
        return cls(
            memory=machine.mem.snapshot_state(),
            core_cycles=tuple(machine.core_cycles),
            caches=tuple(c.snapshot_state() for c in machine.caches),
            threads=tuple(ThreadState(t) for t in machine.threads),
            stats=(
                stats.instructions, stats.bnd_checks, stats.cfi_checks,
                stats.calls, stats.t_calls, stats.loads, stats.stores,
                dict(stats.faults),
            ),
            exit_code=machine.exit_code,
            fs_base=machine.fs_base,
            gs_base=machine.gs_base,
            bnd=tuple(machine.bnd),
            next_tid=machine._next_tid,
            torn_callback=machine.torn_callback,
        )

    def restore(self, machine) -> None:
        """Rewind ``machine`` to this state in place.

        ``machine`` must have been built from the same binary (same
        code, layout, and core count) — typically the machine this
        state was captured from, or a fresh fork of it.
        """
        if len(machine.core_cycles) != len(self.core_cycles):
            raise ValueError("core-count mismatch in machine snapshot")
        machine.mem.restore_state(self.memory)
        machine.core_cycles[:] = self.core_cycles
        for cache, saved in zip(machine.caches, self.caches):
            cache.restore_state(saved)
        machine.threads[:] = [t.materialize() for t in self.threads]
        (machine.stats.instructions, machine.stats.bnd_checks,
         machine.stats.cfi_checks, machine.stats.calls,
         machine.stats.t_calls, machine.stats.loads,
         machine.stats.stores) = self.stats[:7]
        machine.stats.faults.clear()
        machine.stats.faults.update(self.stats[7])
        machine.exit_code = self.exit_code
        machine.fs_base = self.fs_base
        machine.gs_base = self.gs_base
        machine.bnd[:] = self.bnd
        machine._next_tid = self.next_tid
        machine.torn_callback = self.torn_callback
        machine.hook_cache_misses = 0
