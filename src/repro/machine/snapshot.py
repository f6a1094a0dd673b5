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

from .cpu import Thread


class ThreadState:
    """A thread's architectural state, its lists frozen as tuples."""

    __slots__ = Thread.__slots__

    def __init__(self, thread):
        for name in self.__slots__:
            value = getattr(thread, name)
            setattr(self, name, tuple(value) if type(value) is list else value)

    def materialize(self):
        thread = Thread(self.tid, self.core)
        for name in self.__slots__:
            value = getattr(self, name)
            setattr(thread, name, list(value) if name in _LISTS else value)
        return thread


#: The Thread fields that are lists (ThreadState keeps tuples).
_LISTS = ("regs", "shadow")


class MachineState:
    """An immutable image of a machine's observable state."""

    __slots__ = (
        "memory", "core_cycles", "caches", "threads", "stats",
        "exit_code", "fs_base", "gs_base", "bnd", "next_tid",
        "torn_callback",
    )

    def __init__(self, **fields):
        for name in self.__slots__:
            setattr(self, name, fields[name])

    @classmethod
    def capture(cls, machine) -> "MachineState":
        stats = {name: getattr(machine.stats, name)
                 for name in machine.stats.__slots__}
        stats["faults"] = dict(stats["faults"])
        return cls(
            memory=machine.mem.snapshot_state(),
            core_cycles=tuple(machine.core_cycles),
            caches=tuple(c.snapshot_state() for c in machine.caches),
            threads=tuple(ThreadState(t) for t in machine.threads),
            stats=stats,
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
        for name, value in self.stats.items():
            if name != "faults":
                setattr(machine.stats, name, value)
        machine.stats.faults.clear()
        machine.stats.faults.update(self.stats["faults"])
        machine.exit_code = self.exit_code
        machine.fs_base = self.fs_base
        machine.gs_base = self.gs_base
        machine.bnd[:] = self.bnd
        machine._next_tid = self.next_tid
        machine.torn_callback = self.torn_callback
        machine.hook_cache_misses = 0
