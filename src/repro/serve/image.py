"""Machine images: snapshot a loaded (compile+ConfVerify+load) process
once, then fork verified instances in microseconds.

The cold path the rest of the repo takes — ``BuildSession`` compile,
ConfVerify, link, load — costs seconds of host time per process.  A
``MachineImage`` freezes the *result* of that pipeline instead:

* memory is captured copy-on-write through the existing lazy page
  materialization (``Memory.snapshot_state``), so every fork of an
  image shares one immutable page dict and only copies the pages a
  request actually touches;
* CPU state (registers, pc, shadow stacks), cycle counters, L1 cache
  tags, ``Stats``, and the T runtime's program-visible state
  (channels, files, secrets, RNG, allocators) are captured alongside.

``fork()`` builds a fresh ``Machine`` + ``TrustedRuntime`` pair from
the image — bit-identical to a cold ``load()`` of the same binary (the
differential test in ``tests/serve/test_image.py`` pins this across
configs and engines).  The even cheaper per-request path is
``Process.reset()`` on an existing fork: every mutable structure is
rewound in place, so the fast engine's generated code stays valid
and nothing is re-emitted.

Warm images park the program at its request loop: with a ``recv_gate``
armed, the first ``recv`` that finds fewer bytes than it wants raises
``PauseForRequest`` *before* consuming anything, while the thread's pc
still points at the T stub's indirect jump.  Snapshotting there means
a restored fork re-enters ``recv`` deterministically — app
initialization (table population, model loading) is paid once at image
build, never per request.
"""

from __future__ import annotations

import time

from ..errors import ServeError
from ..link.loader import Process
from ..machine.cpu import Machine
from ..machine.snapshot import MachineState
from ..runtime.trusted import PauseForRequest, TrustedRuntime

#: Per-request instruction ceiling when the caller sets no budget.
DEFAULT_BUDGET = 500_000_000


def starved_gate(runtime, fd: int, n: int) -> bool:
    """The serving-tier recv gate: pause whenever a ``recv`` would
    return short — i.e. the current request is finished and the
    program is asking for the next one."""
    return len(runtime.channel(fd).inbox) < n


class MachineImage:
    """A frozen, verified, loaded machine — the unit of forking."""

    def __init__(self, binary, machine_state: MachineState,
                 runtime_state, *, n_cores: int, engine: str):
        self.binary = binary
        self.machine_state = machine_state
        self.runtime_state = runtime_state
        self.n_cores = n_cores
        self.engine = engine
        # Filled in by warm_image(): the one-time cost a cold instance
        # pays from spawn to its first request wait.
        self.warmup_cycles = 0
        self.warmup_instructions = 0
        self.warmup_wall_s = 0.0

    @classmethod
    def snapshot(cls, process: Process) -> "MachineImage":
        """Freeze ``process`` as it stands.  The process keeps running
        independently afterwards — the image shares nothing mutable
        with it."""
        machine = process.machine
        return cls(
            machine.binary,
            MachineState.capture(machine),
            process.runtime.snapshot_state(),
            n_cores=machine.n_cores,
            engine=machine.engine,
        )

    def fork(self, engine: str | None = None) -> Process:
        """A fresh, independent Process restored to the image point.

        Builds a new Machine (it binds code the image's binary has
        already generated, as execution reaches each pc —
        pool slots amortize that over thousands of requests) and a new
        TrustedRuntime, then restores both from the image.  The
        fork's sealed image is this image, so ``Process.reset()``
        rewinds to it, not to the original post-load state.
        """
        runtime = TrustedRuntime()
        natives = runtime.natives_for(self.binary)
        machine = Machine(
            self.binary, natives, n_cores=self.n_cores,
            engine=engine or self.engine,
        )
        self.machine_state.restore(machine)
        machine._image_state = self.machine_state
        runtime.restore_state(self.runtime_state)
        runtime.machine = machine
        process = Process(machine, runtime)
        process._image_runtime_state = self.runtime_state
        return process


def run_to_request(process: Process,
                   max_instructions: int = DEFAULT_BUDGET) -> None:
    """Run ``process`` until it blocks waiting for a request (arming
    the recv gate for the duration).  Raises ServeError if the program
    exits instead — a serveable app must sit in a request loop."""
    runtime = process.runtime
    previous = runtime.recv_gate
    runtime.recv_gate = starved_gate
    try:
        process.machine.run(max_instructions)
    except PauseForRequest:
        return
    finally:
        runtime.recv_gate = previous
    raise ServeError(
        "program exited during warm-up without waiting for a request"
    )


def warm_image(process: Process) -> MachineImage:
    """Run ``process`` to its first request wait, then freeze it.

    The resulting image's ``warmup_*`` fields record what the skipped
    initialization cost — the simulated-cycle price a cold instance
    would pay per request that forks avoid.
    """
    machine = process.machine
    cycles0 = machine.wall_cycles
    instr0 = machine.stats.instructions
    wall0 = time.perf_counter()
    run_to_request(process)
    image = MachineImage.snapshot(process)
    image.warmup_cycles = machine.wall_cycles - cycles0
    image.warmup_instructions = machine.stats.instructions - instr0
    image.warmup_wall_s = time.perf_counter() - wall0
    return image


class ServeInstance:
    """One fork of a MachineImage, driven one request at a time.

    ``handle_request`` is the uniform entrypoint contract: feed the
    request bytes, run the machine until it waits for the next
    request, return whatever the app wrote to the response channel.
    """

    def __init__(self, process: Process, *, request_fd: int = 0,
                 response_fd: int = 1):
        self.process = process
        self.request_fd = request_fd
        self.response_fd = response_fd
        process.runtime.recv_gate = starved_gate
        #: Exit code if the app left its serve loop (e.g. a quit
        #: request); None while it is parked at recv.
        self.exit_code: int | None = None
        # Per-request accounting, updated by handle_request (also on
        # faults, so evicted requests still report their cost).
        self.last_cycles = 0
        self.last_instructions = 0
        self.last_checks = 0

    @property
    def machine(self) -> Machine:
        return self.process.machine

    @property
    def runtime(self) -> TrustedRuntime:
        return self.process.runtime

    def reset(self) -> None:
        """Rewind to the image point (in place — microseconds)."""
        self.process.reset()
        self.exit_code = None

    def handle_request(self, data: bytes, *,
                       max_instructions: int = DEFAULT_BUDGET) -> bytes:
        """Uniform app entrypoint: request bytes in, response bytes
        out.  MachineFaults (verifier-inserted checks, exhausted
        budgets) propagate to the caller after accounting."""
        machine = self.process.machine
        runtime = self.process.runtime
        stats = machine.stats
        runtime.channel(self.request_fd).feed(data)
        cycles0 = machine.wall_cycles
        instr0 = stats.instructions
        checks0 = stats.bnd_checks + stats.cfi_checks
        try:
            self.exit_code = machine.run(max_instructions)
        except PauseForRequest:
            pass
        finally:
            self.last_cycles = machine.wall_cycles - cycles0
            self.last_instructions = stats.instructions - instr0
            self.last_checks = (
                stats.bnd_checks + stats.cfi_checks - checks0
            )
        return bytes(runtime.channel(self.response_fd).drain_out())


def resume_overhead_cycles(instance: ServeInstance) -> int:
    """The fork path's entire per-request setup cost in simulated
    cycles: restore the image and let the machine replay its way back
    to the request wait (stub jump + wrapper entry + starved recv).
    Leaves the instance reset."""
    instance.reset()
    machine = instance.machine
    base = machine.wall_cycles
    try:
        machine.run(DEFAULT_BUDGET)
    except PauseForRequest:
        pass
    else:
        raise ServeError("image is not parked at a request wait")
    cycles = machine.wall_cycles - base
    instance.reset()
    return cycles
