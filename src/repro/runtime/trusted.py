"""The trusted library T: wrappers + implementations.

T is the paper's trusted component: I/O, cryptographic primitives,
sources of secrets, allocators, and declassifiers.  It is "compiled
with a vanilla compiler" — here, implemented natively in Python — and
reached through per-function **wrappers** that perform the steps of
Section 6:

(a) range-check pointer arguments against U's public/private regions
    (e.g. ``read_passwd`` checks ``[pass, pass+size-1]`` lies in U's
    private region);
(b/c/d) switch stacks and ``gs`` to T's own memory (modelled as a
    fixed cycle cost);
(e) run the underlying function, then return to U following the CFI
    return protocol (verifying the MRet magic at the return site).

The canonical `extern trusted` prototypes U code must declare are in
:data:`T_PROTOTYPES`.
"""

from __future__ import annotations

import hashlib
import random

from ..arith import MASK64
from ..backend import regs
from ..errors import FAULT_CFI, FAULT_WRAPPER, MachineFault
from ..link.layout import CODE_BASE
from ..machine import costs
from ..obs import events
from .alloc import NativeAllocator, RegionAllocator, restore_allocator

T_PROTOTYPES = """
extern trusted int recv(int fd, char *buf, int n);
extern trusted int send(int fd, char *buf, int n);
extern trusted int read_file(char *name, char *buf, int n);
extern trusted int read_file_secret(char *name, private char *buf, int n);
extern trusted int write_file(char *name, char *buf, int n);
extern trusted int file_size(char *name);
extern trusted void log_write(char *buf, int n);
extern trusted void print_str(char *s);
extern trusted void print_int(int x);
extern trusted void decrypt(char *src, private char *dst, int n);
extern trusted void encrypt(private char *src, char *dst, int n);
extern trusted void encrypt_log(private char *src, char *dst, int n);
extern trusted void read_passwd(char *uname, private char *pass, int n);
extern trusted int cmp_secret(private char *a, private char *b, int n);
extern trusted char *malloc_pub(int n);
extern trusted private char *malloc_priv(int n);
extern trusted void free_pub(char *p);
extern trusted void free_priv(private char *p);
extern trusted int hash64(private char *buf, int n);
extern trusted int declassify_int(private int x);
extern trusted int thread_create(int fn, int arg);
extern trusted int thread_join(int tid);
extern trusted int clock_cycles();
extern trusted int rand_int(int bound);
extern trusted int ssl_recv(int fd, private char *buf, int n);
extern trusted int ssl_send(int fd, private char *buf, int n);
extern trusted int serve_file(private char *name, private char *buf, int n);
extern trusted void u_qsort(int *arr, int n, int (*cmp)(int, int));
extern trusted int u_fold(int *arr, int n, int (*f)(int, int), int seed);
"""

# Fixed cost of an I/O-class T call (syscall + kernel path); dominates
# tiny requests, which is why Figure 6's overhead is *low* at 0 KB.
_IO_BASE_COST = 420
_BYTES_PER_CYCLE = 8


class PauseForRequest(Exception):
    """Control-flow signal used by the serving tier: a ``recv`` found
    fewer bytes than requested while a ``recv_gate`` was armed.

    Raised *before* the call charges cycles or consumes input, while
    the thread's pc still points at the T stub's ``JmpInd`` — resuming
    the machine deterministically replays the indirect jump, the
    wrapper entry, and the recv, so a parked machine can be restored
    and re-driven one request at a time.  Not a ``MachineFault``: it
    never counts as a fault and carries no accounting.
    """

    def __init__(self, fd: int, wanted: int, available: int):
        super().__init__(
            f"recv on fd {fd} wants {wanted} bytes, {available} available"
        )
        self.fd = fd
        self.wanted = wanted
        self.available = available


class Channel:
    """A bidirectional byte channel (the simulated socket)."""

    def __init__(self) -> None:
        self.inbox = bytearray()
        self.outbox = bytearray()

    def feed(self, data: bytes) -> None:
        self.inbox += data

    def take(self, n: int) -> bytes:
        data = bytes(self.inbox[:n])
        del self.inbox[:n]
        return data

    def drain_out(self) -> bytes:
        data = bytes(self.outbox)
        self.outbox.clear()
        return data


def _keystream(key: bytes, length: int) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += hashlib.blake2b(
            key + counter.to_bytes(8, "little"), digest_size=32
        ).digest()
        counter += 1
    return bytes(out[:length])


class TContext:
    """Per-call context handed to T implementations."""

    def __init__(self, runtime, machine, thread, sig):
        self.runtime = runtime
        self.machine = machine
        self.thread = thread
        self.sig = sig

    # -- arguments -------------------------------------------------------

    def arg(self, index: int) -> int:
        return self.thread.regs[regs.ARG_REGS[index]]

    # -- checks (the wrapper's step (a)) ----------------------------------

    def check_range(self, ptr: int, size: int, private: bool) -> None:
        if size <= 0:
            return
        layout = self.machine.layout
        if layout.private is None:
            region = layout.public  # unprotected configuration
        elif private and not self.machine.config.split_stacks:
            # Measurement-only configurations without the stack split
            # (OurMPX-Sep) keep private *stack* data on the public
            # stack; wrappers accept either U region there.
            if layout.public.contains(ptr, size) or layout.private.contains(
                ptr, size
            ):
                events.counter(
                    "runtime.range_checks", fn=self.sig.name, outcome="ok"
                ).inc()
                return
            region = layout.private
        else:
            region = layout.private if private else layout.public
        if not region.contains(ptr, size):
            events.counter(
                "runtime.range_checks", fn=self.sig.name, outcome="fault"
            ).inc()
            kind = "private" if private else "public"
            raise MachineFault(
                FAULT_WRAPPER,
                f"{self.sig.name}: argument [{ptr:#x},+{size}) not in U's "
                f"{kind} region",
                addr=ptr,
            )
        events.counter(
            "runtime.range_checks", fn=self.sig.name, outcome="ok"
        ).inc()

    # -- memory ----------------------------------------------------------

    def read(self, ptr: int, size: int, private: bool) -> bytes:
        self.check_range(ptr, size, private)
        self.charge(size // _BYTES_PER_CYCLE)
        return self.machine.mem.read_bytes(ptr, size)

    def write(self, ptr: int, data: bytes, private: bool) -> None:
        self.check_range(ptr, len(data), private)
        self.charge(len(data) // _BYTES_PER_CYCLE)
        self.machine.mem.write_bytes(ptr, data)

    def cstring(self, ptr: int, private: bool = False, limit: int = 4096) -> bytes:
        out = bytearray()
        cursor = ptr
        while len(out) < limit:
            self.check_range(cursor, 1, private)
            byte = self.machine.mem.read_int(cursor, 1)
            if byte == 0:
                break
            out.append(byte)
            cursor += 1
        self.charge(len(out) // _BYTES_PER_CYCLE)
        return bytes(out)

    def charge(self, cycles: int) -> None:
        self.machine.charge(self.thread, cycles)

    # -- callbacks into U (§8) --------------------------------------------

    def call_u(self, fn_ptr: int, args: list[int],
               expected_bits: int | None = None) -> int:
        """Synchronously invoke a U function from T.

        Follows the paper's callback design: T checks the target's
        entry magic (and taint bits) like an indirect call would, plants
        the fixed return thunk ``__tret0`` as the return address, and
        runs U until its CFI return lands there.  The U instructions
        count against the run's instruction budget (see
        ``Machine.run``), which gates starting each one, and step
        hooks see them retire before the native gateway, which they
        are handed without them (see ``Machine._step``).  A fault or
        budget cut inside the callback leaves the machine unable to
        resume until it is reset.
        """
        machine = self.machine
        thread = self.thread
        config = machine.config
        cfi = config.cfi and not config.shadow_stack
        if not (CODE_BASE <= fn_ptr < CODE_BASE + len(machine.code)):
            raise MachineFault(
                FAULT_WRAPPER, f"{self.sig.name}: callback outside code"
            )
        if cfi and expected_bits is not None:
            word = machine.read_code_word(fn_ptr)
            expected = ((machine.binary.mcall_prefix << 5) | expected_bits)
            if word != expected & MASK64:
                raise MachineFault(
                    FAULT_CFI,
                    f"{self.sig.name}: callback target lacks the expected "
                    "entry magic",
                    addr=fn_ptr,
                )
        thunk = machine.binary.label_addrs["__tret0"]
        saved_pc = thread.pc
        saved_regs = list(thread.regs)
        for i, value in enumerate(args[:4]):
            thread.regs[regs.ARG_REGS[i]] = value & MASK64
        retaddr = CODE_BASE + thunk - (1 if cfi else 0)
        rsp = (thread.regs[regs.RSP] - 8) & MASK64
        thread.regs[regs.RSP] = rsp
        machine.mem.write_int(rsp, 8, retaddr)
        thread.pc = fn_ptr - CODE_BASE
        self.charge(costs.T_SWITCH_COST if config.separate_tu
                    else costs.T_PLAIN_CALL_COST)
        stats = machine.stats
        try:
            while thread.pc != thunk:
                if stats.instructions >= machine._budget_end:
                    raise MachineFault(
                        "instruction-budget-exhausted",
                        f"{self.sig.name}: callback exceeded the "
                        "instruction budget",
                    )
                machine._step(thread)
        except MachineFault:
            # The thread stops inside U code with no T frame left to
            # return to, so the machine cannot resume (see Machine.run).
            machine.torn_callback = self.sig.name
            raise
        machine._called_back = True
        result = thread.regs[regs.RAX]
        thread.regs = saved_regs
        thread.pc = saved_pc
        return result


class RuntimeState:
    """Frozen image of a TrustedRuntime's program-visible state."""

    __slots__ = (
        "channels", "files", "passwords", "session_key", "log_key",
        "stdout", "log", "rng_state", "pub_alloc", "priv_alloc",
        "priv_alias",
    )

    def __init__(self, *, channels, files, passwords, session_key,
                 log_key, stdout, log, rng_state, pub_alloc, priv_alloc,
                 priv_alias):
        self.channels = channels
        self.files = files
        self.passwords = passwords
        self.session_key = session_key
        self.log_key = log_key
        self.stdout = stdout
        self.log = log
        self.rng_state = rng_state
        self.pub_alloc = pub_alloc
        self.priv_alloc = priv_alloc
        self.priv_alias = priv_alias


class TrustedRuntime:
    """State shared by all T functions of one process."""

    def __init__(self, seed: int = 7):
        self.channels: dict[int, Channel] = {}
        self.files: dict[bytes, bytes] = {}
        self.passwords: dict[bytes, bytes] = {}
        self.session_key = b"session-key-0001"
        self.log_key = b"log-key-00000001"
        self.stdout: list[str] = []
        self.log = bytearray()
        self.rng = random.Random(seed)
        # Attached by the loader:
        self.machine = None
        self.pub_alloc: RegionAllocator | NativeAllocator | None = None
        self.priv_alloc: RegionAllocator | NativeAllocator | None = None
        # Serving-tier hook: when set, ``recv`` calls
        # ``recv_gate(runtime, fd, n)`` first and raise
        # ``PauseForRequest`` when it returns True (host configuration,
        # not program state — snapshot/restore leave it alone).
        self.recv_gate = None

    # -- host-side conveniences (test harnesses use these) ----------------

    def channel(self, fd: int) -> Channel:
        return self.channels.setdefault(fd, Channel())

    def add_file(self, name: str | bytes, data: bytes) -> None:
        key = name.encode() if isinstance(name, str) else name
        self.files[key] = data

    def set_password(self, uname: str | bytes, password: bytes) -> None:
        key = uname.encode() if isinstance(uname, str) else uname
        self.passwords[key] = password

    def encrypt_with(self, key: bytes, data: bytes) -> bytes:
        return bytes(a ^ b for a, b in zip(data, _keystream(key, len(data))))

    # -- snapshot / restore ----------------------------------------------

    def snapshot_state(self) -> "RuntimeState":
        """Freeze all T-side program state (channels, files, secrets,
        log, RNG, allocators).  ``machine`` and ``recv_gate`` are host
        wiring, not program state, and are excluded."""
        priv_alias = self.priv_alloc is self.pub_alloc
        return RuntimeState(
            channels={
                fd: (bytes(ch.inbox), bytes(ch.outbox))
                for fd, ch in self.channels.items()
            },
            files=dict(self.files),
            passwords=dict(self.passwords),
            session_key=self.session_key,
            log_key=self.log_key,
            stdout=tuple(self.stdout),
            log=bytes(self.log),
            rng_state=self.rng.getstate(),
            pub_alloc=(
                None if self.pub_alloc is None
                else self.pub_alloc.snapshot_state()
            ),
            priv_alloc=(
                None if priv_alias or self.priv_alloc is None
                else self.priv_alloc.snapshot_state()
            ),
            priv_alias=priv_alias,
        )

    def restore_state(self, state: "RuntimeState") -> None:
        """Rewind to ``state`` in place.  Channel objects are kept (and
        mutated) where possible so host references stay valid."""
        for fd in list(self.channels):
            if fd not in state.channels:
                del self.channels[fd]
        for fd, (inbox, outbox) in state.channels.items():
            ch = self.channels.setdefault(fd, Channel())
            ch.inbox[:] = inbox
            ch.outbox[:] = outbox
        self.files.clear()
        self.files.update(state.files)
        self.passwords.clear()
        self.passwords.update(state.passwords)
        self.session_key = state.session_key
        self.log_key = state.log_key
        self.stdout[:] = state.stdout
        self.log[:] = state.log
        self.rng.setstate(state.rng_state)
        self.pub_alloc = restore_allocator(self.pub_alloc, state.pub_alloc)
        if state.priv_alias:
            self.priv_alloc = self.pub_alloc
        else:
            self.priv_alloc = restore_allocator(
                self.priv_alloc, state.priv_alloc
            )

    # -- wrapper construction ---------------------------------------------

    def natives_for(self, binary) -> list:
        wrappers = []
        for sig in binary.imports:
            impl = _IMPLS.get(sig.name)
            if impl is None:
                raise MachineFault(
                    FAULT_WRAPPER, f"no trusted implementation for {sig.name!r}"
                )
            wrappers.append(self._make_wrapper(sig, impl, binary))
        return wrappers

    def _make_wrapper(self, sig, impl, binary):
        config = binary.config
        switch_cost = (
            costs.T_SWITCH_COST if config.separate_tu else costs.T_PLAIN_CALL_COST
        )
        cfi = config.cfi and not config.shadow_stack
        mret_prefix = binary.mret_prefix
        ret_bit = int(sig.ret_taint)
        expected_word = ((mret_prefix << 5) | ret_bit) & MASK64

        def wrapper(machine, thread, _sig=sig, _impl=impl):
            registry = events.active()
            entry_cycles = (
                machine.core_cycles[thread.core] if registry is not None else 0
            )
            machine.charge(thread, switch_cost)
            ctx = TContext(self, machine, thread, _sig)
            result = _impl(ctx)
            if result is _RETRY:
                # Spin: leave pc at the stub's JmpInd so the call re-runs.
                return
            if registry is not None:
                registry.counter("runtime.t_calls", fn=_sig.name).inc()
                registry.add_span(
                    f"T.{_sig.name}",
                    ts=entry_cycles,
                    dur=machine.core_cycles[thread.core] - entry_cycles,
                    clock=events.CYCLES,
                    cat="runtime",
                    tid=thread.tid,
                )
            thread.regs[regs.RAX] = (result or 0) & MASK64
            # CFI-conformant return (wrapper step (e)).
            rsp = thread.regs[regs.RSP]
            retaddr = machine.mem.read_int(rsp, 8)
            thread.regs[regs.RSP] = (rsp + 8) & MASK64
            if cfi:
                word = machine.read_code_word(retaddr)
                if word != expected_word:
                    raise MachineFault(
                        FAULT_CFI,
                        f"T return: bad magic at return site of {_sig.name}",
                        addr=retaddr,
                    )
                thread.pc = retaddr - CODE_BASE + 1
            else:
                if not (CODE_BASE <= retaddr < CODE_BASE + len(machine.code)):
                    raise MachineFault(
                        FAULT_CFI, "T return outside code", addr=retaddr
                    )
                thread.pc = retaddr - CODE_BASE

        return wrapper


_RETRY = object()


# ---------------------------------------------------------------------------
# T function implementations


def _t_recv(ctx: TContext) -> int:
    fd, buf, n = ctx.arg(0), ctx.arg(1), ctx.arg(2)
    gate = ctx.runtime.recv_gate
    if gate is not None and gate(ctx.runtime, fd, n):
        raise PauseForRequest(
            fd, n, len(ctx.runtime.channel(fd).inbox)
        )
    ctx.charge(_IO_BASE_COST)
    data = ctx.runtime.channel(fd).take(n)
    ctx.write(buf, data, private=False)
    return len(data)


def _t_send(ctx: TContext) -> int:
    fd, buf, n = ctx.arg(0), ctx.arg(1), ctx.arg(2)
    ctx.charge(_IO_BASE_COST)
    data = ctx.read(buf, n, private=False)
    ctx.runtime.channel(fd).outbox += data
    return n


def _t_read_file(ctx: TContext, private: bool = False) -> int:
    name, buf, n = ctx.arg(0), ctx.arg(1), ctx.arg(2)
    ctx.charge(_IO_BASE_COST)
    fname = ctx.cstring(name, private=False)
    data = ctx.runtime.files.get(fname)
    if data is None:
        return -1
    count = min(n, len(data))
    ctx.write(buf, data[:count], private=private)
    return count


def _t_read_file_secret(ctx: TContext) -> int:
    return _t_read_file(ctx, private=True)


def _t_write_file(ctx: TContext) -> int:
    name, buf, n = ctx.arg(0), ctx.arg(1), ctx.arg(2)
    ctx.charge(_IO_BASE_COST)
    fname = ctx.cstring(name, private=False)
    ctx.runtime.files[fname] = ctx.read(buf, n, private=False)
    return n


def _t_file_size(ctx: TContext) -> int:
    fname = ctx.cstring(ctx.arg(0), private=False)
    data = ctx.runtime.files.get(fname)
    return -1 if data is None else len(data)


def _t_log_write(ctx: TContext) -> int:
    buf, n = ctx.arg(0), ctx.arg(1)
    ctx.runtime.log += ctx.read(buf, n, private=False)
    return 0


def _t_print_str(ctx: TContext) -> int:
    text = ctx.cstring(ctx.arg(0), private=False)
    ctx.runtime.stdout.append(text.decode("latin1"))
    return 0


def _t_print_int(ctx: TContext) -> int:
    from ..arith import signed

    ctx.runtime.stdout.append(str(signed(ctx.arg(0))))
    return 0


def _t_decrypt(ctx: TContext) -> int:
    src, dst, n = ctx.arg(0), ctx.arg(1), ctx.arg(2)
    data = ctx.read(src, n, private=False)
    plain = ctx.runtime.encrypt_with(ctx.runtime.session_key, data)
    ctx.write(dst, plain, private=True)
    return 0


def _t_encrypt(ctx: TContext) -> int:
    src, dst, n = ctx.arg(0), ctx.arg(1), ctx.arg(2)
    data = ctx.read(src, n, private=True)
    ctx.write(dst, ctx.runtime.encrypt_with(ctx.runtime.session_key, data),
              private=False)
    return 0


def _t_encrypt_log(ctx: TContext) -> int:
    src, dst, n = ctx.arg(0), ctx.arg(1), ctx.arg(2)
    data = ctx.read(src, n, private=True)
    ctx.write(dst, ctx.runtime.encrypt_with(ctx.runtime.log_key, data),
              private=False)
    return 0


def _t_read_passwd(ctx: TContext) -> int:
    uname, dst, n = ctx.arg(0), ctx.arg(1), ctx.arg(2)
    user = ctx.cstring(uname, private=False)
    password = ctx.runtime.passwords.get(user, b"")
    padded = password[:n].ljust(n, b"\x00")
    ctx.write(dst, padded, private=True)
    return len(password)


def _t_cmp_secret(ctx: TContext) -> int:
    a, b, n = ctx.arg(0), ctx.arg(1), ctx.arg(2)
    da = ctx.read(a, n, private=True)
    db = ctx.read(b, n, private=True)
    # Declassifies one bit: equality.  Guarded-access point of §8.
    return 0 if da == db else 1


def _t_malloc_pub(ctx: TContext) -> int:
    ctx.charge(ctx.runtime.pub_alloc.op_cost)
    return ctx.runtime.pub_alloc.malloc(ctx.arg(0))


def _t_malloc_priv(ctx: TContext) -> int:
    alloc = ctx.runtime.priv_alloc or ctx.runtime.pub_alloc
    ctx.charge(alloc.op_cost)
    return alloc.malloc(ctx.arg(0))


def _t_free_pub(ctx: TContext) -> int:
    ctx.charge(ctx.runtime.pub_alloc.op_cost)
    ctx.runtime.pub_alloc.free(ctx.arg(0))
    return 0


def _t_free_priv(ctx: TContext) -> int:
    alloc = ctx.runtime.priv_alloc or ctx.runtime.pub_alloc
    ctx.charge(alloc.op_cost)
    alloc.free(ctx.arg(0))
    return 0


def _t_hash64(ctx: TContext) -> int:
    buf, n = ctx.arg(0), ctx.arg(1)
    data = ctx.read(buf, n, private=True)
    ctx.charge(n // 4)  # hashing is slower than copying
    digest = hashlib.blake2b(data, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _t_declassify_int(ctx: TContext) -> int:
    return ctx.arg(0)


def _t_thread_create(ctx: TContext) -> int:
    fn_ptr, arg = ctx.arg(0), ctx.arg(1)
    machine = ctx.machine
    if not (CODE_BASE <= fn_ptr < CODE_BASE + len(machine.code)):
        raise MachineFault(FAULT_WRAPPER, "thread entry outside code")
    thread = machine.spawn(fn_ptr - CODE_BASE)
    thread.regs[regs.RCX] = arg
    # The new thread becomes runnable at the moment of the spawn.
    thread.ready_time = machine.core_cycles[ctx.thread.core]
    # Plant the thread-exit thunk as the return address (pointing at
    # its MRet magic word so the CFI return check succeeds).  The thunk
    # must carry the entry function's return-taint bit, which under CFI
    # can be read off the entry magic word.
    cfi = ctx.machine.config.cfi and not ctx.machine.config.shadow_stack
    ret_bit = 0
    if cfi:
        entry_word = machine.read_code_word(fn_ptr)
        ret_bit = (entry_word >> 4) & 1
    exit_label = machine.binary.label_addrs[f"__texit{ret_bit}"]
    retaddr = CODE_BASE + exit_label - (1 if cfi else 0)
    rsp = (thread.regs[regs.RSP] - 8) & MASK64
    thread.regs[regs.RSP] = rsp
    machine.mem.write_int(rsp, 8, retaddr)
    ctx.charge(400)  # thread creation is expensive
    return thread.tid


def _t_thread_join(ctx: TContext):
    tid = ctx.arg(0)
    machine = ctx.machine
    for thread in machine.threads:
        if thread.tid == tid and thread.alive:
            # Block: the scheduler parks this thread (no cycles) until
            # the target dies, then the stub's JmpInd re-dispatches and
            # this wrapper returns 0.
            ctx.thread.waiting_on = tid
            return _RETRY
    return 0


def _t_ssl_recv(ctx: TContext) -> int:
    """SSL_recv of §7.2: decrypt the incoming payload with the session
    key and hand it to U in a *private* buffer."""
    fd, buf, n = ctx.arg(0), ctx.arg(1), ctx.arg(2)
    ctx.charge(_IO_BASE_COST)
    wire = ctx.runtime.channel(fd).take(n)
    plain = ctx.runtime.encrypt_with(ctx.runtime.session_key, wire)
    ctx.charge(len(plain) // 4)  # crypto
    ctx.write(buf, plain, private=True)
    return len(plain)


def _t_ssl_send(ctx: TContext) -> int:
    fd, buf, n = ctx.arg(0), ctx.arg(1), ctx.arg(2)
    ctx.charge(_IO_BASE_COST)
    plain = ctx.read(buf, n, private=True)
    ctx.charge(n // 4)  # crypto
    ctx.runtime.channel(fd).outbox += ctx.runtime.encrypt_with(
        ctx.runtime.session_key, plain
    )
    return n


def _t_serve_file(ctx: TContext) -> int:
    """Read a file whose *name is private* (the request URI is private
    in the NGINX deployment) into a private buffer."""
    name, buf, n = ctx.arg(0), ctx.arg(1), ctx.arg(2)
    ctx.charge(_IO_BASE_COST)
    fname = ctx.cstring(name, private=True)
    data = ctx.runtime.files.get(fname)
    if data is None:
        return -1
    count = min(n, len(data))
    ctx.write(buf, data[:count], private=True)
    return count


# Entry taint bits for a callback int(*)(int,int): two public args,
# two unused (conservatively private) arg registers, public return.
_CMP_CALLBACK_BITS = (1 << 2) | (1 << 3)


def _t_u_qsort(ctx: TContext) -> int:
    """qsort over a public int array with a U-supplied comparator —
    the §8 callback pattern."""
    arr, n, cmp_ptr = ctx.arg(0), ctx.arg(1), ctx.arg(2)
    from ..arith import signed

    values = [
        ctx.machine.mem.read_int(a, 8)
        for a in range(arr, arr + 8 * n, 8)
    ]
    ctx.check_range(arr, 8 * max(n, 1), private=False)
    # Insertion sort so the comparator call count is deterministic.
    for i in range(1, n):
        j = i
        while j > 0:
            verdict = ctx.call_u(
                cmp_ptr, [values[j - 1], values[j]], _CMP_CALLBACK_BITS
            )
            if signed(verdict) <= 0:
                break
            values[j - 1], values[j] = values[j], values[j - 1]
            j -= 1
    for index, value in enumerate(values):
        ctx.machine.mem.write_int(arr + 8 * index, 8, value)
    ctx.charge(n * 4)
    return 0


def _t_u_fold(ctx: TContext) -> int:
    """Fold a U function over a public int array."""
    arr, n, fn_ptr, seed = ctx.arg(0), ctx.arg(1), ctx.arg(2), ctx.arg(3)
    ctx.check_range(arr, 8 * max(n, 1), private=False)
    acc = seed
    for offset in range(0, 8 * n, 8):
        value = ctx.machine.mem.read_int(arr + offset, 8)
        acc = ctx.call_u(fn_ptr, [acc, value], _CMP_CALLBACK_BITS)
    return acc


def _t_clock_cycles(ctx: TContext) -> int:
    return ctx.machine.wall_cycles


def _t_rand_int(ctx: TContext) -> int:
    bound = ctx.arg(0)
    if bound <= 0:
        return 0
    return ctx.runtime.rng.randrange(bound)


_IMPLS = {
    "recv": _t_recv,
    "send": _t_send,
    "read_file": _t_read_file,
    "read_file_secret": _t_read_file_secret,
    "write_file": _t_write_file,
    "file_size": _t_file_size,
    "log_write": _t_log_write,
    "print_str": _t_print_str,
    "print_int": _t_print_int,
    "decrypt": _t_decrypt,
    "encrypt": _t_encrypt,
    "encrypt_log": _t_encrypt_log,
    "read_passwd": _t_read_passwd,
    "cmp_secret": _t_cmp_secret,
    "malloc_pub": _t_malloc_pub,
    "malloc_priv": _t_malloc_priv,
    "free_pub": _t_free_pub,
    "free_priv": _t_free_priv,
    "hash64": _t_hash64,
    "declassify_int": _t_declassify_int,
    "thread_create": _t_thread_create,
    "thread_join": _t_thread_join,
    "clock_cycles": _t_clock_cycles,
    "rand_int": _t_rand_int,
    "ssl_recv": _t_ssl_recv,
    "ssl_send": _t_ssl_send,
    "serve_file": _t_serve_file,
    "u_qsort": _t_u_qsort,
    "u_fold": _t_u_fold,
}

TRUSTED_FUNCTION_NAMES = frozenset(_IMPLS)
