"""Exception hierarchy for the ConfLLVM reproduction.

Every stage of the toolchain raises a subclass of :class:`ReproError` so
callers can catch "any toolchain failure" uniformly, while tests can pin
down the exact failing stage.  Runtime security violations detected by
the simulated machine raise :class:`MachineFault`, which is *not* a
toolchain error: a fault at runtime is the scheme working as intended
(an attack was stopped), so it lives in its own branch.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SourceLocation:
    """A (line, column) position in a MiniC source file."""

    __slots__ = ("line", "col", "filename")

    def __init__(self, line: int, col: int, filename: str = "<input>"):
        self.line = line
        self.col = col
        self.filename = filename

    def __repr__(self) -> str:
        return f"{self.filename}:{self.line}:{self.col}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SourceLocation):
            return NotImplemented
        return (self.line, self.col, self.filename) == (
            other.line,
            other.col,
            other.filename,
        )


class SourceError(ReproError):
    """An error attributable to a location in MiniC source code."""

    def __init__(self, message: str, loc: SourceLocation | None = None):
        self.loc = loc
        self.message = message
        prefix = f"{loc}: " if loc is not None else ""
        super().__init__(prefix + message)


class LexError(SourceError):
    """Invalid token in MiniC source."""


class ParseError(SourceError):
    """Syntactically invalid MiniC source."""


class SemaError(SourceError):
    """Semantic (name/type) error in MiniC source."""


class TaintError(SourceError):
    """Taint qualifier inference failed: a private-to-public flow exists.

    This is the compile-time error ConfLLVM reports when, e.g., a
    private buffer is passed to a function expecting a public argument
    (the ``send(log_file, passwd, SIZE)`` bug of Figure 1).
    """


class ImplicitFlowError(SourceError):
    """Strict mode rejected a branch on private data (implicit flow)."""


class IRError(ReproError):
    """The IR verifier found malformed IR (a compiler bug)."""


class CodegenError(ReproError):
    """The backend could not lower a function."""


class LinkError(ReproError):
    """Linking failed (unresolved symbol, magic selection failure...)."""


class LoadError(ReproError):
    """The loader could not map the binary into a machine."""


class VerifyError(ReproError):
    """ConfVerify rejected a binary.

    Attributes
    ----------
    reason:
        A short machine-readable tag (e.g. ``"store-taint-mismatch"``)
        used by the fault-injection tests to assert *why* a tampered
        binary was rejected.
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}" if detail else reason)


class ServeError(ReproError):
    """The serving tier was misused (non-server program, fork of an
    unsealed machine, bad fleet configuration...)."""


class MachineFault(Exception):
    """A runtime fault in the simulated machine.

    Faults are how the inserted instrumentation stops attacks: an MPX
    bound violation, a guard-page access under the segmentation scheme,
    a failed CFI magic-sequence check, a ``_chkstk`` stack-escape, or a
    trusted-wrapper argument range check.

    Attributes
    ----------
    kind:
        One of the ``FAULT_*`` constants below.
    """

    def __init__(self, kind: str, detail: str = "", addr: int | None = None):
        self.kind = kind
        self.detail = detail
        self.addr = addr
        where = f" at {addr:#x}" if addr is not None else ""
        super().__init__(f"{kind}{where}: {detail}" if detail else f"{kind}{where}")


FAULT_UNMAPPED = "unmapped-access"
FAULT_BOUNDS = "mpx-bound-violation"
FAULT_CFI = "cfi-check-failed"
FAULT_CHKSTK = "stack-escape"
FAULT_WRAPPER = "trusted-wrapper-check-failed"
FAULT_PERM = "permission-violation"
FAULT_EXEC = "bad-execution-target"
FAULT_DIV = "divide-error"
FAULT_HALT = "halt"
#: ``Machine.run`` refused to resume a machine whose last run stopped
#: inside a trusted callback (see ``TContext.call_u``).
FAULT_TORN = "torn-callback"
