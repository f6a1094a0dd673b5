"""The one-call drivers: MiniC source -> running process.

This is the public API most examples and benchmarks use::

    from repro import compile_and_load, OUR_MPX

    process = compile_and_load(source, OUR_MPX)
    exit_code = process.run()

Both entry points are thin compatibility wrappers over the staged
build layer (:mod:`repro.build`): they delegate to the process-wide
default :class:`~repro.build.session.BuildSession`, so an active
session override (``repro.build.use_session``) transparently gives
every caller object caching.  The staged
pipeline is parse -> analyze (taint inference) -> lower to IR ->
optimize -> codegen (+instrumentation) -> link (magic selection) ->
verify (ConfVerify, unless disabled) -> load.
"""

from __future__ import annotations

from .build.session import default_session
from .config import BuildConfig
from .link.loader import Process, load
from .link.objfile import Binary
from .runtime.trusted import TrustedRuntime


def compile_source(
    source: str,
    config: BuildConfig,
    entry: str = "main",
    filename: str = "<input>",
    seed: int | None = None,
    verify: bool = False,
) -> Binary:
    """Compile and link MiniC source into a binary.

    When an obs registry is active (``repro.obs.events``), every stage
    records a wall-clock span: lex/parse (frontend), sema + taint-solve,
    lower, opt passes, regalloc/codegen, link, and (optionally) verify,
    all nested under ``compile.total``.  A warm object cache on the
    active build session skips everything up to the link (the cache hit
    is visible as a ``build.cache.hit`` counter instead of stage spans).
    """
    return default_session().build(
        source, config, entry=entry, filename=filename, seed=seed,
        verify=verify,
    )


def compile_and_load(
    source: str,
    config: BuildConfig,
    runtime: TrustedRuntime | None = None,
    entry: str = "main",
    n_cores: int = 4,
    seed: int | None = None,
    verify: bool = False,
    engine: str = "predecoded",
) -> Process:
    """Compile, link, (optionally) verify, and load MiniC source.

    ``engine`` selects the execution engine: ``"predecoded"`` (default,
    fast) or ``"reference"`` (the one-step-at-a-time debug engine); both
    produce identical simulated cycles, stats, and faults.
    """
    binary = compile_source(
        source, config, entry=entry, seed=seed, verify=verify
    )
    return load(binary, runtime=runtime, n_cores=n_cores, engine=engine)
