"""The staged build driver.

A :class:`BuildSession` decomposes the old monolithic ``compile_source``
into explicit stages, each yielding a named :class:`StageResult`::

    parse -> sema (taint inference) -> lower -> opt -> codegen -> checkopt

Each ``stage_*`` call takes its predecessor's result and is public, so
callers can time or inspect the stages one by one.  A build's only
identity is the object-cache key (``object_cache_key``: format version,
source hash, config fingerprint, seed, separate-compilation flag).
The checkopt stage's product is a pre-link
:class:`~repro.link.objfile.UObject` — the separate-compilation unit
the linker consumes (one per source file, like the paper's U dll
objects); the stage itself is a no-op unless ``config.checkopt`` is
``"aggressive"``, in which case the post-codegen check optimizer
(:mod:`repro.opt.checkopt`) rewrites each function's ISA stream under
translation validation.

A session optionally carries an
:class:`~repro.build.cache.ObjectCache`: ``compile_unit`` looks up the
(format version, source hash, config fingerprint, seed) key before
running any stage, and a hit deserializes the stored object instead of
compiling — no parse/sema/lower/opt/codegen spans are recorded, only a
``build.cache.hit`` counter.  Builds run one at a time on the calling
thread; a batch of configurations is a loop over :meth:`BuildSession.build`.

One process-wide *default session* backs the compatibility wrappers
``repro.compile_source`` / ``repro.compile_and_load``; scope a custom
session (say, with a cache) via :class:`use_session`.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

from ..backend.codegen import compile_module
from ..config import BuildConfig
from ..frontend.lower import lower_program
from ..link.linker import link
from ..link.objfile import Binary, UObject
from ..minic.parser import parse
from ..minic.sema import analyze
from ..obs import events
from ..opt.checkopt import run_checkopt
from ..opt.pipeline import optimize_module
from .cache import ObjectCache
from .serialize import (
    SerializeError,
    dump_uobject,
    load_uobject,
    object_cache_key,
)

#: Pipeline stage names, in order.
STAGES = ("parse", "sema", "lower", "opt", "codegen", "checkopt")


@dataclass(frozen=True)
class StageResult:
    """One stage's named product: ``value`` is the in-memory artifact
    (AST, checked program, IR module, or UObject)."""

    stage: str
    value: object


class BuildSession:
    """Staged compile/link driver with an optional object cache.

    Builds are serial: ``jobs`` is accepted only as ``1``, for existing
    callers that pass it explicitly.
    """

    def __init__(self, cache: ObjectCache | None = None, jobs: int = 1):
        if jobs != 1:
            raise ValueError(
                f"builds are serial: jobs must be 1, not {jobs!r}"
            )
        self.cache = cache

    # ------------------------------------------------------------------
    # Stages.  Span names and nesting are identical to the historical
    # monolithic driver, so observability output is unchanged.

    def stage_parse(self, source: str, filename: str = "<input>") -> StageResult:
        return StageResult("parse", parse(source, filename))

    def stage_sema(self, parsed: StageResult, config: BuildConfig) -> StageResult:
        with events.span("compile.sema"):
            checked = analyze(
                parsed.value,
                strict=config.strict,
                all_private=config.all_private,
            )
        return StageResult("sema", checked)

    def stage_lower(
        self,
        semad: StageResult,
        config: BuildConfig,
        allow_undefined: bool = False,
    ) -> StageResult:
        with events.span("compile.lower"):
            module = lower_program(semad.value, allow_undefined=allow_undefined)
        return StageResult("lower", module)

    def stage_opt(self, lowered: StageResult, config: BuildConfig) -> StageResult:
        module = optimize_module(lowered.value, pipeline=config.pipeline)
        return StageResult("opt", module)

    def stage_codegen(
        self, opted: StageResult, config: BuildConfig
    ) -> StageResult:
        return StageResult("codegen", compile_module(opted.value, config))

    def stage_checkopt(
        self, codegenned: StageResult, config: BuildConfig
    ) -> StageResult:
        obj: UObject = codegenned.value
        if config.checkopt == "aggressive":
            run_checkopt(obj, config)
        return StageResult("checkopt", obj)

    # ------------------------------------------------------------------
    # Unit compilation (cache-aware).

    def compile_unit(
        self,
        source: str,
        config: BuildConfig,
        filename: str = "<input>",
        seed: int | None = None,
        allow_undefined: bool = False,
    ) -> UObject:
        """Compile one source unit to a pre-link :class:`UObject`.

        With a cache attached, a hit returns a fresh deserialized copy
        and skips every compile stage (including its obs spans); a miss
        compiles, then stores the unit *before* it is linked (linking
        patches instruction words in place).
        """
        digest = None
        if self.cache is not None:
            digest = object_cache_key(source, config, seed, allow_undefined)
            data = self.cache.get(digest)
            if data is not None:
                try:
                    return load_uobject(data)
                except SerializeError:
                    # Corrupt or stale-format entry: recompile and
                    # overwrite rather than failing the build.
                    events.counter("build.cache.bad_entry").inc()
        result = self.stage_parse(source, filename)
        result = self.stage_sema(result, config)
        result = self.stage_lower(result, config, allow_undefined)
        result = self.stage_opt(result, config)
        result = self.stage_codegen(result, config)
        result = self.stage_checkopt(result, config)
        obj = result.value
        if digest is not None:
            self.cache.put(digest, dump_uobject(obj))
        return obj

    # ------------------------------------------------------------------
    # Linking and the one-call driver.

    def link_units(
        self,
        objs: UObject | list[UObject],
        entry: str = "main",
        seed: int | None = None,
    ) -> Binary:
        """Link one or more units, resolving cross-object externals."""
        return link(objs, entry=entry, seed=seed)

    def build(
        self,
        source: str,
        config: BuildConfig,
        entry: str = "main",
        filename: str = "<input>",
        seed: int | None = None,
        verify: bool = False,
    ) -> Binary:
        """Compile and link one source; the classic ``compile_source``."""
        with events.span("compile.total", config=config.name,
                         filename=filename):
            obj = self.compile_unit(
                source, config, filename=filename, seed=seed
            )
            binary = self.link_units(obj, entry=entry, seed=seed)
            if verify:
                from ..verifier.verify import verify_binary

                verify_binary(binary)
        return binary


# ---------------------------------------------------------------------------
# The process-wide default session behind compile_source/compile_and_load.

_lock = threading.Lock()
_default: BuildSession | None = None


def default_session() -> BuildSession:
    """The active process-wide session (created lazily).

    A fresh default session attaches an :class:`ObjectCache` at
    ``$REPRO_CACHE_DIR`` when that variable is set.
    """
    global _default
    with _lock:
        if _default is None:
            cache_dir = os.environ.get("REPRO_CACHE_DIR")
            _default = BuildSession(
                cache=ObjectCache(cache_dir) if cache_dir else None
            )
        return _default


def set_default_session(session: BuildSession | None) -> BuildSession | None:
    """Install ``session`` as the process default; returns the previous."""
    global _default
    with _lock:
        previous = _default
        _default = session
        return previous


class use_session:
    """Context manager scoping a default-session override."""

    def __init__(self, session: BuildSession):
        self._session = session
        self._previous: BuildSession | None = None

    def __enter__(self) -> BuildSession:
        self._previous = set_default_session(self._session)
        return self._session

    def __exit__(self, exc_type, exc, tb) -> bool:
        set_default_session(self._previous)
        return False
