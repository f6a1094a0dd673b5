"""MachineImage snapshot/fork: forks must be bit-identical to the
machine they were frozen from, across configs and engines, and fully
isolated from each other.

``machine_signature`` (from the engine-equivalence suite) covers exit
code, per-core cycles, every Stats field, fault accounting, cache
hit/miss counts, register files, and pcs; ``Memory.content_signature``
covers every non-zero byte of memory independent of which pages happen
to be lazily materialized.  Together they pin the image contract: a
fork *is* the machine, not an approximation of it.
"""

from __future__ import annotations

import pytest

from repro import BASE, OUR_MPX, OUR_SEG, TrustedRuntime
from repro.compiler import compile_source
from repro.errors import ServeError
from repro.link.loader import load
from repro.machine.cpu import ENGINES
from repro.serve import (
    SERVE_APPS,
    MachineImage,
    ServeInstance,
    build_app_image,
    resume_overhead_cycles,
    run_to_request,
)
from repro.serve.apps import echo_request

from tests.machine.test_engine_equivalence import machine_signature

CONFIGS = (BASE, OUR_MPX, OUR_SEG)

ECHO = SERVE_APPS["echo"]


def warm_process(config, engine, seed=3):
    """The cold path: compile + load + run to the first request wait."""
    # Base carries no instrumentation for ConfVerify to accept.
    binary = compile_source(
        ECHO.source, config, seed=seed, verify=config is not BASE
    )
    process = load(binary, runtime=TrustedRuntime(), engine=engine)
    run_to_request(process)
    return process


def full_signature(process):
    return (
        machine_signature(process.machine),
        process.machine.mem.content_signature(),
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_fork_bit_identical_to_cold_load(config, engine):
    cold = warm_process(config, engine)
    image = MachineImage.snapshot(cold)
    fork = image.fork()
    assert full_signature(fork) == full_signature(cold)
    # And behaviourally identical: the same request costs the same
    # cycles and produces the same bytes on both.
    cold_inst = ServeInstance(cold)
    fork_inst = ServeInstance(fork)
    payload = echo_request(4)
    assert fork_inst.handle_request(payload) == cold_inst.handle_request(
        payload
    )
    assert full_signature(fork) == full_signature(cold)


@pytest.mark.parametrize("config", (OUR_MPX,), ids=lambda c: c.name)
def test_fork_engines_agree(config):
    """A reference-engine fork of a predecoded-built image serves the
    same bytes for the same cycles."""
    image, _ = build_app_image(ECHO, config, seed=3)
    pre = ServeInstance(image.fork(engine="predecoded"))
    ref = ServeInstance(image.fork(engine="reference"))
    for i in range(3):
        payload = echo_request(i)
        assert pre.handle_request(payload) == ref.handle_request(payload)
        assert pre.last_cycles == ref.last_cycles
        assert pre.last_instructions == ref.last_instructions
    assert full_signature(pre.process) == full_signature(ref.process)


def test_fork_isolation():
    """Tenant A's writes are never visible in tenant B's fork."""
    image, _ = build_app_image(ECHO, OUR_MPX, seed=3)
    a = ServeInstance(image.fork())
    b = ServeInstance(image.fork())
    before = full_signature(b.process)
    for i in range(5):
        a.handle_request(echo_request(i))
    # B saw nothing: not one byte of memory, not one cycle.
    assert full_signature(b.process) == before
    # And the image itself is immutable: a brand-new fork still equals
    # B, not A.
    c = ServeInstance(image.fork())
    assert full_signature(c.process) == before


def test_fork_after_request_resets_to_fork_before():
    """reset() rewinds a used fork to exactly a fresh fork's state."""
    image, _ = build_app_image(ECHO, OUR_MPX, seed=3)
    used = ServeInstance(image.fork())
    fresh = ServeInstance(image.fork())
    pristine = full_signature(fresh.process)
    for i in range(4):
        used.handle_request(echo_request(i))
    assert full_signature(used.process) != pristine
    used.reset()
    assert full_signature(used.process) == pristine
    # Identical service cost from the reset fork and the fresh one.
    assert used.handle_request(echo_request(9)) == fresh.handle_request(
        echo_request(9)
    )
    assert used.last_cycles == fresh.last_cycles


def test_fork_reuses_generated_code(monkeypatch):
    """Once one fork has served a request, a new fork of the same image
    serves it by binding already-generated code: no source is emitted
    again."""
    from repro.machine import superblock

    image, _ = build_app_image(ECHO, OUR_MPX, seed=3)
    first = ServeInstance(image.fork())
    expected = first.handle_request(echo_request(2))
    second = ServeInstance(image.fork())

    def no_emission(*args, **kwargs):
        raise AssertionError("a fork regenerated a block")

    monkeypatch.setattr(superblock._Emitter, "__init__", no_emission)
    assert second.handle_request(echo_request(2)) == expected
    assert second.last_cycles == first.last_cycles


def test_warm_image_skips_initialization_per_request():
    """The resume replay is tiny compared to app initialization — the
    whole point of warm images (dirserver repopulates 20k entries on a
    cold start)."""
    app = SERVE_APPS["dirserver"]
    image, _ = build_app_image(app, OUR_MPX, seed=3)
    instance = ServeInstance(image.fork())
    resume = resume_overhead_cycles(instance)
    assert image.warmup_cycles >= 100 * resume


def test_run_to_request_rejects_exiting_program():
    from repro.runtime.trusted import T_PROTOTYPES

    binary = compile_source(
        T_PROTOTYPES + "int main() { return 7; }", OUR_MPX, seed=3
    )
    process = load(binary, runtime=TrustedRuntime())
    with pytest.raises(ServeError):
        run_to_request(process)


def test_generated_code_dies_with_its_binary():
    """Generated code is cached per binary and only there: N binaries,
    each run to its request wait unprofiled and profiled, leave none of
    their stepping, trace or tally entries in ``superblock._IMAGES``
    once dropped."""
    import gc

    from repro.machine import superblock
    from repro.obs.blockprof import attach_block_profiler

    dead = []
    for seed in range(4):
        binary = compile_source(ECHO.source, OUR_MPX, seed=seed)
        run_to_request(load(binary, runtime=TrustedRuntime()))
        profiled = load(binary, runtime=TrustedRuntime())
        attach_block_profiler(profiled.machine)
        run_to_request(profiled)
        entries = superblock._IMAGES[id(binary)]
        # The fourth table, noting forms, fills only once a profiled run
        # reaches a sample point; these runs stop before one.
        assert all(entries[:3]), [len(table) for table in entries]
        dead.extend(entries)
        del binary, profiled
    gc.collect()
    live = {id(table) for tables in superblock._IMAGES.values()
            for table in tables}
    assert not live & {id(table) for table in dead}
