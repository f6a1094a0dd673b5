"""Format totality: hostile edits of a dumped binary fail typed.

ConfVerify is the TCB and ``load_binary`` is where its adversarial input
enters, so an edited artifact must never crash the toolchain with a bare
Python exception.  A frozen mutation mix (``random.Random(2026)``) edits
the canonical JSON of the quickstart's OurMPX binary; each mutant
deletes a key, retypes a top-level value, retypes a nested element or
truncates a list, with new values drawn from ``VALUES``.  Every mutant
goes through ``load_binary`` -> ``verify_binary`` -> ``load`` -> ``run``
and must either run or stop with a ``ReproError`` or ``MachineFault``.
"""

from __future__ import annotations

import collections
import copy
import json
import random

import pytest

from examples.quickstart import FIXED
from repro import OUR_MPX, compile_source
from repro.build import dump_binary, load_binary
from repro.errors import MachineFault, ReproError
from repro.link.loader import load
from repro.runtime.trusted import TrustedRuntime
from repro.verifier import verify_binary

VALUES = (None, "x", 7, -1, True, [], {}, 1.5, [1], {"a": 1})
MUTANTS = 200
STAGES = ("load_binary", "verify_binary", "load", "run")


def _containers(node, path=()):
    """Paths of every non-empty list or object in a JSON tree."""
    if isinstance(node, (list, dict)) and node:
        yield path
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _containers(child, (*path, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutants(data: bytes, count: int, seed: int = 2026):
    """``count`` mutated copies of the JSON artifact ``data``, each with
    a note saying what changed."""
    rng = random.Random(seed)
    base = json.loads(data)
    paths = list(_containers(base))
    dicts = [p for p in paths if isinstance(_at(base, p), dict)]
    lists = [p for p in paths if isinstance(_at(base, p), list)]
    nested = [p for p in paths if p]
    for _ in range(count):
        doc = json.loads(data)
        op = rng.choice(("delete", "retype-top", "retype-nested", "truncate"))
        value = copy.deepcopy(rng.choice(VALUES))
        if op == "delete":
            node = _at(doc, rng.choice(dicts))
            key = rng.choice(sorted(node))
            del node[key]
        elif op == "retype-top":
            node, key = doc, rng.choice(sorted(doc))
            doc[key] = value
        elif op == "retype-nested":
            node = _at(doc, rng.choice(nested))
            key = rng.choice(
                sorted(node) if isinstance(node, dict) else range(len(node))
            )
            node[key] = value
        else:
            node = _at(doc, rng.choice(lists))
            key = rng.randrange(len(node))
            del node[key:]
        yield f"{op} {key!r} -> {value!r}", json.dumps(doc).encode()


def _runtime() -> TrustedRuntime:
    """The quickstart's inputs: a password and one encrypted request."""
    runtime = TrustedRuntime()
    runtime.set_password("", b"sesame\x00\x00")
    request = bytearray(128)
    request[64:80] = runtime.encrypt_with(
        runtime.session_key, b"sesame\x00\x00" + b"\x00" * 8
    )
    runtime.channel(0).feed(bytes(request))
    return runtime


def outcome(data: bytes) -> str:
    """The stage a mutant stopped at with a typed error, or "ran"; any
    other exception propagates."""
    stage = STAGES[0]
    try:
        binary = load_binary(data)
        stage = STAGES[1]
        verify_binary(binary)
        stage = STAGES[2]
        process = load(binary, runtime=_runtime())
        stage = STAGES[3]
        process.run(max_instructions=200_000)
    except (ReproError, MachineFault):
        return stage
    return "ran"


@pytest.fixture(scope="module")
def quickstart_dump() -> bytes:
    return dump_binary(compile_source(FIXED, OUR_MPX, seed=1))


def test_honest_dump_runs(quickstart_dump):
    assert outcome(quickstart_dump) == "ran"


def test_every_mutant_fails_typed_or_runs(quickstart_dump):
    tally = collections.Counter()
    for note, data in mutants(quickstart_dump, MUTANTS):
        try:
            tally[outcome(data)] += 1
        except Exception as error:  # noqa: BLE001 - the finding itself
            raise AssertionError(
                f"{note}: untyped {type(error).__name__}: {error}"
            ) from error
    assert sum(tally.values()) == MUTANTS
    # The mix reaches past the decoder, so ConfVerify and the loader
    # see well-typed hostile binaries too.
    assert tally["load_binary"] < MUTANTS
