"""Certified pass manager.

Two pipelines mirror the paper's compiler configurations:

* ``vanilla`` — everything, including the passes ConfLLVM does not
  support (used for the ``Base``/``BaseOA`` configurations);
* ``confllvm`` — only the taint-metadata-preserving passes (everything
  that runs under the Our* configurations).

Every pass runs *certified*: it is a :class:`Pass` whose rewrite must
justify itself with a :class:`~repro.opt.witness.Witness` — a list of
taint-/layout-preservation obligations the independent checker
(:func:`~repro.opt.witness.check_witness`) re-derives from the pre/post
IR.  A pass whose witness fails validation is reverted on the spot
(the function is restored from a pre-pass snapshot) and the pipeline
continues without it, bumping the ``opt.witness_rejected`` counter.
The checker is handed the snapshot and the rewritten function itself,
so nothing ties a witness to its IR except what the checker re-derives
from that pair; an accepted witness is not kept.

IR objects are frozen, so the snapshot copies only the function's
lists and shares every instruction with it; an instruction the pass
left alone is the same object before and after, and the checker
compares by identity, looking only at what the pass changed.

The per-function fixpoint loop is explicitly bounded: at most
:data:`MAX_ITERATIONS` rounds, recorded in the ``opt.fixpoint_iters``
histogram.  Two passes that undo each other (a "ping-pong") therefore
cost a bounded amount of compile time instead of hanging the build.
"""

from __future__ import annotations

from ..ir.core import IRFunction, IRModule
from ..ir.verify import verify_module
from ..obs import events
from .passes import copyprop_and_fold, cse_local, dce, promote_slots, simplify_cfg
from .witness import (
    Witness,
    WitnessError,
    check_witness,
    restore_function,
    snapshot_function,
    unchanged_since,
)

#: Fixpoint cap for the iterative pass loop (see module docstring).
MAX_ITERATIONS = 8


class Pass:
    """A named, witness-emitting IR transformation.

    ``fn`` is a function ``(func, witness=None) -> bool`` that mutates
    ``func`` in place, returns whether it changed anything, and — when
    given a witness — records one obligation per rewrite.
    """

    def __init__(self, name: str, fn):
        self.name = name
        self.fn = fn

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Pass({self.name})"


PROMOTE_SLOTS = Pass("promote_slots", promote_slots)
COPYPROP_AND_FOLD = Pass("copyprop_and_fold", copyprop_and_fold)
DCE = Pass("dce", dce)
SIMPLIFY_CFG = Pass("simplify_cfg", simplify_cfg)
CSE_LOCAL = Pass("cse_local", cse_local)

#: The iterated pass sequence (cse_local appended for vanilla only).
ITER_PASSES = (COPYPROP_AND_FOLD, DCE, SIMPLIFY_CFG)


def _n_instrs(func: IRFunction) -> int:
    return sum(len(block.instrs) for block in func.blocks)


def run_certified_pass(
    pass_obj: Pass, func: IRFunction
) -> tuple[bool, Witness | None]:
    """Run one pass under translation validation.

    Returns ``(changed, witness)``.  On a rejected witness the function
    is reverted to its pre-pass state and ``(False, None)`` is returned
    (the build continues un-optimized rather than mis-optimized).
    """
    snapshot = snapshot_function(func)
    witness = Witness(pass_obj.name, func.name, func.origin)
    pass_obj.fn(func, witness=witness)
    # Whether the run changed anything is read off the IR, not taken
    # from the pass: only a run that changed nothing goes unchecked.
    if unchanged_since(snapshot, func):
        return False, None
    try:
        check_witness(witness, snapshot, func)
    except WitnessError:
        restore_function(func, snapshot)
        if events.active() is not None:
            events.counter(
                "opt.witness_rejected", **{"pass": pass_obj.name}
            ).inc()
        return False, None
    return True, witness


def _run_pass(pass_obj: Pass, func: IRFunction) -> bool:
    """Run one certified pass, recording run count and IR-size delta."""
    if events.active() is None:  # skip the IR-size walks when obs is off
        return run_certified_pass(pass_obj, func)[0]
    before = _n_instrs(func)
    changed, _ = run_certified_pass(pass_obj, func)
    events.counter("opt.pass_runs", **{"pass": pass_obj.name}).inc()
    events.histogram("opt.ir_delta", **{"pass": pass_obj.name}).observe(
        before - _n_instrs(func)
    )
    return changed


def optimize_module(
    module: IRModule, pipeline: str = "confllvm", verify: bool = True
) -> IRModule:
    """Optimize a module in place and return it."""
    run_unsupported = pipeline == "vanilla"
    passes = ITER_PASSES + ((CSE_LOCAL,) if run_unsupported else ())
    with events.span("compile.opt", pipeline=pipeline):
        for func in module.functions.values():
            _run_pass(PROMOTE_SLOTS, func)
            iters = 0
            for _ in range(MAX_ITERATIONS):
                iters += 1
                changed = False
                for pass_obj in passes:
                    changed |= _run_pass(pass_obj, func)
                if not changed:
                    break
            if events.active() is not None:
                events.histogram(
                    "opt.fixpoint_iters", pipeline=pipeline
                ).observe(iters)
        if verify:
            with events.span("compile.opt.ir-verify"):
                verify_module(module)
    return module
