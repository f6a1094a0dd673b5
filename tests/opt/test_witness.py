"""Certified pass framework tests: witness emission, validation,
rejection-and-revert, snapshot fidelity, and the bounded fixpoint
loop."""

import dataclasses

import pytest

from repro.apps.spec import SPEC_NAMES, kernel_source
from repro.build.session import BuildSession
from repro.config import OUR_MPX
from repro.frontend import lower_program
from repro.ir import (
    Block,
    Const,
    Instr,
    MemRef,
    StackSlot,
    Store,
    VReg,
    verify_module,
)
from repro.minic import analyze, parse
from repro.obs import events
from repro.opt import (
    MAX_ITERATIONS,
    Obligation,
    Pass,
    Witness,
    WitnessError,
    check_witness,
    optimize_module,
    run_certified_pass,
    snapshot_function,
)
from repro.opt import pipeline
from repro.opt.pipeline import (
    COPYPROP_AND_FOLD,
    DCE,
    ITER_PASSES,
    PROMOTE_SLOTS,
    SIMPLIFY_CFG,
)
from repro.runtime.trusted import T_PROTOTYPES
from repro.serve.apps import SERVE_APPS
from repro.taint import Taint

SOURCE = """
int f(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) { s += i + 0; }
    return s * 1;
}

int main() { return f(5); }
"""


def ir_of(source=SOURCE):
    return lower_program(analyze(parse(source)))


def blocks_repr(func):
    return {b.name: [repr(i) for i in b.instrs] for b in func.blocks}


def emit_witness(pass_obj, func):
    """Run one pass by hand, returning (snapshot, accepted witness)."""
    snapshot = snapshot_function(func)
    witness = Witness(pass_obj.name, func.name, func.origin)
    changed = pass_obj.fn(func, witness=witness)
    assert changed, f"{pass_obj.name} made no change on the test input"
    check_witness(witness, snapshot, func)
    return snapshot, witness


#: The SPEC kernels and serve apps, as sources.
SNAPSHOT_SOURCES = [
    pytest.param(lambda name=name: kernel_source(name), id=name)
    for name in SPEC_NAMES
] + [
    pytest.param(lambda name=name: SERVE_APPS[name].source, id=name)
    for name in ("webserver", "dirserver", "classifier")
]


def lowered_module(source: str):
    """``source`` lowered as an OurMPX build lowers it."""
    session = BuildSession()
    return session.stage_lower(
        session.stage_sema(session.stage_parse(source), OUR_MPX), OUR_MPX
    ).value


#: Each of these changes ``f`` of SOURCE when run in this order.
CHAIN = (PROMOTE_SLOTS, COPYPROP_AND_FOLD, DCE, SIMPLIFY_CFG)


def chain_witnesses(source=SOURCE):
    """``[(pass, snapshot, witness, post snapshot)]`` for CHAIN on ``f``;
    the post snapshots stay valid as later passes run."""
    func = ir_of(source).functions["f"]
    out = []
    for pass_obj in CHAIN:
        snapshot, witness = emit_witness(pass_obj, func)
        out.append((pass_obj, snapshot, witness, snapshot_function(func)))
    return out


class TestAcceptance:
    def test_real_passes_accepted_and_applied(self):
        module = ir_of()
        f = module.functions["f"]
        before = blocks_repr(f)
        changed, witness = run_certified_pass(PROMOTE_SLOTS, f)
        assert changed and witness is not None
        assert blocks_repr(f) != before
        assert witness.obligations
        verify_module(module)

    def test_unchanged_pass_returns_no_witness(self):
        module = ir_of("int main() { return 0; }")
        f = module.functions["main"]
        changed, witness = run_certified_pass(DCE, f)
        assert not changed and witness is None

    @pytest.mark.parametrize("pipeline_name", ["confllvm", "vanilla"])
    @pytest.mark.parametrize("source", SNAPSHOT_SOURCES)
    def test_full_pipeline_accepts_everything(self, source, pipeline_name):
        # An honest pass that loses an instruction's identity (rebuilds
        # an unchanged instruction) would be reverted silently and change
        # the generated code; no witness may be rejected.
        module = lowered_module(source())
        registry = events.Registry()
        with events.use(registry):
            optimize_module(module, pipeline_name)
        snap = registry.metrics_snapshot()
        rejected = {
            k: v for k, v in snap.items() if "witness_rejected" in k
        }
        assert not rejected, rejected


class TestRejection:
    def corrupt_and_expect(self, mutate):
        module = ir_of()
        f = module.functions["f"]
        snapshot, witness = emit_witness(PROMOTE_SLOTS, f)
        mutate(witness)
        with pytest.raises(WitnessError):
            check_witness(witness, snapshot, f)

    def test_dropped_obligations(self):
        self.corrupt_and_expect(lambda w: w.obligations.clear())

    def test_phantom_obligation_on_unchanged_block(self):
        self.corrupt_and_expect(
            lambda w: w.obligations.append(
                Obligation("taint", "__phantom__@0", ("rewrite", (), ()))
            )
        )

    def test_wrong_pass_name_rejected(self):
        module = ir_of()
        f = module.functions["f"]
        snapshot, witness = emit_witness(PROMOTE_SLOTS, f)
        witness.pass_name = "no_such_pass"
        with pytest.raises(WitnessError):
            check_witness(witness, snapshot, f)

    def test_taint_flip_rejected(self):
        module = ir_of()
        f = module.functions["f"]
        snapshot, witness = emit_witness(PROMOTE_SLOTS, f)
        flipped = False
        for i, ob in enumerate(witness.obligations):
            if ob.claim[:1] == ("promoted",):
                witness.obligations[i] = Obligation(
                    ob.kind,
                    ob.site,
                    (ob.claim[0], ob.claim[1], ob.claim[2] ^ 1),
                )
                flipped = True
                break
        assert flipped
        with pytest.raises(WitnessError):
            check_witness(witness, snapshot, f)


def _reshape(witness, pick, remake):
    """Replace the first obligation ``pick`` selects with ``remake(ob)``."""
    for i, ob in enumerate(witness.obligations):
        if pick(ob):
            witness.obligations[i] = remake(ob)
            return
    raise AssertionError("the witness has no obligation to reshape")


def _with_claim(claim):
    return lambda ob: Obligation(ob.kind, ob.site, claim)


def _tagged(tag):
    return lambda ob: ob.claim[0] == tag


#: Malformed obligations (bad site grammar, claim arity or fields); the
#: checker must reject each with a WitnessError, not crash on it.
MALFORMED = [
    pytest.param(
        PROMOTE_SLOTS, _tagged("promoted"),
        lambda ob: Obligation(ob.kind, "slot:abc", ob.claim),
        id="promote_slots-slot-site-not-an-int",
    ),
    pytest.param(
        PROMOTE_SLOTS, _tagged("promoted"), _with_claim(("promoted",)),
        id="promote_slots-promoted-without-fields",
    ),
    pytest.param(
        COPYPROP_AND_FOLD, _tagged("rewrite"), _with_claim(()),
        id="copyprop-empty-claim",
    ),
    pytest.param(
        COPYPROP_AND_FOLD, _tagged("rewrite"), _with_claim(("rewrite",)),
        id="copyprop-rewrite-without-fields",
    ),
    pytest.param(
        DCE, _tagged("dead"),
        lambda ob: Obligation(
            ob.kind, ob.site.rpartition("@")[0] + "@x", ob.claim
        ),
        id="dce-index-not-an-int",
    ),
    pytest.param(
        SIMPLIFY_CFG, _tagged("merged"), _with_claim(("merged",)),
        id="simplify_cfg-merged-without-target",
    ),
]


class TestMalformedWitness:
    @pytest.mark.parametrize("pass_obj, pick, remake", MALFORMED)
    def test_rejected_not_crashed(self, pass_obj, pick, remake):
        _, snapshot, witness, post = chain_witnesses()[CHAIN.index(pass_obj)]
        _reshape(witness, pick, remake)
        with pytest.raises(WitnessError, match="malformed obligation"):
            check_witness(witness, snapshot, post)


#: Another ``f`` whose CHAIN rewrites differ from SOURCE's at every pass
#: (a witness whose claims also justify a second pair is sound for it).
OTHER_F = """
int f(int n) {
    int t = 1;
    if (n > 2) { t = t + 0; } else { t = 3; }
    while (t < n) { t = t * 2; }
    return t;
}

int main() { return f(3); }
"""


class TestReplayAgainstOtherIR:
    """An honest witness only holds for the pair it was emitted on."""

    @pytest.mark.parametrize("index", range(len(CHAIN)),
                             ids=[p.name for p in CHAIN])
    def test_rejected_against_unchanged_pair(self, index):
        _, snapshot, witness, post = chain_witnesses()[index]
        check_witness(witness, snapshot, post)
        with pytest.raises(WitnessError):
            check_witness(witness, snapshot, snapshot)
        with pytest.raises(WitnessError):
            check_witness(witness, post, post)

    @pytest.mark.parametrize("index", range(len(CHAIN)),
                             ids=[p.name for p in CHAIN])
    def test_rejected_against_another_functions_pair(self, index):
        _, _, witness, _ = chain_witnesses()[index]
        main = ir_of().functions["main"]
        with pytest.raises(WitnessError):
            check_witness(witness, snapshot_function(main), main)
        # Another program's f, stamped with this f's lowering provenance
        # so the identity checks pass: only the replay can reject it.
        _, other_pre, _, other_post = chain_witnesses(OTHER_F)[index]
        other_pre.origin = other_post.origin = witness.origin
        with pytest.raises(WitnessError):
            check_witness(witness, other_pre, other_post)


def _function_state(func):
    return (
        func.name,
        func.origin,
        [(b.name, [repr(i) for i in b.instrs]) for b in func.blocks],
        [dataclasses.astuple(s) for s in func.slots],
        [(v.id, v.taint, v.hint) for v in func.param_vregs],
        (len(func.vregs), func._next_slot, func._next_block),
    )


def _ir_objects(func) -> dict:
    """id -> object for every list, block, instruction, VReg, StackSlot
    and MemRef reachable from ``func``'s body, slots and registers."""
    seen: dict = {}

    def walk(x):
        if id(x) in seen:
            return
        if isinstance(x, list):
            seen[id(x)] = x
            for y in x:
                walk(y)
        elif isinstance(x, tuple):
            for y in x:
                walk(y)
        elif isinstance(x, Block):
            seen[id(x)] = x
            walk(x.instrs)
        elif isinstance(x, (Instr, VReg, StackSlot, MemRef)):
            seen[id(x)] = x
            for f in dataclasses.fields(x):
                walk(getattr(x, f.name))

    walk([func.blocks, func.slots, func.param_vregs, func.vregs])
    return seen


def _assert_frozen(obj) -> None:
    """Writing any field of ``obj`` raises, whatever the value."""
    for f in dataclasses.fields(obj):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, getattr(obj, f.name))


class TestSnapshot:
    """The revert machinery the checker's (pre, post) pair rests on."""

    @pytest.mark.parametrize("source", SNAPSHOT_SOURCES)
    def test_snapshot_is_faithful_and_independent(self, source, monkeypatch):
        # The pipeline snapshots every function before each pass run,
        # so this sees each one as lowered and after every accepted pass.
        # A snapshot shares only frozen objects with its function: no
        # list or block, and nothing whose fields can be written.
        taken = []
        checked_types: set[type] = set()

        def checked_snapshot(func):
            snap = snapshot_function(func)
            assert _function_state(snap) == _function_state(func)
            ours = _ir_objects(func)
            shared = [ours[i] for i in ours.keys() & _ir_objects(snap).keys()]
            mutable = [x for x in shared if isinstance(x, (list, Block))]
            assert not mutable, mutable[:5]
            for obj in shared:
                if type(obj) not in checked_types:
                    _assert_frozen(obj)
                    checked_types.add(type(obj))
            taken.append(func.name)
            return snap

        monkeypatch.setattr(pipeline, "snapshot_function", checked_snapshot)
        module = lowered_module(source())
        optimize_module(module)
        assert set(taken) == set(module.functions)
        assert {VReg, StackSlot, MemRef} <= checked_types


class TestRevert:
    def test_bad_pass_is_reverted_and_counted(self):
        """A pass that rewrites without justification is rolled back."""

        def evil(func, witness=None):
            # Delete the first instruction of the entry block and claim
            # nothing: the changed-block coverage check must fire.
            func.blocks[0].instrs.pop(0)
            return True

        module = ir_of()
        f = module.functions["f"]
        before = blocks_repr(f)
        registry = events.Registry()
        with events.use(registry):
            changed, witness = run_certified_pass(Pass("dce", evil), f)
        assert not changed and witness is None
        assert blocks_repr(f) == before  # reverted in place
        snap = registry.metrics_snapshot()
        assert snap.get("opt.witness_rejected{pass=dce}") == 1

    def test_taint_laundering_pass_is_reverted(self):
        """A pass that relabels a private register as public is caught
        by the register check, whatever it claims.  Registers are
        frozen, so it has to launder through an impostor: a new VReg
        with the same id and the flipped taint."""

        def launder(func, witness=None):
            for block in func.blocks:
                for i, instr in enumerate(block.instrs):
                    for f in dataclasses.fields(instr):
                        v = getattr(instr, f.name)
                        if (
                            isinstance(v, VReg)
                            and v.taint is Taint.PRIVATE
                            and v not in instr.defs()
                        ):
                            with pytest.raises(
                                dataclasses.FrozenInstanceError
                            ):
                                v.taint = Taint.PUBLIC
                            impostor = VReg(v.id, Taint.PUBLIC, v.hint)
                            block.instrs[i] = dataclasses.replace(
                                instr, **{f.name: impostor}
                            )
                            # A well-formed claim: the rewrite keeps
                            # the def taints, so only the register
                            # check can reject it.
                            taints = tuple(
                                int(d.taint) for d in instr.defs()
                            )
                            witness.add(
                                "taint", f"{block.name}@{i}", "rewrite",
                                taints, taints,
                            )
                            return True
            return False

        source = T_PROTOTYPES + """
            int main() {
                private int secret = 42;
                return declassify_int(secret + 0);
            }
            """
        f = ir_of(source).functions["main"]
        snapshot = snapshot_function(f)
        witness = Witness("copyprop_and_fold", f.name, f.origin)
        assert launder(f, witness)
        with pytest.raises(WitnessError, match="not the function's register"):
            check_witness(witness, snapshot, f)

        f = ir_of(source).functions["main"]
        before = blocks_repr(f)
        changed, witness = run_certified_pass(
            Pass("copyprop_and_fold", launder), f
        )
        assert not changed and witness is None
        assert blocks_repr(f) == before

    def test_equal_but_new_instruction_is_rejected(self):
        """An instruction replaced by an equal but new object is a
        change, and a change with no obligation is reverted."""

        def swap(func, witness=None):
            entry = func.blocks[0]
            entry.instrs[0] = dataclasses.replace(entry.instrs[0])
            return True

        f = ir_of().functions["f"]
        original = f.blocks[0].instrs[0]
        changed, witness = run_certified_pass(
            Pass("copyprop_and_fold", swap), f
        )
        assert not changed and witness is None
        assert f.blocks[0].instrs[0] is original


DCE_SOURCE = """
int g;
int f(int x) { if (x) { g = 5; } return x; }
int main() { return f(1); }
"""


def _rejected_and_reverted(pass_obj, func):
    """Run ``pass_obj`` certified; it must be rejected and reverted."""
    before = blocks_repr(func)
    slots = list(func.slots)
    changed, witness = run_certified_pass(pass_obj, func)
    assert not changed and witness is None
    assert blocks_repr(func) == before and func.slots == slots


class TestBlockAndSlotAccounting:
    """Removed blocks and promoted slots must be fully accounted for."""

    def test_dce_cannot_delete_blocks(self):
        """A dce witness may only delete instructions: dropping every
        block but one, with a 'dead' claim in each dropped block, is
        rejected (only simplify_cfg may remove blocks, each with a
        block: obligation)."""

        def wipe(func, witness=None):
            keep = next(b for b in func.blocks if ".endif." in b.name)
            for block in func.blocks:
                if block is not keep:
                    witness.add("layout", f"{block.name}@0", "dead", ())
            func.blocks = [keep]
            return True

        _rejected_and_reverted(
            Pass("dce", wipe), ir_of(DCE_SOURCE).functions["f"]
        )

    def test_entry_block_cannot_move(self):
        def rotate(func, witness=None):
            func.blocks = func.blocks[1:] + func.blocks[:1]
            return True

        _rejected_and_reverted(Pass("dce", rotate), ir_of().functions["f"])

    def test_duplicate_block_name_rejected(self):
        def shadow(func, witness=None):
            entry = func.blocks[0]
            func.blocks.insert(0, Block(entry.name, entry.instrs[-1:]))
            return True

        # simplify_cfg's claim checker looks only at claimed blocks, so
        # only the structural check can see the shadow.
        _rejected_and_reverted(
            Pass("simplify_cfg", shadow), ir_of().functions["f"]
        )

    def test_change_reported_as_none_is_still_checked(self):
        """Whether a run changed anything is read off the IR: a pass
        that deletes the stores and returns False is checked anyway,
        and reverted."""
        def sneaky(func, witness=None):
            for block in func.blocks:
                block.instrs = [
                    i for i in block.instrs if not isinstance(i, Store)
                ]
            return False

        _rejected_and_reverted(
            Pass("dce", sneaky), ir_of(DCE_SOURCE).functions["f"]
        )

    def test_promote_that_wipes_the_blocks_is_reverted(self):
        def wipe(func, witness=None):
            uid = func.slots[0].uid
            for block in func.blocks:
                witness.add(
                    "layout", f"{block.name}@0", "slot-access", uid, 0
                )
            func.blocks = []
            return True

        _rejected_and_reverted(
            Pass("promote_slots", wipe), ir_of().functions["f"]
        )

    def test_promote_check_is_total_on_a_blockless_function(self):
        pre = ir_of().functions["f"]
        pre.blocks = []
        post = snapshot_function(pre)
        slot = post.slots.pop()
        witness = Witness("promote_slots", pre.name, pre.origin)
        witness.add(
            "layout", f"slot:{slot.uid}", "promoted", 0, int(slot.taint)
        )
        with pytest.raises(WitnessError):
            check_witness(witness, pre, post)

    def test_promotion_must_rewrite_every_access(self):
        """Undoing one rewritten access, and dropping its claim, leaves
        the promoted slot still accessed: rejected."""
        f = ir_of().functions["f"]
        snapshot, witness = emit_witness(PROMOTE_SLOTS, f)
        access = next(
            ob for ob in witness.obligations if ob.claim[0] == "slot-access"
        )
        block_name, _, index = access.site.rpartition("@")
        pre_block = next(b for b in snapshot.blocks if b.name == block_name)
        post_block = next(b for b in f.blocks if b.name == block_name)
        offset = len(post_block.instrs) - len(pre_block.instrs)
        post_block.instrs[int(index) + offset] = pre_block.instrs[int(index)]
        witness.obligations.remove(access)
        with pytest.raises(WitnessError, match="slot-access claims"):
            check_witness(witness, snapshot, f)


class TestBoundedFixpoint:
    def test_ping_pong_terminates_at_cap(self, monkeypatch):
        """Two passes that undo each other stop at MAX_ITERATIONS."""
        from repro.opt import pipeline

        def is_marker(instr):
            return isinstance(instr, Const) and instr.value == 77777

        def ping(func, witness=None):
            entry = func.blocks[0]
            if entry.instrs and is_marker(entry.instrs[0]):
                return False
            entry.instrs.insert(
                0, Const(func.new_vreg(Taint.PUBLIC), 77777)
            )
            return True

        def pong(func, witness=None):
            entry = func.blocks[0]
            if entry.instrs and is_marker(entry.instrs[0]):
                entry.instrs.pop(0)
                return True
            return False

        monkeypatch.setattr(
            pipeline,
            "ITER_PASSES",
            (Pass("dce", ping), Pass("dce", pong)),
        )
        # Accept every witness: the cap, not certification, must stop
        # the ping-pong.
        monkeypatch.setattr(
            pipeline, "check_witness", lambda *a, **k: None
        )
        module = ir_of("int main() { return 0; }")
        registry = events.Registry()
        with events.use(registry):
            optimize_module(module, verify=False)
        snap = registry.metrics_snapshot()
        iters = snap["opt.fixpoint_iters{pipeline=confllvm}"]
        assert iters["max"] == MAX_ITERATIONS

    def test_real_pipeline_converges_under_cap(self):
        registry = events.Registry()
        with events.use(registry):
            optimize_module(ir_of())
        snap = registry.metrics_snapshot()
        iters = snap["opt.fixpoint_iters{pipeline=confllvm}"]
        assert iters["max"] < MAX_ITERATIONS

    def test_iter_passes_are_certified_passes(self):
        assert all(isinstance(p, Pass) for p in ITER_PASSES)
