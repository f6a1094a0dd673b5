"""Post-codegen check optimizer tests: the three transforms, the
translation checker, level semantics, and end-to-end acceptance."""

import pytest

from repro import OUR_MPX, OUR_SEG, compile_source
from repro.backend import isa
from repro.opt import (
    CheckOptWitness,
    WitnessError,
    check_checkopt_witness,
    optimize_checks,
)
from repro.runtime.trusted import T_PROTOTYPES, TrustedRuntime
from repro.link.loader import load
from repro.verifier.verify import verify_binary

R0, R1 = 0, 1


def reg_chk(reg=R0, bnd=0):
    return isa.BndChk(bnd, reg=reg)


def mem_chk(base=R0, disp=0, bnd=0, index=None):
    return isa.BndChk(bnd, mem=isa.Mem(base=base, disp=disp, index=index))


def glea(dst=R0, name="g"):
    return isa.Lea(dst, isa.Mem(global_name=name))


def run(insns):
    out, witness = optimize_checks(list(insns), "f")
    check_checkopt_witness(witness, list(insns), out)
    return out, witness


class TestTransforms:
    def test_duplicate_reg_check_elided(self):
        out, witness = run([reg_chk(), isa.MovRI(R1, 1), reg_chk()])
        assert [e[0] for e in witness.edits] == ["elide"]
        assert sum(isinstance(i, isa.BndChk) for i in out) == 1

    def test_reg_check_covers_small_disp_mem_check(self):
        out, witness = run([reg_chk(), mem_chk(disp=64)])
        assert [e[0] for e in witness.edits] == ["elide"]
        assert sum(isinstance(i, isa.BndChk) for i in out) == 1

    def test_mem_check_widened_to_reg_form(self):
        out, witness = run([mem_chk(disp=8)])
        assert [e[0] for e in witness.edits] == ["widen"]
        assert out[0].reg == R0 and out[0].mem is None

    def test_widen_then_elide_chains(self):
        # Both widen to the same register key; the second dies.
        out, witness = run([mem_chk(disp=8), mem_chk(disp=16)])
        assert [e[0] for e in witness.edits] == ["widen", "elide"]
        assert sum(isinstance(i, isa.BndChk) for i in out) == 1

    def test_indexed_check_not_widened(self):
        out, witness = run([mem_chk(index=R1)])
        assert witness.edits == []

    def test_huge_disp_not_widened(self):
        out, witness = run([mem_chk(disp=1 << 21)])
        assert witness.edits == []

    def test_redefinition_kills_evidence(self):
        out, witness = run([reg_chk(), isa.MovRI(R0, 5), reg_chk()])
        # The second check is NOT redundant: r0 was rewritten.
        assert [e[0] for e in witness.edits] == []

    def test_boundary_kills_evidence(self):
        for boundary in (isa.Label("l"), isa.CallD("g"), isa.RetPlain()):
            out, witness = run([reg_chk(), boundary, reg_chk()])
            assert witness.edits == [], boundary

    def test_bnd_register_distinguished(self):
        out, witness = run([reg_chk(bnd=0), reg_chk(bnd=1)])
        assert witness.edits == []

    def test_lea_dedup_and_lifetime_extension(self):
        out, witness = run(
            [glea(), reg_chk(), glea(), reg_chk()]
        )
        kinds = [e[0] for e in witness.edits]
        # The remat is deleted, which lets the second check see the
        # first one's evidence.
        assert kinds == ["dedup-lea", "elide"]
        assert sum(isinstance(i, isa.Lea) for i in out) == 1
        assert sum(isinstance(i, isa.BndChk) for i in out) == 1

    def test_different_global_lea_not_deduped(self):
        out, witness = run([glea(name="a"), glea(name="b")])
        assert witness.edits == []

    def test_input_not_mutated(self):
        insns = [reg_chk(), reg_chk()]
        before = [repr(i) for i in insns]
        optimize_checks(insns, "f")
        assert [repr(i) for i in insns] == before


class TestChecker:
    def witness_for(self, insns):
        out, witness = optimize_checks(list(insns), "f")
        return list(insns), out, witness

    def test_honest_witness_accepted(self):
        pre, post, witness = self.witness_for(
            [reg_chk(), mem_chk(disp=4), mem_chk(disp=8)]
        )
        check_checkopt_witness(witness, pre, post)

    def test_replay_against_other_streams_rejected(self):
        pre, post, witness = self.witness_for(
            [reg_chk(), isa.MovRI(R1, 1), reg_chk()]
        )
        for other_pre, other_post in (
            (pre, pre),
            (post, post),
            ([reg_chk(), isa.MovRI(R0, 1), reg_chk()], post),
            ([reg_chk(R1), reg_chk(R1), reg_chk(R1)], post),
        ):
            with pytest.raises(WitnessError):
                check_checkopt_witness(witness, other_pre, other_post)

    @pytest.mark.parametrize(
        "edit",
        [("elide", 2), ("elide", 2, 0, 0), (), ("elide", "2", 0),
         ("widen",)],
        ids=["elide-short", "elide-long", "empty", "elide-str-index",
             "widen-short"],
    )
    def test_malformed_edit_rejected_not_crashed(self, edit):
        pre, post, witness = self.witness_for(
            [reg_chk(), isa.MovRI(R1, 1), reg_chk()]
        )
        assert witness.edits == [("elide", 2, 0)]
        witness.edits[0] = edit
        with pytest.raises(WitnessError, match="malformed edit #0"):
            check_checkopt_witness(witness, pre, post)

    def test_dropped_edit_rejected(self):
        pre, post, witness = self.witness_for([reg_chk(), reg_chk()])
        witness.edits = []
        with pytest.raises(WitnessError):
            check_checkopt_witness(witness, pre, post)

    def test_self_provider_rejected(self):
        pre, post, witness = self.witness_for([reg_chk(), reg_chk()])
        (kind, i, _j) = witness.edits[0]
        witness.edits[0] = (kind, i, i)
        with pytest.raises(WitnessError):
            check_checkopt_witness(witness, pre, post)

    def test_phantom_elide_rejected(self):
        # Claim an elision the optimizer never performed: the post
        # stream no longer matches the edit script.
        pre = [reg_chk(), isa.MovRI(R1, 1), mem_chk(base=R1, index=R0)]
        post, witness = optimize_checks(list(pre), "f")
        assert witness.edits == []
        witness.edits = [("elide", 2, 0)]
        with pytest.raises(WitnessError):
            check_checkopt_witness(witness, pre, post)

    def test_killed_evidence_rejected(self):
        # Hand-craft a stream where the claimed provider is dead.
        pre = [reg_chk(), isa.MovRI(R0, 5), reg_chk()]
        post = [pre[0], pre[1]]
        witness = CheckOptWitness("f", [("elide", 2, 0)])
        with pytest.raises(WitnessError) as err:
            check_checkopt_witness(witness, pre, post)
        assert "killed by a register write" in str(err.value)

    def test_cross_boundary_evidence_rejected(self):
        pre = [reg_chk(), isa.Label("l"), reg_chk()]
        post = [pre[0], pre[1]]
        witness = CheckOptWitness("f", [("elide", 2, 0)])
        with pytest.raises(WitnessError) as err:
            check_checkopt_witness(witness, pre, post)
        assert "boundary" in str(err.value)


SOURCE = (
    T_PROTOTYPES
    + """
int sum(int *a, int n) {
    int s = 0;
    for (int i = 0; i < n; i++) { s += a[i]; }
    return s;
}

int main() {
    int buf[8];
    for (int i = 0; i < 8; i++) { buf[i] = i * 3; }
    return sum(buf, 8);
}
"""
)


def observe(binary):
    runtime = TrustedRuntime()
    process = load(binary, runtime=runtime)
    exit_code = process.run()
    return {
        "exit": exit_code,
        "out": runtime.channel(1).drain_out().hex(),
        "stdout": tuple(process.stdout),
    }


class TestEndToEnd:
    def test_levels_verify_and_agree(self):
        """All three levels produce verifier-accepted, observationally
        identical binaries; off has the most checks, aggressive the
        fewest."""
        sites = {}
        seen = {}
        for level in ("off", "safe", "aggressive"):
            config = OUR_MPX.variant(checkopt=level)
            binary = compile_source(SOURCE, config)
            verify_binary(binary)
            sites[level] = sum(
                1 for insn in binary.code if isa.check_kind(insn) == "bnd"
            )
            seen[level] = observe(binary)
        assert seen["off"] == seen["safe"] == seen["aggressive"]
        assert sites["off"] >= sites["safe"] >= sites["aggressive"]

    def test_safe_is_the_default_and_bit_identical(self):
        assert OUR_MPX.checkopt == "safe"
        explicit = compile_source(
            SOURCE, OUR_MPX.variant(checkopt="safe")
        )
        default = compile_source(SOURCE, OUR_MPX)
        assert [repr(i) for i in explicit.code] == [
            repr(i) for i in default.code
        ]

    def test_aggressive_works_for_seg_scheme_too(self):
        config = OUR_SEG.variant(checkopt="aggressive")
        binary = compile_source(SOURCE, config)
        verify_binary(binary)
        assert observe(binary) == observe(compile_source(SOURCE, OUR_SEG))
