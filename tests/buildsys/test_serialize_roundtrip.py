"""Object-file round-trip: serialize -> deserialize -> link must give a
bit-identical Binary (canonical dump equality), identical simulated
cycles and machine stats, and verifier acceptance — for one app per
region-relevant feature: globals, function pointers, varargs.
"""

from __future__ import annotations

import json

import pytest

from repro import OUR_MPX, OUR_SEG, compile_source
from repro.config import ALL_CONFIGS
from repro.apps.libmini import LIBMINI
from repro.build import (
    FORMAT_VERSION,
    SerializeError,
    dump_binary,
    dump_uobject,
    load_binary,
    load_uobject,
)
from repro.build.session import BuildSession
from repro.errors import FAULT_WRAPPER, MachineFault
from repro.link.linker import link
from repro.link.loader import load
from repro.runtime.trusted import T_PROTOTYPES, TrustedRuntime
from repro.verifier.verify import verify_binary

SEED = 11

# Globals coverage: public + private globals, integer and string
# initializers, read-only string literals in both regions' code paths.
GLOBALS_APP = T_PROTOTYPES + """
int counter = 5;
private int secret_acc;
char banner[16] = "globals";
int table[8];

int main() {
    for (int i = 0; i < 8; i++) { table[i] = i * counter; }
    secret_acc = (private int)table[7];
    print_str(banner);
    print_int(table[3] + counter);
    return table[7] % 256;
}
"""

# Function-pointer coverage: CFI magic addresses flow through
# MovFuncAddr and indirect calls.
FUNCPTR_APP = T_PROTOTYPES + """
int twice(int x) { return x + x; }
int thrice(int x) { return x + x + x; }

int pick(int which, int x) {
    int (*op)(int);
    if (which == 0) { op = twice; } else { op = thrice; }
    return op(x);
}

int main() {
    print_int(pick(0, 10) + pick(1, 10));
    return pick(1, 7);
}
"""

# Varargs coverage: libmini's variadic sprintf subset.
VARARGS_APP = T_PROTOTYPES + LIBMINI + """
char out[64];

int main() {
    int n = mini_sprintf(out, "%d-%s-%c", 42, "ok", 33);
    print_str(out);
    return n;
}
"""

APPS = {
    "globals": GLOBALS_APP,
    "funcptr": FUNCPTR_APP,
    "varargs": VARARGS_APP,
}

CONFIGS = {c.name: c for c in (OUR_MPX, OUR_SEG)}


def _machine_signature(process) -> tuple:
    stats = process.stats
    return (
        process.wall_cycles,
        stats.instructions,
        stats.bnd_checks,
        stats.cfi_checks,
        stats.t_calls,
    )


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("app", sorted(APPS))
class TestUObjectRoundTrip:
    def test_roundtrip_bit_identical(self, app, config_name):
        config = CONFIGS[config_name]
        session = BuildSession()
        obj = session.compile_unit(APPS[app], config, seed=SEED)
        blob = dump_uobject(obj)

        obj2 = load_uobject(blob)
        # Re-serializing the deserialized unit is a fixed point.
        assert dump_uobject(obj2) == blob

        # Linking must be mutation-order independent: the original and
        # the round-tripped object produce bit-identical binaries.
        bin1 = link(obj, seed=SEED)
        bin2 = link(obj2, seed=SEED)
        assert dump_binary(bin1) == dump_binary(bin2)

        p1, p2 = load(bin1), load(bin2)
        rc1, rc2 = p1.run(), p2.run()
        assert rc1 == rc2
        assert p1.stdout == p2.stdout
        assert _machine_signature(p1) == _machine_signature(p2)

        # The round-tripped binary still satisfies ConfVerify.
        verify_binary(bin2)


class TestBinaryRoundTrip:
    def test_linked_binary_round_trips_and_runs(self):
        binary = compile_source(GLOBALS_APP, OUR_MPX, seed=SEED)
        data = dump_binary(binary)
        binary2 = load_binary(data)
        assert dump_binary(binary2) == data
        verify_binary(binary2)

        p1, p2 = load(binary), load(binary2)
        assert p1.run() == p2.run()
        assert p1.stdout == p2.stdout
        assert _machine_signature(p1) == _machine_signature(p2)

    def test_layout_reconstructed(self):
        binary = compile_source(GLOBALS_APP, OUR_SEG, seed=SEED)
        binary2 = load_binary(dump_binary(binary))
        assert binary2.layout is not None
        assert binary2.layout == binary.layout
        assert binary2.read_only_ranges == binary.read_only_ranges


class TestFormatVersioning:
    def test_version_tag_present(self):
        session = BuildSession()
        obj = session.compile_unit(FUNCPTR_APP, OUR_MPX, seed=SEED)
        doc = json.loads(dump_uobject(obj).decode())
        assert doc["format"] == FORMAT_VERSION
        assert doc["kind"] == "uobject"

    def test_wrong_version_rejected(self):
        session = BuildSession()
        obj = session.compile_unit(FUNCPTR_APP, OUR_MPX, seed=SEED)
        doc = json.loads(dump_uobject(obj).decode())
        doc["format"] = FORMAT_VERSION + 999
        with pytest.raises(SerializeError):
            load_uobject(json.dumps(doc).encode())

    def test_kind_mismatch_rejected(self):
        binary = compile_source(GLOBALS_APP, OUR_MPX, seed=SEED)
        with pytest.raises(SerializeError):
            load_uobject(dump_binary(binary))

    def test_garbage_rejected(self):
        with pytest.raises(SerializeError):
            load_uobject(b"\x00\x01not json")
        with pytest.raises(SerializeError):
            load_binary(b"[]")


class TestHeaderValidation:
    """ConfVerify and the loader start from the magic prefixes and the
    entry; ``load_binary`` admits only values of the linker's types."""

    @pytest.mark.parametrize(
        "key, value",
        [
            ("mcall_prefix", "7"),
            ("mret_prefix", None),
            ("mcall_prefix", True),
            ("mret_prefix", 1 << 59),
            ("mcall_prefix", -1),
            ("entry", 5),
            ("entry", None),
        ],
    )
    def test_untyped_header_rejected(self, key, value):
        binary = compile_source(GLOBALS_APP, OUR_MPX, seed=SEED)
        doc = json.loads(dump_binary(binary).decode())
        doc[key] = value
        with pytest.raises(SerializeError, match=key.split("_")[0]):
            load_binary(json.dumps(doc).encode())


def _first(doc: dict, tag: str) -> int:
    """Index of the first ``tag`` instruction in a binary dump."""
    return next(i for i, node in enumerate(doc["code"]) if node["$"] == tag)


class TestTypedDecoding:
    """Every value is checked against its field's annotation; a
    mismatch names its path."""

    @pytest.mark.parametrize(
        "edit, path",
        [
            # int is never bool, and a register is never a string.
            pytest.param(
                lambda d: d["code"][_first(d, "MovRI")]["f"].update(dst=True),
                r"binary\.code\[\d+\]\.f\.dst", id="bool-as-int",
            ),
            pytest.param(
                lambda d: d["code"][_first(d, "Load")]["f"]["mem"].update(
                    base="x"
                ),
                r"binary\.code\[\d+\]\.f\.mem\.base", id="nested-record",
            ),
            # An Insn field accepts ISA nodes only.
            pytest.param(
                lambda d: d["code"].__setitem__(0, {"$": "Binary", "f": {}}),
                r"binary\.code\[0\]", id="non-isa-tag",
            ),
            pytest.param(
                lambda d: d["code"][0].update(f=[]),
                r"binary\.code\[0\]\.f", id="insn-fields-not-object",
            ),
            # Unions: int | Imm, Mem | None.
            pytest.param(
                lambda d: d["code"][_first(d, "Alu")]["f"].update(b=[1]),
                r"binary\.code\[\d+\]\.f\.b", id="int-or-imm",
            ),
            pytest.param(
                lambda d: d["code"][_first(d, "BndChk")]["f"].update(mem=7),
                r"binary\.code\[\d+\]\.f\.mem", id="mem-or-none",
            ),
            # Taints and bytes keep their tags.
            pytest.param(
                lambda d: d["imports"][0]["ret_taint"].update(v=2),
                r"binary\.imports\[0\]\.ret_taint", id="taint",
            ),
            pytest.param(
                lambda d: d["global_inits"][0][1].update(h="zz"),
                r"binary\.global_inits\[0\]\[1\]", id="bytes",
            ),
            pytest.param(
                lambda d: d["global_inits"][0].append(0),
                r"binary\.global_inits\[0\]", id="tuple-length",
            ),
            # Records carry exactly their fields.
            pytest.param(
                lambda d: d["config"].update(zzz=False),
                r"binary\.config", id="unknown-field",
            ),
            pytest.param(
                lambda d: d["config"].pop("cfi"),
                r"binary\.config", id="missing-field",
            ),
            pytest.param(
                lambda d: d["config"].update(checkopt="max"),
                r"binary\.config: unknown checkopt", id="post-init-check",
            ),
            # A bound check names bnd0 or bnd1 and exactly one operand.
            pytest.param(
                lambda d: d["code"][_first(d, "BndChk")]["f"].update(
                    reg=None, mem=None
                ),
                r"binary\.code\[\d+\]\.f: a bound check",
                id="bndchk-no-operand",
            ),
            pytest.param(
                lambda d: d["code"][_first(d, "BndChk")]["f"].update(bnd=2),
                r"binary\.code\[\d+\]\.f: a bound check", id="bndchk-bnd2",
            ),
            pytest.param(
                lambda d: d["code"][_first(d, "BndChk")]["f"].update(bnd=-1),
                r"binary\.code\[\d+\]\.f: a bound check", id="bndchk-bnd-1",
            ),
            # Literal domains: a scheme, a pipeline, a segment.
            pytest.param(
                lambda d: d["config"].update(scheme="bogus"),
                r"binary\.config\.scheme", id="literal-scheme",
            ),
            pytest.param(
                lambda d: d["config"].update(pipeline="fast"),
                r"binary\.config\.pipeline", id="literal-pipeline",
            ),
            pytest.param(
                lambda d: d["code"][_first(d, "Load")]["f"]["mem"].update(
                    seg="xx"
                ),
                r"binary\.code\[\d+\]\.f\.mem\.seg", id="literal-seg",
            ),
            # Dicts are pair lists with unique keys.
            pytest.param(
                lambda d: d["label_addrs"].append(d["label_addrs"][0]),
                r"binary\.label_addrs: duplicate", id="duplicate-key",
            ),
            pytest.param(
                lambda d: d.update(func_magic_addrs={"main": 1}),
                r"binary\.func_magic_addrs", id="dict-as-object",
            ),
        ],
    )
    def test_mistyped_binary_refused_at_its_path(self, edit, path):
        binary = compile_source(GLOBALS_APP, OUR_MPX, seed=SEED)
        doc = json.loads(dump_binary(binary))
        edit(doc)
        with pytest.raises(SerializeError, match=path):
            load_binary(json.dumps(doc).encode())

    def test_uobject_records_typed(self):
        obj = BuildSession().compile_unit(GLOBALS_APP, OUR_MPX, seed=SEED)
        doc = json.loads(dump_uobject(obj))
        doc["globals"][0][1]["size"] = "8"
        with pytest.raises(SerializeError, match=r"uobject\.globals\[0\]"):
            load_uobject(json.dumps(doc).encode())


# A private buffer filled with the password, then sent on a public
# channel.  The send wrapper refuses a buffer outside the public region,
# so the program faults -- unless the binary could claim a flat layout,
# under which malloc_priv hands out public memory and the loader sets
# bnd1 to the public region.
LAYOUT_PROBE = T_PROTOTYPES + """
int main() {
    private char *s = malloc_priv(8);
    read_passwd("", s, 8);
    send(1, (char*)s, 8);
    return 0;
}
"""


class TestDerivedLayout:
    """A binary stores only its two globals sizes; the rest of its
    layout follows from its config, so no dump can contradict it."""

    def test_claimed_flat_layout_refused(self):
        data = dump_binary(compile_source(LAYOUT_PROBE, OUR_MPX, seed=SEED))
        runtime = TrustedRuntime()
        runtime.set_password("", b"sesame\x00\x00")
        process = load(load_binary(data), runtime=runtime)
        with pytest.raises(MachineFault) as info:
            process.run()
        assert info.value.kind == FAULT_WRAPPER
        assert runtime.channel(1).drain_out() == b""

        doc = json.loads(data)
        doc["layout"] = dict(doc.get("layout", {}), split_memory=False)
        with pytest.raises(SerializeError, match="layout"):
            load_binary(json.dumps(doc).encode())

    @pytest.mark.parametrize("config", ALL_CONFIGS.values(), ids=lambda c: c.name)
    def test_decoded_layout_is_the_linkers(self, config):
        binary = compile_source(GLOBALS_APP, config, seed=SEED)
        layout = load_binary(dump_binary(binary)).layout
        assert layout == binary.layout
        private = binary.global_addrs["secret_acc"]
        region = layout.private or layout.public
        assert region.contains(private)
        assert layout.public.contains(binary.global_addrs["counter"])
