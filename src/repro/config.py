"""Build configurations matching the paper's evaluation setups.

Section 7 measures these configurations; each is a preset here:

========== ==================================================================
Base        vanilla compiler, O2, native allocator, single memory
BaseOA      Base + ConfLLVM's custom region allocator
Our1Mem     ConfLLVM pipeline, no instrumentation, no T/U memory separation
OurBare     ConfLLVM pipeline, no runtime checks; unsupported opts disabled,
            T/U memories separated (stack switch on T calls), split stacks
OurCFI      OurBare + taint-aware CFI magic sequences
OurMPX      full ConfLLVM, bounds via MPX bound registers
OurMPX-Sep  OurMPX without the private/public stack separation
OurSeg      full ConfLLVM, bounds via fs/gs segmentation
========== ==================================================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

#: Check-optimization levels, weakest to strongest (see BuildConfig.checkopt).
CHECKOPT_LEVELS = ("off", "safe", "aggressive")


@dataclass(frozen=True)
class BuildConfig:
    name: str
    # Compiler pipeline: "vanilla" runs all optimizations; "confllvm"
    # disables the ones that do not preserve taint metadata.
    pipeline: Literal["vanilla", "confllvm"] = "confllvm"
    # Bounds-check scheme: None, "mpx", or "seg".
    scheme: Literal["mpx", "seg"] | None = None
    # Taint-aware CFI (magic sequences at entries/return sites).
    cfi: bool = False
    # Separate T's memory from U's (and switch stacks on T calls).
    separate_tu: bool = True
    # Separate public and private stacks (lock-step, at OFFSET).
    split_stacks: bool = True
    # Use the custom region allocator instead of the "native" one.
    custom_allocator: bool = True
    # Inline _chkstk enforcement (rsp cannot escape its stack).
    chkstk: bool = True
    # MPX optimization toggles (for the ablation benchmarks).
    coalesce_checks: bool = True
    elide_small_disp: bool = True
    # Check-optimization level (the certified pipeline's dial):
    #   "off"        — conservatively preserve every inserted check
    #                  (no coalescing, no small-displacement elision);
    #   "safe"       — the paper's codegen-time MPX optimizations
    #                  (the default; bit-identical to historical output);
    #   "aggressive" — "safe" plus the post-codegen witnessed check
    #                  optimizer (repro.opt.checkopt) on the ISA stream.
    checkopt: str = "safe"
    # Ablation: classic shadow-stack CFI instead of magic sequences.
    shadow_stack: bool = False
    # Strict mode (reject implicit flows); the paper runs strict.
    strict: bool = True
    # All-private scenario (§5.1): every unannotated top-level position
    # defaults to private, and branching on private data is allowed
    # (there are no public sinks, so implicit flows are impossible).
    all_private: bool = False

    def __post_init__(self):
        if self.checkopt not in CHECKOPT_LEVELS:
            raise ValueError(
                f"unknown checkopt level {self.checkopt!r} "
                f"(choose from {', '.join(CHECKOPT_LEVELS)})"
            )

    @property
    def instrumented(self) -> bool:
        return self.scheme is not None or self.cfi

    @property
    def is_confllvm(self) -> bool:
        return self.pipeline == "confllvm"

    def variant(self, **changes) -> "BuildConfig":
        return replace(self, **changes)


BASE = BuildConfig(
    name="Base",
    pipeline="vanilla",
    scheme=None,
    cfi=False,
    separate_tu=False,
    split_stacks=False,
    custom_allocator=False,
    chkstk=False,
)

BASE_OA = BASE.variant(name="BaseOA", custom_allocator=True)

OUR_1MEM = BuildConfig(
    name="Our1Mem",
    pipeline="confllvm",
    scheme=None,
    cfi=False,
    separate_tu=False,
    split_stacks=False,
    chkstk=False,
)

OUR_BARE = BuildConfig(
    name="OurBare",
    pipeline="confllvm",
    scheme=None,
    cfi=False,
    separate_tu=True,
    split_stacks=True,
    chkstk=False,
)

OUR_CFI = OUR_BARE.variant(name="OurCFI", cfi=True, chkstk=True)

OUR_MPX = OUR_CFI.variant(name="OurMPX", scheme="mpx")

OUR_MPX_SEP = OUR_MPX.variant(name="OurMPX-Sep", split_stacks=False)

OUR_SEG = OUR_CFI.variant(name="OurSeg", scheme="seg")

ALL_CONFIGS = {
    c.name: c
    for c in (
        BASE,
        BASE_OA,
        OUR_1MEM,
        OUR_BARE,
        OUR_CFI,
        OUR_MPX,
        OUR_MPX_SEP,
        OUR_SEG,
    )
}

SPEC_CONFIGS = (BASE, BASE_OA, OUR_BARE, OUR_CFI, OUR_MPX, OUR_SEG)
NGINX_CONFIGS = (BASE, OUR_1MEM, OUR_BARE, OUR_CFI, OUR_MPX_SEP, OUR_MPX)
