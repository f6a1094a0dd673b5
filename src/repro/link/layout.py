"""Virtual-address-space layout (Figure 3 of the paper).

Concrete constants are scaled-down but structurally faithful versions
of the paper's layouts:

* **MPX scheme** (Fig. 3b): a contiguous public region and private
  region, each surrounded by unmapped guard areas (``GUARD_SIZE``)
  wider than the largest displacement a bounds check may leave out
  (``ELIDE_LIMIT``, 1 MiB) plus one word, so a check on a register
  also bounds every access ``[reg + disp]`` with ``|disp| <
  ELIDE_LIMIT``: it lands in the region or in unmapped memory.
  ConfVerify's evidence rule (``verifier.evidence``) relies on this.
  The two stacks are kept in lock-step at a constant ``OFFSET`` (here:
  the distance between the region bases).
* **Segmentation scheme** (Fig. 3a): 4 GiB-aligned segments whose bases
  live in ``fs`` (public) and ``gs`` (private); everything outside the
  usable windows is simply unmapped, which is what makes ``fs:[e...]``
  operands unable to escape.

Code lives in a distinct word-addressed space starting at
``CODE_BASE``; the externals table (:func:`externals_table`) holds
``NATIVE_BASE``-range values that the machine dispatches to trusted (T)
wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import BuildConfig

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

# Usable bytes per region (scaled down from the paper's 4 GiB; the
# structure, not the size, is what the scheme depends on).
REGION_SIZE = 64 * MB
# A bounds check on a register also covers accesses within +/-
# ELIDE_LIMIT of it; the guard areas are wider than that plus a word.
ELIDE_LIMIT = 1 * MB
GUARD_SIZE = 2 * ELIDE_LIMIT

THREAD_STACK_SIZE = 1 * MB  # paper default, 1 MiB aligned
MAX_THREADS = 8
STACK_AREA = THREAD_STACK_SIZE * MAX_THREADS
TLS_SIZE = 4 * KB  # per-thread TLS buffer at the base of each stack

CODE_BASE = 1 << 56
NATIVE_BASE = 1 << 60

# MPX layout anchors.
MPX_PUB_BASE = 0x1000_0000
# Segmentation layout anchors (4 GiB aligned, 40 GiB apart as in §3).
SEG_FS_BASE = 4 * GB
SEG_GS_BASE = SEG_FS_BASE + 40 * GB

# T's own region (U range checks can never reach it).
T_BASE = 0x7000_0000_0000
T_SIZE = 64 * MB

# The compile-time constant distance between the public and private
# stack tops under the MPX (and bare split-stack) layouts — the paper's
# OFFSET.  Equals private.base - public.base below.
MPX_STACK_OFFSET = REGION_SIZE + GUARD_SIZE


@dataclass(frozen=True)
class Region:
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int, length: int = 1) -> bool:
        return self.base <= addr and addr + length <= self.end


@dataclass(frozen=True)
class MemoryLayout:
    """Resolved layout for one loaded process."""

    public: Region
    private: Region | None
    t_region: Region
    pub_globals_size: int
    priv_globals_size: int

    # Derived areas -----------------------------------------------------

    def heap_range(self, private: bool) -> tuple[int, int]:
        region = self._pick(private)
        gsize = self.priv_globals_size if private else self.pub_globals_size
        lo = region.base + _page_round(gsize)
        hi = region.end - STACK_AREA
        return lo, hi

    def stack_top(self, private: bool, thread: int = 0) -> int:
        region = self._pick(private)
        return region.end - thread * THREAD_STACK_SIZE

    def stack_range(self, private: bool, thread: int = 0) -> tuple[int, int]:
        top = self.stack_top(private, thread)
        return top - THREAD_STACK_SIZE, top

    @property
    def offset(self) -> int:
        """The lock-step distance between public and private stacks
        (the MPX scheme's OFFSET)."""
        if self.private is None:
            return 0
        return self.private.base - self.public.base

    def _pick(self, private: bool) -> Region:
        if private:
            assert self.private is not None, "layout has no private region"
            return self.private
        return self.public


def _page_round(n: int, page: int = 4096) -> int:
    return (n + page - 1) // page * page


def externals_table(layout: MemoryLayout, n_imports: int) -> tuple[int, int]:
    """The T externals table's range ``[lo, hi)``: it opens the public
    region, one 8-byte slot per trusted import (at least one slot).

    Nothing about the table is stored in a binary.  The linker places
    it here, ConfVerify confines the import stubs to it, and the loader
    fills slot ``i`` with ``NATIVE_BASE + i`` and maps it read-only."""
    lo = layout.public.base
    return lo, lo + 8 * max(n_imports, 1)


def make_layout(
    config: BuildConfig, pub_globals_size: int = 0, priv_globals_size: int = 0
) -> MemoryLayout:
    """The layout of a binary built under ``config`` whose globals take
    the given bytes of each region: the one formula the linker, the
    binary (``Binary.layout``) and so the loader and ConfVerify share.

    Memory is split (a private region exists) under a bounds scheme or
    split stacks; Base/BaseOA/Our1Mem keep everything (including
    "private" data, which those configs do not protect) in one flat
    region.
    """
    split_memory = config.split_stacks or config.scheme is not None
    if config.scheme == "seg":
        public = Region(SEG_FS_BASE, REGION_SIZE)
        private = Region(SEG_GS_BASE, REGION_SIZE) if split_memory else None
    else:
        public = Region(MPX_PUB_BASE, REGION_SIZE)
        private = (
            Region(MPX_PUB_BASE + REGION_SIZE + GUARD_SIZE, REGION_SIZE)
            if split_memory
            else None
        )
    return MemoryLayout(
        public=public,
        private=private,
        t_region=Region(T_BASE, T_SIZE),
        pub_globals_size=pub_globals_size,
        priv_globals_size=priv_globals_size,
    )
