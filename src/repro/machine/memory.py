"""Paged virtual memory with permissions and guard (unmapped) areas.

Mapping is page-granular; anything not explicitly mapped faults on
access — that is what makes the segmentation scheme's guard areas and
the MPX layout's guard zones real: an access that escapes its region
lands on an unmapped page and the machine faults, exactly like the
paper's unmapped-guard-page design.
"""

from __future__ import annotations

import itertools

from ..errors import FAULT_PERM, FAULT_UNMAPPED, MachineFault

PAGE_SIZE = 4096
PAGE_MASK = PAGE_SIZE - 1

_ZERO_PAGE = bytes(PAGE_SIZE)
_PROT_STAMP = itertools.count(1)


class MemoryState:
    """Frozen image of a Memory: immutable page contents plus the
    mapping/permission tables.  Safe to share between machines — pages
    are bytes and only ever copied into fresh bytearrays on first
    touch after a restore."""

    __slots__ = ("pages", "mapped", "ro_pages", "prot_version")

    def __init__(self, pages, mapped, ro_pages, prot_version):
        self.pages: dict[int, bytes] = pages
        self.mapped: frozenset[int] = mapped
        self.ro_pages: dict[int, tuple[tuple[int, int], ...]] = ro_pages
        self.prot_version = prot_version


class Memory:
    def __init__(self) -> None:
        self._pages: dict[int, bytearray] = {}
        # Page bases covered by map_range.  Backing bytearrays are
        # allocated lazily on first touch (regions are tens of MiB and
        # mostly untouched), so _pages holds only the materialized
        # subset of _mapped.
        self._mapped: set[int] = set()
        # Read-only ranges by page: page base -> the ranges that can
        # affect a write touching that page, so the common case (a
        # store to a page with no read-only data) is a single dict
        # probe.
        self._ro_pages: dict[int, list[tuple[int, int]]] = {}
        # Copy-on-write backing store for snapshot/restore: page base ->
        # immutable bytes.  After a restore, _pages is empty and pages
        # re-materialize lazily from this dict (or zero-filled when the
        # page was never touched before the snapshot).  The dict is
        # shared between every fork of an image and never mutated.
        self._snapshot_pages: dict[int, bytes] | None = None
        # Stamped by map_range/protect_read_only with a globally
        # unique value.  Mapping and protection are load-time-only in
        # practice, so restore_state skips rebuilding the (large)
        # _mapped set when the stamp already matches the snapshot's —
        # the common case for per-request pool resets.
        self._prot_version = 0

    # -- mapping --------------------------------------------------------

    def map_range(self, lo: int, hi: int) -> None:
        """Map [lo, hi) (page-rounded) as zero-filled RW memory."""
        first = lo & ~PAGE_MASK
        last = (hi + PAGE_MASK) & ~PAGE_MASK
        self._mapped.update(range(first, last, PAGE_SIZE))
        self._prot_version = next(_PROT_STAMP)

    def _page(self, base: int) -> bytearray | None:
        """The backing page for ``base``, materializing it on first
        touch; None when the page is unmapped."""
        page = self._pages.get(base)
        if page is None and base in self._mapped:
            snapshot = self._snapshot_pages
            if snapshot is not None:
                frozen = snapshot.get(base)
                if frozen is not None:
                    page = self._pages[base] = bytearray(frozen)
                    return page
            page = self._pages[base] = bytearray(PAGE_SIZE)
        return page

    def protect_read_only(self, lo: int, hi: int) -> None:
        # Index the range on every page where a write could overlap it.
        # (`max(hi - 1, lo)` keeps degenerate empty ranges indexed on
        # lo's page, preserving the historical overlap test exactly.)
        first = lo & ~PAGE_MASK
        last = max(hi - 1, lo) & ~PAGE_MASK
        for base in range(first, last + 1, PAGE_SIZE):
            self._ro_pages.setdefault(base, []).append((lo, hi))
        self._prot_version = next(_PROT_STAMP)

    def is_mapped(self, addr: int, size: int = 1) -> bool:
        first = addr & ~PAGE_MASK
        last = (addr + size - 1) & ~PAGE_MASK
        for base in range(first, last + 1, PAGE_SIZE):
            if base not in self._mapped:
                return False
        return True

    # -- access ---------------------------------------------------------

    def read_int(self, addr: int, size: int) -> int:
        page = self._page(addr & ~PAGE_MASK)
        offset = addr & PAGE_MASK
        if page is not None and offset + size <= PAGE_SIZE:
            return int.from_bytes(page[offset : offset + size], "little")
        return int.from_bytes(self.read_bytes(addr, size), "little")

    def write_int(self, addr: int, size: int, value: int) -> None:
        self._check_writable(addr, size)
        page = self._page(addr & ~PAGE_MASK)
        offset = addr & PAGE_MASK
        data = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        if page is not None and offset + size <= PAGE_SIZE:
            page[offset : offset + size] = data
            return
        self._write_bytes_unchecked(addr, data)

    def read_bytes(self, addr: int, size: int) -> bytes:
        out = bytearray()
        for page, offset, _, chunk in self._chunks(addr, size, "read"):
            out += page[offset : offset + chunk]
        return bytes(out)

    def write_bytes(self, addr: int, data: bytes) -> None:
        self._check_writable(addr, len(data))
        self._write_bytes_unchecked(addr, data)

    def write_bytes_unprotected(self, addr: int, data: bytes) -> None:
        """Loader-only: write ignoring read-only protections."""
        self._write_bytes_unchecked(addr, data)

    def _write_bytes_unchecked(self, addr: int, data: bytes) -> None:
        size = len(data)
        for page, offset, done, chunk in self._chunks(addr, size, "write"):
            page[offset : offset + chunk] = data[done : done + chunk]

    def _chunks(self, addr: int, size: int, verb: str):
        """``(page, offset, done, chunk)`` for each page ``[addr, addr +
        size)`` spans, in order: ``chunk`` bytes at ``offset`` of
        ``page`` hold bytes ``done`` onward.  An unmapped page faults
        when it is reached."""
        done = 0
        while done < size:
            cursor = addr + done
            page = self._page(cursor & ~PAGE_MASK)
            if page is None:
                detail = f"{verb} {size}B"
                raise MachineFault(FAULT_UNMAPPED, detail, addr=cursor)
            offset = cursor & PAGE_MASK
            chunk = min(size - done, PAGE_SIZE - offset)
            yield page, offset, done, chunk
            done += chunk

    # -- snapshot / restore --------------------------------------------

    def snapshot_state(self) -> MemoryState:
        """Freeze the current contents as an immutable MemoryState.

        Pages still lazily backed by a previous snapshot are carried
        over by reference; only pages materialized since then are
        copied, so snapshotting a mostly-idle image is cheap."""
        pages = dict(self._snapshot_pages or ())
        for base, page in self._pages.items():
            pages[base] = bytes(page)
        return MemoryState(
            pages,
            frozenset(self._mapped),
            {base: tuple(rs) for base, rs in self._ro_pages.items()},
            self._prot_version,
        )

    def restore_state(self, state: MemoryState) -> None:
        """Rewind to ``state`` in place (copy-on-write: materialized
        pages are dropped and re-filled lazily from the snapshot).

        Mutates the existing _pages/_mapped/_ro_pages containers rather
        than rebinding them — the predecoded engine's generated code
        closes over these objects."""
        self._pages.clear()
        self._snapshot_pages = state.pages
        if self._prot_version != state.prot_version:
            # Mapping/protection changed since the snapshot (or this is
            # a fresh machine being restored for the first time) —
            # rebuild the tables.  The stamp is globally unique, so a
            # matching version guarantees the tables are already
            # exactly the snapshot's; per-request pool resets take the
            # cheap path.
            self._mapped.clear()
            self._mapped.update(state.mapped)
            self._ro_pages.clear()
            for base, ranges in state.ro_pages.items():
                self._ro_pages[base] = list(ranges)
            self._prot_version = state.prot_version

    def content_signature(self) -> dict[int, bytes]:
        """All non-zero page contents, independent of which pages
        happen to be materialized — two memories with identical
        signatures are observationally identical to the machine."""
        out: dict[int, bytes] = {}
        if self._snapshot_pages:
            for base, frozen in self._snapshot_pages.items():
                if base in self._mapped and frozen != _ZERO_PAGE:
                    out[base] = frozen
        for base, page in self._pages.items():
            data = bytes(page)
            if data != _ZERO_PAGE:
                out[base] = data
            else:
                out.pop(base, None)
        return out

    def _check_writable(self, addr: int, size: int) -> None:
        ro_pages = self._ro_pages
        if not ro_pages:
            return
        base = addr & ~PAGE_MASK
        last = (addr + size - 1) & ~PAGE_MASK
        while base <= last:
            for lo, hi in ro_pages.get(base, ()):
                if addr < hi and addr + size > lo:
                    raise MachineFault(
                        FAULT_PERM, "write to read-only memory", addr=addr
                    )
            base += PAGE_SIZE
