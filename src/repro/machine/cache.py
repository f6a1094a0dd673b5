"""A small set-associative L1 data cache model (per core).

The cache exists to reproduce the paper's *cache-pressure* effects —
most visibly the OurMPX vs OurMPX-Sep gap in the NGINX experiment
(Figure 6), which the authors attribute to "increased cache pressure
from having separate stacks for private and public data".  Splitting
one working set across two stacks doubles the number of hot lines, and
this model charges for it the same way real hardware does.
"""

from __future__ import annotations

LINE_BITS = 6  # 64-byte lines
LINE_SIZE = 1 << LINE_BITS
DEFAULT_SETS = 64  # 64 sets * 8 ways * 64 B = 32 KiB
DEFAULT_WAYS = 8


class L1Cache:
    def __init__(self, n_sets: int = DEFAULT_SETS, n_ways: int = DEFAULT_WAYS):
        self._n_sets = n_sets
        self._n_ways = n_ways
        self._sets: list[list[int]] = [[] for _ in range(n_sets)]
        self.hits = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        """Touch the line containing ``addr``; True on hit.

        Each set is a list of line tags, least recently used first.  A
        hit moves its line to the end (nothing to move when it already
        is the most recent one); a miss evicts the first line of a full
        set and appends.  The fused blocks of the predecoded engine
        inline this same update (``superblock._Emitter._cache_lines``),
        so the two must change together.
        """
        line = addr >> LINE_BITS
        ways = self._sets[line % self._n_sets]
        if ways and ways[-1] == line:
            self.hits += 1
            return True
        if line in ways:
            ways.remove(line)
            ways.append(line)
            self.hits += 1
            return True
        self.misses += 1
        if len(ways) >= self._n_ways:
            del ways[0]
        ways.append(line)
        return False

    def access_span(self, addr: int, size: int) -> int:
        """Touch every line spanned by ``[addr, addr + size)``; returns
        the number of misses.

        An access that straddles a line boundary occupies (and may
        evict) every line it covers — this is where the separate-stacks
        cache-pressure effect of Figure 6 comes from, so charging only
        the first line would understate exactly the number the paper's
        OurMPX vs OurMPX-Sep comparison is built on.
        """
        lines = range(addr >> LINE_BITS, ((addr + size - 1) >> LINE_BITS) + 1)
        return sum(not self.access(line << LINE_BITS) for line in lines)

    def flush(self) -> None:
        for ways in self._sets:
            ways.clear()

    # -- snapshot / restore --------------------------------------------

    def snapshot_state(self) -> tuple:
        """Freeze tag state and hit/miss counters."""
        return (
            self.hits,
            self.misses,
            tuple(tuple(ways) for ways in self._sets),
        )

    def restore_state(self, state: tuple) -> None:
        """Rewind to a snapshot in place (the machine's generated code
        holds references to this cache object)."""
        hits, misses, sets = state
        if len(sets) != self._n_sets:
            raise ValueError("cache geometry mismatch in snapshot")
        self.hits = hits
        self.misses = misses
        for ways, saved in zip(self._sets, sets):
            ways[:] = saved
