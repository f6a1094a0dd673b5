"""Content-addressed on-disk object cache.

Stores serialized pre-link :class:`~repro.link.objfile.UObject` blobs
under their :func:`~repro.build.serialize.object_cache_key` digest:

    <root>/<first two hex chars>/<digest>.uo

Writes are atomic (temp file + ``os.replace``) so several processes
sharing one cache directory never observe torn entries.  Entries are
never evicted; ``clear`` (``python -m repro cache clear``) empties the
store.

Every operation flows through ``repro.obs`` counters:
``build.cache.hit``, ``build.cache.miss`` and ``build.cache.store``
(all zero-cost while no registry is active).
"""

from __future__ import annotations

import os
import tempfile

from ..obs import events

_SUFFIX = ".uo"


class ObjectCache:
    """A content-addressed store of serialized compilation units."""

    def __init__(self, root: str):
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)

    # -- addressing --------------------------------------------------------

    def _path(self, digest: str) -> str:
        return os.path.join(self.root, digest[:2], digest + _SUFFIX)

    def path_for(self, digest: str) -> str:
        """On-disk location for ``digest`` (whether or not it exists)."""
        return self._path(digest)

    # -- primitives --------------------------------------------------------

    def get(self, digest: str) -> bytes | None:
        """The stored blob for ``digest``, or None on a miss."""
        try:
            with open(self._path(digest), "rb") as handle:
                data = handle.read()
        except OSError:
            events.counter("build.cache.miss").inc()
            return None
        events.counter("build.cache.hit").inc()
        return data

    def put(self, digest: str, data: bytes) -> None:
        """Store ``data`` under ``digest`` atomically."""
        path = self._path(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        events.counter("build.cache.store").inc()

    # -- inspection --------------------------------------------------------

    def entries(self) -> list[tuple[str, int, float]]:
        """All entries as (digest, size bytes, mtime), unsorted."""
        found: list[tuple[str, int, float]] = []
        try:
            shards = os.listdir(self.root)
        except OSError:
            return found
        for shard in shards:
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in os.listdir(shard_dir):
                if not name.endswith(_SUFFIX):
                    continue
                path = os.path.join(shard_dir, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                found.append(
                    (name[: -len(_SUFFIX)], stat.st_size, stat.st_mtime)
                )
        return found

    def stats(self) -> dict:
        """Summary used by ``python -m repro cache stats``."""
        entries = self.entries()
        return {
            "root": self.root,
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
        }

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for digest, _, _ in self.entries():
            try:
                os.unlink(self._path(digest))
                removed += 1
            except OSError:
                continue
        return removed
