"""The local directory beneath the artifact store.

The store addresses everything by flat POSIX-style keys
(``raw/ab/abcd….json``, ``blobs/12/1234…``); :class:`LocalDirBackend`
maps those keys to files under a root directory, written atomically
(temp file + rename) so a crashed writer can never leave a
half-written entry behind.  Reads never raise: an absent or
unreadable key reads as ``None``.
"""

from __future__ import annotations

from collections.abc import Iterator
from pathlib import Path

__all__ = ["LocalDirBackend"]


class LocalDirBackend:
    """One file per key under ``root``, with atomic tmp-then-rename writes."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path(self, key: str) -> Path:
        """Filesystem location of ``key`` (keys are POSIX-relative paths)."""
        if key.startswith(("/", "..")) or ".." in key.split("/"):
            raise ValueError(f"unsafe backend key {key!r}")
        return self.root.joinpath(*key.split("/"))

    def read(self, key: str) -> bytes | None:
        """The bytes at ``key``, or ``None`` when absent (never raises)."""
        try:
            return self.path(key).read_bytes()
        except OSError:
            return None

    def write(self, key: str, data: bytes) -> bool:
        """Atomically persist ``data`` at ``key``; False on I/O failure."""
        path = self.path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(path.name + ".tmp")
            tmp.write_bytes(data)
            tmp.replace(path)
        except OSError:
            return False
        return True

    def exists(self, key: str) -> bool:
        """Whether ``key`` currently holds a value."""
        return self.path(key).is_file()

    def size(self, key: str) -> int | None:
        """Stored size in bytes, or ``None`` when absent."""
        try:
            return self.path(key).stat().st_size
        except OSError:
            return None

    def list(self, prefix: str = "") -> Iterator[str]:
        """All keys starting with ``prefix``, in sorted order."""
        if not self.root.is_dir():
            return
        for path in sorted(p for p in self.root.rglob("*") if p.is_file()):
            key = path.relative_to(self.root).as_posix()
            if key.startswith(prefix):
                yield key

    def quarantine(self, key: str) -> bool:
        """Move a corrupt entry aside to ``<key>.corrupt``; False on failure."""
        path = self.path(key)
        try:
            path.replace(path.with_name(path.name + ".corrupt"))
        except OSError:
            return False
        return True

