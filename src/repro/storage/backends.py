"""Storage backends: where artifact bytes physically live.

A backend is deliberately dumb — a key/value byte store with usage counters.
Keys are relative paths chosen by the layer above (the artifact store records
them in its catalog as ``filename``), so ``os.path.join(root, filename)`` is
the on-disk location a human expects.  The store names new payloads
``sig.pkl`` directly under the root; keys one directory down (``3f/sig.pkl``,
written by the retired fan-out layout) still resolve verbatim, so those
workspaces open with no migration.
"""

from __future__ import annotations

import contextlib
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import StorageError


@dataclass
class BackendStats:
    """Monotonic traffic counters plus a point-in-time occupancy snapshot."""

    puts: int = 0
    gets: int = 0
    deletes: int = 0
    bytes_written: float = 0.0
    bytes_read: float = 0.0
    objects: int = 0
    used_bytes: float = 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "puts": self.puts,
            "gets": self.gets,
            "deletes": self.deletes,
            "bytes_written": self.bytes_written,
            "bytes_read": self.bytes_read,
            "objects": self.objects,
            "used_bytes": self.used_bytes,
        }


class StorageBackend:
    """The byte-store protocol every tier implements; every method takes the
    key verbatim."""

    name = "base"

    def put_bytes(self, key: str, payload: bytes) -> None:
        raise NotImplementedError

    def get_bytes(self, key: str) -> bytes:
        raise NotImplementedError

    def link(self, src_key: str, dst_key: str) -> None:
        """Make ``dst_key`` a second name for ``src_key``'s payload, copying nothing.

        Payloads are immutable once written (an overwrite lands as a new
        object renamed into place, never as an in-place edit), so two keys may
        share one payload: deleting or overwriting either leaves the other
        readable.  Raises :class:`~repro.errors.StorageError` when ``src_key``
        is gone.
        """
        raise NotImplementedError

    def delete(self, key: str) -> bool:
        """Remove ``key`` if present; returns whether anything was removed."""
        raise NotImplementedError

    def contains(self, key: str) -> bool:
        raise NotImplementedError

    def stats(self) -> BackendStats:
        """Traffic counters plus occupancy; ``used_bytes`` is *physical* — a
        payload shared by linked keys counts once."""
        raise NotImplementedError

    def keys(self) -> List[str]:
        raise NotImplementedError


class MemoryBackend(StorageBackend):
    """In-process byte tier: LRU-ordered, capacity-bounded, never durable.

    ``capacity_bytes=None`` means unbounded (a pure in-memory store).  With a
    capacity, inserting past it *demotes* the coldest keys — least recently
    put or read first — until the new payload fits; a payload larger than the
    whole capacity is declined outright.  ``on_demote`` fires (outside no
    lock — callers must tolerate reentrancy) for every key that leaves the
    tier for any reason, which is how the artifact store keeps its decoded
    hot-value cache in sync.
    """

    name = "memory"

    def __init__(
        self,
        capacity_bytes: Optional[float] = None,
        on_demote: Optional[Callable[[str], None]] = None,
    ) -> None:
        if capacity_bytes is not None and capacity_bytes < 0:
            raise StorageError(f"memory tier capacity must be >= 0, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.on_demote = on_demote
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
        self._stats = BackendStats()
        self.demotions = 0

    def _evict_for(self, incoming: int) -> List[str]:
        """Demote coldest-first until ``incoming`` bytes fit; returns victims."""
        victims: List[str] = []
        if self.capacity_bytes is None:
            return victims
        while self._entries and self._stats.used_bytes + incoming > self.capacity_bytes:
            key, payload = self._entries.popitem(last=False)
            self._stats.used_bytes -= len(payload)
            self._stats.objects -= 1
            self.demotions += 1
            victims.append(key)
        return victims

    def put_bytes(self, key: str, payload: bytes) -> None:
        accepted = self.offer(key, payload)
        if not accepted:
            raise StorageError(
                f"payload of {len(payload)} B exceeds the memory tier capacity "
                f"({self.capacity_bytes:.0f} B)"
            )

    def offer(self, key: str, payload: bytes) -> bool:
        """Best-effort insert: ``False`` when the payload alone exceeds capacity.

        The tiered store uses this form — a value too large for the memory
        tier simply stays disk-only instead of failing the write.
        """
        if self.capacity_bytes is not None and len(payload) > self.capacity_bytes:
            return False
        with self._lock:
            existing = self._entries.pop(key, None)
            if existing is not None:
                self._stats.used_bytes -= len(existing)
                self._stats.objects -= 1
            victims = self._evict_for(len(payload))
            self._entries[key] = payload
            self._stats.puts += 1
            self._stats.bytes_written += len(payload)
            self._stats.used_bytes += len(payload)
            self._stats.objects += 1
        self._notify_demoted(victims)
        return True

    def link(self, src_key: str, dst_key: str) -> None:
        with self._lock:
            payload = self._entries.get(src_key)
        if payload is None:
            raise StorageError(f"memory tier has no object {src_key!r} to link from")
        # The same immutable ``bytes`` object under a second key.
        self.put_bytes(dst_key, payload)

    def _notify_demoted(self, victims: List[str]) -> None:
        if self.on_demote is not None:
            for key in victims:
                self.on_demote(key)

    def get_bytes(self, key: str) -> bytes:
        with self._lock:
            if key not in self._entries:
                raise StorageError(f"memory tier has no object {key!r}")
            self._entries.move_to_end(key)  # reads refresh LRU warmth
            payload = self._entries[key]
            self._stats.gets += 1
            self._stats.bytes_read += len(payload)
            return payload

    def delete(self, key: str) -> bool:
        with self._lock:
            payload = self._entries.pop(key, None)
            if payload is None:
                return False
            self._stats.deletes += 1
            self._stats.used_bytes -= len(payload)
            self._stats.objects -= 1
        self._notify_demoted([key])
        return True

    def contains(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> BackendStats:
        with self._lock:
            return BackendStats(**self._stats.to_dict())

    def keys(self) -> List[str]:
        with self._lock:
            return list(self._entries)


class DiskBackend(StorageBackend):
    """Durable files under one root directory — the one on-disk layout."""

    name = "disk"

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._lock = threading.Lock()
        self._stats = BackendStats()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key)

    def _writable_path(self, key: str) -> str:
        """``key``'s path, its directory created if missing."""
        path = self._path(key)
        parent = os.path.dirname(path)
        if parent != self.root:
            os.makedirs(parent, exist_ok=True)
        return path

    def put_bytes(self, key: str, payload: bytes) -> None:
        path = self._path(key)
        try:
            self._writable_path(key)
            # Write-then-rename: a read racing an overwrite (two tenants
            # materializing one signature) never sees a truncated file.
            temp_path = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
            with open(temp_path, "wb") as handle:
                handle.write(payload)
            os.replace(temp_path, path)
        except OSError as exc:
            raise StorageError(f"cannot write artifact {path}: {exc}") from exc
        with self._lock:
            self._stats.puts += 1
            self._stats.bytes_written += len(payload)

    def link(self, src_key: str, dst_key: str) -> None:
        source, path = self._path(src_key), self._path(dst_key)
        try:
            self._writable_path(dst_key)
            try:
                os.link(source, path)
            except FileExistsError:
                # Replace an existing payload atomically, like ``put_bytes``.
                temp_path = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
                os.link(source, temp_path)
                os.replace(temp_path, path)
                # Renaming one name of an inode onto another is a no-op that
                # keeps both: drop the temporary one.
                with contextlib.suppress(FileNotFoundError):
                    os.remove(temp_path)
        except OSError as exc:
            raise StorageError(f"cannot link artifact {source} -> {path}: {exc}") from exc

    def get_bytes(self, key: str) -> bytes:
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                payload = handle.read()
        except OSError as exc:
            raise StorageError(f"cannot load artifact {path}: {exc}") from exc
        with self._lock:
            self._stats.gets += 1
            self._stats.bytes_read += len(payload)
        return payload

    def delete(self, key: str) -> bool:
        path = self._path(key)
        if not os.path.exists(path):
            return False
        with contextlib.suppress(OSError):
            os.remove(path)
        with self._lock:
            self._stats.deletes += 1
        return True

    def contains(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def stats(self) -> BackendStats:
        objects = 0
        used = 0.0
        inodes = set()
        for key in self.keys():
            with contextlib.suppress(OSError):
                status = os.stat(self._path(key))
                objects += 1
                # Linked keys share one inode: its bytes are on disk once.
                if (status.st_dev, status.st_ino) not in inodes:
                    inodes.add((status.st_dev, status.st_ino))
                    used += status.st_size
        with self._lock:
            snapshot = BackendStats(**self._stats.to_dict())
        snapshot.objects = objects
        snapshot.used_bytes = used
        return snapshot

    def _is_artifact(self, name: str) -> bool:
        # The artifact store keeps its catalog (JSON or SQLite — including
        # WAL sidecar files and migration backups) and temp files in the
        # same root; those are not payload objects.
        if name.endswith((".json", ".sqlite", ".sqlite-wal", ".sqlite-shm", ".bak")):
            return False
        return ".tmp." not in name

    def keys(self) -> List[str]:
        """Payload keys under the root and one directory below it (where the
        retired fan-out layout put them)."""
        found: List[str] = []
        try:
            entries = sorted(os.scandir(self.root), key=lambda entry: entry.name)
        except OSError:
            return found
        for entry in entries:
            if entry.is_dir():
                with contextlib.suppress(OSError):
                    found.extend(
                        os.path.join(entry.name, name)
                        for name in sorted(os.listdir(entry.path))
                        if self._is_artifact(name)
                    )
            elif entry.is_file() and self._is_artifact(entry.name):
                found.append(entry.name)
        return found
