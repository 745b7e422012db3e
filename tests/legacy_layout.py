"""The retired fan-out store layout, rebuilt for backward-compatibility tests.

Stores written with the retired ``tiered`` and ``sharded`` store backends
keep each payload one directory down, at ``<shard>/<sig>.pkl``: ``shard`` is
the first eight hex digits of the name's SHA-1 modulo 64, as two hex digits,
and the catalog's ``filename`` column records that key.  The flat
:class:`~repro.storage.backends.DiskBackend` must keep serving such stores.
"""

import hashlib
import os
from dataclasses import replace

from repro.storage.catalog import CatalogDB, sqlite_catalog_path

FANOUT = 64


def fan_out_key(name: str) -> str:
    """The key the fan-out layout gave the payload named ``name``."""
    digest = hashlib.sha1(name.encode("utf-8")).hexdigest()
    return os.path.join(f"{int(digest[:8], 16) % FANOUT:02x}", name)


def to_fan_out_layout(root: str) -> int:
    """Rewrite the closed store under ``root`` into the fan-out layout.

    Every payload moves into its shard directory and its catalog row points
    there, as if the fan-out layout had written it.  Returns the number of
    rows moved.
    """
    db = CatalogDB(sqlite_catalog_path(root))
    try:
        moved = []
        for meta in db.all_artifacts():
            key = fan_out_key(meta.filename)
            os.makedirs(os.path.join(root, os.path.dirname(key)), exist_ok=True)
            os.replace(os.path.join(root, meta.filename), os.path.join(root, key))
            moved.append(replace(meta, filename=key))
        db.upsert_artifacts(moved)
    finally:
        db.close()
    return len(moved)
