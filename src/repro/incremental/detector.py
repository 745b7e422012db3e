"""Chunk-level change detection on workflow inputs.

Helix's reuse machinery keys everything on node signatures, which is exactly
right when *code* changes between iterations — but when *data* changes, the
source signature flips and every downstream artifact is invalidated even if
99% of the rows are byte-identical.  The :class:`DeltaDetector` closes that
gap: it fingerprints an input value chunk by chunk (the same row-aligned
chunks :func:`repro.partition.chunks.split_value` produces) and classifies
each chunk as ``clean``/``dirty``/``new``/``removed`` against the fingerprint
recorded for the previous run.

Two properties make the classification usable downstream:

* **Frozen boundaries.**  A cut chunk keeps its rows.  When no axis shrank,
  every previous chunk keeps its per-axis counts and the appended rows open
  new chunks of at most ``target`` rows, the largest previous chunk on that
  axis; a previous tail under ``target / 2`` on every axis first absorbs
  rows up to ``target``, and an axis that did not grow pads with 0-row
  chunks.  An append thus dirties at most its own rows plus ``target / 2``
  per axis, whatever the feed's history.  A shrunk input, or a count past
  ``2 × n_partitions``, re-cuts balanced into ``n_partitions`` chunks
  (everything dirty, one full recompute).
* **Content, not position.**  A chunk is clean when its digest matches *any*
  previous chunk's digest, recorded as a ``remap`` (new index → old index).
  Rolling windows that advance by exactly one chunk therefore re-use
  ``n - 1`` chunks shifted by one, not zero.

Every chunk digest is computed from that chunk's own rows, once per run: a
:class:`~repro.dataflow.collection.DataCollection` axis (a dataset split)
feeds its column slices, numbers as dtype and raw bytes and strings joined
(:meth:`~repro.dataflow.collection.DataCollection.digest`), so no record is
rendered; any other axis feeds the ``repr`` of each row.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.dataflow.collection import DataCollection
from repro.partition.chunks import Shape, _block_counts, axis_rows

#: Chunk classification statuses.
CLEAN = "clean"
DIRTY = "dirty"
NEW = "new"

#: Separators folded into digests between rows and between axes, so that
#: moving a row across an axis boundary can never collide with the unmoved
#: layout.
_ROW_SEP = b"\x1e"
_AXIS_SEP = b"\x1d"


def _hash_rows(hasher: "hashlib._Hash", rows: Sequence[Any], start: int, stop: int) -> None:
    if isinstance(rows, DataCollection):
        rows.digest(hasher, start, stop)
        return
    for row in rows[start:stop]:
        hasher.update(repr(row).encode("utf-8", "backslashreplace"))
        hasher.update(_ROW_SEP)


@dataclass(frozen=True)
class ChunkFingerprint:
    """Content identity of one chunk: per-axis row counts plus a sha256."""

    axis_counts: Tuple[int, ...]
    digest: str


@dataclass
class InputFingerprint:
    """Per-chunk fingerprints of one input node's value for one run."""

    input_key: str
    signature: str
    chunks: List[ChunkFingerprint]
    run_iteration: int = 0

    @property
    def chunk_count(self) -> int:
        return len(self.chunks)

    def boundaries(self) -> Shape:
        """Per-axis per-chunk row counts (the :data:`Shape` of this split)."""
        return tuple(zip(*(chunk.axis_counts for chunk in self.chunks)))


@dataclass
class InputDelta:
    """Chunk-wise diff of one input against its previous fingerprint.

    ``remap`` indexes the previous fingerprint's ``old_chunk_count``
    chunks, ``frozen_chunks`` of which kept their rows (none if
    ``rebalanced``: re-cut balanced).
    """

    input_key: str
    node: str
    old_signature: str
    new_signature: str
    statuses: List[str]
    remap: Dict[int, int]
    boundaries: Shape
    mode: str
    removed_chunks: int = 0
    old_chunk_count: int = 0
    frozen_chunks: int = 0
    rebalanced: bool = False
    fingerprint: Optional[InputFingerprint] = field(default=None, repr=False)

    @property
    def chunk_count(self) -> int:
        return len(self.statuses)

    @property
    def clean_chunks(self) -> int:
        return sum(1 for status in self.statuses if status == CLEAN)

    @property
    def dirty_chunks(self) -> int:
        return self.chunk_count - self.clean_chunks


#: A run re-cuts an input balanced once frozen and new chunks would exceed
#: this multiple of ``n_partitions``.
MAX_CHUNKS_PER_PARTITION = 2


class DeltaDetector:
    """Fingerprints input values and diffs them against the previous run."""

    def __init__(self, n_partitions: int) -> None:
        if n_partitions < 1:
            raise ValueError("n_partitions must be >= 1")
        self.n_partitions = n_partitions

    # -- boundary selection -------------------------------------------------
    def _balanced(self, axes: List[List[Any]]) -> Shape:
        return tuple(_block_counts(len(rows), self.n_partitions) for rows in axes)

    def _stable_boundaries(
        self, axes: List[List[Any]], previous: Optional[InputFingerprint]
    ) -> Tuple[Shape, bool]:
        """Chunk boundaries for the new value, and whether they were re-cut.

        Freezes every previous chunk and opens new chunks for the appended
        rows (see the module docstring); re-cuts balanced when an axis
        shrank or the count would exceed ``2 × n_partitions``.
        """
        if previous is None:
            return self._balanced(axes), False
        old = previous.boundaries()
        if len(old) != len(axes) or any(len(rows) < sum(c) for rows, c in zip(axes, old)):
            return self._balanced(axes), True
        targets = [
            max(counts) or -(-len(rows) // self.n_partitions) for rows, counts in zip(axes, old)
        ]
        # The tail absorbs only when it is small on every axis, so an
        # absorbing tail never drags a full chunk of another axis along.
        absorb = all(counts[-1] < target / 2 for counts, target in zip(old, targets))
        grown: List[List[int]] = []
        for rows, counts, target in zip(axes, old, targets):
            counts = list(counts)
            extra = len(rows) - sum(counts)
            if absorb:
                take = min(extra, target - counts[-1])
                counts[-1] += take
                extra -= take
            while extra > 0:
                counts.append(min(extra, target))
                extra -= counts[-1]
            grown.append(counts)
        width = max(len(counts) for counts in grown)
        if width > MAX_CHUNKS_PER_PARTITION * self.n_partitions:
            return self._balanced(axes), True
        return tuple(tuple(counts) + (0,) * (width - len(counts)) for counts in grown), False

    # -- fingerprinting -----------------------------------------------------
    def _chunk_digest(self, axes: List[List[Any]], starts: List[int], counts: Sequence[int]) -> str:
        hasher = hashlib.sha256()
        for axis_index, rows in enumerate(axes):
            start = starts[axis_index]
            _hash_rows(hasher, rows, start, start + counts[axis_index])
            hasher.update(_AXIS_SEP)
        return hasher.hexdigest()

    # -- classification -----------------------------------------------------
    @staticmethod
    def _classify_mode(statuses: Sequence[str], remap: Dict[int, int]) -> str:
        n = len(statuses)
        clean = [i for i, status in enumerate(statuses) if status == CLEAN]
        if not clean:
            return "full"
        if len(clean) == n:
            return "unchanged"
        shifts = {remap[i] - i for i in clean}
        if shifts == {0} and clean == list(range(len(clean))):
            return "append"
        if len(shifts) == 1 and next(iter(shifts)) > 0:
            return "rolling"
        return "mixed"

    def detect(
        self,
        input_key: str,
        node: str,
        value: Any,
        new_signature: str,
        previous: Optional[InputFingerprint],
        run_iteration: int = 0,
        rebalance: bool = False,
    ) -> Optional[InputDelta]:
        """Diff ``value`` against ``previous``; ``None`` if not row-shaped.

        With no previous fingerprint every chunk is ``new`` (mode
        ``initial``) — callers still get the fresh fingerprint to record.
        ``rebalance`` forces a balanced re-cut into ``n_partitions`` chunks.
        """
        axes = axis_rows(value)
        if axes is None:
            return None
        if rebalance:
            boundaries, rebalanced = self._balanced(axes), previous is not None
        else:
            boundaries, rebalanced = self._stable_boundaries(axes, previous)
        chunks: List[ChunkFingerprint] = []
        starts = [0 for _ in axes]
        for counts in zip(*boundaries):
            chunks.append(ChunkFingerprint(counts, self._chunk_digest(axes, starts, counts)))
            starts = [start + count for start, count in zip(starts, counts)]
        fingerprint = InputFingerprint(input_key, new_signature, chunks, run_iteration)
        n = fingerprint.chunk_count
        old = previous or InputFingerprint(input_key, "", [])
        old_by_digest: Dict[str, int] = {}
        for index, chunk in enumerate(old.chunks):
            old_by_digest.setdefault(chunk.digest, index)
        statuses: List[str] = []
        remap: Dict[int, int] = {}
        claimed: set = set()
        for index, chunk in enumerate(fingerprint.chunks):
            # A chunk that kept its rows maps to itself even when an earlier
            # old chunk has the same content (empty chunks, repeated rows).
            kept = index < old.chunk_count and old.chunks[index].digest == chunk.digest
            old_index = index if kept else old_by_digest.get(chunk.digest)
            if old_index is not None:
                statuses.append(CLEAN)
                remap[index] = old_index
                claimed.add(old_index)
            else:
                statuses.append(NEW if index >= old.chunk_count else DIRTY)
        # An unclaimed old chunk only counts as *removed* when its position
        # wasn't simply rewritten in place (a dirty new chunk at the same
        # index supersedes it); rolled-off window chunks do count.
        removed = sum(
            1
            for index in range(old.chunk_count)
            if index not in claimed and (index >= n or statuses[index] == CLEAN)
        )
        frozen = 0 if rebalanced else sum(
            1 for old_chunk, new in zip(old.chunks, fingerprint.chunks)
            if old_chunk.axis_counts == new.axis_counts
        )
        return InputDelta(
            input_key=input_key,
            node=node,
            old_signature=old.signature,
            new_signature=new_signature,
            statuses=statuses,
            remap=remap,
            boundaries=boundaries,
            mode="initial" if previous is None else self._classify_mode(statuses, remap),
            removed_chunks=removed,
            old_chunk_count=old.chunk_count,
            frozen_chunks=frozen,
            rebalanced=rebalanced,
            fingerprint=fingerprint,
        )
