"""Codec-aware serialization: how artifact values become bytes.

Every artifact used to be ``pickle.dumps`` regardless of what it held, so the
cost model had one deserialization throughput for everything and hot numeric
artifacts paid pickle's per-object overhead on every reuse.  A :class:`Codec`
encapsulates one encoding; the :class:`CodecRegistry` picks the codec for a
value by one rule (``"auto"``), and the chosen codec *id* is recorded next to
the artifact in the catalog so reads self-describe — a workspace written by
an older version reads fine unless its codec is retired (below).

Built-in codecs:

``pickle``
    The universal fallback (highest protocol).
``pickle+zlib``
    Pickle wrapped in zlib (level 1).  Auto-selection uses it only when the
    compressed payload is actually smaller by a margin — CPU is spent once at
    write time to shrink every future disk read.
``numpy-raw``
    C-contiguous :class:`numpy.ndarray` values as a tiny header plus the raw
    buffer — decode is one ``frombuffer`` with no object reconstruction.

A feature block is pickled like any other value: it is a key tuple plus
NumPy arrays (see :mod:`repro.dataflow.features`), so pickle already copies
its buffers whole.  Catalog rows naming a codec in :data:`RETIRED_CODECS`
are refused on read with a typed error.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import StorageError

#: Catalog codec id every pre-storage-layer workspace implicitly used.
DEFAULT_CODEC_ID = "pickle"

#: Codec ids earlier versions wrote that this one no longer decodes.
RETIRED_CODECS = frozenset({"dense-block"})


class Codec:
    """One serialization format.  ``id`` is what the catalog records."""

    id = "base"

    def handles(self, value: Any) -> bool:
        """Whether auto-selection may pick this codec for ``value``."""
        return True

    def encode(self, value: Any) -> bytes:
        raise NotImplementedError

    def decode(self, payload: bytes) -> Any:
        raise NotImplementedError


class PickleCodec(Codec):
    id = "pickle"

    def encode(self, value: Any) -> bytes:
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)

    def decode(self, payload: bytes) -> Any:
        return pickle.loads(payload)


class ZlibPickleCodec(Codec):
    """Pickle + zlib.  Level 1: nearly all of the ratio at a fraction of the CPU."""

    id = "pickle+zlib"

    def __init__(self, level: int = 1) -> None:
        self.level = level

    def encode(self, value: Any) -> bytes:
        return zlib.compress(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL), self.level)

    def decode(self, payload: bytes) -> Any:
        return pickle.loads(zlib.decompress(payload))


class NumpyRawCodec(Codec):
    """Raw-buffer encoding for C-contiguous (or trivially copyable) ndarrays.

    Layout: ``u16 dtype-string length | dtype string | u8 ndim | u64 × ndim
    shape | raw buffer``.  Object dtypes fall outside the raw-buffer model and
    are rejected from auto-selection.
    """

    id = "numpy-raw"

    def handles(self, value: Any) -> bool:
        return isinstance(value, np.ndarray) and value.dtype != object

    def encode(self, value: Any) -> bytes:
        if not self.handles(value):
            raise StorageError(f"numpy-raw codec cannot encode {type(value).__name__}")
        array = np.ascontiguousarray(value)
        dtype = array.dtype.str.encode("ascii")
        header = struct.pack("<H", len(dtype)) + dtype
        header += struct.pack("<B", array.ndim) + struct.pack(f"<{array.ndim}Q", *array.shape)
        return header + array.tobytes()

    def decode(self, payload: bytes) -> Any:
        try:
            (dtype_len,) = struct.unpack_from("<H", payload, 0)
            offset = 2 + dtype_len
            dtype = np.dtype(payload[2:offset].decode("ascii"))
            (ndim,) = struct.unpack_from("<B", payload, offset)
            offset += 1
            shape = struct.unpack_from(f"<{ndim}Q", payload, offset)
            offset += 8 * ndim
            return np.frombuffer(payload, dtype=dtype, offset=offset).reshape(shape).copy()
        except (struct.error, ValueError, UnicodeDecodeError) as exc:
            raise StorageError(f"corrupt numpy-raw payload: {exc}") from exc


class CodecRegistry:
    """Maps codec ids to codecs and picks one per artifact value.

    ``encode_value("auto")`` is one rule: an ndarray goes to ``numpy-raw``,
    everything else is pickled, and pickled payloads at or above
    ``compress_threshold`` bytes are kept compressed when zlib actually
    shrinks them below ``compress_ratio`` of the original.
    """

    def __init__(self, compress_threshold: int = 32 * 1024, compress_ratio: float = 0.9) -> None:
        self.compress_threshold = compress_threshold
        self.compress_ratio = compress_ratio
        self._codecs: Dict[str, Codec] = {}
        for codec in (PickleCodec(), ZlibPickleCodec(), NumpyRawCodec()):
            self.register(codec)

    def register(self, codec: Codec) -> None:
        self._codecs[codec.id] = codec

    def ids(self) -> List[str]:
        return sorted(self._codecs)

    def by_id(self, codec_id: str) -> Codec:
        if codec_id not in self._codecs:
            raise StorageError(
                f"unknown codec {codec_id!r}; expected one of {self.ids()} "
                "(was this artifact written by a newer version?)"
            )
        return self._codecs[codec_id]

    def encode_value(self, value: Any) -> Tuple[bytes, str]:
        """``(payload, codec_id)`` for ``value`` under the rule in the class
        docstring.  To encode with one particular codec, call
        ``by_id(codec_id).encode(value)``."""
        raw = self._codecs[NumpyRawCodec.id]
        if raw.handles(value):
            return raw.encode(value), raw.id
        payload = self._codecs[PickleCodec.id].encode(value)
        if len(payload) >= self.compress_threshold:
            compressed = zlib.compress(payload, 1)
            if len(compressed) <= len(payload) * self.compress_ratio:
                return compressed, ZlibPickleCodec.id
        return payload, PickleCodec.id

    def decode_value(self, payload: bytes, codec_id: str) -> Any:
        return self.by_id(codec_id).decode(payload)


_DEFAULT_REGISTRY: Optional[CodecRegistry] = None


def default_registry() -> CodecRegistry:
    """The shared registry instance (codecs are stateless; one is plenty)."""
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        _DEFAULT_REGISTRY = CodecRegistry()
    return _DEFAULT_REGISTRY
