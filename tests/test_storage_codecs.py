"""Tests for codec-aware serialization and the codec registry."""

import numpy as np
import pytest

from repro.dataflow.features import FeatureBlock
from repro.errors import StorageError
from repro.execution.store import ArtifactStore
from repro.storage.codecs import (
    CodecRegistry,
    NumpyRawCodec,
    PickleCodec,
    ZlibPickleCodec,
    default_registry,
)


def dense_block(n_train=5, n_test=3, width=4):
    keys = [f"emb{j}" for j in range(width)]
    return FeatureBlock.from_rows(
        "dense",
        [{k: float(i * width + j) for j, k in enumerate(keys)} for i in range(n_train)],
        [{k: float(-(i * width + j)) for j, k in enumerate(keys)} for i in range(n_test)],
    )


class TestIndividualCodecs:
    def test_pickle_roundtrip(self):
        codec = PickleCodec()
        value = {"a": [1, 2, 3], "b": "text"}
        assert codec.decode(codec.encode(value)) == value

    def test_zlib_roundtrip_and_shrinks_redundant_data(self):
        codec = ZlibPickleCodec()
        value = [0] * 10_000
        payload = codec.encode(value)
        assert codec.decode(payload) == value
        assert len(payload) < len(PickleCodec().encode(value))

    def test_numpy_raw_roundtrip_preserves_dtype_and_shape(self):
        codec = NumpyRawCodec()
        for array in (
            np.arange(12, dtype=np.float64).reshape(3, 4),
            np.array([[1, 2]], dtype=np.int32),
            np.array([], dtype=np.float32),
            np.arange(8).reshape(2, 2, 2),
        ):
            back = codec.decode(codec.encode(array))
            assert back.dtype == array.dtype and back.shape == array.shape
            assert np.array_equal(back, array)

    def test_numpy_raw_rejects_non_arrays(self):
        codec = NumpyRawCodec()
        assert not codec.handles([1, 2, 3])
        assert not codec.handles(np.array([object()], dtype=object))
        with pytest.raises(StorageError):
            codec.encode([1, 2, 3])

    def test_numpy_raw_corrupt_payload_raises(self):
        with pytest.raises(StorageError):
            NumpyRawCodec().decode(b"\x00")


class TestRegistry:
    def test_auto_picks_specialized_codecs(self):
        registry = CodecRegistry()
        _, codec_id = registry.encode_value(np.arange(4))
        assert codec_id == "numpy-raw"
        _, codec_id = registry.encode_value(dense_block())
        assert codec_id == "pickle"  # auto: ndarray -> numpy-raw, everything else pickles
        _, codec_id = registry.encode_value({"small": 1})
        assert codec_id == "pickle"

    def test_auto_compresses_large_compressible_payloads(self):
        registry = CodecRegistry(compress_threshold=1024)
        payload, codec_id = registry.encode_value([0] * 100_000)
        assert codec_id == "pickle+zlib"
        assert registry.decode_value(payload, codec_id) == [0] * 100_000

    def test_auto_keeps_incompressible_payloads_plain(self):
        registry = CodecRegistry(compress_threshold=1024)
        value = np.random.default_rng(0).bytes(100_000)  # incompressible noise
        _, codec_id = registry.encode_value(value)
        assert codec_id == "pickle"

    def test_forced_codec_is_used(self):
        # One codec by name: ``by_id``, with ``handles`` saying whether it can
        # represent the value at all.
        registry = CodecRegistry()
        codec = registry.by_id("pickle+zlib")
        assert registry.decode_value(codec.encode({"x": 1}), codec.id) == {"x": 1}
        assert not registry.by_id("numpy-raw").handles({"x": 1})

    def test_unknown_codec_raises(self):
        with pytest.raises(StorageError, match="unknown codec"):
            default_registry().by_id("msgpack")

    def test_ids(self):
        assert default_registry().ids() == ["numpy-raw", "pickle", "pickle+zlib"]


class TestSelfDescribingReads:
    def test_codec_recorded_in_catalog_and_used_on_reopen(self, tmp_path):
        root = str(tmp_path / "a")
        writer = ArtifactStore(root)
        writer.put("arr", "node", np.arange(10, dtype=np.float64))
        writer.put("block", "node", dense_block())
        writer.flush()
        assert writer.meta("arr").codec == "numpy-raw"
        assert writer.meta("block").codec == "pickle"
        # Reads follow the codec the catalog recorded for each row.
        reader = ArtifactStore(root)
        arr, _ = reader.get("arr")
        assert np.array_equal(arr, np.arange(10, dtype=np.float64))
        block, _ = reader.get("block")
        assert block == dense_block()

    def test_scheduler_writes_record_their_codec(self, tmp_path):
        # End to end: a session materializes through the async writer; the
        # catalog must reflect the auto-chosen codecs.
        from repro.core.session import HelixSession
        from repro.datagen.census import CensusConfig
        from repro.workloads.census_workload import build_dense_census_workflow

        session = HelixSession(str(tmp_path / "ws"))
        session.run(build_dense_census_workflow(CensusConfig(n_train=200, n_test=50, seed=3)))
        codecs = set(session.store.codecs_by_signature().values())
        assert codecs, "expected materialized artifacts"
        assert codecs <= {"pickle", "pickle+zlib"}, f"auto pickles feature blocks, got {codecs}"
