"""Hypothesis property tests for the storage layer.

The satellite invariants: for every codec × backend combination,
``put_bytes`` → ``get`` returns an equal value, and the store's byte-size
accounting agrees with the backend tiers' own accounting.  ``"auto"`` is the
codec the store picks itself; the named ones are encoded through
``registry.by_id`` on values they can represent.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dataflow.features import FeatureBlock
from repro.execution.store import ArtifactStore
from repro.storage.backends import MemoryBackend
from repro.storage.codecs import default_registry

BACKENDS = ["disk", "memory", "tiered"]
CODEC_IDS = ["pickle", "pickle+zlib", "numpy-raw"]

#: JSON-ish values the pickle codecs (and ``auto``) must survive.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**40), max_value=2**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


@st.composite
def ndarrays(draw):
    dtype = draw(st.sampled_from([np.float64, np.float32, np.int64, np.int32]))
    shape = tuple(draw(st.lists(st.integers(0, 5), min_size=1, max_size=3)))
    size = int(np.prod(shape)) if shape else 0
    data = draw(
        st.lists(
            st.integers(min_value=-1000, max_value=1000), min_size=size, max_size=size
        )
    )
    return np.array(data, dtype=dtype).reshape(shape)


@st.composite
def dense_blocks(draw):
    width = draw(st.integers(1, 4))
    n_train = draw(st.integers(1, 5))
    n_test = draw(st.integers(0, 3))
    keys = [f"f{i}" for i in range(width)]
    finite = st.floats(allow_nan=False, allow_infinity=False, width=64)

    def rows(n):
        return [
            {key: draw(finite) for key in keys}
            for _ in range(n)
        ]

    return FeatureBlock.from_rows(draw(st.text(max_size=8)), rows(n_train), rows(n_test))


def values_for(codec):
    """Values ``codec`` can represent (``auto``: any of them)."""
    if codec == "numpy-raw":
        return ndarrays()
    if codec == "auto":
        return ndarrays() | dense_blocks() | json_values
    return json_values


def encode(store, codec, value):
    """``(payload, codec_id)``: the store's own pick, or one named codec."""
    if codec == "auto":
        return store.encode("node", value)
    return store.registry.by_id(codec).encode(value), codec


def assert_equal_value(loaded, value):
    if isinstance(value, np.ndarray):
        assert isinstance(loaded, np.ndarray)
        assert loaded.dtype == value.dtype and loaded.shape == value.shape
        assert np.array_equal(loaded, value)
    elif isinstance(value, FeatureBlock):
        assert loaded == value
    else:
        assert loaded == value


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("codec", CODEC_IDS + ["auto"])
class TestRoundTripProperty:
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_put_bytes_then_get_returns_equal_value(self, tmp_path_factory, backend, codec, data):
        value = data.draw(values_for(codec))
        root = str(tmp_path_factory.mktemp(f"{backend}_{codec.replace('+', '_')}"))
        if backend == "tiered":
            store = ArtifactStore(root, memory_tier_bytes=1 << 20)
        else:
            store = ArtifactStore(root, backend=MemoryBackend() if backend == "memory" else None)
        payload, codec_id = encode(store, codec, value)
        meta = store.put_bytes("sig", "node", payload, codec=codec_id)

        assert meta.size == float(len(payload))
        assert meta.codec == codec_id
        loaded, elapsed = store.get("sig")
        assert elapsed >= 0.0
        assert_equal_value(loaded, value)
        # Accounting: catalog bytes equal payload bytes equal what the
        # backend tiers report as written and held.
        assert store.used_bytes() == float(len(payload))
        stats = store.backend.stats()
        assert stats.bytes_written == float(len(payload))
        if backend == "tiered":
            tiers = store.backend.tier_stats()
            assert tiers["memory"]["used_bytes"] == float(len(payload))
            assert tiers["disk"]["used_bytes"] == float(len(payload))
            assert tiers["memory"]["used_bytes"] == store.used_bytes()
        elif backend == "memory":
            assert stats.used_bytes == store.used_bytes()


class TestCodecIdentityProperty:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), codec=st.sampled_from(CODEC_IDS + ["auto"]))
    def test_registry_roundtrip(self, data, codec):
        value = data.draw(values_for(codec))
        registry = default_registry()
        if codec == "auto":
            payload, codec_id = registry.encode_value(value)
        else:
            payload, codec_id = registry.by_id(codec).encode(value), codec
        assert_equal_value(registry.decode_value(payload, codec_id), value)
