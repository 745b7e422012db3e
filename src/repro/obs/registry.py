"""Thread-safe labeled metrics: counters, gauges, and bounded histograms.

The registry is the single place runtime behaviour is counted.  Series are
keyed by ``(name, sorted label items)``; instruments are created on first
touch and live for the life of the registry, so the hot path is two dict
lookups plus one short per-instrument lock:

    reg = get_registry()
    reg.counter("repro_cache_hits_total", tenant="alice").inc()
    with reg.histogram("repro_wave_seconds").time():
        ...

Histograms are *bounded*: a fixed bucket layout (cumulative counts exported
Prometheus-style) plus a small deterministic reservoir sample — never a raw
list of observations — so memory stays O(buckets + reservoir) no matter how
many events are recorded.  Quantiles are estimated by linear interpolation
inside the bucket that contains the requested rank and clamped to the
observed ``[min, max]``; the estimate is therefore always inside the true
value's bucket (error bounded by that bucket's width).  Above the last
finite boundary the reservoir refines the estimate.

Exports (:meth:`MetricsRegistry.snapshot`) read instrument state without
taking any lock writers contend on: values may trail in-flight events by a
few updates but writers are never blocked by an export.

A disabled registry (``MetricsRegistry(enabled=False)``, or the shared
:data:`NULL_REGISTRY`) hands out no-op instruments so instrumented code pays
only a branch when metrics are off — the property the observability
benchmark's <2% overhead bar is measured against.
"""

from __future__ import annotations

import bisect
import math
import random
import threading
import zlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "get_registry",
    "set_registry",
    "resolve_registry",
    "NULL_REGISTRY",
    "LATENCY_BUCKETS",
    "BYTES_BUCKETS",
    "COUNT_BUCKETS",
    "FRACTION_BUCKETS",
]

#: Default latency buckets (seconds): 0.5 ms .. 30 s.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Default payload-size buckets (bytes): 1 KiB .. 256 MiB, powers of four.
BYTES_BUCKETS: Tuple[float, ...] = (
    1024.0, 4096.0, 16384.0, 65536.0, 262144.0,
    1048576.0, 4194304.0, 16777216.0, 67108864.0, 268435456.0,
)

#: Default small-cardinality buckets (cut sizes, chunk counts, ...).
COUNT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
)

#: Default buckets for ratios in [0, 1] (reuse fractions, hit rates).
FRACTION_BUCKETS: Tuple[float, ...] = (
    0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0,
)

DEFAULT_RESERVOIR_SIZE = 64

LabelItems = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Timer:
    """Context manager that observes elapsed seconds into a histogram."""

    __slots__ = ("_hist", "_start")

    def __init__(self, hist: "Histogram") -> None:
        self._hist = hist
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        import time

        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        import time

        self._hist.observe(time.perf_counter() - self._start)


class Counter:
    """A monotonically increasing labeled series."""

    __slots__ = ("name", "labels", "_value", "_lock", "_enabled")

    kind = "counter"

    def __init__(self, name: str, labels: LabelItems, enabled: bool = True) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()
        self._enabled = enabled

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if not self._enabled:
            return
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def state(self) -> Dict[str, object]:
        """Point-in-time exportable state (read without blocking writers)."""
        return {
            "name": self.name,
            "type": self.kind,
            "labels": dict(self.labels),
            "value": self._value,
        }


class Gauge:
    """A labeled series that can go up and down (depths, occupancy)."""

    __slots__ = ("name", "labels", "_value", "_lock", "_enabled")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems, enabled: bool = True) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()
        self._enabled = enabled

    def set(self, value: float) -> None:
        if not self._enabled:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not self._enabled:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def state(self) -> Dict[str, object]:
        """Point-in-time exportable state (read without blocking writers)."""
        return {
            "name": self.name,
            "type": self.kind,
            "labels": dict(self.labels),
            "value": self._value,
        }


class Histogram:
    """Fixed-bucket histogram with a deterministic bounded reservoir.

    State is ``O(len(buckets) + reservoir_size)`` regardless of how many
    values are observed: per-bucket counts, running sum/count/min/max, and a
    reservoir filled with Vitter's algorithm R (seeded from the series name,
    so runs are reproducible).  Quantile estimates interpolate inside the
    bucket containing the requested rank and are clamped to the observed
    range, so the estimate always lands inside the same bucket as the true
    sample quantile — the documented error bound is the bucket width (and
    the reservoir narrows it above the last finite boundary).
    """

    __slots__ = (
        "name", "labels", "boundaries", "bucket_counts", "sum", "count",
        "min", "max", "_reservoir", "_reservoir_size", "_rng", "_lock",
        "_enabled",
    )

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelItems,
        buckets: Sequence[float] = LATENCY_BUCKETS,
        reservoir_size: int = DEFAULT_RESERVOIR_SIZE,
        enabled: bool = True,
    ) -> None:
        self.name = name
        self.labels = labels
        self.boundaries: Tuple[float, ...] = tuple(sorted(float(b) for b in buckets))
        if not self.boundaries:
            raise ValueError("histogram needs at least one bucket boundary")
        # one slot per finite boundary plus the overflow (+Inf) slot
        self.bucket_counts: List[int] = [0] * (len(self.boundaries) + 1)
        self.sum = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")
        self._reservoir: List[float] = []
        self._reservoir_size = max(0, int(reservoir_size))
        seed = zlib.crc32(repr((name, labels)).encode("utf-8"))
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._enabled = enabled

    def observe(self, value: float) -> None:
        """Record one observation."""
        if not self._enabled:
            return
        value = float(value)
        with self._lock:
            index = bisect.bisect_left(self.boundaries, value)
            self.bucket_counts[index] += 1
            self.sum += value
            self.count += 1
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            if self._reservoir_size:
                if len(self._reservoir) < self._reservoir_size:
                    self._reservoir.append(value)
                else:
                    slot = self._rng.randrange(self.count)
                    if slot < self._reservoir_size:
                        self._reservoir[slot] = value

    def time(self) -> _Timer:
        """Context manager observing its block's elapsed seconds."""
        return _Timer(self)

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from bucket counts.

        The estimate interpolates linearly inside the bucket containing the
        nearest-rank target and is clamped to the observed ``[min, max]``;
        it is therefore within one bucket width of the exact sample
        quantile.  In the overflow bucket (above the last finite boundary)
        the bounded reservoir supplies the estimate instead.
        """
        count = self.count
        if count <= 0:
            return 0.0
        q = min(1.0, max(0.0, float(q)))
        rank = min(count, max(1, math.ceil(q * count)))  # nearest-rank target
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            if bucket_count <= 0:
                continue
            if cumulative + bucket_count >= rank:
                if index >= len(self.boundaries):  # overflow bucket
                    return self._overflow_quantile(q)
                upper = self.boundaries[index]
                lower = self.boundaries[index - 1] if index > 0 else min(self.min, upper)
                fraction = (rank - cumulative) / bucket_count
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, self.min), self.max)
            cumulative += bucket_count
        return self.max if self.max > float("-inf") else 0.0

    def _overflow_quantile(self, q: float) -> float:
        floor = self.boundaries[-1]
        samples = sorted(v for v in self._reservoir if v > floor)
        if not samples:
            return self.max if self.max > float("-inf") else floor
        rank = min(len(samples) - 1, int(q * len(samples)))
        return min(max(samples[rank], floor), self.max)

    def merge(self, other: "Histogram") -> "Histogram":
        """Return a new histogram combining both operands.

        Bucket counts, ``sum``, ``count``, ``min``, and ``max`` merge
        associatively and commutatively (the property tests rely on this);
        the merged reservoir is a deterministic evenly-spaced subsample of
        both reservoirs combined.
        """
        if self.boundaries != other.boundaries:
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{self.name} vs {other.name}"
            )
        merged = Histogram(
            self.name, self.labels, self.boundaries,
            reservoir_size=self._reservoir_size, enabled=True,
        )
        merged.bucket_counts = [a + b for a, b in zip(self.bucket_counts, other.bucket_counts)]
        merged.sum = self.sum + other.sum
        merged.count = self.count + other.count
        merged.min = min(self.min, other.min)
        merged.max = max(self.max, other.max)
        combined = sorted(self._reservoir + other._reservoir)
        if len(combined) > merged._reservoir_size > 0:
            step = len(combined) / merged._reservoir_size
            combined = [combined[int(i * step)] for i in range(merged._reservoir_size)]
        merged._reservoir = combined
        return merged

    def state(self) -> Dict[str, object]:
        """Point-in-time exportable state (read without blocking writers)."""
        counts = list(self.bucket_counts)
        return {
            "name": self.name,
            "type": self.kind,
            "labels": dict(self.labels),
            "buckets": [[b, c] for b, c in zip(self.boundaries, counts)],
            "overflow": counts[-1],
            "sum": self.sum,
            "count": self.count,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }


class _NullInstrument:
    """Shared no-op stand-in handed out by disabled registries."""

    __slots__ = ()

    name = ""
    labels: LabelItems = ()
    value = 0.0
    sum = 0.0
    count = 0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def time(self):
        return _NULL_TIMER

    def quantile(self, q: float) -> float:
        return 0.0


class _NullTimer:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_TIMER = _NullTimer()
_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Process-wide, thread-safe home for every labeled series.

    ``counter``/``gauge``/``histogram`` return the live instrument for the
    exact ``(name, labels)`` series, creating it on first touch.  Collectors
    registered with :meth:`add_collector` run just before each snapshot to
    refresh point-in-time gauges (queue depths, cache occupancy).
    :meth:`snapshot` reads instrument state without holding locks writers
    need, so exports never stall the hot path.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._series: Dict[Tuple[str, LabelItems], object] = {}
        self._helps: Dict[str, str] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []
        self.slow_op_log = None  # installed lazily by repro.obs.spans
        self.event_log = None  # installed by the session/service that owns a journal
        self.flush_hook: Optional[Callable[[], object]] = None  # periodic snapshot writer

    # -- instrument accessors -------------------------------------------------

    def counter(self, name: str, help: str = "", **labels: object) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        return self._instrument(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: object) -> Gauge:
        """The gauge for ``(name, labels)``, created on first use."""
        return self._instrument(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = LATENCY_BUCKETS,
        **labels: object,
    ) -> Histogram:
        """The histogram for ``(name, labels)``, created on first use."""
        if not self.enabled:
            return _NULL_INSTRUMENT  # type: ignore[return-value]
        key = (name, _label_key(labels))
        instrument = self._series.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._series.get(key)
                if instrument is None:
                    instrument = Histogram(name, key[1], buckets=buckets)
                    self._series[key] = instrument
                    if help and name not in self._helps:
                        self._helps[name] = help
        return instrument  # type: ignore[return-value]

    def _instrument(self, cls, name: str, help: str, labels: Dict[str, object]):
        if not self.enabled:
            return _NULL_INSTRUMENT
        key = (name, _label_key(labels))
        instrument = self._series.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._series.get(key)
                if instrument is None:
                    instrument = cls(name, key[1])
                    self._series[key] = instrument
                    if help and name not in self._helps:
                        self._helps[name] = help
        return instrument

    # -- spans ----------------------------------------------------------------

    def span(self, name: str, metric: Optional[str] = None, **labels: object):
        """A hierarchical timing span; see :class:`repro.obs.spans.Span`."""
        from repro.obs.spans import Span

        return Span(self, name, metric=metric, labels=labels)

    # -- export ---------------------------------------------------------------

    def add_collector(self, collector: Callable[["MetricsRegistry"], None]) -> None:
        """Register a callable run before each snapshot to refresh gauges."""
        with self._lock:
            self._collectors.append(collector)

    def snapshot(self) -> List[Dict[str, object]]:
        """Exportable state of every series, sorted by (name, labels).

        Collectors run first (outside any lock); instrument state is then
        read without acquiring the per-instrument write locks, so concurrent
        increments proceed unblocked — a snapshot may trail in-flight events
        by a few updates but is never torn across a single series' fields in
        a way that matters for monitoring.
        """
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            try:
                collector(self)
            except Exception:
                pass  # a broken collector must never take down an export
        with self._lock:
            instruments = list(self._series.values())
        states = [inst.state() for inst in instruments]  # type: ignore[attr-defined]
        states.sort(key=lambda s: (s["name"], sorted(s["labels"].items())))  # type: ignore[arg-type]
        return states

    def maybe_flush(self) -> None:
        """Run the installed flush hook, if any (rate limiting is the hook's).

        Long-running loops (the materializer, the dispatcher workers) tick
        this so a crashed or hung run still leaves a recent ``metrics.json``
        behind.  Flushing is advisory: a failing hook never breaks the loop
        that ticked it.
        """
        hook = self.flush_hook
        if hook is None:
            return
        try:
            hook()
        except Exception:
            pass

    def help_for(self, name: str) -> str:
        return self._helps.get(name, "")

    def helps(self) -> Dict[str, str]:
        """Metric name → help text for every series that declared one."""
        with self._lock:
            return dict(self._helps)

    def series_count(self) -> int:
        return len(self._series)

    def reset(self) -> None:
        """Drop every series and collector (used between benchmark phases)."""
        with self._lock:
            self._series.clear()
            self._collectors.clear()


#: Shared always-disabled registry: instrumented code paths become no-ops.
NULL_REGISTRY = MetricsRegistry(enabled=False)

_default_registry = MetricsRegistry()
_default_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-wide default registry; returns the previous one."""
    global _default_registry
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
    return previous


def resolve_registry(
    metrics: Union[None, bool, MetricsRegistry],
) -> MetricsRegistry:
    """Resolve a user-facing ``metrics=`` knob to a registry.

    ``None``/``True`` mean the process-wide default registry, ``False``
    means the shared no-op registry, and a :class:`MetricsRegistry` instance
    is used as-is — this is the semantics of the ``metrics=`` parameter on
    ``HelixSession`` and ``ServiceConfig``.
    """
    if isinstance(metrics, MetricsRegistry):
        return metrics
    if metrics is False:
        return NULL_REGISTRY
    return get_registry()
