"""Log2 histograms: exact-integer buckets, deterministic merge.

The property the dashboard's percentile tables rest on: splitting a
sample stream across any number of workers and merging the flattened
snapshots yields bit-identical bucket counts — and therefore
bit-identical percentiles — to observing everything in one process.
"""

import pytest

from repro.obs.metrics import (
    UNDERFLOW_BUCKET,
    Log2Histogram,
    MetricsRegistry,
    log2_bucket,
)


# -- bucketing -----------------------------------------------------------


@pytest.mark.parametrize(
    "value,bucket",
    [
        (1.0, 0),
        (1.5, 0),
        (2.0, 1),
        (3.999, 1),
        (4.0, 2),
        (1024.0, 10),
        (0.5, -1),
        (0.25, -2),
        (0.0, UNDERFLOW_BUCKET),
        (-7.0, UNDERFLOW_BUCKET),
    ],
)
def test_log2_bucket_boundaries(value, bucket):
    assert log2_bucket(value) == bucket


def test_underflow_bucket_sorts_below_any_real_bucket():
    # Smallest positive float is ~2**-1074; its bucket must still sort
    # above the dedicated underflow bucket.
    assert log2_bucket(5e-324) > UNDERFLOW_BUCKET


# -- observe / percentile ------------------------------------------------


def test_empty_histogram_is_all_zero():
    hist = Log2Histogram("x")
    assert hist.count == 0
    assert hist.mean == 0.0
    assert hist.percentile(50) == 0.0
    assert hist.percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}


def test_percentile_rejects_out_of_range_q():
    hist = Log2Histogram("x")
    hist.observe(1.0)
    with pytest.raises(ValueError):
        hist.percentile(101)
    with pytest.raises(ValueError):
        hist.percentile(-1)


def test_percentiles_clamp_to_observed_range():
    hist = Log2Histogram("x")
    for _ in range(100):
        hist.observe(4.0)
    # All mass in one bucket: interpolation would say 4..8, the clamp
    # pins every percentile to the single observed value.
    assert hist.percentile(1) == 4.0
    assert hist.percentile(50) == 4.0
    assert hist.percentile(99) == 4.0
    assert hist.min == hist.max == 4.0


def test_percentiles_order_across_buckets():
    hist = Log2Histogram("x")
    for value in [1.0] * 90 + [1000.0] * 10:
        hist.observe(value)
    assert hist.percentile(50) <= hist.percentile(95) <= hist.percentile(99)
    assert hist.percentile(50) < 2.0  # the low bucket holds the median
    assert hist.percentile(99) > 100.0


# -- merge determinism ---------------------------------------------------


SAMPLES = [float(i % 37 + 1) * 1.5 for i in range(500)]


def _observe_all(samples):
    hist = Log2Histogram("cycles")
    for s in samples:
        hist.observe(s)
    return hist


@pytest.mark.parametrize("parts", [1, 2, 3, 7])
def test_merge_is_bit_identical_across_partitions(parts):
    # Histograms observed over disjoint slices of the samples (one per
    # domain, say) merge back into the histogram of the whole.
    whole = _observe_all(SAMPLES)
    merged = Log2Histogram("cycles")
    for i in range(parts):
        merged.merge(_observe_all(SAMPLES[i::parts]))
    assert merged.buckets == whole.buckets
    assert merged.count == whole.count
    assert merged.min == whole.min and merged.max == whole.max
    for q in (50, 95, 99):
        assert merged.percentile(q) == whole.percentile(q)


def test_flatten_from_snapshot_round_trip():
    hist = _observe_all(SAMPLES)
    back = Log2Histogram.from_snapshot("cycles", hist.flatten())
    assert back.buckets == hist.buckets
    assert back.count == hist.count
    assert back.total == hist.total
    assert back.min == hist.min and back.max == hist.max
    assert back.percentiles() == hist.percentiles()


def test_registry_merge_of_flattened_snapshots_preserves_percentiles():
    # The parallel runner's path: each worker flattens its registry,
    # snapshots merge, percentiles come from the rebuilt histogram.
    registries = []
    for i in range(3):
        registry = MetricsRegistry()
        hist = registry.log2_histogram("cycles")
        for s in SAMPLES[i::3]:
            hist.observe(s)
        registries.append(registry)
    merged = MetricsRegistry.merge(r.snapshot() for r in registries)
    rebuilt = Log2Histogram.from_snapshot("cycles", merged)
    assert rebuilt.percentiles() == _observe_all(SAMPLES).percentiles()


def test_registry_snapshot_includes_log2_buckets():
    registry = MetricsRegistry()
    registry.log2_histogram("lat").observe(8.0)
    snap = registry.snapshot()
    assert snap["lat.count"] == 1
    assert snap["lat.bucket.3"] == 1


# -- adapter prefix conflicts --------------------------------------------


class _Stats:
    def __init__(self):
        self.hits = 3
        self.misses = 1


def test_adapt_rejects_duplicate_prefix():
    registry = MetricsRegistry()
    registry.adapt("iotlb", _Stats())
    with pytest.raises(ValueError, match="iotlb"):
        registry.adapt("iotlb", _Stats())


def test_adapt_distinct_prefixes_coexist():
    registry = MetricsRegistry()
    registry.adapt("a", _Stats())
    registry.adapt("b", _Stats())
    snap = registry.snapshot()
    assert snap["a.hits"] == 3 and snap["b.hits"] == 3
