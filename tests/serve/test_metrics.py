"""Unit tests of the histogram/quantile math and the Prometheus renderer."""

from __future__ import annotations

import random

import pytest

from repro.serve.metrics import (
    DEFAULT_BUCKETS,
    FAMILIES,
    LatencyHistogram,
    ServerMetrics,
    percentile_of_sorted,
    prometheus_line,
    render_families,
    render_histogram,
)
from repro.service.service import ServiceStats


class TestPercentileOfSorted:
    def test_empty_series_is_none(self) -> None:
        assert percentile_of_sorted([], 0.5) is None
        assert percentile_of_sorted([], 0.99) is None

    def test_single_sample_is_every_quantile(self) -> None:
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert percentile_of_sorted([0.042], q) == 0.042

    def test_endpoints_are_min_and_max(self) -> None:
        values = [1.0, 2.0, 5.0, 9.0]
        assert percentile_of_sorted(values, 0.0) == 1.0
        assert percentile_of_sorted(values, 1.0) == 9.0

    def test_median_interpolates_between_middle_samples(self) -> None:
        assert percentile_of_sorted([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)
        assert percentile_of_sorted([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_out_of_range_quantile_rejected(self) -> None:
        with pytest.raises(ValueError, match="quantile"):
            percentile_of_sorted([1.0], 1.5)
        with pytest.raises(ValueError, match="quantile"):
            percentile_of_sorted([1.0], -0.1)


class TestLatencyHistogram:
    def test_empty_histogram_reports_zero_quantiles(self) -> None:
        # Never-observed histograms must stay number-valued (no None/NaN):
        # /stats and /metrics render every endpoint from the first scrape.
        histogram = LatencyHistogram()
        assert histogram.count == 0
        assert histogram.quantile(0.5) == 0.0
        assert histogram.percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_single_sample_is_reported_exactly(self) -> None:
        histogram = LatencyHistogram()
        histogram.observe(0.0042)
        # A bucketed estimate would land somewhere inside (0.0025, 0.005];
        # the min/max clamp pins a single observation to itself.
        for q in (0.5, 0.95, 0.99):
            assert histogram.quantile(q) == 0.0042

    def test_bucket_boundary_value_lands_in_its_le_bucket(self) -> None:
        histogram = LatencyHistogram(buckets=(0.001, 0.01, 0.1))
        histogram.observe(0.01)  # exactly on a bound: le semantics, not lt
        assert histogram.bucket_counts() == [0, 1, 0, 0]
        histogram.observe(0.010001)  # just past the bound: next bucket up
        assert histogram.bucket_counts() == [0, 1, 1, 0]

    def test_overflow_beyond_last_bound_is_counted(self) -> None:
        histogram = LatencyHistogram(buckets=(0.001, 0.01))
        histogram.observe(5.0)
        assert histogram.bucket_counts() == [0, 0, 1]
        assert histogram.cumulative_counts() == [0, 0, 1]
        assert histogram.quantile(0.5) == 5.0  # clamped to the observed max

    def test_negative_observations_clamp_to_zero(self) -> None:
        histogram = LatencyHistogram()
        histogram.observe(-1.0)
        assert histogram.count == 1
        assert histogram.sum == 0.0
        assert histogram.quantile(0.5) == 0.0

    def test_p99_of_heavy_tailed_series(self) -> None:
        # 990 fast requests at ~1 ms, 10 stragglers at ~1 s: p99 must sit at
        # the boundary between body and tail, p50 firmly in the body.
        histogram = LatencyHistogram()
        rng = random.Random(7)
        samples = [rng.uniform(0.0009, 0.0011) for _ in range(990)]
        samples += [rng.uniform(0.9, 1.1) for _ in range(10)]
        for value in samples:
            histogram.observe(value)
        p50 = histogram.quantile(0.5)
        p99 = histogram.quantile(0.99)
        assert p50 is not None and p50 < 0.0025
        assert p99 is not None and p99 <= 0.0025  # rank 990 is still in the body
        p995 = histogram.quantile(0.995)
        assert p995 is not None and p995 > 0.25  # one straggler deep into the tail
        assert histogram.quantile(1.0) == max(samples)

    def test_estimates_track_exact_quantiles_within_bucket_resolution(self) -> None:
        histogram = LatencyHistogram()
        rng = random.Random(23)
        samples = sorted(rng.expovariate(1 / 0.02) for _ in range(5_000))
        for value in samples:
            histogram.observe(value)
        for q in (0.5, 0.95, 0.99):
            exact = percentile_of_sorted(samples, q)
            estimate = histogram.quantile(q)
            assert estimate is not None and exact is not None
            # The estimate may be off by up to one bucket width (2.5x ladder).
            assert exact / 3.0 <= estimate <= exact * 3.0, (q, exact, estimate)

    def test_counters_and_sum(self) -> None:
        histogram = LatencyHistogram()
        for value in (0.001, 0.002, 0.003):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(0.006)
        assert sum(histogram.bucket_counts()) == 3
        assert histogram.cumulative_counts()[-1] == 3

    def test_bad_bucket_bounds_rejected(self) -> None:
        with pytest.raises(ValueError):
            LatencyHistogram(buckets=())
        with pytest.raises(ValueError):
            LatencyHistogram(buckets=(0.1, 0.1))
        with pytest.raises(ValueError):
            LatencyHistogram(buckets=(0.5, 0.1))
        with pytest.raises(ValueError):
            LatencyHistogram(buckets=(-0.1, 0.5))


class TestPrometheusRendering:
    def test_sample_line_with_sorted_escaped_labels(self) -> None:
        line = prometheus_line("m_total", 3, {"b": 'say "hi"', "a": "x"})
        assert line == 'm_total{a="x",b="say \\"hi\\""} 3'
        assert prometheus_line("m", 0.5) == "m 0.5"

    def test_histogram_series_shape(self) -> None:
        histogram = LatencyHistogram(buckets=(0.001, 0.01))
        histogram.observe(0.0005)
        histogram.observe(0.005)
        lines = render_histogram("lat", histogram, {"endpoint": "/query"})
        assert 'lat_bucket{endpoint="/query",le="0.001"} 1' in lines
        assert 'lat_bucket{endpoint="/query",le="0.01"} 2' in lines
        assert 'lat_bucket{endpoint="/query",le="+Inf"} 2' in lines  # cumulative
        assert 'lat_count{endpoint="/query"} 2' in lines
        assert any(line.startswith('lat_sum{endpoint="/query"}') for line in lines)
        quantile_lines = [line for line in lines if "quantile=" in line]
        assert len(quantile_lines) == 3
        assert all('quantile="0.' in line for line in quantile_lines)

    def test_empty_histogram_renders_zero_series(self) -> None:
        # A zero-observation family still renders: all-zero buckets, zero
        # sum/count and 0.0 quantile estimates -- and never NaN/None.
        histogram = LatencyHistogram(buckets=(0.001, 0.01))
        lines = render_histogram("lat", histogram, {"endpoint": "/debug/trace"})
        assert 'lat_bucket{endpoint="/debug/trace",le="+Inf"} 0' in lines
        assert 'lat_sum{endpoint="/debug/trace"} 0' in lines
        assert 'lat_count{endpoint="/debug/trace"} 0' in lines
        quantile_lines = [line for line in lines if "quantile=" in line]
        assert len(quantile_lines) == 3
        assert all(line.endswith(" 0") for line in quantile_lines)
        assert not any("NaN" in line or "None" in line for line in lines)

    def test_families_join_with_help_and_type_headers(self) -> None:
        body = render_families([("m_total", "counter", "A counter.", ["m_total 1"])])
        assert body == "# HELP m_total A counter.\n# TYPE m_total counter\nm_total 1\n"

    def test_default_buckets_are_a_valid_ladder(self) -> None:
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        assert DEFAULT_BUCKETS[0] == pytest.approx(0.0001)
        assert DEFAULT_BUCKETS[-1] == 10.0


class TestServerMetrics:
    def test_query_answers_render_both_paths_from_the_first_scrape(self) -> None:
        metrics = ServerMetrics(("/query",))
        metrics.query_answers["loop"] += 3
        lines = metrics.render(ServiceStats().as_dict()).splitlines()
        assert "# TYPE repro_http_query_answers_total counter" in lines
        assert 'repro_http_query_answers_total{path="loop"} 3' in lines
        assert 'repro_http_query_answers_total{path="pool"} 0' in lines

    def test_every_family_of_the_table_renders_once_with_samples(self) -> None:
        text = ServerMetrics(("/query",)).render(ServiceStats().as_dict(), draining=True)
        for name, kind, _, label, _ in FAMILIES:
            assert text.count(f"# TYPE {name} {kind}\n") == 1, name
            sample = f"{name}_bucket{{" if kind == "histogram" else name + ("{" if label else " ")
            assert f"\n{sample}" in text, name
        assert "\nrepro_server_draining 1\n" in text
        assert 'repro_http_requests_total{endpoint="other"} 0' in text
