"""Prometheus text-format exposition: names, gauges, histogram series."""

from repro.obs.exposition import prometheus_name, to_prometheus, write_prometheus
from repro.obs.histogram import LogHistogram


class TestPrometheusName:
    def test_dots_become_underscores_with_prefix(self):
        assert (
            prometheus_name("counter.prepared_cache_hit_rate")
            == "repro_counter_prepared_cache_hit_rate"
        )

    def test_invalid_characters_sanitised(self):
        assert prometheus_name("phase.scan/sort-1 x") == "repro_phase_scan_sort_1_x"

    def test_leading_digit_guarded(self):
        assert prometheus_name("9lives", prefix="") == "_9lives"

    def test_custom_prefix(self):
        assert prometheus_name("a.b", prefix="sky_") == "sky_a_b"


class TestGauges:
    def test_sorted_gauges_with_type_lines(self):
        text = to_prometheus({"z.metric": 2.0, "a.metric": 1.0})
        lines = text.splitlines()
        assert lines[0] == "# TYPE repro_a_metric gauge"
        assert lines[1] == "repro_a_metric 1"
        assert lines[2] == "# TYPE repro_z_metric gauge"
        assert lines[3] == "repro_z_metric 2"
        assert text.endswith("\n")

    def test_special_values(self):
        text = to_prometheus(
            {"nan": float("nan"), "inf": float("inf"), "ninf": float("-inf")}
        )
        assert "repro_inf +Inf" in text
        assert "repro_nan NaN" in text
        assert "repro_ninf -Inf" in text

    def test_empty_input_is_empty_document(self):
        assert to_prometheus({}) == ""


class TestHistogramSeries:
    def make_histogram(self):
        histogram = LogHistogram()
        histogram.add_many([0.0, 0.001, 0.002, 0.5])
        return histogram

    def test_cumulative_buckets_end_at_count(self):
        text = to_prometheus({}, {"latency": self.make_histogram()})
        lines = text.splitlines()
        assert lines[0] == "# TYPE repro_latency histogram"
        bucket_lines = [line for line in lines if "_bucket{" in line]
        assert bucket_lines[-1] == 'repro_latency_bucket{le="+Inf"} 4'
        # Cumulative counts are non-decreasing.
        counts = [int(line.rsplit(" ", 1)[1]) for line in bucket_lines]
        assert counts == sorted(counts)
        assert "repro_latency_count 4" in lines
        assert any(line.startswith("repro_latency_sum ") for line in lines)

    def test_zero_bucket_surfaces_as_le_zero(self):
        text = to_prometheus({}, {"latency": self.make_histogram()})
        assert 'repro_latency_bucket{le="0"} 1' in text

    def test_gauges_and_histograms_compose(self):
        text = to_prometheus({"run.n": 10.0}, {"lat": self.make_histogram()})
        assert "repro_run_n 10" in text
        assert "repro_lat_bucket" in text

    def test_write_prometheus(self, tmp_path):
        path = write_prometheus(
            tmp_path / "metrics.prom", {"a": 1.0}, {"h": self.make_histogram()}
        )
        content = path.read_text()
        assert "repro_a 1" in content
        assert 'repro_h_bucket{le="+Inf"} 4' in content
