"""Histograms, the recorder's histogram store, and the Prometheus
renderer."""

import pytest

from repro.instrument import (
    Histogram,
    Recorder,
    validate_metrics_report,
    to_prometheus_text,
)
from repro.instrument.metrics import (
    COUNT_BUCKETS,
    METRICS_SCHEMA,
    TIME_BUCKETS,
    observe_stats_workload,
    prometheus_name,
)


class TestHistogram:
    def test_observe_places_values_in_buckets(self):
        hist = Histogram("t", (1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.counts == [1, 1, 1]
        assert hist.count == 3
        assert hist.sum == pytest.approx(55.5)

    def test_boundary_value_goes_to_its_bucket(self):
        # le-style buckets: an observation equal to a bound belongs to
        # that bound's bucket.
        hist = Histogram("t", (1.0, 10.0))
        hist.observe(1.0)
        assert hist.counts == [1, 0, 0]

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("t", (1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("t", ())

    def test_quantile_empty_histogram_is_zero(self):
        hist = Histogram("t", (1.0, 2.0))
        for q in (0.0, 0.5, 0.99, 1.0):
            assert hist.quantile(q) == 0.0

    def test_quantile_single_bucket_interpolates_from_zero(self):
        hist = Histogram("t", (4.0,))
        hist.observe(1.0)
        assert hist.quantile(0.5) == pytest.approx(2.0)
        assert hist.quantile(1.0) == pytest.approx(4.0)

    def test_quantile_single_bucket_overflow_answers_the_bound(self):
        hist = Histogram("t", (4.0,))
        hist.observe(10.0)  # lands in +Inf
        assert hist.quantile(0.5) == 4.0

    def test_quantiles_interpolate(self):
        hist = Histogram("t", (0.1, 0.25, 1.0, 5.0))
        for value in (0.01, 0.2, 0.2, 3.0):
            hist.observe(value)
        assert hist.quantile(0.5) == pytest.approx(0.175)
        assert hist.quantile(0.99) == pytest.approx(4.9, abs=0.2)
        assert Histogram("t", (1.0,)).quantile(0.5) == 0.0

    def test_infinite_bucket_answers_largest_bound(self):
        hist = Histogram("t", (1.0, 2.0))
        hist.observe(100.0)
        assert hist.quantile(0.5) == 2.0

    def test_as_dict_carries_quantiles(self):
        hist = Histogram("t", (1.0,), unit="seconds")
        hist.observe(0.5)
        block = hist.as_dict()
        assert block["unit"] == "seconds"
        assert set(block) >= {"buckets", "counts", "count", "sum",
                              "p50", "p90", "p99"}


class TestRegistry:
    """The histograms a :class:`Recorder` keeps (``observe``,
    ``metrics_report``, ``quantile_gauges``)."""

    def test_report_validates(self):
        recorder = Recorder()
        recorder.observe("service/job-seconds", 0.2)
        report = recorder.metrics_report()
        assert validate_metrics_report(report) is report
        assert report["schema"] == METRICS_SCHEMA
        assert sorted(report["histograms"]) == ["service/job-seconds"]
        assert report["histograms"]["service/job-seconds"]["buckets"] \
            == list(TIME_BUCKETS)

    def test_first_caller_fixes_buckets(self):
        recorder = Recorder()
        recorder.observe("x", 3.0, buckets=(1.0, 10.0), unit="things")
        recorder.observe("x", 5.0, buckets=(99.0,), unit="other")
        block = recorder.metrics_report()["histograms"]["x"]
        assert block["buckets"] == [1.0, 10.0]
        assert block["unit"] == "things"
        assert block["counts"] == [0, 2, 0]

    def test_merge_report_round_trip(self):
        # A worker's report reaches the server's stats through
        # merge_report and its histograms through the workload
        # observation, the one path worker telemetry takes.
        worker = Recorder()
        worker.add_time("service/check", 0.2)
        worker.count("solver/conflicts", 12)
        report = worker.report()
        server = Recorder()
        server.merge_report(report)
        observe_stats_workload(server, report)
        assert server.phase_seconds("service/check") == 0.2
        assert server.counter("solver/conflicts") == 12
        histograms = server.metrics_report()["histograms"]
        assert histograms["service/check-seconds"]["sum"] == 0.2
        assert histograms["solver/conflicts"]["sum"] == 12.0
        assert histograms["solver/conflicts"]["buckets"] \
            == list(COUNT_BUCKETS)

    def test_quantile_gauges(self):
        recorder = Recorder()
        recorder.observe("service/job-seconds", 0.2)
        gauges = recorder.quantile_gauges()
        assert set(gauges) == {
            "service/job-seconds/p50",
            "service/job-seconds/p90",
            "service/job-seconds/p99",
        }
        assert all(v > 0 for v in gauges.values())
        # A recorder without observations publishes nothing.
        assert Recorder().quantile_gauges() == {}

    def test_null_recorder_keeps_no_histograms(self):
        from repro.instrument import NULL_RECORDER

        NULL_RECORDER.observe("x", 1.0)
        assert NULL_RECORDER.metrics_report()["histograms"] == {}
        assert NULL_RECORDER.quantile_gauges() == {}


class TestValidation:
    def _valid(self):
        recorder = Recorder()
        recorder.observe("x", 1.0, buckets=(1.0, 2.0))
        return recorder.metrics_report()

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("schema"),
        lambda d: d.__setitem__("histograms", []),
        lambda d: d["histograms"]["x"].pop("counts"),
        lambda d: d["histograms"]["x"].__setitem__("buckets", []),
        lambda d: d["histograms"]["x"].__setitem__(
            "buckets", [2.0, 1.0]),
        lambda d: d["histograms"]["x"].__setitem__("counts", [1]),
        lambda d: d["histograms"]["x"].__setitem__("count", 99),
        lambda d: d["histograms"]["x"]["counts"].__setitem__(0, -1),
    ])
    def test_rejects_malformed(self, mutate):
        document = self._valid()
        mutate(document)
        with pytest.raises(ValueError):
            validate_metrics_report(document)


class TestPrometheus:
    def test_name_sanitization(self):
        assert prometheus_name("service/job-seconds") == \
            "repro_service_job_seconds"
        assert prometheus_name("cache/lookup-seconds", "bucket") == \
            "repro_cache_lookup_seconds_bucket"

    def test_histogram_rendering_is_cumulative(self):
        recorder = Recorder()
        for value in (0.5, 5.0, 50.0):
            recorder.observe("x", value, buckets=(1.0, 10.0))
        text = to_prometheus_text(recorder.metrics_report())
        assert '# TYPE repro_x histogram' in text
        assert 'repro_x_bucket{le="1"} 1' in text
        assert 'repro_x_bucket{le="10"} 2' in text
        assert 'repro_x_bucket{le="+Inf"} 3' in text
        assert "repro_x_count 3" in text
        assert text.endswith("\n")

    def test_stats_counters_and_gauges(self):
        recorder = Recorder()
        recorder.observe("x", 1.0, buckets=(1.0,))
        stats = {
            "counters": {"service/jobs-completed": 7},
            "gauges": {
                "service/hit-rate": 0.5,
                "service/verdict": "equivalent",  # non-numeric: skipped
                "service/flag": True,             # bool: skipped
            },
        }
        text = to_prometheus_text(recorder.metrics_report(),
                                  stats_report=stats)
        assert "repro_service_jobs_completed_total 7" in text
        assert "repro_service_hit_rate 0.5" in text
        assert "verdict" not in text
        assert "repro_service_flag" not in text

    def test_build_info_line(self):
        recorder = Recorder()
        recorder.observe("x", 1.0, buckets=(1.0,))
        text = to_prometheus_text(
            recorder.metrics_report(),
            build_info={"component": "repro-serve", "version": "9.9.9"},
        )
        assert "# TYPE repro_build_info gauge" in text
        assert ('repro_build_info{component="repro-serve",'
                'version="9.9.9"} 1') in text
        # Omitted build info renders no such line.
        assert "build_info" not in to_prometheus_text(
            recorder.metrics_report()
        )

    def test_build_info_escapes_label_values(self):
        recorder = Recorder()
        recorder.observe("x", 1.0, buckets=(1.0,))
        text = to_prometheus_text(
            recorder.metrics_report(),
            build_info={"note": 'a"b\\c\nd'},
        )
        assert 'note="a\\"b\\\\c\\nd"' in text

    def test_workload_observation(self):
        recorder = Recorder()
        observe_stats_workload(recorder, {
            "phases": {"service/check": {"seconds": 0.3, "count": 1}},
            "counters": {"solver/conflicts": 42},
            "gauges": {"proof/clauses": 1000},
        })
        histograms = recorder.metrics_report()["histograms"]
        assert histograms["service/check-seconds"]["sum"] == 0.3
        assert histograms["service/check-seconds"]["unit"] == "seconds"
        assert histograms["solver/conflicts"]["count"] == 1
        assert histograms["proof/clauses"]["count"] == 1
        # A report without check time or workload contributes nothing.
        observe_stats_workload(
            recorder, {"phases": {}, "counters": {}, "gauges": {}},
        )
        counts = {
            name: block["count"] for name, block
            in recorder.metrics_report()["histograms"].items()
        }
        assert counts == {"service/check-seconds": 1,
                          "solver/conflicts": 1, "proof/clauses": 1}
        # A checked job that made no SAT call has no solver/conflicts
        # counter; it counts as 0 conflicts, one sample per checked job.
        observe_stats_workload(recorder, {
            "phases": {"service/check": {"seconds": 0.01, "count": 1}},
            "counters": {},
            "gauges": {"proof/clauses": 80},
        })
        conflicts = recorder.metrics_report()["histograms"][
            "solver/conflicts"]
        assert (conflicts["count"], conflicts["sum"]) == (2, 42.0)
        assert conflicts["counts"][0] == 1

    def test_default_bucket_tables_are_increasing(self):
        for table in (TIME_BUCKETS, COUNT_BUCKETS):
            assert all(a < b for a, b in zip(table, table[1:]))
