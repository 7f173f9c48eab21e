"""Observability through the service: traces, metrics, structured logs.

The acceptance path of the tracing subsystem: one submitted job must
yield ONE stitched trace — client request span, server queue-wait and
cache spans, worker solve phases — under a single trace id, in both
in-process (``--workers 0``) and multiprocess worker modes.
"""

import io
import json
import os
import socket
import tempfile
import urllib.request

import pytest

from repro.aig import lit_not
from repro.aig.aiger import write_aag
from repro.circuits import kogge_stone_adder, ripple_carry_adder
from repro.instrument import (
    Recorder,
    to_chrome_trace,
    validate_metrics_report,
    validate_trace_report,
)
from repro.instrument.recorder import validate_report
from repro.service import CecServer, ServiceClient
from repro.service.worker import execute_job


def aag_text(aig):
    buffer = io.StringIO()
    write_aag(aig, buffer)
    return buffer.getvalue()


@pytest.fixture(scope="module")
def adder_pair():
    return (
        aag_text(ripple_carry_adder(4)), aag_text(kogge_stone_adder(4))
    )


@pytest.fixture()
def server(tmp_path):
    instance = CecServer(
        str(tmp_path / "cec.sock"), workers=0,
        cache_dir=str(tmp_path / "cache"),
    )
    instance.start()
    yield instance
    instance.close()


#: Bucket bounds every time-shaped histogram uses (seconds).
TIME_BOUNDS = [
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
]

#: Bucket bounds of the per-job workload histograms.
COUNT_BOUNDS = [
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
    2500.0, 5000.0, 10000.0, 25000.0, 50000.0, 100000.0, 250000.0,
    500000.0, 1000000.0,
]


def _span_names(trace):
    return [span["name"] for span in trace["spans"]]


def _assert_stitched(trace):
    """One trace id; client -> job -> worker parentage all linked."""
    validate_trace_report(trace)
    assert len({span["trace_id"] for span in trace["spans"]}) == 1
    spans = {span["name"]: span for span in trace["spans"]}
    request = spans["client/request"]
    job = spans["service/job"]
    check = spans["service/check"]
    assert request["parent_id"] is None
    assert job["parent_id"] == request["span_id"]
    assert check["parent_id"] == job["span_id"]
    assert spans["service/queue-wait"]["parent_id"] == job["span_id"]
    assert spans["cache/store"]["parent_id"] == job["span_id"]


class TestTracePropagation:
    def test_one_stitched_trace_in_process(self, server, adder_pair):
        with ServiceClient(server.address) as client:
            _, response = client.check(
                *adder_pair, recorder=Recorder()
            )
        _assert_stitched(response["trace"])
        # The stitched trace exports to valid Chrome trace JSON.
        chrome = to_chrome_trace(response["trace"])
        assert any(e["ph"] == "X" for e in chrome["traceEvents"])
        json.dumps(chrome)

    def test_one_stitched_trace_multiprocess(self, tmp_path, adder_pair):
        instance = CecServer(
            str(tmp_path / "mp.sock"), workers=1,
            cache_dir=str(tmp_path / "cache"),
        )
        instance.start()
        try:
            with ServiceClient(instance.address) as client:
                _, response = client.check(
                    *adder_pair, recorder=Recorder()
                )
            trace = response["trace"]
            _assert_stitched(trace)
            # The worker spans really crossed a process boundary.
            pids = {span["pid"] for span in trace["spans"]}
            assert len(pids) >= 2
        finally:
            instance.close()

    def test_cache_hit_trace_has_no_worker_spans(
        self, server, adder_pair,
    ):
        with ServiceClient(server.address) as client:
            client.check(*adder_pair, recorder=Recorder())
            _, warm = client.check(*adder_pair, recorder=Recorder())
        assert warm["cached"]
        names = _span_names(warm["trace"])
        assert "cache/lookup" in names
        assert "service/job" in names
        assert "service/check" not in names
        assert "service/queue-wait" not in names

    def test_untraced_submit_yields_server_side_trace(
        self, server, adder_pair,
    ):
        # No client trace: the server still records its own spans
        # under a fresh trace id.
        with ServiceClient(server.address) as client:
            submitted = client.submit(*adder_pair)
            response = client.result(submitted["job"], wait=True)
        trace = response["trace"]
        validate_trace_report(trace)
        assert "service/job" in _span_names(trace)

    def test_malformed_trace_header_degrades_never_errors(
        self, server, adder_pair,
    ):
        with ServiceClient(server.address) as client:
            submitted = client.submit(
                *adder_pair, trace={"trace_id": "NOT-HEX"},
            )
            response = client.result(submitted["job"], wait=True)
        assert response["verdict"] == "equivalent"
        trace = response["trace"]
        validate_trace_report(trace)
        assert trace["trace_id"] != "NOT-HEX"
        assert server.recorder.counter("service/trace-degraded") == 1

    def test_worker_degrades_on_malformed_trace(self, adder_pair):
        request = {
            "aag_a": adder_pair[0], "aag_b": adder_pair[1],
            "trace": "garbage",
        }
        response = execute_job(request)
        assert response["ok"]
        validate_trace_report(response["trace"])


class TestHistogramPins:
    def test_shard_histograms_after_misses_and_hits(self, tmp_path):
        """Every histogram a shard serves, with its unit, bounds and
        count after two misses (one equivalent, one not) and two hits
        (the repeat and the swapped pair), and the quantile gauges its
        stats report derives from them."""
        equal = (aag_text(ripple_carry_adder(4)),
                 aag_text(kogge_stone_adder(4)))
        mutant = kogge_stone_adder(4).copy()
        mutant.set_output(1, lit_not(mutant.outputs[1]))
        instance = CecServer(
            str(tmp_path / "pin.sock"), workers=1,
            cache_dir=str(tmp_path / "cache"),
        )
        instance.start()
        try:
            with ServiceClient(instance.address) as client:
                for pair, cached in (
                    (equal, False), (equal, True), (equal[::-1], True),
                    ((equal[0], aag_text(mutant)), False),
                ):
                    _, response = client.check(*pair)
                    assert response["cached"] is cached
                document, _ = client.metrics()
                gauges = client.stats()["gauges"]
        finally:
            instance.close()
        validate_metrics_report(document)
        pinned = {
            name: (block["unit"], block["buckets"], block["count"])
            for name, block in document["histograms"].items()
        }
        assert pinned == {
            "service/job-seconds": ("seconds", TIME_BOUNDS, 4),
            "cache/lookup-seconds": ("seconds", TIME_BOUNDS, 4),
            "service/queue-wait-seconds": ("seconds", TIME_BOUNDS, 2),
            "service/check-seconds": ("seconds", TIME_BOUNDS, 2),
            "solver/conflicts": ("conflicts", COUNT_BOUNDS, 2),
            "proof/clauses": ("clauses", COUNT_BOUNDS, 2),
        }
        quantiles = {name for name in gauges
                     if name.rsplit("/", 1)[-1] in ("p50", "p90", "p99")}
        assert quantiles == {
            "%s/%s" % (name, label)
            for name in pinned for label in ("p50", "p90", "p99")
        }


class TestMetricsSurface:
    def test_metrics_verb(self, server, adder_pair):
        with ServiceClient(server.address) as client:
            client.check(*adder_pair, recorder=Recorder())
            document, prometheus = client.metrics()
        validate_metrics_report(document)
        histograms = document["histograms"]
        assert "service/job-seconds" in histograms
        assert "service/queue-wait-seconds" in histograms
        assert "cache/lookup-seconds" in histograms
        # Worker-side observations folded in (satellite: cross-process
        # registry).
        assert "service/check-seconds" in histograms
        assert "solver/conflicts" in histograms
        assert histograms["service/job-seconds"]["count"] == 1
        assert "repro_service_job_seconds_bucket" in prometheus
        assert 'le="+Inf"' in prometheus

    def test_http_metrics_endpoint(self, tmp_path, adder_pair):
        instance = CecServer(
            str(tmp_path / "cec.sock"), workers=0,
            cache_dir=str(tmp_path / "cache"),
            metrics_address="127.0.0.1:0",
        )
        instance.start()
        try:
            with ServiceClient(instance.address) as client:
                client.check(*adder_pair, recorder=Recorder())
            base = "http://%s" % instance.metrics_address
            body = urllib.request.urlopen(base + "/metrics").read()
            text = body.decode("utf-8")
            assert "repro_service_job_seconds_bucket" in text
            assert "repro_service_jobs_completed_total 1" in text
            health = urllib.request.urlopen(base + "/healthz").read()
            assert health == b"ok\n"
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(base + "/nope")
        finally:
            instance.close()

    def test_metrics_endpoint_requires_tcp(self, tmp_path, monkeypatch):
        # The progress spool goes under tmp_path too, so the listing
        # below sees every file the constructor could leave behind.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with pytest.raises(ValueError):
            CecServer(
                str(tmp_path / "cec.sock"), workers=0,
                metrics_address=str(tmp_path / "metrics.sock"),
            )
        assert os.listdir(tmp_path) == []

    def test_taken_metrics_port_releases_the_server(
        self, tmp_path, monkeypatch,
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen(1)
            port = taken.getsockname()[1]
            with pytest.raises(OSError):
                CecServer(
                    str(tmp_path / "cec.sock"), workers=0,
                    metrics_address="127.0.0.1:%d" % port,
                )
        assert os.listdir(tmp_path) == []

    def test_stats_report_carries_quantile_gauges(
        self, server, adder_pair,
    ):
        with ServiceClient(server.address) as client:
            client.check(*adder_pair, recorder=Recorder())
            stats = client.stats()
        validate_report(stats)
        assert stats["gauges"]["service/job-seconds/p50"] > 0
        assert "service/job-seconds/p99" in stats["gauges"]

    def test_worker_stats_folded_into_server_stats(
        self, server, adder_pair,
    ):
        # Satellite: --stats-json (the server's stats report) includes
        # the worker pool's phases and counters via merge_report.
        with ServiceClient(server.address) as client:
            client.check(*adder_pair, recorder=Recorder())
            stats = client.stats()
        assert "service/check" in stats["phases"]
        assert stats["counters"]["sweep/sat_calls"] > 0
        assert stats["counters"]["solver/conflicts"] >= 0
        assert "service/queue-wait" in stats["phases"]


class TestJobStatsSchema:
    def test_job_stats_phase_cells_carry_self_seconds(
        self, server, adder_pair,
    ):
        with ServiceClient(server.address) as client:
            _, response = client.check(*adder_pair)
        for report in (response["job_stats"], response["worker_stats"]):
            validate_report(report)
            for cell in report["phases"].values():
                assert "self_seconds" in cell
