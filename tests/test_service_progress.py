"""The service's live-progress plane: spool, verb, CLI surfaces.

Covers the worker-side heartbeat spool, the per-job ``progress`` verb,
progress-bearing ``result --wait`` heartbeats, the runtime-gauge
refresh on the ``stats``/``metrics`` verbs, and the ``repro-client``
surfaces (``ping`` round-trip latency, ``status --follow``).
"""

import io

import pytest

from repro.aig.aiger import write_aag
from repro.circuits import kogge_stone_adder, ripple_carry_adder
from repro.instrument.progress import validate_progress
from repro.service import CecServer, ServiceClient, ServiceError
from repro.service import client_cli


def aag_text(aig):
    buffer = io.StringIO()
    write_aag(aig, buffer)
    return buffer.getvalue()


@pytest.fixture(scope="module")
def adder_pair():
    return (
        aag_text(ripple_carry_adder(6)), aag_text(kogge_stone_adder(6))
    )


@pytest.fixture()
def server(tmp_path):
    """Progress-enabled in-process server: fast heartbeats, fast
    result-wait polls."""
    instance = CecServer(
        str(tmp_path / "cec.sock"), workers=0,
        cache_dir=str(tmp_path / "cache"),
        progress_interval=0.001, poll_interval=0.01,
    )
    instance.start()
    yield instance
    instance.close()


@pytest.fixture()
def no_progress_server(tmp_path):
    instance = CecServer(
        str(tmp_path / "plain.sock"), workers=0, progress_interval=0,
    )
    instance.start()
    yield instance
    instance.close()


class TestProgressVerb:
    def test_finished_job_keeps_its_final_heartbeat(
        self, server, adder_pair
    ):
        with ServiceClient(server.address) as client:
            submitted = client.submit(*adder_pair)
            client.result(submitted["job"], wait=True)
            response = client.progress(submitted["job"])
        assert response["job"] == submitted["job"]
        assert response["state"] == "done"
        progress = response["progress"]
        assert progress is not None, "no heartbeat was harvested"
        validate_progress(progress)
        assert progress["job"] == submitted["job"]
        assert progress["seq"] >= 1
        assert "conflicts" in progress["counters"]

    def test_keyless_progress_is_unknown_job(self, server, adder_pair):
        with ServiceClient(server.address) as client:
            submitted = client.submit(*adder_pair)
            client.result(submitted["job"], wait=True)
            with pytest.raises(ServiceError) as excinfo:
                client.request({"verb": "progress"})
        assert excinfo.value.code == "unknown-job"

    def test_unknown_job_is_an_error(self, server):
        with ServiceClient(server.address) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.progress("j999999")
        assert excinfo.value.code == "unknown-job"

    def test_cached_jobs_carry_no_heartbeat(self, server, adder_pair):
        with ServiceClient(server.address) as client:
            first = client.submit(*adder_pair)
            client.result(first["job"], wait=True)
            second = client.submit(*adder_pair)
            assert second["cached"] is True
            response = client.progress(second["job"])
        assert response["progress"] is None

    def test_disabled_progress_answers_none(
        self, no_progress_server, adder_pair
    ):
        with ServiceClient(no_progress_server.address) as client:
            submitted = client.submit(*adder_pair)
            client.result(submitted["job"], wait=True)
            response = client.progress(submitted["job"])
        assert response["state"] == "done"
        assert response["progress"] is None


class TestResultWaitHeartbeats:
    def test_wait_updates_carry_progress(self, server, adder_pair):
        updates = []
        with ServiceClient(server.address) as client:
            submitted = client.submit(*adder_pair)
            client.result(
                submitted["job"], wait=True, on_update=updates.append,
            )
        # Every non-final heartbeat response has the progress key; any
        # heartbeat seen while the solver ran carries a document.
        assert all("progress" in update for update in updates)
        documents = [
            update["progress"] for update in updates
            if update.get("progress") is not None
        ]
        for document in documents:
            validate_progress(document)


class TestRuntimeGauges:
    def test_stats_refresh_queue_depth_and_uptime(self, server):
        with ServiceClient(server.address) as client:
            stats = client.stats()
        gauges = stats["gauges"]
        assert gauges["service/queue-depth"] == 0
        assert gauges["service/uptime-seconds"] > 0.0

    def test_prometheus_carries_build_info_and_uptime(self, server):
        with ServiceClient(server.address) as client:
            _, text = client.metrics()
        assert 'repro_build_info{component="repro-serve"' in text
        assert "repro_service_uptime_seconds" in text
        assert "repro_service_queue_depth" in text


class TestClientCli:
    def test_ping_prints_round_trip_latency(self, server, capsys):
        code = client_cli.main(
            ["--server", server.address, "ping"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "repro-serve" in out
        assert "rtt=" in out and "ms" in out

    def test_status_follow_streams_until_terminal(
        self, server, adder_pair, tmp_path, capsys
    ):
        a_path = tmp_path / "a.aag"
        b_path = tmp_path / "b.aag"
        a_path.write_text(adder_pair[0])
        b_path.write_text(adder_pair[1])
        code = client_cli.main([
            "--server", server.address, "submit",
            str(a_path), str(b_path),
        ])
        assert code == 0
        job_id = capsys.readouterr().out.strip()
        code = client_cli.main([
            "--server", server.address, "status", job_id,
            "--follow", "--interval", "0.01",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert '"state": "done"' in captured.out
        assert job_id in captured.out
