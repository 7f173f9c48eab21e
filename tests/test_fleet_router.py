"""End-to-end tests of the fleet router over in-process shards.

Two real :class:`CecServer` shards (``workers=0``) on Unix sockets
sit behind a :class:`FleetRouter` running on a dedicated event-loop
thread; an unmodified synchronous :class:`ServiceClient` talks to the
router as if it were one server.
"""

import asyncio
import errno
import io
import json
import socket
import threading
import urllib.request

import pytest

from repro.aig.aiger import read_aag, write_aag
from repro.circuits import kogge_stone_adder, ripple_carry_adder
from repro.fleet import FleetRouter, HashRing
from repro.instrument import Recorder
from repro.service import CecServer, ServiceClient, ServiceError
from repro.service import protocol
from repro.service.cache import cache_key


def aag_text(aig):
    buffer = io.StringIO()
    write_aag(aig, buffer)
    return buffer.getvalue()


@pytest.fixture()
def adder_pair():
    return (
        aag_text(ripple_carry_adder(4)), aag_text(kogge_stone_adder(4))
    )


class RouterHarness:
    """A FleetRouter on its own event-loop thread, plus its shards."""

    def __init__(self, tmp_path, **router_kwargs):
        self.addresses = [
            str(tmp_path / "shard-a.sock"), str(tmp_path / "shard-b.sock"),
        ]
        self.shards = {}
        for address in self.addresses:
            self.start_shard(address, tmp_path)
        self.router_address = str(tmp_path / "router.sock")
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, daemon=True,
        )
        self.thread.start()
        router_kwargs.setdefault("health_interval", 0.2)
        self.router = self.call(
            self._start_router(self.router_address, router_kwargs)
        )

    async def _start_router(self, address, kwargs):
        router = FleetRouter(address, self.addresses, **kwargs)
        await router.start()
        return router

    def call(self, coroutine, timeout=30.0):
        """Run *coroutine* on the router loop from the test thread."""
        return asyncio.run_coroutine_threadsafe(
            coroutine, self.loop,
        ).result(timeout)

    def start_shard(self, address, tmp_path):
        cache_dir = str(tmp_path) + address.replace("/", "_") + ".cache"
        shard = CecServer(address, workers=0, cache_dir=cache_dir)
        shard.start()
        self.shards[address] = shard
        return shard

    def stop_shard(self, address):
        self.shards.pop(address).close()

    def home_of(self, key):
        return HashRing(self.addresses).route(key)

    def close(self):
        try:
            self.call(self.router.close())
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=10)
            for shard in self.shards.values():
                shard.close()

    def client(self):
        return ServiceClient(self.router_address)

    def counters(self):
        return self.router.stats_report()["counters"]


@pytest.fixture()
def fleet(tmp_path):
    harness = RouterHarness(tmp_path)
    yield harness
    harness.close()


class TestRouting:
    def test_ping_and_submit_roundtrip(self, fleet, adder_pair):
        with fleet.client() as client:
            ping = client.ping()
            assert ping["ok"] and ping["verb"] == "ping"
            result, response = client.check(*adder_pair)
        assert result.equivalent is True
        assert "@" in response["job"]
        assert fleet.counters()["fleet/jobs-routed"] == 1

    def test_job_id_names_the_owning_shard(self, fleet, adder_pair):
        a = read_aag(io.StringIO(adder_pair[0]))
        b = read_aag(io.StringIO(adder_pair[1]))
        home = fleet.home_of(cache_key(a, b))
        with fleet.client() as client:
            submitted = client.submit(*adder_pair)
            job = submitted["job"]
            assert job.endswith("@" + home)
            # status/result resolve through the router.
            final = client.result(job, wait=True)
        assert final["ok"] and final["job"] == job
        assert final["state"] == "done"

    def test_status_of_unsuffixed_job_id_is_unknown(self, fleet):
        with fleet.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.status("j000001")
        assert excinfo.value.code == protocol.ERR_UNKNOWN_JOB

    @pytest.mark.parametrize("options", [
        {"refine_batch": 1},
        {"sim_words": "4"},
        {"cex_neighbors": -2},
    ], ids=["removed", "str-words", "neg-neighbors"])
    def test_bad_options_rejected_at_submit(self, fleet, adder_pair,
                                            options):
        with fleet.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.submit(*adder_pair, options=options)
        assert excinfo.value.code == protocol.ERR_BAD_INPUT
        counters = fleet.counters()
        assert counters["fleet/jobs-rejected"] == 1
        assert "fleet/jobs-routed" not in counters

    def test_unknown_verb_is_rejected(self, fleet):
        with fleet.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.request({"verb": "frobnicate"})
        assert excinfo.value.code == protocol.ERR_INVALID_REQUEST

    def test_malformed_line_gets_structured_error(self, fleet):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(10)
            sock.connect(fleet.router_address)
            sock.sendall(b"this is not json\n")
            response = json.loads(sock.makefile("rb").readline())
        assert response["ok"] is False
        assert response["error"]["code"] == protocol.ERR_INVALID_REQUEST


class TestCrossShardCache:
    def test_peer_hit_is_transferred_home(self, fleet, adder_pair):
        a = read_aag(io.StringIO(adder_pair[0]))
        b = read_aag(io.StringIO(adder_pair[1]))
        key = cache_key(a, b)
        home = fleet.home_of(key)
        other = [s for s in fleet.addresses if s != home][0]
        # Seed the NON-home shard's cache behind the router's back.
        with ServiceClient(other) as direct:
            _, response = direct.check(*adder_pair)
            assert response.get("cached") is False
        # The router must move the entry home and hit there.
        with fleet.client() as client:
            _, response = client.check(*adder_pair)
        assert response.get("cached") is True
        counters = fleet.counters()
        assert counters["fleet/cache-transfers"] == 1
        assert counters["fleet/jobs-cached"] == 1
        # Both shards now hold the entry.
        with ServiceClient(home) as direct:
            found, meta = direct.cache_probe(key)
        assert found and meta["verdict"] == "equivalent"

    def test_failed_transfer_falls_back_to_a_home_solve(
        self, fleet, adder_pair, monkeypatch,
    ):
        a = read_aag(io.StringIO(adder_pair[0]))
        b = read_aag(io.StringIO(adder_pair[1]))
        home = fleet.home_of(cache_key(a, b))
        other = [s for s in fleet.addresses if s != home][0]
        with ServiceClient(other) as direct:
            direct.check(*adder_pair)

        def full_disk(key, result, meta=None):
            raise OSError(errno.ENOSPC, "No space left on device")

        # The home shard answers the transfer's cache-put with
        # cache-store-failed; the router must still answer the submit.
        monkeypatch.setattr(fleet.shards[home].cache, "store", full_disk)
        with fleet.client() as client:
            result, response = client.check(*adder_pair)
        assert result.equivalent is True
        assert response["cached"] is False
        counters = fleet.counters()
        assert counters["fleet/cache-transfer-failures"] == 1
        assert counters.get("fleet/cache-transfers", 0) == 0

    def test_repeat_submit_hits_home_without_transfer(
        self, fleet, adder_pair,
    ):
        with fleet.client() as client:
            _, first = client.check(*adder_pair)
            _, second = client.check(*adder_pair)
        assert first.get("cached") is False
        assert second.get("cached") is True
        counters = fleet.counters()
        assert counters.get("fleet/cache-transfers", 0) == 0
        assert counters["fleet/cache-home-hits"] == 1

    def test_cache_stats_aggregate_across_shards(self, fleet, adder_pair):
        with fleet.client() as client:
            client.check(*adder_pair)
            stats = client.cache_stats()
            assert stats["entries"] == 1
            assert stats["stores"] == 1
            a = read_aag(io.StringIO(adder_pair[0]))
            b = read_aag(io.StringIO(adder_pair[1]))
            found, meta = client.cache_probe(cache_key(a, b))
        assert found and meta["verdict"] == "equivalent"

    def test_cache_get_routes_to_the_home_shard(self, fleet, adder_pair):
        a = read_aag(io.StringIO(adder_pair[0]))
        b = read_aag(io.StringIO(adder_pair[1]))
        key = cache_key(a, b)
        with fleet.client() as client:
            client.check(*adder_pair)
            result, meta = client.cache_get(key)
        assert result is not None and result["equivalent"] is True
        assert meta["key"] == key


class TestTracing:
    def test_one_trace_id_spans_client_router_shard(
        self, fleet, adder_pair,
    ):
        recorder = Recorder()
        recorder.start_trace(process="test-client")
        with fleet.client() as client:
            _, response = client.check(*adder_pair, recorder=recorder)
        trace = response["trace"]
        trace_ids = {span["trace_id"] for span in trace["spans"]}
        assert len(trace_ids) == 1
        names = {span["name"] for span in trace["spans"]}
        assert "client/request" in names
        assert "fleet/route" in names
        assert "service/job" in names
        processes = {span["process"] for span in trace["spans"]}
        assert "repro-router" in processes
        assert "repro-serve" in processes

    def test_route_span_parents_under_the_client_request(
        self, fleet, adder_pair,
    ):
        recorder = Recorder()
        recorder.start_trace(process="test-client")
        with fleet.client() as client:
            _, response = client.check(*adder_pair, recorder=recorder)
        spans = {
            span["name"]: span for span in response["trace"]["spans"]
        }
        route = spans["fleet/route"]
        assert route["parent_id"] == spans["client/request"]["span_id"]
        assert spans["service/job"]["parent_id"] == route["span_id"]


class TestHealthAndFailover:
    def test_dead_shard_leaves_the_ring_and_submits_fail_over(
        self, fleet, adder_pair,
    ):
        a = read_aag(io.StringIO(adder_pair[0]))
        b = read_aag(io.StringIO(adder_pair[1]))
        home = fleet.home_of(cache_key(a, b))
        survivor = [s for s in fleet.addresses if s != home][0]
        fleet.stop_shard(home)
        deadline = 50
        while len(fleet.router.ring) > 1 and deadline:
            deadline -= 1
            fleet.call(asyncio.sleep(0.1))
        assert fleet.router.ring.shards == (survivor,)
        with fleet.client() as client:
            result, response = client.check(*adder_pair)
        assert result.equivalent is True
        assert response["job"].endswith("@" + survivor)

    def test_connect_failure_fails_over_within_one_submit(
        self, fleet, adder_pair,
    ):
        a = read_aag(io.StringIO(adder_pair[0]))
        b = read_aag(io.StringIO(adder_pair[1]))
        home = fleet.home_of(cache_key(a, b))
        # Kill the home shard but do NOT wait for the health loop: the
        # submit itself must fail over along the ring.
        fleet.stop_shard(home)
        with fleet.client() as client:
            result, response = client.check(*adder_pair)
        assert result.equivalent is True
        assert fleet.counters()["fleet/submit-failovers"] >= 1

    def test_job_verbs_are_never_rerouted(self, fleet, adder_pair):
        with fleet.client() as client:
            submitted = client.submit(*adder_pair)
            job = submitted["job"]
            client.result(job, wait=True)
            shard = job.rpartition("@")[2]
            fleet.stop_shard(shard)
            deadline = 50
            while len(fleet.router.ring) > 1 and deadline:
                deadline -= 1
                fleet.call(asyncio.sleep(0.1))
            with pytest.raises(ServiceError) as excinfo:
                client.result(job)
        assert excinfo.value.code == protocol.ERR_SHARD_DOWN

    def test_recovered_shard_rejoins_the_ring(self, fleet, tmp_path):
        victim = fleet.addresses[0]
        fleet.stop_shard(victim)
        deadline = 50
        while len(fleet.router.ring) > 1 and deadline:
            deadline -= 1
            fleet.call(asyncio.sleep(0.1))
        assert len(fleet.router.ring) == 1
        fleet.start_shard(victim, tmp_path)
        deadline = 50
        while len(fleet.router.ring) < 2 and deadline:
            deadline -= 1
            fleet.call(asyncio.sleep(0.1))
        assert len(fleet.router.ring) == 2
        counters = fleet.counters()
        assert counters["fleet/shard-downs"] == 1
        assert counters["fleet/shard-ups"] == 1

    def test_bad_result_timeout_leaves_the_shard_up(self, fleet, adder_pair):
        with fleet.client() as client:
            job = client.submit(*adder_pair)["job"]
            for timeout in ("soon", [1], "later"):
                with pytest.raises(ServiceError) as excinfo:
                    client.request({"verb": "result", "job": job,
                                    "wait": True, "timeout": timeout})
                assert excinfo.value.code == protocol.ERR_INVALID_REQUEST
            response = client.result(job, wait=True)
        assert response["verdict"] == "equivalent"
        assert fleet.counters().get("fleet/shard-downs", 0) == 0
        assert len(fleet.router.ring) == 2


class TestTelemetry:
    def test_stats_verb_reports_router_counters(self, fleet, adder_pair):
        with fleet.client() as client:
            client.check(*adder_pair)
            stats = client.stats()
        assert stats["counters"]["fleet/jobs-routed"] == 1
        gauges = stats["gauges"]
        assert gauges["fleet/shards-up"] == 2
        occupancy = [
            value for name, value in gauges.items()
            if name.startswith("fleet/ring-occupancy/")
        ]
        assert len(occupancy) == 2
        assert sum(occupancy) == pytest.approx(1.0)

    def test_metrics_verb_and_prometheus_rendering(
        self, fleet, adder_pair,
    ):
        with fleet.client() as client:
            client.check(*adder_pair)
            metrics, prometheus = client.metrics()
        assert "fleet/route-seconds" in metrics["histograms"]
        assert "repro_fleet_route_seconds_count" in prometheus
        assert "repro_fleet_jobs_routed_total" in prometheus
        assert "repro_fleet_shards_up" in prometheus

    def test_metrics_http_endpoint_scrapes(self, tmp_path, adder_pair):
        harness = RouterHarness(
            tmp_path, metrics_address="127.0.0.1:0",
        )
        try:
            with harness.client() as client:
                client.check(*adder_pair)
            port = harness.router.metrics_port
            assert port
            with urllib.request.urlopen(
                "http://127.0.0.1:%d/metrics" % port, timeout=10,
            ) as response:
                body = response.read().decode("utf-8")
            assert "repro_fleet_jobs_routed_total 1" in body
            assert "repro_fleet_cache_hit_rate" in body
        finally:
            harness.close()

    def test_shutdown_verb_stops_the_router_only(
        self, fleet, adder_pair,
    ):
        with fleet.client() as client:
            response = client.shutdown()
        assert response["ok"]
        deadline = 50
        while fleet.router._server is not None and deadline:
            deadline -= 1
            fleet.call(asyncio.sleep(0.1))
        # Shards keep serving after the router is gone.
        with ServiceClient(fleet.addresses[0]) as direct:
            assert direct.ping()["ok"]


class TestProgress:
    def test_progress_forwards_to_the_owning_shard(
        self, fleet, adder_pair,
    ):
        with fleet.client() as client:
            _, response = client.check(*adder_pair)
            progress = client.progress(response["job"])
        assert progress["job"] == response["job"]
        assert progress["state"] == "done"
        assert "progress" in progress

    def test_progress_listing_merges_the_fleet(self, fleet, adder_pair):
        with fleet.client() as client:
            _, response = client.check(*adder_pair)
            # The terminal listing is eventually consistent with the
            # shard's done-callback; poll briefly.
            for _ in range(100):
                listing = client.progress()
                jobs = {entry["job"] for entry in listing["jobs"]}
                if response["job"] in jobs:
                    break
                fleet.call(asyncio.sleep(0.02))
        assert response["job"] in jobs
        assert all("@" in job_id for job_id in jobs)
        assert isinstance(listing["queue_depth"], int)

    def test_uptime_gauge_and_build_info(self, fleet):
        report = fleet.router.stats_report()
        assert report["gauges"]["fleet/uptime-seconds"] > 0.0
        text = fleet.router.prometheus_text()
        assert 'repro_build_info{component="repro-router"' in text
        assert "repro_fleet_uptime_seconds" in text
