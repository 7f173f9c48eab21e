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
import os
import socket
import socketserver
import sys
import threading
import urllib.request

import pytest

from repro.aig.aiger import read_aag, write_aag
from repro.analyze.schemas import RESULT_SCHEMA
from repro.circuits import kogge_stone_adder, ripple_carry_adder
from repro.circuits.faults import Fault, inject
from repro.fleet import AsyncServiceClient, FleetRouter, HashRing
from repro.fleet.router import MAX_IDLE_CONNECTIONS
from repro.instrument import Recorder, TraceContext
from repro.service import CecServer, ServiceClient, ServiceError
from repro.service import protocol
from repro.service import server as server_module
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
            assert not self.thread.is_alive(), "router loop did not stop"
            self.loop.close()

    def client(self):
        return ServiceClient(self.router_address)

    def counters(self):
        return self.router.stats_report()["counters"]

    def settle_fills(self):
        """Wait for the router's background home fills to finish."""

        async def settle():
            while self.router._fills:
                await asyncio.gather(*self.router._fills)

        self.call(settle())

    def shard_counters(self, address):
        return self.shards[address].stats_report()["counters"]


def file_tree(root):
    """Every path under *root*, relative and sorted."""
    return sorted(
        os.path.relpath(os.path.join(directory, name), root)
        for directory, dirs, files in os.walk(root)
        for name in dirs + files
    )


def pair_key_of(pair):
    return cache_key(read_aag(io.StringIO(pair[0])),
                     read_aag(io.StringIO(pair[1])))


def home_and_peer(harness, pair):
    home = harness.home_of(pair_key_of(pair))
    return home, [s for s in harness.addresses if s != home][0]


def same_home_pairs(harness, count):
    """``(home, peer, pairs)``: *count* distinct equivalent adder pairs
    whose keys all have *home* as their home shard."""
    homes = {}
    for width in range(3, 3 + 2 * count):
        pair = (aag_text(ripple_carry_adder(width)),
                aag_text(kogge_stone_adder(width)))
        home, peer = home_and_peer(harness, pair)
        homes.setdefault((home, peer), []).append(pair)
    (home, peer), pairs = max(homes.items(), key=lambda item: len(item[1]))
    return home, peer, pairs[:count]


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

    @pytest.mark.parametrize("fields", [
        {"options": {"refine_batch": 1}},
        {"options": {"proof": False}},
        {"options": {"proof": True}},
        {"options": {"use_simulation": False}},
        {"options": {"sim_words": "4"}},
        {"options": {"cex_neighbors": -2}},
        {"time_limit": "5"},
        {"time_limit": -1},
        {"time_limit": True},
        {"time_limit": float("nan")},
        {"conflict_limit": 2.5},
        {"conflict_limit": -1},
        {"conflict_limit": True},
    ], ids=["removed", "proof-off", "proof-on", "no-simulation",
            "str-words", "neg-neighbors", "str-time",
            "neg-time", "bool-time", "nan-time", "float-conflict-limit",
            "neg-conflict-limit", "bool-conflict-limit"])
    def test_bad_options_rejected_at_submit(self, fleet, adder_pair,
                                            fields):
        with fleet.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.submit(*adder_pair, **fields)
        assert excinfo.value.code == protocol.ERR_BAD_INPUT
        counters = fleet.counters()
        assert counters["fleet/jobs-rejected"] == 1
        assert "fleet/jobs-routed" not in counters
        for shard in fleet.shards.values():
            assert len(shard.jobs) == 0
            assert shard.cache.keys() == []

    @pytest.mark.parametrize("fields", [
        {"time_limit": 0}, {"time_limit": 0.5}, {"time_limit": None},
        {"conflict_limit": 0}, {"conflict_limit": None},
    ], ids=["zero-time", "half-second", "null-time", "zero-conflicts",
            "null-conflicts"])
    def test_budget_boundaries_are_admitted(self, fleet, adder_pair,
                                            fields):
        request = {"verb": "submit", "aag_a": adder_pair[0],
                   "aag_b": adder_pair[1]}
        request.update(fields)
        with fleet.client() as client:
            submitted = client.request(request)
            response = client.result(submitted["job"], wait=True)
        assert response["state"] == "done"
        assert fleet.counters()["fleet/jobs-routed"] == 1

    def test_unknown_verb_is_rejected(self, fleet):
        with fleet.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.request({"verb": "frobnicate"})
        assert excinfo.value.code == protocol.ERR_INVALID_REQUEST

    def test_truncated_aiger_rejected_at_submit(self, fleet, adder_pair):
        with fleet.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.submit("aag 3 2 0 1 1\n2\n4\n6\n", adder_pair[0])
            # The connection survives the rejected submit.
            assert client.ping()["ok"] is True
        assert excinfo.value.code == protocol.ERR_BAD_INPUT
        assert fleet.counters()["fleet/jobs-rejected"] == 1

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

    def test_repeat_hit_costs_home_one_submit_and_no_probe(
        self, fleet, adder_pair,
    ):
        home, peer = home_and_peer(fleet, adder_pair)
        with fleet.client() as client:
            client.check(*adder_pair)
            before = {shard: fleet.shard_counters(shard)
                      for shard in (home, peer)}
            assert client.submit(*adder_pair)["cached"] is True
        for shard, submits in ((home, 1), (peer, 0)):
            after = fleet.shard_counters(shard)
            for name, added in (("service/jobs-submitted", submits),
                                ("service/cache-probes", 0)):
                assert after.get(name, 0) == \
                    before[shard].get(name, 0) + added, (shard, name)

    def test_home_that_ignores_cache_only_admits_one_job(
        self, fleet, adder_pair, monkeypatch,
    ):
        home, _ = home_and_peer(fleet, adder_pair)
        server = fleet.shards[home]
        handle_submit = server._handle_submit

        def ignore_cache_only(request):
            request = dict(request)
            request.pop("cache_only", None)
            return handle_submit(request)

        monkeypatch.setattr(server, "_handle_submit", ignore_cache_only)
        with fleet.client() as client:
            result, response = client.check(*adder_pair)
        assert result.equivalent is True
        assert response["cached"] is False
        assert response["job"].endswith("@" + home)
        assert sum(len(shard.jobs) for shard in fleet.shards.values()) == 1

    def test_cache_only_from_a_client_is_not_forwarded(
        self, fleet, adder_pair,
    ):
        # cache_only is the router's own field: a client's cold submit
        # that carries it is admitted like any other.
        with fleet.client() as client:
            response = client.request({
                "verb": "submit", "aag_a": adder_pair[0],
                "aag_b": adder_pair[1], "cache_only": True,
            })
            final = client.result(response["job"], wait=True)
        assert response["cached"] is False
        assert final["verdict"] == "equivalent"

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


    @pytest.mark.parametrize("verb", ["cache", "cache-get", "cache-put"])
    @pytest.mark.parametrize("kind", ["absolute", "dotdot", "slash",
                                      "upper"])
    def test_non_hex_key_is_refused_before_the_disk(
        self, tmp_path, verb, kind,
    ):
        # Shard cache roots sit inside tmp_path/"a", so even the ".."
        # key would land inside tmp_path, where the tree check sees it.
        key = {"absolute": str(tmp_path / "abs"), "dotdot": "../outside",
               "slash": "ab/cd", "upper": "ABCDEF"}[kind]
        (tmp_path / "a" / "b").mkdir(parents=True)
        harness = RouterHarness(tmp_path / "a" / "b")
        try:
            before = file_tree(tmp_path)
            with harness.client() as client:
                with pytest.raises(ServiceError) as err:
                    client.request({"verb": verb, "key": key,
                                    "result": {"equivalent": True}})
            after = file_tree(tmp_path)
        finally:
            harness.close()
        assert err.value.code == protocol.ERR_INVALID_REQUEST
        assert after == before

    def test_undecided_put_leaves_both_shards_up(self, tmp_path):
        # Health pings a minute apart: only request errors could take a
        # shard out of the ring here.
        harness = RouterHarness(tmp_path, health_interval=60.0)
        try:
            with harness.client() as client:
                for equivalent in ("yes", 2, "yes"):
                    with pytest.raises(ServiceError) as err:
                        client.cache_put("%040x" % 0xBAD,
                                         {"schema": RESULT_SCHEMA,
                                          "equivalent": equivalent})
                    assert err.value.code == protocol.ERR_BAD_INPUT
                assert client.ping()["ok"] is True
            counters = harness.counters()
            assert len(harness.router.ring) == 2
        finally:
            harness.close()
        assert counters.get("fleet/shard-errors", 0) == 0
        assert counters.get("fleet/shard-downs", 0) == 0


class TestMissPlacement:
    def test_second_miss_runs_on_the_idle_peer_and_fills_home(
        self, fleet, gate,
    ):
        home, peer, (first, second) = same_home_pairs(fleet, 2)
        gate.clear()
        with fleet.client() as client:
            one = client.submit(*first)["job"]
            two = client.submit(
                *second, trace=TraceContext.new().to_wire(),
            )["job"]
            gate.set()
            client.result(one, wait=True)
            relayed = client.result(two, wait=True)
            fleet.settle_fills()
            again = client.submit(*second)
        assert one.endswith("@" + home)
        assert two.endswith("@" + peer)
        route = [span for span in relayed["trace"]["spans"]
                 if span["name"] == "fleet/route"]
        assert [span["offloaded_from"] for span in route] == [home]
        # The fill made the repeat a hit on home's own disk.
        assert again["cached"] is True
        assert again["job"].endswith("@" + home)
        counters = fleet.counters()
        assert counters["fleet/miss-offloads"] == 1
        assert counters["fleet/home-fills"] == 1
        assert counters["fleet/cache-home-hits"] == 1
        assert counters.get("fleet/cache-transfers", 0) == 0
        assert fleet.router._offloads == {}

    def test_miss_stays_home_when_every_shard_is_busy(self, fleet, gate):
        home, peer, (held_home, held_peer, third) = same_home_pairs(
            fleet, 3,
        )
        gate.clear()
        held = []
        for shard, pair in ((home, held_home), (peer, held_peer)):
            with ServiceClient(shard) as direct:
                held.append((shard, direct.submit(*pair)["job"]))
        with fleet.client() as client:
            job = client.submit(*third)["job"]
            gate.set()
            assert client.result(job, wait=True)["verdict"] == "equivalent"
        for shard, job_id in held:
            with ServiceClient(shard) as direct:
                direct.result(job_id, wait=True)
        assert job.endswith("@" + home)
        assert "fleet/miss-offloads" not in fleet.counters()

    def test_peer_entry_is_transferred_not_offloaded(self, fleet, gate):
        home, peer, (seeded, busy) = same_home_pairs(fleet, 2)
        with ServiceClient(peer) as direct:
            direct.check(*seeded)
        gate.clear()
        with ServiceClient(home) as direct:
            held = direct.submit(*busy)["job"]
            with fleet.client() as client:
                response = client.submit(*seeded)
            gate.set()
            direct.result(held, wait=True)
        assert response["cached"] is True
        assert response["job"].endswith("@" + home)
        counters = fleet.counters()
        assert counters["fleet/cache-transfers"] == 1
        assert "fleet/miss-offloads" not in counters

    @pytest.mark.parametrize("old", ["home", "peer"])
    def test_shard_without_idle_workers_routes_as_before(
        self, fleet, gate, old,
    ):
        # A home that omits the field counts as not busy; a peer that
        # omits it is never chosen. Either way the miss stays home.
        home, peer, (first, second) = same_home_pairs(fleet, 2)
        server = fleet.shards[home if old == "home" else peer]
        for name in ("_handle_submit", "_handle_cache_verb"):

            def strip(*args, _handler=getattr(server, name)):
                response = _handler(*args)
                response.pop("idle_workers", None)
                return response

            setattr(server, name, strip)
        gate.clear()
        with fleet.client() as client:
            one = client.submit(*first)["job"]
            two = client.submit(*second)["job"]
            gate.set()
            for job in (one, two):
                client.result(job, wait=True)
        assert one.endswith("@" + home)
        assert two.endswith("@" + home)
        assert "fleet/miss-offloads" not in fleet.counters()

    def test_failed_fill_leaves_the_lazy_transfer(self, fleet, gate):
        home, peer, (first, second) = same_home_pairs(fleet, 2)
        gate.clear()
        cache = fleet.shards[home].cache
        with fleet.client() as client:
            one = client.submit(*first)["job"]
            two = client.submit(*second)["job"]
            gate.set()
            client.result(one, wait=True)

            def full_disk(key, result, meta=None):
                raise OSError(errno.ENOSPC, "No space left on device")

            cache.store = full_disk
            try:
                client.result(two, wait=True)
                fleet.settle_fills()
            finally:
                del cache.store
            failed = fleet.counters()
            again = client.submit(*second)
        assert two.endswith("@" + peer)
        assert failed["fleet/home-fill-failures"] == 1
        assert "fleet/home-fills" not in failed
        assert again["cached"] is True
        assert again["job"].endswith("@" + home)
        assert fleet.counters()["fleet/cache-transfers"] == 1

    @pytest.mark.parametrize("end", ["cancelled", "undecided"])
    def test_cancelled_or_undecided_offload_is_never_filled(
        self, fleet, gate, monkeypatch, end,
    ):
        home, peer, (first, second, blocker) = same_home_pairs(fleet, 3)
        gate.clear()
        held = None
        if end == "cancelled":
            # The peer claims a free worker while one job holds it, so
            # the offloaded job queues there and can be cancelled.
            monkeypatch.setattr(fleet.shards[peer], "idle_workers",
                                lambda: 1)
            with ServiceClient(peer) as direct:
                held = direct.submit(*blocker)["job"]
        with fleet.client() as client:
            one = client.submit(*first)["job"]
            two = client.submit(
                *second, time_limit=0 if end == "undecided" else None,
            )["job"]
            assert two.endswith("@" + peer)
            if end == "cancelled":
                assert client.cancel(two)["cancelled"] is True
                with pytest.raises(ServiceError) as err:
                    client.result(two, wait=True)
                assert err.value.code == protocol.ERR_CANCELLED
            gate.set()
            if end == "undecided":
                verdict = client.result(two, wait=True)["verdict"]
                assert verdict == "undecided"
            client.result(one, wait=True)
        if held is not None:
            with ServiceClient(peer) as direct:
                direct.result(held, wait=True)
        counters = fleet.counters()
        assert counters["fleet/miss-offloads"] == 1
        assert "fleet/home-fills" not in counters
        assert "fleet/home-fill-failures" not in counters
        assert pair_key_of(second) not in fleet.shards[home].cache
        assert fleet.router._offloads == {}
        assert fleet.router._fills == set()

    def test_fill_is_bound_to_the_key_across_a_peer_restart(
        self, tmp_path, gate,
    ):
        # A restarted peer numbers its jobs from j000001 again, so an
        # unrelated job there can get the routed id of an offloaded job
        # whose result nobody fetched. Its result must not fill home.
        harness = RouterHarness(tmp_path, health_interval=60.0)
        try:
            home, peer, (first, second) = same_home_pairs(harness, 2)
            other = next(
                pair for pair in (
                    (aag_text(ripple_carry_adder(width)),
                     aag_text(inject(kogge_stone_adder(width),
                                     Fault("output_flip", 0))))
                    for width in range(3, 15)
                ) if home_and_peer(harness, pair)[0] == peer
            )
            gate.clear()
            with harness.client() as client:
                one = client.submit(*first)["job"]
                two = client.submit(*second)["job"]
                gate.set()
                client.result(one, wait=True)
            assert two.endswith("@" + peer)
            with ServiceClient(peer) as direct:
                direct.result(two.rpartition("@")[0], wait=True)
            # Same address, fresh cache: the entry for *second* is gone.
            harness.stop_shard(peer)
            harness.start_shard(peer, tmp_path / "restarted")
            with harness.client() as client:
                three = client.submit(*other)["job"]
                verdict = client.result(three, wait=True)["verdict"]
                harness.settle_fills()
                filled = pair_key_of(second) in harness.shards[home].cache
                again = client.submit(*second)["job"]
                repeat = client.result(again, wait=True)["verdict"]
            counters = harness.counters()
        finally:
            harness.close()
        assert three == two
        assert verdict == "not_equivalent"
        assert filled is False
        assert repeat == "equivalent"
        assert counters["fleet/home-fill-failures"] == 1
        assert "fleet/home-fills" not in counters

    @pytest.mark.parametrize("home_busy", [False, True],
                             ids=["home-idle", "home-busy"])
    def test_torn_peer_entry_is_not_a_transfer_source(
        self, fleet, gate, home_busy,
    ):
        home, peer, (torn, busy) = same_home_pairs(fleet, 2)
        with ServiceClient(peer) as direct:
            direct.check(*torn)
        path = fleet.shards[peer].cache.result_path(pair_key_of(torn))
        with open(path, "w") as handle:
            handle.write('{"equivalent": tru')
        held = None
        if home_busy:
            gate.clear()
            with ServiceClient(home) as direct:
                held = direct.submit(*busy)["job"]
        with fleet.client() as client:
            job = client.submit(*torn)["job"]
            gate.set()
            response = client.result(job, wait=True)
        if held is not None:
            with ServiceClient(home) as direct:
                direct.result(held, wait=True)
        assert response["verdict"] == "equivalent"
        assert job.endswith("@" + (peer if home_busy else home))
        assert "fleet/cache-transfer-failures" not in fleet.counters()


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

    def test_router_spans_share_the_epoch_timeline(
        self, fleet, adder_pair,
    ):
        _, peer = home_and_peer(fleet, adder_pair)
        with ServiceClient(peer) as direct:
            direct.check(*adder_pair)
        recorder = Recorder()
        recorder.start_trace(process="test-client")
        with fleet.client() as client:
            _, response = client.check(*adder_pair, recorder=recorder)
        assert fleet.counters()["fleet/cache-transfers"] == 1
        spans = {
            span["name"]: span for span in response["trace"]["spans"]
        }
        request = spans["client/request"]
        for name in ("fleet/route", "fleet/cache-transfer"):
            span = spans[name]
            # Inside the client's request, give or take clock jitter.
            assert request["ts"] - 1.0 <= span["ts"], (name, span)
            assert span["ts"] + span["dur"] \
                <= request["ts"] + request["dur"] + 1.0, (name, span)

    def test_a_reused_routed_id_gets_no_stale_spans(
        self, tmp_path, adder_pair,
    ):
        # A restarted shard numbers its jobs from j000001 again, so the
        # spans stashed for a traced job whose result was fetched from
        # the shard directly meet the next job with that routed id.
        harness = RouterHarness(tmp_path, health_interval=60.0)
        try:
            with harness.client() as client:
                first = client.submit(
                    *adder_pair, trace=TraceContext.new().to_wire(),
                )["job"]
            raw, _, shard = first.rpartition("@")
            with ServiceClient(shard) as direct:
                direct.result(raw, wait=True)
            harness.stop_shard(shard)
            harness.start_shard(shard, tmp_path / "restarted")
            with harness.client() as client:
                again = client.submit(*adder_pair)["job"]
                trace = client.result(again, wait=True)["trace"]
            stash = dict(harness.router._job_spans)
        finally:
            harness.close()
        assert again == first
        assert len({span["trace_id"] for span in trace["spans"]}) == 1
        assert "fleet/route" not in {span["name"] for span in trace["spans"]}
        assert stash == {}


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


class OverlongShard:
    """A fake shard on a Unix socket: it answers ``ping`` like a shard,
    and every other request with one line of over 10 KB."""

    def __init__(self, address):
        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                for line in self.rfile:
                    verb = json.loads(line).get("verb")
                    if verb == "ping":
                        reply = protocol.ping_response()
                    else:
                        reply = protocol.ok_response(verb, pad="x" * 10240)
                    try:
                        self.wfile.write(protocol.encode(reply))
                    except OSError:
                        return

        self.server = socketserver.ThreadingUnixStreamServer(
            address, Handler,
        )
        self.server.daemon_threads = True
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True,
        )
        self.thread.start()

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        assert not self.thread.is_alive(), "fake shard did not stop"


class OverlongHarness(RouterHarness):
    """A router over one real shard (``shard-b``) and one
    :class:`OverlongShard` (``shard-a``)."""

    def start_shard(self, address, tmp_path):
        if not address.endswith("shard-a.sock"):
            return RouterHarness.start_shard(self, address, tmp_path)
        shard = OverlongShard(address)
        self.shards[address] = shard
        return shard


@pytest.fixture()
def overlong(tmp_path, monkeypatch):
    # A 10 KB reply overruns this limit: every protocol line the tests
    # send or expect from the real shard stays under it.
    monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 4096)
    harness = OverlongHarness(tmp_path)
    yield harness
    harness.close()


class TestOverlongReplies:
    def test_sync_client_names_the_limit(self, overlong):
        with ServiceClient(overlong.addresses[0]) as client:
            with pytest.raises(protocol.ProtocolError,
                               match="reply line exceeds 4096 bytes"):
                client.status("j000001")

    def test_job_verb_answers_shard_down_and_charges_the_shard(
        self, overlong,
    ):
        fake = overlong.addresses[0]
        with overlong.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.status("j000001@" + fake)
            # The router answered and kept the client's connection.
            assert client.ping()["ok"] is True
        assert excinfo.value.code == protocol.ERR_SHARD_DOWN
        assert "reply line exceeds 4096 bytes" in str(excinfo.value)
        assert overlong.counters()["fleet/shard-errors"] >= 1

    def test_submit_fails_over_to_the_next_shard(self, overlong, adder_pair):
        fake, real = overlong.addresses
        a, b = (read_aag(io.StringIO(text)) for text in adder_pair)
        # Socket paths differ between runs, so pick an engine seed
        # that makes the fake shard the query's home.
        options = next(
            {"seed": seed} for seed in range(64)
            if overlong.home_of(cache_key(a, b, {"seed": seed})) == fake
        )
        with overlong.client() as client:
            submitted = client.submit(*adder_pair, options=options)
        assert submitted["job"].endswith("@" + real)
        counters = overlong.counters()
        assert counters["fleet/submit-failovers"] == 1
        assert counters["fleet/shard-errors"] >= 1
        assert counters["fleet/jobs-routed"] == 1


class TestConnectionPool:
    def test_hits_reuse_pooled_connections(
        self, tmp_path, adder_pair, monkeypatch,
    ):
        opened = []

        class CountingClient(AsyncServiceClient):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self.address)

        monkeypatch.setattr(
            "repro.fleet.router.AsyncServiceClient", CountingClient,
        )
        # No health ping (which always opens a connection) in the test.
        harness = RouterHarness(tmp_path, health_interval=60.0)
        try:
            with harness.client() as client:
                client.check(*adder_pair)
                cold = sorted(opened)
                for _ in range(3):
                    _, response = client.check(*adder_pair)
                    assert response["cached"] is True
        finally:
            harness.close()
        # The miss used one connection per shard, the hits none.
        assert cold == sorted(harness.addresses)
        assert len(opened) == 2

    def test_concurrent_requests_never_share_a_connection(
        self, fleet, adder_pair,
    ):
        # An equivalent and a non-equivalent query in flight at once: a
        # connection handed to two exchanges would cross their replies.
        flipped = ripple_carry_adder(4)
        flipped.set_output(0, flipped.outputs[0] ^ 1)
        pairs = {True: adder_pair, False: (adder_pair[0], aag_text(flipped))}
        with fleet.client() as client:
            for pair in pairs.values():
                client.check(*pair)
        errors = []

        def hammer(equivalent):
            try:
                with fleet.client() as client:
                    for _ in range(10):
                        result, response = client.check(*pairs[equivalent])
                        assert result.equivalent is equivalent
                        assert response["cached"] is True
            except Exception as exc:  # reported by the test thread
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(k % 2 == 0,))
            for k in range(6)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert fleet.counters().get("fleet/shard-errors", 0) == 0
        assert all(len(idle) <= MAX_IDLE_CONNECTIONS
                   for idle in fleet.router._idle.values())

    def test_restarted_shard_is_reached_without_errors(
        self, tmp_path, adder_pair,
    ):
        harness = RouterHarness(tmp_path, health_interval=60.0)
        try:
            home, _ = home_and_peer(harness, adder_pair)
            with harness.client() as client:
                client.check(*adder_pair)
                # Same address, same cache: the router's idle
                # connections to the old process are stale.
                harness.stop_shard(home)
                harness.start_shard(home, tmp_path)
                result, response = client.check(*adder_pair)
            counters = harness.counters()
        finally:
            harness.close()
        assert result.equivalent is True
        assert response["cached"] is True
        assert response["job"].endswith("@" + home)
        # The cache-only submit itself reached the restarted shard.
        assert counters["fleet/cache-home-hits"] == 1
        assert counters.get("fleet/shard-errors", 0) == 0
        assert counters.get("fleet/submit-failovers", 0) == 0

    def test_draining_home_fails_over_to_the_peer(
        self, tmp_path, adder_pair, monkeypatch,
    ):
        gate = threading.Event()
        execute_job = server_module.execute_job

        def gated_job(payload):
            gate.wait(30)
            return execute_job(payload)

        monkeypatch.setattr(server_module, "execute_job", gated_job)
        # A draining shard keeps its listener but accepts nothing, so
        # only a timeout tells the router on a fresh connection.
        harness = RouterHarness(
            tmp_path, health_interval=60.0, shard_timeout=1.0,
        )
        try:
            home, peer = home_and_peer(harness, adder_pair)
            with harness.client() as client:
                running = client.submit(*adder_pair)["job"]
                assert running.endswith("@" + home)
                # The job keeps home draining; its handler threads still
                # answer on the router's idle connections.
                harness.shards[home].shutdown()
                response = client.submit(*adder_pair)
                gate.set()
                final = client.result(response["job"], wait=True)
            counters = harness.counters()
        finally:
            gate.set()
            harness.close()
        assert response["job"].endswith("@" + peer)
        assert final["verdict"] == "equivalent"
        assert counters["fleet/submit-failovers"] >= 1

    def test_shard_leaving_the_ring_drops_its_idle_connections(
        self, fleet, adder_pair,
    ):
        home, peer = home_and_peer(fleet, adder_pair)
        with fleet.client() as client:
            client.check(*adder_pair)
        assert fleet.router._idle[home] and fleet.router._idle[peer]
        fleet.stop_shard(home)
        deadline = 50
        while len(fleet.router.ring) > 1 and deadline:
            deadline -= 1
            fleet.call(asyncio.sleep(0.1))
        assert fleet.router.ring.shards == (peer,)
        assert not fleet.router._idle.get(home)
        assert fleet.router._idle[peer]

    def test_client_hangup_mid_wait_leaves_the_shard_up(
        self, fleet, adder_pair, monkeypatch,
    ):
        gate = threading.Event()
        execute_job = server_module.execute_job

        def gated_job(payload):
            gate.wait(30)
            return execute_job(payload)

        monkeypatch.setattr(server_module, "execute_job", gated_job)
        for shard in fleet.shards.values():
            shard.poll_interval = 0.02
        try:
            with fleet.client() as client:
                job = client.submit(*adder_pair)["job"]
                for _ in range(2):
                    with socket.socket(socket.AF_UNIX) as sock:
                        sock.settimeout(10)
                        sock.connect(fleet.router_address)
                        sock.sendall(protocol.encode(
                            {"verb": "result", "job": job, "wait": True}
                        ))
                        with sock.makefile("rb") as stream:
                            heartbeat = json.loads(stream.readline())
                        assert heartbeat["final"] is False
                # Heartbeats keep coming for the closed connections.
                fleet.call(asyncio.sleep(0.5))
                counters = fleet.counters()
                gate.set()
                final = client.result(job, wait=True)
        finally:
            gate.set()
        assert counters.get("fleet/shard-errors", 0) == 0
        assert len(fleet.router.ring) == 2
        assert final["verdict"] == "equivalent"


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

    def test_stats_verb_carries_latency_quantiles(self, fleet, adder_pair):
        with fleet.client() as client:
            client.check(*adder_pair)
            gauges = client.stats()["gauges"]
        quantiles = {name for name in gauges
                     if name.rsplit("/", 1)[-1] in ("p50", "p90", "p99")}
        assert quantiles == {"fleet/route-seconds/p50",
                             "fleet/route-seconds/p90",
                             "fleet/route-seconds/p99"}
        assert gauges["fleet/route-seconds/p50"] > 0.0

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

    def test_router_histograms_after_a_miss_and_a_transfer(
        self, fleet, adder_pair,
    ):
        """The router's histograms, with unit, bounds and count, after
        one routed miss and one submit served by a cross-shard
        transfer."""
        with fleet.client() as client:
            _, response = client.check(*adder_pair)
            assert response["cached"] is False
        other = (aag_text(ripple_carry_adder(5)),
                 aag_text(kogge_stone_adder(5)))
        _, peer = home_and_peer(fleet, other)
        with ServiceClient(peer) as direct:
            direct.check(*other)
        with fleet.client() as client:
            _, response = client.check(*other)
            assert response["cached"] is True
            document, _ = client.metrics()
        assert fleet.counters()["fleet/cache-transfers"] == 1
        time_bounds = [
            0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
            0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
        ]
        assert {
            name: (block["unit"], block["buckets"], block["count"])
            for name, block in document["histograms"].items()
        } == {
            "fleet/route-seconds": ("seconds", time_bounds, 2),
            "fleet/transfer-seconds": ("seconds", time_bounds, 1),
        }

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

    def test_keyless_progress_is_unknown_job(self, fleet, adder_pair):
        with fleet.client() as client:
            client.check(*adder_pair)
            with pytest.raises(ServiceError) as excinfo:
                client.request({"verb": "progress"})
        assert excinfo.value.code == "unknown-job"

    def test_uptime_gauge_and_build_info(self, fleet):
        report = fleet.router.stats_report()
        assert report["gauges"]["fleet/uptime-seconds"] > 0.0
        text = fleet.router.prometheus_text()
        assert 'repro_build_info{component="repro-router"' in text
        assert "repro_fleet_uptime_seconds" in text
